//! Gibbons' run-time predictor \[8, 9\], as summarized in the paper.
//!
//! Gibbons uses the fixed template/predictor hierarchy of the paper's
//! Table 3 and tries each in order until one yields a valid prediction:
//!
//! | # | Template        | Predictor         |
//! |---|-----------------|-------------------|
//! | 1 | `(u,e,n,rtime)` | mean              |
//! | 2 | `(u,e)`         | linear regression |
//! | 3 | `(e,n,rtime)`   | mean              |
//! | 4 | `(e)`           | linear regression |
//! | 5 | `(n,rtime)`     | mean              |
//! | 6 | `()`            | linear regression |
//!
//! Differences from the Smith framework, faithfully reproduced:
//!
//! * node ranges are the fixed exponential buckets 1, 2–3, 4–7, 8–15, …;
//! * the regressions at levels 2/4/6 are **weighted** linear regressions
//!   over the `(mean nodes, mean run time)` of each node-bucket
//!   subcategory, weighted by the inverse variance of the subcategory's
//!   run times;
//! * history is never bounded.
//!
//! Level 1/3/5 means read exact sums from a runtime-ordered index once a
//! subcategory is large enough, and levels 2/4/6 reuse each
//! subcategory's `(mean nodes, mean run time, weight)` until it changes;
//! both are bit-identical to recomputing (DESIGN.md §11).
//!
//! Jobs lacking a user or executable fall into a single "unknown" value
//! for that characteristic (relevant for traces like SDSC that record
//! neither; level 1 then degenerates toward level 5, which is the
//! behaviour Gibbons' profiler would exhibit on such data).

use std::collections::HashMap;

use qpredict_durable::{Codec, CodecError, Reader, Writer};
use qpredict_workload::{Characteristic, Dur, Job, Sym, SymbolTable};

use crate::category::INDEX_MIN_POINTS;
use crate::estimators::{mean, mean_from_moments, weighted_linear, Estimate};
use crate::rtindex::RuntimeIndex;
use crate::{Prediction, RunTimePredictor};

/// Run times observed in one `(key, node-bucket)` subcategory.
#[derive(Debug, Clone, Default)]
struct SubCategory {
    runtimes: Vec<f64>,
    nodes: Vec<f64>,
    /// Runtime-ordered index of the run times, from
    /// [`INDEX_MIN_POINTS`] on. Derived; never encoded.
    index: Option<Box<RuntimeIndex>>,
    /// This subcategory's regression triple, until the next push.
    /// Derived; never encoded.
    triple: Option<(f64, f64, f64)>,
}

impl SubCategory {
    fn push(&mut self, rt: f64, nodes: f64) {
        self.runtimes.push(rt);
        self.nodes.push(nodes);
        self.triple = None;
        match self.index.as_mut() {
            Some(ix) => ix.insert(rt, 0.0),
            None => self.build_index(),
        }
    }

    /// Index the run times once there are enough of them.
    fn build_index(&mut self) {
        if self.runtimes.len() >= INDEX_MIN_POINTS {
            let points = self.runtimes.iter().map(|&rt| (rt, 0.0));
            self.index = Some(Box::new(RuntimeIndex::build(points)));
        }
    }

    /// Mean of the run times above `elapsed_s` (all of them when
    /// `elapsed_s <= 0`): from the index when it answers exactly, else
    /// by scanning in insertion order. The two agree bit for bit.
    fn mean_above(&self, elapsed_s: f64) -> Option<Estimate> {
        let bound = if elapsed_s <= 0.0 {
            f64::NEG_INFINITY
        } else {
            elapsed_s
        };
        match self.index.as_ref().and_then(|ix| ix.above(bound)) {
            Some((m, _, _)) => mean_from_moments(m.n, m.sy, m.syy),
            None => mean(
                self.runtimes
                    .iter()
                    .copied()
                    .filter(|&rt| elapsed_s <= 0.0 || rt > elapsed_s),
            ),
        }
    }

    /// `(mean nodes, mean run time, inverse run-time variance)` for the
    /// weighted regression, computed once per change. Near-zero
    /// variances are floored to keep weights finite.
    fn triple(&mut self) -> (f64, f64, f64) {
        if let Some(t) = self.triple {
            return t;
        }
        let var = self.runtime_variance().max(1.0); // floor: 1 s^2
        let t = (self.mean_nodes(), self.mean_runtime(), 1.0 / var);
        self.triple = Some(t);
        t
    }

    fn mean_nodes(&self) -> f64 {
        self.nodes.iter().sum::<f64>() / self.nodes.len() as f64
    }

    fn mean_runtime(&self) -> f64 {
        self.runtimes.iter().sum::<f64>() / self.runtimes.len() as f64
    }

    fn runtime_variance(&self) -> f64 {
        let n = self.runtimes.len() as f64;
        if n < 2.0 {
            return f64::NAN;
        }
        let m = self.mean_runtime();
        self.runtimes.iter().map(|r| (r - m).powi(2)).sum::<f64>() / (n - 1.0)
    }
}

/// Exponential node bucket: 1 -> 0, 2-3 -> 1, 4-7 -> 2, 8-15 -> 3, ...
fn node_bucket(nodes: u32) -> u32 {
    31 - nodes.max(1).leading_zeros()
}

type Key2 = (Option<Sym>, Option<Sym>); // (user, executable)

/// Gibbons' predictor state.
#[derive(Debug, Clone, Default)]
pub struct GibbonsPredictor {
    by_user_exe: HashMap<Key2, HashMap<u32, SubCategory>>,
    by_exe: HashMap<Option<Sym>, HashMap<u32, SubCategory>>,
    global: HashMap<u32, SubCategory>,
    total_sum: f64,
    total_n: u64,
    /// Longest run time observed so far; regressions at levels 2/4/6 can
    /// extrapolate wildly at unseen node counts, so predictions are
    /// clamped to twice this (floor: one hour).
    max_seen: f64,
}

/// Minimum points for a valid mean at levels 1/3/5.
const MIN_MEAN_POINTS: usize = 2;

impl GibbonsPredictor {
    /// An empty predictor.
    pub fn new() -> GibbonsPredictor {
        GibbonsPredictor::default()
    }

    /// Completed run times held: one per completion learned, since the
    /// history is never bounded. Each is also filed under its user and
    /// executable levels; this counts it once.
    pub fn resident_points(&self) -> usize {
        self.global.values().map(|s| s.runtimes.len()).sum()
    }

    /// One characteristic key's pair of levels: the bucket mean (1/3/5),
    /// else the regression across its buckets (2/4/6).
    fn levels(
        subcats: &mut HashMap<u32, SubCategory>,
        bucket: u32,
        elapsed_s: f64,
        nodes: f64,
    ) -> Option<Estimate> {
        Self::bucket_mean(subcats, bucket, elapsed_s)
            .or_else(|| Self::subcat_regression(subcats, nodes))
    }

    /// Level 1/3/5: mean of the run times in the exact node bucket,
    /// conditioned on the elapsed running time.
    fn bucket_mean(
        subcats: &HashMap<u32, SubCategory>,
        bucket: u32,
        elapsed_s: f64,
    ) -> Option<Estimate> {
        let est = subcats.get(&bucket)?.mean_above(elapsed_s)?;
        (est.n >= MIN_MEAN_POINTS).then_some(est)
    }

    /// Level 2/4/6: weighted linear regression over subcategory means,
    /// weighted by inverse run-time variance. Subcategories need at
    /// least two points to contribute a variance.
    fn subcat_regression(subcats: &mut HashMap<u32, SubCategory>, nodes: f64) -> Option<Estimate> {
        let mut triples: Vec<(f64, f64, f64)> = subcats
            .values_mut()
            .filter(|sc| sc.runtimes.len() >= 2)
            .map(SubCategory::triple)
            .collect();
        if triples.len() < 2 {
            return None;
        }
        // Deterministic order (HashMap iteration is not). Compare the
        // *whole* triple: two subcategories can share a mean node count,
        // and a tie there would leave their relative order — and hence
        // the f64 accumulation order inside the regression — up to the
        // map's iteration order, breaking cross-process bit-identity.
        triples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        weighted_linear(triples.into_iter(), nodes)
    }
}

/// Observation vectors keep insertion order: mean and variance sums
/// depend on the f64 summation order.
impl Codec for SubCategory {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.runtimes).put(&self.nodes);
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<SubCategory, CodecError> {
        let mut sc = SubCategory {
            runtimes: r.get()?,
            nodes: r.get()?,
            ..SubCategory::default()
        };
        if sc.runtimes.len() != sc.nodes.len() {
            return Err(r.error(format!(
                "{} runtimes vs {} node counts",
                sc.runtimes.len(),
                sc.nodes.len()
            )));
        }
        sc.build_index();
        Ok(sc)
    }
}

/// The complete mutable state (v3: the generation is `total_n`, not a
/// field). `Sym` keys are stored as interning
/// indices and decoded against the restorer's symbol table, which must
/// have the same interning order as the one the state was recorded
/// under.
impl Codec<SymbolTable> for GibbonsPredictor {
    fn encode(&self, w: &mut Writer) {
        w.record("gibbons-state v3");
        w.record("totals")
            .put(&self.total_sum)
            .put(&self.total_n)
            .put(&self.max_seen);
        w.map_records("ue", &self.by_user_exe);
        w.map_records("exe", &self.by_exe);
        w.record("glob").put(&self.global);
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<GibbonsPredictor, CodecError> {
        r.record("gibbons-state v3")?.record("totals")?;
        Ok(GibbonsPredictor {
            total_sum: r.get()?,
            total_n: r.get()?,
            max_seen: r.get()?,
            by_user_exe: r.map_records("ue", syms, &())?,
            by_exe: r.map_records("exe", syms, &())?,
            global: r.record("glob")?.get()?,
        })
    }
}

impl RunTimePredictor for GibbonsPredictor {
    fn name(&self) -> &'static str {
        "gibbons"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let _span = qpredict_obs::span("gibbons.predict");
        let u = job.characteristic(Characteristic::User);
        let e = job.characteristic(Characteristic::Executable);
        let bucket = node_bucket(job.nodes);
        let elapsed_s = elapsed.as_secs_f64();
        let nodes = job.nodes as f64;

        // 1/2: (u, e, n, rtime) mean, else (u, e) weighted regression
        let est = self
            .by_user_exe
            .get_mut(&(u, e))
            .and_then(|s| Self::levels(s, bucket, elapsed_s, nodes))
            // 3/4: (e, n, rtime) mean, else (e) weighted regression
            .or_else(|| {
                self.by_exe
                    .get_mut(&e)
                    .and_then(|s| Self::levels(s, bucket, elapsed_s, nodes))
            })
            // 5/6: (n, rtime) mean, else () weighted regression
            .or_else(|| Self::levels(&mut self.global, bucket, elapsed_s, nodes));

        let cap = (self.max_seen * 2.0).max(3600.0);
        match est {
            Some(est) if est.value.is_finite() => Prediction {
                estimate: Dur::from_secs_f64(est.value.clamp(1.0, cap)),
                ci_halfwidth: est.ci,
                fallback: false,
                holds_below: Dur::ZERO,
            }
            .clamped(elapsed),
            _ => {
                let fb = if self.total_n > 0 {
                    Dur::from_secs_f64(self.total_sum / self.total_n as f64)
                } else if let Some(m) = job.max_runtime {
                    m
                } else {
                    Dur::HOUR
                };
                Prediction::fallback(fb).clamped(elapsed)
            }
        }
    }

    fn on_complete(&mut self, job: &Job) {
        let _span = qpredict_obs::span("gibbons.learn");
        let u = job.characteristic(Characteristic::User);
        let e = job.characteristic(Characteristic::Executable);
        let bucket = node_bucket(job.nodes);
        let rt = job.runtime.as_secs_f64();
        let nodes = job.nodes as f64;
        self.by_user_exe
            .entry((u, e))
            .or_default()
            .entry(bucket)
            .or_default()
            .push(rt, nodes);
        self.by_exe
            .entry(e)
            .or_default()
            .entry(bucket)
            .or_default()
            .push(rt, nodes);
        self.global.entry(bucket).or_default().push(rt, nodes);
        self.total_sum += rt;
        self.total_n += 1;
        self.max_seen = self.max_seen.max(rt);
    }

    /// The completions learned from.
    fn generation(&self) -> Option<u64> {
        Some(self.total_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_durable::codec::{decode, encode};
    use qpredict_workload::{JobBuilder, JobId, SymbolTable};

    fn job(
        syms: &mut SymbolTable,
        user: &str,
        exe: &str,
        nodes: u32,
        rt: i64,
    ) -> qpredict_workload::Job {
        let u = syms.intern(user);
        let e = syms.intern(exe);
        JobBuilder::new()
            .with(Characteristic::User, u)
            .with(Characteristic::Executable, e)
            .nodes(nodes)
            .runtime(Dur(rt))
            .build(JobId(0))
    }

    #[test]
    fn exponential_buckets() {
        assert_eq!(node_bucket(1), 0);
        assert_eq!(node_bucket(2), 1);
        assert_eq!(node_bucket(3), 1);
        assert_eq!(node_bucket(4), 2);
        assert_eq!(node_bucket(7), 2);
        assert_eq!(node_bucket(8), 3);
        assert_eq!(node_bucket(512), 9);
    }

    #[test]
    fn cold_start_falls_back() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        let j = job(&mut syms, "a", "x", 4, 100);
        let pred = p.predict(&j, Dur::ZERO);
        assert!(pred.fallback);
    }

    #[test]
    fn level1_exact_match_wins() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        // Alice's `x` on 4 nodes: 100 s. Bob's `x` on 4 nodes: 900 s.
        for _ in 0..3 {
            p.on_complete(&job(&mut syms, "alice", "x", 4, 100));
            p.on_complete(&job(&mut syms, "bob", "x", 4, 900));
        }
        let pred = p.predict(&job(&mut syms, "alice", "x", 4, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert_eq!(pred.estimate, Dur(100));
    }

    #[test]
    fn level3_pools_users_for_same_executable() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for _ in 0..3 {
            p.on_complete(&job(&mut syms, "alice", "x", 4, 100));
            p.on_complete(&job(&mut syms, "bob", "x", 4, 300));
        }
        // Carol has never run `x`: levels 1-2 are empty for her; level 3
        // pools alice's and bob's runs.
        let pred = p.predict(&job(&mut syms, "carol", "x", 4, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert_eq!(pred.estimate, Dur(200));
    }

    #[test]
    fn level2_regression_extrapolates_across_buckets() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        // Alice's `x`: runtime ~ 100 * nodes, in buckets 0 (1 node) and
        // 2 (4 nodes).
        for _ in 0..3 {
            p.on_complete(&job(&mut syms, "alice", "x", 1, 100));
            p.on_complete(&job(&mut syms, "alice", "x", 4, 400));
        }
        // 16 nodes: bucket 4 has no data, level 1 invalid; level 2
        // regression across subcategory means predicts ~1600.
        let pred = p.predict(&job(&mut syms, "alice", "x", 16, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert!(
            (pred.estimate.seconds() - 1600).abs() <= 2,
            "got {:?}",
            pred.estimate
        );
    }

    #[test]
    fn level5_uses_node_bucket_across_everything() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        p.on_complete(&job(&mut syms, "a", "x", 8, 500));
        p.on_complete(&job(&mut syms, "b", "y", 9, 700));
        // New user, new exe, 10 nodes (bucket 3, same as 8 and 9).
        let pred = p.predict(&job(&mut syms, "c", "z", 10, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert_eq!(pred.estimate, Dur(600));
    }

    #[test]
    fn rtime_conditioning_at_level1() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for rt in [10, 10, 10, 6000, 8000] {
            p.on_complete(&job(&mut syms, "a", "x", 4, rt));
        }
        let queued = p.predict(&job(&mut syms, "a", "x", 4, 1), Dur::ZERO);
        assert_eq!(queued.estimate, Dur((10 + 10 + 10 + 6000 + 8000) / 5));
        let running = p.predict(&job(&mut syms, "a", "x", 4, 1), Dur(100));
        assert_eq!(running.estimate, Dur(7000));
    }

    #[test]
    fn missing_characteristics_pool_as_unknown() {
        let mut p = GibbonsPredictor::new();
        let anon = |nodes: u32, rt: i64| {
            JobBuilder::new()
                .nodes(nodes)
                .runtime(Dur(rt))
                .build(JobId(0))
        };
        p.on_complete(&anon(4, 100));
        p.on_complete(&anon(4, 300));
        let pred = p.predict(&anon(4, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert_eq!(pred.estimate, Dur(200));
    }

    #[test]
    fn prediction_exceeds_elapsed_even_from_fallback() {
        let mut p = GibbonsPredictor::new();
        let j = JobBuilder::new().nodes(2).build(JobId(0));
        let pred = p.predict(&j, Dur(9999));
        assert!(pred.estimate >= Dur(10_000));
    }

    #[test]
    fn extrapolation_is_capped() {
        // Steep runtime-vs-nodes slope; a 512-node probe would
        // extrapolate to ~51200 s, but the cap is 2 x max seen (7200 s
        // here... below the 3600 floor? 2*3600=7200).
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for n in [1u32, 2, 4] {
            for _ in 0..3 {
                p.on_complete(&job(&mut syms, "a", "x", n, (n as i64) * 900));
            }
        }
        let pred = p.predict(&job(&mut syms, "a", "x", 512, 1), Dur::ZERO);
        assert!(!pred.fallback);
        assert!(
            pred.estimate <= Dur(7200),
            "runaway extrapolation: {:?}",
            pred.estimate
        );
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for i in 0..30i64 {
            let user = ["alice", "bob", "carol"][(i % 3) as usize];
            let exe = ["x", "y"][(i % 2) as usize];
            p.on_complete(&job(&mut syms, user, exe, 1 + (i as u32 % 10), 50 + i * 23));
        }
        // A job with no user/exe exercises the None symbol keys.
        p.on_complete(&JobBuilder::new().nodes(4).runtime(Dur(444)).build(JobId(0)));
        let state = encode(&p);
        let back: GibbonsPredictor = decode(&state, &syms).expect("decodes");
        assert_eq!(encode(&back), state, "re-encode must be identical");
        let mut back = back;
        for i in 0..10i64 {
            let probe = job(&mut syms, "alice", "x", 1 + (i as u32 * 3 % 16), 1);
            let a = p.predict(&probe, Dur(i * 17));
            let b = back.predict(&probe, Dur(i * 17));
            assert_eq!(a, b, "probe {i}");
            assert_eq!(a.ci_halfwidth.to_bits(), b.ci_halfwidth.to_bits());
        }
        let j = job(&mut syms, "dave", "x", 8, 321);
        p.on_complete(&j);
        back.on_complete(&j);
        assert_eq!(encode(&p), encode(&back));
    }

    #[test]
    fn state_decode_rejects_garbage() {
        let syms = SymbolTable::new();
        let restore = |text: &str| decode::<_, GibbonsPredictor>(text, &syms);
        assert!(restore("").is_err());
        assert!(restore("nonsense\n").is_err());
        // A symbol index beyond the table is a configuration mismatch.
        let bad = "gibbons-state v3\n\
                   totals 0000000000000000 0 0000000000000000\n\
                   ue 0\n\
                   exe 1\n\
                   exe 7 1 0 1 4059000000000000 1 3FF0000000000000\n\
                   glob 0\n";
        assert!(restore(bad)
            .unwrap_err()
            .to_string()
            .contains("beyond table"));
    }

    /// The indexed bucket mean equals the insertion-order scan bit for
    /// bit, at every elapsed time around the stored run times, and the
    /// cached regression triple equals a fresh computation.
    #[test]
    fn indexed_mean_and_cached_triple_match_recomputation() {
        use qpredict_workload::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x61BB);
        for case in 0..12 {
            let span = [5, 400, 200_000][case % 3];
            let mut sc = SubCategory::default();
            for i in 0..400 {
                sc.push(rng.gen_range_i64(0, span) as f64, (1 + i % 9) as f64);
                let stored = sc.runtimes[rng.gen_index(sc.runtimes.len())];
                for e in [0.0, 1.0, stored - 1.0, stored, stored + 1.0, span as f64] {
                    let scan = mean(sc.runtimes.iter().copied().filter(|&rt| e <= 0.0 || rt > e));
                    let fast = sc.mean_above(e);
                    let bits =
                        |x: Option<Estimate>| x.map(|x| (x.n, x.value.to_bits(), x.ci.to_bits()));
                    assert_eq!(bits(fast), bits(scan), "case {case} point {i} elapsed {e}");
                }
                assert_eq!(sc.index.is_some(), sc.runtimes.len() >= INDEX_MIN_POINTS);
                if sc.runtimes.len() >= 2 {
                    let cached = sc.triple();
                    let fresh = SubCategory {
                        runtimes: sc.runtimes.clone(),
                        nodes: sc.nodes.clone(),
                        ..SubCategory::default()
                    }
                    .triple();
                    let bits = |t: (f64, f64, f64)| (t.0.to_bits(), t.1.to_bits(), t.2.to_bits());
                    assert_eq!(bits(cached), bits(fresh));
                }
            }
        }
    }

    /// Decoding rebuilds the runtime indexes: a restored predictor with
    /// indexed subcategories predicts exactly like the original.
    #[test]
    fn decoded_state_rebuilds_indexes() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for i in 0..300i64 {
            let exe = ["x", "y"][(i % 2) as usize];
            p.on_complete(&job(
                &mut syms,
                "alice",
                exe,
                4 + (i as u32 % 4),
                30 + (i * 7919) % 5000,
            ));
        }
        let mut back: GibbonsPredictor = decode(&encode(&p), &syms).expect("decodes");
        assert!(back.global.values().any(|sc| sc.index.is_some()));
        for e in [0, 1, 29, 30, 2500, 4999, 6000] {
            let probe = job(&mut syms, "alice", "x", 5, 1);
            let a = p.predict(&probe, Dur(e));
            let b = back.predict(&probe, Dur(e));
            assert_eq!(a, b, "elapsed {e}");
            assert_eq!(a.ci_halfwidth.to_bits(), b.ci_halfwidth.to_bits());
        }
    }

    #[test]
    fn deterministic_regression_order() {
        // Subcategory iteration is sorted; repeated predictions agree.
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for n in [1u32, 2, 4, 8, 16] {
            for _ in 0..3 {
                p.on_complete(&job(&mut syms, "a", "x", n, (n as i64) * 50 + 7));
            }
        }
        let a = p.predict(&job(&mut syms, "a", "x", 32, 1), Dur::ZERO);
        let b = p.predict(&job(&mut syms, "a", "x", 32, 1), Dur::ZERO);
        assert_eq!(a, b);
    }
}
