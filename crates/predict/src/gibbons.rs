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
//! Each `(key, node-bucket)` subcategory is a [`History`] filed under
//! one constant template, `SUBCATEGORY`, so level 1/3/5 means are the
//! history's own estimate: running sums at elapsed zero, the runtime
//! index or a scan above it. Levels 2/4/6 reuse each subcategory's
//! `(mean nodes, mean run time, weight)` until it changes. Both are
//! bit-identical to recomputing (DESIGN.md §11).
//!
//! Jobs lacking a user or executable fall into a single "unknown" value
//! for that characteristic (relevant for traces like SDSC that record
//! neither; level 1 then degenerates toward level 5, which is the
//! behaviour Gibbons' profiler would exhibit on such data).

use std::collections::HashMap;

use qpredict_durable::{Codec, CodecError, Reader, Writer};
use qpredict_workload::{Characteristic, Dur, Job, Sym, SymbolTable};

use crate::category::{EstimateOps, History, Point, Totals};
use crate::estimators::{weighted_linear, Estimate};
use crate::template::{CharSet, EstimatorKind, Template};
use crate::{Prediction, RunTimePredictor};

/// The template every subcategory's history is filed under: the mean of
/// the run times above the elapsed time, with no history cap.
const SUBCATEGORY: Template = Template {
    chars: CharSet::EMPTY,
    node_range_log2: None,
    max_history: None,
    relative: false,
    use_rtime: true,
    estimator: EstimatorKind::Mean,
};

/// One `(key, node-bucket)` subcategory.
#[derive(Debug, Clone, Default)]
struct SubCategory {
    history: History,
    /// The regression triple, until the next push. Derived; never
    /// encoded.
    triple: Option<(f64, f64, f64)>,
}

impl SubCategory {
    /// `(mean nodes, mean run time, inverse run-time variance)` for the
    /// weighted regression, computed once per change. Near-zero
    /// variances are floored to keep weights finite. Needs at least two
    /// points.
    fn triple(&mut self) -> (f64, f64, f64) {
        if let Some(t) = self.triple {
            return t;
        }
        // Read the points, not the encoded sums: decoding verifies only
        // the points, and a non-finite triple would panic the sort.
        let n = self.history.len() as f64;
        let (mut runtimes, mut nodes) = (0.0, 0.0);
        for p in self.history.iter() {
            runtimes += p.runtime;
            nodes += p.nodes;
        }
        let mean_runtime = runtimes / n;
        let squares: f64 = self
            .history
            .iter()
            .map(|p| (p.runtime - mean_runtime).powi(2))
            .sum();
        let var = squares / (n - 1.0);
        let t = (nodes / n, mean_runtime, 1.0 / var.max(1.0)); // floor: 1 s^2
        self.triple = Some(t);
        t
    }
}

/// Exponential node bucket: 1 -> 0, 2-3 -> 1, 4-7 -> 2, 8-15 -> 3, ...
fn node_bucket(nodes: u32) -> u32 {
    31 - nodes.max(1).leading_zeros()
}

/// The characteristic key of one level pair of Table 3, in the order the
/// levels are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key {
    /// Levels 1/2: `(u, e)`.
    UserExe(Option<Sym>, Option<Sym>),
    /// Levels 3/4: `(e)`.
    Exe(Option<Sym>),
    /// Levels 5/6: `()`.
    All,
}

impl Key {
    /// The three keys `job` is filed and predicted under, most specific
    /// first.
    fn of(job: &Job) -> [Key; 3] {
        let u = job.characteristic(Characteristic::User);
        let e = job.characteristic(Characteristic::Executable);
        [Key::UserExe(u, e), Key::Exe(e), Key::All]
    }
}

/// A key's subcategories, by node bucket.
type Buckets = HashMap<u32, SubCategory>;

/// Gibbons' predictor state.
#[derive(Debug, Clone, Default)]
pub struct GibbonsPredictor {
    subcats: HashMap<Key, Buckets>,
    /// Every completion's run time: the fallback, the cap on the
    /// extrapolating regressions and the generation.
    totals: Totals,
}

/// Minimum points for a valid mean at levels 1/3/5.
const MIN_MEAN_POINTS: usize = 2;

impl GibbonsPredictor {
    /// An empty predictor.
    pub fn new() -> GibbonsPredictor {
        GibbonsPredictor::default()
    }

    /// Completed points held, counted at the `()` key: one per
    /// completion learned, since the history is never bounded. Each is
    /// also filed under its `(u, e)` and `(e)` keys; this counts it once.
    pub fn resident_points(&self) -> usize {
        self.subcats
            .get(&Key::All)
            .map_or(0, |b| b.values().map(|s| s.history.len()).sum())
    }

    /// Level 1/3/5: mean of the run times in the job's node bucket,
    /// conditioned on the elapsed running time.
    fn bucket_mean(buckets: &Buckets, job: &Job, elapsed: Dur) -> Option<Estimate> {
        let history = &buckets.get(&node_bucket(job.nodes))?.history;
        let (mut ops, mut holds_below) = (EstimateOps::default(), Dur::MAX);
        let est = history.estimate(&SUBCATEGORY, job, elapsed, &mut ops, &mut holds_below)?;
        (est.n >= MIN_MEAN_POINTS).then_some(est)
    }

    /// Level 2/4/6: weighted linear regression over subcategory means,
    /// weighted by inverse run-time variance. Subcategories need at
    /// least two points to contribute a variance.
    fn regression(buckets: &mut Buckets, job: &Job) -> Option<Estimate> {
        let mut triples: Vec<(f64, f64, f64)> = buckets
            .values_mut()
            .filter(|sc| sc.history.len() >= 2)
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
        // Decoding refuses non-finite points, so every triple is finite.
        triples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        weighted_linear(triples.into_iter(), job.nodes as f64)
    }
}

/// A subcategory's place: its key and node bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Place(Key, u32);

impl Codec<SymbolTable> for Place {
    fn encode(&self, w: &mut Writer) {
        match self.0 {
            Key::UserExe(u, e) => w.word("ue").put(&u).put(&e),
            Key::Exe(e) => w.word("exe").put(&e),
            Key::All => w.word("all"),
        }
        .put(&self.1);
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<Place, CodecError> {
        let key = match r.word()? {
            "ue" => Key::UserExe(r.get_in(syms)?, r.get_in(syms)?),
            "exe" => Key::Exe(r.get_in(syms)?),
            "all" => Key::All,
            other => return Err(r.error(format!("unknown gibbons level {other:?}"))),
        };
        Ok(Place(key, r.get()?))
    }
}

/// Magic first record of an encoded Gibbons state (v4: each
/// subcategory is a history, its points one record apiece).
const GIBBONS_MAGIC: &str = "gibbons-state v4";

/// The complete mutable state: the totals, then `sub <count>` and one
/// `sub <key> <bucket> <history>` record per subcategory in key order,
/// each followed by its points (see [`History`]'s codec). `Sym` keys are
/// stored as interning indices and decoded against the restorer's symbol
/// table, which must have the same interning order as the one the state
/// was recorded under. Runtime indexes are rebuilt from the points.
impl Codec<SymbolTable> for GibbonsPredictor {
    fn encode(&self, w: &mut Writer) {
        w.record(GIBBONS_MAGIC);
        w.record("totals").put(&self.totals);
        let subs: Vec<(Place, &History)> = self
            .subcats
            .iter()
            .flat_map(|(&k, b)| b.iter().map(move |(&n, sc)| (Place(k, n), &sc.history)))
            .collect();
        w.map_records("sub", subs.iter().map(|(place, h)| (place, *h)));
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<GibbonsPredictor, CodecError> {
        let totals: Totals = r.record(GIBBONS_MAGIC)?.record("totals")?.get()?;
        let subs: Vec<(Place, History)> = r.map_records("sub", syms, &())?;
        let mut p = GibbonsPredictor {
            totals,
            ..GibbonsPredictor::default()
        };
        for (Place(key, bucket), mut history) in subs {
            if history.is_empty() {
                return Err(r.error("empty subcategory"));
            }
            history.build_index(&SUBCATEGORY);
            let sc = SubCategory {
                history,
                triple: None,
            };
            p.subcats.entry(key).or_default().insert(bucket, sc);
        }
        if p.resident_points() as u64 != p.totals.generation() {
            return Err(r.error("the `all` points do not number the completions"));
        }
        Ok(p)
    }
}

impl RunTimePredictor for GibbonsPredictor {
    fn name(&self) -> &'static str {
        "gibbons"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let _span = qpredict_obs::span("gibbons.predict");
        // 1/2: (u, e, n, rtime) mean, else (u, e) weighted regression;
        // 3/4: (e, n, rtime) mean, else (e) weighted regression;
        // 5/6: (n, rtime) mean, else () weighted regression.
        let est = Key::of(job).into_iter().find_map(|key| {
            let buckets = self.subcats.get_mut(&key)?;
            Self::bucket_mean(buckets, job, elapsed).or_else(|| Self::regression(buckets, job))
        });
        let est = est.filter(|e| e.value.is_finite()).map(|e| (e.value, e.ci));
        self.totals.predict(est, job, elapsed, Dur::ZERO)
    }

    fn on_complete(&mut self, job: &Job) {
        let _span = qpredict_obs::span("gibbons.learn");
        let bucket = node_bucket(job.nodes);
        let p = Point::from_job(job);
        for key in Key::of(job) {
            let sc = self
                .subcats
                .entry(key)
                .or_default()
                .entry(bucket)
                .or_default();
            sc.history.push(p, &SUBCATEGORY);
            sc.triple = None;
        }
        self.totals.learn(p.runtime);
    }

    /// The completions learned from.
    fn generation(&self) -> Option<u64> {
        Some(self.totals.generation())
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
        let bad = "gibbons-state v4\n\
                   totals 4059000000000000 1 4059000000000000\n\
                   sub 1\n\
                   sub exe 7 1 1 4059000000000000 40C3880000000000 \
                   0 0000000000000000 0000000000000000 - 1\n\
                   pt 4059000000000000 7FF8000000000000 3FF0000000000000\n";
        assert!(restore(bad)
            .unwrap_err()
            .to_string()
            .contains("beyond table"));
    }

    /// A sealed state can still be forged: a point whose node count is
    /// `NaN` (or whose run time is negative or infinite) is refused with
    /// a typed error, where it would otherwise panic the next regression
    /// over its key.
    #[test]
    fn state_decode_refuses_points_no_job_produces() {
        let mut syms = SymbolTable::new();
        let mut p = GibbonsPredictor::new();
        for (n, rt) in [(1, 100), (1, 120), (4, 400), (4, 450)] {
            p.on_complete(&job(&mut syms, "a", "x", n, rt));
        }
        let state = encode(&p);
        assert!(decode::<_, GibbonsPredictor>(&state, &syms).is_ok());
        let four = f64::to_bits(4.0);
        let forgeries = [
            (
                format!("{four:016X}\n"),
                format!("{:016X}\n", f64::NAN.to_bits()),
            ),
            (
                format!("pt {:016X}", f64::to_bits(400.0)),
                format!("pt {:016X}", f64::to_bits(-400.0)),
            ),
            (
                format!("pt {:016X}", f64::to_bits(450.0)),
                format!("pt {:016X}", f64::INFINITY.to_bits()),
            ),
        ];
        for (from, to) in forgeries {
            assert!(state.contains(&from), "{from:?} in the state");
            let forged = state.replace(&from, &to);
            let err = decode::<_, GibbonsPredictor>(&forged, &syms).unwrap_err();
            assert!(err.to_string().contains("not a completed job's"), "{err}");
        }
        // A v3 state is refused by its version.
        let v3 = state.replacen("gibbons-state v4", "gibbons-state v3", 1);
        assert!(decode::<_, GibbonsPredictor>(&v3, &syms).is_err());
    }

    /// The bucket mean equals an insertion-order scan of separate run-time
    /// and node-count vectors bit for bit, at every elapsed time around the
    /// stored run times, indexed or not, and the cached regression triple
    /// equals separate mean, variance and node-mean passes over them.
    #[test]
    fn indexed_mean_and_cached_triple_match_recomputation() {
        use crate::estimators::mean;
        use qpredict_workload::{rng::Rng64, JobBuilder, JobId};
        let mut rng = Rng64::seed_from_u64(0x61BB);
        let bits = |x: Option<Estimate>| x.map(|x| (x.n, x.value.to_bits(), x.ci.to_bits()));
        for case in 0..12 {
            let span = [5, 400, 200_000][case % 3];
            let mut sc = SubCategory::default();
            let (mut runtimes, mut nodes) = (Vec::new(), Vec::new());
            for i in 0..400 {
                let j = JobBuilder::new()
                    .nodes(1 + i % 9)
                    .runtime(Dur(rng.gen_range_i64(0, span)))
                    .build(JobId(i));
                sc.history.push(Point::from_job(&j), &SUBCATEGORY);
                sc.triple = None;
                runtimes.push(j.runtime.as_secs_f64());
                nodes.push(j.nodes as f64);
                let stored = runtimes[rng.gen_index(runtimes.len())];
                let buckets = Buckets::from([(node_bucket(j.nodes), sc.clone())]);
                for e in [0.0, 1.0, stored - 1.0, stored, stored + 1.0, span as f64] {
                    let scan = mean(runtimes.iter().copied().filter(|&rt| e <= 0.0 || rt > e));
                    let scan = scan.filter(|est| est.n >= MIN_MEAN_POINTS);
                    let fast = GibbonsPredictor::bucket_mean(&buckets, &j, Dur(e.max(0.0) as i64));
                    assert_eq!(bits(fast), bits(scan), "case {case} point {i} elapsed {e}");
                }
                if runtimes.len() >= 2 {
                    let n = runtimes.len() as f64;
                    let m = runtimes.iter().sum::<f64>() / n;
                    let var = runtimes.iter().map(|r| (r - m).powi(2)).sum::<f64>() / (n - 1.0);
                    let fresh = (nodes.iter().sum::<f64>() / n, m, 1.0 / var.max(1.0));
                    let cached = sc.triple();
                    let tbits = |t: (f64, f64, f64)| (t.0.to_bits(), t.1.to_bits(), t.2.to_bits());
                    assert_eq!(tbits(cached), tbits(fresh));
                    assert_eq!(tbits(sc.triple()), tbits(fresh), "served from the cache");
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
        assert!(back.subcats[&Key::All]
            .values()
            .any(|sc| sc.history.rtime_moments(1.0).is_some()));
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
