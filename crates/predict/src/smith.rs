//! The paper's template-based run-time predictor.
//!
//! Algorithm (Section 2.1):
//!
//! 1. A set of templates `T` defines categories.
//! 2. To predict a job: find the categories it falls into, drop those
//!    that cannot provide a valid prediction, compute a run-time estimate
//!    and confidence interval per category, and **select the estimate
//!    with the smallest confidence interval**.
//! 3. When a job completes, insert it into every matching category,
//!    evicting the oldest point where a maximum history applies.
//!
//! Per-template options: mean or linear/inverse/logarithmic regression of
//! run time on node count; absolute or relative (to the user limit) run
//! times; optional conditioning on the job's elapsed running time ("use
//! only data points whose run time exceeds the elapsed time" — the
//! paper's phrasing says "less than", which we read as a typo since a job
//! running for `a` seconds is guaranteed a run time of at least `a`; see
//! DESIGN.md). Elapsed-conditioned estimates over absolute run times
//! with a mean or linear regression read exact suffix sums from a
//! runtime-ordered index instead of scanning the category; the result is
//! bit-identical to the scan (DESIGN.md §11).
//!
//! History changes only when a job completes, so between completions a
//! job's estimates can only move where they depend on its elapsed time.
//! The predictor memoizes, per resolved job signature, the selection over
//! the templates without elapsed-time conditioning, and reuses it until a
//! push into one of those categories stamps it stale (DESIGN.md §11).
//! Each prediction also states the elapsed time below which it holds
//! ([`Prediction::holds_below`]): the smallest run time above the
//! elapsed time among the job's `rtime` categories, which is where their
//! selections next change.

use qpredict_durable::{Codec, CodecError, Reader, Writer};
use qpredict_workload::{Dur, Job};

use crate::category::{CategoryStore, EstimateOps, History, Resolved, Totals};
use crate::template::{Template, TemplateSet};
use crate::{Prediction, RunTimePredictor};

/// A category's estimate as selection ranks it: `(ci, n, specificity,
/// template index, value)`, kept flat for cheap compares.
type Ranked = (f64, usize, u32, usize, f64);

/// One signature's memoized selection over the templates without
/// elapsed-time conditioning.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// The store's push count when the entry was last known valid: it
    /// holds while no checked slot has a newer stamp.
    stamp: u64,
    /// The limit the relative estimates were scaled by.
    limit: Option<Dur>,
    /// The winning estimate, if any category could predict.
    best: Option<Ranked>,
    /// The work those estimates did.
    ops: EstimateOps,
    /// Where the signature's slots under those templates sit in
    /// [`Memo::checks`].
    checks: (u32, u32),
}

/// Per resolved signature, the selection over the categories whose
/// estimates do not depend on the elapsed time. Derived state: never
/// encoded, dropped on decode.
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Positions in the store's distinct templates of those without
    /// elapsed-time conditioning, whose selection is memoized.
    plain: Vec<usize>,
    /// Positions of those with it, estimated on every call.
    rtime: Vec<usize>,
    /// By signature ordinal.
    entries: Vec<Option<MemoEntry>>,
    /// Each entry's slots under the `plain` templates, empty ones
    /// included, so a check never walks the others.
    checks: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Memo {
    fn new(store: &CategoryStore) -> Box<Memo> {
        let (rtime, plain) =
            (0..store.templates().len()).partition(|&k| store.templates()[k].1.use_rtime);
        Box::new(Memo {
            plain,
            rtime,
            ..Memo::default()
        })
    }

    /// The memoized selection for `job`'s resolved signature, if it was
    /// made for the same limit and none of its categories changed since.
    fn get(
        &mut self,
        r: Resolved,
        job: &Job,
        store: &CategoryStore,
    ) -> Option<(Option<Ranked>, EstimateOps)> {
        let e = self.entries.get_mut(r.index())?.as_mut()?;
        let now = store.pushes();
        let held = e.limit == job.max_runtime
            && (e.stamp == now
                || !store.changed_since(
                    &self.checks[e.checks.0 as usize..e.checks.1 as usize],
                    e.stamp,
                ));
        if !held {
            return None;
        }
        e.stamp = now;
        self.hits += 1;
        Some((e.best, e.ops))
    }

    /// Remember the selection just made for `job`'s resolved signature.
    fn put(
        &mut self,
        r: Resolved,
        job: &Job,
        store: &CategoryStore,
        best: Option<Ranked>,
        ops: EstimateOps,
    ) {
        self.misses += 1;
        let i = r.index();
        if self.entries.len() <= i {
            self.entries.resize(i + 1, None);
        }
        let checks = match self.entries[i] {
            Some(e) => e.checks,
            None => {
                let start = self.checks.len();
                self.checks.extend(store.category_slots(r, &self.plain));
                let at = |n: usize| u32::try_from(n).expect("memo check list overflow");
                (at(start), at(self.checks.len()))
            }
        };
        self.entries[i] = Some(MemoEntry {
            stamp: store.pushes(),
            limit: job.max_runtime,
            best,
            ops,
            checks,
        });
    }
}

/// History-based predictor driven by a [`TemplateSet`].
#[derive(Debug, Clone)]
pub struct SmithPredictor {
    set: TemplateSet,
    store: CategoryStore,
    /// Boxed: hosts that keep predictors of several kinds in one enum
    /// pay one pointer for it.
    memo: Box<Memo>,
    /// Every completion's run time: the fallback, the cap on an
    /// estimate and the generation.
    totals: Totals,
    /// Work of the estimates made since build or decode. Never encoded.
    ops: EstimateOps,
}

impl SmithPredictor {
    /// Build a predictor over `set` with empty history.
    pub fn new(set: TemplateSet) -> SmithPredictor {
        let store = CategoryStore::new(&set);
        SmithPredictor {
            memo: Memo::new(&store),
            store,
            set,
            totals: Totals::default(),
            ops: EstimateOps::default(),
        }
    }

    /// The template set in use.
    pub fn template_set(&self) -> &TemplateSet {
        &self.set
    }

    /// Number of live categories (diagnostics).
    pub fn category_count(&self) -> usize {
        self.store.category_count()
    }

    /// Completed data points resident across all categories. Bounded by
    /// each template's `max_history`; the serve layer watches this to
    /// verify memory stays capped under unbounded streams.
    pub fn resident_points(&self) -> usize {
        self.store.total_points()
    }

    /// Scan-vs-moments accounting over the estimates made since this
    /// predictor was built or decoded. It is a diagnostic count, never
    /// encoded: a decoded predictor starts it at zero.
    pub fn estimate_ops(&self) -> EstimateOps {
        self.ops
    }

    /// Step 2: fold the estimates from `categories` (each distinct
    /// template's index in the set, the template and the job's history
    /// under it) into `best`, keeping the one with the smallest
    /// confidence interval, and add the work they did to `ops`. Ties
    /// (e.g. two infinite intervals) break toward more data points, then
    /// higher template specificity, then template order. No interval is
    /// NaN and template indexes are unique, so this is a strict total
    /// order: the winner does not depend on the order the categories are
    /// folded in, or on how they are split between calls. Returns the
    /// elapsed time below which these categories' estimates hold
    /// ([`Prediction::holds_below`]).
    fn fold<'h>(
        best: &mut Option<Ranked>,
        job: &Job,
        elapsed: Dur,
        categories: impl Iterator<Item = (usize, &'h Template, &'h History)>,
        ops: &mut EstimateOps,
    ) -> Dur {
        let mut holds_below = Dur::MAX;
        for (ti, t, history) in categories {
            let Some(est) = history.estimate(t, job, elapsed, ops, &mut holds_below) else {
                continue;
            };
            let better = match *best {
                None => true,
                Some((bci, bn, bspec, bti, _)) => (
                    est.ci,
                    std::cmp::Reverse(est.n),
                    std::cmp::Reverse(t.specificity()),
                    ti,
                )
                    .partial_cmp(&(bci, std::cmp::Reverse(bn), std::cmp::Reverse(bspec), bti))
                    .map(|o| o == std::cmp::Ordering::Less)
                    .unwrap_or(false),
            };
            if better {
                *best = Some((est.ci, est.n, t.specificity(), ti, est.value));
            }
        }
        holds_below
    }

    /// [`RunTimePredictor::predict`] the simple way: each distinct
    /// template's category is found by building and hashing its key,
    /// every estimate is computed, in template order, and nothing is
    /// recorded, resolved or memoized. The oracle tests hold `predict`,
    /// which resolves the job's categories once per signature and reuses
    /// memoized selections, to this bit for bit.
    pub fn predict_by_keys(&self, job: &Job, elapsed: Dur) -> Prediction {
        let categories = self
            .store
            .templates()
            .iter()
            .filter_map(|&(ti, ref t)| Some((ti, t, self.store.history(ti, t, job)?)));
        let mut best = None;
        let holds_below = Self::fold(
            &mut best,
            job,
            elapsed,
            categories,
            &mut EstimateOps::default(),
        );
        self.totals.predict(
            best.map(|(ci, .., value)| (value, ci)),
            job,
            elapsed,
            holds_below,
        )
    }

    /// The selection over the resolved job's categories under templates
    /// without elapsed-time conditioning, and the work its estimates did:
    /// memoized per signature, computed when the memo does not hold,
    /// and whether the memo held. These estimates hold at every elapsed
    /// time.
    fn plain_selection(&mut self, r: Resolved, job: &Job) -> (Option<Ranked>, EstimateOps, bool) {
        if let Some((best, ops)) = self.memo.get(r, job, &self.store) {
            return (best, ops, true);
        }
        let mut best = None;
        let mut ops = EstimateOps::default();
        let categories = self.store.matching(r, &self.memo.plain);
        Self::fold(&mut best, job, Dur::ZERO, categories, &mut ops);
        self.memo.put(r, job, &self.store, best, ops);
        (best, ops, false)
    }

    /// Predictions answered from a memoized selection, and those that
    /// computed one (diagnostics; never encoded). Each prediction counts
    /// once.
    pub fn memo_counts(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }

    /// Signatures the predictor has resolved to categories, and the
    /// category keys it built to resolve them (diagnostics; never
    /// encoded). Keys grow with distinct signatures, not with calls.
    pub fn resolution_counts(&self) -> (usize, u64) {
        (self.store.signature_count(), self.store.key_resolutions())
    }
}

/// Magic first record of an encoded Smith state (v5: no generation,
/// which is the completion count, and no estimate accounting, which is a
/// diagnostic of the process; each category's points are one record
/// apiece).
const SMITH_MAGIC: &str = "smith-state v5";

/// The learned state: aggregates bitwise and points, with one category
/// set per distinct template. The template set is *not* stored — the
/// restorer passes the set from its own configuration as context — but
/// its rendering is fingerprinted, so a restore under a different set is
/// refused instead of silently mixing histories. Runtime indexes are
/// rebuilt from the decoded points. A restored predictor is
/// state-identical to the original: every later prediction is
/// bit-identical.
impl Codec<TemplateSet> for SmithPredictor {
    fn encode(&self, w: &mut Writer) {
        w.record(SMITH_MAGIC);
        w.record("set").put(&set_fingerprint(&self.set));
        w.record("global").put(&self.totals);
        w.put(&self.store);
    }
    fn decode(r: &mut Reader<'_>, set: &TemplateSet) -> Result<SmithPredictor, CodecError> {
        r.record(SMITH_MAGIC)?;
        let fp: u64 = r.record("set")?.get()?;
        let have = set_fingerprint(set);
        if fp != have {
            return Err(r.error(format!(
                "state was recorded under a different template set \
                 ({fp:016X} != {have:016X})"
            )));
        }
        let totals = r.record("global")?.get()?;
        let store: CategoryStore = r.get_in(set)?;
        Ok(SmithPredictor {
            set: set.clone(),
            memo: Memo::new(&store),
            store,
            totals,
            ops: EstimateOps::default(),
        })
    }
}

/// [`qpredict_durable::checksum`] of a template set's canonical
/// rendering — detects a restore against the wrong configuration.
fn set_fingerprint(set: &TemplateSet) -> u64 {
    qpredict_durable::checksum(set.to_string().as_bytes())
}

impl RunTimePredictor for SmithPredictor {
    fn name(&self) -> &'static str {
        "smith"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        // One read of the flag gates the span and the counters alike.
        let recording = qpredict_obs::recording();
        let _span = recording.then(|| qpredict_obs::span("smith.predict"));
        let r = self.store.resolve(job);
        let (mut best, mut ops, memo_hit) = self.plain_selection(r, job);
        let rtime = self.store.matching(r, &self.memo.rtime);
        let holds_below = Self::fold(&mut best, job, elapsed, rtime, &mut ops);
        let prediction = self.totals.predict(
            best.map(|(ci, .., value)| (value, ci)),
            job,
            elapsed,
            holds_below,
        );
        if recording {
            qpredict_obs::counter_add("smith.scanned_points", ops.scanned_points);
            qpredict_obs::counter_add("smith.moment_points", ops.moment_points);
            qpredict_obs::counter_add("smith.moment_estimates", ops.moment_estimates);
            qpredict_obs::counter_add("smith.scan_estimates", ops.scan_estimates);
            let memo = if memo_hit {
                "smith.memo_hits"
            } else {
                "smith.memo_misses"
            };
            qpredict_obs::counter_add(memo, 1);
        }
        self.ops.merge(ops);
        prediction
    }

    fn on_complete(&mut self, job: &Job) {
        let _span = qpredict_obs::span("smith.learn");
        self.store.insert(job);
        self.totals.learn(job.runtime.as_secs_f64());
    }

    /// The completions learned from.
    fn generation(&self) -> Option<u64> {
        Some(self.totals.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{EstimatorKind, TemplateSet};
    use qpredict_durable::codec::{decode, encode};
    use qpredict_workload::{Characteristic, JobBuilder, JobId, SymbolTable};

    fn user_set() -> TemplateSet {
        TemplateSet::new(vec![
            Template::mean_over(&[Characteristic::User]),
            Template::mean_over(&[]),
        ])
    }

    fn job(syms: &mut SymbolTable, user: &str, rt: i64) -> qpredict_workload::Job {
        let u = syms.intern(user);
        JobBuilder::new()
            .with(Characteristic::User, u)
            .runtime(Dur(rt))
            .build(JobId(0))
    }

    #[test]
    fn cold_start_falls_back() {
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        let j = job(&mut syms, "alice", 100);
        let pred = p.predict(&j, Dur::ZERO);
        assert!(pred.fallback);
        assert_eq!(pred.estimate, Dur::HOUR); // no history, no limit
    }

    #[test]
    fn fallback_prefers_limit_then_global_mean() {
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        let with_limit = JobBuilder::new().max_runtime(Dur(900)).build(JobId(0));
        assert_eq!(p.predict(&with_limit, Dur::ZERO).estimate, Dur(900));
        // After completions the global mean takes over for jobs with no
        // matching category... but the empty-charset template matches
        // everything, so use a user-only set to exercise the fallback.
        let only_user = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]);
        let mut p = SmithPredictor::new(only_user);
        p.on_complete(&job(&mut syms, "alice", 200));
        p.on_complete(&job(&mut syms, "alice", 400));
        let anon = JobBuilder::new().build(JobId(1));
        let pred = p.predict(&anon, Dur::ZERO);
        assert!(pred.fallback);
        assert_eq!(pred.estimate, Dur(300)); // global mean
    }

    #[test]
    fn learns_user_specific_runtimes() {
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        for _ in 0..5 {
            p.on_complete(&job(&mut syms, "alice", 100));
            p.on_complete(&job(&mut syms, "bob", 1000));
        }
        let pa = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        let pb = p.predict(&job(&mut syms, "bob", 1), Dur::ZERO);
        assert!(!pa.fallback && !pb.fallback);
        assert_eq!(pa.estimate, Dur(100));
        assert_eq!(pb.estimate, Dur(1000));
    }

    #[test]
    fn smallest_ci_wins() {
        // Alice's history is tight (ci ~ 0); the global category mixes
        // alice and bob and is wide. Prediction must come from the tight
        // category.
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        for _ in 0..4 {
            p.on_complete(&job(&mut syms, "alice", 100));
            p.on_complete(&job(&mut syms, "bob", 2000));
        }
        let pred = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        assert_eq!(pred.estimate, Dur(100));
        assert!(pred.ci_halfwidth < 1.0);
    }

    #[test]
    fn relative_template_scales_by_limit() {
        let mut syms = SymbolTable::new();
        let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User]).relative()]);
        let mut p = SmithPredictor::new(set);
        let u = syms.intern("alice");
        // Alice uses 50% of her limit, twice.
        for _ in 0..2 {
            let j = JobBuilder::new()
                .with(Characteristic::User, u)
                .runtime(Dur(300))
                .max_runtime(Dur(600))
                .build(JobId(0));
            p.on_complete(&j);
        }
        // New job with a 2000 s limit: predict ~1000 s.
        let j = JobBuilder::new()
            .with(Characteristic::User, u)
            .max_runtime(Dur(2000))
            .build(JobId(1));
        let pred = p.predict(&j, Dur::ZERO);
        assert!(!pred.fallback);
        assert_eq!(pred.estimate, Dur(1000));
    }

    #[test]
    fn rtime_conditioning_drops_short_points() {
        let mut syms = SymbolTable::new();
        let set = TemplateSet::new(vec![
            Template::mean_over(&[Characteristic::User]).with_rtime()
        ]);
        let mut p = SmithPredictor::new(set);
        // History: mostly short runs, one long.
        for rt in [10, 10, 10, 10, 5000] {
            p.on_complete(&job(&mut syms, "alice", rt));
        }
        // Queued job: mean of all five.
        let queued = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        assert_eq!(queued.estimate, Dur(1008)); // (40 + 5000)/5
                                                // Job already running 60 s: the four 10-second points are
                                                // impossible; predict from the 5000 s point alone.
        let running = p.predict(&job(&mut syms, "alice", 1), Dur(60));
        assert_eq!(running.estimate, Dur(5000));
    }

    #[test]
    fn prediction_exceeds_elapsed() {
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        for _ in 0..3 {
            p.on_complete(&job(&mut syms, "alice", 100));
        }
        let pred = p.predict(&job(&mut syms, "alice", 1), Dur(500));
        assert!(pred.estimate >= Dur(501));
    }

    #[test]
    fn max_history_keeps_recent_points() {
        let mut syms = SymbolTable::new();
        let set = TemplateSet::new(vec![
            Template::mean_over(&[Characteristic::User]).with_max_history(2)
        ]);
        let mut p = SmithPredictor::new(set);
        p.on_complete(&job(&mut syms, "alice", 1000));
        p.on_complete(&job(&mut syms, "alice", 100));
        p.on_complete(&job(&mut syms, "alice", 100));
        // The 1000 s point must be gone.
        let pred = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        assert_eq!(pred.estimate, Dur(100));
    }

    #[test]
    fn regression_template_tracks_node_scaling() {
        let set = TemplateSet::new(vec![
            Template::mean_over(&[]).with_estimator(EstimatorKind::LinearRegression)
        ]);
        let mut p = SmithPredictor::new(set);
        for (n, rt) in [(1, 100), (2, 200), (4, 400), (8, 800)] {
            let j = JobBuilder::new().nodes(n).runtime(Dur(rt)).build(JobId(0));
            p.on_complete(&j);
        }
        let j = JobBuilder::new().nodes(16).build(JobId(1));
        let pred = p.predict(&j, Dur::ZERO);
        assert!(!pred.fallback);
        assert!((pred.estimate.seconds() - 1600).abs() <= 1);
    }

    #[test]
    fn regression_extrapolation_is_capped() {
        let set = TemplateSet::new(vec![
            Template::mean_over(&[]).with_estimator(EstimatorKind::LinearRegression)
        ]);
        let mut p = SmithPredictor::new(set);
        for (n, rt) in [(1, 600), (2, 1200), (4, 2400)] {
            let j = JobBuilder::new().nodes(n).runtime(Dur(rt)).build(JobId(0));
            p.on_complete(&j);
        }
        // Raw extrapolation at 1024 nodes would be ~614400 s; the cap is
        // 2 x 2400 = 4800.
        let j = JobBuilder::new().nodes(1024).build(JobId(1));
        let pred = p.predict(&j, Dur::ZERO);
        assert!(pred.estimate <= Dur(4800), "got {:?}", pred.estimate);
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let mut syms = SymbolTable::new();
        let set = TemplateSet::new(vec![
            Template::mean_over(&[Characteristic::User]).with_max_history(3),
            Template::mean_over(&[]).with_estimator(EstimatorKind::LinearRegression),
            Template::mean_over(&[Characteristic::User])
                .relative()
                .with_node_range(2),
        ]);
        let mut p = SmithPredictor::new(set.clone());
        for i in 0..25i64 {
            let u = syms.intern(if i % 3 == 0 { "alice" } else { "bob" });
            let j = JobBuilder::new()
                .with(Characteristic::User, u)
                .nodes(1 + (i as u32 % 9))
                .runtime(Dur(60 + i * 37))
                .max_runtime(Dur(4000))
                .build(JobId(i as u32));
            p.on_complete(&j);
            // Interleave predictions, which the state must not record.
            let _ = p.predict(&j, Dur::ZERO);
        }
        let state = encode(&p);
        let back: SmithPredictor = decode(&state, &set).expect("decodes");
        assert_eq!(encode(&back), state, "re-encode must be identical");
        assert_eq!(back.generation(), Some(25));
        assert_eq!(back.estimate_ops(), EstimateOps::default());
        let mut back = back;
        for i in 0..12i64 {
            let u = syms.intern(if i % 2 == 0 { "alice" } else { "carol" });
            let probe = JobBuilder::new()
                .with(Characteristic::User, u)
                .nodes(1 + (i as u32 % 12))
                .max_runtime(Dur(4000))
                .build(JobId(900 + i as u32));
            let a = p.predict(&probe, Dur(i * 11));
            let b = back.predict(&probe, Dur(i * 11));
            assert_eq!(a, b, "probe {i}");
            assert_eq!(a.estimate.0, b.estimate.0);
            assert_eq!(a.ci_halfwidth.to_bits(), b.ci_halfwidth.to_bits());
        }
        // Learning after the restore stays in lockstep too.
        let u = syms.intern("alice");
        let j = JobBuilder::new()
            .with(Characteristic::User, u)
            .nodes(4)
            .runtime(Dur(777))
            .max_runtime(Dur(4000))
            .build(JobId(999));
        p.on_complete(&j);
        back.on_complete(&j);
        assert_eq!(encode(&p), encode(&back));
    }

    #[test]
    fn state_decode_rejects_wrong_set_and_corruption() {
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        p.on_complete(&job(&mut syms, "alice", 100));
        let state = encode(&p);
        let restore = |set: &TemplateSet, text: &str| decode::<_, SmithPredictor>(text, set);
        let other = TemplateSet::new(vec![Template::mean_over(&[])]);
        assert!(restore(&other, &state)
            .unwrap_err()
            .to_string()
            .contains("different template set"));
        assert!(restore(&user_set(), "garbage\n").is_err());
        assert!(restore(&user_set(), "").is_err());
        // A truncated cat line fails loudly, not silently.
        let cut = state.rfind("cat").unwrap() + 10;
        assert!(restore(&user_set(), &state[..cut]).is_err());
    }

    #[test]
    fn state_decode_rejects_category_of_duplicate_template() {
        let mut syms = SymbolTable::new();
        let t = Template::mean_over(&[Characteristic::User]);
        let set = TemplateSet::new(vec![t, t]);
        let mut p = SmithPredictor::new(set.clone());
        p.on_complete(&job(&mut syms, "alice", 100));
        assert_eq!(p.category_count(), 1, "the copy keeps no category");
        let state = encode(&p);
        assert!(decode::<_, SmithPredictor>(&state, &set).is_ok());
        // The same category filed under the copy's index is refused.
        let forged = state.replacen("\ncat 0 ", "\ncat 1 ", 1);
        assert_ne!(forged, state);
        let err = decode::<_, SmithPredictor>(&forged, &set).unwrap_err();
        assert!(err.to_string().contains("not a distinct template"), "{err}");
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two single-point categories with infinite CI: the more
        // specific (user) template must win over the global one
        // deterministically.
        let mut syms = SymbolTable::new();
        let mut p = SmithPredictor::new(user_set());
        p.on_complete(&job(&mut syms, "alice", 100));
        let pred1 = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        let pred2 = p.predict(&job(&mut syms, "alice", 1), Dur::ZERO);
        assert_eq!(pred1, pred2);
        assert_eq!(pred1.estimate, Dur(100));
    }
}
