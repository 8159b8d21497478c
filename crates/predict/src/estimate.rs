//! The unified estimation layer: one estimate cache, keyed by job.
//!
//! Prediction-driven schedulers re-request the same estimates at brutal
//! frequency — LWF re-estimates every waiting job and backfill every
//! running *and* waiting job on each scheduling attempt, and a wait
//! forecast re-estimates every running job at each step of its replay —
//! while the predictor's learned state only changes when a completion
//! adds history. [`CachingPredictor`] keeps one entry per job: the last
//! prediction made for it, the elapsed time it was made at, and the
//! generation of the inner predictor it was made at. A lookup is served
//! from the entry while the inner [`RunTimePredictor::generation`] is
//! unchanged and the elapsed time either equals the entry's or lies in
//! `[entry's elapsed, holds_below)`, the window the prediction carries
//! ([`Prediction::holds_below`]). A hit returns the entry's prediction
//! `clamped` to the new elapsed time. Anything else reaches the inner
//! predictor, and its answer replaces the entry.
//!
//! Correctness argument: a prediction is a pure function of the job's
//! immutable fields, the elapsed running time, and the predictor's
//! learned state. Within one workload a [`qpredict_workload::JobId`]
//! denotes one immutable job and the generation identifies the learned
//! state, so at an unchanged generation the entry's prediction is what
//! the inner predictor would return at the entry's elapsed time. A
//! predictor's window promises that at every elapsed time in it the
//! answer is that prediction clamped to the elapsed time: the inner
//! predictor depends on the elapsed time only through choices that the
//! window keeps fixed and the final clamp, and clamping twice is
//! clamping once to the larger elapsed time. Hence serving a hit is
//! indistinguishable from recomputing. Predictors whose `predict` has
//! observable side effects (e.g. [`crate::FallbackPredictor`]'s
//! degradation accounting) return `None` from `generation()` and are
//! passed through uncached.
//!
//! The entries live in a direct-mapped table indexed by the job id's
//! low bits, so a lookup is one slot read and no hash. A slot holds one
//! job: a job whose slot another job took in the same generation is
//! recomputed. A completed job is never estimated again, so its
//! completion empties its slot, and the slots filled in a generation are
//! jobs still live. The table doubles on a collision while it is smaller
//! than 16 times the most slots one generation has held, so its size
//! follows the live jobs, not the trace length, even for a predictor
//! whose generation never moves.

use qpredict_workload::{Dur, Job, JobId};

use crate::{DegradationCounts, PredictError, Prediction, RunTimePredictor};

/// The table's starting size, in slots.
const MIN_SLOTS: usize = 64;

/// Collisions grow the table up to this many times the most slots one
/// generation has held filled at once.
const SLOTS_PER_JOB: usize = 16;

/// Hit/miss/invalidation counters of a [`CachingPredictor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Predictions served from the cache.
    pub hits: u64,
    /// Predictions computed by the inner predictor (includes every call
    /// on an uncacheable inner predictor).
    pub misses: u64,
    /// Cache flushes triggered by a generation change with live entries.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total predictions served.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of predictions served from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Accumulate another accumulator into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.0}% hit rate, {} invalidations)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.invalidations
        )
    }
}

/// One job's cached prediction.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The epoch it was made in; entries of another epoch are empty.
    epoch: u64,
    job: JobId,
    /// The elapsed time it was made at.
    elapsed: Dur,
    prediction: Prediction,
}

const EMPTY: Slot = Slot {
    epoch: 0,
    job: JobId(0),
    elapsed: Dur::ZERO,
    prediction: Prediction {
        estimate: Dur::ZERO,
        ci_halfwidth: 0.0,
        fallback: false,
        holds_below: Dur::ZERO,
    },
};

/// Caching wrapper around any [`RunTimePredictor`]; see the module docs
/// for the key, the window and the invalidation contract.
#[derive(Debug, Clone)]
pub struct CachingPredictor<P> {
    inner: P,
    /// Direct-mapped by job id; the length is a power of two.
    slots: Vec<Slot>,
    /// The inner generation of the current epoch.
    gen: Option<u64>,
    /// Advanced at every generation change. A slot of another epoch is
    /// empty, so a new generation empties the table in O(1). It starts
    /// at 1, past an [`EMPTY`] slot's 0.
    epoch: u64,
    /// Slots filled in the current epoch.
    filled: usize,
    /// The most slots any epoch held filled at once.
    peak: usize,
    stats: CacheStats,
}

impl<P: RunTimePredictor> CachingPredictor<P> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: P) -> CachingPredictor<P> {
        CachingPredictor {
            inner,
            slots: vec![EMPTY; MIN_SLOTS],
            gen: None,
            epoch: 1,
            filled: 0,
            peak: 0,
            stats: CacheStats::default(),
        }
    }

    /// The accumulated hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Borrow the wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap, discarding the cache.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The slot `job` maps to.
    fn home(&self, job: JobId) -> usize {
        job.index() & (self.slots.len() - 1)
    }

    /// Start a new epoch if the inner predictor's generation moved since
    /// the current one began.
    fn sync_generation(&mut self, gen: u64) {
        if self.gen != Some(gen) {
            if self.filled > 0 {
                self.stats.invalidations += 1;
                qpredict_obs::counter_add("cache.invalidations", 1);
            }
            self.gen = Some(gen);
            self.epoch += 1;
            self.filled = 0;
        }
    }

    /// Keep `prediction`, made for `job` at `elapsed`, in its slot. A
    /// slot another job filled in this epoch first doubles the table,
    /// while the table is below its bound ([`SLOTS_PER_JOB`]).
    fn keep(&mut self, job: JobId, elapsed: Dur, prediction: Prediction) {
        let mut at = self.home(job);
        let taken = self.slots[at].epoch == self.epoch && self.slots[at].job != job;
        if taken && self.slots.len() < SLOTS_PER_JOB * self.peak {
            self.grow();
            at = self.home(job);
        }
        if self.slots[at].epoch != self.epoch {
            self.filled += 1;
            self.peak = self.peak.max(self.filled);
        }
        self.slots[at] = Slot {
            epoch: self.epoch,
            job,
            elapsed,
            prediction,
        };
    }

    /// Double the table, moving this epoch's entries. Entries in distinct
    /// slots stay in distinct slots, so none is lost.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        for s in old.into_iter().filter(|s| s.epoch == self.epoch) {
            let at = self.home(s.job);
            self.slots[at] = s;
        }
    }
}

impl<P: RunTimePredictor> RunTimePredictor for CachingPredictor<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let Some(gen) = self.inner.generation() else {
            // Unobservable state: every call must reach the inner
            // predictor. Counted as misses so hit_rate reads 0.
            self.stats.misses += 1;
            qpredict_obs::counter_add("cache.misses", 1);
            return self.inner.predict(job, elapsed);
        };
        self.sync_generation(gen);
        let s = &self.slots[self.home(job.id)];
        let held = s.epoch == self.epoch
            && s.job == job.id
            && (elapsed == s.elapsed
                || (s.elapsed <= elapsed && elapsed < s.prediction.holds_below));
        if held {
            self.stats.hits += 1;
            qpredict_obs::counter_add("cache.hits", 1);
            return s.prediction.clamped(elapsed);
        }
        self.stats.misses += 1;
        qpredict_obs::counter_add("cache.misses", 1);
        let prediction = self.inner.predict(job, elapsed);
        self.keep(job.id, elapsed, prediction);
        prediction
    }

    fn try_predict(&mut self, job: &Job, elapsed: Dur) -> Result<Prediction, PredictError> {
        // Route through the cache; the fallback marker is part of the
        // cached Prediction, so the Ok/Err split is preserved.
        let p = self.predict(job, elapsed);
        if p.fallback {
            Err(PredictError::NoMatchingHistory(p))
        } else {
            Ok(p)
        }
    }

    fn on_complete(&mut self, job: &Job) {
        self.inner.on_complete(job);
        // Invalidation is lazy: the next predict observes the bumped
        // generation. An eager clear here would miscount predictors that
        // don't bump on every completion (e.g. stateless baselines). The
        // completed job is not estimated again, so its slot empties.
        let at = self.home(job.id);
        if self.slots[at].epoch == self.epoch && self.slots[at].job == job.id {
            self.slots[at] = EMPTY;
            self.filled -= 1;
        }
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        self.inner.degradations()
    }

    fn generation(&self) -> Option<u64> {
        self.inner.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{Template, TemplateSet};
    use crate::{OraclePredictor, SmithPredictor};
    use qpredict_workload::{Characteristic, JobBuilder, SymbolTable};

    fn job(syms: &mut SymbolTable, user: &str, rt: i64, id: u32) -> Job {
        let u = syms.intern(user);
        JobBuilder::new()
            .with(Characteristic::User, u)
            .runtime(Dur(rt))
            .build(JobId(id))
    }

    fn smith() -> SmithPredictor {
        SmithPredictor::new(TemplateSet::new(vec![Template::mean_over(&[
            Characteristic::User,
        ])]))
    }

    #[test]
    fn repeated_predictions_hit_and_match() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(smith());
        c.on_complete(&job(&mut syms, "alice", 100, 0));
        c.on_complete(&job(&mut syms, "alice", 200, 1));
        let q = job(&mut syms, "alice", 1, 2);
        let first = c.predict(&q, Dur::ZERO);
        let second = c.predict(&q, Dur::ZERO);
        assert_eq!(first, second);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
            }
        );
    }

    /// A completion empties the job's slot, so a predictor whose
    /// generation never moves keeps a table sized to the jobs live at
    /// once, not to the jobs seen.
    #[test]
    fn completions_keep_a_constant_generation_table_small() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(OraclePredictor);
        let jobs: Vec<Job> = (0..5_000u32)
            .map(|i| job(&mut syms, "alice", 100, i))
            .collect();
        for i in 0..jobs.len() {
            for live in &jobs[i.saturating_sub(19)..=i] {
                c.predict(live, Dur::ZERO);
            }
            if i >= 19 {
                c.on_complete(&jobs[i - 19]);
            }
        }
        assert_eq!(c.peak, 20, "20 jobs live at once");
        assert_eq!(c.slots.len(), MIN_SLOTS, "consecutive ids never collide");
        assert_eq!(c.stats().misses, 5_000, "one miss per job");
    }

    #[test]
    fn completion_invalidates() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(smith());
        c.on_complete(&job(&mut syms, "alice", 100, 0));
        let q = job(&mut syms, "alice", 1, 1);
        let stale = c.predict(&q, Dur::ZERO);
        assert_eq!(stale.estimate, Dur(100));
        c.on_complete(&job(&mut syms, "alice", 300, 2));
        let fresh = c.predict(&q, Dur::ZERO);
        assert_eq!(fresh.estimate, Dur(200), "post-completion mean");
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn cached_matches_uncached_everywhere() {
        // Interleave completions and predictions; the cached stream must
        // equal the uncached one prediction-for-prediction.
        let mut syms = SymbolTable::new();
        let mut plain = smith();
        let mut cached = CachingPredictor::new(smith());
        for round in 0..20i64 {
            let done = job(
                &mut syms,
                if round % 3 == 0 { "a" } else { "b" },
                60 + round * 7,
                round as u32,
            );
            plain.on_complete(&done);
            cached.on_complete(&done);
            for probe in 0..4u32 {
                let q = job(
                    &mut syms,
                    if probe % 2 == 0 { "a" } else { "b" },
                    1,
                    100 + probe,
                );
                for elapsed in [Dur::ZERO, Dur(30)] {
                    // Repeat to force hits.
                    assert_eq!(plain.predict(&q, elapsed), cached.predict(&q, elapsed));
                    assert_eq!(plain.predict(&q, elapsed), cached.predict(&q, elapsed));
                }
            }
        }
        assert!(cached.stats().hits > 0, "repeats must hit");
        assert!(cached.stats().invalidations > 0, "completions must flush");
    }

    /// Elapsed time is part of every lookup: a prediction is served at a
    /// later elapsed time only inside its window. Without `rtime`
    /// templates the window is unbounded; with one it ends at the
    /// smallest run time above the elapsed time, and a queued job's
    /// prediction (elapsed zero) holds only there.
    #[test]
    fn elapsed_is_part_of_the_key() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(smith());
        for rt in [10, 10, 10, 5000] {
            c.on_complete(&job(&mut syms, "alice", rt, 0));
        }
        let q = job(&mut syms, "alice", 1, 1);
        let queued = c.predict(&q, Dur::ZERO);
        assert_eq!(queued.holds_below, Dur::MAX);
        let running = c.predict(&q, Dur(4000));
        assert_eq!(running, queued.clamped(Dur(4000)));
        assert_ne!(queued.estimate, running.estimate);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));

        let rtime = SmithPredictor::new(TemplateSet::new(vec![Template::mean_over(&[
            Characteristic::User,
        ])
        .with_rtime()]));
        let mut c = CachingPredictor::new(rtime.clone());
        let mut bare = rtime;
        for rt in [10, 10, 10, 5000] {
            let done = job(&mut syms, "alice", rt, 0);
            c.on_complete(&done);
            bare.on_complete(&done);
        }
        let mut misses = 0;
        for (e, hit) in [
            (0, false),
            (0, true),
            (1, false),
            (9, true),
            (10, false),
            (4999, true),
            (5000, false),
            (1, false),
        ] {
            let got = c.predict(&q, Dur(e));
            assert_eq!(got, bare.predict(&q, Dur(e)), "elapsed {e}");
            misses += u64::from(!hit);
            assert_eq!(c.stats().misses, misses, "elapsed {e}");
        }
        assert_eq!(c.predict(&q, Dur(1)).holds_below, Dur(10));
        assert_eq!(c.predict(&q, Dur(10)).holds_below, Dur(5000));
        assert_eq!(c.predict(&q, Dur(5000)).holds_below, Dur::MAX);
    }

    #[test]
    fn stateless_predictor_caches_forever() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(OraclePredictor);
        let q = job(&mut syms, "alice", 777, 0);
        assert_eq!(c.predict(&q, Dur::ZERO).estimate, Dur(777));
        // No-op learn: generation stays 0. (A job's own completion
        // empties its slot; it is not estimated again.)
        c.on_complete(&job(&mut syms, "alice", 5, 1));
        assert_eq!(c.predict(&q, Dur::ZERO).estimate, Dur(777));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
            }
        );
    }

    #[test]
    fn uncacheable_inner_passes_through() {
        struct Moody(u64);
        impl RunTimePredictor for Moody {
            fn name(&self) -> &'static str {
                "moody"
            }
            fn predict(&mut self, _job: &Job, _elapsed: Dur) -> Prediction {
                self.0 += 1;
                Prediction::fallback(Dur(self.0 as i64))
            }
            fn on_complete(&mut self, _job: &Job) {}
            // generation(): default None — predictions vary per call.
        }
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(Moody(0));
        let q = job(&mut syms, "alice", 1, 0);
        assert_eq!(c.predict(&q, Dur::ZERO).estimate, Dur(1));
        assert_eq!(c.predict(&q, Dur::ZERO).estimate, Dur(2), "no caching");
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 2);
        assert_eq!((c.filled, c.peak), (0, 0), "nothing was kept");
    }

    /// Jobs whose ids share a slot in one generation grow the table
    /// until they part, while it is small for the jobs seen; beyond that
    /// they take turns, recomputed, and the answers still match.
    #[test]
    fn colliding_jobs_grow_the_table_within_its_bound() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(OraclePredictor);
        let jobs: Vec<Job> = (0..100u32)
            .map(|i| job(&mut syms, "alice", 100 + i64::from(i), i))
            .collect();
        for _ in 0..3 {
            for j in &jobs {
                assert_eq!(c.predict(j, Dur::ZERO).estimate, j.runtime);
            }
        }
        assert_eq!(c.slots.len(), 128, "100 consecutive ids part at 128 slots");
        assert_eq!(c.stats().misses, 100, "once parted, every repeat hits");
        // Two jobs 2^20 ids apart collide at any size the bound allows.
        let far = [
            job(&mut syms, "bob", 7, 1_000),
            job(&mut syms, "bob", 9, 1_000 + (1 << 20)),
        ];
        for _ in 0..3 {
            for j in &far {
                assert_eq!(c.predict(j, Dur::ZERO).estimate, j.runtime);
            }
        }
        assert_eq!(
            c.slots.len(),
            2048,
            "16 slots per job of the busiest generation"
        );
        assert_eq!(c.stats().misses, 106, "they take turns");
    }

    #[test]
    fn try_predict_uses_cache_and_preserves_split() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(smith());
        let q = job(&mut syms, "alice", 1, 0);
        assert!(c.try_predict(&q, Dur::ZERO).is_err(), "cold start");
        c.on_complete(&job(&mut syms, "alice", 100, 1));
        assert!(c.try_predict(&q, Dur::ZERO).is_ok());
        let before = c.stats().hits;
        assert!(c.try_predict(&q, Dur::ZERO).is_ok());
        assert_eq!(c.stats().hits, before + 1);
    }

    #[test]
    fn stats_merge_and_rate() {
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            invalidations: 1,
        };
        let b = CacheStats {
            hits: 1,
            misses: 3,
            invalidations: 0,
        };
        a.merge(&b);
        assert_eq!(a.total(), 8);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = a.to_string();
        assert!(s.contains("50% hit rate"), "{s}");
    }
}
