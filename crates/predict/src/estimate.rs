//! The unified estimation layer: generation-keyed memoization of
//! predictions.
//!
//! Prediction-driven schedulers re-request the same estimates at brutal
//! frequency — LWF re-estimates every waiting job and backfill every
//! running *and* waiting job on each scheduling attempt — while the
//! predictor's learned state only changes when a completion adds
//! history. [`CachingPredictor`] exploits that: it memoizes
//! `(job, elapsed) → Prediction` and trusts a cached entry exactly as
//! long as the inner predictor's [`RunTimePredictor::generation`]
//! counter is unchanged. A completion bumps the generation,
//! which invalidates the whole cache — precisely the moments at which
//! any cached estimate could have changed.
//!
//! Correctness argument: a prediction is a pure function of the job's
//! immutable fields, the elapsed running time, and the predictor's
//! learned state. Within one workload a [`qpredict_workload::JobId`]
//! denotes one immutable job, elapsed time is integral seconds (so the
//! key is exact, no bucketing error), and the generation counter is
//! bumped by every state mutation. Hence `(job id, elapsed, generation)`
//! determines the prediction bit-for-bit, and serving a hit is
//! indistinguishable from recomputing. Predictors whose `predict` has
//! observable side effects (e.g. [`crate::FallbackPredictor`]'s
//! degradation accounting) return `None` from `generation()` and are
//! passed through uncached.

use std::collections::hash_map::{Entry, HashMap};

use qpredict_workload::{Dur, Job, JobId};

use crate::wordhash::WordBuildHasher;
use crate::{DegradationCounts, PredictError, Prediction, RunTimePredictor};

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

/// Memoizing wrapper around any [`RunTimePredictor`]; see the module
/// docs for the invalidation contract.
#[derive(Debug, Clone)]
pub struct CachingPredictor<P> {
    inner: P,
    cache: HashMap<(JobId, Dur), Prediction, WordBuildHasher>,
    /// Generation the cached entries were computed at.
    cached_gen: Option<u64>,
    stats: CacheStats,
}

impl<P: RunTimePredictor> CachingPredictor<P> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: P) -> CachingPredictor<P> {
        CachingPredictor {
            inner,
            cache: HashMap::default(),
            cached_gen: None,
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

    /// Drop every cached entry if the inner predictor's generation moved
    /// since they were computed.
    fn sync_generation(&mut self, gen: u64) {
        if self.cached_gen != Some(gen) {
            if !self.cache.is_empty() {
                self.stats.invalidations += 1;
                qpredict_obs::counter_add("cache.invalidations", 1);
                self.cache.clear();
            }
            self.cached_gen = Some(gen);
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
        match self.cache.entry((job.id, elapsed)) {
            Entry::Occupied(hit) => {
                self.stats.hits += 1;
                qpredict_obs::counter_add("cache.hits", 1);
                *hit.get()
            }
            Entry::Vacant(slot) => {
                self.stats.misses += 1;
                qpredict_obs::counter_add("cache.misses", 1);
                *slot.insert(self.inner.predict(job, elapsed))
            }
        }
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
        // don't bump on every completion (e.g. stateless baselines).
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

    #[test]
    fn elapsed_is_part_of_the_key() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(smith());
        for rt in [10, 10, 10, 5000] {
            c.on_complete(&job(&mut syms, "alice", rt, 0));
        }
        let q = job(&mut syms, "alice", 1, 1);
        let queued = c.predict(&q, Dur::ZERO);
        let running = c.predict(&q, Dur(4000));
        assert_ne!(queued.estimate, running.estimate);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn stateless_predictor_caches_forever() {
        let mut syms = SymbolTable::new();
        let mut c = CachingPredictor::new(OraclePredictor);
        let q = job(&mut syms, "alice", 777, 0);
        assert_eq!(c.predict(&q, Dur::ZERO).estimate, Dur(777));
        c.on_complete(&q); // no-op learn: generation stays 0
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
        assert!(c.cache.is_empty());
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
