//! A [`RunTimePredictor`] wrapper that scores every estimate the
//! scheduler asks for, recording the run-time prediction errors the
//! paper reports alongside each experiment.
//!
//! The engine consults any predictor directly; [`PredictorEstimator`]
//! sits between it and the predictor under study to serve repeated
//! estimates from the estimate cache, score each estimate into an
//! [`ErrorStats`] and count fallbacks.
//!
//! A scheduling pass re-estimates every queued and running job, while
//! the predictor learns only at completions. Between two completions a
//! running job's elapsed time moves with the clock, but a prediction
//! carries the elapsed window in which it holds
//! ([`qpredict_predict::Prediction::holds_below`]), so the cache, keyed
//! by job alone, serves the repeats: about half the estimates on the CTC
//! backfill cell. Below the cache, Smith's own per-signature memo keeps
//! each signature's selection over the templates that ignore elapsed
//! time until a completion lands in one of their categories.
//!
//! Every estimate is scored, served from the cache or not, so the error
//! stream is the one an uncached run records.

use qpredict_predict::{
    CacheStats, CachingPredictor, DegradationCounts, ErrorStats, Prediction, RunTimePredictor,
};
use qpredict_workload::{Dur, Job};

/// Adapter: a cached predictor that scores what it predicts.
///
/// Every estimate is scored against the job's actual run time into an
/// [`ErrorStats`] (the simulator only asks for estimates at the instants
/// the paper defines, so the accumulated stream matches the paper's
/// run-time prediction workloads). Completions feed the predictor's
/// history.
pub struct PredictorEstimator<P> {
    predictor: CachingPredictor<P>,
    errors: ErrorStats,
    /// Count of estimates served from the predictor's fallback path.
    fallbacks: u64,
}

impl<P: RunTimePredictor> PredictorEstimator<P> {
    /// Wrap a predictor.
    pub fn new(predictor: P) -> PredictorEstimator<P> {
        PredictorEstimator {
            predictor: CachingPredictor::new(predictor),
            errors: ErrorStats::new(),
            fallbacks: 0,
        }
    }

    /// The run-time prediction errors accumulated so far.
    pub fn errors(&self) -> &ErrorStats {
        &self.errors
    }

    /// How many estimates came from fallback paths (no matching
    /// category).
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    /// The estimate cache's counters: a miss is an estimate that
    /// reached the predictor.
    pub fn cache_stats(&self) -> CacheStats {
        self.predictor.stats()
    }

    /// Access the wrapped predictor.
    pub fn predictor(&self) -> &P {
        self.predictor.inner()
    }

    /// Consume the adapter, returning the predictor and the error stats.
    pub fn into_parts(self) -> (P, ErrorStats) {
        (self.predictor.into_inner(), self.errors)
    }
}

/// Predictions come from the cache and are scored, and `degradations`
/// is the wrapped predictor's. `generation` stays `None`: every
/// prediction is recorded, so none may be served from a cache above.
impl<P: RunTimePredictor> RunTimePredictor for PredictorEstimator<P> {
    fn name(&self) -> &'static str {
        self.predictor.name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let pred = self.predictor.predict(job, elapsed);
        if pred.fallback {
            self.fallbacks += 1;
        }
        self.errors.record(pred.estimate, job.runtime);
        pred
    }

    fn on_complete(&mut self, job: &Job) {
        self.predictor.on_complete(job);
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        self.predictor.degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_predict::OraclePredictor;
    use qpredict_workload::{JobBuilder, JobId};

    #[test]
    fn oracle_adapter_has_zero_error() {
        let mut a = PredictorEstimator::new(OraclePredictor);
        let j = JobBuilder::new().runtime(Dur(500)).build(JobId(0));
        assert_eq!(a.predict(&j, Dur::ZERO).estimate, Dur(500));
        assert_eq!(a.errors().mean_abs_error_min(), 0.0);
        assert_eq!(a.errors().count(), 1);
        assert_eq!(a.fallback_count(), 0);
    }

    #[test]
    fn records_each_estimate() {
        let mut a = PredictorEstimator::new(OraclePredictor);
        let j = JobBuilder::new().runtime(Dur(500)).build(JobId(0));
        for _ in 0..5 {
            a.predict(&j, Dur::ZERO);
        }
        // Every estimate is scored, and only the first reached the
        // predictor.
        assert_eq!(a.errors().count(), 5);
        let c = a.cache_stats();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 4);
    }

    #[test]
    fn completions_reach_predictor() {
        use qpredict_predict::{SmithPredictor, Template, TemplateSet};
        let set = TemplateSet::new(vec![Template::mean_over(&[])]);
        let mut a = PredictorEstimator::new(SmithPredictor::new(set));
        let j = JobBuilder::new().runtime(Dur(300)).build(JobId(0));
        a.on_complete(&j);
        let est = a.predict(&j, Dur::ZERO).estimate;
        assert_eq!(est, Dur(300)); // learned from the completion
        assert_eq!(a.fallback_count(), 0);
    }
}
