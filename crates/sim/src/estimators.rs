//! The estimator interface the engine consults, plus simple built-in
//! estimators.
//!
//! The full predictor suite (template-based, Gibbons, Downey) lives in
//! `qpredict-predict`, and every [`qpredict_predict::RunTimePredictor`]
//! is a [`RuntimeEstimator`] via the blanket impl below. The estimators
//! defined here are the ones the simulator itself needs for baselines
//! and tests.

use qpredict_predict::{MaxRuntimePredictor, RunTimePredictor};
use qpredict_workload::{Dur, Job, Time};

/// Why an estimator could not supply a usable estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateError {
    /// Human-readable reason (which source failed, and how).
    pub reason: String,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "estimate unavailable: {}", self.reason)
    }
}

impl std::error::Error for EstimateError {}

/// Supplies run-time estimates to the scheduling algorithms and observes
/// job lifecycle events so that learning predictors can accumulate
/// history.
pub trait RuntimeEstimator {
    /// Estimate the **total** run time of `job`, which has been running
    /// for `elapsed` (zero for queued jobs). Implementations must return
    /// a positive duration, at least `elapsed + 1` for running jobs.
    fn estimate(&mut self, job: &Job, now: Time, elapsed: Dur) -> Dur;

    /// Fallible variant of [`estimate`](RuntimeEstimator::estimate), for
    /// estimators with degraded modes (fault injection, exhausted
    /// fallback chains). The default never fails; the guarded engine
    /// entry point surfaces `Err` as a simulation error instead of
    /// scheduling on garbage.
    fn try_estimate(&mut self, job: &Job, now: Time, elapsed: Dur) -> Result<Dur, EstimateError> {
        Ok(self.estimate(job, now, elapsed))
    }

    /// Called when a job completes; learning estimators insert history
    /// here (the paper inserts data points at completion time).
    fn on_complete(&mut self, _job: &Job, _now: Time) {}
}

/// Every run-time predictor is directly usable as the engine's
/// estimator: predictions supply the estimate (the current wall-clock is
/// irrelevant to a predictor — only the job's elapsed running time
/// matters) and completions feed the predictor's history. This is the
/// unification point of the estimation layer: the simulator, the
/// experiment drivers, and the GA's fitness loop all consult the same
/// [`RunTimePredictor`] implementations. A scheduling run consults them
/// directly: its `(job, elapsed)` pairs rarely repeat between
/// completions, so memoizing them with
/// [`qpredict_predict::CachingPredictor`] costs more than it saves. What
/// does repeat is each job's selection over the templates that ignore
/// elapsed time, and [`qpredict_predict::SmithPredictor`] memoizes that
/// itself until a completion touches its categories. The wait-time
/// studies, whose nested forecasts repeat whole estimates, wrap their
/// predictor in a `CachingPredictor` above that memo.
impl<P: RunTimePredictor> RuntimeEstimator for P {
    fn estimate(&mut self, job: &Job, _now: Time, elapsed: Dur) -> Dur {
        self.predict(job, elapsed).estimate
    }

    fn on_complete(&mut self, job: &Job, _now: Time) {
        RunTimePredictor::on_complete(self, job);
    }
}

/// The oracle: estimates are the actual run times. Gives the paper's
/// upper-bound rows (Tables 4 and 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActualEstimator;

impl RuntimeEstimator for ActualEstimator {
    fn estimate(&mut self, job: &Job, _now: Time, _elapsed: Dur) -> Dur {
        job.runtime
    }
}

/// Estimates every job at a fixed duration; useful in tests and as a
/// degenerate baseline.
#[derive(Debug, Clone, Copy)]
pub struct ConstantEstimator(pub Dur);

impl RuntimeEstimator for ConstantEstimator {
    fn estimate(&mut self, _job: &Job, _now: Time, elapsed: Dur) -> Dur {
        self.0.max(elapsed + Dur::SECOND)
    }
}

/// EASY-style estimates: the user-supplied maximum run time. For
/// workloads without recorded limits (the SDSC traces), per-queue maxima
/// are derived from the trace, exactly as the paper does: the longest
/// running job in each queue becomes the maximum for that queue.
///
/// This is [`MaxRuntimePredictor`] itself: through the blanket impl
/// above it estimates `limit.max(elapsed + 1 s)`, so a running job past
/// its limit stays ahead of reality.
pub type MaxRuntimeEstimator = MaxRuntimePredictor;

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::{Characteristic, JobBuilder, JobId, Workload};

    #[test]
    fn actual_returns_runtime() {
        let j = JobBuilder::new().runtime(Dur(123)).build(JobId(0));
        assert_eq!(ActualEstimator.estimate(&j, Time(0), Dur::ZERO), Dur(123));
    }

    #[test]
    fn constant_clamps_to_elapsed() {
        let j = JobBuilder::new().build(JobId(0));
        let mut e = ConstantEstimator(Dur(100));
        assert_eq!(e.estimate(&j, Time(0), Dur::ZERO), Dur(100));
        assert_eq!(e.estimate(&j, Time(0), Dur(500)), Dur(501));
    }

    #[test]
    fn maxrt_uses_explicit_limit() {
        let mut w = Workload::new("t", 8);
        w.jobs = vec![JobBuilder::new()
            .runtime(Dur(50))
            .max_runtime(Dur(600))
            .build(JobId(0))];
        w.finalize();
        let mut e = MaxRuntimeEstimator::from_workload(&w);
        assert_eq!(e.estimate(&w.jobs[0], Time(0), Dur::ZERO), Dur(600));
    }

    #[test]
    fn maxrt_derives_queue_maxima() {
        let mut w = Workload::new("t", 8);
        let q = w.symbols.intern("q16s");
        w.jobs = vec![
            JobBuilder::new()
                .with(Characteristic::Queue, q)
                .runtime(Dur(300))
                .build(JobId(0)),
            JobBuilder::new()
                .with(Characteristic::Queue, q)
                .runtime(Dur(100))
                .submit(Time(1))
                .build(JobId(1)),
        ];
        w.finalize();
        let mut e = MaxRuntimeEstimator::from_workload(&w);
        // Both jobs in queue q estimate at the queue's longest runtime.
        assert_eq!(e.estimate(&w.jobs[1], Time(0), Dur::ZERO), Dur(300));
    }

    #[test]
    fn maxrt_running_job_exceeding_limit() {
        let mut w = Workload::new("t", 8);
        w.jobs = vec![JobBuilder::new()
            .runtime(Dur(50))
            .max_runtime(Dur(60))
            .build(JobId(0))];
        w.finalize();
        let mut e = MaxRuntimeEstimator::from_workload(&w);
        // Job has run 100 s, past its 60 s limit: estimate must stay ahead
        // of reality.
        assert_eq!(e.estimate(&w.jobs[0], Time(0), Dur(100)), Dur(101));
    }
}
