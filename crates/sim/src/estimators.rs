//! The EASY-style belief, and the benchmark's shim over the engine's one
//! run-time contract.
//!
//! The engine consults [`RunTimePredictor`] directly: the oracle
//! ([`qpredict_predict::OraclePredictor`]), the users' limits
//! ([`MaxRuntimeEstimator`]) and every learned predictor reach it through
//! `predict(job, elapsed).estimate` and `on_complete(job)`. Wrappers
//! that score or corrupt estimates ([`crate::FaultyEstimator`],
//! `qpredict_core::PredictorEstimator`) are predictors too.

use qpredict_predict::{MaxRuntimePredictor, RunTimePredictor};
use qpredict_workload::{Dur, Job, Time};

/// The engine's former estimator contract, kept as a one-method shim
/// because the end-to-end benchmark (`e2ebench/`) still names it. Every
/// [`RunTimePredictor`] has it through the blanket impl below, and
/// nothing in the workspace calls it; it goes with the next change to
/// the benchmark.
pub trait RuntimeEstimator: RunTimePredictor {
    /// The predicted **total** run time of `job` after `elapsed` of
    /// running: `predict(job, elapsed).estimate`. `now` is unused.
    fn estimate(&mut self, job: &Job, _now: Time, elapsed: Dur) -> Dur {
        self.predict(job, elapsed).estimate
    }
}

impl<P: RunTimePredictor + ?Sized> RuntimeEstimator for P {}

/// EASY-style estimates: the user-supplied maximum run time. For
/// workloads without recorded limits (the SDSC traces), per-queue maxima
/// are derived from the trace, exactly as the paper does: the longest
/// running job in each queue becomes the maximum for that queue.
///
/// This is [`MaxRuntimePredictor`] itself: it estimates
/// `limit.max(elapsed + 1 s)`, so a running job past its limit stays
/// ahead of reality.
pub type MaxRuntimeEstimator = MaxRuntimePredictor;
