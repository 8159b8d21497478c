#![warn(missing_docs)]

//! Run-time predictors for batch jobs.
//!
//! The centerpiece is [`SmithPredictor`] — the paper's contribution: a
//! history-based predictor whose notion of "similar past jobs" is defined
//! by a set of [`Template`]s over job characteristics, with per-category
//! mean/regression estimators and confidence intervals; the estimate with
//! the smallest confidence interval wins.
//!
//! The baselines the paper compares against are here too:
//!
//! * [`GibbonsPredictor`] — Gibbons' fixed six-template hierarchy with
//!   weighted linear regression (paper Table 3),
//! * [`DowneyPredictor`] — Downey's log-uniform CDF model with the
//!   conditional-average and conditional-median estimators,
//! * [`MaxRuntimePredictor`] — user-supplied maximum run times (EASY
//!   style), with per-queue maxima derived for traces that record none,
//! * [`OraclePredictor`] — the actual run times (perfect information).
//!
//! All predictors implement [`RunTimePredictor`]: they produce a
//! [`Prediction`] for a job given how long it has already been running,
//! and they learn from completions (`on_complete`), mirroring the paper's
//! step 3 ("at the time each application completes execution").
//!
//! [`PredictorKind`] names every predictor the paper compares and builds
//! it for a workload, using the [`searched`] template sets for Smith.

pub mod baseline;
pub mod category;
pub mod downey;
pub mod error;
pub mod estimate;
pub mod estimators;
pub mod fallback;
pub mod gibbons;
pub mod kind;
mod rtindex;
pub mod searched;
pub mod smith;
pub mod template;
mod wordhash;

pub use baseline::{MaxRuntimePredictor, OraclePredictor};
pub use category::EstimateOps;
pub use downey::{DowneyPredictor, DowneyVariant};
pub use error::ErrorStats;
pub use estimate::{CacheStats, CachingPredictor};
pub use fallback::{DegradationCounts, FallbackPredictor};
pub use gibbons::GibbonsPredictor;
pub use kind::PredictorKind;
pub use smith::SmithPredictor;
pub use template::{CharSet, EstimatorKind, Template, TemplateSet};

use qpredict_workload::{Dur, Job};

/// A run-time prediction with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted total run time.
    pub estimate: Dur,
    /// Half-width of the confidence interval around the estimate, in
    /// seconds. `INFINITY` when the source cannot quantify uncertainty
    /// (single data point, fallback paths).
    pub ci_halfwidth: f64,
    /// True when no category could predict and a fallback (global mean,
    /// user limit, or constant) was used.
    pub fallback: bool,
    /// The elapsed time below which the prediction holds while the
    /// predictor's [generation](RunTimePredictor::generation) is
    /// unchanged: made at elapsed `e`, `predict(job, e2)` equals
    /// `self.clamped(e2)` for every `e2` in `[e, holds_below)`.
    /// [`Dur::MAX`] when that holds at every later elapsed time;
    /// [`Dur::ZERO`] when it holds only at `e` itself. [`CachingPredictor`]
    /// serves repeated estimates from this window.
    pub holds_below: Dur,
}

impl Prediction {
    /// A prediction from a fallback source, holding only at the elapsed
    /// time it was made at.
    pub fn fallback(estimate: Dur) -> Prediction {
        Prediction {
            estimate,
            ci_halfwidth: f64::INFINITY,
            fallback: true,
            holds_below: Dur::ZERO,
        }
    }

    /// Clamp the estimate so it is positive and exceeds the elapsed run
    /// time (a running job's total run time is at least `elapsed + 1`).
    pub fn clamped(mut self, elapsed: Dur) -> Prediction {
        self.estimate = self.estimate.max(elapsed + Dur::SECOND).max(Dur::SECOND);
        self
    }
}

/// Why a predictor could not produce a confident prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// No category in the predictor's history matched the job. The
    /// carried [`Prediction`] is the predictor's own last-ditch fallback
    /// value, usable by a caller with nothing better.
    NoMatchingHistory(Prediction),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::NoMatchingHistory(p) => {
                write!(
                    f,
                    "no matching history (fallback estimate {:?})",
                    p.estimate
                )
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// A run-time predictor: produces predictions on demand and learns from
/// completed jobs.
pub trait RunTimePredictor {
    /// Short display name, e.g. `"smith"`, `"gibbons"`.
    fn name(&self) -> &'static str;

    /// Predict the **total** run time of `job`, which has been running
    /// for `elapsed` (zero if still queued). Implementations always
    /// return a prediction; when no history applies they fall back and
    /// mark the result accordingly. The returned estimate is positive and
    /// at least `elapsed + 1`.
    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction;

    /// Fallible variant of [`predict`](RunTimePredictor::predict):
    /// returns `Err` instead of a silently degraded estimate, so callers
    /// (notably [`FallbackPredictor`]) can try the next source in a
    /// chain. The default treats any prediction marked `fallback` as a
    /// failure and carries it in the error.
    fn try_predict(&mut self, job: &Job, elapsed: Dur) -> Result<Prediction, PredictError> {
        let p = self.predict(job, elapsed);
        if p.fallback {
            Err(PredictError::NoMatchingHistory(p))
        } else {
            Ok(p)
        }
    }

    /// Incorporate a completed job into the predictor's history.
    fn on_complete(&mut self, job: &Job);

    /// Does nothing: no predictor discards its history. The method
    /// remains only because the end-to-end benchmark's timing wrapper
    /// forwards it, and goes with that benchmark's next change.
    fn reset(&mut self) {}

    /// Degradation accounting, for predictors that chain multiple
    /// sources ([`FallbackPredictor`]). `None` for simple predictors.
    fn degradations(&self) -> Option<DegradationCounts> {
        None
    }

    /// A monotone counter identifying the predictor's learned state:
    /// implementations bump it on **every** state mutation
    /// (`on_complete`), so two `predict` calls for the same
    /// `(job, elapsed)` at the same generation are guaranteed to return
    /// the identical [`Prediction`], and a prediction's
    /// [`holds_below`](Prediction::holds_below) window stays true until
    /// the generation moves. The learning predictors (Smith,
    /// Gibbons, Downey) learn only from completions, so theirs is the
    /// number of completions learned from: the count in the
    /// [`category::Totals`] each holds.
    /// Stateless predictors return a
    /// constant. The default `None` declares the state unobservable (or
    /// `predict` side-effecting, as in [`FallbackPredictor`]'s
    /// degradation accounting), which disables
    /// [`CachingPredictor`] memoization for this predictor.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// A boxed predictor is a predictor: every method forwards, so
/// [`PredictorKind::build`]'s `Box<dyn RunTimePredictor + Send>` runs
/// wherever a concrete predictor does.
impl<P: RunTimePredictor + ?Sized> RunTimePredictor for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        (**self).predict(job, elapsed)
    }

    fn try_predict(&mut self, job: &Job, elapsed: Dur) -> Result<Prediction, PredictError> {
        (**self).try_predict(job, elapsed)
    }

    fn on_complete(&mut self, job: &Job) {
        (**self).on_complete(job)
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        (**self).degradations()
    }

    fn generation(&self) -> Option<u64> {
        (**self).generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_respects_elapsed() {
        let p = Prediction {
            estimate: Dur(10),
            ci_halfwidth: 1.0,
            fallback: false,
            holds_below: Dur::MAX,
        };
        assert_eq!(p.clamped(Dur(100)).estimate, Dur(101));
        assert_eq!(p.clamped(Dur::ZERO).estimate, Dur(10));
    }

    #[test]
    fn fallback_marks_infinite_ci() {
        let p = Prediction::fallback(Dur(60));
        assert!(p.fallback);
        assert!(p.ci_halfwidth.is_infinite());
    }
}
