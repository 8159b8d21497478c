#![warn(missing_docs)]

//! Queue wait-time prediction and prediction-driven scheduling — the two
//! applications of run-time prediction the paper evaluates — plus the
//! experiment harness that regenerates every quantitative table.
//!
//! * [`forecast_start`] — simulate a scheduler forward from a system
//!   [`qpredict_sim::Snapshot`] using predicted run times, yielding the
//!   predicted start time of a job (Section 3's technique; re-exported
//!   from `qpredict-sim`, where the online service calls it too);
//! * [`run_wait_prediction`] — the full Tables 4–9 pipeline: schedule a
//!   trace with maximum run times, predict every arrival's wait at
//!   submission via nested simulation, and score the predictions;
//! * [`run_scheduling`] — the Tables 10–15 pipeline: drive LWF/backfill
//!   with a run-time predictor and measure utilization and mean wait;
//! * [`PredictorKind`] — uniform construction of every predictor the
//!   paper compares (actual, maximum run times, Smith, Gibbons, Downey
//!   x2), re-exported from `qpredict-predict` with its [`searched`]
//!   template sets;
//! * [`paper`] — one function per paper table and extension experiment
//!   (served by `qpredict paper`), with the published values embedded
//!   for side-by-side comparison; its grids (workload x algorithm x
//!   predictor) run on `qpredict_obs::par_map`.

pub mod adapter;
pub mod paper;
pub mod scheduling;
pub mod statewait;
pub mod tables;
pub mod waittime;

pub use adapter::PredictorEstimator;
pub use qpredict_predict::{searched, PredictorKind};
pub use qpredict_sim::forecast_start;
pub use scheduling::{run_scheduling, run_scheduling_with, FaultSummary, SchedulingOutcome};
pub use statewait::{run_state_wait_prediction, StateWaitPredictor};
pub use tables::Table;
pub use waittime::{run_wait_prediction, run_wait_prediction_warm, WaitPredictionOutcome};
