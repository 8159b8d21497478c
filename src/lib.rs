#![warn(missing_docs)]

//! # qpredict
//!
//! A reproduction of Smith, Taylor & Foster, *"Using Run-Time Predictions
//! to Estimate Queue Wait Times and Improve Scheduler Performance"*
//! (IPPS/SPDP 1999), as a reusable Rust library.
//!
//! The workspace provides, and this facade re-exports:
//!
//! * [`workload`] — job/trace models, SWF I/O, and calibrated synthetic
//!   generators for the paper's four workloads (ANL, CTC, SDSC95, SDSC96);
//! * [`sim`] — a deterministic discrete-event simulator of a space-shared
//!   parallel machine with FCFS, least-work-first, and conservative
//!   backfill scheduling;
//! * [`predict`] — run-time predictors: the paper's template-based
//!   predictor plus the Gibbons, Downey, maximum-run-time, and oracle
//!   baselines;
//! * [`search`] — genetic-algorithm and greedy search for good template
//!   sets;
//! * [`core`] — queue wait-time prediction by nested simulation,
//!   prediction-driven scheduling, and the experiment harness that
//!   regenerates every quantitative table in the paper;
//! * [`serve`] — a crash-safe online predictor service: write-ahead
//!   logged, snapshotted, tolerant of disordered/duplicated/late events,
//!   with bounded memory and kill-anywhere recovery;
//! * [`durable`] — the one state codec, checksum seals and atomic file
//!   writes behind every snapshot, checkpoint and run report.
//!
//! ## Quickstart
//!
//! ```
//! use qpredict::prelude::*;
//!
//! // A small synthetic workload in the style of the paper's traces.
//! let wl = qpredict::workload::synthetic::toy(400, 64, 42);
//!
//! // Schedule it with conservative backfill, using user-supplied maximum
//! // run times as the run-time estimate (EASY style)...
//! let outcome = qpredict::core::run_scheduling(
//!     &wl, Algorithm::Backfill, PredictorKind::MaxRuntime);
//!
//! // ...and again with the paper's history-based predictor.
//! let smart = qpredict::core::run_scheduling(
//!     &wl, Algorithm::Backfill, PredictorKind::Smith);
//!
//! assert!(smart.metrics.utilization > 0.0);
//! println!("mean wait: {:.1} min -> {:.1} min",
//!          outcome.metrics.mean_wait.minutes(),
//!          smart.metrics.mean_wait.minutes());
//! ```

pub use qpredict_core as core;
pub use qpredict_durable as durable;
pub use qpredict_obs as obs;
pub use qpredict_predict as predict;
pub use qpredict_search as search;
pub use qpredict_serve as serve;
pub use qpredict_sim as sim;
pub use qpredict_workload as workload;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use qpredict_core::{
        run_scheduling, run_wait_prediction, PredictorKind, SchedulingOutcome,
        WaitPredictionOutcome,
    };
    pub use qpredict_predict::{Prediction, RunTimePredictor};
    pub use qpredict_sim::{Algorithm, Metrics};
    pub use qpredict_workload::{
        Characteristic, Dur, Job, JobBuilder, JobId, Time, Workload, WorkloadStats,
    };
}
