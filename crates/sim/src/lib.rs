#![warn(missing_docs)]

//! Discrete-event simulator of a space-shared parallel machine.
//!
//! Models the scheduling environment of the paper: jobs arrive over time,
//! wait in a queue, and run to completion on a fixed number of nodes
//! (space sharing, no preemption). Three scheduling algorithms are
//! provided, matching Section 2.1 of the paper:
//!
//! * **FCFS** — the job at the head of the arrival-ordered queue starts
//!   whenever enough nodes are free;
//! * **LWF** (least-work-first) — like FCFS but the queue is ordered by
//!   estimated work (`nodes x estimated run time`), so the scheduler
//!   consults a run-time predictor;
//! * **Backfill** — conservative backfill: jobs are examined in arrival
//!   order; a job starts if it can do so without delaying any job ahead of
//!   it, otherwise nodes are *reserved* for it at the earliest possible
//!   time using the predictor's run-time predictions.
//!
//! The engine's one run-time contract is
//! [`qpredict_predict::RunTimePredictor`]: the oracle, the users' limits
//! ([`MaxRuntimeEstimator`]), every learned predictor and the
//! fault-injecting [`FaultyEstimator`] all reach the schedulers through
//! it. ([`RuntimeEstimator`] is a shim over it that only the end-to-end
//! benchmark names.)
//!
//! The engine is deterministic: identical inputs produce identical
//! schedules. All decisions that could tie are broken by arrival sequence
//! numbers.
//!
//! Every scheduling pass goes through one [`Planner`], which keeps its
//! buffers and availability [`Profile`] across passes and, under
//! conservative backfill, carries its plan across a pass that follows no
//! completion. [`forecast_jobs`] replays the same passes on predicted
//! run times to forecast when a queued job starts (Section 3's wait
//! prediction): it resolves each running and queued job's prediction and
//! belief once, for [`forecast_start`]'s snapshots and for the online
//! service alike.

pub mod engine;
pub mod estimators;
pub mod fault;
pub mod forecast;
pub mod metrics;
pub mod profile;
pub mod scheduler;
pub mod tests_support;
pub mod timeline;

pub use engine::{NoHooks, SimHooks, SimResult, Simulation, Snapshot};
pub use estimators::{MaxRuntimeEstimator, RuntimeEstimator};
pub use fault::{FaultCounts, FaultPlan, FaultReport, FaultyEstimator};
pub use forecast::{forecast_jobs, forecast_start, Forecast};
pub use metrics::{JobOutcome, Metrics};
pub use profile::Profile;
pub use qpredict_predict::CacheStats;
pub use scheduler::{Algorithm, Planner, QueueEntry, RunningView};
pub use timeline::{realized_events, timeline_of, Timeline};
