#![warn(missing_docs)]

//! Crash-safe online predictor service.
//!
//! The batch pipeline (ingest a trace, simulate, report) answers "how
//! well would the paper's predictor have done?". This crate answers the
//! operational question: run the predictor *as a service* against a live
//! stream of job events — submissions, starts, completions,
//! cancellations — and wait-time queries, and survive being killed at
//! any instant without losing or corrupting what it has learned.
//!
//! Three layers:
//!
//! * [`ServiceState`] — the deterministic core: per-job lifecycle state
//!   machine, bounded reorder buffer with a watermark for disordered
//!   input, late-completion backfill, bounded-memory job tables and
//!   predictor history, and wait-time query answering (the offline
//!   studies' nested forecast, `qpredict_sim::forecast_jobs`, run as
//!   conservative backfill over predicted run times through the same
//!   `qpredict_sim::Planner` the engine schedules with).
//! * [`wal`] — checksummed write-ahead log of raw input lines; torn or
//!   bit-flipped tails bound the damage to the unacknowledged suffix.
//! * [`Service`] — ties them together with atomic, checksummed snapshot
//!   segments (a full base, then deltas of only what changed, compacted
//!   into a new base once the deltas outweigh it; the newest two bases
//!   kept with their chains) and kill-anywhere recovery: newest intact
//!   base + its chain + WAL suffix + output-log reconciliation replays to
//!   a state *bit-identical* to the uninterrupted run, down to every
//!   floating-point aggregate in the predictor.
//!
//! Event-log syntax lives in [`qpredict_workload::event`]; durability
//! primitives (checksum framing, atomic writes) in [`qpredict_durable`].

pub mod config;
pub mod service;
pub mod state;
pub mod wal;

pub use config::{FsyncPolicy, ServeConfig};
pub use qpredict_predict::PredictorKind;
pub use service::{load_segments, RecoveryReport, ServeError, Service};
pub use state::{Counters, Response, ServiceState};
