#![warn(missing_docs)]

//! Job, workload, and trace models for space-shared parallel machines.
//!
//! This crate is the data substrate of the `qpredict` workspace, a
//! reproduction of Smith, Taylor & Foster, *"Using Run-Time Predictions to
//! Estimate Queue Wait Times and Improve Scheduler Performance"* (IPPS 1999).
//!
//! It provides:
//!
//! * [`Time`]/[`Dur`] — integer-second time arithmetic shared by the whole
//!   workspace,
//! * [`Job`] and [`Characteristic`] — the job model of the paper's Table 2
//!   (type, queue, class, user, script, executable, arguments, network
//!   adaptor, node count, maximum run time),
//! * [`Workload`] — an ordered job trace bound to a machine size, with
//!   derived statistics ([`WorkloadStats`]),
//! * [`swf`] — a reader/writer for the Standard Workload Format so real
//!   traces can be used when available,
//! * [`synthetic`] — calibrated synthetic generators standing in for the
//!   four proprietary traces of the paper (ANL, CTC, SDSC95, SDSC96), and
//! * [`compress_interarrivals`] — the interarrival-compression transform
//!   used by the paper's "compressed SDSC" experiment.

pub mod analysis;
pub mod compress;
pub mod event;
pub mod job;
pub mod rng;
pub mod stats;
pub mod swf;
pub mod symbols;
pub mod synthetic;
pub mod time;
pub mod workload;

pub use compress::compress_interarrivals;
pub use event::{submit_event, synthesize_events, EventKind, JobEvent, SubmitSpec};
pub use job::{Characteristic, Job, JobBuilder, JobId, CHARACTERISTICS};
pub use rng::Rng64;
pub use stats::WorkloadStats;
pub use swf::{IngestPolicy, IngestReport, SkipCategory, SwfError};
pub use symbols::{Sym, SymbolTable};
pub use time::{Dur, Time};
pub use workload::Workload;
