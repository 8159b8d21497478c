#![warn(missing_docs)]

//! Search for good template sets.
//!
//! The novelty the paper claims over Gibbons and Downey is that the
//! similarity templates are not fixed but *searched for* per workload.
//! This crate implements that search:
//!
//! * [`encoding`] — the paper's binary chromosome for template sets
//!   (estimator, absolute/relative, per-characteristic bits, node-range
//!   size as a power of two 1..512, history limit as a power of two
//!   2..65536);
//! * [`workloads`] — *prediction workloads*: the recorded streams of
//!   predict/insert events a given scheduler generates over a trace
//!   (Section 2.1, "Run-Time Prediction Experiments"), used as the
//!   fitness inputs;
//! * [`fitness`] — replaying a prediction workload through a bare
//!   [`qpredict_predict::SmithPredictor`] to score a template set by its
//!   mean absolute run-time prediction error;
//! * [`ga`] — the genetic algorithm (fitness scaling with
//!   `F_max = 4 F_min`, stochastic sampling with replacement,
//!   variable-length template/bit crossover, mutation at 0.01 per bit,
//!   two-individual elitism), evaluated a generation at a time on
//!   [`qpredict_obs::par_map`] workers;
//! * [`greedy`] — the greedy search baseline the paper's earlier work
//!   compared against (used here for the ablation bench);
//! * [`checkpoint`] — the versioned, checksummed on-disk snapshot format
//!   that makes a killed search resumable bit-identically. The generic
//!   codec (checksum framing, atomic replace, bit-exact floats) lives in
//!   the shared [`durable`] crate, re-exported here.

/// The shared checksummed-atomic-write codec (see [`qpredict_durable`]),
/// re-exported so search callers keep one import root.
pub use qpredict_durable as durable;

pub mod checkpoint;
pub mod encoding;
pub mod fitness;
pub mod ga;
pub mod greedy;
pub mod workloads;

pub use checkpoint::{Checkpoint, CheckpointError, ConfigFingerprint};
pub use encoding::{decode, encode, Chromosome, BITS_PER_TEMPLATE};
pub use fitness::replay;
pub use ga::{resume, search, CheckpointPolicy, GaConfig, GaResult, GaRunner};
pub use greedy::{greedy_search, GreedyConfig};
pub use workloads::{PredEvent, PredictionWorkload, Target};
