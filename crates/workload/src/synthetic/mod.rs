//! Synthetic workload generation.
//!
//! The four traces the paper evaluates on (ANL SP2, CTC SP2, SDSC Paragon
//! 1995 and 1996) were obtained privately from the supercomputer centers.
//! This module builds statistically calibrated stand-ins:
//!
//! * Table 1 figures are matched exactly or near-exactly: machine size,
//!   number of requests, mean run time (runtimes are rescaled to the
//!   target mean), and offered load (arrival span is solved from total
//!   work).
//! * Table 2 availability is matched: each site records exactly the
//!   characteristics the paper lists for it (e.g. ANL has executables and
//!   arguments but no queues; SDSC has ~30 queues and users only).
//! * Crucially for this paper, the generator reproduces the *structure
//!   that makes history-based prediction work*: each (user, application)
//!   pair draws run times from its own narrow log-normal cluster, users
//!   submit temporally local streaks of the same application, queue
//!   assignment correlates with intended run time, and user-supplied
//!   maximum run times overestimate true run times by heavy-tailed,
//!   user-specific factors rounded to familiar wall-clock limits.
//!
//! Generation is fully deterministic given the [`SiteSpec`] seed.

pub mod arrivals;
pub mod dist;
pub mod model;
pub mod sites;

pub use model::{generate, SiteSpec};
pub use sites::{anl, by_name, ctc, sdsc95, sdsc96, toy, ALL_SITES};
