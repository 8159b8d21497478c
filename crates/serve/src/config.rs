//! Service configuration: which predictor to run, how much memory it may
//! keep, and how aggressively to make state durable.

use qpredict_predict::{PredictorKind, Template, TemplateSet};
use qpredict_workload::Characteristic;

/// When the write-ahead log is flushed to stable storage.
///
/// Independently of the policy, WAL records are written in groups: a
/// record reaches the file before any response or segment that depends
/// on it, so a killed process loses only input whose effects nobody has
/// seen, and re-feeding the input recovers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write and `fsync` every appended record: no fed event is ever
    /// lost, at the cost of one disk round-trip per event.
    Always,
    /// Write and `fsync` every N records (and at snapshots / shutdown).
    /// A crash can lose up to N−1 tail events; re-feeding the input
    /// recovers them.
    Batch(u32),
    /// Never `fsync` explicitly; durability is whatever the OS provides.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `always`, `never`, `batch` or `batch=N`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "batch" => Ok(FsyncPolicy::Batch(64)),
            other => match other.strip_prefix("batch=") {
                Some(n) => {
                    let n: u32 = n.parse().map_err(|e| format!("bad batch size: {e}"))?;
                    if n == 0 {
                        return Err("batch size must be at least 1".into());
                    }
                    Ok(FsyncPolicy::Batch(n))
                }
                None => Err(format!(
                    "unknown fsync policy {other:?} (want always|batch[=N]|never)"
                )),
            },
        }
    }
}

/// Full service configuration.
///
/// The fields above the durability knobs shape how state *evolves* and are
/// folded into [`ServeConfig::fingerprint`]; a snapshot or WAL recorded
/// under one fingerprint refuses to load under another. `snapshot_every`
/// and `fsync` only control how often state reaches disk and may be
/// changed freely between runs of the same service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hosted predictor: `Smith` (over [`ServeConfig::template_set`]),
    /// `Gibbons`, `DowneyAverage` or `DowneyMedian` (Downey's model over
    /// `User`). [`crate::Service::open`] refuses any other kind.
    pub predictor: PredictorKind,
    /// Machine size assumed when answering wait-time queries.
    pub machine_nodes: u32,
    /// Reorder-buffer capacity, in events. Events are held until
    /// `horizon` newer events have arrived, then applied in canonical
    /// [`qpredict_workload::JobEvent::sort_key`] order; any permutation
    /// that displaces events by less than the horizon converges to the
    /// same state.
    pub horizon: usize,
    /// Per-category history cap for the Smith predictor: each template
    /// keeps at most this many completed jobs, evicting oldest-first.
    /// Bounds resident memory under unbounded streams.
    pub max_history: u32,
    /// Cap on jobs simultaneously queued or running. Beyond it the
    /// *oldest* live job is shed (dropped, counted) — bounded-queue
    /// admission control for overload.
    pub max_jobs: usize,
    /// Cap on retained finished-job records (kept only to recognise
    /// duplicate lifecycle events). Evicted oldest retirement first
    /// beyond the cap.
    pub max_done: usize,
    /// Write a snapshot segment (a base or a delta) every this many
    /// input lines; recovery from an intact chain replays at most this
    /// many WAL records.
    pub snapshot_every: u64,
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            predictor: PredictorKind::Smith,
            machine_nodes: 64,
            horizon: 64,
            max_history: 512,
            max_jobs: 4096,
            max_done: 16_384,
            snapshot_every: 256,
            fsync: FsyncPolicy::Batch(64),
        }
    }
}

impl ServeConfig {
    /// The Smith template set the service uses: broad characteristic
    /// combinations that degrade gracefully when a stream omits fields
    /// (a template only applies to jobs that record all its
    /// characteristics), every one bounded by [`ServeConfig::max_history`].
    pub fn template_set(&self) -> TemplateSet {
        let h = self.max_history.max(1);
        TemplateSet::new(vec![
            Template::mean_over(&[]).with_max_history(h),
            Template::mean_over(&[Characteristic::User]).with_max_history(h),
            Template::mean_over(&[Characteristic::Queue]).with_max_history(h),
            Template::mean_over(&[Characteristic::Executable]).with_max_history(h),
            Template::mean_over(&[Characteristic::User, Characteristic::Queue]).with_max_history(h),
            Template::mean_over(&[Characteristic::User, Characteristic::Executable])
                .with_node_range(2)
                .with_max_history(h),
        ])
    }

    /// Canonical one-line rendering of the state-shaping fields.
    pub fn canon(&self) -> String {
        format!(
            "serve-config v1 predictor={} nodes={} horizon={} max_history={} \
             max_jobs={} max_done={}",
            self.predictor.name(),
            self.machine_nodes,
            self.horizon,
            self.max_history,
            self.max_jobs,
            self.max_done,
        )
    }

    /// [`qpredict_durable::checksum`] of [`ServeConfig::canon`], stamped
    /// into WAL headers and snapshots so state is never resumed under a
    /// different configuration.
    pub fn fingerprint(&self) -> u64 {
        qpredict_durable::checksum(self.canon().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("batch"), Ok(FsyncPolicy::Batch(64)));
        assert_eq!(FsyncPolicy::parse("batch=7"), Ok(FsyncPolicy::Batch(7)));
        assert!(FsyncPolicy::parse("batch=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn fingerprint_tracks_state_shaping_fields_only() {
        let a = ServeConfig::default();
        let mut b = a.clone();
        b.snapshot_every = 1;
        b.fsync = FsyncPolicy::Never;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.max_history = 8;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.predictor = PredictorKind::Gibbons;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
