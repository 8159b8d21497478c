//! The online service fed one event stream by a closed-loop feeder: each
//! line is fed only after the previous `feed_line` returned.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use qpredict_serve::{FsyncPolicy, Response, ServeConfig, Service};

use crate::inputs::Stream;
use crate::measure::Latencies;

/// Lines between snapshots. Every snapshot calls `sync_all`, and on a
/// shared disk the flush time varies far more than the host's compute
/// speed. A quarter of the default's snapshots keep durability most of a
/// replay while leaving fewer flushes to vary.
const SNAPSHOT_EVERY: u64 = 1024;

/// The service configuration for a stream: the site's machine size, no
/// WAL fsync, a snapshot every `SNAPSHOT_EVERY` lines, everything else at
/// its defaults.
pub fn config(stream: &Stream) -> ServeConfig {
    ServeConfig {
        machine_nodes: stream.machine_nodes,
        fsync: FsyncPolicy::Never,
        snapshot_every: SNAPSHOT_EVERY,
        ..ServeConfig::default()
    }
}

/// Open a service; with a state dir, the dir is recreated empty first.
pub fn open(stream: &Stream, dir: Option<&Path>) -> Service {
    if let Some(d) = dir {
        reset_dir(d);
    }
    Service::open(config(stream), dir, None, false).expect("open the service")
}

/// Remove `dir` and everything in it, if present.
pub fn reset_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the serve state dir");
    }
}

/// What one replay produced, checked between repetitions and paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplayOutput {
    /// `feed_line`/`finish` calls that returned `Err`.
    pub failed_calls: u64,
    /// Queries answered exactly once.
    pub answered: usize,
    /// Answers that were not a wait or running estimate or were repeated,
    /// plus queries left unanswered.
    pub bad_answers: usize,
    /// Jobs whose completion reached the predictor.
    pub completions: u64,
    /// Lines the service could not parse.
    pub malformed: u64,
    /// Bits of the answers' mean absolute error against the realized
    /// waits, in minutes.
    pub wait_mae_bits: u64,
    /// Fingerprint of the final service state.
    pub fingerprint: u64,
}

impl ReplayOutput {
    pub fn wait_mae_min(&self) -> f64 {
        f64::from_bits(self.wait_mae_bits)
    }

    /// Every query answered once, every job completed, nothing failed.
    pub fn complete(&self, stream: &Stream) -> bool {
        self.failed_calls == 0
            && self.bad_answers == 0
            && self.malformed == 0
            && self.answered == stream.queries
            && self.completions == stream.jobs as u64
    }
}

/// Per-call timings of a replay.
#[derive(Default)]
pub struct ReplayTrace {
    pub wall_s: f64,
    /// Time from feeding a query line to the call that returned its answer.
    pub query: Latencies,
    /// `feed_line` calls during which no snapshot was written.
    pub append: Latencies,
    /// `feed_line`/`finish` calls during which a snapshot was written.
    pub snapshot: Latencies,
    /// Bytes of every snapshot file written.
    pub snapshot_bytes: u64,
    /// Bytes of the WAL at the end.
    pub wal_bytes: u64,
}

/// Scores answers as they arrive.
struct Answers<'s> {
    stream: &'s Stream,
    asked: HashMap<u64, Instant>,
    abs_err_s: f64,
    answered: usize,
    bad: usize,
}

impl Answers<'_> {
    fn take(&mut self, responses: Vec<Response>, mut lat: Option<&mut Latencies>, at: Instant) {
        for r in responses {
            let field = |key: &str| {
                r.line
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix(key))
                    .and_then(|v| v.parse::<i64>().ok())
            };
            let Some(id) = field("id=").map(|v| v as u64) else {
                self.bad += 1;
                continue;
            };
            let Some(asked) = self.asked.remove(&id) else {
                self.bad += 1;
                continue;
            };
            // A query sits at its job's submit instant, so a job already
            // running has a predicted wait of zero.
            let predicted = if let Some(w) = field("wait=") {
                w
            } else if r.line.split_whitespace().any(|w| w == "running") {
                0
            } else {
                self.bad += 1;
                continue;
            };
            let realized = self.stream.realized_wait[&id];
            self.abs_err_s += (predicted - realized).abs() as f64;
            self.answered += 1;
            if let Some(l) = lat.as_mut() {
                l.push(at - asked);
            }
        }
    }
}

fn query_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("query ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Feed the whole stream through `svc` and finish it. With `trace`, time
/// every call and classify it by whether a snapshot was written.
pub fn replay(
    svc: &mut Service,
    stream: &Stream,
    mut trace: Option<&mut ReplayTrace>,
    dir: Option<&Path>,
) -> ReplayOutput {
    let mut answers = Answers {
        stream,
        asked: HashMap::with_capacity(stream.queries),
        abs_err_s: 0.0,
        answered: 0,
        bad: 0,
    };
    let t_start = Instant::now();
    let mut failed_calls = 0u64;
    for line in &stream.lines {
        if !call(svc, Some(line), &mut answers, trace.as_deref_mut(), dir) {
            failed_calls += 1;
        }
    }
    if !call(svc, None, &mut answers, trace.as_deref_mut(), dir) {
        failed_calls += 1;
    }
    if let Some(tr) = trace {
        tr.wall_s = t_start.elapsed().as_secs_f64();
        tr.wal_bytes = dir.map_or(0, |d| file_len(&d.join("events.wal")));
    }
    let counters = svc.state().counters();
    ReplayOutput {
        failed_calls,
        answered: answers.answered,
        bad_answers: answers.bad + answers.asked.len(),
        completions: counters.completions,
        malformed: counters.malformed,
        wait_mae_bits: (answers.abs_err_s / answers.answered.max(1) as f64 / 60.0).to_bits(),
        fingerprint: svc.state().fingerprint(),
    }
}

/// One call into the service: feed `line`, or finish the stream when it
/// is `None`. Scores the answers it returns; false when it returned `Err`.
fn call(
    svc: &mut Service,
    line: Option<&str>,
    answers: &mut Answers,
    trace: Option<&mut ReplayTrace>,
    dir: Option<&Path>,
) -> bool {
    let snaps = svc.snapshots_written();
    let t0 = Instant::now();
    if let Some(id) = line.and_then(query_id) {
        answers.asked.insert(id, t0);
    }
    let res = match line {
        Some(l) => svc.feed_line(l),
        None => svc.finish(),
    };
    let t1 = Instant::now();
    let query_lat = trace.map(|tr| {
        if svc.snapshots_written() > snaps {
            tr.snapshot.push(t1 - t0);
            tr.snapshot_bytes += newest_snapshot_bytes(dir);
        } else {
            tr.append.push(t1 - t0);
        }
        &mut tr.query
    });
    match res {
        Ok(responses) => {
            answers.take(responses, query_lat, t1);
            true
        }
        Err(_) => false,
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Size of the newest `snap-<seq>.snap` file in `dir`.
fn newest_snapshot_bytes(dir: Option<&Path>) -> u64 {
    let Some(dir) = dir else { return 0 };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .map_or(0, |p| file_len(&p))
}
