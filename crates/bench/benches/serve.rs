//! Throughput of the online predictor service, written both to stdout and
//! to `BENCH_serve.json` at the workspace root so the perf trajectory can
//! be tracked across PRs.
//!
//! Four configurations feed the same synthesized event stream end to end:
//!
//! * ephemeral — no WAL, no snapshots (the deterministic core alone);
//! * WAL with `fsync never` — durability writes without sync cost;
//! * WAL with `fsync batch` — the default batched-sync policy;
//! * WAL with `fsync always` — a sync per event, the worst case.
//!
//! Every run must end on the same state fingerprint — the bench doubles
//! as a cheap cross-policy determinism check.

use std::path::PathBuf;

use qpredict_bench::{bench, smoke_mode, write_artifact};
use qpredict_obs::json::Json;
use qpredict_serve::{FsyncPolicy, ServeConfig, Service};
use qpredict_workload::synthesize_events;
use qpredict_workload::synthetic::toy;

fn event_stream(jobs: usize) -> Vec<String> {
    let wl = toy(jobs, 64, 313);
    synthesize_events(&wl, 8)
        .iter()
        .map(|e| e.encode())
        .collect()
}

fn cfg(fsync: FsyncPolicy) -> ServeConfig {
    ServeConfig {
        snapshot_every: 64,
        fsync,
        ..ServeConfig::default()
    }
}

/// A scratch state directory, recreated empty for every run (a fresh
/// durable open refuses a directory that already holds a WAL).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("qpredict-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench state dir");
    dir
}

/// Feed the whole stream through one service; returns the final state
/// fingerprint so callers can check cross-policy determinism.
fn run_stream(lines: &[String], durable: Option<(&PathBuf, FsyncPolicy)>) -> u64 {
    let (config, dir) = match durable {
        Some((dir, fsync)) => (cfg(fsync), Some(dir.as_path())),
        None => (cfg(FsyncPolicy::Never), None),
    };
    let mut svc = Service::open(config, dir, None, false).expect("open service");
    for l in lines {
        svc.feed_line(l).expect("feed");
    }
    svc.finish().expect("finish");
    svc.state().fingerprint()
}

/// Events per second for one durability policy. Cleans the state dir
/// between iterations inside the timed closure: recreating an empty
/// directory is part of what a fresh service run costs.
fn bench_policy(lines: &[String], label: &str, policy: Option<FsyncPolicy>) -> (f64, u64) {
    let mut fp = 0u64;
    let secs = match policy {
        None => bench("serve", label, || {
            fp = run_stream(lines, None);
            fp
        }),
        Some(p) => {
            let tag = label.replace('/', "-");
            bench("serve", label, || {
                let dir = fresh_dir(&tag);
                fp = run_stream(lines, Some((&dir, p)));
                fp
            })
        }
    };
    (lines.len() as f64 / secs, fp)
}

fn main() {
    let jobs = if smoke_mode() { 40 } else { 250 };
    let lines = event_stream(jobs);

    let (eps_ephemeral, fp0) = bench_policy(&lines, "ephemeral", None);
    let (eps_never, fp1) = bench_policy(&lines, "wal/fsync-never", Some(FsyncPolicy::Never));
    let (eps_batch, fp2) = bench_policy(&lines, "wal/fsync-batch64", Some(FsyncPolicy::Batch(64)));
    let (eps_always, fp3) = bench_policy(&lines, "wal/fsync-always", Some(FsyncPolicy::Always));

    assert!(
        fp0 == fp1 && fp1 == fp2 && fp2 == fp3,
        "state fingerprints diverged across durability policies: \
         {fp0:016X} {fp1:016X} {fp2:016X} {fp3:016X}"
    );

    let path = write_artifact(
        "BENCH_serve.json",
        vec![
            ("bench", Json::Str("serve".into())),
            ("smoke", Json::Bool(smoke_mode())),
            ("stream_events", Json::Num(lines.len() as f64)),
            ("events_per_sec_ephemeral", Json::Num(eps_ephemeral)),
            ("events_per_sec_wal_fsync_never", Json::Num(eps_never)),
            ("events_per_sec_wal_fsync_batch64", Json::Num(eps_batch)),
            ("events_per_sec_wal_fsync_always", Json::Num(eps_always)),
            (
                "fsync_batching_speedup",
                Json::Num(eps_batch / eps_always.max(1e-12)),
            ),
            (
                "wal_overhead_fraction",
                Json::Num(1.0 - eps_never / eps_ephemeral.max(1e-12)),
            ),
        ],
    );
    println!(
        "serve/fsync-batching-speedup       {:.1}x over fsync-always",
        eps_batch / eps_always.max(1e-12)
    );
    println!("wrote {}", path.display());
}
