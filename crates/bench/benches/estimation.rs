//! Headline numbers for the unified estimation layer, written both to
//! stdout and to `BENCH_estimation.json` at the workspace root so the
//! perf trajectory can be tracked across PRs.
//!
//! Three measurements:
//!
//! * raw estimate throughput over a frozen queue — the LWF/backfill
//!   re-estimation pattern — with and without the generation-keyed
//!   [`CachingPredictor`];
//! * one end-to-end wait-time experiment cell (nested forecasts), whose
//!   `Metrics` now carry the cache hit/miss counters;
//! * the scan-vs-moments accounting of [`SmithPredictor`] over a
//!   realistic prediction stream: how many history points a naive
//!   scan-everything implementation would have traversed versus how many
//!   the incremental-moment fast paths actually scanned.

use qpredict_bench::{bench, smoke_mode, write_artifact};
use qpredict_core::{run_wait_prediction, searched, PredictorKind};
use qpredict_obs::json::Json;
use qpredict_predict::{CachingPredictor, RunTimePredictor, SmithPredictor};
use qpredict_search::{PredEvent, PredictionWorkload, Target};
use qpredict_sim::Algorithm;
use qpredict_workload::synthetic::toy;
use qpredict_workload::Dur;

/// A Smith predictor warmed on the first half of `wl`, as a scheduler
/// mid-trace would hold it.
fn warmed(wl: &qpredict_workload::Workload) -> SmithPredictor {
    let mut p = SmithPredictor::new(searched::set_for(wl));
    for j in wl.jobs.iter().take(wl.len() / 2) {
        p.on_complete(j);
    }
    p
}

/// Estimate throughput over an unchanged 64-job queue (the pattern every
/// scheduling attempt produces). Returns (uncached, cached) estimates
/// per second.
fn bench_queue_reestimation() -> (f64, f64) {
    let wl = toy(4_000, 64, 310);
    let probe: Vec<_> = wl.jobs.iter().skip(wl.len() / 2).take(64).collect();
    let mut plain = warmed(&wl);
    let s_plain = bench("estimation", "queue-x64/uncached", || {
        let mut acc = 0i64;
        for j in &probe {
            acc += plain.predict(j, Dur::ZERO).estimate.seconds();
        }
        acc
    });
    let mut cached = CachingPredictor::new(warmed(&wl));
    let s_cached = bench("estimation", "queue-x64/cached", || {
        let mut acc = 0i64;
        for j in &probe {
            acc += cached.predict(j, Dur::ZERO).estimate.seconds();
        }
        acc
    });
    (probe.len() as f64 / s_plain, probe.len() as f64 / s_cached)
}

/// One wait-time experiment cell end-to-end. Returns (seconds, cache hit
/// rate) — the hit rate comes from the counters the refactor put on
/// `Metrics`.
fn bench_waittime_cell() -> (f64, f64) {
    let wl = toy(400, 32, 311);
    let secs = bench("estimation", "waittime/backfill-smith", || {
        run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith)
    });
    let out = run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
    let cache = out.metrics.estimate_cache.expect("wait study runs cached");
    (secs, cache.hit_rate())
}

/// Replay a recorded wait-prediction stream through a bare Smith
/// predictor and read its scan accounting: `scanned` is what the
/// predictor actually traversed, `naive` is what a scan-per-estimate
/// implementation would have.
fn scan_reduction() -> (u64, u64) {
    let wl = toy(1_000, 64, 312);
    let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Backfill), 2);
    let mut p = SmithPredictor::new(searched::set_for(&wl));
    for ev in &pw.events {
        match *ev {
            PredEvent::Predict { job, elapsed } => {
                p.predict(wl.job(job), elapsed);
            }
            PredEvent::Insert { job } => p.on_complete(wl.job(job)),
        }
    }
    let ops = p.estimate_ops();
    let naive = ops.scanned_points + ops.moment_points;
    (ops.scanned_points, naive)
}

/// Per-call cost of the observability layer's disarmed path (recording
/// off), as the hottest instrumented seam (`smith.predict`) runs it: one
/// `recording()` read that gates both the span and the four counter
/// increments. Returns seconds per instrumented call, amortized over an
/// inner loop so the timer resolution doesn't dominate.
fn bench_obs_off_path() -> f64 {
    assert!(
        !qpredict_obs::recording(),
        "overhead bench measures the recording-OFF path"
    );
    const INNER: u64 = 1_000;
    let secs = bench("estimation", "obs-off/span+gated-x1000", || {
        let mut acc = 0u64;
        for i in 0..INNER {
            let recording = qpredict_obs::recording();
            let _span = recording.then(|| qpredict_obs::span("bench.off"));
            if recording {
                qpredict_obs::counter_add("bench.a", 1);
                qpredict_obs::counter_add("bench.b", 1);
                qpredict_obs::counter_add("bench.c", 1);
                qpredict_obs::counter_add("bench.d", 1);
            }
            acc = acc.wrapping_add(i);
        }
        acc
    });
    secs / INNER as f64
}

fn main() {
    let (uncached_eps, cached_eps) = bench_queue_reestimation();
    let (waittime_secs, hit_rate) = bench_waittime_cell();
    let (scanned, naive) = scan_reduction();
    let reduction = naive as f64 / (scanned.max(1)) as f64;
    // Fraction of one uncached prediction's time that the disarmed
    // instrumentation on its path costs.
    let obs_off_per_call = bench_obs_off_path();
    let obs_off_fraction = obs_off_per_call * uncached_eps;

    let path = write_artifact(
        "BENCH_estimation.json",
        vec![
            ("bench", Json::Str("estimation".into())),
            ("smoke", Json::Bool(smoke_mode())),
            ("uncached_estimates_per_sec", Json::Num(uncached_eps)),
            ("cached_estimates_per_sec", Json::Num(cached_eps)),
            ("cache_speedup", Json::Num(cached_eps / uncached_eps)),
            ("waittime_end_to_end_sec", Json::Num(waittime_secs)),
            ("waittime_cache_hit_rate", Json::Num(hit_rate)),
            ("history_points_scanned", Json::Num(scanned as f64)),
            ("history_points_naive_scan", Json::Num(naive as f64)),
            ("scan_reduction_factor", Json::Num(reduction)),
            ("obs_off_ns_per_call", Json::Num(obs_off_per_call * 1e9)),
            ("obs_off_overhead_fraction", Json::Num(obs_off_fraction)),
        ],
    );
    println!("estimation/scan-reduction          {reduction:.1}x fewer points scanned");
    println!(
        "estimation/obs-off-overhead        {:.2} ns/call ({:.3}% of an uncached predict)",
        obs_off_per_call * 1e9,
        100.0 * obs_off_fraction
    );
    println!("wrote {}", path.display());
    assert!(
        reduction >= 2.0,
        "moment fast paths must eliminate >=2x of naive history scanning, got {reduction:.2}x"
    );
    assert!(
        obs_off_fraction < 0.02,
        "disarmed observability must stay under 2% of an uncached predict, \
         got {:.3}%",
        100.0 * obs_off_fraction
    );
}
