//! Integration tests for the observability layer: spans and counters
//! flow from instrumented library code into the thread-local registry,
//! recording is inert when off and costs a warm prediction under 2%,
//! and a full run report round-trips through the JSON writer/parser and
//! schema validator.
//!
//! The recording flag is process-global while the registry is
//! thread-local, so every test here serializes on one mutex and leaves
//! the flag off when done.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use qpredict::core::{run_scheduling, searched, PredictorKind};
use qpredict::obs::{self, json::Json, report};
use qpredict::predict::{RunTimePredictor, SmithPredictor};
use qpredict::sim::Algorithm;
use qpredict::workload::synthetic::toy;
use qpredict::workload::Dur;

static FLAG: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FLAG.lock().unwrap_or_else(|e| e.into_inner())
}

/// A scheduling run populates the seams the tentpole names: sim spans,
/// predictor spans, and cache counters, all nested under the
/// run-scheduling root span.
#[test]
fn scheduling_run_populates_spans_and_counters() {
    let _guard = locked();
    obs::set_recording(true);
    obs::reset();
    let wl = toy(60, 16, 5);
    let out = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Smith);
    obs::set_recording(false);
    let snap = obs::snapshot();
    obs::reset();

    let root = snap.span("run.scheduling").expect("root span recorded");
    assert_eq!(root.count, 1);
    let sim = snap
        .span("run.scheduling/sim.run")
        .expect("nested sim span");
    assert_eq!(sim.count, 1);
    assert!(sim.total_ns <= root.total_ns, "child cannot exceed parent");
    let predict = snap
        .span("run.scheduling/sim.run/sim.schedule/smith.predict")
        .unwrap_or_else(|| {
            panic!(
                "predictor span nests under the schedule pass: {:?}",
                snap.spans.iter().map(|(l, _)| l).collect::<Vec<_>>()
            )
        });
    // Every scored estimate is one Smith prediction or one served
    // from the estimate cache above it.
    assert_eq!(
        predict.count + snap.counter("cache.hits"),
        out.runtime_errors.count(),
        "every scored estimate is a Smith prediction or a cache hit"
    );
    assert!(snap.counter("cache.hits") > 0, "repeats are served");
    assert_eq!(snap.counter("cache.misses"), predict.count);
    assert_eq!(
        snap.counter("sim.jobs_started"),
        wl.len() as u64,
        "every job starts exactly once"
    );
    assert_eq!(snap.counter("sim.jobs_completed"), wl.len() as u64);
}

/// With recording off (the default), instrumented runs leave the
/// registry completely empty.
#[test]
fn recording_off_is_inert() {
    let _guard = locked();
    obs::set_recording(false);
    obs::reset();
    let wl = toy(40, 16, 6);
    let _ = run_scheduling(&wl, Algorithm::Lwf, PredictorKind::Gibbons);
    let snap = obs::snapshot();
    assert!(snap.spans.is_empty(), "spans leaked: {:?}", snap.spans);
    assert!(
        snap.counters.is_empty(),
        "counters leaked: {:?}",
        snap.counters
    );
}

/// Median seconds per call of `f`, after warm-up, over nine batches of
/// about 20 ms each.
fn warm_median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let warm = Instant::now();
    for _ in 0..3 {
        black_box(f());
    }
    let per_call = (warm.elapsed().as_secs_f64() / 3.0).max(1e-9);
    let batch = ((0.02 / per_call) as usize).clamp(1, 1_000_000);
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The disarmed seam costs under 2% of a warm Smith prediction. The
/// seam is what `smith.predict` runs with recording off: one
/// `recording()` read gating its span and its four counters. The
/// prediction is the 64-job queue of a half-warmed trace, re-estimated
/// with no completion between passes, as a scheduling pass re-estimates
/// its queue. Both sides are medians of warm calls. Debug builds time
/// unoptimized code, where the seam weighs more, so the gate runs in
/// release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times optimized code: run with cargo test --release"
)]
fn recording_off_costs_under_two_percent_of_a_warm_predict() {
    let _guard = locked();
    obs::set_recording(false);
    let wl = toy(4_000, 64, 310);
    let mut smith = SmithPredictor::new(searched::set_for(&wl));
    for j in wl.jobs.iter().take(wl.len() / 2) {
        smith.on_complete(j);
    }
    let queue: Vec<_> = wl.jobs.iter().skip(wl.len() / 2).take(64).collect();
    let per_predict = warm_median_secs(|| {
        queue
            .iter()
            .map(|j| smith.predict(j, Dur::ZERO).estimate.seconds())
            .sum::<i64>()
    }) / queue.len() as f64;

    const INNER: u64 = 1_000;
    let per_seam = warm_median_secs(|| {
        let mut acc = 0u64;
        for i in 0..INNER {
            let recording = obs::recording();
            let _span = recording.then(|| obs::span("gate.off"));
            if recording {
                obs::counter_add("gate.a", 1);
                obs::counter_add("gate.b", 1);
                obs::counter_add("gate.c", 1);
                obs::counter_add("gate.d", 1);
            }
            acc = acc.wrapping_add(i);
        }
        acc
    }) / INNER as f64;

    let share = per_seam / per_predict;
    assert!(
        share < 0.02,
        "the disarmed seam costs {:.3}% of a warm predict ({:.2} ns of {:.1} ns)",
        100.0 * share,
        per_seam * 1e9,
        per_predict * 1e9
    );
}

/// The full report pipeline: record a run, build the report, serialize,
/// re-parse, and validate against the version-1 schema.
#[test]
fn run_report_round_trips_through_schema_validation() {
    let _guard = locked();
    obs::set_recording(true);
    obs::reset();
    let wl = toy(50, 16, 7);
    let out = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Smith);
    obs::set_recording(false);
    let snap = obs::snapshot();
    obs::reset();

    let args: Vec<String> = ["simulate", "toy", "--jobs", "50", "--nodes", "16"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rep = report::RunReport::new("simulate", &args);
    rep.metric("n_jobs", Json::Num(out.metrics.n_jobs as f64));
    rep.metric("mean_wait_min", Json::Num(out.metrics.mean_wait.minutes()));
    let json = rep.to_json(&snap);
    let text = json.to_pretty();
    let parsed = Json::parse(&text).expect("report text parses back");
    assert_eq!(parsed, json, "serialize/parse must be lossless");
    report::validate(&parsed, true).expect("schema-valid with activity");
    assert_eq!(
        parsed
            .get("config")
            .and_then(|c| c.get("fingerprint"))
            .and_then(Json::as_str)
            .map(str::len),
        Some(16)
    );
    let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
    assert!(
        spans
            .iter()
            .any(|s| s.get("label").and_then(Json::as_str) == Some("run.scheduling")),
        "root span present in serialized report"
    );
}
