//! Guards against quadratics coming back.
//!
//! Wait-time prediction re-estimates every running job at every
//! forecast, conditioned on its elapsed time. A predictor that scans the
//! whole category for each such estimate reads points in proportion to
//! jobs × history, so quadrupling the trace multiplies the points read
//! by about 16. Reading suffix sums from the runtime index keeps it near
//! 4.
//!
//! The online service snapshots its state every `snapshot_every` lines.
//! Rewriting the whole state each time writes bytes in proportion to
//! lines × state, and the state grows with the stream; delta segments
//! over a compacted base write in proportion to the change.
//!
//! A scheduling pass re-estimates every queued and running job. The
//! Smith predictor finds a job's categories through a table resolved
//! once per distinct job signature; building one category key per
//! template on every estimate would make the key work grow with the
//! estimates instead. Between two completions most of those estimates
//! cannot change, so the predictor memoizes each signature's selection
//! and must serve most of a pass from that memo.
//!
//! Most estimates need no scan at all: the templates that ignore elapsed
//! time answer from running moments, so a recorded wait-prediction
//! stream must read at most half the points a scan of every category
//! would.
//!
//! A backfill pass needs an availability profile only once a job must
//! wait, and on a lightly loaded site most passes start jobs that fit in
//! the nodes free now. A pass that follows no completion reuses the
//! previous plan, and a reservation touches only the segments it covers.
//!
//! The guards count work (points traversed, snapshot bytes, keys built,
//! memo hits, profiles built, plans carried, segments visited) rather
//! than timing anything, so they are
//! deterministic. The recording flag is process-global, so the guards
//! that read it take turns.

use std::collections::HashSet;
use std::sync::Mutex;

use qpredict_core::{run_wait_prediction, searched, PredictorEstimator, PredictorKind};
use qpredict_predict::{RunTimePredictor, SmithPredictor};
use qpredict_search::{PredEvent, PredictionWorkload, Target};
use qpredict_serve::{FsyncPolicy, ServeConfig, Service};
use qpredict_sim::{Algorithm, MaxRuntimeEstimator, Simulation};
use qpredict_workload::synthesize_events;
use qpredict_workload::synthetic::{generate, sites, toy, SiteSpec};

static RECORDING: Mutex<()> = Mutex::new(());

/// The site model cut to `jobs` jobs, sized as the CLI's `--jobs N`
/// sizes it.
fn site(mut spec: SiteSpec, jobs: usize) -> qpredict_workload::Workload {
    spec.n_jobs = jobs;
    spec.n_users = spec.n_users.min((jobs / 20).max(4));
    generate(&spec)
}

/// History points the Smith predictor traversed, and the
/// elapsed-conditioned estimates it made, while predicting waits on the
/// SDSC96 site model cut to `jobs` jobs (sized as the CLI's `waitpred
/// sdsc96 --jobs N` sizes it), under backfill.
fn scanned_points(jobs: usize) -> (u64, u64) {
    let wl = site(sites::sdsc96_spec(), jobs);
    qpredict_obs::reset();
    let out = run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
    assert_eq!(out.wait_errors.count(), jobs as u64, "every job forecast");
    let obs = qpredict_obs::snapshot();
    (
        obs.counter("smith.scanned_points"),
        obs.counter("smith.scan_estimates"),
    )
}

/// Quadrupling the jobs must at most sextuple the points read, and no
/// elapsed-conditioned estimate may read more than one index stride (15
/// points): a history below the index threshold is scanned whole, an
/// indexed one reads the entries between the split and the stride
/// boundary below it. Measured at 500 -> 2,000 jobs: 212,709 -> 666,319
/// points (3.1x), 6.1 per estimate over 108,488 estimates; 64-entry
/// blocks indexed from 64 points read 581,922 -> 1,761,909 (3.0x), 16.2
/// per estimate.
#[test]
fn elapsed_conditioned_prediction_reads_near_linearly_many_points() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    let (small, _) = scanned_points(500);
    let (large, estimates) = scanned_points(2000);
    qpredict_obs::set_recording(false);
    assert!(small > 0, "the SDSC96 set conditions on elapsed time");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 6.0,
        "4x the jobs read {ratio:.1}x the points ({small} -> {large}): \
         elapsed-time conditioning has gone quadratic"
    );
    assert!(
        large <= 15 * estimates,
        "{estimates} elapsed-conditioned estimates read {large} points, \
         more than 15 each"
    );
}

/// Replay the predictions and completions of a backfill wait-prediction
/// run on the SDSC96 site model cut to 1,000 jobs through a bare Smith
/// predictor: the points it scanned must be at most half of what
/// scanning every matching category per estimate would read. SDSC96's
/// set conditions on elapsed time, so some estimates must scan; a set
/// without such templates scans nothing and would pass vacuously.
#[test]
fn moment_fast_paths_halve_the_points_scanned() {
    let wl = site(sites::sdsc96_spec(), 1_000);
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
    assert!(
        ops.scanned_points > 0,
        "the SDSC96 set conditions on elapsed time"
    );
    let naive = ops.scanned_points + ops.moment_points;
    let reduction = naive as f64 / ops.scanned_points as f64;
    assert!(
        reduction >= 2.0,
        "scanned {} of {naive} points, only {reduction:.2}x fewer than a naive scan",
        ops.scanned_points
    );
}

/// Bytes of snapshot segments a durable service writes over the event
/// stream of the toy workload with `jobs` jobs, at the default caps (so
/// the job table and histories grow with the stream), with a segment
/// every 64 lines.
fn snapshot_bytes(jobs: usize) -> u64 {
    let lines: Vec<String> = synthesize_events(&toy(jobs, 64, 5), 5)
        .iter()
        .map(|e| e.encode())
        .collect();
    let dir = std::env::temp_dir().join(format!(
        "qpredict-scaling-serve-{jobs}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        snapshot_every: 64,
        fsync: FsyncPolicy::Never,
        ..ServeConfig::default()
    };
    qpredict_obs::reset();
    let mut svc = Service::open(cfg, Some(&dir), None, false).expect("open");
    for l in &lines {
        svc.feed_line(l).expect("feed");
    }
    svc.finish().expect("finish");
    let _ = std::fs::remove_dir_all(&dir);
    qpredict_obs::snapshot().counter("serve.snapshot_bytes")
}

/// 4x the stream at the same `snapshot_every` must write at most 5x the
/// snapshot bytes. Measured: whole-state snapshots wrote 13.1x (7.25 MB
/// -> 95.2 MB, summing the size of every snapshot file written); delta
/// segments over a compacted base write 4.25x (0.65 MB -> 2.78 MB with
/// completion-log deltas; 1.42 MB -> 6.08 MB when each delta copied
/// every new point into each category it joined).
#[test]
fn serve_snapshot_bytes_grow_linearly_with_the_stream() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    let small = snapshot_bytes(1000);
    let large = snapshot_bytes(4000);
    qpredict_obs::set_recording(false);
    assert!(small > 0, "the service wrote no snapshots");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 5.0,
        "4x the stream wrote {ratio:.1}x the snapshot bytes ({small} -> {large}): \
         snapshots have gone quadratic"
    );
}

/// Category keys the Smith predictor built while driving backfill on the
/// CTC site model cut to `jobs` jobs, with the estimates it answered.
/// Every job is estimated while it waits, so every signature of the
/// trace is resolved. Keys must be exactly distinct signatures ×
/// distinct templates, and the table must stay within twice the
/// non-empty categories. Measured (signatures / non-empty categories,
/// then estimates per key built): 2k jobs 282 / 346 (0.82), 40; 8k jobs
/// 629 / 651 (0.97), 73; 32k jobs 901 / 706 (1.28), 206. Building keys
/// on every estimate would mean one key per estimate and template.
#[test]
fn category_keys_grow_with_signatures_not_estimates() {
    for jobs in [2_000, 8_000, 32_000] {
        let wl = site(sites::ctc_spec(), jobs);
        let set = searched::set_for(&wl);
        let all = set.templates();
        let templates = (0..all.len())
            .filter(|&i| !all[..i].contains(&all[i]))
            .count() as u64;
        let signatures: HashSet<_> = wl
            .jobs
            .iter()
            .map(|j| (j.chars, j.nodes, j.max_runtime.is_some()))
            .collect();
        let mut est = PredictorEstimator::new(SmithPredictor::new(set));
        let result = Simulation::run(&wl, Algorithm::Backfill, &mut est);
        assert_eq!(result.metrics.n_jobs, jobs);
        let p = est.predictor();
        let (resolved, keys) = p.resolution_counts();
        let estimates = est.errors().count();
        let categories = p.category_count();
        assert_eq!(resolved, signatures.len(), "{jobs} jobs: signatures");
        assert_eq!(
            keys,
            signatures.len() as u64 * templates,
            "{jobs} jobs: {keys} keys for {} signatures x {templates} templates \
             over {estimates} estimates",
            signatures.len()
        );
        assert!(
            resolved <= 2 * categories,
            "{jobs} jobs: {resolved} signatures for {categories} categories"
        );
    }
}

/// Predictions the Smith predictor answered from its per-signature memo
/// while driving backfill on the CTC site model cut to 2,000 jobs. The
/// estimate cache above it serves the repeats of a job at one
/// generation, so the memo sees only the cache's misses. A completion
/// stamps only the categories it lands in, and a pass holds about 52
/// running jobs, so nearly every estimate that reaches the predictor
/// reuses a selection made since the last completion. Measured: 94.1%
/// (52,128 of 55,411 predictions).
#[test]
fn memo_serves_most_scheduling_predictions() {
    let wl = site(sites::ctc_spec(), 2_000);
    let mut est = PredictorEstimator::new(SmithPredictor::new(searched::set_for(&wl)));
    let result = Simulation::run(&wl, Algorithm::Backfill, &mut est);
    assert_eq!(result.metrics.n_jobs, 2_000);
    let (hits, misses) = est.predictor().memo_counts();
    assert_eq!(
        hits + misses,
        est.cache_stats().misses,
        "one count per prediction that reached the predictor"
    );
    let served = hits as f64 / (hits + misses) as f64;
    assert!(
        served >= 0.90,
        "the memo served {:.1}% of {} predictions",
        100.0 * served,
        hits + misses
    );
}

/// Smith's memo counters count its work: a recorded backfill run on the
/// CTC site model emits one memo hit or miss per prediction that
/// reaches the predictor, equal to the predictor's own `memo_counts()`.
#[test]
fn smith_memo_counters_equal_memo_counts() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    let wl = site(sites::ctc_spec(), 1_000);
    let mut est = PredictorEstimator::new(SmithPredictor::new(searched::set_for(&wl)));
    qpredict_obs::set_recording(true);
    qpredict_obs::reset();
    Simulation::run(&wl, Algorithm::Backfill, &mut est);
    qpredict_obs::set_recording(false);
    let obs = qpredict_obs::snapshot();
    qpredict_obs::reset();
    let (hits, misses) = est.predictor().memo_counts();
    assert!(hits > misses, "{hits} hits, {misses} misses");
    assert_eq!(obs.counter("smith.memo_hits"), hits);
    assert_eq!(obs.counter("smith.memo_misses"), misses);
    assert_eq!(
        hits + misses,
        est.cache_stats().misses,
        "one per prediction"
    );
}

/// The estimate cache serves at least 40% of the estimates backfill
/// asks of Smith on the CTC site model: between two completions each
/// pass re-estimates the same running jobs, and CTC's `rtime` templates
/// match none of its jobs, so every repeat lies in its prediction's
/// window. Counts only. Measured: 51.3% at 2,000 jobs (58,473 of
/// 113,884 estimates) and 50.0% at 8,000 (229,197 of 457,990).
#[test]
fn estimate_cache_serves_repeated_scheduling_estimates() {
    for jobs in [2_000, 8_000] {
        let wl = site(sites::ctc_spec(), jobs);
        let mut est = PredictorEstimator::new(SmithPredictor::new(searched::set_for(&wl)));
        let result = Simulation::run(&wl, Algorithm::Backfill, &mut est);
        assert_eq!(result.metrics.n_jobs, jobs);
        let c = est.cache_stats();
        assert_eq!(
            c.total(),
            est.errors().count(),
            "{jobs} jobs: one lookup per estimate"
        );
        assert!(c.hit_rate() >= 0.40, "{jobs} jobs: the cache served {c}");
    }
}

/// Availability profiles built, and scheduling passes run, while Smith
/// drives backfill on the CTC site model cut to `jobs` jobs.
fn backfill_profiles(jobs: usize) -> (u64, u64) {
    let wl = site(sites::ctc_spec(), jobs);
    let mut est = PredictorEstimator::new(SmithPredictor::new(searched::set_for(&wl)));
    qpredict_obs::reset();
    let result = Simulation::run(&wl, Algorithm::Backfill, &mut est);
    assert_eq!(result.metrics.n_jobs, jobs);
    let obs = qpredict_obs::snapshot();
    let passes = obs.span("sim.run/sim.schedule").map_or(0, |s| s.count);
    (obs.counter("sim.backfill_profiles"), passes)
}

/// A backfill pass plans (builds a profile) only once a job must wait;
/// most CTC passes start a job that fits in the nodes free now. At most
/// a fifth of the passes may build a profile. Measured: 149 of 2,082
/// passes (7.2%) at 2,000 jobs, 1,062 of 8,520 (12.5%) at 8,000 and
/// 1,917 of 17,006 (11.3%) at 16,000; the eager pass built one on every
/// pass.
#[test]
fn backfill_builds_profiles_only_when_a_job_must_wait() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    let cells = [2_000, 8_000].map(|jobs| (jobs, backfill_profiles(jobs)));
    qpredict_obs::set_recording(false);
    for (jobs, (profiles, passes)) in cells {
        assert!(
            passes >= jobs as u64 / 2,
            "{jobs} jobs: only {passes} passes"
        );
        assert!(
            profiles * 5 <= passes,
            "{jobs} jobs: {profiles} of {passes} backfill passes built a profile"
        );
    }
}

/// Planning work while the users' limits drive conservative backfill on
/// the ANL site model cut to `jobs` jobs: plans carried forward, profiles
/// built from scratch, profile segments visited and reservations made.
fn planning_work(jobs: usize) -> (u64, u64, u64, u64) {
    let wl = site(sites::anl_spec(), jobs);
    let mut limits = MaxRuntimeEstimator::from_workload(&wl);
    qpredict_obs::reset();
    let result = Simulation::run(&wl, Algorithm::Backfill, &mut limits);
    assert_eq!(result.metrics.n_jobs, jobs);
    let obs = qpredict_obs::snapshot();
    (
        obs.counter("sim.plans_carried"),
        obs.counter("sim.backfill_profiles"),
        obs.counter("sim.profile_segments"),
        obs.counter("sim.reservations"),
    )
}

/// Under conservative backfill on the users' limits, about half the
/// planning passes follow no completion: the planner carries their plan
/// forward and places only the arrivals, instead of rebuilding the
/// profile and re-placing every reservation. At least 40% of the passes
/// that plan on a profile must carry (measured 49–50%, so a fifth of
/// margin). A reservation's fit scan and its in-window update visit at
/// most 16 segments (measured 12.4–12.5, about 30% margin); a `reserve`
/// that walks the whole profile reads 22.5. Measured (carried / profiles
/// built, segments / reservations): 2,000 jobs 1,282 / 1,341 (48.9%),
/// 124,262 / 9,912 (12.5); 8,000 jobs 5,637 / 5,668 (49.9%), 793,182 /
/// 63,894 (12.4). Planning from scratch on every pass carries 0%.
#[test]
fn backfill_carries_plans_and_reserves_within_the_window() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    let cells = [2_000, 8_000].map(|jobs| (jobs, planning_work(jobs)));
    qpredict_obs::set_recording(false);
    for (jobs, (carried, built, segments, reservations)) in cells {
        assert!(reservations > 0, "{jobs} jobs: no reservations counted");
        let share = carried as f64 / (carried + built) as f64;
        assert!(
            share >= 0.40,
            "{jobs} jobs: {carried} of {} planning passes carried their plan",
            carried + built
        );
        let per = segments as f64 / reservations as f64;
        assert!(
            per <= 16.0,
            "{jobs} jobs: {segments} segments visited for {reservations} reservations ({per:.1} each)"
        );
    }
}
