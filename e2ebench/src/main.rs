//! End-to-end benchmark of qpredict.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, runs it repeatedly for the
//! given seconds, checks every run's outputs, and prints one JSON line
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` for the workloads and metrics.

mod cells;
mod inputs;
mod measure;
mod reference;
mod serve;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use qpredict_workload::synthetic::sites::{anl_spec, ctc_spec, sdsc96_spec};
use qpredict_workload::Workload;

use cells::{Cell, CellOutput};
use inputs::Stream;
use measure::{median, peak_rss_mb, secs_since, Metric, RunResult};
use reference::HostClock;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    WaitPredSdsc96,
    SimulateCtc,
    ServeAnl,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<WorkloadName> {
        match s {
            "waitpred-sdsc96" => Some(WorkloadName::WaitPredSdsc96),
            "simulate-ctc" => Some(WorkloadName::SimulateCtc),
            "serve-anl" => Some(WorkloadName::ServeAnl),
            _ => None,
        }
    }

    /// Jobs in one full-size replica.
    fn jobs(self) -> usize {
        match self {
            WorkloadName::WaitPredSdsc96 => 4_000,
            WorkloadName::SimulateCtc => 16_000,
            WorkloadName::ServeAnl => 8_000,
        }
    }

    /// Seeded replicas of the site trace per run. A cell's answer on one
    /// replica varies by about a tenth from seed to seed; pooling
    /// replicas narrows that. Sized so one round over the replicas takes
    /// about 4 s, and a run makes several rounds.
    fn replicas(self) -> usize {
        match self {
            WorkloadName::WaitPredSdsc96 => 4,
            WorkloadName::SimulateCtc => 8,
            WorkloadName::ServeAnl => 6,
        }
    }

    /// Replica `replica` of the workload's site trace at `jobs` jobs.
    fn site(self, jobs: usize, seed: u64, replica: usize) -> Workload {
        let spec = match self {
            WorkloadName::WaitPredSdsc96 => sdsc96_spec(),
            WorkloadName::SimulateCtc => ctc_spec(),
            WorkloadName::ServeAnl => anl_spec(),
        };
        inputs::site_workload(spec, jobs, seed, replica as u64)
    }
}

/// One serve query per this many jobs: 1,600 queries per full-size
/// stream, so the traced run's p99 has at least ten samples beyond it.
const QUERY_EVERY: usize = 5;

/// Set-ups per run: at least `MIN_SETUPS`, and more while `SETUP_SECONDS`
/// have not passed; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// Whole rounds a run makes at least, so every replica's median run is
/// taken from several and its outputs are compared across repeats.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadName::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.trace) {
        (WorkloadName::ServeAnl, false) => serve_e2e(&args),
        (WorkloadName::ServeAnl, true) => serve_traced(&args),
        (w, false) => cell_e2e(&args, cell_of(w)),
        (w, true) => cell_traced(&args, cell_of(w)),
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

fn cell_of(w: WorkloadName) -> Cell {
    if w == WorkloadName::SimulateCtc {
        Cell::Simulate
    } else {
        Cell::WaitPred
    }
}

/// Median over repeated builds of every replica's inputs. Replicas are
/// built one at a time and each is dropped before the next, as the
/// rounds do.
fn setup_s<T>(replicas: usize, build: impl Fn(usize) -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_SETUPS || secs_since(start) < SETUP_SECONDS {
        let t0 = Instant::now();
        for r in 0..replicas {
            drop(black_box(build(r)));
        }
        times.push(secs_since(t0));
    }
    median(&times)
}

/// Timed runs of every replica, cycled one run at a time: round `k`
/// runs replica 0, 1, … once each.
struct Rounds<T> {
    /// `walls[replica][round]`: seconds of each timed run.
    walls: Vec<Vec<f64>>,
    /// `outputs[replica][round]`.
    outputs: Vec<Vec<T>>,
    /// The reference kernel, timed before every run after the first round.
    clock: HostClock,
    /// Peak resident set after the first round, before the kernel ran.
    peak_rss_mb: f64,
}

impl<T> Rounds<T> {
    /// Run whole rounds until `seconds` have passed and at least
    /// `MIN_ROUNDS` are done. `run(replica)` returns the seconds it timed
    /// and its output.
    fn cycle(replicas: usize, seconds: f64, mut run: impl FnMut(usize) -> (f64, T)) -> Rounds<T> {
        let t0 = Instant::now();
        let mut walls = vec![Vec::new(); replicas];
        let mut outputs: Vec<Vec<T>> = (0..replicas).map(|_| Vec::new()).collect();
        let mut clock = HostClock::default();
        let mut peak = 0.0;
        while walls[0].len() < MIN_ROUNDS || secs_since(t0) < seconds {
            let first = walls[0].is_empty();
            for r in 0..replicas {
                if !first {
                    clock.sample();
                }
                let (wall, out) = run(r);
                walls[r].push(wall);
                outputs[r].push(out);
            }
            if first {
                peak = peak_rss_mb();
            }
        }
        let rounds = Rounds {
            walls,
            outputs,
            clock,
            peak_rss_mb: peak,
        };
        eprintln!(
            "e2ebench: {} rounds of {replicas} replicas, round {:.4} s wall, host slowdown {:.4}, round {:.4} s at reference speed",
            rounds.rounds(),
            rounds.round_wall_s(),
            rounds.clock.slowdown(),
            rounds.round_s(),
        );
        rounds
    }

    /// Sum over the replicas of each one's median run.
    fn round_wall_s(&self) -> f64 {
        self.walls.iter().map(|w| median(w)).sum()
    }

    /// `round_wall_s` at the reference host speed.
    fn round_s(&self) -> f64 {
        self.round_wall_s() / self.clock.slowdown()
    }

    fn rounds(&self) -> usize {
        self.walls[0].len()
    }
}

/// Run `f`, turning a panic into `None` (counted as a failed operation).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Least-squares slope of ln(wall) against ln(jobs).
fn log_log_slope(points: &[(usize, f64)]) -> f64 {
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    let k = xy.len() as f64;
    let mx = xy.iter().map(|p| p.0).sum::<f64>() / k;
    let my = xy.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = xy.iter().map(|p| (p.0 - mx).powi(2)).sum();
    sxy / sxx
}

/// Checked cell runs of every replica through the stable entry point;
/// each replica's workload is built, untimed, before its run. An output
/// is `None` when the run panicked.
fn cell_rounds(
    cell: Cell,
    replicas: usize,
    seconds: f64,
    build: impl Fn(usize) -> Workload,
) -> Rounds<Option<CellOutput>> {
    Rounds::cycle(replicas, seconds, |r| {
        let wl = build(r);
        let t0 = Instant::now();
        let out = guarded(|| cells::run(cell, &wl));
        (secs_since(t0), out)
    })
}

/// Cell runs that panicked, failed a check, or differ from the same
/// replica's first run.
fn cell_failed(rounds: &Rounds<Option<CellOutput>>, cell: Cell, jobs: usize) -> u64 {
    rounds
        .outputs
        .iter()
        .flat_map(|runs| runs.iter().map(move |o| (o, &runs[0])))
        .filter(|(o, f)| o.is_none() || o != f || !o.is_some_and(|o| o.complete(cell, jobs)))
        .count() as u64
}

fn cell_e2e(args: &Args, cell: Cell) -> RunResult {
    let jobs = args.workload.jobs();
    let replicas = args.workload.replicas();
    let build = |r| args.workload.site(jobs, args.seed, r);
    let setup_s = setup_s(replicas, build);
    let rounds = cell_rounds(cell, replicas, args.seconds, build);
    let failed = cell_failed(&rounds, cell, jobs);
    let answers: Vec<f64> = rounds
        .outputs
        .iter()
        .filter_map(|runs| runs[0])
        .map(|o| match cell {
            Cell::WaitPred => o.wait_mae_min(),
            Cell::Simulate => o.mean_wait_min(),
        })
        .collect();
    let cell_runs = rounds.rounds() * replicas;
    RunResult {
        correct: failed == 0,
        attempted: cell_runs as u64,
        failed,
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m(
                "jobs_per_s",
                (replicas * jobs) as f64 / rounds.round_s(),
                "1/s",
            ),
            // Replicas hold equal job counts, so the pooled answer is
            // the mean of theirs.
            m(
                "result_min",
                answers.iter().sum::<f64>() / answers.len().max(1) as f64,
                "min",
            ),
            m("peak_rss_mb", rounds.peak_rss_mb, "MB"),
        ],
    }
}

/// Wall time of the workload at `jobs` jobs through its stable entry
/// point (median of `reps`), for the scaling exponent.
fn scaled_wall(args: &Args, jobs: usize, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| match args.workload {
            WorkloadName::ServeAnl => {
                let stream =
                    inputs::serve_stream(&args.workload.site(jobs, args.seed, 0), QUERY_EVERY);
                let dir = state_dir();
                let mut svc = serve::open(&stream, Some(&dir));
                let t0 = Instant::now();
                serve::replay(&mut svc, &stream, None, Some(&dir));
                let wall = secs_since(t0);
                serve::reset_dir(&dir);
                wall
            }
            w => {
                let wl = w.site(jobs, args.seed, 0);
                let t0 = Instant::now();
                cells::run(cell_of(w), &wl);
                secs_since(t0)
            }
        })
        .collect();
    median(&times)
}

/// `scaling.jobs_exponent`: wall time at 1/4, 1/2 and full size.
fn scaling_exponent(args: &Args, full_wall: f64) -> f64 {
    let jobs = args.workload.jobs();
    log_log_slope(&[
        (jobs / 4, scaled_wall(args, jobs / 4, 3)),
        (jobs / 2, scaled_wall(args, jobs / 2, 1)),
        (jobs, full_wall),
    ])
}

/// Every per-layer metric, zero where the workload's path does not
/// cross the layer.
#[derive(Default)]
struct Layers {
    sim_self_s: f64,
    predict_calls: f64,
    predict_busy_s: f64,
    predict_p50_us: f64,
    predict_p99_us: f64,
    learn_calls: f64,
    learn_busy_s: f64,
    cache_hit_ratio: f64,
    cache_lookups: f64,
    scanned_points: f64,
    forecast_calls: f64,
    forecast_busy_s: f64,
    forecast_self_s: f64,
    forecast_p50_us: f64,
    forecast_p99_us: f64,
    serve_state_s: f64,
    append_calls: f64,
    append_busy_s: f64,
    append_p99_us: f64,
    snapshot_calls: f64,
    snapshot_busy_s: f64,
    snapshot_p50_us: f64,
    query_count: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    oversubscribed: f64,
    durable_self_s: f64,
    wal_bytes_per_event: f64,
    snapshot_bytes_per_event: f64,
    overhead_ratio: f64,
    coverage_ratio: f64,
    jobs_exponent: f64,
    host_slowdown: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            m("sim.self_s", self.sim_self_s, "s"),
            m("predict.calls", self.predict_calls, "count"),
            m("predict.busy_s", self.predict_busy_s, "s"),
            m("predict.p50_us", self.predict_p50_us, "us"),
            m("predict.p99_us", self.predict_p99_us, "us"),
            m("predict.learn_calls", self.learn_calls, "count"),
            m("predict.learn_busy_s", self.learn_busy_s, "s"),
            m("predict.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            m("predict.cache_lookups", self.cache_lookups, "count"),
            m("predict.scanned_points", self.scanned_points, "count"),
            m("core.forecast_calls", self.forecast_calls, "count"),
            m("core.forecast_busy_s", self.forecast_busy_s, "s"),
            m("core.forecast_self_s", self.forecast_self_s, "s"),
            m("core.forecast_p50_us", self.forecast_p50_us, "us"),
            m("core.forecast_p99_us", self.forecast_p99_us, "us"),
            m("serve.state_s", self.serve_state_s, "s"),
            m("serve.append_calls", self.append_calls, "count"),
            m("serve.append_busy_s", self.append_busy_s, "s"),
            m("serve.append_p99_us", self.append_p99_us, "us"),
            m("serve.snapshot_calls", self.snapshot_calls, "count"),
            m("serve.snapshot_busy_s", self.snapshot_busy_s, "s"),
            m("serve.snapshot_p50_us", self.snapshot_p50_us, "us"),
            m("serve.query_count", self.query_count, "count"),
            m("serve.query_p50_us", self.query_p50_us, "us"),
            m("serve.query_p99_us", self.query_p99_us, "us"),
            m("serve.oversubscribed", self.oversubscribed, "count"),
            m("durable.self_s", self.durable_self_s, "s"),
            m("durable.wal_bytes_per_event", self.wal_bytes_per_event, "B"),
            m(
                "durable.snapshot_bytes_per_event",
                self.snapshot_bytes_per_event,
                "B",
            ),
            m("trace.overhead_ratio", self.overhead_ratio, "ratio"),
            m("trace.coverage_ratio", self.coverage_ratio, "ratio"),
            m("scaling.jobs_exponent", self.jobs_exponent, "ratio"),
            m("host.slowdown", self.host_slowdown, "ratio"),
        ]
    }
}

/// A percentile of `lat`, or 0 when fewer than ten samples lie beyond it.
fn percentile(lat: &mut measure::Latencies, q: f64) -> f64 {
    if lat.beyond(q) >= 10 {
        lat.quantile_us(q)
    } else {
        0.0
    }
}

fn cell_traced(args: &Args, cell: Cell) -> RunResult {
    let jobs = args.workload.jobs();
    let wl = args.workload.site(jobs, args.seed, 0);
    let plain = cell_rounds(cell, 1, args.seconds / 2.0, |_| wl.clone());
    let mut failed = cell_failed(&plain, cell, jobs);
    let plain_out = plain.outputs[0][0];
    let mut traced_walls = Vec::new();
    let mut trace = None;
    let t0 = Instant::now();
    while traced_walls.is_empty() || secs_since(t0) < args.seconds / 4.0 {
        let t = Instant::now();
        let Some((out, tr)) = guarded(|| cells::run_traced(cell, &wl)) else {
            failed += 1;
            break;
        };
        traced_walls.push(secs_since(t));
        // The traced run must reproduce the untraced outputs bit for bit.
        if Some(out) != plain_out {
            failed += 1;
        }
        trace.get_or_insert(tr);
    }
    let plain_wall = median(&plain.walls[0]);
    let mut l = Layers::default();
    if let (Some(mut tr), Some(out)) = (trace, plain_out) {
        let rep_wall = traced_walls[0];
        let predict_s = tr.predict.total_s();
        l.predict_calls = tr.predict.count() as f64;
        l.predict_busy_s = predict_s;
        l.predict_p50_us = percentile(&mut tr.predict, 0.5);
        l.predict_p99_us = percentile(&mut tr.predict, 0.99);
        l.learn_calls = tr.learn.count() as f64;
        l.learn_busy_s = tr.learn.total_s();
        l.cache_lookups = out.cache_lookups as f64;
        l.cache_hit_ratio = out.cache_hits as f64 / out.cache_lookups.max(1) as f64;
        l.scanned_points = tr.scanned_points as f64;
        l.forecast_calls = tr.forecast.count() as f64;
        l.forecast_busy_s = tr.forecast.total_s();
        l.forecast_self_s = l.forecast_busy_s - tr.predict_in_forecast_s;
        l.forecast_p50_us = percentile(&mut tr.forecast, 0.5);
        l.forecast_p99_us = percentile(&mut tr.forecast, 0.99);
        l.sim_self_s =
            tr.wall_s - l.forecast_busy_s - l.learn_busy_s - (predict_s - tr.predict_in_forecast_s);
        l.overhead_ratio = median(&traced_walls) / plain_wall;
        l.coverage_ratio = tr.wall_s / rep_wall;
    }
    l.jobs_exponent = scaling_exponent(args, plain_wall);
    l.host_slowdown = plain.clock.slowdown();
    RunResult {
        correct: failed == 0,
        attempted: (plain.rounds() + traced_walls.len().max(1)) as u64,
        failed,
        metrics: l.metrics(),
    }
}

/// Where a run keeps the service's state: inside the working directory,
/// unique to the process, removed when the run ends.
fn state_dir() -> PathBuf {
    PathBuf::from(STATE_ROOT).join(format!("serve-{}", std::process::id()))
}

const STATE_ROOT: &str = ".bench_state";

/// Remove the run's state dir and, if no other run uses it, its parent.
fn clean_state() {
    serve::reset_dir(&state_dir());
    let _ = std::fs::remove_dir(STATE_ROOT);
}

/// One checked durable replay.
struct ServeRun {
    out: serve::ReplayOutput,
    /// `feed_line` and `finish` calls made.
    calls: u64,
    /// Failed operations, by `serve_failed`.
    failed: u64,
}

/// Checked durable replays of every replica's stream; each stream is
/// built, and the service opened, untimed before its replay.
fn serve_rounds(
    replicas: usize,
    seconds: f64,
    build: impl Fn(usize) -> Stream,
) -> Rounds<ServeRun> {
    let dir = state_dir();
    Rounds::cycle(replicas, seconds, |k| {
        let stream = build(k);
        let mut svc = serve::open(&stream, Some(&dir));
        let t0 = Instant::now();
        let out = serve::replay(&mut svc, &stream, None, Some(&dir));
        let wall = secs_since(t0);
        let run = ServeRun {
            out,
            calls: stream.lines.len() as u64 + 1,
            failed: serve_failed(&stream, &[out]),
        };
        (wall, run)
    })
}

/// Failed operations of replays of `stream`: calls that returned `Err`,
/// queries not answered exactly once, and replays whose outputs differ
/// from the first or miss a completion.
fn serve_failed(stream: &Stream, outputs: &[serve::ReplayOutput]) -> u64 {
    outputs
        .iter()
        .map(|o| {
            let off = u64::from(*o != outputs[0] || !o.complete(stream));
            o.failed_calls + o.bad_answers as u64 + off
        })
        .sum()
}

fn serve_e2e(args: &Args) -> RunResult {
    let jobs = args.workload.jobs();
    let replicas = args.workload.replicas();
    let build = |r| inputs::serve_stream(&args.workload.site(jobs, args.seed, r), QUERY_EVERY);
    let dir = state_dir();
    let setup_s = setup_s(replicas, |r| {
        let stream = build(r);
        serve::open(&stream, Some(&dir))
    });
    let rounds = serve_rounds(replicas, args.seconds, build);
    clean_state();
    let (mut failed, mut attempted) = (0, 0);
    let (mut abs_err_min, mut answered) = (0.0, 0);
    for runs in &rounds.outputs {
        let first = runs[0].out;
        for run in runs {
            // Repeats of a replica must give the first replay's outputs.
            failed += run.failed + u64::from(run.out != first);
            attempted += run.calls;
        }
        abs_err_min += first.wait_mae_min() * first.answered as f64;
        answered += first.answered;
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m(
                "jobs_per_s",
                (replicas * jobs) as f64 / rounds.round_s(),
                "1/s",
            ),
            m("result_min", abs_err_min / answered.max(1) as f64, "min"),
            m("peak_rss_mb", rounds.peak_rss_mb, "MB"),
        ],
    }
}

fn serve_traced(args: &Args) -> RunResult {
    let jobs = args.workload.jobs();
    let stream = inputs::serve_stream(&args.workload.site(jobs, args.seed, 0), QUERY_EVERY);
    let dir = state_dir();
    let plain = serve_rounds(1, args.seconds / 3.0, |_| stream.clone());
    let plain_wall = median(&plain.walls[0]);
    let mut outputs: Vec<serve::ReplayOutput> = plain.outputs[0].iter().map(|r| r.out).collect();

    // The non-durable floor: the same stream with no state dir.
    let mut state_walls = Vec::new();
    for _ in 0..3 {
        let mut svc = serve::open(&stream, None);
        let t0 = Instant::now();
        outputs.push(serve::replay(&mut svc, &stream, None, None));
        state_walls.push(secs_since(t0));
    }
    // The oversubscription counter exists only as an obs counter.
    qpredict_obs::set_recording(true);
    let mut svc = serve::open(&stream, None);
    outputs.push(serve::replay(&mut svc, &stream, None, None));
    qpredict_obs::set_recording(false);
    let oversubscribed = qpredict_obs::snapshot().counter("serve.oversubscribed");

    let mut tr = serve::ReplayTrace::default();
    let mut svc = serve::open(&stream, Some(&dir));
    outputs.push(serve::replay(&mut svc, &stream, Some(&mut tr), Some(&dir)));
    let cache = svc.state().cache_stats();
    drop(svc);

    let mut failed = serve_failed(&stream, &outputs);
    if oversubscribed > 0 {
        failed += 1;
    }
    let events = stream.lines.len() as f64;
    let append_s = tr.append.total_s();
    let snapshot_s = tr.snapshot.total_s();
    let state_s = median(&state_walls);
    let l = Layers {
        cache_hit_ratio: cache.hit_rate(),
        cache_lookups: cache.total() as f64,
        serve_state_s: state_s,
        append_calls: tr.append.count() as f64,
        append_busy_s: append_s,
        append_p99_us: percentile(&mut tr.append, 0.99),
        snapshot_calls: tr.snapshot.count() as f64,
        snapshot_busy_s: snapshot_s,
        snapshot_p50_us: percentile(&mut tr.snapshot, 0.5),
        query_count: tr.query.count() as f64,
        query_p50_us: percentile(&mut tr.query, 0.5),
        query_p99_us: percentile(&mut tr.query, 0.99),
        oversubscribed: oversubscribed as f64,
        durable_self_s: append_s + snapshot_s - state_s,
        wal_bytes_per_event: tr.wal_bytes as f64 / events,
        snapshot_bytes_per_event: tr.snapshot_bytes as f64 / events,
        overhead_ratio: tr.wall_s / plain_wall,
        coverage_ratio: (append_s + snapshot_s) / tr.wall_s,
        jobs_exponent: scaling_exponent(args, plain_wall),
        host_slowdown: plain.clock.slowdown(),
        ..Layers::default()
    };
    clean_state();
    RunResult {
        correct: failed == 0,
        attempted: (outputs.len() * (stream.lines.len() + 1)) as u64,
        failed,
        metrics: l.metrics(),
    }
}
