//! `qpredict` — command-line front end to the library.
//!
//! `qpredict --help` prints every subcommand with the flags it reads
//! (the `SUBCOMMANDS` table): `generate`, `analyze`, `simulate`,
//! `waitpred`, `gantt`, `search`, `events`, `serve`, `paper` and
//! `check-report`.
//!
//! Common flags: `--ingest lenient|strict` controls SWF parsing
//! (lenient skips and reports malformed lines), and `--fault-seed N` /
//! `--fault-pred-noise P` drive the deterministic fault-injection
//! harness during `simulate`. A flag the chosen subcommand does not read
//! exits 2 rather than being ignored, and so does one its source does
//! not read (`--jobs` for a `.swf` trace, `--nodes` for a site model,
//! `--ingest` for anything but a `.swf` trace); `--report-out FILE|-`
//! applies to every subcommand.
//!
//! `search` runs the GA template search, scoring each generation on the
//! machine's cores: `--checkpoint-dir` snapshots every generation so a
//! killed run can continue with `--resume` (bit-identical to an
//! uninterrupted run).
//!
//! `events` derives a job-event stream from a workload: the submissions
//! at their trace instants, the starts and finishes of the schedule
//! conservative backfill on the users' limits realizes, and a wait-time
//! query at every `--query-every`-th submission, optionally block-shuffled
//! (`--shuffle W`) to exercise reorder handling. `serve` runs the
//! crash-safe online predictor service over such a stream: with
//! `--state-dir` every input line is write-ahead logged and state is
//! snapshotted, so a killed run restarted with `--resume` reproduces the
//! uninterrupted run bit for bit.
//!
//! `paper` regenerates the paper's tables and the extension experiments
//! (`qpredict_core::paper`) over the four site models: tables go to
//! stdout, `--out FILE` also writes them as a markdown report (the
//! committed `experiments_data.md` is one), and `all` runs Tables 1–15
//! and the extensions but not the template-search experiments.
//!
//! Sites are generated synthetically (full Table 1 size unless `--jobs`);
//! `.swf` paths are parsed as Standard Workload Format traces.

use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

use qpredict::core::searched::curated_seed_for;
use qpredict::core::{paper, run_scheduling_with, run_wait_prediction, PredictorKind};
use qpredict::obs::json::Json;
use qpredict::obs::report::RunReport;
use qpredict::predict::OraclePredictor;
use qpredict::prelude::*;
use qpredict::search::{resume, search, CheckpointPolicy, GaConfig, PredictionWorkload, Target};
use qpredict::sim::{timeline_of, FaultPlan};
use qpredict::workload::{analysis, swf, synthetic, IngestPolicy};

struct Opts {
    positional: Vec<String>,
    nodes: Option<u32>,
    jobs: Option<usize>,
    alg: Algorithm,
    predictor: PredictorKind,
    out: Option<String>,
    ingest: Option<IngestPolicy>,
    fault_seed: Option<u64>,
    fault_pred_noise: Option<f64>,
    generations: Option<usize>,
    population: Option<usize>,
    seed: Option<u64>,
    checkpoint_dir: Option<String>,
    resume: bool,
    report_out: Option<String>,
    state_dir: Option<String>,
    horizon: Option<usize>,
    snapshot_every: Option<u64>,
    fsync: Option<qpredict::serve::FsyncPolicy>,
    max_jobs: Option<usize>,
    max_done: Option<usize>,
    max_history: Option<u32>,
    throttle_us: Option<u64>,
    query_every: Option<usize>,
    shuffle: Option<usize>,
    threads: Option<usize>,
}

fn usage() -> ! {
    eprintln!("usage:");
    for (cmd, source, flags) in SUBCOMMANDS {
        let flags: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("  qpredict {cmd} {source}{flags}");
    }
    eprintln!(
        "every subcommand also takes [--report-out FILE|-]; \
         PRED is actual|maxrt|smith|gibbons|downey-avg|downey-med|fallback; \
         EXPERIMENT is table1..table15|compress2x|statewait|easy-ablation|warmup|\
         ga-ablation|ga-search|all"
    );
    exit(2)
}

/// Exit with code 2 and a pointed diagnostic — `usage()` is for "you
/// don't know the command shape", this is for "this one flag is wrong".
fn flag_error(msg: String) -> ! {
    eprintln!("qpredict: {msg}");
    exit(2)
}

/// Serve-layer failures: configuration contradictions (stale state dir,
/// fingerprint mismatch) are usage errors (exit 2); disk failures are
/// runtime errors (exit 1).
fn serve_fail(e: qpredict::serve::ServeError) -> ! {
    match e {
        qpredict::serve::ServeError::Config(msg) => flag_error(msg),
        other => {
            eprintln!("qpredict: {other}");
            exit(1)
        }
    }
}

/// Print one response line, tolerating a closed pipe.
fn print_resp(r: &qpredict::serve::Response) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if writeln!(lock, "resp {} {}", r.ordinal, r.line).is_err() {
        exit(0);
    }
}

fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| flag_error(format!("missing value for {flag}")))
}

fn parse_value<T>(it: &mut impl Iterator<Item = String>, flag: &str, expected: &str) -> T
where
    T: std::str::FromStr,
{
    let v = flag_value(it, flag);
    v.parse().unwrap_or_else(|_| {
        flag_error(format!(
            "invalid value {v:?} for {flag} (expected {expected})"
        ))
    })
}

/// Each subcommand with its source argument and the flags it reads,
/// value placeholders included. Any other flag exits 2, except
/// `--report-out` and `--help`, which apply to every subcommand.
const SUBCOMMANDS: &[(&str, &str, &[&str])] = &[
    (
        "generate",
        "<ANL|CTC|SDSC95|SDSC96|toy>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--out FILE",
        ],
    ),
    (
        "analyze",
        "<trace.swf|site>",
        &["--nodes N", "--jobs N", "--ingest strict|lenient"],
    ),
    (
        "simulate",
        "<trace.swf|site>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--alg fcfs|lwf|backfill|easy",
            "--predictor PRED",
            "--fault-seed N",
            "--fault-pred-noise P",
        ],
    ),
    (
        "waitpred",
        "<trace.swf|site>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--alg fcfs|lwf|backfill|easy",
            "--predictor PRED",
        ],
    ),
    (
        "gantt",
        "<trace.swf|site>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--alg fcfs|lwf|backfill|easy",
            "--out FILE",
        ],
    ),
    (
        "search",
        "<trace.swf|site>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--alg fcfs|lwf|backfill|easy",
            "--generations N",
            "--population N",
            "--seed N",
            "--checkpoint-dir DIR",
            "--resume",
        ],
    ),
    (
        "events",
        "<trace.swf|site>",
        &[
            "--nodes N",
            "--jobs N",
            "--ingest strict|lenient",
            "--query-every K",
            "--shuffle W",
            "--seed N",
            "--out FILE",
        ],
    ),
    (
        "serve",
        "<events.log|->",
        &[
            "--nodes N",
            "--predictor PRED",
            "--state-dir DIR",
            "--resume",
            "--horizon N",
            "--snapshot-every N",
            "--fsync always|batch[=N]|never",
            "--max-jobs N",
            "--max-done N",
            "--max-history N",
            "--throttle-us N",
            "--out FILE",
        ],
    ),
    (
        "paper",
        "<EXPERIMENT>...",
        &["--jobs N", "--threads N", "--out FILE"],
    ),
    ("check-report", "<report.json>", &[]),
];

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        positional: Vec::new(),
        nodes: None,
        jobs: None,
        alg: Algorithm::Backfill,
        predictor: PredictorKind::Smith,
        out: None,
        ingest: None,
        fault_seed: None,
        fault_pred_noise: None,
        generations: None,
        population: None,
        seed: None,
        checkpoint_dir: None,
        resume: false,
        report_out: None,
        state_dir: None,
        horizon: None,
        snapshot_every: None,
        fsync: None,
        max_jobs: None,
        max_done: None,
        max_history: None,
        throttle_us: None,
        query_every: None,
        shuffle: None,
        threads: None,
    };
    let mut flags: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a.clone());
        }
        match a.as_str() {
            "--nodes" => o.nodes = Some(parse_value(&mut it, "--nodes", "a node count")),
            "--jobs" => {
                let n: usize = parse_value(&mut it, "--jobs", "a positive job count");
                if n == 0 {
                    flag_error(
                        "invalid value \"0\" for --jobs (expected a positive job count)"
                            .to_string(),
                    );
                }
                o.jobs = Some(n);
            }
            "--alg" => {
                let v = flag_value(&mut it, "--alg");
                o.alg = Algorithm::parse(&v).unwrap_or_else(|| {
                    flag_error(format!(
                        "invalid value {v:?} for --alg (expected fcfs|lwf|backfill|easy)"
                    ))
                });
            }
            "--predictor" => {
                let v = flag_value(&mut it, "--predictor");
                o.predictor = PredictorKind::parse(&v).unwrap_or_else(|| {
                    flag_error(format!(
                        "invalid value {v:?} for --predictor (expected actual|maxrt|smith|\
                         gibbons|downey-avg|downey-med|fallback)"
                    ))
                });
            }
            "--ingest" => {
                let v = flag_value(&mut it, "--ingest");
                o.ingest = Some(IngestPolicy::parse(&v).unwrap_or_else(|| {
                    flag_error(format!(
                        "invalid value {v:?} for --ingest (expected strict|lenient)"
                    ))
                }));
            }
            "--fault-seed" => {
                o.fault_seed = Some(parse_value(&mut it, "--fault-seed", "an integer seed"))
            }
            "--fault-pred-noise" => {
                let p: f64 = parse_value(&mut it, "--fault-pred-noise", "a probability in [0, 1]");
                if !(0.0..=1.0).contains(&p) {
                    flag_error(format!(
                        "invalid value \"{p}\" for --fault-pred-noise (expected a probability \
                         in [0, 1])"
                    ));
                }
                o.fault_pred_noise = Some(p);
            }
            "--generations" => {
                o.generations = Some(parse_value(&mut it, "--generations", "a generation count"))
            }
            "--population" => {
                let n: usize = parse_value(&mut it, "--population", "a population size (>= 4)");
                if n < 4 {
                    flag_error(format!(
                        "invalid value \"{n}\" for --population (the GA needs at least 4 \
                         individuals for parents and elites)"
                    ));
                }
                o.population = Some(n);
            }
            "--seed" => o.seed = Some(parse_value(&mut it, "--seed", "an integer seed")),
            "--checkpoint-dir" => o.checkpoint_dir = Some(flag_value(&mut it, "--checkpoint-dir")),
            "--resume" => o.resume = true,
            "--out" => o.out = Some(flag_value(&mut it, "--out")),
            "--report-out" => o.report_out = Some(flag_value(&mut it, "--report-out")),
            "--state-dir" => o.state_dir = Some(flag_value(&mut it, "--state-dir")),
            "--horizon" => {
                o.horizon = Some(parse_value(&mut it, "--horizon", "a reorder-buffer size"))
            }
            "--snapshot-every" => {
                o.snapshot_every = Some(parse_value(&mut it, "--snapshot-every", "a line interval"))
            }
            "--fsync" => {
                let v = flag_value(&mut it, "--fsync");
                o.fsync = Some(qpredict::serve::FsyncPolicy::parse(&v).unwrap_or_else(|e| {
                    flag_error(format!("invalid value {v:?} for --fsync ({e})"))
                }));
            }
            "--max-jobs" => {
                let n: usize = parse_value(&mut it, "--max-jobs", "a live-job cap (>= 1)");
                if n == 0 {
                    flag_error(
                        "invalid value \"0\" for --max-jobs (the cap must admit at \
                                least one job)"
                            .to_string(),
                    );
                }
                o.max_jobs = Some(n);
            }
            "--max-done" => {
                o.max_done = Some(parse_value(&mut it, "--max-done", "a done-record cap"))
            }
            "--max-history" => {
                let n: u32 = parse_value(&mut it, "--max-history", "a per-category cap (>= 1)");
                if n == 0 {
                    flag_error(
                        "invalid value \"0\" for --max-history (a predictor with no \
                                history cannot predict)"
                            .to_string(),
                    );
                }
                o.max_history = Some(n);
            }
            "--throttle-us" => {
                o.throttle_us = Some(parse_value(&mut it, "--throttle-us", "microseconds"))
            }
            "--query-every" => {
                o.query_every = Some(parse_value(&mut it, "--query-every", "a job interval"))
            }
            "--shuffle" => o.shuffle = Some(parse_value(&mut it, "--shuffle", "a shuffle window")),
            "--threads" => o.threads = Some(parse_value(&mut it, "--threads", "a thread count")),
            "--help" | "-h" => usage(),
            // A bare "-" is the conventional stdin positional (serve).
            "-" => o.positional.push("-".to_string()),
            other if other.starts_with('-') => {
                flag_error(format!("unknown flag {other:?} (see --help)"))
            }
            other => o.positional.push(other.to_string()),
        }
    }
    if o.positional.len() < 2 {
        usage();
    }
    // A flag the subcommand never reads would be silently ignored.
    let cmd = o.positional[0].as_str();
    if let Some((_, _, read)) = SUBCOMMANDS.iter().find(|(c, ..)| *c == cmd) {
        let reads = |f: &str| read.iter().any(|r| r.split(' ').next() == Some(f));
        if let Some(f) = flags.iter().find(|f| *f != "--report-out" && !reads(f)) {
            flag_error(format!("{f} does not apply to {cmd} (see --help)"))
        }
    }
    o
}

/// The fault plan implied by `--fault-seed` / `--fault-pred-noise`, or
/// `None` when neither flag was given.
fn fault_plan(opts: &Opts) -> Option<FaultPlan> {
    if opts.fault_seed.is_none() && opts.fault_pred_noise.is_none() {
        return None;
    }
    Some(FaultPlan::pred_noise(
        opts.fault_seed.unwrap_or(0),
        opts.fault_pred_noise.unwrap_or(0.0),
    ))
}

/// The machine size without `--nodes`.
const DEFAULT_NODES: u32 = 128;

/// The workload `source` names: a `.swf` trace, `toy`, or a site model.
/// A flag the source does not read exits 2.
fn load(source: &str, opts: &Opts) -> Workload {
    let swf = source.ends_with(".swf");
    let site = synthetic::ALL_SITES
        .iter()
        .any(|s| s.eq_ignore_ascii_case(source));
    let unread = [
        ("--jobs", swf && opts.jobs.is_some()),
        ("--nodes", site && opts.nodes.is_some()),
        ("--ingest", !swf && opts.ingest.is_some()),
    ];
    if let Some((flag, _)) = unread.iter().find(|(_, given)| *given) {
        flag_error(format!("{flag} does not apply to {source}"))
    }
    let nodes = opts.nodes.unwrap_or(DEFAULT_NODES);
    if swf {
        let text = std::fs::read_to_string(source).unwrap_or_else(|e| {
            eprintln!("cannot read {source}: {e}");
            exit(1)
        });
        let ingest = opts.ingest.unwrap_or(IngestPolicy::Strict);
        match swf::parse_with(source, nodes, &text, ingest) {
            Ok((w, report)) => {
                if !report.is_clean() {
                    eprintln!("{source}: recovered under {} ingestion:", ingest.name());
                    for line in report.summary().lines() {
                        eprintln!("  {line}");
                    }
                }
                w
            }
            Err(e) => {
                eprintln!("{e}");
                exit(1)
            }
        }
    } else if source.eq_ignore_ascii_case("toy") {
        synthetic::toy(opts.jobs.unwrap_or(2000), nodes.min(128), 42)
    } else {
        synthetic::by_name(source, opts.jobs).unwrap_or_else(|| {
            eprintln!(
                "unknown site {source:?} (use ANL, CTC, SDSC95, SDSC96, toy, or a .swf path)"
            );
            exit(1)
        })
    }
}

/// Bulk output to stdout, tolerating a closed pipe (`qpredict gantt … |
/// head` must not panic).
fn emit_stdout(text: &str) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if lock.write_all(text.as_bytes()).is_err() {
        exit(0); // downstream closed the pipe; nothing left to do
    }
    let _ = lock.flush();
}

/// Validate a run report written by `--report-out`; exits 1 on a
/// malformed or inactive report.
fn check_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let report = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("qpredict: {path} is not JSON: {e}");
        exit(1)
    });
    if let Err(e) = qpredict::obs::report::validate(&report, true) {
        eprintln!("qpredict: invalid report {path}: {e}");
        exit(1)
    }
    let count = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_arr)
            .map(|a| a.len())
            .unwrap_or(0)
    };
    println!(
        "report ok: {} spans, {} counters",
        count("spans"),
        count("counters")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&argv);
    let cmd = opts.positional[0].as_str();
    let source = opts.positional[1].as_str();

    if cmd == "check-report" {
        check_report(source);
        return;
    }
    if opts.report_out.is_some() {
        qpredict::obs::set_recording(true);
        qpredict::obs::reset();
    }
    let mut report_metrics: Vec<(String, Json)> = Vec::new();
    let mut metric = |key: &str, v: f64| report_metrics.push((key.to_string(), Json::Num(v)));

    match cmd {
        "generate" => {
            let wl = load(source, &opts);
            metric("n_jobs", wl.len() as f64);
            let text = swf::write(&wl);
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    eprintln!("{} jobs written to {path}", wl.len());
                }
                None => emit_stdout(&text),
            }
        }
        "analyze" => {
            let wl = load(source, &opts);
            metric("n_jobs", wl.len() as f64);
            println!("=== {} ===", wl.name);
            println!("{}\n", WorkloadStats::of(&wl));
            println!("{}", analysis::analyze(&wl));
        }
        "simulate" => {
            let wl = load(source, &opts);
            let plan = fault_plan(&opts);
            let out = run_scheduling_with(&wl, opts.alg, opts.predictor.clone(), plan.as_ref());
            metric("n_jobs", out.metrics.n_jobs as f64);
            metric("utilization_window", out.metrics.utilization_window);
            metric("mean_wait_min", out.metrics.mean_wait.minutes());
            metric("median_wait_min", out.metrics.median_wait.minutes());
            metric("mean_bounded_slowdown", out.metrics.mean_bounded_slowdown);
            if out.runtime_errors.count() > 0 {
                metric("runtime_mae_min", out.runtime_errors.mean_abs_error_min());
            }
            println!(
                "{} jobs under {} + {}:",
                out.metrics.n_jobs,
                opts.alg.name(),
                opts.predictor.name()
            );
            println!(
                "  utilization     {:.2}% (arrival window)",
                100.0 * out.metrics.utilization_window
            );
            println!(
                "  mean wait       {:.2} min",
                out.metrics.mean_wait.minutes()
            );
            println!(
                "  median wait     {:.2} min",
                out.metrics.median_wait.minutes()
            );
            println!(
                "  max wait        {:.2} min",
                out.metrics.max_wait.minutes()
            );
            println!(
                "  bounded slowdown {:.2}",
                out.metrics.mean_bounded_slowdown
            );
            if out.runtime_errors.count() > 0 {
                println!(
                    "  run-time predictions: {} made, MAE {:.2} min ({:.0}% of mean run time)",
                    out.runtime_errors.count(),
                    out.runtime_errors.mean_abs_error_min(),
                    out.runtime_errors.pct_of_mean_actual()
                );
            }
            if let Some(d) = &out.degradations {
                println!("  predictor degradation:");
                for line in d.summary().lines() {
                    println!("    {line}");
                }
            }
            if let Some(f) = &out.faults {
                println!(
                    "  faults injected (seed {}): {} cancelled, {} failed, {} delayed; \
                     estimates: {} scaled, {} inverted, {} dropped",
                    plan.as_ref().map(|p| p.seed).unwrap_or(0),
                    f.trace.cancelled,
                    f.trace.failed,
                    f.trace.delayed,
                    f.estimates.scaled,
                    f.estimates.inverted,
                    f.estimates.dropped
                );
            }
        }
        "waitpred" => {
            let wl = load(source, &opts);
            let out = run_wait_prediction(&wl, opts.alg, opts.predictor.clone());
            metric("n_jobs", wl.len() as f64);
            metric("wait_mae_min", out.wait_errors.mean_abs_error_min());
            metric("runtime_mae_min", out.runtime_errors.mean_abs_error_min());
            println!(
                "wait-time prediction on {} under {} + {}:",
                wl.name,
                opts.alg.name(),
                opts.predictor.name()
            );
            println!(
                "  wait MAE     {:.2} min ({:.0}% of mean wait {:.2} min)",
                out.wait_errors.mean_abs_error_min(),
                out.wait_errors.pct_of_mean_actual(),
                out.wait_errors.mean_actual_min()
            );
            println!(
                "  run-time MAE {:.2} min ({:.0}% of mean run time)",
                out.runtime_errors.mean_abs_error_min(),
                out.runtime_errors.pct_of_mean_actual()
            );
        }
        "gantt" => {
            let wl = load(source, &opts);
            let (timeline, result) = timeline_of(&wl, opts.alg, &mut OraclePredictor);
            metric("n_jobs", result.outcomes.len() as f64);
            let csv = timeline.jobs_csv();
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, &csv).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    eprintln!(
                        "{} intervals written to {path} ({})",
                        result.outcomes.len(),
                        result.metrics
                    );
                }
                None => emit_stdout(&csv),
            }
        }
        "search" => {
            if opts.resume && opts.checkpoint_dir.is_none() {
                flag_error(
                    "--resume requires --checkpoint-dir (there is no checkpoint to resume from)"
                        .to_string(),
                );
            }
            let wl = load(source, &opts);
            let mut ga = GaConfig::default();
            if let Some(g) = opts.generations {
                ga.generations = g;
            }
            if let Some(p) = opts.population {
                ga.population = p;
            }
            if let Some(s) = opts.seed {
                ga.seed = s;
            }
            ga.seeds = vec![curated_seed_for(&wl)];
            let threads = qpredict::obs::default_threads();
            let checkpoint = opts
                .checkpoint_dir
                .as_ref()
                .map(CheckpointPolicy::every_generation);
            let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(opts.alg), 4);
            let run = match &checkpoint {
                Some(policy) if opts.resume => resume(&wl, &pw, &ga, threads, policy),
                _ => search(&wl, &pw, &ga, threads, checkpoint.as_ref()),
            };
            // A checkpoint that cannot be resumed is a usage error; a fresh
            // run that cannot write one failed at run time, like `serve_fail`.
            let r = run.unwrap_or_else(|e| {
                if opts.resume {
                    flag_error(format!("cannot resume search: {e}"))
                }
                eprintln!("qpredict: cannot write search checkpoint: {e}");
                exit(1)
            });
            metric("best_error_min", r.best_error_min);
            metric("evaluations", r.evaluations as f64);
            metric("generations", ga.generations as f64);
            println!(
                "template search on {} under {} ({} generations x {} individuals):",
                wl.name,
                opts.alg.name(),
                ga.generations,
                ga.population
            );
            println!("  best MAE     {:.2} min", r.best_error_min);
            if let (Some(first), Some(last)) = (r.error_history.first(), r.error_history.last()) {
                println!("  convergence  {first:.2} -> {last:.2} min");
            }
            println!("  evaluations  {}", r.evaluations);
            println!("  best set     {}", r.best);
            println!("  resumes      {}", r.resumes);
            if let Some(g) = r.resumed_from {
                println!("  resumed from generation {g}");
            }
            if let Some(p) = &checkpoint {
                println!("  checkpoint   {}", p.file().display());
            }
        }
        "events" => {
            let wl = load(source, &opts);
            let mut events = qpredict::sim::realized_events(&wl, opts.query_every.unwrap_or(10));
            // Optional deterministic disorder: shuffle within blocks of
            // `--shuffle` events, bounding every event's displacement
            // below the window so a serve --horizon >= W recovers the
            // canonical order exactly.
            if let Some(w) = opts.shuffle.filter(|w| *w > 1) {
                let mut rng = qpredict::workload::Rng64::seed_from_u64(opts.seed.unwrap_or(42));
                for chunk in events.chunks_mut(w) {
                    for i in (1..chunk.len()).rev() {
                        chunk.swap(i, rng.gen_index(i + 1));
                    }
                }
            }
            metric("n_events", events.len() as f64);
            let mut text = String::with_capacity(events.len() * 32);
            for e in &events {
                text.push_str(&e.encode());
                text.push('\n');
            }
            match &opts.out {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    eprintln!("{} events written to {path}", events.len());
                }
                None => emit_stdout(&text),
            }
        }
        "serve" => {
            if opts.resume && opts.state_dir.is_none() {
                flag_error(
                    "--resume requires --state-dir (there is no durable state to resume from)"
                        .to_string(),
                );
            }
            let defaults = qpredict::serve::ServeConfig::default();
            let cfg = qpredict::serve::ServeConfig {
                predictor: opts.predictor.clone(),
                machine_nodes: opts.nodes.unwrap_or(DEFAULT_NODES),
                horizon: opts.horizon.unwrap_or(defaults.horizon),
                max_history: opts.max_history.unwrap_or(defaults.max_history),
                max_jobs: opts.max_jobs.unwrap_or(defaults.max_jobs),
                max_done: opts.max_done.unwrap_or(defaults.max_done),
                snapshot_every: opts.snapshot_every.unwrap_or(defaults.snapshot_every),
                fsync: opts.fsync.unwrap_or(defaults.fsync),
            };
            let state_dir = opts.state_dir.as_ref().map(std::path::PathBuf::from);
            let out_path = opts.out.as_ref().map(std::path::PathBuf::from);
            let mut svc = qpredict::serve::Service::open(
                cfg,
                state_dir.as_deref(),
                out_path.as_deref(),
                opts.resume,
            )
            .unwrap_or_else(|e| serve_fail(e));
            if svc.recovery.resumed {
                let r = svc.recovery;
                eprintln!(
                    "serve: recovered (snapshot seq {} + {} deltas, {} WAL records replayed, {} \
                     torn WAL bytes truncated, {} snapshot fallbacks, {} responses re-emitted)",
                    r.snapshot_seq,
                    r.deltas_applied,
                    r.wal_replayed,
                    r.wal_torn_bytes,
                    r.snapshot_fallbacks,
                    r.responses_reemitted
                );
            }
            let run = |svc: &mut qpredict::serve::Service, reader: &mut dyn std::io::BufRead| {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("qpredict: cannot read event stream: {e}");
                            exit(1)
                        }
                    }
                    if let Some(us) = opts.throttle_us.filter(|us| *us > 0) {
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                    let fresh = svc
                        .feed_line(line.trim_end_matches(['\n', '\r']))
                        .unwrap_or_else(|e| serve_fail(e));
                    if opts.out.is_none() {
                        for r in &fresh {
                            print_resp(r);
                        }
                    }
                }
            };
            if source == "-" {
                let stdin = std::io::stdin();
                run(&mut svc, &mut stdin.lock());
            } else {
                let file = std::fs::File::open(source).unwrap_or_else(|e| {
                    eprintln!("cannot read {source}: {e}");
                    exit(1)
                });
                run(&mut svc, &mut std::io::BufReader::new(file));
            }
            let fresh = svc.finish().unwrap_or_else(|e| serve_fail(e));
            if opts.out.is_none() {
                for r in &fresh {
                    print_resp(r);
                }
            }
            let c = *svc.state().counters();
            metric("events", c.events as f64);
            metric("responses", c.responses as f64);
            metric("completions", c.completions as f64);
            metric("duplicate", c.duplicate as f64);
            metric("out_of_order", c.out_of_order as f64);
            metric("late", c.late as f64);
            metric("orphan", c.orphan as f64);
            metric("shed", c.shed as f64);
            metric("evicted", c.evicted as f64);
            metric("malformed", c.malformed as f64);
            metric("live_jobs", svc.state().live_jobs() as f64);
            metric(
                "resident_history_points",
                svc.state().predictor_resident_points() as f64,
            );
            metric("snapshots", svc.snapshots_written() as f64);
            eprintln!(
                "serve: {} events, {} responses, {} completions ({} duplicate, {} out-of-order, \
                 {} late, {} orphan, {} malformed)",
                c.events,
                c.responses,
                c.completions,
                c.duplicate,
                c.out_of_order,
                c.late,
                c.orphan,
                c.malformed
            );
            eprintln!(
                "serve: memory: {} live jobs, {} done records evicted, {} shed, {} resident \
                 history points; {} snapshots; state fp {:016X}",
                svc.state().live_jobs(),
                c.evicted,
                c.shed,
                svc.state().predictor_resident_points(),
                svc.snapshots_written(),
                svc.state().fingerprint()
            );
        }
        "paper" => {
            let experiments = &opts.positional[1..];
            if let Some(w) = experiments
                .iter()
                .find(|w| *w != "all" && !paper::is_experiment(w))
            {
                flag_error(format!("unknown experiment {w:?} (see --help)"));
            }
            let what: Vec<&str> = if experiments.iter().any(|w| w == "all") {
                paper::ALL.to_vec()
            } else {
                experiments.iter().map(String::as_str).collect()
            };
            let threads = opts.threads.unwrap_or_else(qpredict::obs::default_threads);
            let scale = opts
                .jobs
                .map_or("Full".to_string(), |n| format!("Jobs({n})"));
            let t0 = Instant::now();
            eprintln!("generating workloads ({scale}, {threads} threads)...");
            let wls = paper::workloads(opts.jobs);
            eprintln!("[workloads: {}]", human_secs(t0.elapsed().as_secs_f64()));
            let mut report = format!(
                "# qpredict experiment data\n\nScale: {scale}; threads: {threads}.\n\n\
                 Predictors: {}.\n\n",
                PredictorKind::ALL.map(|k| k.name()).join(", ")
            );
            for w in &what {
                let started = Instant::now();
                let table = paper::run(w, &wls, threads);
                println!("{table}");
                let _ = writeln!(report, "{}", table.to_markdown());
                eprintln!("[{w}: {}]", human_secs(started.elapsed().as_secs_f64()));
            }
            metric("experiments", what.len() as f64);
            if let Some(path) = &opts.out {
                std::fs::write(path, &report).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
                eprintln!("report written to {path}");
            }
            eprintln!("[total: {}]", human_secs(t0.elapsed().as_secs_f64()));
        }
        _ => usage(),
    }

    if let Some(dest) = &opts.report_out {
        let mut report = RunReport::new(cmd, &argv);
        for (k, v) in report_metrics {
            report.metric(&k, v);
        }
        let text = report.to_json(&qpredict::obs::snapshot()).to_pretty();
        qpredict::obs::set_recording(false);
        if dest == "-" {
            emit_stdout(&text);
        } else {
            let path = std::path::Path::new(dest);
            qpredict::durable::write_atomic(path, &text, "report.tmp").unwrap_or_else(|e| {
                eprintln!("cannot write report {dest}: {e}");
                exit(1)
            });
            eprintln!("run report written to {dest}");
        }
    }
}

/// Render a duration in seconds for the `paper` progress lines.
fn human_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_times() {
        assert_eq!(human_secs(5.0), "5.0 s");
        assert_eq!(human_secs(120.0), "2.0 min");
    }
}
