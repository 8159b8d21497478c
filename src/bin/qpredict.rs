//! `qpredict` — command-line front end to the library.
//!
//! Every flag is declared once, in the `FLAGS` table: its name, the value
//! placeholder `--help` shows, and how its value is checked (type or
//! choice, minimum or range, and the "expected …" text of its
//! diagnostic). `parse_opts` checks each value as it reads it and exits 2
//! on the first bad one. The `SUBCOMMANDS` table names each subcommand
//! (`generate`, `analyze`, `simulate`, `waitpred`, `gantt`, `search`,
//! `events`, `serve`, `paper` and `check-report`), its source argument and
//! the flags it reads, by name only; `qpredict --help` renders it. A flag
//! the chosen subcommand does not read exits 2 rather than being ignored,
//! and so does one its source does not read (`--jobs` for a `.swf` trace,
//! `--nodes` for a site model, `--ingest` for anything but a `.swf`
//! trace); `--report-out FILE|-` applies to every subcommand. Every byte
//! of stdout goes through `emit`, which stops writing when the reader has
//! gone and lets the run finish, so `qpredict … | head` does not panic,
//! still writes its `--out` and `--report-out` files and exits 0.
//!
//! `--ingest lenient|strict` controls SWF parsing (lenient skips and
//! reports malformed lines), and `--fault-seed N` / `--fault-pred-noise P`
//! drive the deterministic fault-injection harness during `simulate`.
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

use std::fmt::{Display, Write as _};
use std::fs;
use std::io::Write as _;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use qpredict::core::searched::curated_seed_for;
use qpredict::core::{paper, run_scheduling_with, run_wait_prediction, PredictorKind};
use qpredict::obs::json::Json;
use qpredict::obs::report::RunReport;
use qpredict::predict::OraclePredictor;
use qpredict::prelude::*;
use qpredict::search::{resume, search, CheckpointPolicy, GaConfig, PredictionWorkload, Target};
use qpredict::serve::{FsyncPolicy, Response, ServeConfig, ServeError, Service};
use qpredict::sim::{timeline_of, FaultPlan};
use qpredict::workload::{analysis, swf, synthetic, IngestPolicy};
use Check::*;

/// How a flag's value is checked.
enum Check {
    /// A switch: the flag takes no value.
    Switch,
    /// Any text: a path, or `-` for stdout.
    Text,
    /// An integer in `min..=max`: `Int(expected, min, max, below)`, where
    /// `expected` describes it and `below` says why a value under `min` is
    /// refused.
    Int(&'static str, u64, u64, &'static str),
    /// A probability in [0, 1].
    Prob,
    /// A choice, checked by its type's own parser; `Err` says why not.
    Choice(fn(&str) -> Result<(), String>),
}

const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;
const ALGS: &str = "fcfs|lwf|backfill|easy";
const INGESTS: &str = "strict|lenient";
const PREDS: &str = "actual|maxrt|smith|gibbons|downey-avg|downey-med|fallback";

/// `Ok` when `parsed` is `Some`, else why not.
fn one_of<T>(parsed: Option<T>, choices: &str) -> Result<(), String> {
    parsed
        .map(drop)
        .ok_or_else(|| format!("expected {choices}"))
}

/// Every flag: its name, the value placeholder `--help` shows (empty for a
/// switch), and how its value is checked.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, Check)] = &[
    ("--nodes", "N", Int("a node count", 1, U32, "expected a positive node count")),
    ("--jobs", "N", Int("a positive job count", 1, USIZE, "expected a positive job count")),
    ("--ingest", INGESTS, Choice(|v| one_of(IngestPolicy::parse(v), INGESTS))),
    ("--out", "FILE", Text),
    ("--alg", ALGS, Choice(|v| one_of(Algorithm::parse(v), ALGS))),
    ("--predictor", "PRED", Choice(|v| one_of(PredictorKind::parse(v), PREDS))),
    ("--fault-seed", "N", Int("an integer seed", 0, u64::MAX, "")),
    ("--fault-pred-noise", "P", Prob),
    ("--generations", "N", Int("a generation count", 1, USIZE,
        "expected a positive generation count")),
    ("--population", "N", Int("a population size (>= 4)", 4, USIZE,
        "the GA needs at least 4 individuals for parents and elites")),
    ("--seed", "N", Int("an integer seed", 0, u64::MAX, "")),
    ("--checkpoint-dir", "DIR", Text),
    ("--resume", "", Switch),
    ("--query-every", "K", Int("a job interval", 0, USIZE, "")),
    ("--shuffle", "W", Int("a shuffle window", 0, USIZE, "")),
    ("--state-dir", "DIR", Text),
    ("--horizon", "N", Int("a reorder-buffer size", 0, USIZE, "")),
    ("--snapshot-every", "N", Int("a line interval", 0, u64::MAX, "")),
    ("--fsync", "always|batch[=N]|never", Choice(|v| FsyncPolicy::parse(v).map(drop))),
    ("--max-jobs", "N", Int("a live-job cap (>= 1)", 1, USIZE,
        "the cap must admit at least one job")),
    ("--max-done", "N", Int("a done-record cap", 0, USIZE, "")),
    ("--max-history", "N", Int("a per-category cap (>= 1)", 1, U32,
        "a predictor with no history cannot predict")),
    ("--throttle-us", "N", Int("microseconds", 0, u64::MAX, "")),
    ("--threads", "N", Int("a thread count", 0, USIZE, "")),
    ("--report-out", "FILE|-", Text),
];

/// Each subcommand with its source argument and the flags it reads. Any
/// other flag exits 2, except `--report-out` and `--help`, which apply to
/// every subcommand.
#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, &str, &[&str])] = &[
    ("generate", "<ANL|CTC|SDSC95|SDSC96|toy>", &["--nodes", "--jobs", "--ingest", "--out"]),
    ("analyze", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest"]),
    ("simulate", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest", "--alg", "--predictor",
        "--fault-seed", "--fault-pred-noise"]),
    ("waitpred", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest", "--alg", "--predictor"]),
    ("gantt", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest", "--alg", "--out"]),
    ("search", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest", "--alg", "--generations",
        "--population", "--seed", "--checkpoint-dir", "--resume"]),
    ("events", "<trace.swf|site>", &["--nodes", "--jobs", "--ingest", "--query-every", "--shuffle",
        "--seed", "--out"]),
    ("serve", "<events.log|->", &["--nodes", "--predictor", "--state-dir", "--resume", "--horizon",
        "--snapshot-every", "--fsync", "--max-jobs", "--max-done", "--max-history", "--throttle-us",
        "--out"]),
    ("paper", "<EXPERIMENT>...", &["--jobs", "--threads", "--out"]),
    ("check-report", "<report.json>", &[]),
];

/// The `FLAGS` entry of `name`.
fn flag(name: &str) -> &'static (&'static str, &'static str, Check) {
    FLAGS
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in FLAGS"))
}

fn usage() -> ! {
    let shown = |name: &str| match flag(name) {
        (_, "", _) => format!("[{name}]"),
        (_, arg, _) => format!("[{name} {arg}]"),
    };
    eprintln!("usage:");
    for (cmd, source, reads) in SUBCOMMANDS {
        let flags: String = reads.iter().map(|f| format!(" {}", shown(f))).collect();
        eprintln!("  qpredict {cmd} {source}{flags}");
    }
    eprintln!(
        "every subcommand also takes {}; PRED is {PREDS}; \
         EXPERIMENT is table1..table15|compress2x|statewait|easy-ablation|warmup|\
         ga-ablation|ga-search|all",
        shown("--report-out")
    );
    exit(2)
}

/// Exit with code 2 and a pointed diagnostic — `usage()` is for "you
/// don't know the command shape", this is for "this one flag is wrong".
fn flag_error(msg: String) -> ! {
    eprintln!("qpredict: {msg}");
    exit(2)
}

/// `r`'s value, or exit 1 with `<what>: <error>`.
fn or_exit<T, E: Display>(r: Result<T, E>, what: impl Display) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        exit(1)
    })
}

/// The text of the file at `path`, or exit 1.
fn read_file(path: &str) -> String {
    or_exit(fs::read_to_string(path), format_args!("cannot read {path}"))
}

/// Write `text` to the file at `path`, or exit 1.
fn write_file(path: &str, text: &str) {
    or_exit(fs::write(path, text), format_args!("cannot write {path}"))
}

/// Serve-layer failures: configuration contradictions (stale state dir,
/// fingerprint mismatch) are usage errors (exit 2); disk failures are
/// runtime errors (exit 1).
fn serve_fail(e: ServeError) -> ! {
    match e {
        ServeError::Config(msg) => flag_error(msg),
        other => {
            eprintln!("qpredict: {other}");
            exit(1)
        }
    }
}

/// Set once a write to stdout has failed: its reader has gone.
static STDOUT_GONE: AtomicBool = AtomicBool::new(false);

/// Write `text` to stdout, the one way this program does. Once the reader
/// has gone there is no one left to tell, so stdout is left alone from
/// then on, but the run goes on: its file outputs are still written, and
/// it exits 0.
fn emit(text: &str) {
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    if stdout.write_all(text.as_bytes()).is_err() || stdout.flush().is_err() {
        STDOUT_GONE.store(true, Ordering::Relaxed);
    }
}

/// `println!` through `emit`.
macro_rules! emitln {
    ($($arg:tt)*) => { emit(&format!("{}\n", format_args!($($arg)*))) };
}

/// Exit 2 with `invalid value <shown> for <flag> (<why>)`.
fn refuse(shown: impl Display, flag: &str, why: impl Display) -> ! {
    flag_error(format!("invalid value {shown} for {flag} ({why})"))
}

/// Exit 2 unless `v` passes `check` as the value of `flag`. A value out of
/// range is shown as parsed, one that does not parse as given.
fn check_value(flag: &str, check: &Check, v: &str) {
    match check {
        Switch | Text => {}
        Int(expected, min, max, below) => match v.parse::<u64>() {
            Ok(n) if n < *min => refuse(format!("\"{n}\""), flag, below),
            Ok(n) if n <= *max => {}
            _ => refuse(format!("{v:?}"), flag, format!("expected {expected}")),
        },
        Prob => {
            let why = "expected a probability in [0, 1]";
            match v.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => {}
                Ok(p) => refuse(format!("\"{p}\""), flag, why),
                Err(_) => refuse(format!("{v:?}"), flag, why),
            }
        }
        Choice(parse) => {
            if let Err(why) = parse(v) {
                refuse(format!("{v:?}"), flag, why)
            }
        }
    }
}

/// The command line: positional arguments, then every flag given, in
/// order, with its checked value (empty for a switch).
#[derive(Default)]
struct Opts {
    positional: Vec<String>,
    given: Vec<(&'static str, String)>,
}

impl Opts {
    /// The last value given for `name`.
    fn text(&self, name: &str) -> Option<&str> {
        let name = flag(name).0; // a name not in FLAGS is a bug
        let last = self.given.iter().rev().find(|(n, _)| *n == name);
        last.map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The last value given for `name`, read by `parse` (it was checked
    /// when given, so it parses).
    fn get<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.text(name)
            .map(|v| parse(v).unwrap_or_else(|| panic!("{name} {v:?} was checked")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name, |v| v.parse().ok())
    }

    fn alg(&self) -> Algorithm {
        self.get("--alg", Algorithm::parse)
            .unwrap_or(Algorithm::Backfill)
    }

    fn predictor(&self) -> PredictorKind {
        self.get("--predictor", PredictorKind::parse)
            .unwrap_or(PredictorKind::Smith)
    }

    /// Whether `--resume` was given; exits 2 if it was without `dir`,
    /// which holds the `what` to resume from.
    fn resuming(&self, dir: &str, what: &str) -> bool {
        let resuming = self.has("--resume");
        if resuming && !self.has(dir) {
            flag_error(format!(
                "--resume requires {dir} (there is no {what} to resume from)"
            ))
        }
        resuming
    }

    /// Write `text` to `--out`, saying on stderr what `written` says of
    /// the path, or to stdout without `--out`.
    fn deliver(&self, text: &str, written: impl FnOnce(&str) -> String) {
        match self.text("--out") {
            Some(path) => {
                write_file(path, text);
                eprintln!("{}", written(path));
            }
            None => emit(text),
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => usage(),
            // A bare "-" is the conventional stdin positional (serve).
            a if a == "-" || !a.starts_with('-') => o.positional.push(a.to_string()),
            a => {
                let Some((name, _, check)) = FLAGS.iter().find(|(n, ..)| *n == a) else {
                    flag_error(format!("unknown flag {a:?} (see --help)"))
                };
                let value = match check {
                    Switch => String::new(),
                    _ => it
                        .next()
                        .unwrap_or_else(|| flag_error(format!("missing value for {name}")))
                        .clone(),
                };
                check_value(name, check, &value);
                o.given.push((*name, value));
            }
        }
    }
    if o.positional.len() < 2 {
        usage();
    }
    // A flag the subcommand never reads would be silently ignored.
    let cmd = o.positional[0].as_str();
    if let Some((_, _, reads)) = SUBCOMMANDS.iter().find(|(c, ..)| *c == cmd) {
        let unread = |f: &&str| *f != "--report-out" && !reads.contains(f);
        if let Some((f, _)) = o.given.iter().find(|(f, _)| unread(f)) {
            flag_error(format!("{f} does not apply to {cmd} (see --help)"))
        }
    }
    o
}

/// The fault plan implied by `--fault-seed` / `--fault-pred-noise`, or
/// `None` when neither flag was given.
fn fault_plan(opts: &Opts) -> Option<FaultPlan> {
    let seed = opts.num("--fault-seed");
    let noise = opts.num("--fault-pred-noise");
    (seed.is_some() || noise.is_some())
        .then(|| FaultPlan::pred_noise(seed.unwrap_or(0), noise.unwrap_or(0.0)))
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
        ("--jobs", swf && opts.has("--jobs")),
        ("--nodes", site && opts.has("--nodes")),
        ("--ingest", !swf && opts.has("--ingest")),
    ];
    if let Some((flag, _)) = unread.iter().find(|(_, given)| *given) {
        flag_error(format!("{flag} does not apply to {source}"))
    }
    let nodes = opts.num("--nodes").unwrap_or(DEFAULT_NODES);
    let jobs = opts.num("--jobs");
    if swf {
        let text = read_file(source);
        let ingest = opts
            .get("--ingest", IngestPolicy::parse)
            .unwrap_or(IngestPolicy::Strict);
        let (w, report) = swf::parse_with(source, nodes, &text, ingest).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
        if !report.is_clean() {
            eprintln!("{source}: recovered under {} ingestion:", ingest.name());
            for line in report.summary().lines() {
                eprintln!("  {line}");
            }
        }
        w
    } else if source.eq_ignore_ascii_case("toy") {
        synthetic::toy(jobs.unwrap_or(2000), nodes, 42)
    } else {
        synthetic::by_name(source, jobs).unwrap_or_else(|| {
            eprintln!(
                "unknown site {source:?} (use ANL, CTC, SDSC95, SDSC96, toy, or a .swf path)"
            );
            exit(1)
        })
    }
}

/// Validate a run report written by `--report-out`; exits 1 on a
/// malformed or inactive report.
fn check_report(path: &str) {
    let text = read_file(path);
    let report = or_exit(
        Json::parse(&text),
        format_args!("qpredict: {path} is not JSON"),
    );
    or_exit(
        qpredict::obs::report::validate(&report, true),
        format_args!("qpredict: invalid report {path}"),
    );
    let count = |key| report.get(key).and_then(Json::as_arr).map_or(0, <[_]>::len);
    let (spans, counters) = (count("spans"), count("counters"));
    emitln!("report ok: {spans} spans, {counters} counters");
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
    let report_out = opts.text("--report-out");
    if report_out.is_some() {
        qpredict::obs::set_recording(true);
        qpredict::obs::reset();
    }
    let mut report_metrics: Vec<(String, Json)> = Vec::new();
    let mut metric = |key: &str, v: f64| report_metrics.push((key.to_string(), Json::Num(v)));

    match cmd {
        "generate" => {
            let wl = load(source, &opts);
            metric("n_jobs", wl.len() as f64);
            opts.deliver(&swf::write(&wl), |path| {
                format!("{} jobs written to {path}", wl.len())
            });
        }
        "analyze" => {
            let wl = load(source, &opts);
            metric("n_jobs", wl.len() as f64);
            emitln!(
                "=== {} ===\n{}\n\n{}",
                wl.name,
                WorkloadStats::of(&wl),
                analysis::analyze(&wl)
            );
        }
        "simulate" => {
            let wl = load(source, &opts);
            let plan = fault_plan(&opts);
            let (alg, predictor) = (opts.alg(), opts.predictor());
            let run = run_scheduling_with(&wl, alg, predictor.clone(), plan.as_ref());
            let (m, errors) = (&run.metrics, &run.runtime_errors);
            metric("n_jobs", m.n_jobs as f64);
            metric("utilization_window", m.utilization_window);
            metric("mean_wait_min", m.mean_wait.minutes());
            metric("median_wait_min", m.median_wait.minutes());
            metric("mean_bounded_slowdown", m.mean_bounded_slowdown);
            if errors.count() > 0 {
                metric("runtime_mae_min", errors.mean_abs_error_min());
            }
            emitln!(
                "{} jobs under {} + {}:\n  \
                 utilization     {:.2}% (arrival window)\n  \
                 mean wait       {:.2} min\n  \
                 median wait     {:.2} min\n  \
                 max wait        {:.2} min\n  \
                 bounded slowdown {:.2}",
                m.n_jobs,
                alg.name(),
                predictor.name(),
                100.0 * m.utilization_window,
                m.mean_wait.minutes(),
                m.median_wait.minutes(),
                m.max_wait.minutes(),
                m.mean_bounded_slowdown
            );
            if errors.count() > 0 {
                emitln!(
                    "  run-time predictions: {} made, MAE {:.2} min ({:.0}% of mean run time)",
                    errors.count(),
                    errors.mean_abs_error_min(),
                    errors.pct_of_mean_actual()
                );
            }
            if let Some(d) = &run.degradations {
                emitln!("  predictor degradation:");
                for line in d.summary().lines() {
                    emitln!("    {line}");
                }
            }
            if let Some(f) = &run.faults {
                emitln!(
                    "  faults injected (seed {}): {} cancelled, {} failed, {} delayed; \
                     estimates: {} scaled, {} inverted, {} dropped",
                    plan.as_ref().map_or(0, |p| p.seed),
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
            let (alg, predictor) = (opts.alg(), opts.predictor());
            let run = run_wait_prediction(&wl, alg, predictor.clone());
            let (waits, runtimes) = (&run.wait_errors, &run.runtime_errors);
            metric("n_jobs", wl.len() as f64);
            metric("wait_mae_min", waits.mean_abs_error_min());
            metric("runtime_mae_min", runtimes.mean_abs_error_min());
            emitln!(
                "wait-time prediction on {} under {} + {}:\n  \
                 wait MAE     {:.2} min ({:.0}% of mean wait {:.2} min)\n  \
                 run-time MAE {:.2} min ({:.0}% of mean run time)",
                wl.name,
                alg.name(),
                predictor.name(),
                waits.mean_abs_error_min(),
                waits.pct_of_mean_actual(),
                waits.mean_actual_min(),
                runtimes.mean_abs_error_min(),
                runtimes.pct_of_mean_actual()
            );
        }
        "gantt" => {
            let wl = load(source, &opts);
            let (timeline, result) = timeline_of(&wl, opts.alg(), &mut OraclePredictor);
            let n = result.outcomes.len();
            metric("n_jobs", n as f64);
            opts.deliver(&timeline.jobs_csv(), |path| {
                format!("{n} intervals written to {path} ({})", result.metrics)
            });
        }
        "search" => {
            let resuming = opts.resuming("--checkpoint-dir", "checkpoint");
            let wl = load(source, &opts);
            let defaults = GaConfig::default();
            let ga = GaConfig {
                generations: opts.num("--generations").unwrap_or(defaults.generations),
                population: opts.num("--population").unwrap_or(defaults.population),
                seed: opts.num("--seed").unwrap_or(defaults.seed),
                seeds: vec![curated_seed_for(&wl)],
                ..defaults
            };
            let threads = qpredict::obs::default_threads();
            let checkpoint = opts
                .text("--checkpoint-dir")
                .map(CheckpointPolicy::every_generation);
            let alg = opts.alg();
            let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(alg), 4);
            let run = match &checkpoint {
                Some(policy) if resuming => resume(&wl, &pw, &ga, threads, policy),
                _ => search(&wl, &pw, &ga, threads, checkpoint.as_ref()),
            };
            // A checkpoint that cannot be resumed is a usage error; a fresh
            // run that cannot write one failed at run time, like `serve_fail`.
            let r = match run {
                Err(e) if resuming => flag_error(format!("cannot resume search: {e}")),
                run => or_exit(run, "qpredict: cannot write search checkpoint"),
            };
            metric("best_error_min", r.best_error_min);
            metric("evaluations", r.evaluations as f64);
            metric("generations", ga.generations as f64);
            emitln!(
                "template search on {} under {} ({} generations x {} individuals):\n  \
                 best MAE     {:.2} min",
                wl.name,
                alg.name(),
                ga.generations,
                ga.population,
                r.best_error_min
            );
            if let (Some(first), Some(last)) = (r.error_history.first(), r.error_history.last()) {
                emitln!("  convergence  {first:.2} -> {last:.2} min");
            }
            emitln!(
                "  evaluations  {}\n  best set     {}\n  resumes      {}",
                r.evaluations,
                r.best,
                r.resumes
            );
            if let Some(g) = r.resumed_from {
                emitln!("  resumed from generation {g}");
            }
            if let Some(p) = &checkpoint {
                emitln!("  checkpoint   {}", p.file().display());
            }
        }
        "events" => {
            let wl = load(source, &opts);
            let query_every = opts.num("--query-every").unwrap_or(10);
            let mut events = qpredict::sim::realized_events(&wl, query_every);
            // Optional deterministic disorder: shuffle within blocks of
            // `--shuffle` events, bounding every event's displacement
            // below the window so a serve --horizon >= W recovers the
            // canonical order exactly.
            if let Some(w) = opts.num("--shuffle").filter(|w: &usize| *w > 1) {
                let seed = opts.num("--seed").unwrap_or(42);
                let mut rng = qpredict::workload::Rng64::seed_from_u64(seed);
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
            opts.deliver(&text, |path| {
                format!("{} events written to {path}", events.len())
            });
        }
        "serve" => {
            let resuming = opts.resuming("--state-dir", "durable state");
            let d = ServeConfig::default();
            let cfg = ServeConfig {
                predictor: opts.predictor(),
                machine_nodes: opts.num("--nodes").unwrap_or(DEFAULT_NODES),
                horizon: opts.num("--horizon").unwrap_or(d.horizon),
                max_history: opts.num("--max-history").unwrap_or(d.max_history),
                max_jobs: opts.num("--max-jobs").unwrap_or(d.max_jobs),
                max_done: opts.num("--max-done").unwrap_or(d.max_done),
                snapshot_every: opts.num("--snapshot-every").unwrap_or(d.snapshot_every),
                fsync: opts
                    .get("--fsync", |v| FsyncPolicy::parse(v).ok())
                    .unwrap_or(d.fsync),
            };
            let state_dir = opts.text("--state-dir").map(std::path::Path::new);
            let out_path = opts.text("--out").map(std::path::Path::new);
            let mut svc =
                Service::open(cfg, state_dir, out_path, resuming).unwrap_or_else(|e| serve_fail(e));
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
            // Without --out, responses go to stdout as they are made.
            let respond = |fresh: Vec<Response>| {
                if out_path.is_none() {
                    for r in &fresh {
                        emitln!("resp {} {}", r.ordinal, r.line);
                    }
                }
            };
            let throttle = opts.num("--throttle-us").filter(|us: &u64| *us > 0);
            let run = |svc: &mut Service, reader: &mut dyn std::io::BufRead| {
                let mut line = String::new();
                loop {
                    line.clear();
                    let read = reader.read_line(&mut line);
                    if or_exit(read, "qpredict: cannot read event stream") == 0 {
                        break;
                    }
                    if let Some(us) = throttle {
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                    let fed = svc.feed_line(line.trim_end_matches(['\n', '\r']));
                    respond(fed.unwrap_or_else(|e| serve_fail(e)));
                }
            };
            if source == "-" {
                run(&mut svc, &mut std::io::stdin().lock());
            } else {
                let file = or_exit(fs::File::open(source), format_args!("cannot read {source}"));
                run(&mut svc, &mut std::io::BufReader::new(file));
            }
            respond(svc.finish().unwrap_or_else(|e| serve_fail(e)));
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
            let threads = opts
                .num("--threads")
                .unwrap_or_else(qpredict::obs::default_threads);
            let jobs = opts.num("--jobs");
            let scale = jobs.map_or("Full".to_string(), |n| format!("Jobs({n})"));
            let t0 = Instant::now();
            eprintln!("generating workloads ({scale}, {threads} threads)...");
            let wls = paper::workloads(jobs);
            eprintln!("[workloads: {}]", human_secs(t0.elapsed().as_secs_f64()));
            let mut report = format!(
                "# qpredict experiment data\n\nScale: {scale}; threads: {threads}.\n\n\
                 Predictors: {}.\n\n",
                PredictorKind::ALL.map(|k| k.name()).join(", ")
            );
            for w in &what {
                let started = Instant::now();
                let table = paper::run(w, &wls, threads);
                emitln!("{table}");
                let _ = writeln!(report, "{}", table.to_markdown());
                eprintln!("[{w}: {}]", human_secs(started.elapsed().as_secs_f64()));
            }
            metric("experiments", what.len() as f64);
            if let Some(path) = opts.text("--out") {
                write_file(path, &report);
                eprintln!("report written to {path}");
            }
            eprintln!("[total: {}]", human_secs(t0.elapsed().as_secs_f64()));
        }
        _ => usage(),
    }

    if let Some(dest) = report_out {
        let mut report = RunReport::new(cmd, &argv);
        for (k, v) in report_metrics {
            report.metric(&k, v);
        }
        let text = report.to_json(&qpredict::obs::snapshot()).to_pretty();
        qpredict::obs::set_recording(false);
        if dest == "-" {
            emit(&text);
        } else {
            let path = std::path::Path::new(dest);
            let written = qpredict::durable::write_atomic(path, &text, "report.tmp");
            or_exit(written, format_args!("cannot write report {dest}"));
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
