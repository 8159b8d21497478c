//! Regenerate the paper's tables.
//!
//! ```text
//! paper [--jobs N|--jobs full] [--threads T] [--out FILE] <what>...
//!
//! what: table1 table2 table3 table4 ... table15 compress2x statewait
//!       easy-ablation warmup ga-ablation ga-search all
//! ```
//!
//! Flag errors and unknown experiment names exit 2 with a one-line
//! diagnostic before any workload is generated.
//!
//! `all` regenerates tables 1–15 plus the compressed-SDSC experiment.
//! Tables go to stdout. `--out FILE` also writes them as a markdown
//! report (the committed `experiments_data.md` is one); without it no
//! file is written.
//! `ga-search` runs the genetic template search per workload and prints
//! the winning template sets (expensive; scale with `--jobs`).

use std::fmt::Write as _;
use std::time::Instant;

use qpredict_bench::{human_secs, parse_scale};
use qpredict_core::paper::{self, Scale};
use qpredict_core::tables::Table;
use qpredict_core::PredictorKind;
use qpredict_obs::{default_threads, par_map};
use qpredict_search::{
    greedy_search, search_supervised, GaConfig, GreedyConfig, PredictionWorkload, SupervisorConfig,
    Target,
};
use qpredict_sim::Algorithm;
use qpredict_workload::Workload;

struct Args {
    scale: Scale,
    threads: usize,
    out: Option<String>,
    what: Vec<String>,
}

/// Report a usage error on one line and exit 2.
fn usage_error(msg: String) -> ! {
    eprintln!("paper: {msg}");
    std::process::exit(2)
}

/// Parse the value after `flag`, or exit with a usage error when it is
/// missing or `parse` rejects it.
fn flag<T>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| usage_error(format!("missing value for {flag}")));
    parse(&v).unwrap_or_else(|| {
        usage_error(format!(
            "invalid value {v:?} for {flag} (expected {expected})"
        ))
    })
}

/// What `all` runs: every table, then the extension experiments.
fn all() -> impl Iterator<Item = String> {
    let extensions = ["compress2x", "statewait", "easy-ablation", "warmup"];
    (1..=15)
        .map(|i| format!("table{i}"))
        .chain(extensions.map(String::from))
}

fn is_experiment(what: &str) -> bool {
    matches!(what, "all" | "ga-ablation" | "ga-search") || all().any(|w| w == what)
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Full,
        threads: default_threads(),
        out: None,
        what: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.scale = flag(&mut it, "--jobs", "`full` or a count", parse_scale),
            "--threads" => args.threads = flag(&mut it, "--threads", "a count", |v| v.parse().ok()),
            "--out" => args.out = Some(flag(&mut it, "--out", "a path", |v| Some(v.into()))),
            "--help" | "-h" => {
                eprintln!(
                    "usage: paper [--jobs N|full] [--threads T] [--out FILE] \
                     <table1..table15|compress2x|statewait|easy-ablation|\
                     warmup|ga-ablation|ga-search|all>..."
                );
                std::process::exit(0);
            }
            other if is_experiment(other) => args.what.push(other.to_string()),
            other => usage_error(format!("unknown experiment {other:?}; see --help")),
        }
    }
    if args.what.is_empty() {
        args.what.push("all".to_string());
    }
    args
}

fn emit(report: &mut String, t: &Table) {
    println!("{t}");
    let _ = writeln!(report, "{}", t.to_markdown());
}

fn run_one(what: &str, wls: &[Workload], threads: usize, report: &mut String) {
    let started = Instant::now();
    match what {
        "table1" => emit(report, &paper::table1(wls)),
        "table2" => emit(report, &paper::table2(wls)),
        "table3" => emit(report, &paper::table3()),
        "table4" | "table5" | "table6" | "table7" | "table8" | "table9" => {
            let n: u8 = what[5..].parse().expect("table number");
            emit(report, &paper::wait_table(n, wls, threads));
        }
        "table10" | "table11" | "table12" | "table13" | "table14" | "table15" => {
            let n: u8 = what[5..].parse().expect("table number");
            emit(report, &paper::sched_table(n, wls, threads));
        }
        "compress2x" => emit(report, &paper::compress2x(wls, threads)),
        "ga-ablation" => emit(report, &ga_ablation(wls, threads)),
        "ga-search" => emit(report, &ga_search(wls, threads)),
        "statewait" => emit(report, &statewait_table(wls, threads)),
        "easy-ablation" => emit(report, &easy_ablation(wls, threads)),
        "warmup" => emit(report, &warmup_table(wls, threads)),
        other => unreachable!("parse_args admits only known experiments, not {other:?}"),
    }
    eprintln!("[{what}: {}]", human_secs(started.elapsed().as_secs_f64()));
}

/// Search-strategy ablation (DESIGN.md `ga-ablation`): default templates
/// vs greedy search vs the GA, scored on the ANL wait-prediction stream.
fn ga_ablation(wls: &[Workload], threads: usize) -> Table {
    let wl = &wls[0]; // ANL
    let pw = PredictionWorkload::build_capped(wl, Target::WaitPrediction(Algorithm::Lwf), 30_000);
    let mut t = Table::new(
        "ga-ablation",
        format!(
            "Template-search ablation on {} ({} predictions): run-time MAE",
            wl.name, pw.n_predictions
        ),
        &["Strategy", "RT MAE (min)", "Templates", "Evaluations"],
    );

    let curated = qpredict_core::searched::curated_seed_for(wl);
    let e = qpredict_search::evaluate(&curated, wl, &pw);
    t.push_row(vec![
        "curated seed".into(),
        format!("{:.2}", e.mean_abs_error_min()),
        curated.len().to_string(),
        "1".into(),
    ]);
    let shipped = qpredict_core::searched::set_for(wl);
    let e = qpredict_search::evaluate(&shipped, wl, &pw);
    t.push_row(vec![
        "shipped GA set".into(),
        format!("{:.2}", e.mean_abs_error_min()),
        shipped.len().to_string(),
        "1".into(),
    ]);

    let (greedy_set, _, evaluations) = greedy_search(
        wl,
        &pw,
        &GreedyConfig {
            max_templates: 6,
            threads,
        },
    );
    let e = qpredict_search::evaluate(&greedy_set, wl, &pw);
    t.push_row(vec![
        "greedy".into(),
        format!("{:.2}", e.mean_abs_error_min()),
        greedy_set.len().to_string(),
        evaluations.to_string(),
    ]);

    let cfg = GaConfig {
        population: 24,
        generations: 12,
        seeds: vec![curated],
        ..GaConfig::default()
    };
    let sup = SupervisorConfig {
        threads,
        ..SupervisorConfig::default()
    };
    let ga = search_supervised(wl, &pw, &cfg, &sup, None)
        .expect("unfaulted search is clean")
        .result;
    t.push_row(vec![
        "genetic algorithm".into(),
        format!("{:.2}", ga.best_error_min),
        ga.best.len().to_string(),
        ga.evaluations.to_string(),
    ]);
    t
}

/// Run the GA per workload, validate the winner against the curated set
/// on a held-out stream, and print the better set (plus paste-ready Rust
/// for `qpredict-predict/src/searched.rs`).
fn ga_search(wls: &[Workload], threads: usize) -> Table {
    let mut t = Table::new(
        "ga-search",
        "Genetic template search per workload (train/validate on wait-prediction streams)",
        &[
            "Workload",
            "Curated val MAE",
            "GA val MAE",
            "Winner",
            "Health",
        ],
    );
    for wl in wls {
        let train =
            PredictionWorkload::build_capped(wl, Target::WaitPrediction(Algorithm::Lwf), 30_000);
        // Held-out validation: the stream a *backfill* scheduler demands
        // (different instants, includes running jobs).
        let val = PredictionWorkload::build_capped(
            wl,
            Target::WaitPrediction(Algorithm::Backfill),
            30_000,
        );
        let curated = qpredict_core::searched::curated_seed_for(wl);
        let cfg = GaConfig {
            population: 28,
            generations: 20,
            seeds: vec![curated.clone()],
            ..GaConfig::default()
        };
        let sup = SupervisorConfig {
            threads,
            ..SupervisorConfig::default()
        };
        let supervised =
            search_supervised(wl, &train, &cfg, &sup, None).expect("unfaulted search is clean");
        let (r, health) = (supervised.result, supervised.health);
        let curated_val = qpredict_search::evaluate(&curated, wl, &val).mean_abs_error_min();
        let ga_val = qpredict_search::evaluate(&r.best, wl, &val).mean_abs_error_min();
        let ga_wins = ga_val < curated_val;
        t.push_row(vec![
            wl.name.clone(),
            format!("{curated_val:.2}"),
            format!("{ga_val:.2}"),
            if ga_wins { "GA" } else { "curated" }.to_string(),
            format!(
                "{} attempts, {} retries, {} quarantined",
                health.attempts, health.retries, health.quarantined
            ),
        ]);
        if ga_wins {
            eprintln!(
                "// {}: GA set (val MAE {ga_val:.2} min vs curated {curated_val:.2})",
                wl.name
            );
            eprintln!("{}", set_to_rust(&r.best));
        }
    }
    t
}

/// Extension experiment (the paper's stated future work): the
/// state-based wait-time predictor vs the simulation-based technique,
/// on the algorithm where the paper hoped it would help — LWF, whose
/// simulation-based predictions carry a large built-in error.
fn statewait_table(wls: &[Workload], threads: usize) -> Table {
    use qpredict_core::{run_state_wait_prediction, run_wait_prediction};
    let algs = [Algorithm::Lwf, Algorithm::Backfill];
    let cells = wls
        .iter()
        .flat_map(|w| algs.iter().map(move |&alg| (w, alg)));
    let outcomes = par_map(cells.collect(), threads, |_, (w, alg)| {
        let sim = run_wait_prediction(w, alg, PredictorKind::Smith);
        let state = run_state_wait_prediction(w, alg, PredictorKind::Smith);
        (sim, state)
    });
    let mut t = Table::new(
        "statewait",
        "Future-work extension: state-based vs simulation-based wait prediction (MAE min / % of mean wait)",
        &[
            "Workload",
            "Algorithm",
            "Simulation MAE",
            "Sim %",
            "State MAE",
            "State %",
        ],
    );
    for (sim, state) in outcomes {
        t.push_row(vec![
            sim.workload.clone(),
            sim.algorithm.name().to_string(),
            format!("{:.2}", sim.wait_errors.mean_abs_error_min()),
            format!("{:.0}", sim.wait_errors.pct_of_mean_actual()),
            format!("{:.2}", state.wait_errors.mean_abs_error_min()),
            format!("{:.0}", state.wait_errors.pct_of_mean_actual()),
        ]);
    }
    t
}

/// Extension: the paper's suggested training-set fix for the cold-start
/// ramp-up. Evaluates the Smith predictor on each trace's second half,
/// cold vs pre-trained on the first half.
fn warmup_table(wls: &[Workload], threads: usize) -> Table {
    use qpredict_core::{run_wait_prediction, run_wait_prediction_warm};
    let outcomes = par_map(wls.iter().collect(), threads, |_, w| {
        let half = w.len() / 2;
        let eval = w.suffix(half);
        let cold = run_wait_prediction(&eval, Algorithm::Backfill, PredictorKind::Smith);
        let warm = run_wait_prediction_warm(w, Algorithm::Backfill, PredictorKind::Smith, half);
        (cold, warm)
    });
    let mut t = Table::new(
        "warmup",
        "Cold start vs training-set initialization (Smith, backfill, second half of each trace)",
        &[
            "Workload",
            "Cold RT MAE",
            "Warm RT MAE",
            "Cold wait MAE",
            "Warm wait MAE",
        ],
    );
    for (w, (cold, warm)) in wls.iter().zip(outcomes) {
        t.push_row(vec![
            w.name.clone(),
            format!("{:.2}", cold.runtime_errors.mean_abs_error_min()),
            format!("{:.2}", warm.runtime_errors.mean_abs_error_min()),
            format!("{:.2}", cold.wait_errors.mean_abs_error_min()),
            format!("{:.2}", warm.wait_errors.mean_abs_error_min()),
        ]);
    }
    t
}

/// Ablation: the paper's conservative backfill vs EASY backfill, under
/// maximum run times and under the Smith predictor.
fn easy_ablation(wls: &[Workload], threads: usize) -> Table {
    use qpredict_core::run_scheduling;
    let kinds = [PredictorKind::MaxRuntime, PredictorKind::Smith];
    let algs = [Algorithm::Backfill, Algorithm::EasyBackfill];
    let mut cells = Vec::new();
    for w in wls {
        for kind in &kinds {
            for &alg in &algs {
                cells.push((w, kind, alg));
            }
        }
    }
    let outcomes = par_map(cells, threads, |_, (w, kind, alg)| {
        run_scheduling(w, alg, kind.clone())
    });
    let mut t = Table::new(
        "easy-ablation",
        "Backfill flavour ablation: conservative (paper) vs EASY mean waits (min)",
        &["Workload", "Predictor", "Conservative", "EASY"],
    );
    let mut it = outcomes.into_iter();
    for w in wls {
        for kind in &kinds {
            let cons = it.next().expect("grid shape");
            let easy = it.next().expect("grid shape");
            t.push_row(vec![
                w.name.clone(),
                kind.name().to_string(),
                format!("{:.2}", cons.metrics.mean_wait.minutes()),
                format!("{:.2}", easy.metrics.mean_wait.minutes()),
            ]);
        }
    }
    t
}

/// Render a template set as paste-ready Rust for `searched.rs`.
fn set_to_rust(set: &qpredict_predict::TemplateSet) -> String {
    use std::fmt::Write;
    let mut out = String::from("TemplateSet::new(vec![\n");
    for t in set.templates() {
        let chars: Vec<String> = t.chars.iter().map(|c| format!("C::{c:?}")).collect();
        let _ = write!(out, "    Template::mean_over(&[{}])", chars.join(", "));
        match t.estimator {
            qpredict_predict::EstimatorKind::Mean => {}
            other => {
                let _ = write!(out, ".with_estimator(EstimatorKind::{other:?})");
            }
        }
        if let Some(k) = t.node_range_log2 {
            let _ = write!(out, ".with_node_range({k})");
        }
        if let Some(h) = t.max_history {
            let _ = write!(out, ".with_max_history({h})");
        }
        if t.relative {
            let _ = write!(out, ".relative()");
        }
        if t.use_rtime {
            let _ = write!(out, ".with_rtime()");
        }
        let _ = writeln!(out, ",");
    }
    out.push_str("])");
    out
}

fn main() {
    let args = parse_args();
    let what: Vec<String> = if args.what.iter().any(|w| w == "all") {
        all().collect()
    } else {
        args.what.clone()
    };

    let t0 = Instant::now();
    eprintln!(
        "generating workloads ({:?}, {} threads)...",
        args.scale, args.threads
    );
    let wls = paper::workloads(args.scale);
    eprintln!("[workloads: {}]", human_secs(t0.elapsed().as_secs_f64()));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# qpredict experiment data\n\nScale: {:?}; threads: {}.\n",
        args.scale, args.threads
    );
    // Oracle predictor sanity marker for the report.
    let _ = writeln!(
        report,
        "Predictors: {}.\n",
        PredictorKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    for w in &what {
        run_one(w, &wls, args.threads, &mut report);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, &report).expect("write report");
        eprintln!("report written to {path}");
    }
    eprintln!("[total: {}]", human_secs(t0.elapsed().as_secs_f64()));
}
