//! Regeneration of the paper's tables.
//!
//! One function per quantitative table (4–15), plus the descriptive
//! Tables 1–3, the in-text "compressed SDSC" experiment of Section 4 and
//! the extension experiments (the state-based wait predictor the paper
//! leaves to future work, a warm-start study, an EASY-backfill ablation
//! and the template-search experiments). [`run`] runs one by name; `qpredict
//! paper` is its command line. Each quantitative table carries the
//! paper's published values alongside the measured ones; since our
//! traces are synthetic stand-ins, the comparison is about *shape* (who
//! wins, by roughly what factor), not absolute numbers — see
//! EXPERIMENTS.md.

use qpredict_obs::par_map;
use qpredict_predict::{EstimatorKind, TemplateSet};
use qpredict_search::{
    greedy_search, replay, search, GaConfig, GreedyConfig, PredictionWorkload, Target,
};
use qpredict_sim::Algorithm;
use qpredict_workload::{compress_interarrivals, synthetic, Workload, WorkloadStats};

use crate::scheduling::run_scheduling;
use crate::searched::{curated_seed_for, set_for};
use crate::statewait::run_state_wait_prediction;
use crate::tables::Table;
use crate::waittime::{run_wait_prediction, run_wait_prediction_warm};
use crate::PredictorKind;

/// What `all` runs, in order: every table, then the extension
/// experiments. The template-search experiments are left out (they take
/// minutes at full size).
pub const ALL: [&str; 19] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "table14",
    "table15",
    "compress2x",
    "statewait",
    "easy-ablation",
    "warmup",
];

/// Whether [`run`] knows the experiment `what`.
pub fn is_experiment(what: &str) -> bool {
    ALL.contains(&what) || matches!(what, "ga-ablation" | "ga-search")
}

/// Run the experiment named `what` over `wls`, on `threads` workers.
///
/// # Panics
/// Panics if `what` is not an experiment ([`is_experiment`]).
pub fn run(what: &str, wls: &[Workload], threads: usize) -> Table {
    match what {
        "table1" => table1(wls),
        "table2" => table2(wls),
        "table3" => table3(),
        "compress2x" => compress2x(wls, threads),
        "statewait" => statewait(wls, threads),
        "easy-ablation" => easy_ablation(wls, threads),
        "warmup" => warmup(wls, threads),
        "ga-ablation" => ga_ablation(wls, threads),
        "ga-search" => ga_search(wls, threads),
        _ => match what.strip_prefix("table").and_then(|n| n.parse().ok()) {
            Some(n @ 4..=9) => wait_table(n, wls, threads),
            Some(n @ 10..=15) => sched_table(n, wls, threads),
            _ => panic!("unknown experiment {what:?}"),
        },
    }
}

/// Generate the four paper workloads, in the paper's order (ANL, CTC,
/// SDSC95, SDSC96): at their full Table 1 sizes, or with `jobs` jobs
/// each ([`synthetic::by_name`]).
pub fn workloads(jobs: Option<usize>) -> Vec<Workload> {
    synthetic::ALL_SITES
        .iter()
        .map(|name| synthetic::by_name(name, jobs).expect("known site"))
        .collect()
}

/// The predictor each paper table studies.
pub fn table_predictor(table: u8) -> PredictorKind {
    match table {
        4 | 10 => PredictorKind::Actual,
        5 | 11 => PredictorKind::MaxRuntime,
        6 | 12 => PredictorKind::Smith,
        7 | 13 => PredictorKind::Gibbons,
        8 | 14 => PredictorKind::DowneyAverage,
        9 | 15 => PredictorKind::DowneyMedian,
        _ => panic!("tables 4..=15 map to predictors, got {table}"),
    }
}

// ---------------------------------------------------------------------
// Descriptive tables 1-3.
// ---------------------------------------------------------------------

/// Table 1: characteristics of the (synthetic) traces, with the paper's
/// reference values.
pub fn table1(wls: &[Workload]) -> Table {
    const REF: [(&str, &str, u32, usize, f64); 4] = [
        ("ANL", "IBM SP2", 80, 7994, 97.75),
        ("CTC", "IBM SP2", 512, 13_217, 171.14),
        ("SDSC95", "Intel Paragon", 400, 22_885, 108.21),
        ("SDSC96", "Intel Paragon", 400, 22_337, 166.98),
    ];
    let mut t = Table::new(
        "table1",
        "Characteristics of the trace data (paper values in parentheses)",
        &[
            "Workload",
            "System",
            "Nodes",
            "Requests",
            "Mean RT (min)",
            "Offered load",
        ],
    );
    for w in wls {
        let s = WorkloadStats::of(w);
        let r = REF
            .iter()
            .find(|r| r.0 == w.name)
            .copied()
            .unwrap_or(("?", "?", 0, 0, 0.0));
        t.push_row(vec![
            w.name.clone(),
            r.1.to_string(),
            format!("{} ({})", w.machine_nodes, r.2),
            format!("{} ({})", s.requests, r.3),
            format!("{:.2} ({:.2})", s.mean_runtime_min, r.4),
            format!("{:.3}", s.offered_load),
        ]);
    }
    t
}

/// Table 2: which characteristics each workload records.
pub fn table2(wls: &[Workload]) -> Table {
    let mut cols = vec!["Characteristic".to_string()];
    for w in wls {
        cols.push(w.name.clone());
    }
    let cols_ref: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("table2", "Characteristics recorded in workloads", &cols_ref);
    for c in qpredict_workload::CHARACTERISTICS {
        let mut row = vec![format!("{} ({})", c.name(), c.abbrev())];
        for w in wls {
            row.push(if w.records(c) { "Y".into() } else { "".into() });
        }
        t.push_row(row);
    }
    let mut row = vec!["Maximum run time".to_string()];
    for w in wls {
        row.push(if w.records_max_runtime() {
            "Y".into()
        } else {
            "".into()
        });
    }
    t.push_row(row);
    t
}

/// Table 3: Gibbons' fixed templates (static).
pub fn table3() -> Table {
    let mut t = Table::new(
        "table3",
        "Templates used by Gibbons for run-time prediction",
        &["Number", "Template", "Predictor"],
    );
    for (i, (tpl, pred)) in [
        ("(u,e,n,rtime)", "mean"),
        ("(u,e)", "linear regression"),
        ("(e,n,rtime)", "mean"),
        ("(e)", "linear regression"),
        ("(n,rtime)", "mean"),
        ("()", "linear regression"),
    ]
    .iter()
    .enumerate()
    {
        t.push_row(vec![(i + 1).to_string(), tpl.to_string(), pred.to_string()]);
    }
    t
}

// ---------------------------------------------------------------------
// Paper reference values for tables 4-15.
// ---------------------------------------------------------------------

/// Published wait-time prediction row: mean error (minutes) and error as
/// a percentage of mean wait time.
#[derive(Debug, Clone, Copy)]
pub struct WaitRef {
    /// Workload name.
    pub workload: &'static str,
    /// Algorithm name.
    pub alg: &'static str,
    /// Paper's mean error, minutes.
    pub err_min: f64,
    /// Paper's error as % of mean wait.
    pub pct: f64,
}

const fn wr(workload: &'static str, alg: &'static str, err_min: f64, pct: f64) -> WaitRef {
    WaitRef {
        workload,
        alg,
        err_min,
        pct,
    }
}

/// Paper Table 4 (actual run times).
pub const TABLE4_REF: &[WaitRef] = &[
    wr("ANL", "LWF", 37.14, 43.0),
    wr("ANL", "Backfill", 5.84, 3.0),
    wr("CTC", "LWF", 4.05, 39.0),
    wr("CTC", "Backfill", 2.62, 10.0),
    wr("SDSC95", "LWF", 5.83, 39.0),
    wr("SDSC95", "Backfill", 1.12, 4.0),
    wr("SDSC96", "LWF", 3.32, 42.0),
    wr("SDSC96", "Backfill", 0.30, 3.0),
];

/// Paper Table 5 (maximum run times).
pub const TABLE5_REF: &[WaitRef] = &[
    wr("ANL", "FCFS", 996.67, 186.0),
    wr("ANL", "LWF", 97.12, 112.0),
    wr("ANL", "Backfill", 429.05, 242.0),
    wr("CTC", "FCFS", 125.36, 128.0),
    wr("CTC", "LWF", 9.86, 94.0),
    wr("CTC", "Backfill", 51.16, 190.0),
    wr("SDSC95", "FCFS", 162.72, 295.0),
    wr("SDSC95", "LWF", 28.56, 191.0),
    wr("SDSC95", "Backfill", 93.81, 333.0),
    wr("SDSC96", "FCFS", 47.83, 288.0),
    wr("SDSC96", "LWF", 14.19, 180.0),
    wr("SDSC96", "Backfill", 39.66, 350.0),
];

/// Paper Table 6 (the Smith predictor).
pub const TABLE6_REF: &[WaitRef] = &[
    wr("ANL", "FCFS", 161.49, 30.0),
    wr("ANL", "LWF", 44.75, 51.0),
    wr("ANL", "Backfill", 75.55, 43.0),
    wr("CTC", "FCFS", 30.84, 31.0),
    wr("CTC", "LWF", 5.74, 55.0),
    wr("CTC", "Backfill", 11.37, 42.0),
    wr("SDSC95", "FCFS", 20.34, 37.0),
    wr("SDSC95", "LWF", 8.72, 58.0),
    wr("SDSC95", "Backfill", 12.49, 44.0),
    wr("SDSC96", "FCFS", 9.74, 59.0),
    wr("SDSC96", "LWF", 4.66, 59.0),
    wr("SDSC96", "Backfill", 5.03, 44.0),
];

/// Paper Table 7 (Gibbons).
pub const TABLE7_REF: &[WaitRef] = &[
    wr("ANL", "FCFS", 350.86, 66.0),
    wr("ANL", "LWF", 76.23, 91.0),
    wr("ANL", "Backfill", 94.01, 53.0),
    wr("CTC", "FCFS", 81.45, 83.0),
    wr("CTC", "LWF", 32.34, 309.0),
    wr("CTC", "Backfill", 13.57, 50.0),
    wr("SDSC95", "FCFS", 54.37, 99.0),
    wr("SDSC95", "LWF", 11.60, 78.0),
    wr("SDSC95", "Backfill", 20.27, 72.0),
    wr("SDSC96", "FCFS", 22.36, 135.0),
    wr("SDSC96", "LWF", 6.88, 87.0),
    wr("SDSC96", "Backfill", 17.31, 153.0),
];

/// Paper Table 8 (Downey, conditional average).
pub const TABLE8_REF: &[WaitRef] = &[
    wr("ANL", "FCFS", 443.45, 83.0),
    wr("ANL", "LWF", 232.24, 277.0),
    wr("ANL", "Backfill", 339.10, 191.0),
    wr("CTC", "FCFS", 65.22, 66.0),
    wr("CTC", "LWF", 14.78, 141.0),
    wr("CTC", "Backfill", 17.22, 64.0),
    wr("SDSC95", "FCFS", 187.73, 340.0),
    wr("SDSC95", "LWF", 35.84, 240.0),
    wr("SDSC95", "Backfill", 62.96, 223.0),
    wr("SDSC96", "FCFS", 83.62, 503.0),
    wr("SDSC96", "LWF", 28.42, 361.0),
    wr("SDSC96", "Backfill", 47.11, 415.0),
];

/// Paper Table 9 (Downey, conditional median).
pub const TABLE9_REF: &[WaitRef] = &[
    wr("ANL", "FCFS", 534.71, 100.0),
    wr("ANL", "LWF", 254.91, 304.0),
    wr("ANL", "Backfill", 410.57, 232.0),
    wr("CTC", "FCFS", 83.33, 85.0),
    wr("CTC", "LWF", 15.47, 148.0),
    wr("CTC", "Backfill", 19.35, 72.0),
    wr("SDSC95", "FCFS", 62.67, 114.0),
    wr("SDSC95", "LWF", 18.28, 122.0),
    wr("SDSC95", "Backfill", 27.52, 98.0),
    wr("SDSC96", "FCFS", 34.23, 206.0),
    wr("SDSC96", "LWF", 12.65, 161.0),
    wr("SDSC96", "Backfill", 20.70, 183.0),
];

/// Published scheduling-performance row.
#[derive(Debug, Clone, Copy)]
pub struct SchedRef {
    /// Workload name.
    pub workload: &'static str,
    /// Algorithm name.
    pub alg: &'static str,
    /// Paper's utilization, percent.
    pub util_pct: f64,
    /// Paper's mean wait, minutes.
    pub wait_min: f64,
}

const fn sr(workload: &'static str, alg: &'static str, util_pct: f64, wait_min: f64) -> SchedRef {
    SchedRef {
        workload,
        alg,
        util_pct,
        wait_min,
    }
}

/// Paper Table 10 (actual run times).
pub const TABLE10_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 70.34, 61.20),
    sr("ANL", "Backfill", 71.04, 142.45),
    sr("CTC", "LWF", 51.28, 11.15),
    sr("CTC", "Backfill", 51.28, 23.75),
    sr("SDSC95", "LWF", 41.14, 14.48),
    sr("SDSC95", "Backfill", 41.14, 21.98),
    sr("SDSC96", "LWF", 46.79, 6.80),
    sr("SDSC96", "Backfill", 46.79, 10.42),
];

/// Paper Table 11 (maximum run times).
pub const TABLE11_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 70.70, 83.81),
    sr("ANL", "Backfill", 71.04, 177.14),
    sr("CTC", "LWF", 51.28, 10.48),
    sr("CTC", "Backfill", 51.28, 26.86),
    sr("SDSC95", "LWF", 41.14, 14.95),
    sr("SDSC95", "Backfill", 41.14, 28.20),
    sr("SDSC96", "LWF", 46.79, 7.88),
    sr("SDSC96", "Backfill", 46.79, 11.34),
];

/// Paper Table 12 (the Smith predictor).
pub const TABLE12_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 70.28, 78.22),
    sr("ANL", "Backfill", 71.04, 148.77),
    sr("CTC", "LWF", 51.28, 13.40),
    sr("CTC", "Backfill", 51.28, 22.54),
    sr("SDSC95", "LWF", 41.14, 16.19),
    sr("SDSC95", "Backfill", 41.14, 22.17),
    sr("SDSC96", "LWF", 46.79, 7.79),
    sr("SDSC96", "Backfill", 46.79, 10.10),
];

/// Paper Table 13 (Gibbons).
pub const TABLE13_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 70.72, 90.36),
    sr("ANL", "Backfill", 71.04, 181.38),
    sr("CTC", "LWF", 51.28, 11.04),
    sr("CTC", "Backfill", 51.28, 27.31),
    sr("SDSC95", "LWF", 41.14, 15.99),
    sr("SDSC95", "Backfill", 41.14, 24.83),
    sr("SDSC96", "LWF", 46.79, 7.51),
    sr("SDSC96", "Backfill", 46.79, 10.82),
];

/// Paper Table 14 (Downey, conditional average).
pub const TABLE14_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 71.04, 154.76),
    sr("ANL", "Backfill", 70.88, 246.40),
    sr("CTC", "LWF", 51.28, 9.87),
    sr("CTC", "Backfill", 51.28, 14.45),
    sr("SDSC95", "LWF", 41.14, 16.22),
    sr("SDSC95", "Backfill", 41.14, 20.37),
    sr("SDSC96", "LWF", 46.79, 7.88),
    sr("SDSC96", "Backfill", 46.79, 8.25),
];

/// Paper Table 15 (Downey, conditional median).
pub const TABLE15_REF: &[SchedRef] = &[
    sr("ANL", "LWF", 71.04, 154.76),
    sr("ANL", "Backfill", 71.04, 207.17),
    sr("CTC", "LWF", 51.28, 11.54),
    sr("CTC", "Backfill", 51.28, 16.72),
    sr("SDSC95", "LWF", 41.14, 16.36),
    sr("SDSC95", "Backfill", 41.14, 19.56),
    sr("SDSC96", "LWF", 46.79, 7.80),
    sr("SDSC96", "Backfill", 46.79, 8.02),
];

/// The published reference rows for a wait-time prediction table (4–9).
pub fn wait_ref(table: u8) -> &'static [WaitRef] {
    match table {
        4 => TABLE4_REF,
        5 => TABLE5_REF,
        6 => TABLE6_REF,
        7 => TABLE7_REF,
        8 => TABLE8_REF,
        9 => TABLE9_REF,
        _ => panic!("wait-time tables are 4..=9, got {table}"),
    }
}

/// The published reference rows for a scheduling table (10–15).
pub fn sched_ref(table: u8) -> &'static [SchedRef] {
    match table {
        10 => TABLE10_REF,
        11 => TABLE11_REF,
        12 => TABLE12_REF,
        13 => TABLE13_REF,
        14 => TABLE14_REF,
        15 => TABLE15_REF,
        _ => panic!("scheduling tables are 10..=15, got {table}"),
    }
}

// ---------------------------------------------------------------------
// Quantitative tables.
// ---------------------------------------------------------------------

/// Regenerate one wait-time prediction table (4–9): run the predictor's
/// wait-time prediction experiment over every workload/algorithm cell
/// and lay the results beside the paper's.
pub fn wait_table(table: u8, wls: &[Workload], threads: usize) -> Table {
    let kind = table_predictor(table);
    // Table 4 (actual run times) has no FCFS rows: FCFS wait predictions
    // with actual run times are exact by construction.
    let algs: &[Algorithm] = if table == 4 {
        &[Algorithm::Lwf, Algorithm::Backfill]
    } else {
        &[Algorithm::Fcfs, Algorithm::Lwf, Algorithm::Backfill]
    };
    let cells = wls
        .iter()
        .flat_map(|w| algs.iter().map(move |&alg| (w, alg)));
    let outcomes = par_map(cells.collect(), threads, |_, (w, alg)| {
        run_wait_prediction(w, alg, kind.clone())
    });

    let refs = wait_ref(table);
    let mut t = Table::new(
        format!("table{table}"),
        format!(
            "Wait-time prediction performance using {} run-time predictions",
            kind.name()
        ),
        &[
            "Workload",
            "Algorithm",
            "Mean Err (min)",
            "% of Mean Wait",
            "Paper Err",
            "Paper %",
            "RT Err % of RT",
        ],
    );
    for o in outcomes {
        let r = refs
            .iter()
            .find(|r| r.workload == o.workload && r.alg == o.algorithm.name());
        t.push_row(vec![
            o.workload.clone(),
            o.algorithm.name().to_string(),
            format!("{:.2}", o.wait_errors.mean_abs_error_min()),
            format!("{:.0}", o.wait_errors.pct_of_mean_actual()),
            r.map_or("-".into(), |r| format!("{:.2}", r.err_min)),
            r.map_or("-".into(), |r| format!("{:.0}", r.pct)),
            format!("{:.0}", o.runtime_errors.pct_of_mean_actual()),
        ]);
    }
    t
}

/// Regenerate one scheduling table (10–15).
pub fn sched_table(table: u8, wls: &[Workload], threads: usize) -> Table {
    let kind = table_predictor(table);
    let algs = [Algorithm::Lwf, Algorithm::Backfill];
    let cells = wls
        .iter()
        .flat_map(|w| algs.iter().map(move |&alg| (w, alg)));
    let outcomes = par_map(cells.collect(), threads, |_, (w, alg)| {
        run_scheduling(w, alg, kind.clone())
    });

    let refs = sched_ref(table);
    let mut t = Table::new(
        format!("table{table}"),
        format!(
            "Scheduling performance using {} run-time predictions",
            kind.name()
        ),
        &[
            "Workload",
            "Algorithm",
            "Util %",
            "Mean Wait (min)",
            "Paper Util",
            "Paper Wait",
            "RT Err % of RT",
        ],
    );
    for o in outcomes {
        let r = refs
            .iter()
            .find(|r| r.workload == o.workload && r.alg == o.algorithm.name());
        t.push_row(vec![
            o.workload.clone(),
            o.algorithm.name().to_string(),
            format!("{:.2}", 100.0 * o.metrics.utilization_window),
            format!("{:.2}", o.metrics.mean_wait.minutes()),
            r.map_or("-".into(), |r| format!("{:.2}", r.util_pct)),
            r.map_or("-".into(), |r| format!("{:.2}", r.wait_min)),
            format!("{:.0}", o.runtime_errors.pct_of_mean_actual()),
        ]);
    }
    t
}

/// The Section 4 in-text experiment: compress the SDSC interarrival
/// times by 2x and compare mean waits across predictors.
pub fn compress2x(wls: &[Workload], threads: usize) -> Table {
    let compressed: Vec<Workload> = wls
        .iter()
        .filter(|w| w.name.starts_with("SDSC"))
        .map(|w| compress_interarrivals(w, 2.0))
        .collect();
    let kinds = [
        PredictorKind::Actual,
        PredictorKind::MaxRuntime,
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyAverage,
        PredictorKind::DowneyMedian,
    ];
    let algs = [Algorithm::Lwf, Algorithm::Backfill];
    let mut cells = Vec::new();
    for w in &compressed {
        for &alg in &algs {
            for kind in &kinds {
                cells.push((w, alg, kind));
            }
        }
    }
    let outcomes = par_map(cells, threads, |_, (w, alg, kind)| {
        run_scheduling(w, alg, kind.clone())
    });

    let mut t = Table::new(
        "compress2x",
        "Mean wait (min) on 2x-compressed SDSC workloads, per predictor",
        &[
            "Workload",
            "Algorithm",
            "actual",
            "maxrt",
            "smith",
            "gibbons",
            "downey-avg",
            "downey-med",
        ],
    );
    let mut it = outcomes.into_iter();
    for w in &compressed {
        for alg in algs {
            let mut row = vec![w.name.clone(), alg.name().to_string()];
            for _ in &kinds {
                let o = it.next().expect("grid shape");
                row.push(format!("{:.2}", o.metrics.mean_wait.minutes()));
            }
            t.push_row(row);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Extension experiments.
// ---------------------------------------------------------------------

/// The paper's stated future work: the state-based wait-time predictor
/// vs the simulation-based technique, on the algorithm where the paper
/// hoped it would help — LWF, whose simulation-based predictions carry a
/// large built-in error — and on backfill.
pub fn statewait(wls: &[Workload], threads: usize) -> Table {
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

/// The paper's suggested training-set fix for the cold-start ramp-up:
/// the Smith predictor under backfill on each trace's second half, cold
/// vs pre-trained on the first half.
pub fn warmup(wls: &[Workload], threads: usize) -> Table {
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

/// The paper's conservative backfill vs EASY backfill, under maximum run
/// times and under the Smith predictor.
pub fn easy_ablation(wls: &[Workload], threads: usize) -> Table {
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

/// Search-strategy ablation (DESIGN.md `ga-ablation`): the curated and
/// shipped template sets vs greedy search vs the GA, scored on the ANL
/// wait-prediction stream.
pub fn ga_ablation(wls: &[Workload], threads: usize) -> Table {
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

    let curated = curated_seed_for(wl);
    let shipped = set_for(wl);
    for (strategy, set) in [("curated seed", &curated), ("shipped GA set", &shipped)] {
        let e = replay(set, wl, &pw);
        t.push_row(vec![
            strategy.into(),
            format!("{:.2}", e.mean_abs_error_min()),
            set.len().to_string(),
            "1".into(),
        ]);
    }

    let (greedy_set, _, evaluations) = greedy_search(
        wl,
        &pw,
        &GreedyConfig {
            max_templates: 6,
            threads,
        },
    );
    let e = replay(&greedy_set, wl, &pw);
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
    let ga = search(wl, &pw, &cfg, threads, None).expect("no checkpoint to write");
    t.push_row(vec![
        "genetic algorithm".into(),
        format!("{:.2}", ga.best_error_min),
        ga.best.len().to_string(),
        ga.evaluations.to_string(),
    ]);
    t
}

/// Run the GA per workload and validate the winner against the curated
/// set on a held-out stream, beside the shipped set
/// ([`set_for`], what `PredictorKind::Smith` runs) on the same stream.
/// Each winning set also goes to stderr as paste-ready Rust for
/// `qpredict-predict/src/searched.rs`.
pub fn ga_search(wls: &[Workload], threads: usize) -> Table {
    let mut t = Table::new(
        "ga-search",
        "Genetic template search per workload (train/validate on wait-prediction streams)",
        &[
            "Workload",
            "Curated val MAE",
            "GA val MAE",
            "Winner",
            "Shipped val MAE",
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
        let curated = curated_seed_for(wl);
        let cfg = GaConfig {
            population: 28,
            generations: 20,
            seeds: vec![curated.clone()],
            ..GaConfig::default()
        };
        let r = search(wl, &train, &cfg, threads, None).expect("no checkpoint to write");
        let curated_val = replay(&curated, wl, &val).mean_abs_error_min();
        let ga_val = replay(&r.best, wl, &val).mean_abs_error_min();
        let shipped_val = replay(&set_for(wl), wl, &val).mean_abs_error_min();
        let ga_wins = ga_val < curated_val;
        t.push_row(vec![
            wl.name.clone(),
            format!("{curated_val:.2}"),
            format!("{ga_val:.2}"),
            if ga_wins { "GA" } else { "curated" }.to_string(),
            format!("{shipped_val:.2}"),
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

/// Render a template set as paste-ready Rust for `searched.rs`.
fn set_to_rust(set: &TemplateSet) -> String {
    use std::fmt::Write;
    let mut out = String::from("TemplateSet::new(vec![\n");
    for t in set.templates() {
        let chars: Vec<String> = t.chars.iter().map(|c| format!("C::{c:?}")).collect();
        let _ = write!(out, "    Template::mean_over(&[{}])", chars.join(", "));
        match t.estimator {
            EstimatorKind::Mean => {}
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_scale_control() {
        let small = workloads(Some(100));
        assert_eq!(small.len(), 4);
        for w in &small {
            assert_eq!(w.len(), 100);
            w.validate().unwrap();
        }
        let names: Vec<&str> = small.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["ANL", "CTC", "SDSC95", "SDSC96"]);
    }

    #[test]
    fn descriptive_tables_render() {
        let wls = workloads(Some(200));
        let t1 = table1(&wls);
        assert_eq!(t1.rows.len(), 4);
        let t2 = table2(&wls);
        assert_eq!(t2.rows.len(), 9); // 8 characteristics + max run time
        let t3 = table3();
        assert_eq!(t3.rows.len(), 6);
        assert!(!t1.to_string().is_empty());
        assert!(!t2.to_markdown().is_empty());
    }

    #[test]
    fn table2_matches_paper_recording_matrix() {
        let wls = workloads(Some(300));
        let t2 = table2(&wls);
        let row = |name: &str| {
            t2.rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .unwrap()
                .clone()
        };
        // Queue: SDSC only (columns: char, ANL, CTC, SDSC95, SDSC96).
        let q = row("Queue");
        assert_eq!((q[1].as_str(), q[2].as_str()), ("", ""));
        assert_eq!((q[3].as_str(), q[4].as_str()), ("Y", "Y"));
        // Executable: ANL only.
        let e = row("Executable");
        assert_eq!(e[1], "Y");
        assert_eq!(e[2], "");
        // Max run time: ANL + CTC.
        let m = row("Maximum run time");
        assert_eq!((m[1].as_str(), m[2].as_str()), ("Y", "Y"));
        assert_eq!((m[3].as_str(), m[4].as_str()), ("", ""));
    }

    #[test]
    fn reference_tables_complete() {
        for t in 4..=9u8 {
            let r = wait_ref(t);
            assert_eq!(r.len(), if t == 4 { 8 } else { 12 });
        }
        for t in 10..=15u8 {
            assert_eq!(sched_ref(t).len(), 8);
        }
    }

    #[test]
    fn predictor_mapping() {
        assert_eq!(table_predictor(4), PredictorKind::Actual);
        assert_eq!(table_predictor(12), PredictorKind::Smith);
        assert_eq!(table_predictor(15), PredictorKind::DowneyMedian);
    }

    #[test]
    fn small_scale_sched_table_runs() {
        let wls = workloads(Some(150));
        let t = sched_table(10, &wls, 4);
        assert_eq!(t.rows.len(), 8);
        // Every measured cell parses as a number.
        for row in &t.rows {
            row[2].parse::<f64>().unwrap();
            row[3].parse::<f64>().unwrap();
        }
    }

    #[test]
    fn small_scale_wait_table_runs() {
        let wls = workloads(Some(120));
        let t = wait_table(4, &wls, 4);
        assert_eq!(t.rows.len(), 8); // no FCFS rows in table 4
        let t5 = wait_table(5, &wls, 4);
        assert_eq!(t5.rows.len(), 12);
    }

    #[test]
    fn compress_table_shape() {
        let wls = workloads(Some(120));
        let t = compress2x(&wls, 4);
        assert_eq!(t.rows.len(), 4); // 2 workloads x 2 algorithms
        assert_eq!(t.columns.len(), 8);
    }
}
