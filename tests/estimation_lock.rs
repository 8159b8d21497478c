//! Regression lock for the estimation-layer refactor: scheduler and
//! wait-time experiment outputs must stay **bit-identical** to the
//! pre-refactor implementation for fixed seeds.
//!
//! The expected fingerprints were captured at the pre-refactor commit
//! (FNV-1a over `f64::to_bits` of every metric and error statistic, so
//! equality holds to the last ulp). The locked template set deliberately
//! exercises every estimator path: all three regression transform
//! spaces, relative (ratio) values, capped history (the eviction path),
//! and elapsed-time conditioning.
//!
//! If one of these assertions ever fails, the change was NOT
//! behavior-preserving: either fix it or consciously re-capture. The
//! ignored `print_lock_tables` test recomputes every table from the same
//! cell functions the assertions use and prints it ready to paste:
//!
//! ```text
//! cargo test --release --test estimation_lock print_lock_tables -- --ignored --nocapture
//! ```
//!
//! The site-model cells (`SITE_LOCK`) add a 2,000-job SDSC96 workload
//! whose large `(Queue)` categories, duplicated GA template and capped
//! `rtime` histories reach the runtime-ordered index and its eviction
//! path, which the toy cells are too small to reach.
//!
//! The robustness cells (`ROBUSTNESS_LOCK`) cover the paths that wrap
//! the predictor between it and the engine: prediction-fault injection,
//! trace faults, the fallback chain's degradation accounting, and the
//! state-based wait predictor's backlog features.

use qpredict_core::{
    run_scheduling, run_scheduling_with, run_state_wait_prediction, run_wait_prediction,
    PredictorKind, SchedulingOutcome,
};
use qpredict_predict::{ErrorStats, EstimatorKind, Template, TemplateSet};
use qpredict_sim::{Algorithm, FaultPlan, Metrics};
use qpredict_workload::synthetic::{generate, sites, toy};
use qpredict_workload::{Characteristic as C, Workload};

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fp_stats(e: &ErrorStats) -> u64 {
    fnv([
        e.count(),
        e.mean_abs_error_min().to_bits(),
        e.mean_bias_min().to_bits(),
        e.mean_actual_min().to_bits(),
        e.rmse_min().to_bits(),
        e.max_abs_error_min().to_bits(),
    ])
}

fn fp_metrics(m: &Metrics) -> u64 {
    fnv([
        m.n_jobs as u64,
        m.mean_wait.seconds() as u64,
        m.median_wait.seconds() as u64,
        m.max_wait.seconds() as u64,
        m.makespan.seconds() as u64,
        m.utilization.to_bits(),
        m.utilization_window.to_bits(),
        m.mean_bounded_slowdown.to_bits(),
        m.total_work_node_s.to_bits(),
    ])
}

/// A scheduling run's fault accounting (trace mutations and corrupted
/// estimates) and fallback-chain accounting (estimates from fallback
/// paths and per-tier degradation counts). Absent parts hash as zeros.
fn fp_robustness(out: &SchedulingOutcome) -> u64 {
    let mut words = vec![out.fallback_estimates];
    let f = out.faults.unwrap_or_default();
    words.extend([
        f.trace.cancelled as u64,
        f.trace.failed as u64,
        f.trace.delayed as u64,
        f.estimates.scaled,
        f.estimates.inverted,
        f.estimates.dropped,
    ]);
    let d = out.degradations.clone().unwrap_or_default();
    words.extend(d.served.iter().map(|&(_, n)| n));
    words.extend([d.user_limit, d.static_default, d.degradations]);
    fnv(words)
}

fn lock_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Executable]).with_node_range(1),
        Template::mean_over(&[C::User]).with_estimator(EstimatorKind::LinearRegression),
        Template::mean_over(&[C::User])
            .with_estimator(EstimatorKind::InverseRegression)
            .relative(),
        Template::mean_over(&[C::Executable])
            .with_estimator(EstimatorKind::LogRegression)
            .with_max_history(8),
        Template::mean_over(&[]).relative().with_max_history(4),
        Template::mean_over(&[C::User]).with_rtime(),
    ])
}

/// The SDSC96 site model at 2,000 jobs, as `waitpred sdsc96 --jobs 2000`
/// builds it: `(Queue)` categories large enough for elapsed-time
/// conditioning to reach the runtime index, under the shipped GA set
/// with its duplicated template.
fn sdsc96_2k() -> Workload {
    let mut spec = sites::sdsc96_spec();
    spec.n_jobs = 2000;
    spec.n_users = spec.n_users.min(100);
    generate(&spec)
}

/// An `rtime`-heavy set whose history caps evict within 2,000 jobs: a
/// duplicated linear `(Queue)` template, a capped `(Queue)` mean and a
/// tightly capped `(Queue, User)` mean.
fn rtime_capped_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(300)
            .with_rtime(),
        Template::mean_over(&[C::Queue])
            .with_max_history(200)
            .with_rtime(),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(300)
            .with_rtime(),
        Template::mean_over(&[C::Queue, C::User])
            .with_max_history(40)
            .with_rtime(),
    ])
}

fn kind_for(label: &str) -> PredictorKind {
    match label {
        "actual" => PredictorKind::Actual,
        "maxrt" => PredictorKind::MaxRuntime,
        "smith" => PredictorKind::Smith,
        "smith-lock" => PredictorKind::SmithWith(lock_set()),
        "smith-rtime-capped" => PredictorKind::SmithWith(rtime_capped_set()),
        "gibbons" => PredictorKind::Gibbons,
        "downey-avg" => PredictorKind::DowneyAverage,
        other => panic!("unknown predictor label {other}"),
    }
}

fn alg_for(label: &str) -> Algorithm {
    match label {
        "LWF" => Algorithm::Lwf,
        "Backfill" => Algorithm::Backfill,
        "EASY" => Algorithm::EasyBackfill,
        "FCFS" => Algorithm::Fcfs,
        other => panic!("unknown algorithm label {other}"),
    }
}

/// (algorithm, predictor, metrics fingerprint, runtime-error fingerprint)
/// for `run_scheduling` over `toy(300, 32, 41)` — captured pre-refactor.
const SCHEDULING_LOCK: [(&str, &str, u64, u64); 18] = [
    ("LWF", "actual", 0x09ca25c66f116e48, 0x3a93bcf178330cac),
    ("LWF", "maxrt", 0x5c64ceeaf84294e4, 0x8a1ac8c20590c28a),
    ("LWF", "smith", 0x2bec1541f8a043d8, 0x5b06411fc8cc9e08),
    ("LWF", "smith-lock", 0x754bb3f9d9b9b4e8, 0x60438dee45c76b36),
    ("LWF", "gibbons", 0x3c6272765c8718bb, 0x156a70eff28e7c44),
    ("LWF", "downey-avg", 0xc4cd80e04bdd0043, 0x83ca279bc62ac01f),
    ("Backfill", "actual", 0xe8caae92eba83ff8, 0x5244f8669a221c3a),
    ("Backfill", "maxrt", 0xa9ad785323fe95a8, 0x3160a1d15eaab50e),
    ("Backfill", "smith", 0xb122cad271fe446d, 0x35219c0f09322a81),
    (
        "Backfill",
        "smith-lock",
        0x852e280f3393ef06,
        0x2ca65ff3c434f7c6,
    ),
    (
        "Backfill",
        "gibbons",
        0xee693fde4ae9a869,
        0x58ccda4c3e7764c3,
    ),
    (
        "Backfill",
        "downey-avg",
        0xead947367f85e9cf,
        0x4c3849523d5f5874,
    ),
    ("EASY", "actual", 0x782ebb0779112b6c, 0x892346fe7cdcba87),
    ("EASY", "maxrt", 0x341878af6d7e1c9a, 0xba97af38afc094c5),
    ("EASY", "smith", 0x87aa1a2e92fd68c7, 0x75f1a18070f9c696),
    ("EASY", "smith-lock", 0x11e7e7b607bcce68, 0xe128673d84952ea8),
    ("EASY", "gibbons", 0xc3aa245270c39259, 0xf3a419c3ff49d288),
    ("EASY", "downey-avg", 0xc251a2f02d1ae2e6, 0x21640c1db0e0f0ac),
];

/// (algorithm, predictor, metrics fp, wait-error fp, runtime-error fp)
/// for `run_wait_prediction` over `toy(220, 32, 42)` — captured
/// pre-refactor.
const WAITTIME_LOCK: [(&str, &str, u64, u64, u64); 4] = [
    (
        "FCFS",
        "smith",
        0x1bed309a223e8290,
        0xf3bd92f0a2a38993,
        0x62920edc831b0c9b,
    ),
    (
        "LWF",
        "smith-lock",
        0xfb1fc91d164b7b0c,
        0xb00d97a199d90c5d,
        0x53e340ba3146013d,
    ),
    (
        "Backfill",
        "smith",
        0xce979c3d2e66e952,
        0x73e55166cb913b4f,
        0xdbe4e99d1875e10b,
    ),
    (
        "Backfill",
        "gibbons",
        0xce979c3d2e66e952,
        0xf24779ac3811266a,
        0x6989a38ee5184acb,
    ),
];

/// (predictor, scheduling metrics fp, scheduling runtime-error fp,
/// wait-study metrics fp, wait-error fp, wait-study runtime-error fp)
/// for `run_scheduling` and `run_wait_prediction` under Backfill over
/// [`sdsc96_2k`] — captured before the runtime index and the sharing of
/// duplicate templates.
const SITE_LOCK: [(&str, u64, u64, u64, u64, u64); 3] = [
    (
        "smith",
        0x33a84c0485db6abd,
        0xca037efb763a1f0d,
        0x86e2da94e402588e,
        0x9438d4860f9ae1a4,
        0x98ea72e10c09d89d,
    ),
    (
        "smith-rtime-capped",
        0x18c5a3a4ebc028a7,
        0xf8ac39cec870f955,
        0x86e2da94e402588e,
        0x95cf2cd096dc8cdb,
        0x2ba07e81db235980,
    ),
    (
        "gibbons",
        0x5367c075c4ef945c,
        0x9f1096cc9635a2c2,
        0x86e2da94e402588e,
        0xf16737fa1d8c5e8e,
        0x41afccf8155618eb,
    ),
];

/// (cell, metrics fp, runtime-error fp, robustness fp) for
/// `run_scheduling_with` over `toy(300, 32, 41)` with Smith under
/// prediction noise and trace faults, and with the fallback chain; the
/// last cell is `run_state_wait_prediction` over `toy(220, 32, 42)`,
/// whose third fingerprint is its wait errors. Captured before the
/// engine consulted `RunTimePredictor` directly.
const ROBUSTNESS_LOCK: [(&str, u64, u64, u64); 5] = [
    (
        "LWF pred-noise",
        0x8ab85a4f175f0909,
        0x1220d244c87d807d,
        0xb12ffb7ab3e2ea00,
    ),
    (
        "Backfill pred-noise",
        0xec5f6a0e31f12540,
        0x7f041a98833a4e0b,
        0x06f9397d61e40807,
    ),
    (
        "Backfill trace-faults",
        0xc2b6146ac77090d3,
        0x328c7b546e929222,
        0x9b4928f177645863,
    ),
    (
        "Backfill fallback",
        0xb122cad271fe446d,
        0x35219c0f09322a81,
        0x3d430d753ff8950f,
    ),
    (
        "Backfill statewait",
        0xce979c3d2e66e952,
        0xa2a60fcbc671034a,
        0x6622e1ef87ba62a4,
    ),
];

/// One [`SCHEDULING_LOCK`] cell over `wl`: (metrics fp, runtime-error fp).
fn scheduling_cell(wl: &Workload, alg: &str, kind: &str) -> (u64, u64) {
    let out = run_scheduling(wl, alg_for(alg), kind_for(kind));
    (fp_metrics(&out.metrics), fp_stats(&out.runtime_errors))
}

/// One [`WAITTIME_LOCK`] cell over `wl`: (metrics fp, wait-error fp,
/// runtime-error fp).
fn wait_cell(wl: &Workload, alg: &str, kind: &str) -> (u64, u64, u64) {
    let out = run_wait_prediction(wl, alg_for(alg), kind_for(kind));
    (
        fp_metrics(&out.metrics),
        fp_stats(&out.wait_errors),
        fp_stats(&out.runtime_errors),
    )
}

/// One [`SITE_LOCK`] cell over `wl`: the [`SCHEDULING_LOCK`] pair of a
/// Backfill scheduling run followed by the [`WAITTIME_LOCK`] triple of a
/// Backfill wait study.
fn site_cell(wl: &Workload, kind: &str) -> (u64, u64, u64, u64, u64) {
    let (sm, sr) = scheduling_cell(wl, "Backfill", kind);
    let (m, w, r) = wait_cell(wl, "Backfill", kind);
    (sm, sr, m, w, r)
}

/// Run one [`ROBUSTNESS_LOCK`] cell, returning its three fingerprints.
fn robustness_cell(label: &str) -> (u64, u64, u64) {
    let (alg, kind, plan) = match label {
        "LWF pred-noise" => (
            Algorithm::Lwf,
            PredictorKind::Smith,
            Some(FaultPlan::pred_noise(3, 0.3)),
        ),
        "Backfill pred-noise" => (
            Algorithm::Backfill,
            PredictorKind::Smith,
            Some(FaultPlan::pred_noise(3, 0.3)),
        ),
        "Backfill trace-faults" => (
            Algorithm::Backfill,
            PredictorKind::Smith,
            Some(FaultPlan {
                cancel_prob: 0.05,
                fail_prob: 0.05,
                delay_prob: 0.1,
                ..FaultPlan::new(7)
            }),
        ),
        "Backfill fallback" => (Algorithm::Backfill, PredictorKind::Fallback, None),
        "Backfill statewait" => {
            let out = run_state_wait_prediction(
                &toy(220, 32, 42),
                Algorithm::Backfill,
                PredictorKind::Smith,
            );
            return (
                fp_metrics(&out.metrics),
                fp_stats(&out.runtime_errors),
                fp_stats(&out.wait_errors),
            );
        }
        other => panic!("unknown robustness cell {other}"),
    };
    let out = run_scheduling_with(&toy(300, 32, 41), alg, kind, plan.as_ref());
    (
        fp_metrics(&out.metrics),
        fp_stats(&out.runtime_errors),
        fp_robustness(&out),
    )
}

#[test]
fn robustness_outputs_are_bit_identical_to_pre_rewiring() {
    for (cell, metrics_fp, rt_fp, third_fp) in ROBUSTNESS_LOCK {
        let (m, r, t) = robustness_cell(cell);
        assert_eq!(m, metrics_fp, "{cell}: schedule metrics drifted");
        assert_eq!(r, rt_fp, "{cell}: runtime-error stats drifted");
        assert_eq!(
            t, third_fp,
            "{cell}: fault/degradation accounting or wait errors drifted"
        );
    }
}

#[test]
fn scheduling_outputs_are_bit_identical_to_pre_refactor() {
    let wl = toy(300, 32, 41);
    for (alg, kind, metrics_fp, rt_fp) in SCHEDULING_LOCK {
        let (m, r) = scheduling_cell(&wl, alg, kind);
        assert_eq!(
            m, metrics_fp,
            "{alg} + {kind}: schedule metrics drifted from pre-refactor capture"
        );
        assert_eq!(
            r, rt_fp,
            "{alg} + {kind}: runtime-error stats drifted from pre-refactor capture"
        );
    }
}

/// The observability layer must be a pure observer: with recording ON,
/// every toy and robustness cell still matches its capture bit for bit.
/// (Recording only touches a thread-local registry, so this runs the
/// full lock tables rather than sampling.)
#[test]
fn recording_does_not_perturb_locked_outputs() {
    qpredict_obs::set_recording(true);
    let wl = toy(300, 32, 41);
    for (alg, kind, metrics_fp, rt_fp) in SCHEDULING_LOCK {
        assert_eq!(
            scheduling_cell(&wl, alg, kind),
            (metrics_fp, rt_fp),
            "{alg} + {kind}: recording perturbed a scheduling cell"
        );
    }
    let wl = toy(220, 32, 42);
    for (alg, kind, metrics_fp, wait_fp, rt_fp) in WAITTIME_LOCK {
        assert_eq!(
            wait_cell(&wl, alg, kind),
            (metrics_fp, wait_fp, rt_fp),
            "{alg} + {kind}: recording perturbed a wait-prediction cell"
        );
    }
    for (cell, metrics_fp, rt_fp, third_fp) in ROBUSTNESS_LOCK {
        assert_eq!(
            robustness_cell(cell),
            (metrics_fp, rt_fp, third_fp),
            "{cell}: recording perturbed a robustness cell"
        );
    }
    qpredict_obs::set_recording(false);
}

#[test]
fn wait_prediction_outputs_are_bit_identical_to_pre_refactor() {
    let wl = toy(220, 32, 42);
    for (alg, kind, metrics_fp, wait_fp, rt_fp) in WAITTIME_LOCK {
        let (m, w, r) = wait_cell(&wl, alg, kind);
        assert_eq!(
            m, metrics_fp,
            "{alg} + {kind}: outer-schedule metrics drifted"
        );
        assert_eq!(w, wait_fp, "{alg} + {kind}: wait-error stats drifted");
        assert_eq!(r, rt_fp, "{alg} + {kind}: runtime-error stats drifted");
    }
}

#[test]
fn site_model_outputs_are_bit_identical_to_pre_index() {
    let wl = sdsc96_2k();
    for (kind, sched_fp, sched_rt_fp, metrics_fp, wait_fp, rt_fp) in SITE_LOCK {
        let (sm, sr, m, w, r) = site_cell(&wl, kind);
        assert_eq!(sm, sched_fp, "{kind}: schedule metrics drifted");
        assert_eq!(
            sr, sched_rt_fp,
            "{kind}: scheduling runtime-error stats drifted"
        );
        assert_eq!(m, metrics_fp, "{kind}: outer-schedule metrics drifted");
        assert_eq!(w, wait_fp, "{kind}: wait-error stats drifted");
        assert_eq!(r, rt_fp, "{kind}: runtime-error stats drifted");
    }
}

/// Recompute every lock table, keyed by the rows already locked, and
/// print it ready to paste over the constant (see the module docs).
#[test]
#[ignore = "re-capture tool: prints the lock tables, asserts nothing"]
fn print_lock_tables() {
    fn table(name: &str, shape: &str, rows: Vec<String>) {
        println!("const {name}: [{shape}; {}] = [", rows.len());
        for row in rows {
            println!("    ({row}),");
        }
        println!("];");
    }
    let wl = toy(300, 32, 41);
    table(
        "SCHEDULING_LOCK",
        "(&str, &str, u64, u64)",
        SCHEDULING_LOCK
            .iter()
            .map(|&(alg, kind, ..)| {
                let (m, r) = scheduling_cell(&wl, alg, kind);
                format!("{alg:?}, {kind:?}, {m:#018x}, {r:#018x}")
            })
            .collect(),
    );
    let wl = toy(220, 32, 42);
    table(
        "WAITTIME_LOCK",
        "(&str, &str, u64, u64, u64)",
        WAITTIME_LOCK
            .iter()
            .map(|&(alg, kind, ..)| {
                let (m, w, r) = wait_cell(&wl, alg, kind);
                format!("{alg:?}, {kind:?}, {m:#018x}, {w:#018x}, {r:#018x}")
            })
            .collect(),
    );
    let wl = sdsc96_2k();
    table(
        "SITE_LOCK",
        "(&str, u64, u64, u64, u64, u64)",
        SITE_LOCK
            .iter()
            .map(|&(kind, ..)| {
                let (sm, sr, m, w, r) = site_cell(&wl, kind);
                format!("{kind:?}, {sm:#018x}, {sr:#018x}, {m:#018x}, {w:#018x}, {r:#018x}")
            })
            .collect(),
    );
    table(
        "ROBUSTNESS_LOCK",
        "(&str, u64, u64, u64)",
        ROBUSTNESS_LOCK
            .iter()
            .map(|&(cell, ..)| {
                let (m, r, t) = robustness_cell(cell);
                format!("{cell:?}, {m:#018x}, {r:#018x}, {t:#018x}")
            })
            .collect(),
    );
}
