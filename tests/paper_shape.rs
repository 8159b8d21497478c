//! Shape tests: the qualitative findings of the paper must hold on the
//! synthetic stand-in workloads at test scale.

use qpredict::core::{run_scheduling, run_wait_prediction, PredictorKind};
use qpredict::prelude::*;
use qpredict::workload::synthetic;

fn site(name: &str, jobs: usize) -> Workload {
    let mut spec = synthetic::sites::spec_by_name(name).unwrap();
    spec.n_jobs = jobs;
    spec.n_users = (jobs / 25).max(6);
    synthetic::generate(&spec)
}

/// Table 4's headline: with perfect run-time predictions, LWF has a large
/// built-in wait-prediction error and backfill a small one.
#[test]
fn builtin_error_lwf_much_larger_than_backfill() {
    let wl = site("ANL", 1500);
    let lwf = run_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Actual);
    let bf = run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Actual);
    let lwf_pct = lwf.wait_errors.pct_of_mean_actual();
    let bf_pct = bf.wait_errors.pct_of_mean_actual();
    assert!(
        lwf_pct > 2.0 * bf_pct,
        "LWF built-in error ({lwf_pct:.0}%) should dwarf backfill's ({bf_pct:.0}%)"
    );
    assert!(
        bf_pct < 25.0,
        "backfill built-in error should be small, got {bf_pct:.0}%"
    );
}

/// Tables 5 vs 6: the Smith predictor's wait predictions beat maximum
/// run times decisively.
#[test]
fn smith_wait_predictions_beat_max_runtimes() {
    let wl = site("ANL", 1500);
    for alg in [Algorithm::Fcfs, Algorithm::Backfill] {
        let maxrt = run_wait_prediction(&wl, alg, PredictorKind::MaxRuntime);
        let smith = run_wait_prediction(&wl, alg, PredictorKind::Smith);
        assert!(
            smith.wait_errors.mean_abs_error_min() < maxrt.wait_errors.mean_abs_error_min(),
            "{alg}: smith {:.1} should beat maxrt {:.1}",
            smith.wait_errors.mean_abs_error_min(),
            maxrt.wait_errors.mean_abs_error_min()
        );
    }
}

/// Section 2's premise: history-based run-time predictions are far more
/// accurate than user limits, and Smith's searched templates are at
/// least competitive with the fixed-template baselines.
#[test]
fn runtime_prediction_accuracy_ordering() {
    let wl = site("ANL", 2000);
    let err = |kind: PredictorKind| {
        run_wait_prediction(&wl, Algorithm::Fcfs, kind)
            .runtime_errors
            .mean_abs_error_min()
    };
    let smith = err(PredictorKind::Smith);
    let maxrt = err(PredictorKind::MaxRuntime);
    let downey_avg = err(PredictorKind::DowneyAverage);
    assert!(
        smith < 0.5 * maxrt,
        "smith ({smith:.1} min) should be far below max run times ({maxrt:.1} min)"
    );
    assert!(
        smith < downey_avg,
        "smith ({smith:.1}) should beat Downey's conditional average ({downey_avg:.1})"
    );
}

/// Section 4: utilization barely moves across predictors, for both
/// algorithms, on every site.
#[test]
fn utilization_is_predictor_insensitive() {
    for name in ["ANL", "SDSC96"] {
        let wl = site(name, 1200);
        for alg in [Algorithm::Lwf, Algorithm::Backfill] {
            let utils: Vec<f64> = [
                PredictorKind::Actual,
                PredictorKind::MaxRuntime,
                PredictorKind::Smith,
                PredictorKind::Gibbons,
            ]
            .into_iter()
            .map(|k| run_scheduling(&wl, alg, k).metrics.utilization_window)
            .collect();
            let spread = utils.iter().cloned().fold(f64::MIN, f64::max)
                - utils.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                spread < 0.06,
                "{name}/{alg}: utilization spread {spread:.3} too wide ({utils:?})"
            );
        }
    }
}

/// Table 10: LWF produces lower mean waits than backfill when run times
/// are known exactly.
#[test]
fn lwf_beats_backfill_on_mean_wait_with_oracle() {
    // At test scale the low-load sites have waits of a few minutes and
    // the two algorithms can land within noise of each other, so allow a
    // small tolerance; the full-scale `paper` run shows the clean
    // ordering.
    for name in ["ANL", "CTC"] {
        let wl = site(name, 1500);
        let lwf = run_scheduling(&wl, Algorithm::Lwf, PredictorKind::Actual);
        let bf = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
        assert!(
            lwf.metrics.mean_wait.as_secs_f64() <= 1.15 * bf.metrics.mean_wait.as_secs_f64(),
            "{name}: LWF {:?} should not exceed backfill {:?} by >15%",
            lwf.metrics.mean_wait,
            bf.metrics.mean_wait
        );
    }
}

/// Tables 10 vs 11 (backfill): accurate run times give lower mean waits
/// than loose maximum run times.
#[test]
fn oracle_backfill_beats_maxrt_backfill() {
    let wl = site("ANL", 1800);
    let oracle = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
    let maxrt = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::MaxRuntime);
    assert!(
        oracle.metrics.mean_wait <= maxrt.metrics.mean_wait,
        "oracle {:?} vs maxrt {:?}",
        oracle.metrics.mean_wait,
        maxrt.metrics.mean_wait
    );
}

/// The SDSC workloads derive per-queue maximum run times; those maxima
/// must upper-bound (almost) every run time in the queue, making the
/// max-runtime predictor a systematic overestimator there.
#[test]
fn sdsc_derived_limits_overestimate() {
    let wl = site("SDSC95", 1000);
    let out = run_wait_prediction(&wl, Algorithm::Fcfs, PredictorKind::MaxRuntime);
    assert!(
        out.runtime_errors.mean_bias_min() > 0.0,
        "derived queue limits must overpredict on average"
    );
}

/// The paper's grids run on a parallel fan-out; the tables they render
/// must not depend on how many workers ran them.
#[test]
fn paper_tables_do_not_depend_on_the_thread_count() {
    use qpredict::core::paper::{compress2x, sched_table, wait_table, workloads};
    let wls = workloads(Some(400));
    let render = |threads: usize| {
        [
            wait_table(6, &wls, threads),
            sched_table(12, &wls, threads),
            compress2x(&wls, threads),
        ]
        .map(|t| t.to_string())
    };
    assert_eq!(render(1), render(3));
}
