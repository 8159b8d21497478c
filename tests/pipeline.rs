//! End-to-end pipeline tests across all crates: generate → schedule →
//! predict → score.

use qpredict::core::{run_scheduling, run_wait_prediction, PredictorKind};
use qpredict::predict::OraclePredictor;
use qpredict::prelude::*;
use qpredict::sim::Simulation;
use qpredict::workload::synthetic;

/// Every algorithm/predictor combination completes every job, preserves
/// run times, and never starts a job before submission.
#[test]
fn full_grid_completes_and_preserves_jobs() {
    let wl = synthetic::toy(400, 32, 101);
    for alg in [Algorithm::Fcfs, Algorithm::Lwf, Algorithm::Backfill] {
        for kind in PredictorKind::ALL {
            let out = run_scheduling(&wl, alg, kind.clone());
            assert_eq!(out.metrics.n_jobs, 400, "{alg}/{kind}");
            assert!(out.metrics.utilization > 0.0 && out.metrics.utilization <= 1.0);
            assert!(out.metrics.mean_wait >= Dur::ZERO);
        }
    }
}

/// The schedule never oversubscribes the machine: at every instant the
/// sum of nodes of overlapping jobs fits.
#[test]
fn schedule_never_oversubscribes() {
    let wl = synthetic::toy(500, 24, 102);
    for alg in [Algorithm::Fcfs, Algorithm::Lwf, Algorithm::Backfill] {
        let result = Simulation::run(&wl, alg, &mut OraclePredictor);
        // Sweep: +nodes at start, -nodes at finish; finishes first at ties.
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(wl.len() * 2);
        for o in &result.outcomes {
            let nodes = wl.job(o.id).nodes as i64;
            events.push((o.start, nodes));
            events.push((o.finish, -nodes));
        }
        events.sort_by_key(|&(t, delta)| (t, delta));
        let mut used = 0i64;
        for (t, delta) in events {
            used += delta;
            assert!(
                used <= wl.machine_nodes as i64,
                "{alg}: {used} nodes in use at {t}"
            );
            assert!(used >= 0, "{alg}: negative usage at {t}");
        }
    }
}

/// Identical runs are byte-identical (full determinism across the whole
/// stack, including learning predictors).
#[test]
fn entire_pipeline_is_deterministic() {
    let wl = synthetic::toy(300, 32, 103);
    for kind in [
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyMedian,
    ] {
        let a = run_scheduling(&wl, Algorithm::Backfill, kind.clone());
        let b = run_scheduling(&wl, Algorithm::Backfill, kind.clone());
        assert_eq!(a.metrics.mean_wait, b.metrics.mean_wait, "{kind}");
        assert_eq!(a.runtime_errors, b.runtime_errors, "{kind}");
    }
    let a = run_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
    let b = run_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
    assert_eq!(a.wait_errors, b.wait_errors);
}

/// The strongest end-to-end correctness check in the whole system:
/// FCFS wait-time predictions with perfect run-time knowledge are exact
/// for every single job (the paper omits FCFS from Table 4 for exactly
/// this reason).
#[test]
fn fcfs_oracle_wait_predictions_are_exact() {
    for seed in [104, 105, 106] {
        let wl = synthetic::toy(350, 16, seed);
        let out = run_wait_prediction(&wl, Algorithm::Fcfs, PredictorKind::Actual);
        assert_eq!(out.wait_errors.count(), 350);
        assert_eq!(
            out.wait_errors.mean_abs_error_min(),
            0.0,
            "seed {seed}: forecast diverged from the engine"
        );
    }
}

/// Wait predictions and scheduling work on all four (truncated) paper
/// workloads, whatever characteristics they record.
#[test]
fn all_paper_sites_run_the_pipeline() {
    for name in ["ANL", "CTC", "SDSC95", "SDSC96"] {
        let mut spec = synthetic::sites::spec_by_name(name).unwrap();
        spec.n_jobs = 250;
        spec.n_users = 12;
        let wl = synthetic::generate(&spec);
        let sched = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Smith);
        assert_eq!(sched.metrics.n_jobs, 250, "{name}");
        let wait = run_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Gibbons);
        assert_eq!(wait.wait_errors.count(), 250, "{name}");
    }
}

/// Truncating a workload must not change the outcome of its prefix under
/// FCFS (prefix property: FCFS decisions never depend on later arrivals).
#[test]
fn fcfs_prefix_property() {
    let wl = synthetic::toy(300, 32, 107);
    let full = Simulation::run(&wl, Algorithm::Fcfs, &mut OraclePredictor);
    let half = wl.truncated(150);
    let part = Simulation::run(&half, Algorithm::Fcfs, &mut OraclePredictor);
    for o in &part.outcomes {
        assert_eq!(o.start, full.outcomes[o.id.index()].start);
    }
}

/// The compressed workload carries double the offered load and (at these
/// utilizations) no lower mean waits under the same scheduler.
#[test]
fn compression_increases_pressure() {
    let wl = synthetic::toy(600, 16, 108);
    let fast = qpredict::workload::compress_interarrivals(&wl, 2.0);
    let base = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
    let comp = run_scheduling(&fast, Algorithm::Backfill, PredictorKind::Actual);
    assert!(
        comp.metrics.mean_wait >= base.metrics.mean_wait,
        "compression should not reduce waits: {:?} vs {:?}",
        comp.metrics.mean_wait,
        base.metrics.mean_wait
    );
    assert!(comp.metrics.utilization_window > base.metrics.utilization_window);
}
