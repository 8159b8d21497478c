//! Integration tests for the beyond-the-paper extensions: state-based
//! wait prediction, warm-started predictors, EASY backfill, and the
//! schedule timeline.

use qpredict::core::{
    run_scheduling, run_state_wait_prediction, run_wait_prediction, run_wait_prediction_warm,
    PredictorKind,
};
use qpredict::predict::OraclePredictor;
use qpredict::prelude::*;
use qpredict::sim::{Simulation, Timeline};
use qpredict::workload::synthetic;

/// The state-based predictor runs end-to-end on every site and produces
/// one prediction per job, deterministically.
#[test]
fn state_wait_prediction_covers_all_sites() {
    for name in ["ANL", "SDSC95"] {
        let mut spec = synthetic::sites::spec_by_name(name).unwrap();
        spec.n_jobs = 400;
        spec.n_users = 16;
        let wl = synthetic::generate(&spec);
        let a = run_state_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
        let b = run_state_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
        assert_eq!(a.wait_errors.count(), 400, "{name}");
        assert_eq!(a.wait_errors, b.wait_errors, "{name}: nondeterministic");
    }
}

/// Simulation-based wait prediction beats the state-based method on a
/// loaded machine (the repo's measured answer to the paper's future-work
/// conjecture, checked here at test scale).
#[test]
fn simulation_beats_state_on_loaded_machine() {
    let mut spec = synthetic::sites::spec_by_name("ANL").unwrap();
    spec.n_jobs = 1200;
    spec.n_users = 30;
    let wl = synthetic::generate(&spec);
    let sim = run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
    let state = run_state_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
    assert!(
        sim.wait_errors.mean_abs_error_min() <= state.wait_errors.mean_abs_error_min(),
        "nested simulation ({:.1}) should beat state lookup ({:.1})",
        sim.wait_errors.mean_abs_error_min(),
        state.wait_errors.mean_abs_error_min()
    );
}

/// Warm-starting never sees *fewer* predictions than jobs, and the
/// suffix split preserves job identity.
#[test]
fn warm_start_accounting() {
    let wl = synthetic::toy(500, 24, 501);
    let out = run_wait_prediction_warm(&wl, Algorithm::Lwf, PredictorKind::Gibbons, 250);
    assert_eq!(out.wait_errors.count(), 250);
    assert!(out.runtime_errors.count() > 0);
}

/// EASY backfill completes every job and (on these workloads) does not
/// produce a worse mean wait than conservative backfill under identical
/// oracle estimates.
#[test]
fn easy_backfill_end_to_end() {
    let wl = synthetic::toy(800, 32, 502);
    let cons = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
    let easy = run_scheduling(&wl, Algorithm::EasyBackfill, PredictorKind::Actual);
    assert_eq!(easy.metrics.n_jobs, 800);
    assert!(
        easy.metrics.mean_wait.as_secs_f64() <= 1.3 * cons.metrics.mean_wait.as_secs_f64(),
        "EASY {:?} should be comparable to conservative {:?}",
        easy.metrics.mean_wait,
        cons.metrics.mean_wait
    );
}

/// Timeline analysis agrees with metrics across algorithms and exports
/// parseable CSV.
#[test]
fn timeline_integration() {
    let wl = synthetic::toy(300, 16, 504);
    let r = Simulation::run(&wl, Algorithm::Lwf, &mut OraclePredictor);
    let t = Timeline::build(&wl, &r.outcomes);
    assert!(t.is_feasible());
    let csv = t.jobs_csv();
    assert_eq!(csv.lines().count(), 301); // header + 300 jobs
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 4);
        fields[1].parse::<i64>().unwrap();
    }
}
