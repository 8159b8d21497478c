//! Integration tests for trace I/O and the synthetic site generators.

use qpredict::core::{run_scheduling, PredictorKind};
use qpredict::prelude::*;
use qpredict::workload::{swf, synthetic};

/// SWF round trip at scale preserves everything SWF can represent, and
/// the reparsed trace drives the scheduler to identical outcomes.
#[test]
fn swf_round_trip_preserves_schedule() {
    let wl = synthetic::toy(800, 64, 201);
    let text = swf::write(&wl);
    let back = swf::parse("back", wl.machine_nodes, &text).unwrap();
    assert_eq!(back.len(), wl.len());
    for (a, b) in wl.jobs.iter().zip(&back.jobs) {
        assert_eq!(a.submit, b.submit);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.max_runtime, b.max_runtime);
    }
    // Schedule both under FCFS (identity-independent): outcomes match.
    use qpredict::predict::OraclePredictor;
    use qpredict::sim::Simulation;
    let x = Simulation::run(&wl, Algorithm::Fcfs, &mut OraclePredictor);
    let y = Simulation::run(&back, Algorithm::Fcfs, &mut OraclePredictor);
    for (a, b) in x.outcomes.iter().zip(&y.outcomes) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.finish, b.finish);
    }
}

/// Real-trace replacement path: an SWF trace (here synthesized) runs the
/// whole experiment pipeline, exercising user/executable/queue symbols
/// created by the parser.
#[test]
fn swf_trace_drives_experiments() {
    let wl = synthetic::toy(500, 32, 202);
    let text = swf::write(&wl);
    let back = swf::parse("swf", 32, &text).unwrap();
    let out = run_scheduling(&back, Algorithm::Backfill, PredictorKind::Smith);
    assert_eq!(out.metrics.n_jobs, 500);
    assert!(out.runtime_errors.count() > 0);
}

/// The four site models hit their Table 1 calibration targets at full
/// size (this is the one test that generates the full-size traces).
#[test]
fn site_models_hit_table1_targets_at_full_size() {
    for (name, requests, mean_rt, load) in [
        ("ANL", 7994usize, 97.75, 0.715),
        ("CTC", 13_217, 171.14, 0.525),
        ("SDSC95", 22_885, 108.21, 0.425),
        ("SDSC96", 22_337, 166.98, 0.48),
    ] {
        let wl = synthetic::by_name(name, None).unwrap();
        wl.validate().unwrap();
        let s = WorkloadStats::of(&wl);
        assert_eq!(s.requests, requests, "{name}");
        assert!(
            (s.mean_runtime_min - mean_rt).abs() / mean_rt < 0.01,
            "{name}: mean rt {:.2} vs target {mean_rt}",
            s.mean_runtime_min
        );
        assert!(
            (s.offered_load - load).abs() < 0.03,
            "{name}: offered load {:.3} vs target {load}",
            s.offered_load
        );
    }
}

/// SDSC queues partition the workload in a runtime-correlated way: the
/// derived per-queue maxima must span at least an order of magnitude.
#[test]
fn sdsc_queues_correlate_with_runtime() {
    let mut spec = synthetic::sites::spec_by_name("SDSC95").unwrap();
    spec.n_jobs = 3000;
    let wl = synthetic::generate(&spec);
    let maxima = wl.derive_queue_max_runtimes();
    let named: Vec<f64> = maxima
        .iter()
        .filter(|(q, _)| q.is_some())
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    assert!(
        named.len() >= 10,
        "expected many queues, got {}",
        named.len()
    );
    let hi = named.iter().cloned().fold(f64::MIN, f64::max);
    let lo = named.iter().cloned().fold(f64::MAX, f64::min);
    assert!(hi / lo > 10.0, "queue maxima span too narrow: {lo}..{hi}");
}

/// Workloads from different seeds differ, same seeds agree (generator
/// determinism at the API boundary).
#[test]
fn generator_determinism_boundary() {
    let a = synthetic::toy(200, 32, 7);
    let b = synthetic::toy(200, 32, 7);
    let c = synthetic::toy(200, 32, 8);
    assert_eq!(a.jobs, b.jobs);
    assert_ne!(a.jobs, c.jobs);
}
