//! Guard against the quadratic in elapsed-time prediction coming back.
//!
//! Wait-time prediction re-estimates every running job at every
//! forecast, conditioned on its elapsed time. A predictor that scans the
//! whole category for each such estimate reads points in proportion to
//! jobs × history, so quadrupling the trace multiplies the points read
//! by about 16. Reading suffix sums from the runtime index keeps it near
//! 4. The guard counts the points the Smith predictor traversed rather
//! than timing anything, so it is deterministic.

use qpredict_core::{run_wait_prediction, PredictorKind};
use qpredict_sim::Algorithm;
use qpredict_workload::synthetic::{generate, sites};

/// History points the Smith predictor traversed while predicting waits
/// on the SDSC96 site model cut to `jobs` jobs (sized as the CLI's
/// `waitpred sdsc96 --jobs N` sizes it), under backfill.
fn scanned_points(jobs: usize) -> u64 {
    let mut spec = sites::sdsc96_spec();
    spec.n_jobs = jobs;
    spec.n_users = spec.n_users.min((jobs / 20).max(4));
    let wl = generate(&spec);
    qpredict_obs::reset();
    let out = run_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
    assert_eq!(out.wait_errors.count(), jobs as u64, "every job forecast");
    qpredict_obs::snapshot().counter("smith.scanned_points")
}

#[test]
fn elapsed_conditioned_prediction_reads_near_linearly_many_points() {
    qpredict_obs::set_recording(true);
    let small = scanned_points(500);
    let large = scanned_points(2000);
    qpredict_obs::set_recording(false);
    assert!(small > 0, "the SDSC96 set conditions on elapsed time");
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 6.0,
        "4x the jobs read {ratio:.1}x the points ({small} -> {large}): \
         elapsed-time conditioning has gone quadratic"
    );
}
