//! The prediction-driven scheduling experiment (paper Section 4,
//! Tables 10–15): drive LWF or backfill with a run-time predictor and
//! measure utilization and mean wait time.

use qpredict_predict::{DegradationCounts, ErrorStats, RunTimePredictor};
use qpredict_sim::{
    Algorithm, FaultCounts, FaultPlan, FaultReport, FaultyEstimator, Metrics, Simulation,
};
use qpredict_workload::Workload;

use crate::adapter::PredictorEstimator;
use crate::PredictorKind;

/// Results of one scheduling run.
#[derive(Debug, Clone)]
pub struct SchedulingOutcome {
    /// Workload name.
    pub workload: String,
    /// Algorithm driven by the predictor.
    pub algorithm: Algorithm,
    /// Predictor used.
    pub predictor: &'static str,
    /// Schedule quality (the paper reports utilization and mean wait).
    pub metrics: Metrics,
    /// Run-time prediction errors over every estimate the scheduler
    /// requested.
    pub runtime_errors: ErrorStats,
    /// How many estimates came from the predictor's fallback path.
    pub fallback_estimates: u64,
    /// Per-tier degradation accounting, present when the predictor is a
    /// fallback chain ([`PredictorKind::Fallback`]).
    pub degradations: Option<DegradationCounts>,
    /// Fault-injection accounting, present when the run was driven by a
    /// [`FaultPlan`] (see [`run_scheduling_with`]).
    pub faults: Option<FaultSummary>,
}

/// What a fault-injected run actually did to its inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Trace-level mutations (cancelled / failed / delayed jobs).
    pub trace: FaultReport,
    /// Prediction corruptions (scaled / inverted / dropped estimates).
    pub estimates: FaultCounts,
}

/// Schedule `wl` under `alg` using `kind` for run-time estimates.
pub fn run_scheduling(wl: &Workload, alg: Algorithm, kind: PredictorKind) -> SchedulingOutcome {
    run_scheduling_with(wl, alg, kind, None)
}

/// Like [`run_scheduling`], optionally injecting faults: trace faults
/// mutate a copy of the workload before the run, prediction faults wrap
/// the predictor in a [`FaultyEstimator`]. With `faults` of `None` this
/// is exactly `run_scheduling`. Deterministic in `FaultPlan::seed`.
pub fn run_scheduling_with(
    wl: &Workload,
    alg: Algorithm,
    kind: PredictorKind,
    faults: Option<&FaultPlan>,
) -> SchedulingOutcome {
    let _span = qpredict_obs::span("run.scheduling");
    let (faulted, trace_report) = match faults {
        Some(plan) if plan.has_trace_faults() => {
            let (w, r) = plan.apply_to_workload(wl);
            (Some(w), r)
        }
        _ => (None, FaultReport::default()),
    };
    let wl_run = faulted.as_ref().unwrap_or(wl);
    let predictor = kind.build(wl_run);
    let predictor_name = predictor.name();
    let mut inner = PredictorEstimator::new(predictor);
    // Only a plan wraps the predictor: without one, the wrapper's clamp is
    // the one the engine already applies.
    let (result, inner, est_counts) = match faults {
        Some(plan) => {
            let mut est = FaultyEstimator::new(inner, plan.clone());
            let result = Simulation::run(wl_run, alg, &mut est);
            let (inner, counts) = est.into_parts();
            (result, inner, counts)
        }
        None => {
            let result = Simulation::run(wl_run, alg, &mut inner);
            (result, inner, FaultCounts::default())
        }
    };
    let mut metrics = result.metrics;
    metrics.estimate_cache = Some(inner.cache_stats());
    SchedulingOutcome {
        workload: wl.name.clone(),
        algorithm: alg,
        predictor: predictor_name,
        metrics,
        runtime_errors: *inner.errors(),
        fallback_estimates: inner.fallback_count(),
        degradations: inner.degradations(),
        faults: faults.map(|_| FaultSummary {
            trace: trace_report,
            estimates: est_counts,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::synthetic::toy;

    #[test]
    fn fcfs_outcome_is_predictor_invariant() {
        // FCFS never consults the estimator; every predictor must yield
        // the identical schedule.
        let wl = toy(250, 32, 30);
        let a = run_scheduling(&wl, Algorithm::Fcfs, PredictorKind::Actual);
        let b = run_scheduling(&wl, Algorithm::Fcfs, PredictorKind::MaxRuntime);
        let c = run_scheduling(&wl, Algorithm::Fcfs, PredictorKind::DowneyMedian);
        assert_eq!(a.metrics.mean_wait, b.metrics.mean_wait);
        assert_eq!(a.metrics.mean_wait, c.metrics.mean_wait);
        assert_eq!(a.runtime_errors.count(), 0, "FCFS must never predict");
    }

    #[test]
    fn utilization_is_insensitive_to_predictor() {
        // The paper's Section 4 finding: "the accuracy of the run-time
        // predictions has a minimal effect on the utilization".
        let wl = toy(400, 24, 31);
        let mut utils = Vec::new();
        for kind in [
            PredictorKind::Actual,
            PredictorKind::MaxRuntime,
            PredictorKind::Smith,
        ] {
            utils.push(
                run_scheduling(&wl, Algorithm::Backfill, kind)
                    .metrics
                    .utilization,
            );
        }
        let max = utils.iter().cloned().fold(f64::MIN, f64::max);
        let min = utils.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.05, "utilization spread too large: {utils:?}");
    }

    #[test]
    fn lwf_with_oracle_beats_fcfs_on_mean_wait() {
        // LWF exists because running least-work-first slashes mean waits;
        // with perfect estimates this must materialize.
        let wl = toy(400, 16, 32);
        let fcfs = run_scheduling(&wl, Algorithm::Fcfs, PredictorKind::Actual);
        let lwf = run_scheduling(&wl, Algorithm::Lwf, PredictorKind::Actual);
        assert!(
            lwf.metrics.mean_wait < fcfs.metrics.mean_wait,
            "LWF {:?} should beat FCFS {:?}",
            lwf.metrics.mean_wait,
            fcfs.metrics.mean_wait
        );
    }

    #[test]
    fn backfill_with_oracle_beats_fcfs_on_mean_wait() {
        let wl = toy(400, 16, 33);
        let fcfs = run_scheduling(&wl, Algorithm::Fcfs, PredictorKind::Actual);
        let bf = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
        assert!(
            bf.metrics.mean_wait < fcfs.metrics.mean_wait,
            "backfill {:?} should beat FCFS {:?}",
            bf.metrics.mean_wait,
            fcfs.metrics.mean_wait
        );
    }

    #[test]
    fn all_predictors_complete_all_jobs() {
        let wl = toy(200, 16, 34);
        for kind in PredictorKind::ALL {
            for alg in [Algorithm::Lwf, Algorithm::Backfill] {
                let out = run_scheduling(&wl, alg, kind.clone());
                assert_eq!(out.metrics.n_jobs, 200, "{alg} + {kind} lost jobs");
                assert!(out.metrics.utilization > 0.0 && out.metrics.utilization <= 1.0);
            }
        }
    }

    #[test]
    fn fallback_chain_schedules_and_reports_degradations() {
        let wl = toy(200, 16, 36);
        let out = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Fallback);
        assert_eq!(out.metrics.n_jobs, 200);
        let d = out
            .degradations
            .expect("fallback kind reports degradations");
        assert!(d.degradations > 0, "cold start must degrade at least once");
        assert_eq!(d.total_served(), out.runtime_errors.count());
        // Plain predictors report no chain accounting.
        let plain = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Smith);
        assert!(plain.degradations.is_none());
    }

    #[test]
    fn fault_injected_runs_are_seed_deterministic() {
        use qpredict_sim::FaultPlan;
        let wl = toy(200, 16, 37);
        let plan = FaultPlan {
            cancel_prob: 0.05,
            fail_prob: 0.05,
            delay_prob: 0.1,
            ..FaultPlan::pred_noise(1234, 0.2)
        };
        let a = run_scheduling_with(&wl, Algorithm::Backfill, PredictorKind::Smith, Some(&plan));
        let b = run_scheduling_with(&wl, Algorithm::Backfill, PredictorKind::Smith, Some(&plan));
        assert_eq!(a.metrics.mean_wait, b.metrics.mean_wait);
        assert_eq!(a.metrics.utilization, b.metrics.utilization);
        let fa = a.faults.expect("fault summary present");
        assert_eq!(Some(fa), b.faults);
        assert!(fa.trace.total() > 0, "trace faults must fire");
        assert!(fa.estimates.total() > 0, "prediction faults must fire");
        // Without a plan, no summary and a clean schedule.
        let clean = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Smith);
        assert!(clean.faults.is_none());
        assert_ne!(clean.metrics.mean_wait, a.metrics.mean_wait);
    }

    /// Scheduling estimates go through the estimate cache: its hits and
    /// misses add up to the estimates scored, and the run's metrics are
    /// those of the bare predictor driving the same schedule. For a
    /// cacheable predictor (Smith) repeats are served and completions
    /// move the generation; an uncacheable one (the fallback chain)
    /// passes through, every estimate a miss.
    #[test]
    fn estimate_cache_counters_add_up_to_the_estimates() {
        let wl = toy(200, 16, 38);
        for kind in [PredictorKind::Smith, PredictorKind::Fallback] {
            let out = run_scheduling(&wl, Algorithm::Lwf, kind.clone());
            let who = out.predictor;
            let c = out.metrics.estimate_cache.expect("counters reported");
            let estimates = out.runtime_errors.count();
            assert!(estimates > 0, "{who}: LWF estimates");
            assert_eq!(c.hits + c.misses, estimates, "{who}");
            if who == "fallback" {
                assert_eq!((c.hits, c.invalidations), (0, 0), "{who}: a pass-through");
            } else {
                assert!(c.hits > 0 && c.misses > 0, "{who}: {c}");
                assert!(
                    c.invalidations > 0,
                    "{who}: completions move the generation"
                );
            }
            let bare = Simulation::run(&wl, Algorithm::Lwf, &mut kind.build(&wl));
            let cached = Metrics {
                estimate_cache: None,
                ..out.metrics
            };
            assert_eq!(cached, bare.metrics, "{who}: the schedule moved");
        }
    }

    #[test]
    fn oracle_runtime_errors_are_zero() {
        let wl = toy(150, 16, 35);
        let out = run_scheduling(&wl, Algorithm::Backfill, PredictorKind::Actual);
        assert!(out.runtime_errors.count() > 0);
        assert_eq!(out.runtime_errors.mean_abs_error_min(), 0.0);
    }
}
