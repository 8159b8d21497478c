//! Seeded, deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] describes two families of faults:
//!
//! * **Trace faults** ([`FaultPlan::apply_to_workload`]): cancel a job
//!   (it aborts right after starting), fail it part-way through its run,
//!   or delay its submission — the events a live scheduler sees when
//!   jobs crash and users resubmit.
//! * **Prediction faults** ([`FaultyEstimator`]): scale an estimate by a
//!   log-uniform factor, invert it around a pivot (short jobs look long
//!   and vice versa), or drop it entirely (a static default takes its
//!   place) — the events a live scheduler sees when its predictor
//!   misbehaves.
//!
//! Everything is driven by [`Rng64`] seeded from [`FaultPlan::seed`]:
//! identical plans over identical workloads produce byte-identical
//! simulations, so fault-injection runs are reproducible test fixtures,
//! not flaky chaos.

use qpredict_predict::{DegradationCounts, Prediction, RunTimePredictor};
use qpredict_workload::{Dur, Job, Rng64, Workload};

/// A deterministic fault-injection plan. All probabilities are in
/// `[0, 1]`; zero (the default) disables that fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Probability an estimate is scaled by a log-uniform factor in
    /// `[1/pred_scale_max, pred_scale_max]`.
    pub pred_scale_prob: f64,
    /// Largest scale factor (must be ≥ 1).
    pub pred_scale_max: f64,
    /// Probability an estimate is inverted around the pivot: short jobs
    /// look long, long jobs look short.
    pub pred_invert_prob: f64,
    /// Probability an estimate is dropped and replaced by the static
    /// default.
    pub pred_drop_prob: f64,
    /// Replacement estimate for dropped predictions, and the inversion
    /// pivot.
    pub pred_default: Dur,
    /// Probability a job is cancelled (aborts one second after starting).
    pub cancel_prob: f64,
    /// Probability a job fails part-way (runtime truncated to a uniform
    /// fraction of the original).
    pub fail_prob: f64,
    /// Probability a job's submission is delayed.
    pub delay_prob: f64,
    /// Maximum submission delay.
    pub delay_max: Dur,
}

impl FaultPlan {
    /// A plan with every fault disabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            pred_scale_prob: 0.0,
            pred_scale_max: 10.0,
            pred_invert_prob: 0.0,
            pred_drop_prob: 0.0,
            pred_default: Dur::HOUR,
            cancel_prob: 0.0,
            fail_prob: 0.0,
            delay_prob: 0.0,
            delay_max: Dur::HOUR,
        }
    }

    /// Convenience: prediction noise at intensity `p` (scale with
    /// probability `p`, invert with `p/2`, drop with `p/4`), no trace
    /// faults. This is what the CLI's `--fault-pred-noise` builds.
    pub fn pred_noise(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            pred_scale_prob: p,
            pred_invert_prob: p / 2.0,
            pred_drop_prob: p / 4.0,
            ..FaultPlan::new(seed)
        }
    }

    /// True when the plan mutates the trace itself.
    pub fn has_trace_faults(&self) -> bool {
        self.cancel_prob > 0.0 || self.fail_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Apply the trace faults, returning the mutated workload (re-sorted
    /// and renumbered via [`Workload::finalize`]) and an account of what
    /// was done. Deterministic in `seed`.
    pub fn apply_to_workload(&self, wl: &Workload) -> (Workload, FaultReport) {
        let mut rng = Rng64::seed_from_u64(self.seed ^ 0xFA17_1A17_0000_0001);
        let mut out = wl.clone();
        let mut report = FaultReport::default();
        for j in &mut out.jobs {
            if self.cancel_prob > 0.0 && rng.gen_bool(self.cancel_prob) {
                j.runtime = Dur::SECOND;
                report.cancelled += 1;
                continue;
            }
            if self.fail_prob > 0.0 && rng.gen_bool(self.fail_prob) {
                let frac = rng.gen_range_f64(0.05, 0.95);
                j.runtime = Dur(((j.runtime.seconds() as f64 * frac) as i64).max(1));
                report.failed += 1;
            }
            if self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
                let d = rng.gen_range_i64(1, self.delay_max.seconds().max(1));
                j.submit += Dur(d);
                report.delayed += 1;
            }
        }
        out.finalize();
        (out, report)
    }
}

/// What [`FaultPlan::apply_to_workload`] did to the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Jobs cancelled (runtime truncated to one second).
    pub cancelled: usize,
    /// Jobs failed part-way (runtime truncated to a fraction).
    pub failed: usize,
    /// Jobs whose submission was delayed.
    pub delayed: usize,
}

impl FaultReport {
    /// Total trace mutations.
    pub fn total(&self) -> usize {
        self.cancelled + self.failed + self.delayed
    }
}

/// How many estimates a [`FaultyEstimator`] corrupted, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Estimates multiplied by a random factor.
    pub scaled: u64,
    /// Estimates inverted around the pivot.
    pub inverted: u64,
    /// Estimates dropped and replaced by the default.
    pub dropped: u64,
}

impl FaultCounts {
    /// Total corrupted estimates.
    pub fn total(&self) -> u64 {
        self.scaled + self.inverted + self.dropped
    }
}

/// Wraps any predictor and corrupts its estimates according to a
/// [`FaultPlan`]. Completions pass through untouched, so learning
/// predictors keep training on the truth while the scheduler sees noise.
pub struct FaultyEstimator<E> {
    inner: E,
    plan: FaultPlan,
    rng: Rng64,
    counts: FaultCounts,
}

impl<E: RunTimePredictor> FaultyEstimator<E> {
    /// Wrap `inner` under `plan`. The corruption stream is seeded from
    /// `plan.seed`, independently of the trace-fault stream.
    pub fn new(inner: E, plan: FaultPlan) -> FaultyEstimator<E> {
        let rng = Rng64::seed_from_u64(plan.seed ^ 0xFA17_1A17_0000_0002);
        FaultyEstimator {
            inner,
            plan,
            rng,
            counts: FaultCounts::default(),
        }
    }

    /// How many estimates have been corrupted so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Unwrap, returning the inner predictor and the corruption counts.
    pub fn into_parts(self) -> (E, FaultCounts) {
        (self.inner, self.counts)
    }

    fn corrupt(&mut self, base: Dur, elapsed: Dur) -> Dur {
        let mut v = base;
        if self.plan.pred_drop_prob > 0.0 && self.rng.gen_bool(self.plan.pred_drop_prob) {
            self.counts.dropped += 1;
            v = self.plan.pred_default;
        } else {
            if self.plan.pred_scale_prob > 0.0 && self.rng.gen_bool(self.plan.pred_scale_prob) {
                self.counts.scaled += 1;
                let ln_max = self.plan.pred_scale_max.max(1.0).ln();
                let factor = self.rng.gen_range_f64(-ln_max, ln_max).exp();
                v = Dur(((v.seconds() as f64 * factor) as i64).max(1));
            }
            if self.plan.pred_invert_prob > 0.0 && self.rng.gen_bool(self.plan.pred_invert_prob) {
                self.counts.inverted += 1;
                let pivot = self.plan.pred_default.seconds().max(1);
                v = Dur((pivot * pivot / v.seconds().max(1)).max(1));
            }
        }
        // Corrupted or not, the engine contract holds: positive, and
        // ahead of the elapsed run time.
        v.max(elapsed + Dur::SECOND).max(Dur::SECOND)
    }
}

/// The corrupted estimate replaces the inner prediction's; its interval
/// and fallback flag pass through. It holds only where it was drawn, and
/// `generation` stays `None`: every estimate draws from the corruption
/// stream.
impl<E: RunTimePredictor> RunTimePredictor for FaultyEstimator<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let mut pred = self.inner.predict(job, elapsed);
        pred.estimate = self.corrupt(pred.estimate, elapsed);
        pred.holds_below = Dur::ZERO;
        pred
    }

    fn on_complete(&mut self, job: &Job) {
        self.inner.on_complete(job);
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        self.inner.degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::scheduler::Algorithm;
    use crate::timeline::Timeline;
    use qpredict_predict::OraclePredictor;
    use qpredict_workload::synthetic::toy;
    use qpredict_workload::{JobBuilder, JobId};

    #[test]
    fn disabled_plan_is_identity() {
        let wl = toy(100, 16, 40);
        let plan = FaultPlan::new(7);
        assert!(!plan.has_trace_faults());
        let (faulted, report) = plan.apply_to_workload(&wl);
        assert_eq!(report.total(), 0);
        assert_eq!(faulted.jobs.len(), wl.jobs.len());
        for (a, b) in wl.jobs.iter().zip(&faulted.jobs) {
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.submit, b.submit);
        }
    }

    #[test]
    fn trace_faults_are_deterministic() {
        let wl = toy(200, 16, 41);
        let plan = FaultPlan {
            cancel_prob: 0.1,
            fail_prob: 0.1,
            delay_prob: 0.2,
            ..FaultPlan::new(99)
        };
        let (a, ra) = plan.apply_to_workload(&wl);
        let (b, rb) = plan.apply_to_workload(&wl);
        assert_eq!(ra, rb);
        assert!(ra.total() > 0, "faults must actually fire");
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.runtime, y.runtime);
            assert_eq!(x.submit, y.submit);
        }
        // A different seed produces a different outcome.
        let (_, rc) = FaultPlan {
            seed: 100,
            ..plan.clone()
        }
        .apply_to_workload(&wl);
        assert_ne!(
            ra, rc,
            "distinct seeds should differ (astronomically likely)"
        );
    }

    #[test]
    fn faulted_workload_still_validates_and_simulates() {
        let wl = toy(150, 16, 42);
        let plan = FaultPlan {
            cancel_prob: 0.15,
            fail_prob: 0.15,
            delay_prob: 0.25,
            ..FaultPlan::new(5)
        };
        let (faulted, _) = plan.apply_to_workload(&wl);
        assert!(faulted.validate().is_ok());
        // The engine's debug assertions check capacity and node
        // accounting during the run; the schedule is checked after it.
        let run = Simulation::run(&faulted, Algorithm::Backfill, &mut OraclePredictor);
        assert!(Timeline::build(&faulted, &run.outcomes).is_feasible());
        assert!(run.outcomes.iter().all(|o| o.start >= o.submit));
    }

    #[test]
    fn corrupted_estimates_stay_in_contract() {
        let plan = FaultPlan {
            pred_scale_prob: 0.5,
            pred_invert_prob: 0.3,
            pred_drop_prob: 0.2,
            ..FaultPlan::new(13)
        };
        let mut est = FaultyEstimator::new(OraclePredictor, plan);
        let j = JobBuilder::new().runtime(Dur(500)).build(JobId(0));
        for k in 0..500 {
            let elapsed = Dur(k % 700);
            let e = est.predict(&j, elapsed).estimate;
            assert!(e >= Dur::SECOND);
            assert!(e >= elapsed + Dur::SECOND);
        }
        assert!(est.counts().total() > 0, "corruption must fire");
    }

    #[test]
    fn identical_seeds_give_identical_fault_streams() {
        let wl = toy(120, 16, 43);
        let plan = FaultPlan::pred_noise(21, 0.3);
        let run = |plan: &FaultPlan| {
            let mut est = FaultyEstimator::new(OraclePredictor, plan.clone());
            let r = Simulation::run(&wl, Algorithm::Backfill, &mut est);
            (r.metrics, est.counts())
        };
        let (ma, ca) = run(&plan);
        let (mb, cb) = run(&plan);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0);
        assert_eq!(ma.mean_wait, mb.mean_wait);
        assert_eq!(ma.utilization, mb.utilization);
    }

    #[test]
    fn pred_noise_zero_leaves_schedule_unchanged() {
        let wl = toy(120, 16, 44);
        let plan = FaultPlan::pred_noise(21, 0.0);
        let mut est = FaultyEstimator::new(OraclePredictor, plan);
        let faulted = Simulation::run(&wl, Algorithm::Backfill, &mut est);
        let clean = Simulation::run(&wl, Algorithm::Backfill, &mut OraclePredictor);
        assert_eq!(faulted.outcomes, clean.outcomes);
        assert_eq!(est.counts().total(), 0);
    }
}
