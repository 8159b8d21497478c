//! State-based queue wait-time prediction — the paper's stated future
//! work, implemented as an extension.
//!
//! From the conclusions: *"we will investigate an alternative method for
//! predicting queue wait times. This method will use the current state of
//! the scheduling system (number of applications in each queue, time of
//! day, etc.) and historical information on queue wait times during
//! similar past states to predict queue wait times."*
//!
//! [`StateWaitPredictor`] categorizes each submission by a small feature
//! vector of the scheduler state — queue depth, queued work relative to
//! the machine, free-node fraction, the job's own size and predicted run
//! time, and time of day — and predicts the mean of the waits observed in
//! the same category, backing off through coarser categories when the
//! exact one is thin. It learns online: when a job starts, its realized
//! wait is inserted under the state captured at its submission.
//!
//! [`run_state_wait_prediction`] evaluates it in the same harness as the
//! simulation-based technique so the two are directly comparable
//! (regenerate with `paper -- statewait`).

use std::collections::{HashMap, VecDeque};

use qpredict_predict::{CachingPredictor, ErrorStats, RunTimePredictor};
use qpredict_sim::{Algorithm, MaxRuntimeEstimator, SimHooks, Simulation, Snapshot};
use qpredict_workload::{Dur, Job, JobId, Time, Workload};

use crate::waittime::WaitPredictionOutcome;
use crate::PredictorKind;

/// Bucketed description of "what the system looked like" when a job was
/// submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateKey {
    /// `log2(1 + queue depth ahead of the job)`.
    pub queue_depth: u8,
    /// `log2(1 + predicted queued work / machine nodes)`, in minutes —
    /// roughly "minutes of backlog per node".
    pub backlog: u8,
    /// Free nodes as quarters of the machine (0..=4).
    pub free_quarter: u8,
    /// `log2(nodes)` of the submitted job.
    pub job_size: u8,
    /// `log2(1 + predicted run time in minutes)` of the submitted job.
    pub job_length: u8,
    /// Six 4-hour buckets of the (simulated) time of day.
    pub hour_bucket: u8,
}

impl StateKey {
    /// Build the key for `job` submitted into the state `snap`, where
    /// `backlog_node_min` is the predicted queued work ahead of it and
    /// `pred_runtime` the predicted run time of the job itself.
    pub fn capture(
        snap: &Snapshot,
        machine_nodes: u32,
        job: &Job,
        pred_runtime: Dur,
        backlog_node_min: f64,
    ) -> StateKey {
        let depth = snap.queued.len().saturating_sub(1);
        let backlog_per_node = backlog_node_min / machine_nodes as f64;
        StateKey {
            queue_depth: log2_bucket(depth as u64),
            backlog: log2_bucket(backlog_per_node as u64),
            free_quarter: ((4 * snap.free_nodes) / machine_nodes.max(1)).min(4) as u8,
            job_size: log2_bucket(job.nodes as u64),
            job_length: log2_bucket(pred_runtime.minutes() as u64),
            hour_bucket: ((snap.now.seconds().rem_euclid(86_400)) / 14_400) as u8,
        }
    }

    /// Successively coarser keys used for backoff: drop the time of day,
    /// then the free-node fraction, then the job length.
    fn relaxations(mut self) -> [StateKey; 3] {
        let mut out = [self; 3];
        self.hour_bucket = u8::MAX;
        out[0] = self;
        self.free_quarter = u8::MAX;
        out[1] = self;
        self.job_length = u8::MAX;
        out[2] = self;
        out
    }
}

fn log2_bucket(v: u64) -> u8 {
    (64 - (v + 1).leading_zeros() - 1) as u8
}

/// Online state-to-wait regressor.
#[derive(Debug, Clone)]
pub struct StateWaitPredictor {
    /// Bounded per-category wait histories (seconds).
    history: HashMap<StateKey, VecDeque<f64>>,
    /// Points per category before it is trusted.
    min_points: usize,
    /// Retention per category.
    max_history: usize,
    global_sum: f64,
    global_n: u64,
}

impl Default for StateWaitPredictor {
    fn default() -> Self {
        StateWaitPredictor::new(3, 256)
    }
}

impl StateWaitPredictor {
    /// Create a predictor that trusts categories with at least
    /// `min_points` observations and retains at most `max_history` per
    /// category.
    pub fn new(min_points: usize, max_history: usize) -> StateWaitPredictor {
        StateWaitPredictor {
            history: HashMap::new(),
            min_points: min_points.max(1),
            max_history: max_history.max(1),
            global_sum: 0.0,
            global_n: 0,
        }
    }

    /// Predict the wait for a submission with state `key`.
    pub fn predict(&self, key: StateKey) -> Dur {
        let exact = std::iter::once(key);
        for k in exact.chain(key.relaxations()) {
            if let Some(h) = self.history.get(&k) {
                if h.len() >= self.min_points {
                    let mean = h.iter().sum::<f64>() / h.len() as f64;
                    return Dur::from_secs_f64(mean.max(0.0));
                }
            }
        }
        if self.global_n > 0 {
            Dur::from_secs_f64((self.global_sum / self.global_n as f64).max(0.0))
        } else {
            Dur::ZERO
        }
    }

    /// Record a realized wait under the state captured at submission,
    /// in the exact category and every relaxation (so coarse categories
    /// fill fast).
    pub fn observe(&mut self, key: StateKey, wait: Dur) {
        let w = wait.as_secs_f64().max(0.0);
        for k in std::iter::once(key).chain(key.relaxations()) {
            let h = self.history.entry(k).or_default();
            if h.len() >= self.max_history {
                h.pop_front();
            }
            h.push_back(w);
        }
        self.global_sum += w;
        self.global_n += 1;
    }

    /// Number of live state categories.
    pub fn category_count(&self) -> usize {
        self.history.len()
    }
}

struct StateStudy<'w, P> {
    wl: &'w Workload,
    /// Cached: the backlog feature re-predicts every queued job at each
    /// submission, and between completions those estimates are frozen.
    /// Only the job's own prediction is scored, so this study holds the
    /// cache without [`crate::PredictorEstimator`]'s scoring.
    runtime_predictor: CachingPredictor<P>,
    state: StateWaitPredictor,
    /// Per job: the state key captured at submission and the predicted
    /// wait shown then.
    captured: Vec<Option<(StateKey, Dur)>>,
    /// Submission states not yet resolved into waits (job -> key).
    pending: HashMap<JobId, StateKey>,
    runtime_errors: ErrorStats,
}

impl<P: RunTimePredictor> SimHooks for StateStudy<'_, P> {
    fn after_submit(&mut self, snap: &Snapshot, job: &Job) {
        // Predicted backlog ahead of the job.
        let mut backlog_node_min = 0.0;
        for &(id, _) in snap.queued.iter().filter(|&&(id, _)| id != job.id) {
            let j = self.wl.job(id);
            let pred = self.runtime_predictor.predict(j, Dur::ZERO);
            backlog_node_min += j.nodes as f64 * pred.estimate.minutes();
        }
        let own = self.runtime_predictor.predict(job, Dur::ZERO);
        self.runtime_errors.record(own.estimate, job.runtime);
        let key = StateKey::capture(
            snap,
            self.wl.machine_nodes,
            job,
            own.estimate,
            backlog_node_min,
        );
        let predicted = self.state.predict(key);
        self.captured[job.id.index()] = Some((key, predicted));
        self.pending.insert(job.id, key);
    }

    fn on_job_start(&mut self, job: &Job, now: Time) {
        if let Some(key) = self.pending.remove(&job.id) {
            self.state.observe(key, now - job.submit);
        }
    }

    fn on_job_complete(&mut self, job: &Job, _now: Time) {
        RunTimePredictor::on_complete(&mut self.runtime_predictor, job);
    }
}

/// Evaluate the state-based wait predictor in the same harness as
/// [`crate::run_wait_prediction`]: the outer system schedules with
/// maximum run times; `kind` supplies the run-time predictions used for
/// the backlog/job-length features.
pub fn run_state_wait_prediction(
    wl: &Workload,
    alg: Algorithm,
    kind: PredictorKind,
) -> WaitPredictionOutcome {
    let runtime_predictor = kind.build(wl);
    let predictor_name = runtime_predictor.name();
    let mut study = StateStudy {
        wl,
        runtime_predictor: CachingPredictor::new(runtime_predictor),
        state: StateWaitPredictor::default(),
        captured: vec![None; wl.len()],
        pending: HashMap::new(),
        runtime_errors: ErrorStats::new(),
    };
    let mut outer = MaxRuntimeEstimator::from_workload(wl);
    let mut sim = Simulation::new(wl, alg);
    let result = sim.run_with_hooks(&mut outer, &mut study);

    let mut wait_errors = ErrorStats::new();
    for o in &result.outcomes {
        let (_, predicted) = study.captured[o.id.index()].expect("every submission captured");
        wait_errors.record(predicted, o.wait());
    }
    let mut metrics = result.metrics;
    metrics.estimate_cache = Some(study.runtime_predictor.stats());
    WaitPredictionOutcome {
        workload: wl.name.clone(),
        algorithm: alg,
        predictor: predictor_name,
        wait_errors,
        runtime_errors: study.runtime_errors,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::synthetic::toy;

    fn key(depth: u8) -> StateKey {
        StateKey {
            queue_depth: depth,
            backlog: 1,
            free_quarter: 2,
            job_size: 2,
            job_length: 3,
            hour_bucket: 1,
        }
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(7), 3);
        assert_eq!(log2_bucket(8), 3);
    }

    #[test]
    fn empty_predictor_returns_zero() {
        let p = StateWaitPredictor::default();
        assert_eq!(p.predict(key(1)), Dur::ZERO);
    }

    #[test]
    fn learns_per_state_means() {
        let mut p = StateWaitPredictor::new(2, 64);
        for _ in 0..4 {
            p.observe(key(0), Dur(60));
            p.observe(key(5), Dur(6000));
        }
        assert_eq!(p.predict(key(0)), Dur(60));
        assert_eq!(p.predict(key(5)), Dur(6000));
    }

    #[test]
    fn backoff_relaxes_hour_first() {
        let mut p = StateWaitPredictor::new(2, 64);
        let mut k = key(3);
        for _ in 0..3 {
            p.observe(k, Dur(300));
        }
        // Same state at a different hour: exact key misses, relaxation
        // (hour dropped) hits.
        k.hour_bucket = 5;
        assert_eq!(p.predict(k), Dur(300));
    }

    #[test]
    fn history_is_bounded() {
        let mut p = StateWaitPredictor::new(1, 4);
        for i in 0..100 {
            p.observe(key(1), Dur(i));
        }
        // Only the last 4 observations (96..=99) remain: mean 97.5 -> 98.
        assert_eq!(p.predict(key(1)), Dur(98));
    }

    #[test]
    fn end_to_end_beats_nothing_and_tracks_scale() {
        let wl = toy(800, 24, 401);
        let out = run_state_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
        assert_eq!(out.wait_errors.count(), 800);
        // Sanity: mean error is bounded by a few times the mean wait
        // (the predictor must at least track the scale of waits).
        assert!(
            out.wait_errors.pct_of_mean_actual() < 300.0,
            "state predictor unusable: {:.0}%",
            out.wait_errors.pct_of_mean_actual()
        );
    }

    #[test]
    fn backlog_features_hit_the_estimate_cache() {
        let wl = toy(300, 16, 403);
        let out = run_state_wait_prediction(&wl, Algorithm::Lwf, PredictorKind::Smith);
        let c = out.metrics.estimate_cache.expect("study runs cached");
        assert!(
            c.hits > 0,
            "queued jobs re-predicted across submissions must hit"
        );
    }

    #[test]
    fn deterministic() {
        let wl = toy(300, 16, 402);
        let a = run_state_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
        let b = run_state_wait_prediction(&wl, Algorithm::Backfill, PredictorKind::Smith);
        assert_eq!(a.wait_errors, b.wait_errors);
    }
}
