//! Prediction workloads: the predict/insert event streams the paper
//! searches over.
//!
//! Section 2.1 ("Run-Time Prediction Experiments"): run-time predictions
//! are demanded at different instants depending on the use:
//!
//! * **wait-time prediction** — every running and queued job (and the new
//!   arrival) is predicted at each *submission*;
//! * **LWF scheduling** — every waiting job is predicted at each
//!   *scheduling attempt* (enqueue or completion);
//! * **backfill scheduling** — every running *and* waiting job is
//!   predicted at each scheduling attempt.
//!
//! Insertions happen at completion. The streams are generated by a
//! simulation that schedules with **maximum run times**, as in the paper
//! ("we generate our run-time prediction workloads for scheduling using
//! maximum run times as run-time predictions").

use qpredict_workload::{Dur, Job, JobId, Time, Workload};

use qpredict_sim::{Algorithm, MaxRuntimeEstimator, SimHooks, Simulation, Snapshot};

/// Why run-time predictions are demanded; determines which jobs are
/// predicted and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Wait-time prediction for the given scheduling algorithm.
    WaitPrediction(Algorithm),
    /// Scheduling with predictions under the given algorithm (the FCFS
    /// variant never predicts, so only LWF/Backfill are meaningful).
    Scheduling(Algorithm),
}

impl Target {
    /// Short tag for file/report names, e.g. `"wait-lwf"`.
    pub fn tag(self) -> String {
        match self {
            Target::WaitPrediction(a) => format!("wait-{}", a.name().to_lowercase()),
            Target::Scheduling(a) => format!("sched-{}", a.name().to_lowercase()),
        }
    }
}

/// One event in a prediction workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredEvent {
    /// Predict the total run time of a job.
    Predict {
        /// Which job to predict.
        job: JobId,
        /// How long it has been running (zero when queued).
        elapsed: Dur,
    },
    /// A job completed; insert it into the historical database.
    Insert {
        /// The completed job.
        job: JobId,
    },
}

/// A recorded stream of prediction demands and history insertions, in
/// simulation order.
#[derive(Debug, Clone)]
pub struct PredictionWorkload {
    /// Which site trace the job ids refer to.
    pub workload_name: String,
    /// What generated the stream.
    pub target: Target,
    /// Events in chronological order.
    pub events: Vec<PredEvent>,
    /// Number of `Predict` events.
    pub n_predictions: usize,
}

struct Recorder {
    target: Target,
    stride: usize,
    trigger: usize,
    events: Vec<PredEvent>,
    n_predictions: usize,
}

impl Recorder {
    fn record_batch(&mut self, snap: &Snapshot, include_running: bool) {
        self.trigger += 1;
        if !(self.trigger - 1).is_multiple_of(self.stride) {
            return;
        }
        if include_running {
            for &(id, start) in &snap.running {
                self.events.push(PredEvent::Predict {
                    job: id,
                    elapsed: snap.now - start,
                });
                self.n_predictions += 1;
            }
        }
        for &(id, _) in &snap.queued {
            self.events.push(PredEvent::Predict {
                job: id,
                elapsed: Dur::ZERO,
            });
            self.n_predictions += 1;
        }
    }
}

impl SimHooks for Recorder {
    fn after_submit(&mut self, snap: &Snapshot, _job: &Job) {
        if let Target::WaitPrediction(_) = self.target {
            // All running and queued jobs (the arrival is last in
            // `queued`) are predicted at each submission.
            self.record_batch(snap, true);
        }
    }

    fn wants_schedule_snapshots(&self) -> bool {
        matches!(self.target, Target::Scheduling(_))
    }

    fn before_schedule(&mut self, snap: &Snapshot) {
        if let Target::Scheduling(alg) = self.target {
            let include_running = alg.uses_running_estimates();
            self.record_batch(snap, include_running);
        }
    }

    fn on_job_complete(&mut self, job: &Job, _now: Time) {
        self.events.push(PredEvent::Insert { job: job.id });
    }
}

impl PredictionWorkload {
    /// Record the prediction workload that `target` induces over `wl`.
    ///
    /// `stride` subsamples the triggering events (1 = record every
    /// trigger, k = every k-th), bounding the stream size for fitness
    /// evaluation; insertions are always kept so the historical database
    /// evolves exactly as in a full run.
    pub fn build(wl: &Workload, target: Target, stride: usize) -> PredictionWorkload {
        let alg = match target {
            Target::WaitPrediction(a) | Target::Scheduling(a) => a,
        };
        let mut recorder = Recorder {
            target,
            stride: stride.max(1),
            trigger: 0,
            events: Vec::new(),
            n_predictions: 0,
        };
        let mut est = MaxRuntimeEstimator::from_workload(wl);
        let mut sim = Simulation::new(wl, alg);
        sim.run_with_hooks(&mut est, &mut recorder);
        PredictionWorkload {
            workload_name: wl.name.clone(),
            target,
            events: recorder.events,
            n_predictions: recorder.n_predictions,
        }
    }

    /// A stride that keeps the stream near `target_predictions` predict
    /// events for this workload/target (heuristic, based on a cheap
    /// full-stride count of triggers x mean batch size).
    pub fn build_capped(
        wl: &Workload,
        target: Target,
        target_predictions: usize,
    ) -> PredictionWorkload {
        // First pass with a coarse stride to estimate density.
        let probe = PredictionWorkload::build(wl, target, 50);
        let est_total = probe.n_predictions.saturating_mul(50).max(1);
        let stride = (est_total / target_predictions.max(1)).max(1);
        if stride >= 50 {
            // The probe itself is already sparser than needed.
            return probe;
        }
        PredictionWorkload::build(wl, target, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::synthetic::toy;

    #[test]
    fn wait_prediction_stream_has_all_inserts() {
        let wl = toy(200, 32, 5);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 1);
        let inserts = pw
            .events
            .iter()
            .filter(|e| matches!(e, PredEvent::Insert { .. }))
            .count();
        assert_eq!(inserts, 200);
        assert!(pw.n_predictions >= 200, "each arrival predicts itself");
    }

    #[test]
    fn scheduling_stream_for_lwf_excludes_running() {
        let wl = toy(150, 32, 6);
        let pw = PredictionWorkload::build(&wl, Target::Scheduling(Algorithm::Lwf), 1);
        // Every Predict in an LWF scheduling stream has elapsed == 0
        // (only waiting jobs are predicted).
        assert!(pw.events.iter().all(|e| match e {
            PredEvent::Predict { elapsed, .. } => *elapsed == Dur::ZERO,
            _ => true,
        }));
        assert!(pw.n_predictions > 0);
    }

    #[test]
    fn scheduling_stream_for_backfill_includes_running() {
        let wl = toy(150, 16, 7);
        let pw = PredictionWorkload::build(&wl, Target::Scheduling(Algorithm::Backfill), 1);
        let has_running = pw.events.iter().any(|e| match e {
            PredEvent::Predict { elapsed, .. } => elapsed.is_positive(),
            _ => false,
        });
        assert!(has_running, "backfill must predict running jobs");
    }

    #[test]
    fn stride_thins_predictions_not_inserts() {
        let wl = toy(150, 32, 8);
        let full = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 1);
        let thin = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 5);
        assert!(thin.n_predictions * 3 < full.n_predictions);
        let inserts = |pw: &PredictionWorkload| {
            pw.events
                .iter()
                .filter(|e| matches!(e, PredEvent::Insert { .. }))
                .count()
        };
        assert_eq!(inserts(&full), inserts(&thin));
    }

    #[test]
    fn capped_build_respects_target() {
        let wl = toy(300, 32, 9);
        let pw =
            PredictionWorkload::build_capped(&wl, Target::WaitPrediction(Algorithm::Backfill), 500);
        // Within a small factor of the target (stride granularity).
        assert!(pw.n_predictions <= 1500, "got {}", pw.n_predictions);
    }

    #[test]
    fn deterministic_streams() {
        let wl = toy(120, 16, 10);
        let a = PredictionWorkload::build(&wl, Target::Scheduling(Algorithm::Backfill), 2);
        let b = PredictionWorkload::build(&wl, Target::Scheduling(Algorithm::Backfill), 2);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn target_tags() {
        assert_eq!(Target::WaitPrediction(Algorithm::Lwf).tag(), "wait-lwf");
        assert_eq!(
            Target::Scheduling(Algorithm::Backfill).tag(),
            "sched-backfill"
        );
    }
}
