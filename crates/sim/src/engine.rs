//! The trace-driven simulation engine.
//!
//! [`Simulation::run`] replays a [`Workload`] against one scheduling
//! algorithm, consulting a [`RunTimePredictor`] exactly where the paper's
//! schedulers consult run-time predictions: LWF re-estimates all waiting
//! jobs at every scheduling attempt, backfill re-estimates all running and
//! waiting jobs at every scheduling attempt, FCFS never estimates. The
//! engine reads `predict(job, elapsed).estimate` and reports each
//! completion through `on_complete(job)`.
//!
//! The engine plans every pass through one [`Planner`], which keeps its
//! buffers and availability profile for the whole run. Under
//! conservative backfill the planner carries its plan across a pass that
//! follows no completion and places only the new arrivals (DESIGN.md
//! §14). Backfill still estimates every running and queued job on every
//! pass, in the same order, whether the pass builds a profile, carries
//! one or needs none, so the predictor's call sequence is independent of
//! those shortcuts.
//!
//! A [`SimHooks`] implementation can observe submissions (receiving a
//! [`Snapshot`] of the system state — this is how `qpredict-core` runs its
//! nested wait-time forecasts), starts, and completions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qpredict_predict::RunTimePredictor;
use qpredict_workload::{Dur, Job, JobId, Time, Workload};

use crate::metrics::{JobOutcome, Metrics};
use crate::scheduler::{Algorithm, Planner, QueueEntry, RunningView};

/// A point-in-time view of the simulated system, captured after a
/// submission is enqueued and before the scheduler reacts to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Capture instant.
    pub now: Time,
    /// Nodes not occupied by running jobs.
    pub free_nodes: u32,
    /// Running jobs as `(id, start_time)`, in start order.
    pub running: Vec<(JobId, Time)>,
    /// Queued jobs as `(id, arrival_seq)`, in arrival order. Includes the
    /// job whose submission triggered the capture (always last).
    pub queued: Vec<(JobId, u64)>,
}

impl Snapshot {
    /// Overwrite with the given state, reusing the buffers.
    fn refill(
        &mut self,
        now: Time,
        free_nodes: u32,
        running: &[RunningJob],
        queued: &[(JobId, u64)],
    ) {
        self.now = now;
        self.free_nodes = free_nodes;
        self.running.clear();
        self.running.extend(running.iter().map(|r| (r.id, r.start)));
        self.queued.clear();
        self.queued.extend_from_slice(queued);
    }
}

/// Observer of simulation events. All methods default to no-ops.
pub trait SimHooks {
    /// A job was enqueued; `snap` is the state including it, before the
    /// scheduler has reacted.
    fn after_submit(&mut self, _snap: &Snapshot, _job: &Job) {}
    /// A job started.
    fn on_job_start(&mut self, _job: &Job, _now: Time) {}
    /// A job completed.
    fn on_job_complete(&mut self, _job: &Job, _now: Time) {}
    /// Return true to receive [`SimHooks::before_schedule`] calls (they
    /// cost a snapshot per scheduling attempt, so they are opt-in).
    fn wants_schedule_snapshots(&self) -> bool {
        false
    }
    /// The scheduler is about to attempt to start jobs (a job was
    /// enqueued or finished and the queue is non-empty). Only called when
    /// [`SimHooks::wants_schedule_snapshots`] returns true.
    fn before_schedule(&mut self, _snap: &Snapshot) {}
}

/// The trivial observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl SimHooks for NoHooks {}

/// Result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-job outcome, indexed by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate schedule quality.
    pub metrics: Metrics,
}

impl SimResult {
    /// The outcome for a specific job.
    pub fn outcome(&self, id: JobId) -> &JobOutcome {
        &self.outcomes[id.index()]
    }
}

/// Event kinds; finishes sort before submissions at equal times so that
/// freed nodes are visible to jobs arriving at the same instant.
const KIND_FINISH: u8 = 0;
const KIND_SUBMIT: u8 = 1;

type Event = Reverse<(Time, u8, u64, JobId)>;

struct RunningJob {
    id: JobId,
    start: Time,
    nodes: u32,
}

/// A trace-driven simulation of one workload under one algorithm.
pub struct Simulation<'w> {
    wl: &'w Workload,
    alg: Algorithm,
    events: BinaryHeap<Event>,
    now: Time,
    free_nodes: u32,
    running: Vec<RunningJob>,
    queue: Vec<(JobId, u64)>,
    next_seq: u64,
    starts: Vec<Option<Time>>,
    finishes: Vec<Option<Time>>,
    finished: usize,
    planner: Planner,
    /// Scratch of a pass: the jobs it starts, in start order, and which
    /// queue slots they leave.
    started: Vec<JobId>,
    chosen: Vec<bool>,
    /// The snapshot lent to hooks, refilled in place at each capture.
    snap: Snapshot,
}

impl<'w> Simulation<'w> {
    /// Prepare a simulation of `wl` under `alg`. The workload must pass
    /// [`Workload::validate`].
    ///
    /// # Panics
    ///
    /// If a job asks for more nodes than the machine has: such a job can
    /// never start, so the run could not finish.
    pub fn new(wl: &'w Workload, alg: Algorithm) -> Simulation<'w> {
        let mut events = BinaryHeap::with_capacity(wl.len() * 2 + 1);
        for j in &wl.jobs {
            assert!(
                j.nodes <= wl.machine_nodes,
                "job {} asks for {} nodes but the machine has {}",
                j.id.0,
                j.nodes,
                wl.machine_nodes
            );
            events.push(Reverse((j.submit, KIND_SUBMIT, j.id.0 as u64, j.id)));
        }
        Simulation {
            wl,
            alg,
            events,
            now: Time::ZERO,
            free_nodes: wl.machine_nodes,
            running: Vec::new(),
            queue: Vec::new(),
            next_seq: 0,
            starts: vec![None; wl.len()],
            finishes: vec![None; wl.len()],
            finished: 0,
            planner: Planner::new(alg, wl.machine_nodes),
            started: Vec::new(),
            chosen: Vec::new(),
            snap: Snapshot::default(),
        }
    }

    /// Run to completion with no observer.
    pub fn run(wl: &'w Workload, alg: Algorithm, est: &mut dyn RunTimePredictor) -> SimResult {
        let mut sim = Simulation::new(wl, alg);
        sim.run_with_hooks(est, &mut NoHooks)
    }

    /// Run to completion, reporting submissions/starts/completions to
    /// `hooks`.
    pub fn run_with_hooks(
        &mut self,
        est: &mut dyn RunTimePredictor,
        hooks: &mut dyn SimHooks,
    ) -> SimResult {
        self.drive(est, hooks);
        debug_assert_eq!(self.finished, self.wl.len(), "jobs lost by the engine");
        debug_assert_eq!(self.free_nodes, self.wl.machine_nodes);
        debug_assert!(self.queue.is_empty() && self.running.is_empty());
        let outcomes: Vec<JobOutcome> = self
            .wl
            .jobs
            .iter()
            .map(|j| JobOutcome {
                id: j.id,
                submit: j.submit,
                start: self.starts[j.id.index()].expect("every job starts"),
                finish: self.finishes[j.id.index()].expect("every job finishes"),
            })
            .collect();
        let metrics = Metrics::from_outcomes(self.wl, &outcomes);
        SimResult { outcomes, metrics }
    }

    /// The event loop: advance instant by instant until no event is left.
    fn drive(&mut self, est: &mut dyn RunTimePredictor, hooks: &mut dyn SimHooks) {
        let _run_span = qpredict_obs::span("sim.run");
        let mut events_drained = 0u64;
        while let Some(&Reverse((t, _, _, _))) = self.events.peek() {
            self.now = t;
            // Drain every event at this instant; heap order guarantees
            // finishes come first.
            while let Some(&Reverse((et, kind, _, id))) = self.events.peek() {
                if et != t {
                    break;
                }
                self.events.pop();
                events_drained += 1;
                match kind {
                    KIND_FINISH => self.apply_finish(id, est, hooks),
                    _ => self.apply_submit(id, hooks),
                }
            }
            self.schedule(est, hooks);
        }
        qpredict_obs::counter_add("sim.events", events_drained);
    }

    fn apply_finish(
        &mut self,
        id: JobId,
        est: &mut dyn RunTimePredictor,
        hooks: &mut dyn SimHooks,
    ) {
        let pos = self
            .running
            .iter()
            .position(|r| r.id == id)
            .expect("finish event for job that is not running");
        let r = self.running.remove(pos);
        self.free_nodes += r.nodes;
        self.finishes[id.index()] = Some(self.now);
        self.finished += 1;
        qpredict_obs::counter_add("sim.jobs_completed", 1);
        let job = self.wl.job(id);
        est.on_complete(job);
        hooks.on_job_complete(job, self.now);
    }

    fn apply_submit(&mut self, id: JobId, hooks: &mut dyn SimHooks) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push((id, seq));
        let job = self.wl.job(id);
        hooks.after_submit(self.refresh_snapshot(), job);
    }

    fn schedule(&mut self, est: &mut dyn RunTimePredictor, hooks: &mut dyn SimHooks) {
        if self.queue.is_empty() {
            return;
        }
        let _span = qpredict_obs::span("sim.schedule");
        if hooks.wants_schedule_snapshots() {
            hooks.before_schedule(self.refresh_snapshot());
        }
        // Re-estimate exactly the sets the paper says each algorithm
        // consults at every scheduling attempt.
        let planner = &mut self.planner;
        planner.begin(self.now);
        for r in &self.running {
            let pred_end = if self.alg.uses_running_estimates() {
                let elapsed = self.now - r.start;
                let pred = est
                    .predict(self.wl.job(r.id), elapsed)
                    .estimate
                    .max(elapsed + Dur::SECOND);
                r.start + pred
            } else {
                self.now + Dur::SECOND
            };
            planner.push_running(RunningView {
                nodes: r.nodes,
                pred_end,
            });
        }
        for &(id, seq) in &self.queue {
            let pred = if self.alg.uses_queue_estimates() {
                est.predict(self.wl.job(id), Dur::ZERO)
                    .estimate
                    .max(Dur::SECOND)
            } else {
                Dur::SECOND
            };
            planner.push_queued(QueueEntry {
                id,
                seq,
                nodes: self.wl.job(id).nodes,
                pred_runtime: pred,
            });
        }
        debug_assert_eq!(
            self.running.iter().map(|r| r.nodes as u64).sum::<u64>() + self.free_nodes as u64,
            self.wl.machine_nodes as u64,
            "free-node accounting is inconsistent"
        );
        self.started.clear();
        self.chosen.clear();
        self.chosen.resize(self.queue.len(), false);
        for &(i, at) in planner.plan() {
            if at == self.now {
                self.started.push(self.queue[i].0);
                self.chosen[i] = true;
            }
        }
        if self.started.is_empty() {
            return;
        }
        // Start the chosen jobs in the planner's order; drop them from
        // the queue first.
        let mut slot = 0;
        let chosen = &self.chosen;
        self.queue.retain(|_| {
            slot += 1;
            !chosen[slot - 1]
        });
        for &id in &self.started {
            let job = self.wl.job(id);
            debug_assert!(job.nodes <= self.free_nodes, "scheduler oversubscribed");
            qpredict_obs::counter_add("sim.jobs_started", 1);
            self.free_nodes -= job.nodes;
            self.running.push(RunningJob {
                id,
                start: self.now,
                nodes: job.nodes,
            });
            self.starts[id.index()] = Some(self.now);
            self.events.push(Reverse((
                self.now + job.runtime,
                KIND_FINISH,
                id.0 as u64,
                id,
            )));
            hooks.on_job_start(job, self.now);
        }
    }

    /// Capture the current system state.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.refill(self.now, self.free_nodes, &self.running, &self.queue);
        snap
    }

    /// [`Simulation::snapshot`] into the buffer the simulation owns, so
    /// a capture allocates nothing once the buffer has grown.
    fn refresh_snapshot(&mut self) -> &Snapshot {
        self.snap
            .refill(self.now, self.free_nodes, &self.running, &self.queue);
        &self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::MaxRuntimeEstimator;
    use qpredict_predict::{OraclePredictor, Prediction};
    use qpredict_workload::JobBuilder;

    /// machine of 8 nodes; jobs: (submit, nodes, runtime, max_rt)
    fn wl(jobs: &[(i64, u32, i64, i64)]) -> Workload {
        let mut w = Workload::new("t", 8);
        w.jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, &(s, n, r, m))| {
                JobBuilder::new()
                    .submit(Time(s))
                    .nodes(n)
                    .runtime(Dur(r))
                    .max_runtime(Dur(m))
                    .build(JobId(i as u32))
            })
            .collect();
        w.finalize();
        w
    }

    #[test]
    fn single_job_runs_immediately() {
        let w = wl(&[(10, 4, 100, 200)]);
        let r = Simulation::run(&w, Algorithm::Fcfs, &mut OraclePredictor);
        assert_eq!(r.outcomes[0].start, Time(10));
        assert_eq!(r.outcomes[0].finish, Time(110));
        assert_eq!(r.metrics.mean_wait, Dur::ZERO);
    }

    #[test]
    fn fcfs_serializes_oversized_jobs() {
        let w = wl(&[(0, 8, 100, 200), (0, 8, 100, 200)]);
        let r = Simulation::run(&w, Algorithm::Fcfs, &mut OraclePredictor);
        assert_eq!(r.outcomes[0].start, Time(0));
        assert_eq!(r.outcomes[1].start, Time(100));
        assert_eq!(r.metrics.mean_wait, Dur(50));
    }

    #[test]
    fn finish_frees_nodes_for_same_instant_submit() {
        // Job 0 ends at t=100; job 1 arrives exactly at t=100 and must
        // start immediately (finish processed before submit).
        let w = wl(&[(0, 8, 100, 200), (100, 8, 50, 100)]);
        let r = Simulation::run(&w, Algorithm::Fcfs, &mut OraclePredictor);
        assert_eq!(r.outcomes[1].start, Time(100));
    }

    #[test]
    fn lwf_reorders_by_work() {
        // Arrivals: big job first (8x100=800 work), then small (1x50=50).
        // Machine busy until t=50, so both wait; LWF starts the small one
        // first when nodes free... but the small one fits in 1 node. Use a
        // full blocker.
        let w = wl(&[
            (0, 8, 50, 100),  // blocker, starts at 0
            (1, 8, 100, 200), // big: work 800
            (2, 1, 50, 100),  // small: work 50
        ]);
        let r = Simulation::run(&w, Algorithm::Lwf, &mut OraclePredictor);
        assert_eq!(r.outcomes[2].start, Time(50)); // small first
        assert_eq!(r.outcomes[1].start, Time(100)); // big after small
    }

    #[test]
    fn fcfs_would_not_reorder() {
        let w = wl(&[(0, 8, 50, 100), (1, 8, 100, 200), (2, 1, 50, 100)]);
        let r = Simulation::run(&w, Algorithm::Fcfs, &mut OraclePredictor);
        // FCFS keeps arrival order: the big job takes the whole machine
        // at t=50, and the small job waits behind it until t=150.
        assert_eq!(r.outcomes[1].start, Time(50));
        assert_eq!(r.outcomes[2].start, Time(150));
    }

    #[test]
    fn backfill_uses_accurate_estimates() {
        // Blocker runs to t=100 on 4 nodes. Head job wants 8 nodes ->
        // reserved at t=100. Small job (4 nodes, 50 s) backfills at 0.
        let w = wl(&[
            (0, 4, 100, 100), // blocker
            (1, 8, 100, 100), // head, reserved at 100
            (2, 4, 50, 50),   // backfills
        ]);
        let r = Simulation::run(&w, Algorithm::Backfill, &mut OraclePredictor);
        assert_eq!(r.outcomes[2].start, Time(2)); // backfilled at submit
        assert_eq!(r.outcomes[1].start, Time(100));
    }

    #[test]
    fn backfill_with_loose_limits_wastes_holes() {
        // Same scenario but the small job's limit is 200 s: under
        // max-runtime estimates it appears to overlap the reservation and
        // cannot backfill.
        let w = wl(&[
            (0, 4, 100, 100),
            (1, 8, 100, 100),
            (2, 4, 50, 200), // loose limit
        ]);
        let mut est = MaxRuntimeEstimator::from_workload(&w);
        let r = Simulation::run(&w, Algorithm::Backfill, &mut est);
        assert!(
            r.outcomes[2].start >= Time(100),
            "loose limit should block backfill"
        );
    }

    #[test]
    fn all_jobs_complete_and_accounting_balances() {
        let w = qpredict_workload::synthetic::toy(400, 32, 3);
        for alg in Algorithm::ALL {
            let r = Simulation::run(&w, alg, &mut OraclePredictor);
            assert_eq!(r.outcomes.len(), 400);
            for o in &r.outcomes {
                assert!(o.start >= o.submit, "{alg}: started before submit");
                assert_eq!(
                    o.finish - o.start,
                    w.job(o.id).runtime,
                    "{alg}: runtime distorted"
                );
            }
            assert!(r.metrics.utilization > 0.0 && r.metrics.utilization <= 1.0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let w = qpredict_workload::synthetic::toy(300, 32, 4);
        for alg in Algorithm::ALL {
            let a = Simulation::run(&w, alg, &mut OraclePredictor);
            let b = Simulation::run(&w, alg, &mut OraclePredictor);
            assert_eq!(a.outcomes, b.outcomes, "{alg} nondeterministic");
        }
    }

    #[test]
    fn snapshot_contains_new_job() {
        struct Grab(Vec<(usize, usize)>); // (#running, #queued) at submits
        impl SimHooks for Grab {
            fn after_submit(&mut self, snap: &Snapshot, _job: &Job) {
                self.0.push((snap.running.len(), snap.queued.len()));
            }
        }
        let w = wl(&[(0, 8, 100, 100), (10, 8, 100, 100)]);
        let mut hooks = Grab(Vec::new());
        let mut sim = Simulation::new(&w, Algorithm::Fcfs);
        sim.run_with_hooks(&mut OraclePredictor, &mut hooks);
        // First submit: nothing running yet, itself queued.
        assert_eq!(hooks.0[0], (0, 1));
        // Second submit: first job running, itself queued.
        assert_eq!(hooks.0[1], (1, 1));
    }

    #[test]
    #[should_panic(expected = "job 1 asks for 16 nodes but the machine has 8")]
    fn a_job_larger_than_the_machine_is_rejected_up_front() {
        // Workload::validate rejects this job; a workload that bypassed
        // validation must fail at entry, not after simulating the rest.
        let mut w = Workload::new("t", 8);
        w.jobs = vec![
            JobBuilder::new().nodes(4).runtime(Dur(10)).build(JobId(0)),
            JobBuilder::new()
                .nodes(16)
                .runtime(Dur(10))
                .submit(Time(1))
                .build(JobId(1)),
        ];
        Simulation::new(&w, Algorithm::Fcfs);
    }

    #[test]
    fn estimator_sees_completions() {
        struct Count(usize);
        impl RunTimePredictor for Count {
            fn name(&self) -> &'static str {
                "count"
            }
            fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
                OraclePredictor.predict(job, elapsed)
            }
            fn on_complete(&mut self, _job: &Job) {
                self.0 += 1;
            }
        }
        let w = wl(&[(0, 2, 10, 10), (0, 2, 10, 10), (5, 2, 10, 10)]);
        let mut est = Count(0);
        Simulation::run(&w, Algorithm::Backfill, &mut est);
        assert_eq!(est.0, 3);
    }
}
