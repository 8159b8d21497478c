//! Nested scheduler simulation: predict when a job will start.
//!
//! The paper's wait-time prediction technique (Section 3): *"use
//! predictions of application execution times along with the scheduling
//! algorithms to simulate the actions made by a scheduler and determine
//! when applications will begin to execute."*
//!
//! [`forecast_jobs`] takes the running and queued jobs of the live
//! system and replays the scheduling algorithm — through literally the
//! same [`Planner`] the real engine uses — until the target job starts.
//! It is the one resolution of a wait question: [`forecast_start`] asks
//! it about a [`Snapshot`] and the online service about its live jobs, so
//! the wait serve answers is the one the offline studies score. Two
//! estimates drive the replay, each asked for once per job:
//!
//! * the **belief** durations are what the real scheduler uses for its
//!   decisions (in the paper's systems: the user-supplied maximum run
//!   times). The forecast feeds these to the planner so the simulated
//!   *decisions* track the real scheduler's;
//! * the **predicted** durations are the run-time predictions under
//!   study. The forecast advances simulated time with these: they decide
//!   when nodes actually free up.
//!
//! With a perfect predictor the forecast then reproduces the real
//! schedule exactly, except for jobs that arrive later — which is why the
//! paper measures a tiny built-in error for backfill (arrivals cannot
//! push existing reservations) and a large one for LWF (smaller-work
//! arrivals jump the queue). No future arrivals are modeled: they are
//! unknown at prediction time.
//!
//! **The first-pass stop.** Under conservative backfill with every
//! belief equal to its prediction, no job finishes earlier than its
//! reservation assumed: rebuilding the profile at each completion gives
//! every remaining job the same earliest fit, in the same order. So the
//! replay returns the target's first-pass reservation. This covers the
//! online service and the wait studies' maxrt rows. (An oversubscribed
//! running set, which only a disordered event stream produces, is clamped
//! by the profile; the stop then keeps the first pass's answer.)
//!
//! One [`Planner`] serves all of a replay's passes, so its buffers and
//! profile are allocated once per forecast. A replay pass always follows
//! a predicted completion, so the planner never carries a plan here; it
//! plans each pass from scratch.

use std::borrow::Borrow;

use qpredict_workload::{Dur, Job, JobId, Time, Workload};

use crate::engine::Snapshot;
use crate::scheduler::{Algorithm, Planner, QueueEntry, RunningView};

/// Simulate the scheduler forward from `snap` and return the predicted
/// start time of `target`: [`forecast_jobs`] over the snapshot's
/// running and queued jobs.
///
/// `belief(job, elapsed)` supplies the duration the *scheduler* assumes
/// (e.g. the maximum run time); `predict(job, elapsed)` supplies the
/// duration under study, used as the job's simulated actual run time.
/// Pass the same closure twice when the scheduler's belief *is* the
/// prediction (e.g. when forecasting a prediction-driven scheduler).
/// Each is called once per job, `predict` first.
///
/// # Panics
/// Panics if `target` is not queued in `snap`.
pub fn forecast_start(
    wl: &Workload,
    alg: Algorithm,
    snap: &Snapshot,
    mut belief: impl FnMut(&Job, Dur) -> Dur,
    predict: impl FnMut(&Job, Dur) -> Dur,
    target: JobId,
) -> Time {
    let _span = qpredict_obs::span("forecast");
    qpredict_obs::counter_add("forecast.calls", 1);
    let running = snap.running.iter().map(|&(id, start)| (wl.job(id), start));
    let queued = snap.queued.iter().map(|&(id, seq)| (wl.job(id), seq));
    let belief = |job: &Job, elapsed, _| belief(job, elapsed);
    forecast_jobs(
        alg,
        wl.machine_nodes,
        snap.now,
        running,
        queued,
        predict,
        belief,
        target,
    )
    .start
}

/// The answer to a wait question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forecast {
    /// The instant the target starts in the forecast.
    pub start: Time,
    /// Whether the running jobs hold more nodes than the machine has,
    /// which only a disordered event stream produces; the forecast then
    /// plans on the machine's nodes.
    pub oversubscribed: bool,
}

/// Resolve a wait question at `now` on a machine of `machine_nodes` and
/// replay the scheduler until `target` starts.
///
/// `running` gives each running job with its start, `queued` each
/// queued job with its arrival sequence number, in arrival order. Each
/// job is asked `predict(job, elapsed)` for the duration it runs in the
/// forecast, then `belief(job, elapsed, predicted)` for the duration the
/// scheduler assumes, running jobs first; `elapsed` is zero for queued
/// jobs and for running jobs started after `now`. A job is held for at
/// least one second past `now`, and for no more nodes than the machine
/// has. The replay takes the first-pass stop (module docs) when `alg` is
/// conservative backfill and every belief equals its prediction.
///
/// # Panics
/// Panics if `target` is not in `queued`.
#[allow(clippy::too_many_arguments)]
pub fn forecast_jobs<J: Borrow<Job>>(
    alg: Algorithm,
    machine_nodes: u32,
    now: Time,
    running: impl IntoIterator<Item = (J, Time)>,
    queued: impl IntoIterator<Item = (J, u64)>,
    mut predict: impl FnMut(&Job, Dur) -> Dur,
    mut belief: impl FnMut(&Job, Dur, Dur) -> Dur,
    target: JobId,
) -> Forecast {
    let mut resolve = |job: &Job, elapsed| {
        let predicted = predict(job, elapsed);
        (predicted, belief(job, elapsed, predicted))
    };
    let nodes = |job: &Job| job.nodes.min(machine_nodes);
    let running: Vec<_> = running
        .into_iter()
        .map(|(job, start)| {
            let job = job.borrow();
            let elapsed = now.since(start).max(Dur::ZERO);
            let (predicted, believed) = resolve(job, elapsed);
            let floor = elapsed + Dur::SECOND;
            let view = RunningView {
                nodes: nodes(job),
                pred_end: start + believed.max(floor),
            };
            (view, start + predicted.max(floor))
        })
        .collect();
    let queue = queued
        .into_iter()
        .map(|(job, seq)| {
            let job = job.borrow();
            let (predicted, believed) = resolve(job, Dur::ZERO);
            let entry = QueueEntry {
                id: job.id,
                seq,
                nodes: nodes(job),
                pred_runtime: believed.max(Dur::SECOND),
            };
            (entry, predicted.max(Dur::SECOND))
        })
        .collect();
    let in_use: u64 = running.iter().map(|(v, _)| u64::from(v.nodes)).sum();
    Forecast {
        start: forecast_replay(alg, machine_nodes, now, running, queue, target),
        oversubscribed: in_use > u64::from(machine_nodes),
    }
}

/// Replay the scheduler from `now` on resolved durations until `target`
/// starts, and return that instant.
///
/// Each running job pairs its [`RunningView`] (`pred_end` is the believed
/// completion) with the instant it frees its nodes in the forecast; each
/// queued job pairs its [`QueueEntry`] (`pred_runtime` is the believed
/// duration) with the duration it runs once started.
fn forecast_replay(
    alg: Algorithm,
    machine_nodes: u32,
    now: Time,
    running: Vec<(RunningView, Time)>,
    queue: Vec<(QueueEntry, Dur)>,
    target: JobId,
) -> Time {
    assert!(
        queue.iter().any(|(e, _)| e.id == target),
        "forecast target must be in the queue"
    );
    if !beliefs_are_exact(alg, &running, &queue) {
        return replay_passes(alg, machine_nodes, now, running, queue, target);
    }
    let mut planner = Planner::new(alg, machine_nodes);
    begin_pass(&mut planner, now, &running, &queue);
    planner
        .plan()
        .iter()
        .find(|&&(i, _)| queue[i].0.id == target)
        .map(|&(_, at)| at)
        .expect("conservative backfill places every queued job")
}

/// Begin a pass of `planner` at `now` on the beliefs of `running` and
/// `queue`.
fn begin_pass(
    planner: &mut Planner,
    now: Time,
    running: &[(RunningView, Time)],
    queue: &[(QueueEntry, Dur)],
) {
    planner.begin(now);
    running.iter().for_each(|&(v, _)| planner.push_running(v));
    queue.iter().for_each(|&(e, _)| planner.push_queued(e));
}

/// Whether the replay may stop after its first pass: conservative
/// backfill, and every resolved belief equal to its prediction.
fn beliefs_are_exact(
    alg: Algorithm,
    running: &[(RunningView, Time)],
    queue: &[(QueueEntry, Dur)],
) -> bool {
    alg == Algorithm::Backfill
        && running.iter().all(|(v, end)| v.pred_end == *end)
        && queue.iter().all(|(e, dur)| e.pred_runtime == *dur)
}

/// The full replay: one scheduling pass at each predicted completion
/// until `target` starts.
fn replay_passes(
    alg: Algorithm,
    machine_nodes: u32,
    mut now: Time,
    mut running: Vec<(RunningView, Time)>,
    mut queue: Vec<(QueueEntry, Dur)>,
    target: JobId,
) -> Time {
    let mut planner = Planner::new(alg, machine_nodes);
    let mut started = Vec::new();
    loop {
        // A job running past its believed end is re-believed to finish
        // imminently: the backfill profile clamps such ends to `now + 1`,
        // as the real engine's elapsed clamp does.
        begin_pass(&mut planner, now, &running, &queue);
        started.clear();
        started.extend(
            planner
                .plan()
                .iter()
                .filter(|&&(_, at)| at == now)
                .map(|&(i, _)| i),
        );
        started.sort_unstable();
        for &i in started.iter().rev() {
            let (entry, dur) = queue.remove(i);
            if entry.id == target {
                return now;
            }
            let view = RunningView {
                nodes: entry.nodes,
                pred_end: now + entry.pred_runtime,
            };
            running.push((view, now + dur));
        }
        // Advance to the next (predicted) completion.
        now = running
            .iter()
            .map(|&(_, end)| end.max(now + Dur::SECOND))
            .min()
            .expect("queued work remains but nothing is running");
        running.retain(|&(_, end)| end > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::{JobBuilder, Rng64};

    /// machine of 8 nodes; jobs: (submit, nodes, runtime)
    fn wl(jobs: &[(i64, u32, i64)]) -> Workload {
        let mut w = Workload::new("t", 8);
        w.jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, &(s, n, r))| {
                JobBuilder::new()
                    .submit(Time(s))
                    .nodes(n)
                    .runtime(Dur(r))
                    .build(JobId(i as u32))
            })
            .collect();
        w.finalize();
        w
    }

    fn snap(now: i64, free: u32, running: &[(u32, i64)], queued: &[u32]) -> Snapshot {
        Snapshot {
            now: Time(now),
            free_nodes: free,
            running: running
                .iter()
                .map(|&(id, s)| (JobId(id), Time(s)))
                .collect(),
            queued: queued
                .iter()
                .enumerate()
                .map(|(i, &id)| (JobId(id), i as u64))
                .collect(),
        }
    }

    /// Forecast with belief == prediction (the common shorthand in
    /// these tests).
    fn fc(
        w: &Workload,
        alg: Algorithm,
        s: &Snapshot,
        f: impl Fn(&Job, Dur) -> Dur + Copy,
        target: JobId,
    ) -> Time {
        forecast_start(w, alg, s, f, f, target)
    }

    #[test]
    fn empty_machine_starts_target_immediately() {
        let w = wl(&[(0, 4, 100)]);
        let s = snap(0, 8, &[], &[0]);
        assert_eq!(
            fc(&w, Algorithm::Fcfs, &s, |j, _| j.runtime, JobId(0)),
            Time(0)
        );
    }

    #[test]
    fn fcfs_waits_for_running_job() {
        let w = wl(&[(0, 8, 100), (10, 8, 50)]);
        let s = snap(10, 0, &[(0, 0)], &[1]);
        assert_eq!(
            fc(&w, Algorithm::Fcfs, &s, |j, _| j.runtime, JobId(1)),
            Time(100)
        );
    }

    #[test]
    fn forecast_uses_predictions_not_actuals() {
        let w = wl(&[(0, 8, 100), (10, 8, 50)]);
        let s = snap(10, 0, &[(0, 0)], &[1]);
        assert_eq!(
            fc(&w, Algorithm::Fcfs, &s, |_j, _| Dur(1000), JobId(1)),
            Time(1000)
        );
    }

    #[test]
    fn elapsed_time_conditioning_applies() {
        let w = wl(&[(0, 8, 600), (500, 8, 50)]);
        let s = snap(500, 0, &[(0, 0)], &[1]);
        assert_eq!(
            fc(&w, Algorithm::Fcfs, &s, |_j, _| Dur(100), JobId(1)),
            Time(501)
        );
    }

    #[test]
    fn lwf_forecast_reorders_queue() {
        let w = wl(&[(0, 8, 100), (10, 8, 1000), (20, 8, 50)]);
        let s = snap(20, 0, &[(0, 0)], &[1, 2]);
        assert_eq!(
            fc(&w, Algorithm::Lwf, &s, |j, _| j.runtime, JobId(2)),
            Time(100)
        );
        assert_eq!(
            fc(&w, Algorithm::Fcfs, &s, |j, _| j.runtime, JobId(2)),
            Time(1100)
        );
    }

    #[test]
    fn backfill_forecast_slips_small_job_into_hole() {
        let w = wl(&[(0, 4, 100), (10, 8, 200), (20, 4, 50)]);
        let s = snap(20, 4, &[(0, 0)], &[1, 2]);
        assert_eq!(
            fc(&w, Algorithm::Backfill, &s, |j, _| j.runtime, JobId(2)),
            Time(20)
        );
    }

    #[test]
    fn belief_steers_decisions_prediction_steers_time() {
        // Backfill with loose beliefs (limits) and exact predictions.
        // 4 nodes free; 4-node job running, believed to end at t=400
        // but predicted (and actually ending) at t=100.
        // Queue: 8-node head (reserved at believed 400), then a 4-node
        // 50 s target whose belief is 300 s.
        // Decision-wise the target CANNOT backfill: believed 300 s from
        // t=20 runs past the believed reservation at 400? No: 20+300=320
        // < 400, so it backfills immediately under belief.
        let w = wl(&[(0, 4, 100), (10, 8, 200), (20, 4, 50)]);
        let s = snap(20, 4, &[(0, 0)], &[1, 2]);
        let belief = |j: &Job, _e: Dur| match j.id.0 {
            0 => Dur(400),
            1 => Dur(400),
            _ => Dur(300),
        };
        let predict = |j: &Job, _e: Dur| j.runtime;
        let t = forecast_start(&w, Algorithm::Backfill, &s, belief, predict, JobId(2));
        assert_eq!(t, Time(20));
        // Now a belief of 500 s for the target: 20+500=520 > 400, it
        // would delay the believed reservation -> it waits for the
        // *predicted* completion of the running job (t=100), after which
        // the 8-node head starts (per belief the head is the earliest
        // reservation)... the head occupies everything for its predicted
        // 200 s, so the target starts at 300.
        let belief2 = |j: &Job, _e: Dur| match j.id.0 {
            0 => Dur(400),
            1 => Dur(400),
            _ => Dur(500),
        };
        let t = forecast_start(&w, Algorithm::Backfill, &s, belief2, predict, JobId(2));
        assert_eq!(t, Time(300));
    }

    #[test]
    #[should_panic(expected = "target must be in the queue")]
    fn rejects_non_queued_target() {
        let w = wl(&[(0, 4, 100)]);
        let s = snap(0, 8, &[], &[]);
        fc(&w, Algorithm::Fcfs, &s, |j, _| j.runtime, JobId(0));
    }

    #[test]
    fn deep_queue_terminates() {
        let mut jobs: Vec<(i64, u32, i64)> = vec![(0, 8, 100)];
        for i in 0..50 {
            jobs.push((i + 1, 8, 60));
        }
        let w = wl(&jobs);
        let queued: Vec<u32> = (1..=50).collect();
        let s = snap(60, 0, &[(0, 0)], &queued);
        let t = fc(&w, Algorithm::Fcfs, &s, |j, _| j.runtime, JobId(50));
        assert_eq!(t, Time(100 + 49 * 60));
    }

    type Running = Vec<(RunningView, Time)>;
    type Queue = Vec<(QueueEntry, Dur)>;

    /// A seeded random replay input with every belief equal to its
    /// prediction: a machine of 1–48 nodes, a running set that fits it
    /// (sometimes one job as wide as the machine, sometimes jobs started
    /// this instant or already past their predicted end) and a queue of
    /// 1–12 jobs, up to machine-wide. Durations come from a coarse grid,
    /// so completions and reservations tie often.
    fn exact_input(rng: &mut Rng64) -> (u32, Time, Running, Queue) {
        let machine = 1 + rng.gen_index(48) as u32;
        let now = Time(rng.gen_range_i64(0, 1_000));
        let grid = |rng: &mut Rng64| Dur(10 * rng.gen_range_i64(1, 12));
        let mut running = Vec::new();
        let mut used = 0;
        if rng.gen_bool(0.15) {
            let end = now + grid(rng);
            running.push((
                RunningView {
                    nodes: machine,
                    pred_end: end,
                },
                end,
            ));
            used = machine;
        }
        while used < machine && rng.gen_bool(0.7) {
            let nodes = 1 + rng.gen_index((machine - used) as usize) as u32;
            let end = match rng.gen_index(4) {
                // Started this instant: zero elapsed time.
                0 => now + grid(rng),
                // Past its predicted end: the profile holds it one second.
                1 => now - Dur(rng.gen_range_i64(0, 30)),
                _ => now + Dur(rng.gen_range_i64(1, 120)),
            };
            running.push((
                RunningView {
                    nodes,
                    pred_end: end,
                },
                end,
            ));
            used += nodes;
        }
        let queue = (0..1 + rng.gen_index(12))
            .map(|i| {
                let nodes = if rng.gen_bool(0.2) {
                    machine
                } else {
                    1 + rng.gen_index(machine as usize) as u32
                };
                let dur = grid(rng);
                let entry = QueueEntry {
                    id: JobId(100 + i as u32),
                    seq: i as u64,
                    nodes,
                    pred_runtime: dur,
                };
                (entry, dur)
            })
            .collect();
        (machine, now, running, queue)
    }

    /// Oracle for the first-pass stop: with conservative backfill and
    /// exact beliefs it returns the full replay's start for every queued
    /// job, and no other algorithm and no input with one belief off by a
    /// few seconds ever takes it.
    #[test]
    fn first_pass_stop_matches_the_full_replay() {
        let mut stops = 0;
        for seed in 0..400u64 {
            let mut rng = Rng64::seed_from_u64(seed);
            let (machine, now, running, queue) = exact_input(&mut rng);
            for &(entry, _) in &queue {
                let target = entry.id;
                let full = |alg, running: &Running, queue: &Queue| {
                    replay_passes(alg, machine, now, running.clone(), queue.clone(), target)
                };
                let replay = |alg, running: &Running, queue: &Queue| {
                    forecast_replay(alg, machine, now, running.clone(), queue.clone(), target)
                };
                assert!(beliefs_are_exact(Algorithm::Backfill, &running, &queue));
                assert_eq!(
                    replay(Algorithm::Backfill, &running, &queue),
                    full(Algorithm::Backfill, &running, &queue),
                    "seed {seed}, target {target:?}"
                );
                stops += 1;
                for alg in [Algorithm::Fcfs, Algorithm::Lwf, Algorithm::EasyBackfill] {
                    assert!(!beliefs_are_exact(alg, &running, &queue), "{alg} stopped");
                    assert_eq!(replay(alg, &running, &queue), full(alg, &running, &queue));
                }
                // One belief off: a running job's believed end or a queued
                // job's believed duration, longer or shorter.
                let (mut running, mut queue) = (running.clone(), queue.clone());
                let delta = Dur(rng.gen_range_i64(1, 25));
                let k = rng.gen_index(running.len() + queue.len());
                if let Some((view, _)) = running.get_mut(k) {
                    view.pred_end = if rng.gen_bool(0.5) {
                        view.pred_end + delta
                    } else {
                        view.pred_end - delta
                    };
                } else {
                    let (e, _) = &mut queue[k - running.len()];
                    e.pred_runtime = if rng.gen_bool(0.5) || e.pred_runtime <= delta {
                        e.pred_runtime + delta
                    } else {
                        e.pred_runtime - delta
                    };
                }
                assert!(
                    !beliefs_are_exact(Algorithm::Backfill, &running, &queue),
                    "seed {seed}: one differing belief took the stop"
                );
                assert_eq!(
                    replay(Algorithm::Backfill, &running, &queue),
                    full(Algorithm::Backfill, &running, &queue),
                    "seed {seed}, target {target:?}, one belief off"
                );
            }
        }
        assert!(stops >= 1_000, "only {stops} stops compared");
    }

    #[test]
    fn first_pass_stop_holds_on_a_deep_queue() {
        // Forty queued jobs on an idle 8-node machine need dozens of
        // passes to start the later ones; the stop must agree with all
        // of them.
        let jobs: Vec<(i64, u32, i64)> = (0..40)
            .map(|i| (i, 1 + (i as u32 * 7) % 8, 10 + (i * 37) % 90))
            .collect();
        let w = wl(&jobs);
        let queued: Vec<u32> = (0..40).collect();
        let s = snap(40, 8, &[], &queued);
        let mut rng = Rng64::seed_from_u64(5);
        for _ in 0..8 {
            let target = JobId(rng.gen_index(40) as u32);
            let exact = fc(&w, Algorithm::Backfill, &s, |j, _| j.runtime, target);
            let full = {
                let running = Vec::new();
                let queue = s
                    .queued
                    .iter()
                    .map(|&(id, seq)| {
                        let job = w.job(id);
                        let e = QueueEntry {
                            id,
                            seq,
                            nodes: job.nodes,
                            pred_runtime: job.runtime,
                        };
                        (e, job.runtime)
                    })
                    .collect();
                replay_passes(Algorithm::Backfill, 8, s.now, running, queue, target)
            };
            assert_eq!(exact, full, "{target:?}");
        }
    }
}
