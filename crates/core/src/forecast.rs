//! Nested scheduler simulation: predict when a job will start.
//!
//! The paper's wait-time prediction technique (Section 3): *"use
//! predictions of application execution times along with the scheduling
//! algorithms to simulate the actions made by a scheduler and determine
//! when applications will begin to execute."*
//!
//! [`forecast_start`] takes a [`Snapshot`] of the live system and replays
//! the scheduling algorithm — through literally the same
//! [`qpredict_sim::schedule_pass`] the real engine uses — until the
//! target job starts. Two estimates drive the replay:
//!
//! * the **belief** durations are what the real scheduler uses for its
//!   decisions (in the paper's systems: the user-supplied maximum run
//!   times). The forecast feeds these to `schedule_pass` so the simulated
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
//! The experiment drivers pass `predict` closures that route through a
//! generation-keyed [`qpredict_predict::CachingPredictor`]: no
//! completion occurs *inside* a forecast, so the predictor is frozen at
//! one generation for its duration, and across forecasts repeated
//! `(job, elapsed)` queries are served from the cache until a completion
//! bumps the generation. Below the cache, a Smith predictor also
//! memoizes each job signature's selection over the templates that
//! ignore elapsed time, until a completion touches their categories, so
//! a cache miss for a running job at a new elapsed time recomputes only
//! the elapsed-conditioned estimates. [`forecast_start_interval`]
//! additionally pins its three passes to one set of memoized
//! predictions, below.

use qpredict_sim::{schedule_pass, Algorithm, QueueEntry, RunningView, Snapshot};
use qpredict_workload::{Dur, Job, JobId, Time, Workload};

/// Simulate the scheduler forward from `snap` and return the predicted
/// start time of `target`.
///
/// `belief(job, elapsed)` supplies the duration the *scheduler* assumes
/// (e.g. the maximum run time); `predict(job, elapsed)` supplies the
/// duration under study, used as the job's simulated actual run time.
/// Pass the same closure twice when the scheduler's belief *is* the
/// prediction (e.g. when forecasting a prediction-driven scheduler).
///
/// # Panics
/// Panics if `target` is not queued in `snap`.
pub fn forecast_start(
    wl: &Workload,
    alg: Algorithm,
    snap: &Snapshot,
    mut belief: impl FnMut(&Job, Dur) -> Dur,
    mut predict: impl FnMut(&Job, Dur) -> Dur,
    target: JobId,
) -> Time {
    let _span = qpredict_obs::span("forecast");
    qpredict_obs::counter_add("forecast.calls", 1);
    assert!(
        snap.queued.iter().any(|&(id, _)| id == target),
        "forecast target must be in the queue"
    );

    struct FRunning {
        nodes: u32,
        /// When the job frees its nodes in the forecast (from `predict`).
        end: Time,
        /// When the scheduler believes it will finish (from `belief`).
        belief_end: Time,
    }
    let mut now = snap.now;
    let mut free = snap.free_nodes;
    let mut running: Vec<FRunning> = snap
        .running
        .iter()
        .map(|&(id, start)| {
            let job = wl.job(id);
            let elapsed = now - start;
            let pred = predict(job, elapsed).max(elapsed + Dur::SECOND);
            let bel = belief(job, elapsed).max(elapsed + Dur::SECOND);
            FRunning {
                nodes: job.nodes,
                end: start + pred,
                belief_end: start + bel,
            }
        })
        .collect();
    struct FQueued {
        id: JobId,
        seq: u64,
        nodes: u32,
        /// Simulated actual duration once started.
        dur: Dur,
        /// Duration the scheduler believes (ordering, reservations).
        belief_dur: Dur,
    }
    let mut queue: Vec<FQueued> = snap
        .queued
        .iter()
        .map(|&(id, seq)| {
            let job = wl.job(id);
            FQueued {
                id,
                seq,
                nodes: job.nodes,
                dur: predict(job, Dur::ZERO).max(Dur::SECOND),
                belief_dur: belief(job, Dur::ZERO).max(Dur::SECOND),
            }
        })
        .collect();

    loop {
        // One scheduling pass at `now`, driven by scheduler beliefs.
        let running_views: Vec<RunningView> = running
            .iter()
            .map(|r| RunningView {
                nodes: r.nodes,
                // A job running past its believed end is re-believed to
                // finish imminently, as the real engine's elapsed clamp
                // does.
                pred_end: r.belief_end.max(now + Dur::SECOND),
            })
            .collect();
        let entries: Vec<QueueEntry> = queue
            .iter()
            .map(|q| QueueEntry {
                id: q.id,
                seq: q.seq,
                nodes: q.nodes,
                pred_runtime: q.belief_dur,
            })
            .collect();
        let mut started = schedule_pass(alg, now, wl.machine_nodes, free, &running_views, &entries);
        started.sort_unstable();
        for &i in started.iter().rev() {
            let q = queue.remove(i);
            if q.id == target {
                return now;
            }
            free -= q.nodes;
            running.push(FRunning {
                nodes: q.nodes,
                end: now + q.dur,
                belief_end: now + q.belief_dur,
            });
        }
        // Advance to the next (predicted) completion.
        let next_end = running
            .iter()
            .map(|r| r.end.max(now + Dur::SECOND))
            .min()
            .expect("queued work remains but nothing is running");
        now = next_end;
        let mut freed = 0u32;
        running.retain(|r| {
            if r.end <= now {
                freed += r.nodes;
                false
            } else {
                true
            }
        });
        free += freed;
    }
}

/// A wait-time estimate with uncertainty bounds.
///
/// The paper's run-time predictions carry confidence intervals; pushing
/// the interval endpoints through the forecast yields an optimistic and a
/// pessimistic start time around the point estimate — what a user-facing
/// "your job should start between X and Y" service would display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitInterval {
    /// Start time if every job finishes a confidence-interval early.
    pub optimistic: Time,
    /// Start time at the point predictions.
    pub expected: Time,
    /// Start time if every job runs a confidence-interval long.
    pub pessimistic: Time,
}

/// Forecast the start of `target` three times: at the prediction point
/// estimates and at the low/high ends of their confidence intervals
/// (infinite half-widths are treated as ±50% of the estimate).
///
/// `belief` drives decisions as in [`forecast_start`]; `predict` returns
/// the full [`qpredict_predict::Prediction`] so the interval is available.
pub fn forecast_start_interval(
    wl: &Workload,
    alg: Algorithm,
    snap: &Snapshot,
    mut belief: impl FnMut(&Job, Dur) -> Dur,
    mut predict: impl FnMut(&Job, Dur) -> qpredict_predict::Prediction,
    target: JobId,
) -> WaitInterval {
    // Memoize predictions so all three passes see identical estimates
    // (predictors may be stateful).
    let mut cache: std::collections::HashMap<(JobId, Dur), (Dur, f64)> =
        std::collections::HashMap::new();
    let mut beliefs: std::collections::HashMap<(JobId, Dur), Dur> =
        std::collections::HashMap::new();
    {
        // Prime the caches with one pass over the snapshot's jobs.
        let mut prime = |id: JobId, elapsed: Dur| {
            let job = wl.job(id);
            let p = predict(job, elapsed);
            cache.insert((id, elapsed), (p.estimate, p.ci_halfwidth));
            beliefs.insert((id, elapsed), belief(job, elapsed));
        };
        for &(id, start) in &snap.running {
            prime(id, snap.now - start);
        }
        for &(id, _) in &snap.queued {
            prime(id, Dur::ZERO);
        }
    }
    let bounded = |est: Dur, ci: f64, sign: f64| -> Dur {
        let half = if ci.is_finite() {
            ci
        } else {
            est.as_secs_f64() * 0.5
        };
        Dur::from_secs_f64((est.as_secs_f64() + sign * half).max(1.0))
    };
    let run = |sign: f64,
               cache: &std::collections::HashMap<(JobId, Dur), (Dur, f64)>,
               beliefs: &std::collections::HashMap<(JobId, Dur), Dur>|
     -> Time {
        forecast_start(
            wl,
            alg,
            snap,
            |j, e| beliefs[&(j.id, e)],
            |j, e| {
                let (est, ci) = cache[&(j.id, e)];
                bounded(est, ci, sign)
            },
            target,
        )
    };
    let optimistic = run(-1.0, &cache, &beliefs);
    let expected = run(0.0, &cache, &beliefs);
    let pessimistic = run(1.0, &cache, &beliefs);
    WaitInterval {
        // Guard the ordering: interval endpoints need not be monotone
        // through a nonlinear scheduler, so normalize.
        optimistic: optimistic.min(expected),
        expected,
        pessimistic: pessimistic.max(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::{JobBuilder, Time, Workload};

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
    fn interval_brackets_point_estimate() {
        use qpredict_predict::Prediction;
        // One running job with an uncertain prediction; target queued
        // behind it needing the full machine.
        let w = wl(&[(0, 8, 1000), (10, 8, 50)]);
        let s = snap(10, 0, &[(0, 0)], &[1]);
        let iv = forecast_start_interval(
            &w,
            Algorithm::Fcfs,
            &s,
            |j, e| j.runtime.max(e + Dur(1)),
            |j, _e| Prediction {
                estimate: j.runtime,
                ci_halfwidth: 200.0,
                fallback: false,
            },
            JobId(1),
        );
        assert!(iv.optimistic <= iv.expected);
        assert!(iv.expected <= iv.pessimistic);
        assert_eq!(iv.expected, Time(1000));
        assert_eq!(iv.optimistic, Time(800));
        assert_eq!(iv.pessimistic, Time(1200));
    }

    #[test]
    fn interval_with_exact_predictions_collapses() {
        use qpredict_predict::Prediction;
        let w = wl(&[(0, 8, 1000), (10, 8, 50)]);
        let s = snap(10, 0, &[(0, 0)], &[1]);
        let iv = forecast_start_interval(
            &w,
            Algorithm::Fcfs,
            &s,
            |j, e| j.runtime.max(e + Dur(1)),
            |j, _e| Prediction {
                estimate: j.runtime,
                ci_halfwidth: 0.0,
                fallback: false,
            },
            JobId(1),
        );
        assert_eq!(iv.optimistic, iv.expected);
        assert_eq!(iv.expected, iv.pessimistic);
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
}
