//! Schedule timelines: turn a completed simulation into an inspectable
//! occupancy record.
//!
//! A [`Timeline`] holds the `(start, finish, nodes)` interval of every
//! job plus the machine's piecewise-constant node occupancy. It backs
//! schedule validation (no instant may exceed the machine) and CSV export
//! of the job intervals for external plotting. [`realized_events`]
//! turns a workload's schedule into the event stream a site would emit.

use qpredict_workload::{submit_event, EventKind, JobEvent, JobId, Time, Workload};

use crate::engine::Simulation;
use crate::estimators::MaxRuntimeEstimator;
use crate::metrics::JobOutcome;
use crate::scheduler::Algorithm;

/// The event stream of the schedule a site running `w` realizes:
/// conservative backfill on the users' limits, as the paper's sites
/// scheduled. Each job submits at its trace instant and starts and
/// finishes at the schedule's instants, and every `query_every`-th job
/// (none when 0) gets a wait query at its submit instant. Events come
/// back in canonical [`JobEvent::sort_key`] order, and the running set
/// never exceeds the machine.
pub fn realized_events(w: &Workload, query_every: usize) -> Vec<JobEvent> {
    let mut belief = MaxRuntimeEstimator::from_workload(w);
    let schedule = Simulation::run(w, Algorithm::Backfill, &mut belief);
    let mut events = Vec::with_capacity(w.jobs.len() * 3 + w.jobs.len() / query_every.max(1));
    for (i, o) in schedule.outcomes.iter().enumerate() {
        events.push(submit_event(w, w.job(o.id)));
        let id = o.id.0 as u64 + 1;
        let query =
            (query_every > 0 && i % query_every == 0).then_some((o.submit, EventKind::Query));
        let lifecycle = [
            (o.start, EventKind::Start),
            (o.finish, EventKind::Finish { runtime: None }),
        ];
        for (time, kind) in lifecycle.into_iter().chain(query) {
            events.push(JobEvent { id, time, kind });
        }
    }
    events.sort_by_key(JobEvent::sort_key);
    events
}

/// Node occupancy over time for one completed schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    machine_nodes: u32,
    /// `(instant, nodes_in_use_from_here)` breakpoints, time-ordered.
    steps: Vec<(Time, u32)>,
    /// Job intervals in job-id order: `(id, start, finish, nodes)`.
    jobs: Vec<(JobId, Time, Time, u32)>,
}

impl Timeline {
    /// Build the timeline of a completed schedule.
    pub fn build(w: &Workload, outcomes: &[JobOutcome]) -> Timeline {
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(outcomes.len() * 2);
        let mut jobs = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            let nodes = w.job(o.id).nodes;
            jobs.push((o.id, o.start, o.finish, nodes));
            events.push((o.start, nodes as i64));
            events.push((o.finish, -(nodes as i64)));
        }
        // Process departures before arrivals at equal instants.
        events.sort_by_key(|&(t, d)| (t, d));
        let mut steps: Vec<(Time, u32)> = Vec::new();
        let mut used = 0i64;
        for (t, d) in events {
            used += d;
            debug_assert!(used >= 0);
            match steps.last_mut() {
                Some((lt, lu)) if *lt == t => *lu = used as u32,
                _ => steps.push((t, used as u32)),
            }
        }
        Timeline {
            machine_nodes: w.machine_nodes,
            steps,
            jobs,
        }
    }

    /// The highest occupancy reached.
    pub fn peak(&self) -> u32 {
        self.steps.iter().map(|&(_, u)| u).max().unwrap_or(0)
    }

    /// True when occupancy never exceeds the machine size (the schedule
    /// is feasible).
    pub fn is_feasible(&self) -> bool {
        self.peak() <= self.machine_nodes
    }

    /// Export the job intervals as CSV (`job,start,finish,nodes`), for
    /// Gantt plotting with external tools.
    pub fn jobs_csv(&self) -> String {
        let mut out = String::with_capacity(self.jobs.len() * 24 + 32);
        out.push_str("job,start,finish,nodes\n");
        for &(id, s, f, n) in &self.jobs {
            out.push_str(&format!("{},{},{},{}\n", id.0, s.seconds(), f.seconds(), n));
        }
        out
    }
}

/// Convenience: simulate and return the timeline in one call.
pub fn timeline_of(
    w: &Workload,
    alg: crate::scheduler::Algorithm,
    est: &mut dyn qpredict_predict::RunTimePredictor,
) -> (Timeline, crate::engine::SimResult) {
    let result = crate::engine::Simulation::run(w, alg, est);
    (Timeline::build(w, &result.outcomes), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_predict::OraclePredictor;
    use qpredict_workload::{synthetic, Dur, JobBuilder};

    fn outcome(id: u32, s: i64, f: i64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: Time(s),
            start: Time(s),
            finish: Time(f),
        }
    }

    fn wl(jobs: &[(u32, i64)]) -> Workload {
        let mut w = Workload::new("t", 10);
        w.jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, &(n, rt))| {
                JobBuilder::new()
                    .nodes(n)
                    .runtime(Dur(rt))
                    .build(JobId(i as u32))
            })
            .collect();
        w.finalize();
        w
    }

    #[test]
    fn occupancy_steps() {
        let w = wl(&[(4, 100), (3, 50)]);
        let t = Timeline::build(&w, &[outcome(0, 0, 100), outcome(1, 0, 50)]);
        assert_eq!(t.peak(), 7);
        assert!(t.is_feasible());
        // A departure frees its nodes before an arrival at the same
        // instant takes them.
        let t = Timeline::build(&w, &[outcome(0, 0, 100), outcome(1, 100, 150)]);
        assert_eq!(t.peak(), 4);
    }

    #[test]
    fn csv_exports() {
        let w = wl(&[(4, 100)]);
        let t = Timeline::build(&w, &[outcome(0, 5, 105)]);
        let jobs = t.jobs_csv();
        assert!(jobs.starts_with("job,start,finish,nodes\n"));
        assert!(jobs.contains("0,5,105,4\n"));
    }

    #[test]
    fn real_schedules_are_feasible() {
        let w = synthetic::toy(400, 32, 77);
        for alg in Algorithm::ALL {
            let r = Simulation::run(&w, alg, &mut OraclePredictor);
            let t = Timeline::build(&w, &r.outcomes);
            assert!(t.is_feasible(), "{alg} oversubscribed: peak {}", t.peak());
        }
    }

    #[test]
    fn timeline_of_helper() {
        let w = synthetic::toy(100, 16, 78);
        let (t, r) = timeline_of(&w, Algorithm::Backfill, &mut OraclePredictor);
        assert_eq!(r.outcomes.len(), 100);
        assert!(t.is_feasible());
        assert!(t.peak() > 0);
    }

    /// Every job submits, starts and finishes once, in that order; the
    /// nodes running at each instant never exceed the machine; every
    /// seventh job is queried at its submission.
    #[test]
    fn realized_events_replay_a_feasible_schedule() {
        let w = synthetic::toy(300, 32, 79);
        let events = realized_events(&w, 7);
        assert!(events
            .windows(2)
            .all(|p| p[0].sort_key() <= p[1].sort_key()));
        let (mut running, mut queries) = (0i64, 0);
        let mut seen = vec![0u8; w.len()];
        for (i, e) in events.iter().enumerate() {
            let job = w.job(JobId(e.id as u32 - 1));
            let step = &mut seen[job.id.index()];
            match e.kind {
                EventKind::Submit(_) => assert_eq!((*step, e.time), (0, job.submit)),
                EventKind::Start => assert_eq!(*step, 1),
                EventKind::Finish { .. } => assert_eq!(*step, 2),
                EventKind::Query => {
                    assert_eq!((job.id.index() % 7, e.time), (0, job.submit));
                    queries += 1;
                    continue;
                }
                EventKind::Cancel => unreachable!("no cancels"),
            }
            *step += 1;
            running += match e.kind {
                EventKind::Start => i64::from(job.nodes),
                EventKind::Finish { .. } => -i64::from(job.nodes),
                _ => 0,
            };
            if events.get(i + 1).is_none_or(|n| n.time > e.time) {
                assert!(running <= i64::from(w.machine_nodes), "at {:?}", e.time);
            }
        }
        assert!(seen.iter().all(|&s| s == 3));
        assert_eq!(queries, 300usize.div_ceil(7));
    }

    #[test]
    fn empty_timeline() {
        let w = wl(&[]);
        let t = Timeline::build(&w, &[]);
        assert_eq!(t.peak(), 0);
        assert!(t.is_feasible());
    }
}
