//! Schedule outcomes and the performance metrics the paper reports
//! (utilization, mean wait time) plus standard extras.

use qpredict_predict::CacheStats;
use qpredict_workload::{Dur, JobId, Time, Workload};

/// When one job was submitted, started, and finished in a completed
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// Which job.
    pub id: JobId,
    /// Submission instant (copied from the trace).
    pub submit: Time,
    /// Start instant decided by the scheduler.
    pub start: Time,
    /// Completion instant (`start + actual runtime`).
    pub finish: Time,
}

impl JobOutcome {
    /// Queue wait: `start - submit`.
    pub fn wait(&self) -> Dur {
        self.start - self.submit
    }
}

/// Aggregate schedule quality.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Number of jobs that completed.
    pub n_jobs: usize,
    /// Mean queue wait.
    pub mean_wait: Dur,
    /// Median queue wait.
    pub median_wait: Dur,
    /// Largest queue wait.
    pub max_wait: Dur,
    /// Machine utilization over `[first submit, last finish]`:
    /// `total work / (machine_nodes x makespan)`.
    pub utilization: f64,
    /// Machine utilization over the *arrival window*
    /// `[first submit, last submit]`: busy node-seconds inside the window
    /// divided by capacity. This excludes the end-of-trace drain tail and
    /// matches the paper's reporting, where utilization is essentially
    /// identical across schedulers and predictors for a given workload.
    pub utilization_window: f64,
    /// `last finish - first submit`.
    pub makespan: Dur,
    /// Mean bounded slowdown with the conventional 10-second bound:
    /// `mean(max(1, (wait + rt) / max(rt, 10)))`.
    pub mean_bounded_slowdown: f64,
    /// Total work in node-seconds.
    pub total_work_node_s: f64,
    /// Estimate-cache hit/miss/invalidation counters of the
    /// [`qpredict_predict::CachingPredictor`] that served the run's
    /// estimates (scheduling runs and the wait-time studies). `None` for
    /// runs that never consulted the estimation layer. Purely
    /// observability: two otherwise-identical schedules may differ here.
    pub estimate_cache: Option<CacheStats>,
}

impl Metrics {
    /// Compute metrics from outcomes against the workload that produced
    /// them. Returns zeros for an empty outcome set.
    pub fn from_outcomes(w: &Workload, outcomes: &[JobOutcome]) -> Metrics {
        if outcomes.is_empty() {
            return Metrics {
                n_jobs: 0,
                mean_wait: Dur::ZERO,
                median_wait: Dur::ZERO,
                max_wait: Dur::ZERO,
                utilization: 0.0,
                utilization_window: 0.0,
                makespan: Dur::ZERO,
                mean_bounded_slowdown: 0.0,
                total_work_node_s: 0.0,
                estimate_cache: None,
            };
        }
        let mut waits: Vec<i64> = outcomes.iter().map(|o| o.wait().seconds()).collect();
        waits.sort_unstable();
        let sum_wait: i64 = waits.iter().sum();
        let median = if waits.len() % 2 == 1 {
            waits[waits.len() / 2]
        } else {
            (waits[waits.len() / 2 - 1] + waits[waits.len() / 2]) / 2
        };
        let first_submit = outcomes.iter().map(|o| o.submit).min().expect("non-empty");
        let last_finish = outcomes.iter().map(|o| o.finish).max().expect("non-empty");
        let makespan = last_finish - first_submit;
        let total_work: f64 = outcomes
            .iter()
            .map(|o| {
                let job = w.job(o.id);
                job.nodes as f64 * (o.finish - o.start).seconds() as f64
            })
            .sum();
        let utilization = if makespan.is_positive() {
            total_work / (w.machine_nodes as f64 * makespan.seconds() as f64)
        } else {
            0.0
        };
        let last_submit = outcomes.iter().map(|o| o.submit).max().expect("non-empty");
        let window = last_submit - first_submit;
        let utilization_window = if window.is_positive() {
            let busy: f64 = outcomes
                .iter()
                .map(|o| {
                    let s = o.start.max(first_submit);
                    let e = o.finish.min(last_submit);
                    let overlap = (e - s).seconds().max(0) as f64;
                    w.job(o.id).nodes as f64 * overlap
                })
                .sum();
            busy / (w.machine_nodes as f64 * window.seconds() as f64)
        } else {
            0.0
        };
        let bsld: f64 = outcomes
            .iter()
            .map(|o| {
                let rt = (o.finish - o.start).seconds().max(1) as f64;
                let wait = o.wait().seconds() as f64;
                ((wait + rt) / rt.max(10.0)).max(1.0)
            })
            .sum::<f64>()
            / outcomes.len() as f64;
        Metrics {
            n_jobs: outcomes.len(),
            mean_wait: Dur(sum_wait / outcomes.len() as i64),
            median_wait: Dur(median),
            max_wait: Dur(*waits.last().expect("non-empty")),
            utilization,
            utilization_window,
            makespan,
            mean_bounded_slowdown: bsld,
            total_work_node_s: total_work,
            estimate_cache: None,
        }
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs  util {:.2}%  mean wait {:.2} min  median wait {:.2} min  bsld {:.1}",
            self.n_jobs,
            self.utilization * 100.0,
            self.mean_wait.minutes(),
            self.median_wait.minutes(),
            self.mean_bounded_slowdown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::JobBuilder;

    fn wl2() -> Workload {
        let mut w = Workload::new("t", 10);
        w.jobs = vec![
            JobBuilder::new()
                .nodes(5)
                .runtime(Dur(100))
                .submit(Time(0))
                .build(JobId(0)),
            JobBuilder::new()
                .nodes(5)
                .runtime(Dur(100))
                .submit(Time(0))
                .build(JobId(1)),
        ];
        w.finalize();
        w
    }

    #[test]
    fn empty_outcomes() {
        let m = Metrics::from_outcomes(&wl2(), &[]);
        assert_eq!(m.n_jobs, 0);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn waits_and_utilization() {
        let w = wl2();
        let outcomes = vec![
            JobOutcome {
                id: JobId(0),
                submit: Time(0),
                start: Time(0),
                finish: Time(100),
            },
            JobOutcome {
                id: JobId(1),
                submit: Time(0),
                start: Time(100),
                finish: Time(200),
            },
        ];
        let m = Metrics::from_outcomes(&w, &outcomes);
        assert_eq!(m.mean_wait, Dur(50));
        assert_eq!(m.median_wait, Dur(50));
        assert_eq!(m.max_wait, Dur(100));
        assert_eq!(m.makespan, Dur(200));
        // work = 2 * 5 * 100 = 1000 node-s over 10 nodes * 200 s
        assert!((m.utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_utilization_excludes_drain() {
        let w = wl2();
        // Arrivals at 0 and 0 (window length 0 -> degenerate), so build a
        // custom pair: submits at 0 and 100, both 5 nodes x 100 s.
        let mut w2 = Workload::new("t", 10);
        w2.jobs = vec![
            JobBuilder::new()
                .nodes(5)
                .runtime(Dur(100))
                .submit(Time(0))
                .build(JobId(0)),
            JobBuilder::new()
                .nodes(5)
                .runtime(Dur(100))
                .submit(Time(100))
                .build(JobId(1)),
        ];
        w2.finalize();
        let outcomes = vec![
            JobOutcome {
                id: JobId(0),
                submit: Time(0),
                start: Time(0),
                finish: Time(100),
            },
            JobOutcome {
                id: JobId(1),
                submit: Time(100),
                start: Time(100),
                finish: Time(200),
            },
        ];
        let m = Metrics::from_outcomes(&w2, &outcomes);
        // Window = [0, 100]: only job 0 is busy inside it (5 nodes x 100 s
        // of 10 x 100 capacity) -> 50%. The drain (job 1) is excluded.
        assert!((m.utilization_window - 0.5).abs() < 1e-12);
        // Makespan utilization counts both jobs over 200 s.
        assert!((m.utilization - 0.5).abs() < 1e-12);
        let _ = w;
    }

    #[test]
    fn bounded_slowdown_floors() {
        let w = wl2();
        let outcomes = vec![JobOutcome {
            id: JobId(0),
            submit: Time(0),
            start: Time(0),
            finish: Time(100),
        }];
        let m = Metrics::from_outcomes(&w, &outcomes);
        assert!((m.mean_bounded_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wait_helper() {
        let o = JobOutcome {
            id: JobId(0),
            submit: Time(5),
            start: Time(30),
            finish: Time(40),
        };
        assert_eq!(o.wait(), Dur(25));
    }
}
