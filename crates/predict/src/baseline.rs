//! Baseline predictors: user-supplied maximum run times and the oracle.

use qpredict_workload::{Characteristic, Dur, Job, Workload};

use crate::{Prediction, RunTimePredictor};

/// Predicts every job at its user-supplied maximum run time, as EASY-style
/// schedulers do. For workloads without recorded limits (SDSC), per-queue
/// maxima are derived from the trace — *"we determine the longest running
/// job in each queue and use that as the maximum run time for all jobs in
/// that queue"*.
///
/// The maxima live in a table indexed by the queue symbol's
/// [`qpredict_workload::Sym::index`]: a belief is one bounds-checked
/// load, with no hashing. A job with no queue, or with a queue the
/// workload never ran, gets the global maximum.
#[derive(Debug, Clone)]
pub struct MaxRuntimePredictor {
    queue_max: Vec<Dur>,
    global_max: Dur,
}

impl MaxRuntimePredictor {
    /// Derive the per-queue maxima from `w`.
    pub fn from_workload(w: &Workload) -> MaxRuntimePredictor {
        let derived = w.derive_queue_max_runtimes();
        let global_max = derived.get(&None).copied().unwrap_or(Dur::HOUR);
        let len = derived.keys().flatten().map(|q| q.index() + 1).max();
        let mut queue_max = vec![global_max; len.unwrap_or(0)];
        for (q, max) in derived {
            if let Some(q) = q {
                queue_max[q.index()] = max;
            }
        }
        MaxRuntimePredictor {
            queue_max,
            global_max,
        }
    }

    /// The limit used for `job`.
    pub fn limit_for(&self, job: &Job) -> Dur {
        if let Some(m) = job.max_runtime {
            return m;
        }
        job.characteristic(Characteristic::Queue)
            .and_then(|q| self.queue_max.get(q.index()))
            .copied()
            .unwrap_or(self.global_max)
    }
}

impl RunTimePredictor for MaxRuntimePredictor {
    fn name(&self) -> &'static str {
        "maxrt"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        // The limit does not depend on the elapsed time: it holds
        // wherever the clamp lets it.
        Prediction {
            estimate: self.limit_for(job),
            ci_halfwidth: f64::INFINITY,
            fallback: false,
            holds_below: Dur::MAX,
        }
        .clamped(elapsed)
    }

    fn on_complete(&mut self, _job: &Job) {}

    fn generation(&self) -> Option<u64> {
        Some(0) // limits are fixed at construction: stateless
    }
}

/// Predicts every job at its actual run time: the perfect-information
/// upper bound of Tables 4 and 10.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePredictor;

impl RunTimePredictor for OraclePredictor {
    fn name(&self) -> &'static str {
        "actual"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        Prediction {
            estimate: job.runtime,
            ci_halfwidth: 0.0,
            fallback: false,
            holds_below: Dur::MAX,
        }
        .clamped(elapsed)
    }

    fn on_complete(&mut self, _job: &Job) {}

    fn generation(&self) -> Option<u64> {
        Some(0) // pure function of the job: stateless
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::{JobBuilder, JobId};

    #[test]
    fn maxrt_uses_explicit_limit() {
        let mut w = Workload::new("t", 8);
        w.jobs = vec![JobBuilder::new()
            .runtime(Dur(50))
            .max_runtime(Dur(600))
            .build(JobId(0))];
        w.finalize();
        let mut p = MaxRuntimePredictor::from_workload(&w);
        assert_eq!(p.predict(&w.jobs[0], Dur::ZERO).estimate, Dur(600));
    }

    #[test]
    fn maxrt_derives_per_queue() {
        let mut w = Workload::new("t", 8);
        let q = w.symbols.intern("short");
        let r = w.symbols.intern("long");
        use qpredict_workload::Time;
        w.jobs = vec![
            JobBuilder::new()
                .with(Characteristic::Queue, q)
                .runtime(Dur(100))
                .build(JobId(0)),
            JobBuilder::new()
                .with(Characteristic::Queue, r)
                .runtime(Dur(9000))
                .submit(Time(1))
                .build(JobId(1)),
        ];
        w.finalize();
        let mut p = MaxRuntimePredictor::from_workload(&w);
        assert_eq!(p.predict(&w.jobs[0], Dur::ZERO).estimate, Dur(100));
        assert_eq!(p.predict(&w.jobs[1], Dur::ZERO).estimate, Dur(9000));
    }

    #[test]
    fn oracle_is_exact() {
        let j = JobBuilder::new().runtime(Dur(1234)).build(JobId(0));
        let mut p = OraclePredictor;
        let pred = p.predict(&j, Dur::ZERO);
        assert_eq!(pred.estimate, Dur(1234));
        assert_eq!(pred.ci_halfwidth, 0.0);
        assert!(!pred.fallback);
    }

    #[test]
    fn both_respect_elapsed_clamp() {
        let j = JobBuilder::new()
            .runtime(Dur(100))
            .max_runtime(Dur(100))
            .build(JobId(0));
        let mut w = Workload::new("t", 8);
        w.jobs = vec![j.clone()];
        w.finalize();
        let mut m = MaxRuntimePredictor::from_workload(&w);
        assert_eq!(m.predict(&j, Dur(500)).estimate, Dur(501));
        assert_eq!(OraclePredictor.predict(&j, Dur(500)).estimate, Dur(501));
    }
}
