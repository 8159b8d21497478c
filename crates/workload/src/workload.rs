//! The [`Workload`] container: an ordered job trace bound to a machine.

use std::collections::HashMap;

use crate::job::{Characteristic, Job, JobId};
use crate::symbols::{Sym, SymbolTable};
use crate::time::{Dur, Time};

/// A trace of jobs submitted to one space-shared machine, sorted by
/// submission time, plus the symbol table that gives meaning to the jobs'
/// interned characteristics.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Display name, e.g. `"ANL"` or `"SDSC96"`.
    pub name: String,
    /// Number of nodes on the machine the trace targets.
    pub machine_nodes: u32,
    /// Jobs ordered by `(submit, id)`.
    pub jobs: Vec<Job>,
    /// Interner for all categorical characteristic values.
    pub symbols: SymbolTable,
}

impl Workload {
    /// Create an empty workload for a machine of `machine_nodes` nodes.
    pub fn new(name: impl Into<String>, machine_nodes: u32) -> Self {
        Workload {
            name: name.into(),
            machine_nodes: machine_nodes.max(1),
            jobs: Vec::new(),
            symbols: SymbolTable::new(),
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Look up a job.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Sort jobs by `(submit, original order)` and renumber their ids to
    /// match their index. Call after bulk insertion.
    pub fn finalize(&mut self) {
        self.jobs.sort_by_key(|j| (j.submit, j.id));
        for (i, j) in self.jobs.iter_mut().enumerate() {
            j.id = JobId(i as u32);
        }
    }

    /// Validate structural invariants, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = Time(i64::MIN);
        for (i, j) in self.jobs.iter().enumerate() {
            if j.id.index() != i {
                return Err(format!("job at index {i} has id {:?}", j.id));
            }
            if j.submit < prev {
                return Err(format!("job {i} submitted before its predecessor"));
            }
            prev = j.submit;
            if j.nodes == 0 {
                return Err(format!("job {i} requests zero nodes"));
            }
            if j.nodes > self.machine_nodes {
                return Err(format!(
                    "job {i} requests {} nodes on a {}-node machine",
                    j.nodes, self.machine_nodes
                ));
            }
            if j.runtime < Dur::SECOND {
                return Err(format!("job {i} has non-positive run time"));
            }
            if let Some(m) = j.max_runtime {
                if m < Dur::SECOND {
                    return Err(format!("job {i} has non-positive max run time"));
                }
            }
            for (ci, c) in j.chars.iter().enumerate() {
                if let Some(s) = c {
                    if s.index() >= self.symbols.len() {
                        return Err(format!(
                            "job {i} characteristic {ci} references unknown symbol"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The distinct values taken by `c` across the trace.
    pub fn distinct_values(&self, c: Characteristic) -> Vec<Sym> {
        let mut seen = vec![false; self.symbols.len()];
        let mut out = Vec::new();
        for j in &self.jobs {
            if let Some(s) = j.characteristic(c) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    out.push(s);
                }
            }
        }
        out
    }

    /// Whether any job records characteristic `c`.
    pub fn records(&self, c: Characteristic) -> bool {
        self.jobs.iter().any(|j| j.characteristic(c).is_some())
    }

    /// Whether any job records a user-supplied maximum run time.
    pub fn records_max_runtime(&self) -> bool {
        self.jobs.iter().any(|j| j.max_runtime.is_some())
    }

    /// Derive per-queue maximum run times, as the paper does for the SDSC
    /// workloads: *"we determine the longest running job in each queue and
    /// use that as the maximum run time for all jobs in that queue."*
    ///
    /// Returns a map from queue symbol to that queue's longest observed run
    /// time. Jobs without a queue fall under `None`, keyed by the longest
    /// run time in the whole trace.
    pub fn derive_queue_max_runtimes(&self) -> HashMap<Option<Sym>, Dur> {
        let mut map: HashMap<Option<Sym>, Dur> = HashMap::new();
        let mut global = Dur::SECOND;
        for j in &self.jobs {
            let q = j.characteristic(Characteristic::Queue);
            let e = map.entry(q).or_insert(Dur::SECOND);
            *e = (*e).max(j.runtime);
            global = global.max(j.runtime);
        }
        map.insert(None, global);
        map
    }

    /// A copy of this workload truncated to its first `n` jobs (by
    /// submission order). Useful for fast tests and benchmarks.
    pub fn truncated(&self, n: usize) -> Workload {
        let mut w = Workload {
            name: format!("{}[..{n}]", self.name),
            machine_nodes: self.machine_nodes,
            jobs: self.jobs.iter().take(n).cloned().collect(),
            symbols: self.symbols.clone(),
        };
        w.finalize();
        w
    }

    /// A copy of this workload keeping only the jobs from index `from`
    /// on (submission times preserved). Together with
    /// [`Workload::truncated`] this splits a trace into a training
    /// prefix and an evaluation suffix.
    pub fn suffix(&self, from: usize) -> Workload {
        let mut w = Workload {
            name: format!("{}[{from}..]", self.name),
            machine_nodes: self.machine_nodes,
            jobs: self.jobs.iter().skip(from).cloned().collect(),
            symbols: self.symbols.clone(),
        };
        w.finalize();
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn wl_with(jobs: Vec<Job>) -> Workload {
        let mut w = Workload::new("test", 64);
        w.jobs = jobs;
        w.finalize();
        w
    }

    #[test]
    fn finalize_sorts_and_renumbers() {
        let a = JobBuilder::new().submit(Time(30)).build(JobId(0));
        let b = JobBuilder::new().submit(Time(10)).build(JobId(1));
        let w = wl_with(vec![a, b]);
        assert_eq!(w.jobs[0].submit, Time(10));
        assert_eq!(w.jobs[0].id, JobId(0));
        assert_eq!(w.jobs[1].id, JobId(1));
        assert!(w.validate().is_ok());
    }

    #[test]
    fn validate_rejects_oversized_jobs() {
        let a = JobBuilder::new().nodes(65).build(JobId(0));
        let mut w = Workload::new("test", 64);
        w.jobs = vec![a];
        // bypass builder clamp by direct mutation
        w.jobs[0].nodes = 65;
        assert!(w.validate().is_err());
    }

    #[test]
    fn validate_rejects_unsorted() {
        let a = JobBuilder::new().submit(Time(30)).build(JobId(0));
        let b = JobBuilder::new().submit(Time(10)).build(JobId(1));
        let mut w = Workload::new("test", 64);
        w.jobs = vec![a, b]; // not finalized
        assert!(w.validate().is_err());
    }

    #[test]
    fn queue_maxima_derivation() {
        let mut w = Workload::new("test", 64);
        let q1 = w.symbols.intern("q16m");
        let q2 = w.symbols.intern("q64l");
        w.jobs = vec![
            JobBuilder::new()
                .with(Characteristic::Queue, q1)
                .runtime(Dur(100))
                .build(JobId(0)),
            JobBuilder::new()
                .with(Characteristic::Queue, q1)
                .runtime(Dur(500))
                .submit(Time(1))
                .build(JobId(1)),
            JobBuilder::new()
                .with(Characteristic::Queue, q2)
                .runtime(Dur(50))
                .submit(Time(2))
                .build(JobId(2)),
        ];
        w.finalize();
        let m = w.derive_queue_max_runtimes();
        assert_eq!(m[&Some(q1)], Dur(500));
        assert_eq!(m[&Some(q2)], Dur(50));
        assert_eq!(m[&None], Dur(500));
    }

    #[test]
    fn truncated_keeps_prefix() {
        let jobs: Vec<Job> = (0..10)
            .map(|i| JobBuilder::new().submit(Time(i)).build(JobId(i as u32)))
            .collect();
        let w = wl_with(jobs);
        let t = w.truncated(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.jobs[2].submit, Time(2));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn distinct_values_and_records() {
        let mut w = Workload::new("test", 64);
        let u1 = w.symbols.intern("alice");
        let u2 = w.symbols.intern("bob");
        w.jobs = vec![
            JobBuilder::new()
                .with(Characteristic::User, u1)
                .build(JobId(0)),
            JobBuilder::new()
                .with(Characteristic::User, u2)
                .submit(Time(1))
                .build(JobId(1)),
            JobBuilder::new()
                .with(Characteristic::User, u1)
                .submit(Time(2))
                .build(JobId(2)),
        ];
        w.finalize();
        assert_eq!(w.distinct_values(Characteristic::User).len(), 2);
        assert!(w.records(Characteristic::User));
        assert!(!w.records(Characteristic::Queue));
        assert!(!w.records_max_runtime());
    }
}
