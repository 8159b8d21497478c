//! A degradation chain over predictors: try each learned predictor in
//! order, then the user-supplied maximum run time, then a static default.
//!
//! Early in a trace no learned predictor has matching history, and even a
//! warm predictor meets jobs whose characteristics it has never seen. A
//! production scheduler cannot refuse to answer, so [`FallbackPredictor`]
//! degrades gracefully — Smith → Gibbons/Downey → user limit → constant —
//! and records every degradation event in a [`DegradationCounts`] so the
//! operator can see how often (and how far) estimates fell down the chain.

use std::fmt::Write as _;

use qpredict_workload::{Dur, Job};

use crate::{MaxRuntimePredictor, Prediction, RunTimePredictor};

/// Accounting of which tier served each estimate and how often the chain
/// degraded past a tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationCounts {
    /// `(tier name, estimates served)` for each learned tier, in chain
    /// order.
    pub served: Vec<(&'static str, u64)>,
    /// Estimates served from the user maximum-run-time tier.
    pub user_limit: u64,
    /// Estimates served from the static default.
    pub static_default: u64,
    /// Total degradation events: each time a tier failed to predict and
    /// the chain moved on.
    pub degradations: u64,
}

impl DegradationCounts {
    /// Total estimates served across all tiers.
    pub fn total_served(&self) -> u64 {
        self.served.iter().map(|&(_, n)| n).sum::<u64>() + self.user_limit + self.static_default
    }

    /// One line per tier with counts, for reports.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let total = self.total_served().max(1);
        for &(name, n) in &self.served {
            let _ = writeln!(
                out,
                "  {n:8} estimates from {name} ({:.1}%)",
                100.0 * n as f64 / total as f64
            );
        }
        let _ = writeln!(
            out,
            "  {:8} estimates from user max-runtime ({:.1}%)",
            self.user_limit,
            100.0 * self.user_limit as f64 / total as f64
        );
        let _ = writeln!(
            out,
            "  {:8} estimates from static default ({:.1}%)",
            self.static_default,
            100.0 * self.static_default as f64 / total as f64
        );
        let _ = writeln!(out, "  {:8} degradation events", self.degradations);
        out
    }
}

/// A predictor that chains other predictors, degrading tier by tier.
///
/// On each query the learned tiers are consulted in order via
/// [`RunTimePredictor::try_predict`]; the first confident answer wins.
/// When every learned tier fails, the job's user-supplied maximum run
/// time answers if present; otherwise a static default does. Completions
/// feed every learned tier so each keeps learning even while outranked.
pub struct FallbackPredictor {
    tiers: Vec<Box<dyn RunTimePredictor + Send>>,
    user_limit: MaxRuntimePredictor,
    static_default: Dur,
    counts: DegradationCounts,
}

impl FallbackPredictor {
    /// Default static last-resort estimate (one hour).
    pub const DEFAULT_ESTIMATE: Dur = Dur::HOUR;

    /// Assemble a chain. `tiers` are consulted in order; `user_limit`
    /// answers when a job carries an explicit maximum run time and every
    /// tier failed; `static_default` is the last resort.
    pub fn new(
        tiers: Vec<Box<dyn RunTimePredictor + Send>>,
        user_limit: MaxRuntimePredictor,
        static_default: Dur,
    ) -> FallbackPredictor {
        let served = tiers.iter().map(|t| (t.name(), 0)).collect();
        FallbackPredictor {
            tiers,
            user_limit,
            static_default,
            counts: DegradationCounts {
                served,
                ..DegradationCounts::default()
            },
        }
    }

    /// The accumulated degradation accounting.
    pub fn counts(&self) -> &DegradationCounts {
        &self.counts
    }
}

impl RunTimePredictor for FallbackPredictor {
    fn name(&self) -> &'static str {
        "fallback"
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        for (i, tier) in self.tiers.iter_mut().enumerate() {
            match tier.try_predict(job, elapsed) {
                Ok(p) => {
                    self.counts.served[i].1 += 1;
                    qpredict_obs::counter_add("degrade.served", 1);
                    return p;
                }
                Err(_) => {
                    self.counts.degradations += 1;
                    qpredict_obs::counter_add("degrade.degradations", 1);
                }
            }
        }
        if job.max_runtime.is_some() {
            self.counts.user_limit += 1;
            qpredict_obs::counter_add("degrade.user_limit", 1);
            return self.user_limit.predict(job, elapsed);
        }
        self.counts.degradations += 1;
        self.counts.static_default += 1;
        qpredict_obs::counter_add("degrade.degradations", 1);
        qpredict_obs::counter_add("degrade.static_default", 1);
        Prediction::fallback(self.static_default).clamped(elapsed)
    }

    fn on_complete(&mut self, job: &Job) {
        for tier in &mut self.tiers {
            tier.on_complete(job);
        }
    }

    fn generation(&self) -> Option<u64> {
        // Deliberately uncacheable: every predict() mutates the
        // degradation accounting, so serving a memoized prediction would
        // silently drop observable side effects.
        None
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        Some(self.counts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GibbonsPredictor, SmithPredictor, Template, TemplateSet};
    use qpredict_workload::{Characteristic, Job, JobBuilder, JobId, SymbolTable, Workload};

    fn chain(w: &Workload) -> FallbackPredictor {
        FallbackPredictor::new(
            vec![
                Box::new(SmithPredictor::new(TemplateSet::new(vec![
                    Template::mean_over(&[Characteristic::User]),
                ]))),
                Box::new(GibbonsPredictor::new()),
            ],
            MaxRuntimePredictor::from_workload(w),
            FallbackPredictor::DEFAULT_ESTIMATE,
        )
    }

    fn user_job(syms: &mut SymbolTable, user: &str, rt: i64) -> Job {
        let u = syms.intern(user);
        JobBuilder::new()
            .with(Characteristic::User, u)
            .runtime(Dur(rt))
            .build(JobId(0))
    }

    #[test]
    fn cold_chain_degrades_to_static_default() {
        let w = Workload::new("t", 8);
        let mut p = chain(&w);
        let mut syms = SymbolTable::new();
        let j = user_job(&mut syms, "alice", 100);
        let pred = p.predict(&j, Dur::ZERO);
        assert_eq!(pred.estimate, FallbackPredictor::DEFAULT_ESTIMATE);
        assert!(pred.fallback);
        let c = p.counts();
        assert_eq!(c.static_default, 1);
        // Two learned tiers failed plus the user-limit tier: 3 events.
        assert_eq!(c.degradations, 3);
    }

    #[test]
    fn cold_chain_uses_user_limit_when_present() {
        let w = Workload::new("t", 8);
        let mut p = chain(&w);
        let j = JobBuilder::new()
            .runtime(Dur(100))
            .max_runtime(Dur(700))
            .build(JobId(0));
        let pred = p.predict(&j, Dur::ZERO);
        assert_eq!(pred.estimate, Dur(700));
        assert_eq!(p.counts().user_limit, 1);
        assert_eq!(p.counts().static_default, 0);
    }

    #[test]
    fn warm_chain_serves_from_first_tier() {
        let w = Workload::new("t", 8);
        let mut p = chain(&w);
        let mut syms = SymbolTable::new();
        p.on_complete(&user_job(&mut syms, "alice", 300));
        p.on_complete(&user_job(&mut syms, "alice", 300));
        let pred = p.predict(&user_job(&mut syms, "alice", 1), Dur::ZERO);
        assert_eq!(pred.estimate, Dur(300));
        assert!(!pred.fallback);
        let c = p.counts();
        assert_eq!(c.served[0], ("smith", 1));
        assert_eq!(c.user_limit + c.static_default, 0);
    }

    #[test]
    fn summary_names_every_tier() {
        let w = Workload::new("t", 8);
        let mut p = chain(&w);
        let mut syms = SymbolTable::new();
        p.predict(&user_job(&mut syms, "alice", 1), Dur::ZERO);
        let s = p.counts().summary();
        assert!(s.contains("smith"), "{s}");
        assert!(s.contains("gibbons"), "{s}");
        assert!(s.contains("static default"), "{s}");
        assert!(s.contains("degradation events"), "{s}");
    }
}
