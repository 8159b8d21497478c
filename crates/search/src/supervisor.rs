//! Supervised fitness evaluation: panic isolation, bounded retry, and
//! per-cause health accounting for long GA runs.
//!
//! The genetic search is the longest-running computation in this
//! reproduction, and a single poisoned category history or panicking
//! evaluation must not take the whole run down. This module wraps
//! [`crate::fitness::replay`] in a supervision layer:
//!
//! * every evaluation runs inside `catch_unwind` on a
//!   [`qpredict_obs::par_map`] worker, so a panic kills one attempt,
//!   never the process, and each worker hands back its outcome with its
//!   health delta, absorbed by the caller in input order;
//! * each evaluation carries a **step budget**, so a hung evaluation is
//!   cut off with [`FailureCause::Budget`];
//! * failures are classified **retryable** (panic, budget exhaustion —
//!   plausibly transient) vs **fatal** (a typed evaluator error —
//!   deterministic, retrying is futile), and retryable ones are retried
//!   at once, up to [`SupervisorConfig::max_retries`] times: a retry
//!   replays the evaluation in process, so there is no shared resource
//!   for a pause to spare;
//! * individuals whose evaluation ultimately fails are **quarantined**:
//!   they receive the worst fitness in their generation instead of
//!   poisoning it, and the event is recorded per cause in
//!   [`SearchHealth`].
//!
//! Determinism: injected faults ([`FaultPlan::eval_chaos`]) are drawn
//! from RNGs derived from `(seed, generation, individual, attempt)`,
//! never from shared mutable state, so outcomes are byte-identical
//! whatever the thread interleaving — and identical across a
//! kill-and-resume boundary.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qpredict_predict::{ErrorStats, TemplateSet};
use qpredict_sim::FaultPlan;
use qpredict_workload::{Rng64, Workload};

use crate::fitness::{derived_eval_budget, replay};
use crate::workloads::PredictionWorkload;

/// Payload of an injected evaluator panic, so chaos tests and the CLI
/// can tell deliberate panics from real bugs (e.g. to silence the
/// default panic hook for them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic;

/// Tunables for the supervised evaluator.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads for fitness evaluation.
    pub threads: usize,
    /// Retries per evaluation after the first attempt fails retryably.
    pub max_retries: u32,
    /// Per-evaluation step budget; `None` derives a generous one from
    /// the prediction-workload size ([`derived_eval_budget`]).
    pub eval_budget: Option<u64>,
    /// Evaluator fault injection (chaos testing); `None` disables it.
    pub faults: Option<FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            threads: qpredict_obs::default_threads(),
            max_retries: 3,
            eval_budget: None,
            faults: None,
        }
    }
}

/// Why an individual was quarantined (or an attempt failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// The evaluation panicked (caught by the worker).
    Panic,
    /// The evaluation exceeded its step budget (hang watchdog).
    Budget,
    /// The evaluator returned a typed error (fatal, not retried).
    Error,
}

impl FailureCause {
    /// Panics and hangs are plausibly transient; typed evaluator errors
    /// are deterministic and retrying them is futile.
    pub fn is_retryable(self) -> bool {
        matches!(self, FailureCause::Panic | FailureCause::Budget)
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureCause::Panic => "panic",
            FailureCause::Budget => "budget",
            FailureCause::Error => "error",
        }
    }
}

/// Outcome of one supervised evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// The evaluation (eventually) succeeded.
    Ok(ErrorStats),
    /// Every attempt failed; the individual gets worst fitness.
    Quarantined(FailureCause),
}

/// Aggregate health of a supervised search: what failed, what was
/// retried, what was quarantined, how often the run was resumed. The
/// search-layer analogue of `DegradationCounts` — graceful degradation
/// is only trustworthy when every event is accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchHealth {
    /// Fitness evaluations attempted (including retries).
    pub attempts: u64,
    /// Re-attempts after a retryable failure.
    pub retries: u64,
    /// Attempts that panicked.
    pub panics: u64,
    /// Attempts cut off by the step-budget watchdog.
    pub budget_exhausted: u64,
    /// Attempts that returned a typed evaluator error.
    pub eval_errors: u64,
    /// Individuals given worst fitness after all attempts failed.
    pub quarantined: u64,
    /// Failures caused by injected faults (chaos accounting: in a pure
    /// chaos run this equals `panics + budget_exhausted + eval_errors`).
    pub injected_faults: u64,
    /// Times the search was resumed from a checkpoint.
    pub resumes: u64,
    /// Estimate-cache hits across all successful fitness replays
    /// (deterministic for a given workload/population, so safe to
    /// compare across thread counts and resume boundaries).
    pub cache_hits: u64,
    /// Estimate-cache misses across all successful fitness replays.
    pub cache_misses: u64,
}

impl SearchHealth {
    /// Total failed attempts, by any cause.
    pub fn failures(&self) -> u64 {
        self.panics + self.budget_exhausted + self.eval_errors
    }

    /// Fold another report (e.g. one evaluation's) into this one.
    pub fn absorb(&mut self, other: &SearchHealth) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.panics += other.panics;
        self.budget_exhausted += other.budget_exhausted;
        self.eval_errors += other.eval_errors;
        self.quarantined += other.quarantined;
        self.injected_faults += other.injected_faults;
        self.resumes += other.resumes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Multi-line human-readable report (one line per non-zero class),
    /// mirroring `DegradationCounts::summary`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "attempts {} ({} retries, {} failures)",
            self.attempts,
            self.retries,
            self.failures()
        );
        for (label, n) in [
            ("panics caught", self.panics),
            ("budget exhaustions", self.budget_exhausted),
            ("evaluator errors", self.eval_errors),
            ("individuals quarantined", self.quarantined),
            ("injected faults", self.injected_faults),
            ("resumes from checkpoint", self.resumes),
            ("estimate-cache hits", self.cache_hits),
            ("estimate-cache misses", self.cache_misses),
        ] {
            if n > 0 {
                s.push_str(&format!("\n{label:<24} {n}"));
            }
        }
        s
    }
}

/// An injected fault decision for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    Panic,
    Hang,
    Error,
}

/// Derive a per-attempt RNG from `(seed, generation, individual,
/// attempt, salt)`. Sequential SplitMix64-style folding keeps the
/// streams independent of thread interleaving and of each other.
fn derived_rng(seed: u64, generation: u64, idx: u64, attempt: u64, salt: u64) -> Rng64 {
    let mut state = seed ^ salt;
    for word in [generation, idx, attempt] {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(word);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = z ^ (z >> 31);
    }
    Rng64::seed_from_u64(state)
}

/// Draw at most one fault for this attempt from the plan's seeded
/// stream. A single uniform draw keeps the per-cause probabilities
/// exact and mutually exclusive.
fn draw_fault(plan: &FaultPlan, generation: u64, idx: u64, attempt: u64) -> Option<InjectedFault> {
    if !plan.has_eval_faults() {
        return None;
    }
    let mut rng = derived_rng(plan.seed, generation, idx, attempt, 0xFA17_1A17_0000_0003);
    let u = rng.gen_f64();
    if u < plan.eval_panic_prob {
        Some(InjectedFault::Panic)
    } else if u < plan.eval_panic_prob + plan.eval_hang_prob {
        Some(InjectedFault::Hang)
    } else if u < plan.eval_panic_prob + plan.eval_hang_prob + plan.eval_error_prob {
        Some(InjectedFault::Error)
    } else {
        None
    }
}

/// Evaluate one individual under supervision: attempt, classify,
/// retry; quarantine when attempts are exhausted or the
/// failure is fatal. Returns the outcome plus this evaluation's health
/// delta (folded into the generation report by the caller).
fn evaluate_one(
    generation: u64,
    idx: usize,
    set: &TemplateSet,
    wl: &Workload,
    pw: &PredictionWorkload,
    cfg: &SupervisorConfig,
) -> (EvalOutcome, SearchHealth) {
    let mut health = SearchHealth::default();
    let budget = cfg.eval_budget.unwrap_or_else(|| derived_eval_budget(pw));
    let mut last_cause = FailureCause::Panic;
    for attempt in 0..=u64::from(cfg.max_retries) {
        if attempt > 0 {
            health.retries += 1;
        }
        health.attempts += 1;
        let fault = cfg
            .faults
            .as_ref()
            .and_then(|p| draw_fault(p, generation, idx as u64, attempt));
        let attempt_result = catch_unwind(AssertUnwindSafe(|| match fault {
            Some(InjectedFault::Panic) => std::panic::panic_any(InjectedPanic),
            Some(InjectedFault::Hang) => replay(set, wl, pw, 0),
            Some(InjectedFault::Error) => Err(FailureCause::Error),
            None => replay(set, wl, pw, budget),
        }));
        let cause = match attempt_result {
            Ok(Ok((stats, cache))) => {
                health.cache_hits += cache.hits;
                health.cache_misses += cache.misses;
                return (EvalOutcome::Ok(stats), health);
            }
            Ok(Err(cause)) => cause,
            Err(_) => FailureCause::Panic,
        };
        match cause {
            FailureCause::Panic => health.panics += 1,
            FailureCause::Budget => health.budget_exhausted += 1,
            FailureCause::Error => health.eval_errors += 1,
        }
        if fault.is_some() {
            health.injected_faults += 1;
        }
        last_cause = cause;
        if !cause.is_retryable() {
            break;
        }
    }
    health.quarantined += 1;
    (EvalOutcome::Quarantined(last_cause), health)
}

/// What one supervised generation produced: per-individual outcomes (in
/// input order) and the merged health delta.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// Outcome per individual, aligned with the input sets.
    pub outcomes: Vec<EvalOutcome>,
    /// Health events from this generation only.
    pub health: SearchHealth,
}

/// Evaluate a generation's template sets under supervision.
///
/// Individuals are spread over `cfg.threads` workers by
/// [`qpredict_obs::par_map`]; outcomes are deterministic in
/// `(cfg, generation, sets)` regardless of thread count or interleaving.
pub fn evaluate_generation(
    generation: u64,
    sets: &[TemplateSet],
    wl: &Workload,
    pw: &PredictionWorkload,
    cfg: &SupervisorConfig,
) -> GenerationReport {
    // Workers' spans land under this one when `par_map` joins them; the
    // health counters are mirrored from the outcomes below.
    let _span = qpredict_obs::span("ga.eval");
    let evaluated = qpredict_obs::par_map(sets.iter().collect(), cfg.threads, |i, set| {
        evaluate_one(generation, i, set, wl, pw, cfg)
    });
    let mut health = SearchHealth::default();
    let outcomes: Vec<EvalOutcome> = evaluated
        .into_iter()
        .map(|(o, h)| {
            health.absorb(&h);
            o
        })
        .collect();
    qpredict_obs::counter_add("search.attempts", health.attempts);
    qpredict_obs::counter_add("search.retries", health.retries);
    qpredict_obs::counter_add("search.panics", health.panics);
    qpredict_obs::counter_add("search.budget_exhausted", health.budget_exhausted);
    qpredict_obs::counter_add("search.eval_errors", health.eval_errors);
    qpredict_obs::counter_add("search.quarantined", health.quarantined);
    qpredict_obs::counter_add("search.injected_faults", health.injected_faults);
    qpredict_obs::counter_add("search.cache_hits", health.cache_hits);
    qpredict_obs::counter_add("search.cache_misses", health.cache_misses);
    GenerationReport { outcomes, health }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Target;
    use qpredict_predict::Template;
    use qpredict_sim::Algorithm;
    use qpredict_workload::synthetic::toy;
    use qpredict_workload::Characteristic;

    fn setup() -> (Workload, PredictionWorkload) {
        let wl = toy(150, 32, 21);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        (wl, pw)
    }

    fn sets(n: usize) -> Vec<TemplateSet> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])])
                } else {
                    TemplateSet::new(vec![Template::mean_over(&[])])
                }
            })
            .collect()
    }

    #[test]
    fn clean_supervision_matches_plain_evaluation() {
        let (wl, pw) = setup();
        let ss = sets(6);
        let cfg = SupervisorConfig {
            threads: 3,
            ..SupervisorConfig::default()
        };
        let report = evaluate_generation(0, &ss, &wl, &pw, &cfg);
        assert_eq!(report.health.failures(), 0);
        assert_eq!(report.health.attempts, 6);
        for (s, o) in ss.iter().zip(&report.outcomes) {
            match o {
                EvalOutcome::Ok(stats) => {
                    assert_eq!(*stats, crate::fitness::evaluate(s, &wl, &pw));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn injected_panics_are_isolated_and_retried() {
        let (wl, pw) = setup();
        let ss = sets(8);
        let cfg = SupervisorConfig {
            threads: 4,
            max_retries: 8,
            faults: Some(FaultPlan {
                eval_panic_prob: 0.4,
                ..FaultPlan::new(77)
            }),
            ..SupervisorConfig::default()
        };
        let report = evaluate_generation(0, &ss, &wl, &pw, &cfg);
        assert!(report.health.panics > 0, "panic faults must fire");
        assert_eq!(report.health.panics, report.health.injected_faults);
        assert_eq!(report.health.retries, report.health.panics);
        // With 8 retries at p=0.4 every individual recovers.
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, EvalOutcome::Ok(_))));
    }

    #[test]
    fn fault_outcomes_are_deterministic_across_thread_counts() {
        let (wl, pw) = setup();
        let ss = sets(10);
        let base = SupervisorConfig {
            max_retries: 2,
            faults: Some(FaultPlan::eval_chaos(5, 0.5)),
            ..SupervisorConfig::default()
        };
        let one = evaluate_generation(
            3,
            &ss,
            &wl,
            &pw,
            &SupervisorConfig {
                threads: 1,
                ..base.clone()
            },
        );
        let four = evaluate_generation(3, &ss, &wl, &pw, &SupervisorConfig { threads: 4, ..base });
        assert_eq!(one.outcomes, four.outcomes);
        assert_eq!(one.health, four.health);
    }

    #[test]
    fn typed_errors_are_fatal_and_quarantine_immediately() {
        let (wl, pw) = setup();
        let ss = sets(6);
        let cfg = SupervisorConfig {
            threads: 2,
            max_retries: 5,
            faults: Some(FaultPlan {
                eval_error_prob: 1.0,
                ..FaultPlan::new(9)
            }),
            ..SupervisorConfig::default()
        };
        let report = evaluate_generation(0, &ss, &wl, &pw, &cfg);
        // Fatal: one attempt each, no retries, all quarantined.
        assert_eq!(report.health.attempts, 6);
        assert_eq!(report.health.retries, 0);
        assert_eq!(report.health.quarantined, 6);
        assert_eq!(report.health.eval_errors, 6);
        assert_eq!(report.health.injected_faults, 6);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == EvalOutcome::Quarantined(FailureCause::Error)));
    }

    #[test]
    fn hang_faults_surface_as_budget_exhaustion() {
        let (wl, pw) = setup();
        let ss = sets(4);
        let cfg = SupervisorConfig {
            threads: 2,
            max_retries: 0,
            faults: Some(FaultPlan {
                eval_hang_prob: 1.0,
                ..FaultPlan::new(4)
            }),
            ..SupervisorConfig::default()
        };
        let report = evaluate_generation(0, &ss, &wl, &pw, &cfg);
        assert_eq!(report.health.budget_exhausted, 4);
        assert_eq!(report.health.quarantined, 4);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == EvalOutcome::Quarantined(FailureCause::Budget)));
    }

    #[test]
    fn health_summary_names_every_nonzero_class() {
        let h = SearchHealth {
            attempts: 10,
            retries: 3,
            panics: 2,
            budget_exhausted: 1,
            eval_errors: 1,
            quarantined: 1,
            injected_faults: 4,
            resumes: 2,
            cache_hits: 9,
            cache_misses: 5,
        };
        let s = h.summary();
        for needle in [
            "panics caught",
            "budget exhaustions",
            "evaluator errors",
            "individuals quarantined",
            "injected faults",
            "resumes from checkpoint",
            "estimate-cache hits",
            "estimate-cache misses",
        ] {
            assert!(s.contains(needle), "{s}");
        }
        assert!(SearchHealth::default().summary().contains("attempts 0"));
    }

    #[test]
    fn derived_rngs_differ_across_attempts() {
        let a = derived_rng(1, 0, 0, 0, 7).next_u64();
        let b = derived_rng(1, 0, 0, 1, 7).next_u64();
        let c = derived_rng(1, 0, 1, 0, 7).next_u64();
        let d = derived_rng(1, 1, 0, 0, 7).next_u64();
        assert!(a != b && a != c && a != d && b != c);
    }
}
