//! Soak/chaos tests for the supervised, resumable GA template search.
//!
//! Three claims are exercised end to end, through the public facade:
//!
//! 1. **Kill-and-resume identity** — a search killed after any
//!    generation and resumed from its checkpoint produces the same best
//!    template set, fitness trace, and evaluation count as an
//!    uninterrupted run, byte for byte.
//! 2. **Chaos absorption** — with evaluator faults (panics, hangs,
//!    typed errors) injected at material rates, the search still
//!    completes, every injected fault is accounted for in
//!    [`SearchHealth`], and retryable-only fault storms converge to the
//!    *same* result as a fault-free run.
//! 3. **Corruption detection** — a damaged checkpoint is rejected with
//!    a typed error, never a panic or a silently-wrong resume.

use qpredict::search::{
    resume_supervised, search_supervised, CheckpointError, CheckpointPolicy, GaConfig,
    PredictionWorkload, SearchError, SupervisedResult, SupervisorConfig, Target,
};
use qpredict::sim::{Algorithm, FaultPlan};
use qpredict::workload::synthetic::toy;
use qpredict::workload::Workload;

const GENERATIONS: usize = 6;

/// Fitness-evaluation workers for the supervised runs.
const THREADS: usize = 2;

fn fixture(seed: u64) -> (Workload, PredictionWorkload, GaConfig) {
    let wl = toy(120, 32, seed);
    let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Backfill), 4);
    let cfg = GaConfig {
        population: 8,
        generations: GENERATIONS,
        seed: seed.wrapping_mul(97) + 13,
        ..GaConfig::default()
    };
    (wl, pw, cfg)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qpredict-resilience-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_identical(a: &SupervisedResult, b: &SupervisedResult, what: &str) {
    assert_eq!(a.result.best, b.result.best, "{what}: best set diverged");
    assert_eq!(
        a.result.error_history, b.result.error_history,
        "{what}: fitness trace diverged"
    );
    assert_eq!(
        a.result.evaluations, b.result.evaluations,
        "{what}: evaluation count diverged"
    );
}

/// Kill at generation 1, the midpoint, and last−1; resume each and
/// demand byte-identity with the uninterrupted run.
#[test]
fn kill_and_resume_is_bit_identical_at_any_generation() {
    let (wl, pw, cfg) = fixture(71);
    let sup = SupervisorConfig {
        threads: THREADS,
        ..SupervisorConfig::default()
    };
    let reference =
        search_supervised(&wl, &pw, &cfg, &sup, None).expect("uninterrupted run is clean");

    for kill_at in [1, GENERATIONS / 2, GENERATIONS - 1] {
        let dir = tmpdir(&format!("kill-{kill_at}"));
        let policy = CheckpointPolicy::every_generation(&dir);

        // The "killed" run: same config but stopped after `kill_at`
        // generations, checkpointing as it goes.
        let short = GaConfig {
            generations: kill_at,
            ..cfg.clone()
        };
        search_supervised(&wl, &pw, &short, &sup, Some(&policy)).expect("partial run is clean");

        // Resume to the full horizon.
        let resumed =
            resume_supervised(&wl, &pw, &cfg, &sup, &policy).expect("resume from checkpoint");
        assert_eq!(resumed.resumed_from, Some(kill_at), "resume point");
        assert_eq!(resumed.health.resumes, 1);
        assert_identical(&resumed, &reference, &format!("killed at {kill_at}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Retryable-only chaos (panics and hangs at a combined ~8% rate) must
/// not change the search outcome at all: every failure is retried on a
/// per-attempt derived stream until it succeeds, so the fitness signal
/// the GA sees is identical to a fault-free run.
#[test]
fn retryable_chaos_converges_to_the_faultless_result() {
    let (wl, pw, cfg) = fixture(72);
    let clean_sup = SupervisorConfig {
        threads: THREADS,
        ..SupervisorConfig::default()
    };
    let chaos_sup = SupervisorConfig {
        threads: THREADS,
        max_retries: 10,
        faults: Some(FaultPlan {
            eval_panic_prob: 0.05,
            eval_hang_prob: 0.03,
            ..FaultPlan::new(4242)
        }),
        ..SupervisorConfig::default()
    };

    let clean = search_supervised(&wl, &pw, &cfg, &clean_sup, None).expect("clean run");
    let chaotic = search_supervised(&wl, &pw, &cfg, &chaos_sup, None).expect("chaotic run");

    assert_identical(&chaotic, &clean, "retryable chaos");
    assert!(
        chaotic.health.injected_faults > 0,
        "chaos must actually fire at these rates: {}",
        chaotic.health.summary()
    );
    assert_eq!(chaotic.health.quarantined, 0, "retries must absorb all");
    assert_eq!(clean.health.failures(), 0);
}

/// Full chaos — panics, hangs, *and* fatal evaluator errors at ≥5%
/// combined — still completes, quarantines the unlucky individuals, and
/// accounts for every injected fault by cause.
#[test]
fn full_chaos_completes_with_exact_fault_accounting() {
    let (wl, pw, cfg) = fixture(73);
    let sup = SupervisorConfig {
        threads: THREADS,
        faults: Some(FaultPlan::eval_chaos(99, 0.08)),
        ..SupervisorConfig::default()
    };
    let out = search_supervised(&wl, &pw, &cfg, &sup, None).expect("chaos run completes");
    let h = &out.health;
    assert_eq!(out.result.error_history.len(), GENERATIONS);
    assert!(out.result.best_error_min.is_finite());
    // The evaluator itself never fails on this workload, so every
    // failure must trace back to an injected fault — exact accounting.
    assert_eq!(
        h.injected_faults,
        h.panics + h.budget_exhausted + h.eval_errors,
        "accounting mismatch: {}",
        h.summary()
    );
    assert!(h.injected_faults > 0, "chaos must fire: {}", h.summary());
    assert!(
        h.eval_errors == 0 || h.quarantined > 0,
        "fatal injected errors must quarantine: {}",
        h.summary()
    );
    assert!(h.attempts >= (cfg.population * GENERATIONS) as u64);
}

/// Chaos is deterministic in the fault seed: two identical chaotic runs
/// agree on the result *and* on every health counter.
#[test]
fn chaos_is_seed_deterministic() {
    let (wl, pw, cfg) = fixture(74);
    let sup = SupervisorConfig {
        threads: THREADS,
        faults: Some(FaultPlan::eval_chaos(7, 0.06)),
        ..SupervisorConfig::default()
    };
    let a = search_supervised(&wl, &pw, &cfg, &sup, None).expect("run a");
    let b = search_supervised(&wl, &pw, &cfg, &sup, None).expect("run b");
    assert_identical(&a, &b, "chaos determinism");
    assert_eq!(a.health, b.health, "health counters diverged");

    // Thread count must not change the outcome either (work stealing
    // changes interleaving, not results).
    let serial_sup = SupervisorConfig {
        threads: 1,
        ..sup.clone()
    };
    let c = search_supervised(&wl, &pw, &cfg, &serial_sup, None).expect("serial run");
    assert_identical(&a, &c, "thread-count invariance");
}

/// Kill-and-resume composes with chaos: resuming a chaotic run yields
/// the same result as the uninterrupted chaotic run.
#[test]
fn resume_under_chaos_is_bit_identical() {
    let (wl, pw, cfg) = fixture(75);
    let sup = SupervisorConfig {
        threads: THREADS,
        faults: Some(FaultPlan::eval_chaos(11, 0.05)),
        ..SupervisorConfig::default()
    };
    let reference = search_supervised(&wl, &pw, &cfg, &sup, None).expect("reference");

    let dir = tmpdir("chaos-resume");
    let policy = CheckpointPolicy::every_generation(&dir);
    let short = GaConfig {
        generations: 2,
        ..cfg.clone()
    };
    search_supervised(&wl, &pw, &short, &sup, Some(&policy)).expect("partial");
    let resumed = resume_supervised(&wl, &pw, &cfg, &sup, &policy).expect("resume");
    assert_identical(&resumed, &reference, "chaotic resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint is detected (checksum) and rejected with a
/// typed error; resume never runs on damaged state.
#[test]
fn corrupted_checkpoint_is_rejected_with_typed_error() {
    let (wl, pw, cfg) = fixture(76);
    let sup = SupervisorConfig {
        threads: 1,
        ..SupervisorConfig::default()
    };
    let dir = tmpdir("corrupt");
    let policy = CheckpointPolicy::every_generation(&dir);
    let short = GaConfig {
        generations: 2,
        ..cfg.clone()
    };
    search_supervised(&wl, &pw, &short, &sup, Some(&policy)).expect("partial run");

    // Flip one payload byte: 0 -> 1 in a population line.
    let file = policy.file();
    let text = std::fs::read_to_string(&file).expect("checkpoint exists");
    let idx = text.find("\npop ").expect("population lines present") + 5;
    let mut bytes = text.into_bytes();
    bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
    std::fs::write(&file, &bytes).expect("rewrite");

    let err = resume_supervised(&wl, &pw, &cfg, &sup, &policy).unwrap_err();
    assert!(
        matches!(
            err,
            SearchError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ),
        "expected checksum mismatch, got: {err}"
    );

    // A truncated file is equally rejected.
    let text = std::fs::read_to_string(&file).expect("checkpoint still readable");
    std::fs::write(&file, &text[..text.len() / 2]).expect("truncate");
    let err = resume_supervised(&wl, &pw, &cfg, &sup, &policy).unwrap_err();
    assert!(
        matches!(err, SearchError::Checkpoint(_)),
        "expected checkpoint error, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint from a different configuration refuses to resume: the
/// fingerprint names the mismatched field instead of silently blending
/// two incompatible runs.
#[test]
fn foreign_checkpoint_is_refused_by_fingerprint() {
    let (wl, pw, cfg) = fixture(77);
    let sup = SupervisorConfig::default();
    let dir = tmpdir("foreign");
    let policy = CheckpointPolicy::every_generation(&dir);
    let short = GaConfig {
        generations: 1,
        ..cfg.clone()
    };
    search_supervised(&wl, &pw, &short, &sup, Some(&policy)).expect("partial run");

    let other = GaConfig {
        population: cfg.population + 2,
        ..cfg.clone()
    };
    let err = resume_supervised(&wl, &pw, &other, &sup, &policy).unwrap_err();
    assert!(
        matches!(
            &err,
            SearchError::Checkpoint(CheckpointError::ConfigMismatch { field, .. })
                if *field == "population"
        ),
        "expected population mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
