//! End-to-end tests for the checkpointed, resumable GA template search.
//!
//! Three claims are exercised through the public facade:
//!
//! 1. **Kill-and-resume identity** — a search killed after any
//!    generation and resumed from its checkpoint produces the same best
//!    template set, fitness trace, and evaluation count as an
//!    uninterrupted run, byte for byte.
//! 2. **Thread invariance** — one fitness worker or three give the same
//!    result and write the same checkpoint bytes.
//! 3. **Corruption detection** — a damaged checkpoint is rejected with
//!    a typed error, never a panic or a silently-wrong resume.

use qpredict::search::{
    resume, search, CheckpointError, CheckpointPolicy, GaConfig, GaResult, PredictionWorkload,
    Target,
};
use qpredict::sim::Algorithm;
use qpredict::workload::synthetic::toy;
use qpredict::workload::Workload;

const GENERATIONS: usize = 6;

/// Fitness-evaluation workers for the runs.
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

fn assert_identical(a: &GaResult, b: &GaResult, what: &str) {
    assert_eq!(a.best, b.best, "{what}: best set diverged");
    assert_eq!(
        a.error_history, b.error_history,
        "{what}: fitness trace diverged"
    );
    assert_eq!(
        a.evaluations, b.evaluations,
        "{what}: evaluation count diverged"
    );
}

/// Kill at generation 1, the midpoint, and last−1; resume each and
/// demand byte-identity with the uninterrupted run.
#[test]
fn kill_and_resume_is_bit_identical_at_any_generation() {
    let (wl, pw, cfg) = fixture(71);
    let reference = search(&wl, &pw, &cfg, THREADS, None).expect("uninterrupted run is clean");

    for kill_at in [1, GENERATIONS / 2, GENERATIONS - 1] {
        let dir = tmpdir(&format!("kill-{kill_at}"));
        let policy = CheckpointPolicy::every_generation(&dir);

        // The "killed" run: same config but stopped after `kill_at`
        // generations, checkpointing as it goes.
        let short = GaConfig {
            generations: kill_at,
            ..cfg.clone()
        };
        search(&wl, &pw, &short, THREADS, Some(&policy)).expect("partial run is clean");

        // Resume to the full horizon.
        let resumed = resume(&wl, &pw, &cfg, THREADS, &policy).expect("resume from checkpoint");
        assert_eq!(resumed.resumed_from, Some(kill_at), "resume point");
        assert_eq!(resumed.resumes, 1);
        assert_identical(&resumed, &reference, &format!("killed at {kill_at}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The worker count is not part of the search: a checkpointed run on
/// one fitness worker and on three gives the same result and writes the
/// same checkpoint bytes.
#[test]
fn search_is_thread_count_invariant() {
    let (wl, pw, cfg) = fixture(74);
    let run = |threads: usize| {
        let dir = tmpdir(&format!("threads-{threads}"));
        let policy = CheckpointPolicy::every_generation(&dir);
        let result = search(&wl, &pw, &cfg, threads, Some(&policy)).expect("checkpointed run");
        let bytes = std::fs::read(policy.file()).expect("checkpoint written");
        let _ = std::fs::remove_dir_all(&dir);
        (result, bytes)
    };
    let (one, one_bytes) = run(1);
    let (three, three_bytes) = run(3);
    assert_eq!(one, three, "thread count changed the result");
    assert!(
        one_bytes == three_bytes,
        "thread count changed the checkpoint"
    );
}

/// A corrupted checkpoint is detected (checksum) and rejected with a
/// typed error; resume never runs on damaged state.
#[test]
fn corrupted_checkpoint_is_rejected_with_typed_error() {
    let (wl, pw, cfg) = fixture(76);
    let dir = tmpdir("corrupt");
    let policy = CheckpointPolicy::every_generation(&dir);
    let short = GaConfig {
        generations: 2,
        ..cfg.clone()
    };
    search(&wl, &pw, &short, 1, Some(&policy)).expect("partial run");

    // Flip one payload byte: 0 -> 1 in a population line.
    let file = policy.file();
    let text = std::fs::read_to_string(&file).expect("checkpoint exists");
    let idx = text.find("\npop ").expect("population lines present") + 5;
    let mut bytes = text.into_bytes();
    bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
    std::fs::write(&file, &bytes).expect("rewrite");

    let err = resume(&wl, &pw, &cfg, 1, &policy).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected checksum mismatch, got: {err}"
    );

    // A truncated file is equally rejected.
    let text = std::fs::read_to_string(&file).expect("checkpoint still readable");
    std::fs::write(&file, &text[..text.len() / 2]).expect("truncate");
    let err = resume(&wl, &pw, &cfg, 1, &policy).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::BadMagic { .. }
                | CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::Malformed { .. }
        ),
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
    let threads = qpredict::obs::default_threads();
    let dir = tmpdir("foreign");
    let policy = CheckpointPolicy::every_generation(&dir);
    let short = GaConfig {
        generations: 1,
        ..cfg.clone()
    };
    search(&wl, &pw, &short, threads, Some(&policy)).expect("partial run");

    let other = GaConfig {
        population: cfg.population + 2,
        ..cfg.clone()
    };
    let err = resume(&wl, &pw, &other, threads, &policy).unwrap_err();
    assert!(
        matches!(
            &err,
            CheckpointError::ConfigMismatch { field, .. } if *field == "population"
        ),
        "expected population mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
