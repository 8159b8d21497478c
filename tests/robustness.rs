//! End-to-end robustness tests: lenient SWF recovery over a corpus of
//! malformed traces, deterministic fault injection, schedule invariants
//! under trace faults, and the CLI's diagnostic exit codes.

use std::process::Command;

use qpredict::predict::OraclePredictor;
use qpredict::sim::{Algorithm, FaultPlan, Simulation, Timeline};
use qpredict::workload::{swf, IngestPolicy, SkipCategory};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qpredict"))
}

/// A trace exercising every corruption category the lenient parser
/// recovers from. Line numbers (1-based, comments included):
///
/// | line | content                         | fate                    |
/// |------|---------------------------------|-------------------------|
/// | 1    | comment                         | ignored                 |
/// | 2    | good job 1, submit 100          | accepted                |
/// | 3    | `abc` in the run-time field     | skip: non-integer       |
/// | 4    | four fields                     | skip: too few fields    |
/// | 5    | duplicate of job 1              | skip: duplicate job id  |
/// | 6    | submit 50 after submit 100      | skip: non-monotonic     |
/// | 7    | submit -7                       | skip: negative submit   |
/// | 8    | run time 0 (cancelled)          | skip: cancelled record  |
/// | 9    | good job 9 with 20 fields       | accepted, warn: trailing|
const CORRUPT_TRACE: &str = "\
; malformed-trace corpus
1 100 0 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
2 110 0 abc 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
3 120 0 60
1 130 0 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
5 50 0 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
6 -7 0 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
7 140 0 0 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1
9 150 0 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 1 -1 0 0
";

#[test]
fn lenient_ingestion_recovers_the_malformed_corpus() {
    let (wl, report) = swf::parse_with("corpus", 8, CORRUPT_TRACE, IngestPolicy::Lenient)
        .expect("lenient ingestion never fails");
    assert_eq!(wl.len(), 2, "jobs 1 and 9 survive");
    assert!(wl.validate().is_ok());

    assert_eq!(report.data_lines, 8);
    assert_eq!(report.records_ok, 2);
    assert_eq!(report.count(SkipCategory::NonIntegerField), 1);
    assert_eq!(report.count(SkipCategory::TooFewFields), 1);
    assert_eq!(report.count(SkipCategory::DuplicateJobId), 1);
    assert_eq!(report.count(SkipCategory::NonMonotonicSubmit), 1);
    assert_eq!(report.count(SkipCategory::NegativeSubmit), 1);
    assert_eq!(report.count(SkipCategory::CancelledRecord), 1);
    assert_eq!(report.count(SkipCategory::TrailingFields), 1);
    assert_eq!(report.skipped_total(), 6);
    assert_eq!(report.warnings_total(), 1);
    // Every skipped line is enumerated, in order.
    assert_eq!(report.skipped_lines, vec![3, 4, 5, 6, 7, 8]);
    let summary = report.summary();
    for cat in SkipCategory::ALL {
        assert!(summary.contains(cat.name()), "summary must mention {cat}");
    }
}

#[test]
fn strict_ingestion_stops_at_the_first_malformed_line() {
    let err = swf::parse_with("corpus", 8, CORRUPT_TRACE, IngestPolicy::Strict)
        .expect_err("strict ingestion must fail");
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "wrong line in {msg:?}");
    assert!(
        msg.contains("\"abc\""),
        "offending token missing in {msg:?}"
    );
    assert!(msg.contains("field 4"), "field index missing in {msg:?}");
    assert!(msg.contains("run time"), "field name missing in {msg:?}");
}

#[test]
fn cli_fault_injection_is_deterministic_in_the_seed() {
    let run = |seed: &str| {
        let out = bin()
            .args([
                "simulate",
                "toy",
                "--jobs",
                "250",
                "--nodes",
                "32",
                "--predictor",
                "fallback",
                "--fault-seed",
                seed,
                "--fault-pred-noise",
                "0.25",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run("42");
    let b = run("42");
    assert_eq!(a, b, "identical seeds must give byte-identical reports");
    let text = String::from_utf8_lossy(&a);
    assert!(text.contains("degradation events"), "{text}");
    assert!(text.contains("faults injected (seed 42)"), "{text}");
    // The noise must actually corrupt something.
    assert!(!text.contains("0 scaled, 0 inverted, 0 dropped"), "{text}");
    let c = run("43");
    assert_ne!(a, c, "a different seed must perturb the schedule");
}

#[test]
fn cli_lenient_ingest_reports_and_recovers() {
    let dir = std::env::temp_dir().join("qpredict_robustness_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.swf");
    std::fs::write(&path, CORRUPT_TRACE).unwrap();

    // Strict (the default) refuses the trace.
    let out = bin()
        .args(["analyze", path.to_str().unwrap(), "--nodes", "8"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");

    // Lenient recovers and reports what it skipped.
    let out = bin()
        .args([
            "analyze",
            path.to_str().unwrap(),
            "--nodes",
            "8",
            "--ingest",
            "lenient",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("recovered under lenient ingestion"), "{err}");
    assert!(err.contains("duplicate job id"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests: 2"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_flag_errors_exit_two_with_pointed_messages() {
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "toy", "--nodes"], "missing value for --nodes"),
        (
            &["simulate", "toy", "--nodes", "many"],
            "invalid value \"many\" for --nodes",
        ),
        (
            &["simulate", "toy", "--alg", "sjf"],
            "invalid value \"sjf\" for --alg",
        ),
        (
            &["simulate", "toy", "--ingest", "sloppy"],
            "invalid value \"sloppy\" for --ingest",
        ),
        (
            &["simulate", "toy", "--fault-pred-noise", "2"],
            "for --fault-pred-noise",
        ),
        (
            &["simulate", "toy", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (
            &[
                "waitpred",
                "toy",
                "--jobs",
                "50",
                "--fault-seed",
                "3",
                "--fsync",
                "always",
                "--state-dir",
                "/nonexistent",
            ],
            "--fault-seed does not apply to waitpred",
        ),
        (
            &["gantt", "toy", "--predictor", "smith"],
            "--predictor does not apply to gantt",
        ),
        (
            &["analyze", "toy", "--out", "stats.txt"],
            "--out does not apply to analyze",
        ),
        (
            &["serve", "-", "--jobs", "10"],
            "--jobs does not apply to serve",
        ),
        (
            &["check-report", "report.json", "--nodes", "4"],
            "--nodes does not apply to check-report",
        ),
        (
            &["simulate", "ANL", "--jobs", "0"],
            "invalid value \"0\" for --jobs",
        ),
        (
            &["waitpred", "toy", "--jobs", "0"],
            "invalid value \"0\" for --jobs",
        ),
        (
            &["paper", "table3", "--jobs", "0"],
            "invalid value \"0\" for --jobs",
        ),
        (
            &["search", "toy", "--jobs", "50", "--fault-eval", "0.1"],
            "unknown flag \"--fault-eval\"",
        ),
        (
            &["search", "toy", "--jobs", "50", "--fault-seed", "3"],
            "--fault-seed does not apply to search",
        ),
        (
            &["simulate", "trace.swf", "--jobs", "50"],
            "--jobs does not apply to trace.swf",
        ),
        (
            &["simulate", "ANL", "--jobs", "50", "--nodes", "64"],
            "--nodes does not apply to ANL",
        ),
        (
            &["analyze", "toy", "--ingest", "lenient"],
            "--ingest does not apply to toy",
        ),
        (
            &["simulate", "toy", "--nodes", "0"],
            "invalid value \"0\" for --nodes (expected a positive node count)",
        ),
        (
            &["search", "toy", "--generations", "0"],
            "invalid value \"0\" for --generations (expected a positive generation count)",
        ),
    ];
    for (args, needle) in cases {
        let out = bin().args(*args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "args {args:?}: {err}");
        assert!(err.starts_with("qpredict: "), "args {args:?}: {err}");
        assert!(err.contains(needle), "args {args:?}: {err}");
        assert!(out.stdout.is_empty(), "args {args:?} printed output");
    }
}

#[test]
fn library_fault_plans_survive_a_guarded_run() {
    // Trace faults under the run's guards, the engine's debug assertions
    // (capacity, node accounting) plus the checks below: the mutated
    // trace must complete with a feasible schedule in which no job
    // starts before it is submitted.
    let wl = qpredict::workload::synthetic::toy(300, 16, 7);
    let plan = FaultPlan {
        cancel_prob: 0.1,
        fail_prob: 0.1,
        delay_prob: 0.2,
        ..FaultPlan::new(11)
    };
    let (faulted, report) = plan.apply_to_workload(&wl);
    assert!(report.total() > 0);
    let run = Simulation::run(&faulted, Algorithm::EasyBackfill, &mut OraclePredictor);
    assert!(Timeline::build(&faulted, &run.outcomes).is_feasible());
    assert!(run.outcomes.iter().all(|o| o.start >= o.submit));
    assert_eq!(run.metrics.n_jobs, 300);
}
