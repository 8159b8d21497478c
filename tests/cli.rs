//! End-to-end tests of the `qpredict` command-line binary.

use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qpredict"))
}

#[test]
fn simulate_toy_reports_metrics() {
    let out = bin()
        .args(["simulate", "toy", "--jobs", "300", "--nodes", "32"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("utilization"), "{text}");
    assert!(text.contains("mean wait"), "{text}");
    assert!(text.contains("run-time predictions"), "{text}");
}

#[test]
fn generate_then_analyze_round_trip() {
    let dir = std::env::temp_dir().join("qpredict_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let swf = dir.join("trace.swf");
    let out = bin()
        .args([
            "generate",
            "toy",
            "--jobs",
            "120",
            "--nodes",
            "32",
            "--out",
            swf.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(swf.exists());

    let out = bin()
        .args(["analyze", swf.to_str().unwrap(), "--nodes", "32"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests: 120"), "{text}");
    assert!(text.contains("identity groupings"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn waitpred_runs_on_site() {
    let out = bin()
        .args([
            "waitpred",
            "SDSC95",
            "--jobs",
            "200",
            "--alg",
            "lwf",
            "--predictor",
            "maxrt",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wait MAE"), "{text}");
}

#[test]
fn gantt_emits_csv() {
    let out = bin()
        .args(["gantt", "toy", "--jobs", "50", "--nodes", "16"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("job,start,finish,nodes"));
    assert_eq!(lines.count(), 50);
}

#[test]
fn search_runs_and_reports_health() {
    let out = bin()
        .args([
            "search",
            "toy",
            "--jobs",
            "100",
            "--nodes",
            "32",
            "--generations",
            "2",
            "--population",
            "8",
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best MAE"), "{text}");
    assert!(text.contains("evaluations  16"), "{text}");
    assert!(text.contains("resumes      0"), "{text}");
}

#[test]
fn search_checkpoint_then_resume_round_trip() {
    let dir = std::env::temp_dir().join("qpredict_cli_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt_dir = dir.to_str().unwrap();
    let base = [
        "search",
        "toy",
        "--jobs",
        "100",
        "--nodes",
        "32",
        "--population",
        "8",
        "--seed",
        "7",
        "--checkpoint-dir",
        ckpt_dir,
    ];

    let out = bin()
        .args(base)
        .args(["--generations", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("ga.ckpt").exists(), "checkpoint written");

    let out = bin()
        .args(base)
        .args(["--generations", "4", "--resume"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("resumed from generation 2"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_resume_without_checkpoint_dir_exits_2() {
    let out = bin()
        .args(["search", "toy", "--jobs", "50", "--resume"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
}

#[test]
fn search_resume_with_missing_checkpoint_exits_2() {
    let dir = std::env::temp_dir().join("qpredict_cli_no_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args([
            "search",
            "toy",
            "--jobs",
            "50",
            "--resume",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume search"), "{err}");
    assert!(err.contains("ga.ckpt"), "{err}");
}

#[test]
fn search_resume_with_corrupt_checkpoint_exits_2() {
    let dir = std::env::temp_dir().join("qpredict_cli_corrupt_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ga.ckpt"), "qpredict-ga-checkpoint v1\ngarbage\n").unwrap();
    let out = bin()
        .args([
            "search",
            "toy",
            "--jobs",
            "50",
            "--resume",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume search"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_that_cannot_write_its_checkpoint_exits_1() {
    // A fresh run whose checkpoint directory sits under a regular file
    // fails at run time; nothing is being resumed.
    let dir = std::env::temp_dir().join("qpredict_cli_ckpt_under_file");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("F");
    std::fs::write(&file, "not a directory\n").unwrap();
    let out = bin()
        .args([
            "search",
            "toy",
            "--jobs",
            "50",
            "--generations",
            "1",
            "--population",
            "4",
            "--checkpoint-dir",
            file.join("sub").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("qpredict: cannot write search checkpoint: "),
        "{err}"
    );
    assert!(!err.contains("resume"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_rejects_bad_fault_eval_rate() {
    // search no longer injects evaluator faults, so --fault-eval is refused
    // as an unknown flag whatever its rate.
    let out = bin()
        .args(["search", "toy", "--jobs", "50", "--fault-eval", "1.5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--fault-eval"),
        "stderr names the bad flag: {err}"
    );
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = bin().args(["simulate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let out = bin()
        .args(["frobnicate", "toy"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let out = bin()
        .args(["simulate", "NERSC"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown site"));
}

#[test]
fn events_then_serve_round_trip_with_resume() {
    let dir = std::env::temp_dir().join("qpredict_cli_serve_rt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ev = dir.join("events.log");
    let out = bin()
        .args([
            "events",
            "toy",
            "--jobs",
            "30",
            "--query-every",
            "5",
            "--out",
            ev.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Uninterrupted reference run.
    let ref_out = dir.join("ref.out");
    let out = bin()
        .args([
            "serve",
            ev.to_str().unwrap(),
            "--state-dir",
            dir.join("ref-state").to_str().unwrap(),
            "--snapshot-every",
            "16",
            "--out",
            ref_out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Interrupted run (a prefix of the stream), then resume over the full
    // stream into the same output log.
    let text = std::fs::read_to_string(&ev).unwrap();
    let cut: String = text.lines().take(40).map(|l| format!("{l}\n")).collect();
    let part = dir.join("events.part.log");
    std::fs::write(&part, cut).unwrap();
    let state = dir.join("state");
    let r_out = dir.join("resumed.out");
    let out = bin()
        .args([
            "serve",
            part.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
            "--snapshot-every",
            "16",
            "--out",
            r_out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = bin()
        .args([
            "serve",
            ev.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
            "--resume",
            "--snapshot-every",
            "16",
            "--out",
            r_out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("recovered"));
    assert_eq!(
        std::fs::read_to_string(&r_out).unwrap(),
        std::fs::read_to_string(&ref_out).unwrap(),
        "resumed output must match the uninterrupted reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_resume_without_state_dir_exits_2() {
    let out = bin()
        .args(["serve", "-", "--resume"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume requires --state-dir"),
        "stderr names the missing flag"
    );
}

#[test]
fn serve_rejects_bad_fsync_and_zero_caps() {
    let out = bin()
        .args(["serve", "-", "--fsync", "sometimes"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fsync"));

    let out = bin()
        .args(["serve", "-", "--max-jobs", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-jobs"));

    let out = bin()
        .args(["serve", "-", "--max-history", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-history"));
}

#[test]
fn serve_rejects_unhosted_predictor() {
    let out = bin()
        .args(["serve", "-", "--predictor", "actual"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("serve hosts"),
        "stderr lists the supported predictors"
    );
}

#[test]
fn serve_fresh_open_on_existing_wal_exits_2() {
    let dir = std::env::temp_dir().join("qpredict_cli_serve_wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ev = dir.join("ev.log");
    std::fs::write(&ev, "submit 1 100 nodes=4\nfinish 1 400\n").unwrap();
    let state = dir.join("state");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "serve",
            ev.to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        bin().args(&args).output().expect("binary runs")
    };
    assert!(run(&[]).status.success());
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resume"),
        "stderr tells the operator to pass --resume"
    );
    assert!(run(&["--resume"]).status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn toy_honours_nodes_above_128() {
    let out = bin()
        .args(["generate", "toy", "--jobs", "5", "--nodes", "256"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("; MaxNodes: 256\n"), "{text}");
}

#[test]
fn every_subcommand_exits_zero_when_stdout_closes() {
    let dir = std::env::temp_dir().join(format!("qpredict_cli_closed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.log");
    let report = dir.join("report.json");
    let (events, report) = (events.to_str().unwrap(), report.to_str().unwrap());
    let made = bin()
        .args([
            "events",
            "toy",
            "--jobs",
            "60",
            "--query-every",
            "5",
            "--out",
            events,
        ])
        .output()
        .expect("binary runs");
    assert!(made.status.success());
    let made = bin()
        .args([
            "simulate",
            "toy",
            "--jobs",
            "60",
            "--nodes",
            "16",
            "--report-out",
            report,
        ])
        .output()
        .expect("binary runs");
    assert!(made.status.success());
    let runs: &[&[&str]] = &[
        &["generate", "toy", "--jobs", "60"],
        &["analyze", "toy", "--jobs", "60"],
        &["simulate", "toy", "--jobs", "60", "--nodes", "16"],
        &["waitpred", "toy", "--jobs", "60"],
        &["gantt", "toy", "--jobs", "60"],
        &[
            "search",
            "toy",
            "--jobs",
            "60",
            "--generations",
            "2",
            "--population",
            "4",
        ],
        &["events", "toy", "--jobs", "60"],
        &["serve", events],
        &["paper", "--jobs", "60", "--threads", "1", "table1"],
        &["check-report", report],
        &[
            "generate",
            "toy",
            "--jobs",
            "60",
            "--out",
            "/dev/null",
            "--report-out",
            "-",
        ],
    ];
    for args in runs {
        // The reading end is gone before the child has written a byte.
        let mut child = bin()
            .args(*args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_outputs_survive_a_closed_stdout() {
    let dir =
        std::env::temp_dir().join(format!("qpredict_cli_closed_files_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("r.json");
    let tables = dir.join("f.md");
    let (report, tables) = (report.to_str().unwrap(), tables.to_str().unwrap());
    let runs: &[&[&str]] = &[
        &[
            "simulate",
            "toy",
            "--jobs",
            "60",
            "--nodes",
            "16",
            "--report-out",
            report,
        ],
        &[
            "paper",
            "--jobs",
            "60",
            "--threads",
            "1",
            "table1",
            "--out",
            tables,
        ],
    ];
    for args in runs {
        // The reading end is gone before the child has written a byte.
        let mut child = bin()
            .args(*args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {err}");
    }
    let md = std::fs::read_to_string(tables).expect("--out written");
    assert!(md.starts_with("# qpredict experiment data"), "{md}");
    let check = bin()
        .args(["check-report", report])
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
