//! `qpredict paper`'s usage errors: each exits 2 with a one-line
//! diagnostic, and none of them generates a workload first.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qpredict"))
        .arg("paper")
        .args(args)
        .output()
        .expect("the qpredict binary runs")
}

/// Exit code 2, and stderr is exactly one line naming `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = paper(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("qpredict: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn invalid_flag_values_exit_two() {
    assert_usage_error(
        &["--threads", "abc", "table3"],
        "invalid value \"abc\" for --threads",
    );
    assert_usage_error(
        &["--jobs", "lots", "table3"],
        "invalid value \"lots\" for --jobs",
    );
}

#[test]
fn missing_flag_values_exit_two() {
    assert_usage_error(&["table3", "--jobs"], "missing value for --jobs");
    assert_usage_error(&["table3", "--threads"], "missing value for --threads");
    assert_usage_error(&["table3", "--out"], "missing value for --out");
}

#[test]
fn unknown_experiments_are_rejected_before_any_work() {
    // No --jobs: generating the full-size sites first would take seconds
    // and announce itself on stderr.
    assert_usage_error(&["table3", "table16"], "unknown experiment \"table16\"");
    assert_usage_error(&["tables"], "unknown experiment \"tables\"");
}

#[test]
fn known_experiments_still_run() {
    let out = paper(&["--jobs", "50", "--threads", "2", "table3"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("table3"));
}
