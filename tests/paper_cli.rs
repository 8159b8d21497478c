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

/// The counters of a `paper --jobs 200 table6` report written with
/// `threads` workers, and the report's path.
fn table6_report(dir: &std::path::Path, threads: &str) -> (Vec<(String, f64)>, String) {
    let path = dir.join(format!("report-{threads}.json"));
    let path = path.to_str().expect("utf-8 temp path").to_string();
    let out = paper(&[
        "--jobs",
        "200",
        "--threads",
        threads,
        "table6",
        "--report-out",
        &path,
    ]);
    assert_eq!(out.status.code(), Some(0), "--threads {threads}");
    let text = std::fs::read_to_string(&path).expect("the report was written");
    let report = qpredict::obs::json::Json::parse(&text).expect("the report parses");
    let counters = report
        .get("counters")
        .and_then(|c| c.as_arr())
        .expect("a counters array")
        .iter()
        .map(|c| {
            let name = c.get("name").and_then(|n| n.as_str()).expect("a name");
            let value = c.get("value").and_then(|v| v.as_f64()).expect("a value");
            (name.to_string(), value)
        })
        .collect();
    (counters, path)
}

/// The grid's workers record into the report as the inline run does:
/// two threads report the same counters as one, and `check-report`
/// accepts the threaded report.
#[test]
fn threaded_reports_carry_the_workers_counters() {
    let dir = std::env::temp_dir().join(format!("qpredict-paper-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (one, _) = table6_report(&dir, "1");
    let (two, two_path) = table6_report(&dir, "2");
    assert!(!one.is_empty(), "the inline run recorded no counters");
    assert_eq!(two, one);
    let check = Command::new(env!("CARGO_BIN_EXE_qpredict"))
        .args(["check-report", &two_path])
        .output()
        .expect("the qpredict binary runs");
    assert_eq!(
        check.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
