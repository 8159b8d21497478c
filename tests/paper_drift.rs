//! Drift guard for the paper results: a small `qpredict paper` subset
//! must write exactly the committed report in `tests/fixtures`.
//!
//! The subset covers FCFS, LWF, conservative and EASY backfill, wait
//! prediction (with actual run times, Gibbons' predictor and Downey's
//! conditional average) and scheduling with predictions. Any change to what the
//! experiments compute shows here first, so a behaviour change must
//! regenerate the fixture (and the committed results) in the same change:
//!
//! ```sh
//! qpredict paper --jobs 800 --threads 1 table4 table7 table8 table10 \
//!     compress2x easy-ablation statewait --out tests/fixtures/paper_subset.md
//! ```
//!
//! The report header prints the thread count, so the run pins it.

use std::process::Command;

const EXPERIMENTS: [&str; 7] = [
    "table4",
    "table7",
    "table8",
    "table10",
    "compress2x",
    "easy-ablation",
    "statewait",
];

#[test]
fn paper_subset_matches_the_committed_fixture() {
    let out_path =
        std::env::temp_dir().join(format!("qpredict-paper-drift-{}.md", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_qpredict"))
        .args(["paper", "--jobs", "800", "--threads", "1"])
        .args(EXPERIMENTS)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("the qpredict binary runs");
    let written = std::fs::read_to_string(&out_path);
    let _ = std::fs::remove_file(&out_path);
    assert!(
        out.status.success(),
        "paper exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let got = written.expect("paper wrote its report");
    let want = include_str!("fixtures/paper_subset.md");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "paper subset drifted from tests/fixtures/paper_subset.md at line {}:\n  \
             got:  {:?}\n  want: {:?}\n(regenerate it as the module docs say if the \
             change is intended)",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
