//! The `qpredict` command line, locked byte for byte.
//!
//! Holds what the binary prints to the checksums and messages it printed
//! before its flags were declared in one table: the stdout of a small run
//! of every subcommand, the full `--help` text, the missing-value and
//! bad-value diagnostics of every flag, and the "does not apply" exit for
//! every subcommand and flag pair `--help` does not list. A change that
//! moves any of them changes the command line; it must say why, not
//! recapture them.

use std::path::PathBuf;
use std::process::{Command, Output};

use qpredict::durable::checksum;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qpredict"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run `args`, which must succeed, and return the checksum of its stdout.
fn stdout_sum(args: &[&str]) -> u64 {
    let out = run(args);
    assert!(
        out.status.success(),
        "args {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    checksum(&out.stdout)
}

/// A scratch directory of this test process's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpredict_cli_lock_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A flag, a value of it that parses (`None` for a switch), and its bad
/// values, each with the exact stderr it prints.
type FlagCase = (
    &'static str,
    Option<&'static str>,
    &'static [(&'static str, &'static str)],
);

const FLAGS: &[FlagCase] = &[
    (
        "--nodes",
        Some("16"),
        &[
            (
                "x",
                "invalid value \"x\" for --nodes (expected a node count)",
            ),
            (
                "-1",
                "invalid value \"-1\" for --nodes (expected a node count)",
            ),
            (
                "4294967296",
                "invalid value \"4294967296\" for --nodes (expected a node count)",
            ),
        ],
    ),
    (
        "--jobs",
        Some("10"),
        &[
            (
                "x",
                "invalid value \"x\" for --jobs (expected a positive job count)",
            ),
            (
                "0",
                "invalid value \"0\" for --jobs (expected a positive job count)",
            ),
            (
                "00",
                "invalid value \"0\" for --jobs (expected a positive job count)",
            ),
        ],
    ),
    (
        "--ingest",
        Some("lenient"),
        &[(
            "x",
            "invalid value \"x\" for --ingest (expected strict|lenient)",
        )],
    ),
    ("--out", Some("out.txt"), &[]),
    (
        "--alg",
        Some("fcfs"),
        &[(
            "sjf",
            "invalid value \"sjf\" for --alg (expected fcfs|lwf|backfill|easy)",
        )],
    ),
    (
        "--predictor",
        Some("smith"),
        &[(
            "x",
            "invalid value \"x\" for --predictor (expected actual|maxrt|smith|gibbons|\
             downey-avg|downey-med|fallback)",
        )],
    ),
    (
        "--fault-seed",
        Some("3"),
        &[(
            "x",
            "invalid value \"x\" for --fault-seed (expected an integer seed)",
        )],
    ),
    (
        "--fault-pred-noise",
        Some("0.5"),
        &[
            (
                "x",
                "invalid value \"x\" for --fault-pred-noise (expected a probability in [0, 1])",
            ),
            (
                "2.0",
                "invalid value \"2\" for --fault-pred-noise (expected a probability in [0, 1])",
            ),
            (
                "-0.5",
                "invalid value \"-0.5\" for --fault-pred-noise (expected a probability in [0, 1])",
            ),
            (
                "NaN",
                "invalid value \"NaN\" for --fault-pred-noise (expected a probability in [0, 1])",
            ),
        ],
    ),
    (
        "--generations",
        Some("2"),
        &[(
            "x",
            "invalid value \"x\" for --generations (expected a generation count)",
        )],
    ),
    (
        "--population",
        Some("8"),
        &[
            (
                "x",
                "invalid value \"x\" for --population (expected a population size (>= 4))",
            ),
            (
                "03",
                "invalid value \"3\" for --population (the GA needs at least 4 individuals \
                 for parents and elites)",
            ),
        ],
    ),
    (
        "--seed",
        Some("5"),
        &[(
            "x",
            "invalid value \"x\" for --seed (expected an integer seed)",
        )],
    ),
    ("--checkpoint-dir", Some("ckpt"), &[]),
    ("--resume", None, &[]),
    (
        "--query-every",
        Some("5"),
        &[(
            "x",
            "invalid value \"x\" for --query-every (expected a job interval)",
        )],
    ),
    (
        "--shuffle",
        Some("4"),
        &[(
            "x",
            "invalid value \"x\" for --shuffle (expected a shuffle window)",
        )],
    ),
    ("--state-dir", Some("state"), &[]),
    (
        "--horizon",
        Some("8"),
        &[(
            "x",
            "invalid value \"x\" for --horizon (expected a reorder-buffer size)",
        )],
    ),
    (
        "--snapshot-every",
        Some("16"),
        &[(
            "x",
            "invalid value \"x\" for --snapshot-every (expected a line interval)",
        )],
    ),
    (
        "--fsync",
        Some("never"),
        &[
            (
                "x",
                "invalid value \"x\" for --fsync (unknown fsync policy \"x\" \
                 (want always|batch[=N]|never))",
            ),
            (
                "batch=x",
                "invalid value \"batch=x\" for --fsync (bad batch size: invalid digit found \
                 in string)",
            ),
        ],
    ),
    (
        "--max-jobs",
        Some("100"),
        &[
            (
                "x",
                "invalid value \"x\" for --max-jobs (expected a live-job cap (>= 1))",
            ),
            (
                "0",
                "invalid value \"0\" for --max-jobs (the cap must admit at least one job)",
            ),
        ],
    ),
    (
        "--max-done",
        Some("100"),
        &[(
            "x",
            "invalid value \"x\" for --max-done (expected a done-record cap)",
        )],
    ),
    (
        "--max-history",
        Some("100"),
        &[
            (
                "x",
                "invalid value \"x\" for --max-history (expected a per-category cap (>= 1))",
            ),
            (
                "0",
                "invalid value \"0\" for --max-history (a predictor with no history cannot \
                 predict)",
            ),
        ],
    ),
    (
        "--throttle-us",
        Some("1"),
        &[(
            "x",
            "invalid value \"x\" for --throttle-us (expected microseconds)",
        )],
    ),
    (
        "--threads",
        Some("1"),
        &[(
            "x",
            "invalid value \"x\" for --threads (expected a thread count)",
        )],
    ),
    ("--report-out", Some("report.json"), &[]),
];

/// Run `args`, which must exit 2 with exactly `message` on stderr and
/// nothing on stdout.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "args {args:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("qpredict: {message}\n"),
        "args {args:?}"
    );
    assert!(out.stdout.is_empty(), "args {args:?} printed output");
}

#[test]
fn help_text_is_unchanged() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(
        checksum(&out.stderr),
        0xb4eb453f745e3d5a,
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_flag_reports_a_missing_or_bad_value() {
    for (flag, good, bad) in FLAGS {
        if good.is_some() {
            assert_usage_error(
                &["simulate", "toy", flag],
                &format!("missing value for {flag}"),
            );
        }
        for (value, message) in *bad {
            assert_usage_error(&["simulate", "toy", flag, value], message);
        }
    }
}

#[test]
fn every_unlisted_flag_does_not_apply() {
    let help = String::from_utf8(run(&["--help"]).stderr).unwrap();
    let mut pairs = 0;
    for line in help.lines().filter_map(|l| l.strip_prefix("  qpredict ")) {
        let cmd = line.split(' ').next().unwrap();
        let listed: Vec<&str> = line
            .split('[')
            .skip(1)
            .map(|f| f.split([' ', ']']).next().unwrap())
            .collect();
        for (flag, good, _) in FLAGS {
            if *flag == "--report-out" || listed.contains(flag) {
                continue;
            }
            let mut args = vec![cmd, "toy", *flag];
            args.extend(*good);
            assert_usage_error(
                &args,
                &format!("{flag} does not apply to {cmd} (see --help)"),
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 185);
}

#[test]
fn small_runs_print_the_same_bytes() {
    let runs: &[(&[&str], u64)] = &[
        (&["generate", "toy"], 0x13c0a8bcbd7df381),
        (&["generate", "ANL", "--jobs", "200"], 0xd0e8847e83b55b32),
        (&["analyze", "toy"], 0xb7349797378f2e9e),
        (&["simulate", "toy"], 0x728cf817e6ae919d),
        (
            &["simulate", "toy", "--predictor", "fallback"],
            0x80969812971ae731,
        ),
        (
            &[
                "simulate",
                "toy",
                "--fault-seed",
                "3",
                "--fault-pred-noise",
                "0.3",
            ],
            0x9fe377563320fc7f,
        ),
        (&["waitpred", "toy", "--alg", "lwf"], 0x708915a8c45a1b79),
        (&["gantt", "toy"], 0xcd21e559ddf29952),
        (
            &[
                "events",
                "toy",
                "--query-every",
                "3",
                "--shuffle",
                "8",
                "--seed",
                "5",
            ],
            0xe5492826037628e3,
        ),
        (
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
            0x3c158aa1134734ec,
        ),
        (
            &[
                "paper",
                "--jobs",
                "60",
                "--threads",
                "1",
                "table1",
                "table4",
                "table10",
            ],
            0x84d6317779f29d97,
        ),
    ];
    let got: Vec<u64> = runs.iter().map(|(args, _)| stdout_sum(args)).collect();
    let want: Vec<u64> = runs.iter().map(|(_, sum)| *sum).collect();
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn serve_prints_the_same_responses() {
    let dir = scratch("serve");
    let events = dir.join("events.log");
    let events = events.to_str().unwrap();
    stdout_sum(&[
        "events",
        "toy",
        "--jobs",
        "200",
        "--query-every",
        "5",
        "--out",
        events,
    ]);
    let got: Vec<u64> = ["smith", "gibbons"]
        .iter()
        .map(|p| stdout_sum(&["serve", events, "--predictor", p]))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, [0x9633941f66132792, 0xaba9f1c087990a67], "{got:#x?}");
}
