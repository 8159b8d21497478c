//! Integration tests for the online predictor service: kill-anywhere
//! recovery, corrupted-snapshot and torn-WAL tolerance, one end state
//! under every durability policy, reorder equivalence under permutation,
//! and bounded memory on long streams.

use std::fs;
use std::path::{Path, PathBuf};

use qpredict_predict::PredictorKind;
use qpredict_serve::{wal, FsyncPolicy, ServeConfig, Service};
use qpredict_workload::{synthesize_events, Rng64};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpredict-serve-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> ServeConfig {
    ServeConfig {
        horizon: 8,
        snapshot_every: 7,
        // A same-process abort loses the WAL records still buffered in
        // the service, never what it wrote to the page cache, so fsync
        // changes nothing here; the ci.sh SIGKILL smoke covers a real
        // kill.
        fsync: FsyncPolicy::Never,
        ..ServeConfig::default()
    }
}

/// A realistic event stream from the toy synthetic workload, plus a few
/// hand-written anomalies (duplicates, a malformed line, an orphan) so
/// recovery is also exercised across counter-bearing paths.
fn event_lines(jobs: usize) -> Vec<String> {
    let wl = qpredict_workload::synthetic::toy(jobs, 64, 7);
    let mut lines: Vec<String> = synthesize_events(&wl, 6)
        .iter()
        .map(|e| e.encode())
        .collect();
    let mid = lines.len() / 2;
    lines.insert(mid, lines[mid - 1].clone()); // duplicate
    lines.insert(mid, "start 999999 1".into()); // orphan
    lines.insert(mid, "submit pancakes".into()); // malformed
    lines
}

/// Known jobs queried back to back, with no completion between the
/// queries: each answer re-estimates the same queued jobs at the same
/// predictor state, the case an estimate cache above the predictor
/// would serve. One line per snapshot, so a kill between two queries
/// resumes from a snapshot taken between them.
fn back_to_back_queries() -> (ServeConfig, Vec<String>) {
    let cfg = ServeConfig {
        horizon: 1,
        snapshot_every: 1,
        ..cfg()
    };
    let lines = [
        "submit 1 100 nodes=4 limit=3600 u=ann e=lu",
        "start 1 110",
        "finish 1 700",
        "submit 2 800 nodes=4 limit=3600 u=ann e=lu",
        "start 2 810",
        "finish 2 1500",
        "submit 3 1600 nodes=8 limit=7200 u=ann e=lu",
        "start 3 1610",
        "submit 4 1620 nodes=60 limit=3600 u=ann e=lu",
        "submit 5 1630 nodes=4 limit=3600 u=bob e=fft",
        "submit 6 1640 nodes=16 limit=1800 u=ann e=lu",
        "query 6 1650",
        "query 6 1651",
        "query 5 1652",
        "query 6 1653",
        "query 4 1654",
        "query 6 1655",
        "query 5 1656",
        "finish 3 2600",
        "start 4 2610",
        "query 6 2620",
        "query 6 2621",
        "query 5 2622",
    ];
    (cfg, lines.iter().map(|l| l.to_string()).collect())
}

/// Run the full stream uninterrupted; returns (state fingerprint, output
/// log bytes).
fn reference_run(cfg: &ServeConfig, root: &Path, lines: &[String]) -> (u64, String) {
    let out = root.join("ref.out");
    let mut svc = Service::open(
        cfg.clone(),
        Some(&root.join("ref-state")),
        Some(&out),
        false,
    )
    .unwrap();
    for l in lines {
        svc.feed_line(l).unwrap();
    }
    svc.finish().unwrap();
    (svc.state().fingerprint(), fs::read_to_string(&out).unwrap())
}

/// Feed `lines[..k]` into a fresh durable service and abandon it without
/// `finish()` — the in-process equivalent of a kill.
fn abandoned_prefix(cfg: &ServeConfig, state_dir: &Path, out: &Path, lines: &[String], k: usize) {
    let mut svc = Service::open(cfg.clone(), Some(state_dir), Some(out), false).unwrap();
    for l in &lines[..k] {
        svc.feed_line(l).unwrap();
    }
    drop(svc);
}

/// Resume from `state_dir`, re-feed everything, and return the recovered
/// service after `finish()`.
fn resumed_full_run(cfg: &ServeConfig, state_dir: &Path, out: &Path, lines: &[String]) -> Service {
    let mut svc = Service::open(cfg.clone(), Some(state_dir), Some(out), true).unwrap();
    assert!(svc.recovery.resumed);
    for l in lines {
        svc.feed_line(l).unwrap();
    }
    svc.finish().unwrap();
    svc
}

/// The acceptance bar: killing after ANY input line and restarting must
/// yield bit-identical state and output to an uninterrupted run, under
/// `fsync never` and under a policy that syncs every third record. The
/// WAL's group commit keeps records in memory until something they
/// caused becomes visible, so some kills must lose a tail of records
/// that were fed but never written, and recovery must not miss them.
#[test]
fn kill_at_every_index_recovers_bit_identically() {
    for (tag, policy) in [
        ("never", FsyncPolicy::Never),
        ("batch3", FsyncPolicy::Batch(3)),
    ] {
        let streams = [
            ("synthetic", (cfg(), event_lines(18))),
            ("back-to-back", back_to_back_queries()),
        ];
        let mut lost_tail = false;
        for (name, (cfg, lines)) in &streams {
            let cfg = ServeConfig {
                fsync: policy,
                ..cfg.clone()
            };
            let root = tmp_dir(&format!("killpoints-{tag}-{name}"));
            let (want_fp, want_out) = reference_run(&cfg, &root, lines);
            for k in 0..=lines.len() {
                let state_dir = root.join(format!("k{k}"));
                let out = root.join(format!("k{k}.out"));
                abandoned_prefix(&cfg, &state_dir, &out, lines, k);
                let on_disk = fs::read_to_string(state_dir.join("events.wal")).unwrap();
                lost_tail |= wal::scan(&on_disk).unwrap().records.len() < k;
                let svc = resumed_full_run(&cfg, &state_dir, &out, lines);
                assert_eq!(
                    svc.state().fingerprint(),
                    want_fp,
                    "{tag} {name}: state diverged after kill at line {k}"
                );
                assert_eq!(
                    fs::read_to_string(&out).unwrap(),
                    want_out,
                    "{tag} {name}: output log diverged after kill at line {k}"
                );
                let _ = fs::remove_dir_all(&state_dir);
                let _ = fs::remove_file(&out);
            }
            let _ = fs::remove_dir_all(&root);
        }
        assert!(lost_tail, "{tag}: no kill lost a buffered WAL tail");
    }
}

/// A bit-flipped latest snapshot must fail its checksum, fall back to the
/// previous snapshot, and still recover to an identical result.
#[test]
fn corrupted_latest_snapshot_falls_back_to_previous() {
    let root = tmp_dir("snapflip");
    let lines = event_lines(18);
    let (want_fp, want_out) = reference_run(&cfg(), &root, &lines);

    let state_dir = root.join("state");
    let out = root.join("events.out");
    abandoned_prefix(&cfg(), &state_dir, &out, &lines, lines.len());

    // Flip one byte in the middle of the newest snapshot.
    let mut snaps: Vec<PathBuf> = fs::read_dir(&state_dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "snap")).then_some(p)
        })
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "need two snapshots for fallback");
    let newest = snaps.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(newest, bytes).unwrap();

    let svc = resumed_full_run(&cfg(), &state_dir, &out, &lines);
    assert!(svc.recovery.snapshot_fallbacks >= 1, "{:?}", svc.recovery);
    assert_eq!(svc.state().fingerprint(), want_fp);
    assert_eq!(fs::read_to_string(&out).unwrap(), want_out);
    let _ = fs::remove_dir_all(&root);
}

/// Garbage appended to the WAL (a torn write) must be detected, truncated,
/// and must not perturb recovery.
#[test]
fn torn_wal_tail_is_truncated_and_harmless() {
    let root = tmp_dir("torntail");
    let lines = event_lines(18);
    let (want_fp, want_out) = reference_run(&cfg(), &root, &lines);

    let state_dir = root.join("state");
    let out = root.join("events.out");
    let k = lines.len() - 3; // kill with work still pending
    abandoned_prefix(&cfg(), &state_dir, &out, &lines, k);

    // Simulate a torn write: a half-record plus raw garbage (including
    // invalid UTF-8) at the tail of the log.
    let wal = state_dir.join("events.wal");
    let mut bytes = fs::read(&wal).unwrap();
    bytes.extend_from_slice(b"deadbeef 99 submit 7 70 no");
    bytes.extend_from_slice(&[0xFF, 0xFE, 0x00, 0x9f]);
    fs::write(&wal, bytes).unwrap();

    let svc = resumed_full_run(&cfg(), &state_dir, &out, &lines);
    assert!(svc.recovery.wal_torn_bytes > 0, "{:?}", svc.recovery);
    assert_eq!(svc.state().fingerprint(), want_fp);
    assert_eq!(fs::read_to_string(&out).unwrap(), want_out);
    let _ = fs::remove_dir_all(&root);
}

/// The durability policy decides when bytes reach the disk, never what
/// the service computes: an ephemeral run and durable runs under
/// `fsync never`, `batch(64)` and `always` end on one state fingerprint.
#[test]
fn every_fsync_policy_ends_on_one_state() {
    let lines: Vec<String> = synthesize_events(&qpredict_workload::synthetic::toy(250, 64, 313), 8)
        .iter()
        .map(|e| e.encode())
        .collect();
    let root = tmp_dir("policies");
    let run = |durable: Option<(&str, FsyncPolicy)>| -> u64 {
        let cfg = ServeConfig {
            snapshot_every: 64,
            fsync: durable.map_or(FsyncPolicy::Never, |(_, p)| p),
            ..ServeConfig::default()
        };
        let dir = durable.map(|(tag, _)| root.join(tag));
        let mut svc = Service::open(cfg, dir.as_deref(), None, false).unwrap();
        for l in &lines {
            svc.feed_line(l).unwrap();
        }
        svc.finish().unwrap();
        svc.state().fingerprint()
    };
    let ephemeral = run(None);
    for (tag, policy) in [
        ("never", FsyncPolicy::Never),
        ("batch64", FsyncPolicy::Batch(64)),
        ("always", FsyncPolicy::Always),
    ] {
        assert_eq!(
            run(Some((tag, policy))),
            ephemeral,
            "fsync {tag} ended on another state than the ephemeral run"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// Deterministic Fisher–Yates shuffle of disjoint fixed-size blocks: no
/// event moves further than `block - 1` positions from its sorted slot.
fn block_shuffle(lines: &mut [String], block: usize, seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    for chunk in lines.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.gen_index(i + 1));
        }
    }
}

/// Satellite: any permutation confined to the reorder horizon converges to
/// the same aggregates, and a probe job submitted afterwards gets a
/// bit-identical prediction.
#[test]
fn permutations_within_horizon_converge() {
    let lines = event_lines(24);
    // In-order probes appended after the shuffled region; their responses
    // reflect the final predictor state.
    let probes = [
        "submit 900001 90000000 nodes=4 limit=3600 u=u1".to_string(),
        "query 900001 90000001".to_string(),
        "submit 900002 90000002 nodes=8 limit=7200 u=u2".to_string(),
        "query 900002 90000003".to_string(),
    ];

    let run = |stream: &[String]| -> (u64, Vec<String>) {
        let mut svc = Service::open(cfg(), None, None, false).unwrap();
        let mut responses = Vec::new();
        for l in stream {
            responses.extend(svc.feed_line(l).unwrap());
        }
        for l in &probes {
            responses.extend(svc.feed_line(l).unwrap());
        }
        responses.extend(svc.finish().unwrap());
        let probe_lines = responses
            .iter()
            .rev()
            .take(2)
            .map(|r| r.line.clone())
            .collect();
        (svc.state().core_fingerprint(), probe_lines)
    };

    let (want_fp, want_probes) = run(&lines);
    let horizon = cfg().horizon;
    for seed in 1..=6u64 {
        let mut shuffled = lines.clone();
        block_shuffle(&mut shuffled, horizon, seed);
        let (fp, probe_lines) = run(&shuffled);
        assert_eq!(fp, want_fp, "aggregates diverged for shuffle seed {seed}");
        assert_eq!(
            probe_lines, want_probes,
            "probe predictions diverged for shuffle seed {seed}"
        );
    }
}

/// Gibbons and Downey keep every completion's run time, with no cap:
/// their resident history grows by exactly one point per completion
/// applied, and the service reports it.
#[test]
fn baseline_hosts_report_one_point_per_completion() {
    for predictor in [PredictorKind::Gibbons, PredictorKind::DowneyAverage] {
        let cfg = ServeConfig {
            predictor: predictor.clone(),
            ..cfg()
        };
        let mut svc = Service::open(cfg, None, None, false).unwrap();
        for line in event_lines(300) {
            svc.feed_line(&line).unwrap();
            let state = svc.state();
            assert_eq!(
                state.predictor_resident_points() as u64,
                state.counters().completions,
                "{predictor}"
            );
        }
        svc.finish().unwrap();
        let state = svc.state();
        assert!(state.counters().completions > 250, "{predictor}");
        assert_eq!(
            state.predictor_resident_points() as u64,
            state.counters().completions,
            "{predictor}"
        );
    }
}

/// Satellite: a long stream with tight caps keeps predictor history, live
/// jobs, and the done-dedupe table bounded, with eviction observable.
#[test]
fn long_stream_memory_stays_bounded() {
    let cfg = ServeConfig {
        max_history: 32,
        max_jobs: 64,
        max_done: 128,
        horizon: 4,
        snapshot_every: 100_000,
        ..ServeConfig::default()
    };
    // One user/queue/executable and a fixed node count, so each of the six
    // serve templates holds exactly one category: resident history is then
    // capped at 6 * max_history points.
    let n = 2000u64;
    let mut svc = Service::open(cfg.clone(), None, None, false).unwrap();
    let mut max_resident = 0usize;
    for i in 1..=n {
        let t = 100 + i as i64 * 10;
        let sub = format!("submit {i} {t} nodes=4 limit=3600 u=alice q=batch e=prog");
        svc.feed_line(&sub).unwrap();
        svc.feed_line(&format!("start {i} {}", t + 2)).unwrap();
        svc.feed_line(&format!("finish {i} {}", t + 240)).unwrap();
        max_resident = max_resident.max(svc.state().predictor_resident_points());
        assert!(svc.state().live_jobs() <= cfg.max_jobs);
    }
    // Overload phase: submits with no finishes must shed, not grow.
    for i in n + 1..=n + 500 {
        let t = 100_000 + i as i64;
        svc.feed_line(&format!("submit {i} {t} nodes=4 u=alice q=batch e=prog"))
            .unwrap();
        assert!(svc.state().live_jobs() <= cfg.max_jobs);
    }
    svc.finish().unwrap();

    let cap = 6 * cfg.max_history as usize;
    assert!(
        max_resident <= cap,
        "resident history {max_resident} exceeded cap {cap}"
    );
    let c = svc.state().counters();
    assert!(c.completions >= n - 10, "completions: {}", c.completions);
    assert!(c.evicted > 0, "done-table eviction never triggered");
    assert!(c.shed > 0, "overload shedding never triggered");
    assert!(svc.state().live_jobs() <= cfg.max_jobs);
}

/// A state directory a build before the word-at-a-time checksum wrote
/// (`qpredict events toy --jobs 6 --query-every 2`, served with
/// `--snapshot-every 8`): a v1 WAL with FNV-1a record checksums and a
/// base segment sealed with FNV-1a.
const FNV_WAL: &str = include_str!("fixtures/fnv-sealed/events.wal");
const FNV_BASE: &str = include_str!("fixtures/fnv-sealed/snap-000000000001.snap");

/// The raw input lines a WAL recorded.
fn wal_lines(wal: &str) -> Vec<String> {
    wal.lines()
        .skip(1)
        .map(|rec| rec.splitn(3, ' ').nth(2).unwrap().to_string())
        .collect()
}

#[test]
fn fnv_sealed_state_dir_is_refused_on_resume() {
    let dir = tmp_dir("fnv-dir");
    fs::write(dir.join("events.wal"), FNV_WAL).unwrap();
    fs::write(dir.join("snap-000000000001.snap"), FNV_BASE).unwrap();
    let err = Service::open(cfg(), Some(&dir), None, true).unwrap_err();
    match &err {
        qpredict_serve::ServeError::Config(msg) => {
            assert!(msg.contains("\"qpredict-wal v1\" is not"), "{msg}");
        }
        other => panic!("expected a config refusal, got {other}"),
    }
    // Refused before anything was written: the legacy files are intact.
    assert_eq!(fs::read_to_string(dir.join("events.wal")).unwrap(), FNV_WAL);
    assert_eq!(
        fs::read_to_string(dir.join("snap-000000000001.snap")).unwrap(),
        FNV_BASE
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fnv_sealed_segment_is_never_decoded() {
    assert!(matches!(
        qpredict_durable::check_frame(FNV_BASE),
        Err(qpredict_durable::FrameError::Mismatch { .. })
    ));
    // Alone in a state directory, the legacy base fails its seal and
    // recovery starts from nothing; re-fed, the stream ends on the state
    // an uninterrupted run reaches.
    let root = tmp_dir("fnv-seg");
    let lines = wal_lines(FNV_WAL);
    let (want_fp, _) = reference_run(&cfg(), &root, &lines);
    let dir = root.join("state");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("snap-000000000001.snap"), FNV_BASE).unwrap();
    let mut svc = Service::open(cfg(), Some(&dir), None, true).unwrap();
    assert_eq!(svc.recovery.snapshot_seq, 0);
    assert_eq!(svc.recovery.snapshot_fallbacks, 1);
    assert_eq!(svc.state().applied_seq(), 0);
    for l in &lines {
        svc.feed_line(l).unwrap();
    }
    svc.finish().unwrap();
    assert_eq!(svc.state().fingerprint(), want_fp);
    let _ = fs::remove_dir_all(&root);
}

/// A state directory the build before serve's state held each fact once
/// wrote (`qpredict events toy --jobs 6 --query-every 2`, served with
/// `--nodes 64 --horizon 8 --snapshot-every 16 --fsync never`): a WAL v2,
/// a `qpredict-serve-state v4` base and a `qpredict-serve-delta v5`
/// delta on it.
const V4_DIR: [(&str, &str); 3] = [
    ("events.wal", include_str!("fixtures/state-v4/events.wal")),
    (
        "snap-000000000001.snap",
        include_str!("fixtures/state-v4/snap-000000000001.snap"),
    ),
    (
        "snap-000000000002.snap",
        include_str!("fixtures/state-v4/snap-000000000002.snap"),
    ),
];

#[test]
fn v4_segments_are_skipped_and_the_wal_replays() {
    let root = tmp_dir("v4-dir");
    let lines = wal_lines(V4_DIR[0].1);
    let (want_fp, want_out) = reference_run(&cfg(), &root, &lines);
    let dir = root.join("state");
    fs::create_dir_all(&dir).unwrap();
    for (name, text) in V4_DIR {
        fs::write(dir.join(name), text).unwrap();
    }
    // Both segments pass their seals: only their format refuses them.
    let (base, _) = qpredict_durable::check_frame(V4_DIR[1].1).unwrap();
    let (delta, _) = qpredict_durable::check_frame(V4_DIR[2].1).unwrap();
    assert!(base.contains("\nqpredict-serve-state v4\n"));
    assert!(delta.contains("\nqpredict-serve-delta v5\n"));
    let out = root.join("run.out");
    let svc = resumed_full_run(&cfg(), &dir, &out, &lines);
    let r = svc.recovery;
    assert_eq!(r.snapshot_seq, 0, "{r:?}");
    assert_eq!((r.deltas_applied, r.snapshot_fallbacks), (0, 2), "{r:?}");
    assert_eq!(r.wal_replayed, lines.len() as u64, "{r:?}");
    assert_eq!(svc.state().fingerprint(), want_fp);
    assert_eq!(fs::read_to_string(&out).unwrap(), want_out);
    let _ = fs::remove_dir_all(&root);
}

/// A state directory the build before Gibbons' subcategories became
/// category histories wrote (`qpredict events toy --jobs 12 --query-every
/// 2`, served with `--predictor gibbons --nodes 64 --horizon 8
/// --snapshot-every 36 --fsync never`): a WAL v2 and a `qpredict-serve-state
/// v5` base whose predictor part is `gibbons-state v3`.
const GIBBONS_V3_DIR: [(&str, &str); 2] = [
    ("events.wal", include_str!("fixtures/gibbons-v3/events.wal")),
    (
        "snap-000000000001.snap",
        include_str!("fixtures/gibbons-v3/snap-000000000001.snap"),
    ),
];

fn gibbons_cfg() -> ServeConfig {
    ServeConfig {
        predictor: PredictorKind::Gibbons,
        ..cfg()
    }
}

#[test]
fn gibbons_v3_base_is_skipped_and_the_wal_replays() {
    let root = tmp_dir("gibbons-v3");
    let lines = wal_lines(GIBBONS_V3_DIR[0].1);
    let (want_fp, want_out) = reference_run(&gibbons_cfg(), &root, &lines);
    let dir = root.join("state");
    fs::create_dir_all(&dir).unwrap();
    for (name, text) in GIBBONS_V3_DIR {
        fs::write(dir.join(name), text).unwrap();
    }
    // The base passes its seal and the serve state format is current:
    // only the predictor's own format refuses it.
    let (base, _) = qpredict_durable::check_frame(GIBBONS_V3_DIR[1].1).unwrap();
    assert!(base.contains("\nqpredict-serve-state v5\n"));
    assert!(base.contains("\ngibbons-state v3\n"));
    let out = root.join("run.out");
    let svc = resumed_full_run(&gibbons_cfg(), &dir, &out, &lines);
    let r = svc.recovery;
    assert_eq!(r.snapshot_seq, 0, "{r:?}");
    assert_eq!((r.deltas_applied, r.snapshot_fallbacks), (0, 1), "{r:?}");
    assert_eq!(r.wal_replayed, lines.len() as u64, "{r:?}");
    assert_eq!(svc.state().fingerprint(), want_fp);
    assert_eq!(fs::read_to_string(&out).unwrap(), want_out);
    let _ = fs::remove_dir_all(&root);
}

/// A sealed base can still carry a point no completed job produces: a
/// Gibbons node count forged to `NaN`, or a Downey run time forged out of
/// its sorted order. Decoding refuses it with a typed error (the `NaN`
/// would otherwise panic the next Gibbons regression over its key), and
/// recovery falls back to the WAL and ends where an uninterrupted run
/// does.
#[test]
fn forged_predictor_points_are_refused_and_the_wal_replays() {
    let lines = wal_lines(GIBBONS_V3_DIR[0].1);
    fn hex(v: f64) -> String {
        format!("{:016X}", v.to_bits())
    }
    /// The state with the last field of the first `tag` record whose
    /// last field is `from` (any, if `None`) replaced by `to`.
    fn forge(state: &str, tag: &str, from: Option<&str>, to: &str) -> String {
        let mut done = false;
        let mut forged: String = state
            .lines()
            .map(|line| match line.rsplit_once(' ') {
                Some((head, last))
                    if !done && line.starts_with(tag) && from.is_none_or(|f| f == last) =>
                {
                    done = true;
                    format!("{head} {to}\n")
                }
                _ => format!("{line}\n"),
            })
            .collect();
        assert!(done, "a {tag:?} record ending {from:?}");
        if !state.ends_with('\n') {
            forged.pop();
        }
        forged
    }
    let nan = hex(f64::NAN);
    let (four, minus_one) = (hex(4.0), hex(-1.0));
    // Gibbons: a node count of 4 becomes NaN. Downey: the first run
    // time of a sorted sample falls below zero.
    let forgeries = [
        (
            PredictorKind::Gibbons,
            "pt ",
            Some(four.as_str()),
            &nan,
            "not a completed job's",
        ),
        (
            PredictorKind::DowneyAverage,
            "rt ",
            None,
            &minus_one,
            "out of order or not finite",
        ),
    ];
    for (predictor, tag, from, to, why) in forgeries {
        let name = predictor.name();
        let cfg = ServeConfig {
            predictor,
            snapshot_every: 30,
            ..cfg()
        };
        let root = tmp_dir(&format!("forged-{name}"));
        let (want_fp, want_out) = reference_run(&cfg, &root, &lines);
        let base = fs::read_to_string(root.join("ref-state").join("snap-000000000001.snap"));
        let base = base.unwrap();
        let (body, _) = qpredict_durable::check_frame(&base).unwrap();
        let (header, state) = body.split_once('\n').unwrap();
        assert!(header.ends_with(" base"), "{header}");
        let forged = forge(state, tag, from, to);
        assert_ne!(forged, state, "{name}");
        let err = qpredict_durable::codec::decode::<_, qpredict_serve::ServiceState>(&forged, &cfg)
            .unwrap_err();
        assert!(err.reason.contains(why), "{name}: {err}");

        let dir = root.join("state");
        fs::create_dir_all(&dir).unwrap();
        fs::copy(
            root.join("ref-state").join("events.wal"),
            dir.join("events.wal"),
        )
        .unwrap();
        let sealed = qpredict_durable::seal(format!("{header}\n{forged}"));
        fs::write(dir.join("snap-000000000001.snap"), sealed).unwrap();
        let out = root.join("run.out");
        let svc = resumed_full_run(&cfg, &dir, &out, &lines);
        let r = svc.recovery;
        assert_eq!(
            (r.snapshot_seq, r.snapshot_fallbacks),
            (0, 1),
            "{name}: {r:?}"
        );
        assert_eq!(r.wal_replayed, lines.len() as u64, "{name}: {r:?}");
        assert_eq!(svc.state().fingerprint(), want_fp, "{name}");
        assert_eq!(fs::read_to_string(&out).unwrap(), want_out, "{name}");
        let _ = fs::remove_dir_all(&root);
    }
}
