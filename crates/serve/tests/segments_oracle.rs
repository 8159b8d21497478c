//! Oracle tests for incremental snapshots: a base with its chain of
//! delta segments must decode to exactly the live state, and recovery
//! from damaged or half-pruned segment files must still reproduce the
//! uninterrupted run bit for bit.
//!
//! The streams are seeded toy event streams under tight caps — a short
//! predictor history, a small done-FIFO and job table, a short reorder
//! horizon, block shuffles wider than that horizon — so history
//! eviction, load shedding, done-record eviction and late events all
//! happen between segments, not just inside one.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use qpredict_serve::{
    load_segments, FsyncPolicy, PredictorKind, ServeConfig, Service, ServiceState,
};
use qpredict_workload::{synthesize_events, Rng64};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpredict-serve-seg-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg(predictor: PredictorKind) -> ServeConfig {
    ServeConfig {
        predictor,
        machine_nodes: 64,
        horizon: 4,
        max_history: 5,
        max_jobs: 5,
        max_done: 10,
        snapshot_every: 6,
        // A same-process abort loses only the WAL records still
        // buffered in the service; fsync changes nothing here.
        fsync: FsyncPolicy::Never,
    }
}

/// A toy event stream shuffled in blocks of 7 (wider than the horizon of
/// 4, so some events land behind the watermark), with a duplicate, an
/// orphan and a malformed line in the middle.
fn stream(jobs: usize, seed: u64) -> Vec<String> {
    let wl = qpredict_workload::synthetic::toy(jobs, 64, seed);
    let mut lines: Vec<String> = synthesize_events(&wl, 4)
        .iter()
        .map(|e| e.encode())
        .collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for chunk in lines.chunks_mut(7) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.gen_index(i + 1));
        }
    }
    let mid = lines.len() / 2;
    lines.insert(mid, lines[mid - 1].clone());
    lines.insert(mid, "start 999999 1".into());
    lines.insert(mid, "submit pancakes".into());
    lines
}

/// Segment files in `dir`, oldest first.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    v.sort();
    v
}

fn is_base(path: &Path) -> bool {
    let text = fs::read_to_string(path).unwrap();
    text.lines().next().unwrap().ends_with(" base")
}

fn flip_middle_byte(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(path, bytes).unwrap();
}

/// Uninterrupted run; returns (state fingerprint, output log).
fn reference_run(cfg: &ServeConfig, root: &Path, lines: &[String]) -> (u64, String) {
    let out = root.join("ref.out");
    let mut svc = Service::open(cfg.clone(), Some(&root.join("ref")), Some(&out), false).unwrap();
    for l in lines {
        svc.feed_line(l).unwrap();
    }
    svc.finish().unwrap();
    (svc.state().fingerprint(), fs::read_to_string(&out).unwrap())
}

/// Resume from `dir`, re-feed everything, finish; the service and its
/// output log.
fn resume_all(cfg: &ServeConfig, dir: &Path, out: &Path, lines: &[String]) -> (Service, String) {
    let mut svc = Service::open(cfg.clone(), Some(dir), Some(out), true).unwrap();
    for l in lines {
        svc.feed_line(l).unwrap();
    }
    svc.finish().unwrap();
    let text = fs::read_to_string(out).unwrap();
    (svc, text)
}

/// After every segment write, the newest base plus its chain decodes to
/// the live state — for every hosted predictor, across history
/// eviction, shedding, done eviction and late events. The decoded state
/// then takes the lines up to the next segment beside the live service
/// and must answer and end as it does: the live and done indexes are
/// not encoded, so only behaviour shows a decode that rebuilds them
/// wrong.
#[test]
fn base_plus_chain_equals_live_state_after_every_segment() {
    for predictor in [
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyAverage,
    ] {
        for seed in [3u64, 17] {
            let cfg = cfg(predictor.clone());
            let dir = tmp_dir(&format!("live-{}-{seed}", predictor.name()));
            let mut svc = Service::open(cfg.clone(), Some(&dir), None, false).unwrap();
            let (mut deltas, mut bases) = (0, 0);
            // The state decoded at the last segment, fed every line since.
            let mut follower: Option<ServiceState> = None;
            let mut check =
                |svc: &Service, written: &mut u64, follower: &mut Option<ServiceState>| {
                    if svc.snapshots_written() == *written {
                        return;
                    }
                    *written = svc.snapshots_written();
                    if let Some(f) = follower.as_ref() {
                        assert_eq!(
                            f.fingerprint(),
                            svc.state().fingerprint(),
                            "{} seed {seed}: a decoded state diverged by line {}",
                            predictor.name(),
                            svc.state().applied_seq()
                        );
                    }
                    let newest = segment_files(&dir).pop().unwrap();
                    if is_base(&newest) {
                        bases += 1;
                    } else {
                        deltas += 1;
                    }
                    let loaded = load_segments(&cfg, &dir).unwrap().expect("a base verifies");
                    assert_eq!(
                        loaded.fingerprint(),
                        svc.state().fingerprint(),
                        "{} seed {seed}: segments diverge from the live state at line {}",
                        predictor.name(),
                        svc.state().applied_seq()
                    );
                    *follower = Some(loaded);
                };
            let mut written = 0;
            for (seq, l) in (1u64..).zip(&stream(160, seed)) {
                let got = svc.feed_line(l).unwrap();
                if let Some(f) = follower.as_mut() {
                    let mut theirs = Vec::new();
                    f.ingest_line(seq, l, &mut theirs);
                    assert_eq!(theirs, got, "{} seed {seed} line {seq}", predictor.name());
                }
                check(&svc, &mut written, &mut follower);
            }
            let got = svc.finish().unwrap();
            if let Some(f) = follower.as_mut() {
                let mut theirs = Vec::new();
                f.drain(&mut theirs);
                assert_eq!(theirs, got, "{} seed {seed} drain", predictor.name());
            }
            check(&svc, &mut written, &mut follower);
            let c = *svc.state().counters();
            assert!(c.late > 0 && c.shed > 0 && c.evicted > 0, "{c:?}");
            assert!(bases >= 3 && deltas >= 10, "{bases} bases, {deltas} deltas");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Killing after any line and resuming replays at most `snapshot_every`
/// WAL records on top of an intact chain, and reproduces the
/// uninterrupted run.
#[test]
fn resume_from_intact_chain_replays_at_most_snapshot_every_lines() {
    let cfg = cfg(PredictorKind::Smith);
    let root = tmp_dir("replay");
    let lines = stream(60, 5);
    let (want_fp, want_out) = reference_run(&cfg, &root, &lines);
    let mut max_deltas = 0;
    for k in 0..=lines.len() {
        let dir = root.join(format!("k{k}"));
        let out = root.join(format!("k{k}.out"));
        let mut svc = Service::open(cfg.clone(), Some(&dir), Some(&out), false).unwrap();
        for l in &lines[..k] {
            svc.feed_line(l).unwrap();
        }
        drop(svc);
        let (svc, got_out) = resume_all(&cfg, &dir, &out, &lines);
        let r = svc.recovery;
        assert!(
            r.wal_replayed <= cfg.snapshot_every,
            "kill at {k}: replayed {} WAL records: {r:?}",
            r.wal_replayed
        );
        assert_eq!(r.snapshot_fallbacks, 0, "kill at {k}: {r:?}");
        max_deltas = max_deltas.max(r.deltas_applied);
        assert_eq!(svc.state().fingerprint(), want_fp, "kill at {k}");
        assert_eq!(got_out, want_out, "kill at {k}");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&out);
    }
    assert!(max_deltas >= 2, "no resume went through a chain");
    let _ = fs::remove_dir_all(&root);
}

/// Abandon a run after all its lines; returns the state dir and output
/// log.
fn abandoned(cfg: &ServeConfig, root: &Path, lines: &[String]) -> (PathBuf, PathBuf) {
    let dir = root.join("state");
    let out = root.join("run.out");
    let mut svc = Service::open(cfg.clone(), Some(&dir), Some(&out), false).unwrap();
    for l in lines {
        svc.feed_line(l).unwrap();
    }
    drop(svc);
    (dir, out)
}

/// The number of the last line whose segment is a base.
fn last_base_line(cfg: &ServeConfig, root: &Path, lines: &[String]) -> usize {
    let dir = root.join("probe");
    let mut svc = Service::open(cfg.clone(), Some(&dir), None, false).unwrap();
    let mut last = 0;
    for (i, l) in lines.iter().enumerate() {
        let written = svc.snapshots_written();
        svc.feed_line(l).unwrap();
        if svc.snapshots_written() > written && is_base(&segment_files(&dir).pop().unwrap()) {
            last = i + 1;
        }
    }
    last
}

/// A damaged delta in the middle of the newest chain ends the chain
/// there, and the WAL replays the rest: a bit flip (fails its checksum),
/// a delta re-sealed around a body it cannot apply (verifies and chains,
/// then fails to decode half way through its records), or a lost delta
/// file (its successor names a parent that is not there). The run is
/// killed just before its last base, so the newest chain is a whole one,
/// however many deltas the segment sizes let it hold.
#[test]
fn corrupt_middle_delta_ends_the_chain() {
    let cfg = cfg(PredictorKind::Smith);
    let lines = stream(100, 9);
    for damage in ["flip", "reseal", "remove"] {
        let root = tmp_dir(&format!("middelta-{damage}"));
        let (want_fp, want_out) = reference_run(&cfg, &root, &lines);
        let kill = last_base_line(&cfg, &root, &lines) - 1;
        let (dir, out) = abandoned(&cfg, &root, &lines[..kill]);

        let files = segment_files(&dir);
        let base = files.iter().rposition(|p| is_base(p)).unwrap();
        let chain = &files[base + 1..];
        assert!(chain.len() >= 3, "newest chain too short: {}", chain.len());
        let bad = chain.len() / 2;
        let mut left = chain.len() - bad;
        match damage {
            "flip" => flip_middle_byte(&chain[bad]),
            "reseal" => {
                let text = fs::read_to_string(&chain[bad]).unwrap();
                let (body, _) = qpredict_durable::check_frame(&text).unwrap();
                let broken = body.replacen("\nrb ", "\nrb x", 1);
                assert_ne!(broken, body);
                fs::write(&chain[bad], qpredict_durable::seal(broken)).unwrap();
            }
            _ => {
                fs::remove_file(&chain[bad]).unwrap();
                left -= 1;
            }
        }

        let (svc, got_out) = resume_all(&cfg, &dir, &out, &lines);
        let r = svc.recovery;
        assert_eq!(r.deltas_applied, bad as u64, "{damage}: {r:?}");
        assert_eq!(r.snapshot_fallbacks, left as u64, "{damage}: {r:?}");
        assert!(r.wal_replayed > cfg.snapshot_every, "{damage}: {r:?}");
        assert_eq!(svc.state().fingerprint(), want_fp, "{damage}");
        assert_eq!(got_out, want_out, "{damage}");
        let _ = fs::remove_dir_all(&root);
    }
}

/// A bit flip in the newest base falls back to the previous base and its
/// whole chain.
#[test]
fn corrupt_newest_base_falls_back_to_previous_base_and_chain() {
    let cfg = cfg(PredictorKind::Smith);
    let root = tmp_dir("newbase");
    let lines = stream(100, 13);
    let (want_fp, want_out) = reference_run(&cfg, &root, &lines);
    let (dir, out) = abandoned(&cfg, &root, &lines);

    let files = segment_files(&dir);
    let bases: Vec<usize> = (0..files.len()).filter(|&i| is_base(&files[i])).collect();
    assert_eq!(bases.len(), 2, "two bases kept");
    assert_eq!(bases[0], 0, "nothing older than the previous base kept");
    flip_middle_byte(&files[bases[1]]);

    let (svc, got_out) = resume_all(&cfg, &dir, &out, &lines);
    let r = svc.recovery;
    let seq_of = |p: &Path| -> u64 {
        let name = p.file_stem().unwrap().to_str().unwrap();
        name.trim_start_matches("snap-").parse().unwrap()
    };
    assert_eq!(r.snapshot_seq, seq_of(&files[0]), "{r:?}");
    assert_eq!(r.deltas_applied, (bases[1] - 1) as u64, "{r:?}");
    assert!(r.snapshot_fallbacks >= 1, "{r:?}");
    assert_eq!(svc.state().fingerprint(), want_fp);
    assert_eq!(got_out, want_out);
    let _ = fs::remove_dir_all(&root);
}

/// A kill after a new base is renamed into place but before its
/// predecessors are pruned leaves extra segments on disk; recovery must
/// take the new base, and the next base written must prune them.
#[test]
fn kill_between_base_rename_and_prune_recovers() {
    let cfg = cfg(PredictorKind::Smith);
    let root = tmp_dir("prune");
    let lines = stream(80, 21);
    let (want_fp, want_out) = reference_run(&cfg, &root, &lines);

    // Run once, remembering every segment ever written and the WAL and
    // output-log lengths after every line.
    let dir = root.join("state");
    let out = root.join("run.out");
    let archive = root.join("archive");
    fs::create_dir_all(&archive).unwrap();
    let names = |d: &Path| -> BTreeSet<String> {
        segment_files(d)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect()
    };
    let mut svc = Service::open(cfg.clone(), Some(&dir), Some(&out), false).unwrap();
    let mut kill_points = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let before = names(&dir);
        svc.feed_line(l).unwrap();
        let after = names(&dir);
        for n in after.difference(&before) {
            fs::copy(dir.join(n), archive.join(n)).unwrap();
        }
        if before.difference(&after).next().is_some() {
            // This line wrote a base and pruned: the kill leaves the
            // files from before the line plus the new base.
            let files: BTreeSet<String> = before.union(&after).cloned().collect();
            let wal_len = fs::metadata(dir.join("events.wal")).unwrap().len();
            let out_len = fs::metadata(&out).unwrap().len();
            kill_points.push((i + 1, files, wal_len, out_len));
        }
    }
    drop(svc);
    assert!(
        kill_points.len() >= 2,
        "too few prunes: {}",
        kill_points.len()
    );

    let wal = fs::read(dir.join("events.wal")).unwrap();
    let out_bytes = fs::read(&out).unwrap();
    for (k, files, wal_len, out_len) in kill_points {
        let kdir = root.join(format!("kill{k}"));
        let kout = root.join(format!("kill{k}.out"));
        fs::create_dir_all(&kdir).unwrap();
        for n in &files {
            fs::copy(archive.join(n), kdir.join(n)).unwrap();
        }
        fs::write(kdir.join("events.wal"), &wal[..wal_len as usize]).unwrap();
        fs::write(&kout, &out_bytes[..out_len as usize]).unwrap();
        let newest: u64 = files
            .iter()
            .max()
            .unwrap()
            .trim_start_matches("snap-")
            .trim_end_matches(".snap")
            .parse()
            .unwrap();

        let (svc, got_out) = resume_all(&cfg, &kdir, &kout, &lines);
        let r = svc.recovery;
        assert_eq!(r.snapshot_seq, newest, "kill after line {k}: {r:?}");
        assert_eq!((r.deltas_applied, r.snapshot_fallbacks), (0, 0), "{r:?}");
        assert_eq!(svc.state().fingerprint(), want_fp, "kill after line {k}");
        assert_eq!(got_out, want_out, "kill after line {k}");
        let left = segment_files(&kdir);
        assert!(
            is_base(&left[0]),
            "kill after line {k}: stale segments kept"
        );
        assert_eq!(left.iter().filter(|p| is_base(p)).count(), 2);
        let _ = fs::remove_dir_all(&kdir);
        let _ = fs::remove_file(&kout);
    }
    let _ = fs::remove_dir_all(&root);
}
