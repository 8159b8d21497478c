//! The durable service: [`ServiceState`] plus WAL, snapshots, an output
//! log, and kill-anywhere recovery.
//!
//! # Durability protocol
//!
//! Every input line is appended to the WAL *before* it touches state
//! (write-ahead), then ingested, then any responses are appended to the
//! output log. Every `snapshot_every` lines the full state is sealed
//! (checksummed) and written atomically to `snap-<seq>.snap`; the two
//! newest snapshots are kept so a corrupted latest snapshot falls back to
//! its predecessor.
//!
//! # Recovery
//!
//! [`Service::open`] with `resume` walks backwards through the snapshots
//! until one passes its checksum and decodes, replays the WAL records
//! with greater sequence numbers (stopping at the first torn record and
//! truncating the tail), and reconciles the output log by dropping its
//! torn last line and re-emitting only responses whose ordinal exceeds
//! the last durable one. Because the state core is deterministic, this
//! reproduces the uninterrupted run bit for bit; the caller then re-feeds
//! the original input and the service skips every line it has already
//! ingested.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use qpredict_durable::{check_frame, codec, seal, IoOpError};
use qpredict_obs::counter_add;

use crate::config::{FsyncPolicy, ServeConfig};
use crate::state::{Response, ServiceState};
use crate::wal;

/// Errors from the durable layer. The deterministic core never errors —
/// anomalies there are counters — so everything here is about disk or
/// configuration.
#[derive(Debug)]
pub enum ServeError {
    /// A filesystem operation failed.
    Io(IoOpError),
    /// The on-disk state belongs to a different configuration, or the
    /// caller asked for something contradictory.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IoOpError> for ServeError {
    fn from(e: IoOpError) -> ServeError {
        ServeError::Io(e)
    }
}

fn io_op(op: impl Into<String>, source: std::io::Error) -> ServeError {
    ServeError::Io(IoOpError {
        op: op.into(),
        source,
    })
}

/// What recovery found and did; surfaced in reports and logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// True when the service resumed existing on-disk state.
    pub resumed: bool,
    /// Sequence number of the snapshot that loaded (0 = none, started
    /// from the WAL alone).
    pub snapshot_seq: u64,
    /// Snapshots that failed their checksum or decode and were skipped.
    pub snapshot_fallbacks: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: u64,
    /// Bytes of torn WAL tail truncated.
    pub wal_torn_bytes: u64,
    /// Responses re-emitted because the output log had lost them.
    pub responses_reemitted: u64,
}

#[derive(Debug)]
struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    since_sync: u32,
}

impl WalWriter {
    fn append(&mut self, seq: u64, raw: &str) -> Result<(), ServeError> {
        let rec = wal::record(seq, raw);
        self.file
            .write_all(rec.as_bytes())
            .map_err(|e| io_op(format!("append {}", self.path.display()), e))?;
        counter_add("serve.wal_records", 1);
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch(n) => {
                self.since_sync += 1;
                if self.since_sync >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), ServeError> {
        self.since_sync = 0;
        self.file
            .sync_all()
            .map_err(|e| io_op(format!("sync {}", self.path.display()), e))
    }
}

/// Append-only response log with ordinal-keyed dedupe across restarts.
#[derive(Debug)]
struct OutLog {
    file: File,
    path: PathBuf,
}

/// A crash-safe online predictor service.
#[derive(Debug)]
pub struct Service {
    state: ServiceState,
    cfg: ServeConfig,
    state_dir: Option<PathBuf>,
    wal: Option<WalWriter>,
    out: Option<OutLog>,
    /// Ordinal of the last response durably in the output log (or
    /// emitted to the caller, in ephemeral mode).
    last_out_ordinal: u64,
    /// Next input line number the caller will feed (1-based counter).
    input_seq: u64,
    last_snapshot_seq: u64,
    snapshots_written: u64,
    /// What recovery found when the service opened.
    pub recovery: RecoveryReport,
}

impl Service {
    /// Open a service.
    ///
    /// * `state_dir = None` — ephemeral: no WAL, no snapshots.
    /// * `state_dir = Some(dir)`, `resume = false` — a fresh durable
    ///   service; refuses to clobber a dir that already holds a WAL.
    /// * `resume = true` — recover from `dir` (which may be empty: a
    ///   first run under a supervisor that always passes `--resume`).
    ///
    /// `out_path` is the response log; with `resume` its intact prefix
    /// is kept and duplicated responses are suppressed.
    pub fn open(
        cfg: ServeConfig,
        state_dir: Option<&Path>,
        out_path: Option<&Path>,
        resume: bool,
    ) -> Result<Service, ServeError> {
        if resume && state_dir.is_none() {
            return Err(ServeError::Config(
                "resume requires a state directory".into(),
            ));
        }
        let mut svc = Service {
            state: ServiceState::new(cfg.clone()),
            cfg,
            state_dir: state_dir.map(Path::to_path_buf),
            wal: None,
            out: None,
            last_out_ordinal: 0,
            input_seq: 0,
            last_snapshot_seq: 0,
            snapshots_written: 0,
            recovery: RecoveryReport::default(),
        };
        // The output log's durable ordinal must be known before WAL
        // replay, so replayed responses dedupe correctly.
        if let Some(path) = out_path {
            svc.last_out_ordinal = if resume { recover_out_log(path)? } else { 0 };
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .truncate(false)
                .open(path)
                .map_err(|e| io_op(format!("open {}", path.display()), e))?;
            if !resume {
                file.set_len(0)
                    .map_err(|e| io_op(format!("truncate {}", path.display()), e))?;
            }
            svc.out = Some(OutLog {
                file,
                path: path.to_path_buf(),
            });
        }
        if let Some(dir) = state_dir {
            fs::create_dir_all(dir).map_err(|e| io_op(format!("create {}", dir.display()), e))?;
            let wal_path = dir.join("events.wal");
            if resume {
                svc.recover(dir, &wal_path)?;
            } else if wal_path.exists() {
                return Err(ServeError::Config(format!(
                    "state dir {} already holds a WAL; pass resume to continue it",
                    dir.display()
                )));
            }
            let fresh = !wal_path.exists();
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .truncate(false)
                .open(&wal_path)
                .map_err(|e| io_op(format!("open {}", wal_path.display()), e))?;
            let mut writer = WalWriter {
                file,
                path: wal_path,
                policy: svc.cfg.fsync,
                since_sync: 0,
            };
            if fresh {
                let hdr = wal::header(svc.cfg.fingerprint());
                writer
                    .file
                    .write_all(hdr.as_bytes())
                    .map_err(|e| io_op(format!("write {}", writer.path.display()), e))?;
                writer.sync()?;
            }
            svc.wal = Some(writer);
        }
        // Resumed work continues from the recovered cursor; the caller
        // re-feeds the input from the top and already-ingested lines are
        // skipped by sequence number.
        Ok(svc)
    }

    /// The deterministic core (counters, cursors, fingerprints).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// The configured predictor/memory/durability settings.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Snapshots written by this process.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Feed the next raw input line (without trailing newline). Returns
    /// the responses that became visible — already-recovered lines are
    /// skipped and return nothing.
    pub fn feed_line(&mut self, raw: &str) -> Result<Vec<Response>, ServeError> {
        self.input_seq += 1;
        let seq = self.input_seq;
        if seq <= self.state.applied_seq() {
            return Ok(Vec::new());
        }
        if let Some(w) = &mut self.wal {
            w.append(seq, raw)?;
        }
        let mut out = Vec::new();
        self.state.ingest_line(seq, raw, &mut out);
        let fresh = self.emit(out)?;
        if self.cfg.snapshot_every > 0
            && seq.is_multiple_of(self.cfg.snapshot_every)
            && seq > self.last_snapshot_seq
        {
            self.snapshot_now()?;
        }
        Ok(fresh)
    }

    /// End of stream: drain the reorder buffer, flush the output log,
    /// and (when durable) write a final snapshot.
    pub fn finish(&mut self) -> Result<Vec<Response>, ServeError> {
        let mut out = Vec::new();
        self.state.drain(&mut out);
        let fresh = self.emit(out)?;
        if self.state_dir.is_some() {
            self.snapshot_now()?;
        }
        if let Some(o) = &mut self.out {
            o.file
                .sync_all()
                .map_err(|e| io_op(format!("sync {}", o.path.display()), e))?;
        }
        Ok(fresh)
    }

    /// Force a snapshot now (also syncs the WAL first so the snapshot
    /// never claims more than the log can prove).
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        let Some(dir) = self.state_dir.clone() else {
            return Ok(());
        };
        if let Some(w) = &mut self.wal {
            w.sync()?;
        }
        if let Some(o) = &mut self.out {
            o.file
                .flush()
                .map_err(|e| io_op(format!("flush {}", o.path.display()), e))?;
        }
        let sealed = seal(codec::encode(&self.state));
        let seq = self.state.applied_seq();
        let path = dir.join(format!("snap-{seq:012}.snap"));
        qpredict_durable::write_atomic(&path, &sealed, "snap.tmp")?;
        self.last_snapshot_seq = seq;
        self.snapshots_written += 1;
        counter_add("serve.snapshots", 1);
        prune_snapshots(&dir, 2)?;
        Ok(())
    }

    fn emit(&mut self, responses: Vec<Response>) -> Result<Vec<Response>, ServeError> {
        let mut fresh = Vec::new();
        for r in responses {
            if r.ordinal <= self.last_out_ordinal {
                continue;
            }
            self.last_out_ordinal = r.ordinal;
            if let Some(o) = &mut self.out {
                let line = format!("resp {} {}\n", r.ordinal, r.line);
                o.file
                    .write_all(line.as_bytes())
                    .map_err(|e| io_op(format!("append {}", o.path.display()), e))?;
            }
            fresh.push(r);
        }
        Ok(fresh)
    }

    /// Rebuild state from `dir`: newest intact snapshot, then the WAL
    /// suffix, then reconcile the output log.
    fn recover(&mut self, dir: &Path, wal_path: &Path) -> Result<(), ServeError> {
        self.recovery.resumed = true;
        counter_add("serve.recoveries", 1);
        // 1. Newest snapshot that passes checksum + decode.
        for (seq, path) in list_snapshots(dir)?.into_iter().rev() {
            match load_snapshot(&self.cfg, &path) {
                Ok(state) => {
                    self.state = state;
                    self.recovery.snapshot_seq = seq;
                    break;
                }
                Err(reason) => {
                    // A torn or bit-flipped snapshot is exactly what the
                    // previous one is for; fatal only if *config* differs.
                    if reason.contains("different configuration") {
                        return Err(ServeError::Config(format!(
                            "snapshot {}: {reason}",
                            path.display()
                        )));
                    }
                    self.recovery.snapshot_fallbacks += 1;
                    counter_add("serve.snapshot_fallback", 1);
                }
            }
        }
        // 2. WAL suffix.
        if wal_path.exists() {
            let text = read_file(wal_path)?;
            match wal::scan(&text) {
                Err(reason) => {
                    return Err(ServeError::Config(format!(
                        "{}: {reason}",
                        wal_path.display()
                    )));
                }
                Ok(scan) => {
                    if scan.fp != self.cfg.fingerprint() {
                        return Err(ServeError::Config(format!(
                            "{} was written under a different configuration",
                            wal_path.display()
                        )));
                    }
                    let mut replayed = Vec::new();
                    for (seq, raw) in &scan.records {
                        if *seq <= self.state.applied_seq() {
                            continue;
                        }
                        self.state.ingest_line(*seq, raw, &mut replayed);
                        self.recovery.wal_replayed += 1;
                    }
                    let before = self.last_out_ordinal;
                    self.emit(replayed)?;
                    self.recovery.responses_reemitted =
                        self.last_out_ordinal.saturating_sub(before);
                    if scan.torn_bytes > 0 {
                        self.recovery.wal_torn_bytes = scan.torn_bytes;
                        counter_add("serve.wal_torn_tail", 1);
                        let f = OpenOptions::new()
                            .write(true)
                            .open(wal_path)
                            .map_err(|e| io_op(format!("open {}", wal_path.display()), e))?;
                        f.set_len(scan.valid_len)
                            .map_err(|e| io_op(format!("truncate {}", wal_path.display()), e))?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Read the output log, drop a torn (newline-less or unparsable) tail by
/// truncating the file, and return the last durable ordinal.
fn recover_out_log(path: &Path) -> Result<u64, ServeError> {
    if !path.exists() {
        return Ok(0);
    }
    let text = read_file(path)?;
    let mut last = 0u64;
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    while offset < text.len() {
        let Some(nl) = text[offset..].find('\n').map(|i| offset + i) else {
            break;
        };
        let line = &text[offset..nl];
        let ordinal = line
            .strip_prefix("resp ")
            .and_then(|r| r.split(' ').next())
            .and_then(|n| n.parse::<u64>().ok());
        match ordinal {
            Some(n) if n > last => last = n,
            _ => break, // unparsable or non-increasing: torn from here on
        }
        offset = nl + 1;
        valid_len = offset;
    }
    if valid_len < text.len() {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_op(format!("open {}", path.display()), e))?;
        f.set_len(valid_len as u64)
            .map_err(|e| io_op(format!("truncate {}", path.display()), e))?;
    }
    Ok(last)
}

fn read_file(path: &Path) -> Result<String, ServeError> {
    let mut f = File::open(path).map_err(|e| io_op(format!("open {}", path.display()), e))?;
    // WAL tails can hold non-UTF-8 garbage after a crash; read bytes and
    // keep the longest valid prefix rather than failing the whole file.
    let mut bytes = Vec::new();
    f.seek(SeekFrom::Start(0))
        .and_then(|_| f.read_to_end(&mut bytes))
        .map_err(|e| io_op(format!("read {}", path.display()), e))?;
    Ok(match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            bytes.truncate(valid);
            String::from_utf8(bytes).expect("prefix is valid utf-8")
        }
    })
}

/// Snapshot files in `dir`, sorted by sequence number ascending.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut snaps = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_op(format!("read dir {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_op(format!("read dir {}", dir.display()), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".snap"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            snaps.push((seq, entry.path()));
        }
    }
    snaps.sort();
    Ok(snaps)
}

fn load_snapshot(cfg: &ServeConfig, path: &Path) -> Result<ServiceState, String> {
    let text = qpredict_durable::read_to_string(path).map_err(|e| e.to_string())?;
    let body = check_frame(&text).map_err(|e| e.to_string())?;
    codec::decode(body, cfg).map_err(|e| e.to_string())
}

fn prune_snapshots(dir: &Path, keep: usize) -> Result<(), ServeError> {
    let snaps = list_snapshots(dir)?;
    if snaps.len() > keep {
        for (_, path) in &snaps[..snaps.len() - keep] {
            fs::remove_file(path).map_err(|e| io_op(format!("remove {}", path.display()), e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpredict-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            snapshot_every: 4,
            horizon: 4,
            ..ServeConfig::default()
        }
    }

    fn lines() -> Vec<String> {
        let mut v = Vec::new();
        for i in 1..=10u64 {
            let t = 100 + i as i64 * 20;
            v.push(format!("submit {i} {t} nodes=4 limit=3600 u=u{}", i % 3));
            v.push(format!("query {i} {}", t + 1));
            v.push(format!("start {i} {}", t + 5));
            v.push(format!("finish {i} {}", t + 305));
        }
        v
    }

    #[test]
    fn ephemeral_service_answers_without_disk() {
        let mut s = Service::open(cfg(), None, None, false).unwrap();
        let mut responses = Vec::new();
        for l in lines() {
            responses.extend(s.feed_line(&l).unwrap());
        }
        responses.extend(s.finish().unwrap());
        assert_eq!(responses.len(), 10);
        assert!(s.state().counters().completions > 0);
    }

    #[test]
    fn durable_run_recovers_identically_after_abandonment() {
        let root = tmp_dir("recover");
        let all = lines();

        // Uninterrupted reference run.
        let ref_out = root.join("ref.out");
        let mut r =
            Service::open(cfg(), Some(&root.join("ref-state")), Some(&ref_out), false).unwrap();
        for l in &all {
            r.feed_line(l).unwrap();
        }
        r.finish().unwrap();
        let want_fp = r.state().fingerprint();
        let want_out = fs::read_to_string(&ref_out).unwrap();

        // Interrupted run: stop after 17 lines, drop the Service without
        // finish() — the moral equivalent of a kill.
        let state_dir = root.join("state");
        let out = root.join("events.out");
        let mut a = Service::open(cfg(), Some(&state_dir), Some(&out), false).unwrap();
        for l in &all[..17] {
            a.feed_line(l).unwrap();
        }
        drop(a);

        // Recover and re-feed everything from the top.
        let mut b = Service::open(cfg(), Some(&state_dir), Some(&out), true).unwrap();
        assert!(b.recovery.resumed);
        assert!(b.recovery.snapshot_seq > 0 || b.recovery.wal_replayed > 0);
        for l in &all {
            b.feed_line(l).unwrap();
        }
        b.finish().unwrap();
        assert_eq!(b.state().fingerprint(), want_fp, "state must match");
        assert_eq!(
            fs::read_to_string(&out).unwrap(),
            want_out,
            "output log must match"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fresh_open_refuses_existing_wal_and_resume_needs_a_dir() {
        let root = tmp_dir("refuse");
        let state_dir = root.join("state");
        let mut s = Service::open(cfg(), Some(&state_dir), None, false).unwrap();
        s.feed_line("submit 1 100 nodes=4").unwrap();
        drop(s);
        let err = Service::open(cfg(), Some(&state_dir), None, false).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        let err = Service::open(cfg(), None, None, true).unwrap_err();
        assert!(err.to_string().contains("state directory"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_config_mismatch_is_fatal() {
        let root = tmp_dir("mismatch");
        let state_dir = root.join("state");
        let mut s = Service::open(cfg(), Some(&state_dir), None, false).unwrap();
        s.feed_line("submit 1 100 nodes=4").unwrap();
        drop(s);
        let mut other = cfg();
        other.machine_nodes = 17;
        let err = Service::open(other, Some(&state_dir), None, true).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }
}
