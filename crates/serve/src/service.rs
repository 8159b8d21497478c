//! The durable service: [`ServiceState`] plus WAL, snapshot segments, an
//! output log, and kill-anywhere recovery.
//!
//! # Durability protocol
//!
//! Every input line is appended to the WAL, then ingested, then any
//! responses are appended to the output log. The write-ahead rule: a
//! line is in the WAL *before any effect of it is visible* — a response,
//! written to the output log or returned to the caller, or a segment.
//! Records collect in memory (group commit) and reach the file in one
//! `write` before a response or segment leaves the service, at
//! [`Service::finish`], when a sync is due, and once they pass 64 KiB.
//! A kill loses at most the unwritten tail, whose effects nobody has
//! seen; the caller re-feeds the input, so recovery ingests those lines
//! again. The WAL is never truncated (only a torn tail is cut), so it
//! stays the source of truth; snapshots only bound how much of it a
//! recovery replays.
//!
//! Every `snapshot_every` lines the service writes one **segment**,
//! sealed (checksummed) and renamed into place atomically as
//! `snap-<seq>.snap`, where `<seq>` counts segments. A segment is either
//! a **base**, the whole state, or a **delta**: only what changed since
//! the previous segment (`ServiceState::encode_delta`), naming that
//! segment's sequence number and checksum as its parent. A delta's predictor part is the
//! log of completions the predictor learned from, which applying it
//! replays. The first segment a process writes is a base; after that a
//! delta, until the deltas written since the base add up to more bytes
//! than the base itself, when the next segment is a new base. A base is paid for by at least as many delta bytes,
//! so snapshot bytes stay proportional to the change in the stream:
//! amortized O(1) per event, where whole-state snapshots cost O(state).
//!
//! The two newest bases are kept, each with its chain of deltas; older
//! segments are pruned when a base is written. Live segment files are
//! tracked in memory; the directory is listed only when the service
//! opens.
//!
//! Syncs follow [`FsyncPolicy`]: `Always` writes and syncs every
//! record, `Batch(n)` every `n`th. Under both a snapshot first syncs
//! the WAL (so a segment never claims more than the log can prove),
//! then syncs the segment before its rename — and so before any
//! predecessor is pruned — and `finish` syncs the output log. Under
//! `Never` none of these syncs run: durability is what the OS provides.
//!
//! # Recovery
//!
//! [`Service::open`] with `resume` takes the newest base that passes its
//! checksum and decodes, then applies the deltas after it in sequence
//! order while each one verifies and chains onto the last. A bad delta
//! ends the chain; a bad base falls back to the previous base and its
//! chain. Recovery then replays the WAL records with greater sequence
//! numbers — from an intact chain, at most `snapshot_every` of them —
//! stopping at the first torn record and truncating the tail, and
//! reconciles the output log by dropping its torn last line and
//! re-emitting only responses whose ordinal exceeds the last durable
//! one. Because the state core is deterministic, this reproduces the
//! uninterrupted run bit for bit; the caller then re-feeds the original
//! input and the service skips every line it has already ingested.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use qpredict_durable::{
    check_frame, write_sealed, Codec, CodecError, IoOpError, Reader, Sealed, Writer,
};
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
    /// Sequence number of the base segment that loaded (0 = none,
    /// started from the WAL alone).
    pub snapshot_seq: u64,
    /// Delta segments applied on top of that base.
    pub deltas_applied: u64,
    /// Segments skipped because they, or a segment their chain runs
    /// through, failed the checksum, decode or chain check: every
    /// segment newer than the last one applied.
    pub snapshot_fallbacks: u64,
    /// WAL records replayed on top of the segments.
    pub wal_replayed: u64,
    /// Bytes of torn WAL tail truncated.
    pub wal_torn_bytes: u64,
    /// Responses re-emitted because the output log had lost them.
    pub responses_reemitted: u64,
}

/// Buffered WAL bytes past which an append writes them out.
const WAL_BUFFER_BYTES: usize = 64 * 1024;

/// The WAL's group commit: records collect in `buf` and reach the file
/// in one `write` when something they caused is about to become visible
/// (see [`WalWriter::flush`]), when a sync is due, or once the buffer
/// passes [`WAL_BUFFER_BYTES`]. A plain `Vec`, not a `BufWriter`: a
/// writer dropped without a flush loses its tail, as a kill does.
#[derive(Debug)]
struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    since_sync: u32,
    buf: Vec<u8>,
}

impl WalWriter {
    fn append(&mut self, seq: u64, raw: &str) -> Result<(), ServeError> {
        wal::push_record(&mut self.buf, seq, raw);
        counter_add("serve.wal_records", 1);
        let sync_due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(n) => {
                self.since_sync += 1;
                self.since_sync >= n
            }
            FsyncPolicy::Never => false,
        };
        if sync_due {
            self.sync()
        } else if self.buf.len() >= WAL_BUFFER_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Write the buffered records with one `write`. Runs before a
    /// response leaves the service and before a segment is written, so
    /// every visible effect of an input line has that line in the file.
    fn flush(&mut self) -> Result<(), ServeError> {
        if !self.buf.is_empty() {
            self.file
                .write_all(&self.buf)
                .map_err(|e| io_op(format!("append {}", self.path.display()), e))?;
            self.buf.clear();
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), ServeError> {
        self.flush()?;
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

/// The snapshot segments of a state directory, as this process knows
/// them.
#[derive(Debug, Default)]
struct Segments {
    /// Live segment files, oldest first: sequence number, and whether
    /// the file is a base known to verify.
    live: Vec<(u64, bool)>,
    /// Sequence number of the next segment.
    next: u64,
    /// `(seq, checksum)` of the newest segment this process wrote — what
    /// the next delta chains onto. `None` until this process writes a
    /// base.
    tip: Option<(u64, u64)>,
    /// Bytes of the newest base this process wrote.
    base_bytes: u64,
    /// Bytes of the deltas written on that base.
    chain_bytes: u64,
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
    segments: Segments,
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
            state: ServiceState::hosting(cfg.clone()).map_err(ServeError::Config)?,
            cfg,
            state_dir: state_dir.map(Path::to_path_buf),
            wal: None,
            out: None,
            last_out_ordinal: 0,
            input_seq: 0,
            last_snapshot_seq: 0,
            snapshots_written: 0,
            segments: Segments::default(),
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
            } else {
                // Leftover segments of an abandoned run: newer ones get
                // higher numbers, and pruning removes these in time.
                svc.segments.live = list_segments(dir)?
                    .into_iter()
                    .map(|(seq, _)| (seq, false))
                    .collect();
            }
            svc.segments.next = svc.segments.live.last().map_or(1, |&(seq, _)| seq + 1);
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
                buf: Vec::new(),
            };
            if fresh {
                let hdr = wal::header(svc.cfg.fingerprint());
                writer
                    .file
                    .write_all(hdr.as_bytes())
                    .map_err(|e| io_op(format!("write {}", writer.path.display()), e))?;
                if svc.cfg.fsync != FsyncPolicy::Never {
                    writer.sync()?;
                }
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

    /// Snapshot segments (bases and deltas) written by this process.
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

    /// End of stream: drain the reorder buffer, write a final segment
    /// (when durable, which writes out the WAL first) and, unless the
    /// fsync policy is `Never`, sync the output log.
    pub fn finish(&mut self) -> Result<Vec<Response>, ServeError> {
        let mut out = Vec::new();
        self.state.drain(&mut out);
        let fresh = self.emit(out)?;
        if self.state_dir.is_some() {
            self.snapshot_now()?;
        }
        if let Some(o) = self
            .out
            .as_mut()
            .filter(|_| self.cfg.fsync != FsyncPolicy::Never)
        {
            o.file
                .sync_all()
                .map_err(|e| io_op(format!("sync {}", o.path.display()), e))?;
        }
        Ok(fresh)
    }

    /// Write a snapshot segment now: a delta on this process's newest
    /// segment, or a base when there is none yet or the chain has
    /// outgrown its base. The WAL is written out first and, unless the
    /// fsync policy is `Never`, synced, so a segment never claims more
    /// than the log can prove; so is the segment, before its rename.
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        let Some(dir) = self.state_dir.clone() else {
            return Ok(());
        };
        let sync = self.cfg.fsync != FsyncPolicy::Never;
        if let Some(w) = self.wal.as_mut() {
            if sync {
                w.sync()?;
            } else {
                w.flush()?;
            }
        }
        let (seq, parent) = self.next_segment();
        let Sealed { sum, bytes } =
            write_sealed(&segment_path(&dir, seq), "snap.tmp", sync, |w| {
                self.encode_segment(seq, parent, w)
            })?;
        let segs = &mut self.segments;
        self.state.mark();
        segs.next += 1;
        segs.tip = Some((seq, sum));
        segs.live.push((seq, parent.is_none()));
        if parent.is_some() {
            segs.chain_bytes += bytes;
        } else {
            segs.base_bytes = bytes;
            segs.chain_bytes = 0;
            counter_add("serve.snapshot_bases", 1);
            segs.prune(&dir)?;
        }
        self.last_snapshot_seq = self.state.applied_seq();
        self.snapshots_written += 1;
        counter_add("serve.snapshots", 1);
        counter_add("serve.snapshot_bytes", bytes);
        Ok(())
    }

    /// The next segment's sequence number, and the `(seq, checksum)` of
    /// its parent when it is a delta.
    fn next_segment(&self) -> (u64, Option<(u64, u64)>) {
        let segs = &self.segments;
        let parent = segs
            .tip
            .filter(|_| segs.chain_bytes <= segs.base_bytes && self.state.journaled());
        (segs.next, parent)
    }

    /// Write the body of segment `seq`: a delta on `parent`, or a base.
    fn encode_segment(&self, seq: u64, parent: Option<(u64, u64)>, w: &mut Writer) {
        w.record("segment").put(&seq);
        match parent {
            Some((parent_seq, parent_sum)) => {
                w.word("delta").put(&parent_seq).put(&parent_sum);
                self.state.encode_delta(w);
            }
            None => {
                w.word("base");
                self.state.encode(w);
            }
        }
    }

    /// Make the responses not yet emitted visible: flush the WAL, then
    /// append them to the output log with one `write`, and return them.
    fn emit(&mut self, mut responses: Vec<Response>) -> Result<Vec<Response>, ServeError> {
        responses.retain(|r| r.ordinal > self.last_out_ordinal);
        let Some(last) = responses.last() else {
            return Ok(responses);
        };
        self.last_out_ordinal = last.ordinal;
        if let Some(w) = &mut self.wal {
            w.flush()?;
        }
        if let Some(o) = &mut self.out {
            let mut text = String::new();
            for r in &responses {
                let _ = writeln!(text, "resp {} {}", r.ordinal, r.line);
            }
            o.file
                .write_all(text.as_bytes())
                .map_err(|e| io_op(format!("append {}", o.path.display()), e))?;
        }
        Ok(responses)
    }

    /// Rebuild state from `dir`: newest intact base and its chain, then
    /// the WAL suffix, then reconcile the output log.
    fn recover(&mut self, dir: &Path, wal_path: &Path) -> Result<(), ServeError> {
        self.recovery.resumed = true;
        counter_add("serve.recoveries", 1);
        // 1. Newest base that verifies, with its chain.
        let segs = read_segments(dir)?;
        let load = load_chain(&self.cfg, &segs)?;
        if let Some(state) = load.state {
            self.state = state;
        }
        self.recovery.snapshot_seq = load.base_seq;
        self.recovery.deltas_applied = load.deltas;
        self.recovery.snapshot_fallbacks = load.skipped;
        if load.skipped > 0 {
            counter_add("serve.snapshot_fallback", load.skipped);
        }
        self.segments.live = segs
            .iter()
            .map(|s| (s.seq, matches!(s.parsed, Some((Kind::Base, _, _)))))
            .collect();
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

impl Segments {
    /// Keep the two newest bases, each with its chain: remove every
    /// segment older than the second newest base.
    fn prune(&mut self, dir: &Path) -> Result<(), ServeError> {
        let mut bases = self.live.iter().enumerate().filter(|(_, s)| s.1).rev();
        let Some((keep_from, _)) = bases.nth(1) else {
            return Ok(());
        };
        for &(seq, _) in &self.live[..keep_from] {
            let path = segment_path(dir, seq);
            match fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(io_op(format!("remove {}", path.display()), e));
                }
                _ => {}
            }
        }
        self.live.drain(..keep_from);
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

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:012}.snap"))
}

/// Segment files in `dir`, sorted by sequence number ascending.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
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

/// What a segment holds, from its `segment` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Base,
    /// A delta on the segment with this `(seq, checksum)`.
    Delta(u64, u64),
}

/// One segment file as recovery read it.
struct ReadSegment {
    seq: u64,
    /// Kind, checksum and sealed body, when the file verified and its
    /// `segment` record names its own sequence number.
    parsed: Option<(Kind, u64, String)>,
}

/// Read `body`'s `segment` record; the reader is left at the state (a
/// base) or delta that follows.
fn segment_header(body: &str) -> Result<(Reader<'_>, u64, Kind), CodecError> {
    let mut r = Reader::new(body);
    let seq: u64 = r.record("segment")?.get()?;
    let kind = match r.word()? {
        "base" => Kind::Base,
        "delta" => Kind::Delta(r.get()?, r.get()?),
        other => return Err(r.error(format!("unknown segment kind {other:?}"))),
    };
    Ok((r, seq, kind))
}

/// Read every segment file in `dir` and check its frame and header.
fn read_segments(dir: &Path) -> Result<Vec<ReadSegment>, ServeError> {
    let mut segs = Vec::new();
    for (seq, path) in list_segments(dir)? {
        let parsed = qpredict_durable::read_to_string(&path)
            .ok()
            .and_then(|mut text| {
                let (body, sum) = check_frame(&text).ok()?;
                let (_, named, kind) = segment_header(body).ok()?;
                text.truncate(body.len());
                (named == seq).then_some((kind, sum, text))
            });
        segs.push(ReadSegment { seq, parsed });
    }
    Ok(segs)
}

/// The result of [`load_chain`].
struct Loaded {
    state: Option<ServiceState>,
    base_seq: u64,
    deltas: u64,
    skipped: u64,
}

/// Decode the newest base in `segs` that verifies and apply the deltas
/// that chain onto it. A base recorded under a different configuration
/// is fatal; anything else wrong with a segment just ends the chain (or
/// falls back to an older base), and the WAL replays the rest.
fn load_chain(cfg: &ServeConfig, segs: &[ReadSegment]) -> Result<Loaded, ServeError> {
    let decode_base = |body: &str| -> Result<ServiceState, CodecError> {
        let (mut r, _, _) = segment_header(body)?;
        let state = ServiceState::decode(&mut r, cfg)?;
        r.finish()?;
        Ok(state)
    };
    let apply = |state: &mut ServiceState, body: &str| -> Result<(), CodecError> {
        let (mut r, _, _) = segment_header(body)?;
        state.apply_delta(&mut r)?;
        r.finish()
    };
    for (bi, base) in segs.iter().enumerate().rev() {
        let Some((Kind::Base, base_sum, body)) = &base.parsed else {
            continue;
        };
        let mut state = match decode_base(body) {
            Ok(state) => state,
            Err(e) if e.reason.contains("different configuration") => {
                return Err(ServeError::Config(format!(
                    "snapshot segment {}: {e}",
                    base.seq
                )));
            }
            Err(_) => continue,
        };
        // The deltas that verify and chain, in order.
        let mut chain = Vec::new();
        let mut tip = (base.seq, *base_sum);
        for seg in &segs[bi + 1..] {
            match &seg.parsed {
                Some((Kind::Delta(pseq, psum), sum, body)) if (*pseq, *psum) == tip => {
                    chain.push(body.as_str());
                    tip = (seg.seq, *sum);
                }
                _ => break,
            }
        }
        // A delta that verifies but does not apply ends the chain; the
        // state it half-applied to is rebuilt without it.
        let mut applied = 0;
        while applied < chain.len() {
            if apply(&mut state, chain[applied]).is_ok() {
                applied += 1;
                continue;
            }
            chain.truncate(applied);
            state = decode_base(body).expect("decoded a moment ago");
            for body in &chain {
                apply(&mut state, body).expect("applied a moment ago");
            }
        }
        return Ok(Loaded {
            state: Some(state),
            base_seq: base.seq,
            deltas: applied as u64,
            skipped: (segs.len() - 1 - bi - applied) as u64,
        });
    }
    Ok(Loaded {
        state: None,
        base_seq: 0,
        deltas: 0,
        skipped: segs.len() as u64,
    })
}

/// The state the segments in `dir` hold: the newest base that verifies
/// with every delta that verifies and chains onto it — the state as of
/// the last intact segment, without the WAL. `None` when no base
/// verifies. Recovery starts from exactly this state.
pub fn load_segments(cfg: &ServeConfig, dir: &Path) -> Result<Option<ServiceState>, ServeError> {
    Ok(load_chain(cfg, &read_segments(dir)?)?.state)
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

    /// The write-ahead rule under group commit: whenever a call makes a
    /// response or a segment visible, the WAL file already holds every
    /// line fed so far; between those points records may wait in memory.
    #[test]
    fn visible_effects_follow_their_lines_into_the_wal() {
        let root = tmp_dir("writeahead");
        let state_dir = root.join("state");
        let mut s = Service::open(cfg(), Some(&state_dir), Some(&root.join("out")), false).unwrap();
        let (mut buffered, mut visible) = (false, 0);
        for (fed, l) in (1..).zip(lines()) {
            let segments = s.snapshots_written();
            let answered = !s.feed_line(&l).unwrap().is_empty();
            let text = fs::read_to_string(state_dir.join("events.wal")).unwrap();
            let on_disk = wal::scan(&text).unwrap().records.len();
            if answered || s.snapshots_written() > segments {
                assert_eq!(
                    on_disk, fed,
                    "a visible effect of line {fed} ran ahead of the WAL"
                );
                visible += 1;
            } else {
                buffered |= on_disk < fed;
            }
        }
        assert!(
            visible > 0 && buffered,
            "{visible} visible effects, buffered {buffered}"
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// The three event streams `tests/answer_lock.rs` serves: a realized
    /// schedule in order, the same block-shuffled past the horizon, and a
    /// synthesized stream on half its machine, each with its config.
    fn answer_lock_streams() -> Vec<(ServeConfig, Vec<String>)> {
        let wl = qpredict_workload::synthetic::toy(600, 16, 5);
        let encode = |events: &[qpredict_workload::JobEvent]| -> Vec<String> {
            events.iter().map(|e| e.encode()).collect()
        };
        let in_order = encode(&qpredict_sim::realized_events(&wl, 3));
        let mut shuffled = in_order.clone();
        let mut rng = qpredict_workload::Rng64::seed_from_u64(7);
        for chunk in shuffled.chunks_mut(24) {
            for i in (1..chunk.len()).rev() {
                chunk.swap(i, rng.gen_index(i + 1));
            }
        }
        let cfg = |machine_nodes| ServeConfig {
            machine_nodes,
            horizon: 8,
            snapshot_every: 0,
            fsync: FsyncPolicy::Never,
            ..ServeConfig::default()
        };
        vec![
            (cfg(wl.machine_nodes), in_order),
            (cfg(wl.machine_nodes), shuffled),
            (
                cfg(wl.machine_nodes / 2),
                encode(&qpredict_workload::synthesize_events(&wl, 3)),
            ),
        ]
    }

    /// A segment after every line of each stream: every streamed file is
    /// byte for byte `seal` of its body encoded in memory, and the checksum
    /// and byte count the next delta and the compaction rule use are that
    /// file's.
    #[test]
    fn streamed_segments_equal_their_bodies_sealed_in_memory() {
        let root = tmp_dir("streamed");
        let (mut bases, mut deltas, mut largest) = (0, 0, 0);
        for (i, (cfg, lines)) in answer_lock_streams().into_iter().enumerate() {
            let dir = root.join(format!("s{i}"));
            let mut svc = Service::open(cfg, Some(&dir), None, false).unwrap();
            for l in &lines {
                svc.feed_line(l).unwrap();
                let (seq, parent) = svc.next_segment();
                let mut w = Writer::default();
                svc.encode_segment(seq, parent, &mut w);
                let want = qpredict_durable::seal(w.finish());
                let chain_bytes = svc.segments.chain_bytes;
                svc.snapshot_now().unwrap();
                let got = fs::read_to_string(segment_path(&dir, seq)).unwrap();
                assert!(got == want, "stream {i} segment {seq} differs");
                let sum = check_frame(&want).unwrap().1;
                assert_eq!(svc.segments.tip, Some((seq, sum)));
                let bytes = want.len() as u64;
                if parent.is_some() {
                    deltas += 1;
                    assert_eq!(svc.segments.chain_bytes, chain_bytes + bytes);
                } else {
                    bases += 1;
                    assert_eq!(svc.segments.base_bytes, bytes);
                }
                largest = largest.max(want.len());
            }
        }
        // Bases large enough to drain the writer's buffer mid-body.
        assert!(
            bases >= 3 && deltas > 1000,
            "{bases} bases, {deltas} deltas"
        );
        assert!(largest > 2 * 64 * 1024, "largest segment {largest} bytes");
        let _ = fs::remove_dir_all(&root);
    }

    /// A segment write that fails mid-body is a typed error naming the
    /// temp file; nothing is renamed into place, and the next snapshot
    /// writes the same segment.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_segment_write_renames_nothing_and_the_next_succeeds() {
        let root = tmp_dir("fullwrite");
        let dir = root.join("state");
        let (cfg, lines) = answer_lock_streams().swap_remove(0);
        let mut svc = Service::open(cfg.clone(), Some(&dir), None, false).unwrap();
        for l in &lines {
            svc.feed_line(l).unwrap();
        }
        let want_fp = svc.state().fingerprint();
        let (seq, _) = svc.next_segment();
        let path = segment_path(&dir, seq);
        let tmp = path.with_extension("snap.tmp");
        // Every write to the temp file fails: the first at the first
        // drain, 64 KiB into the body.
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        match svc.snapshot_now() {
            Err(ServeError::Io(e)) => {
                assert_eq!(e.op, format!("write {}", tmp.display()));
                assert_eq!(e.source.raw_os_error(), Some(28), "{e}"); // ENOSPC
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert!(!path.exists() && fs::symlink_metadata(&tmp).is_err());
        assert_eq!(svc.snapshots_written(), 0);
        svc.snapshot_now().unwrap();
        assert!(fs::metadata(&path).unwrap().len() > 64 * 1024);
        let loaded = load_segments(&cfg, &dir).unwrap().expect("a base");
        assert_eq!(loaded.fingerprint(), want_fp);
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
