//! The deterministic core of the service: pure state, no I/O.
//!
//! [`ServiceState`] consumes raw input lines (each tagged with its 1-based
//! input sequence number) and produces numbered responses. Everything it
//! does is a deterministic function of the line sequence, which is what
//! makes the crash-recovery story work: replaying the same lines — from
//! the write-ahead log or from the original input — reproduces the state
//! and the responses bit for bit, including every floating-point
//! aggregate inside the predictor.
//!
//! Disordered input is handled in three layers:
//!
//! * a bounded **reorder buffer** holds each event until `horizon` newer
//!   events have arrived, then applies the pending minimum in canonical
//!   [`JobEvent::sort_key`] order, so any permutation within the horizon
//!   converges to one apply order;
//! * a per-job **monotone state machine** (queued → running → done)
//!   absorbs duplicates and impossible transitions as counted anomalies
//!   rather than state corruption;
//! * events older than the **watermark** (the newest applied timestamp)
//!   are applied immediately as late backfill — a late completion still
//!   reaches the predictor, and every later answer sees it.
//!
//! Memory is bounded everywhere: per-category predictor history by
//! `max_history`, live jobs by `max_jobs` (drop-oldest load shedding),
//! finished-job dedupe records by `max_done` (evicted in retirement
//! order), and the reorder buffer by `horizon`.

use std::collections::{BTreeMap, HashMap, VecDeque};

use qpredict_durable::codec;
use qpredict_durable::{codec_struct, Codec, CodecError, Reader, Writer};
use qpredict_obs::counter_add;
use qpredict_predict::{
    CacheStats, DowneyPredictor, DowneyVariant, GibbonsPredictor, Prediction, PredictorKind,
    RunTimePredictor, SmithPredictor,
};
use qpredict_sim::{forecast_jobs, Algorithm};
use qpredict_workload::{Characteristic, Dur, EventKind, Job, JobEvent, JobId, SymbolTable, Time};

use crate::config::ServeConfig;

/// One answer produced by the service, numbered in emission order.
///
/// Ordinals are assigned in apply order, which is deterministic, so they
/// serve as stable identities across crash and replay: recovery re-emits
/// only responses whose ordinal exceeds the last one durably written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// 1-based emission number.
    pub ordinal: u64,
    /// The answer payload (everything after `resp <ordinal> `).
    pub line: String,
}

/// Anomaly and throughput counters. All deterministic, all persisted in
/// snapshots, and mirrored into [`qpredict_obs`] counters (`serve.*`) for
/// `--report-out`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events parsed successfully.
    pub events: u64,
    /// Input lines that failed to parse (counted, never fatal).
    pub malformed: u64,
    /// Duplicate lifecycle events (second submit of a known id, start of
    /// a running job, finish of a done job, …).
    pub duplicate: u64,
    /// Events that arrived out of canonical order but inside the reorder
    /// horizon, plus impossible-order transitions reconciled by the state
    /// machine (finish before any start).
    pub out_of_order: u64,
    /// Events older than the watermark, applied as immediate backfill.
    pub late: u64,
    /// Lifecycle events for jobs the service has never seen (or already
    /// evicted).
    pub orphan: u64,
    /// Live jobs dropped by overload shedding (`max_jobs`).
    pub shed: u64,
    /// Finished-job dedupe records evicted beyond `max_done`, oldest
    /// retirement first.
    pub evicted: u64,
    /// Jobs whose completion reached the predictor.
    pub completions: u64,
    /// Jobs cancelled without a usable run time.
    pub cancelled: u64,
    /// Responses emitted (equals the last assigned ordinal).
    pub responses: u64,
}

codec_struct!(Counters {
    events,
    malformed,
    duplicate,
    out_of_order,
    late,
    orphan,
    shed,
    evicted,
    completions,
    cancelled,
    responses
});

/// Lifecycle phase of a tracked job. A done job was the `retired`th to
/// complete or be cancelled, counting both from 1; done records are
/// evicted in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running { started: Time },
    Done { retired: u64 },
}

/// Everything the service remembers about one job: the [`Job`] the
/// predictor reads, its internal id as the job id and a one-second
/// placeholder run time (no predictor reads it on the predict path; a
/// completion is learned from a copy holding the actual run time), and
/// its lifecycle phase.
#[derive(Debug, Clone)]
struct JobRecord {
    job: Job,
    phase: Phase,
}

impl Codec for Phase {
    fn encode(&self, w: &mut Writer) {
        match self {
            Phase::Queued => w.word("q"),
            Phase::Running { started } => w.word("r").put(started),
            Phase::Done { retired } => w.word("d").put(retired),
        };
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Phase, CodecError> {
        match r.word()? {
            "q" => Ok(Phase::Queued),
            "r" => Ok(Phase::Running { started: r.get()? }),
            "d" => Ok(Phase::Done { retired: r.get()? }),
            other => Err(r.error(format!("bad phase {other:?}"))),
        }
    }
}

/// A job's tokens: internal id, nodes, limit, characteristics and
/// submit instant. Its run time is not among them.
fn put_job(w: &mut Writer, job: &Job) {
    w.put(&job.id.0)
        .put(&job.nodes)
        .put(&job.max_runtime)
        .put(&job.chars)
        .put(&job.submit);
}

/// Read back [`put_job`]'s tokens, with the placeholder run time.
fn get_job(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<Job, CodecError> {
    Ok(Job {
        id: JobId(r.get()?),
        nodes: r.get()?,
        max_runtime: r.get()?,
        chars: r.get_in(syms)?,
        submit: r.get()?,
        runtime: Dur::SECOND,
    })
}

impl Codec<SymbolTable> for JobRecord {
    fn encode(&self, w: &mut Writer) {
        put_job(w, &self.job);
        w.put(&self.phase);
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<JobRecord, CodecError> {
        Ok(JobRecord {
            job: get_job(r, syms)?,
            phase: r.get()?,
        })
    }
}

/// The hosted predictor, behind one dispatch enum so the service can
/// snapshot and restore whichever kind it runs.
#[derive(Debug)]
enum ServePredictor {
    Smith(SmithPredictor),
    Gibbons(GibbonsPredictor),
    Downey(DowneyPredictor),
}

/// Run `$body` on whichever predictor `$self` hosts, bound as `$p`.
macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            ServePredictor::Smith($p) => $body,
            ServePredictor::Gibbons($p) => $body,
            ServePredictor::Downey($p) => $body,
        }
    };
}

/// Why serve cannot host `kind`: it hosts the learning predictors over
/// its own bounded template set, not the oracle, the user limits, an
/// explicit template set or the fallback chain.
fn unhosted(kind: &PredictorKind) -> String {
    let name = match kind {
        PredictorKind::SmithWith(_) => "smith with an explicit template set",
        other => other.name(),
    };
    format!("serve hosts smith|gibbons|downey-avg|downey-med, not {name:?}")
}

impl ServePredictor {
    fn build(cfg: &ServeConfig) -> Result<ServePredictor, String> {
        let downey =
            |v| ServePredictor::Downey(DowneyPredictor::new(v, Some(Characteristic::User)));
        Ok(match &cfg.predictor {
            PredictorKind::Smith => ServePredictor::Smith(SmithPredictor::new(cfg.template_set())),
            PredictorKind::Gibbons => ServePredictor::Gibbons(GibbonsPredictor::new()),
            PredictorKind::DowneyAverage => downey(DowneyVariant::ConditionalAverage),
            PredictorKind::DowneyMedian => downey(DowneyVariant::ConditionalMedian),
            other => return Err(unhosted(other)),
        })
    }

    /// Completed data points the hosted predictor holds, for
    /// memory-bound checks.
    fn resident_points(&self) -> usize {
        each!(self, p => p.resident_points())
    }
}

/// A `pred` record naming the hosted predictor, then its state. Decoding
/// needs the configuration (which predictor, which template set) and the
/// restored symbol table.
impl Codec<(&ServeConfig, &SymbolTable)> for ServePredictor {
    fn encode(&self, w: &mut Writer) {
        w.record("pred").word(self.name());
        each!(self, p => w.put(p));
    }

    fn decode(
        r: &mut Reader<'_>,
        &(cfg, syms): &(&ServeConfig, &SymbolTable),
    ) -> Result<ServePredictor, CodecError> {
        read_pred(r, cfg.predictor.name())?;
        Ok(match &cfg.predictor {
            PredictorKind::Smith => ServePredictor::Smith(r.get_in(&cfg.template_set())?),
            PredictorKind::Gibbons => ServePredictor::Gibbons(r.get_in(syms)?),
            PredictorKind::DowneyAverage | PredictorKind::DowneyMedian => {
                ServePredictor::Downey(r.get_in(syms)?)
            }
            other => return Err(r.error(unhosted(other))),
        })
    }
}

/// Read a `pred` record, which must name the `hosted` predictor.
fn read_pred(r: &mut Reader<'_>, hosted: &str) -> Result<(), CodecError> {
    let name = r.record("pred")?.word()?;
    if name != hosted {
        return Err(r.error(format!(
            "body of predictor {name:?}, service hosts {hosted:?}"
        )));
    }
    Ok(())
}

impl RunTimePredictor for ServePredictor {
    fn name(&self) -> &'static str {
        each!(self, p => p.name())
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        each!(self, p => p.predict(job, elapsed))
    }

    fn on_complete(&mut self, job: &Job) {
        each!(self, p => p.on_complete(job))
    }
}

/// Magic first line of an encoded state body (v5: each fact once. Done
/// records carry their retirement ordinal instead of a done list, the
/// predictor state holds neither generation nor work counters, and
/// Smith writes one record per category point).
pub const STATE_MAGIC: &str = "qpredict-serve-state v5";

/// Magic first line of an encoded state delta (v6: as for
/// [`STATE_MAGIC`] v5; its predictor part is `pred <name>` and the
/// completion log, for every predictor).
pub const DELTA_MAGIC: &str = "qpredict-serve-delta v6";

/// What changed since the last mark: the part of an incremental snapshot
/// that is not read off the state itself. Only a marked state keeps one
/// (the durable service marks at every snapshot); ephemeral state never
/// pays for it.
#[derive(Debug, Default)]
struct Journal {
    /// Ids of jobs inserted, changed or removed, with repeats.
    jobs: Vec<u64>,
    /// Symbols interned at the mark.
    syms: usize,
    /// Completions fed to the predictor since the mark, in order, each
    /// job with the run time it was learned with.
    learned: Vec<Job>,
}

/// The in-memory service state. See the module docs for the model.
#[derive(Debug)]
pub struct ServiceState {
    cfg: ServeConfig,
    syms: SymbolTable,
    /// Consulted directly on every answer, with no estimate cache above
    /// it: the encoded state is what the predictor learned from
    /// completions, and nothing that predictions change.
    predictor: ServePredictor,
    /// Predictions made since this state was built or restored. Not
    /// encoded: it feeds [`ServiceState::cache_stats`] only.
    predictions: u64,
    jobs: HashMap<u64, JobRecord>,
    /// Pending events, kept sorted by `(sort_key, seq)`.
    buffer: Vec<(JobEvent, u64)>,
    watermark: Option<Time>,
    /// The queued and running jobs, internal id → external id: admission
    /// order, so answers and shedding walk only live jobs. Derived from
    /// `jobs`, not encoded, and rebuilt on decode.
    live: BTreeMap<u32, u64>,
    /// The done jobs' external ids in retirement order: eviction order.
    /// Derived from `jobs` like `live`.
    done: VecDeque<u64>,
    next_internal: u32,
    applied_seq: u64,
    counters: Counters,
    journal: Option<Journal>,
}

impl ServiceState {
    /// An empty service.
    ///
    /// # Panics
    ///
    /// When `cfg.predictor` is a kind serve cannot host;
    /// [`crate::Service::open`] refuses those with a config error.
    pub fn new(cfg: ServeConfig) -> ServiceState {
        ServiceState::hosting(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An empty service, or why serve cannot host `cfg.predictor`.
    pub(crate) fn hosting(cfg: ServeConfig) -> Result<ServiceState, String> {
        Ok(ServiceState {
            predictor: ServePredictor::build(&cfg)?,
            predictions: 0,
            cfg,
            syms: SymbolTable::new(),
            jobs: HashMap::new(),
            buffer: Vec::new(),
            watermark: None,
            live: BTreeMap::new(),
            done: VecDeque::new(),
            next_internal: 0,
            applied_seq: 0,
            counters: Counters::default(),
            journal: None,
        })
    }

    /// True when the state has tracked its changes since the last mark,
    /// so an incremental snapshot can be written.
    pub(crate) fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Record that job `id` was inserted, changed or removed. A journal
    /// that grows past several job tables' worth of ids is dropped
    /// instead: the next snapshot must then be whole, and memory stays
    /// bounded however long the service goes between snapshots. Every
    /// completion also touches its job, so the cap bounds the completion
    /// log too.
    fn touch(&mut self, id: u64) {
        let cap = 4 * (self.cfg.max_jobs + self.cfg.max_done).max(1024);
        if let Some(j) = &mut self.journal {
            j.jobs.push(id);
            if j.jobs.len() > cap {
                self.journal = None;
            }
        }
    }

    /// Sequence number of the last ingested input line.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// The anomaly/throughput counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Jobs currently queued or running.
    pub fn live_jobs(&self) -> usize {
        self.live.len()
    }

    /// Completed data points resident in the predictor's history.
    /// Smith's are its category points, bounded by
    /// `max_history × template count`. Gibbons' are the points of its
    /// `()` key and Downey's its pooled run times, one per completion
    /// and unbounded.
    pub fn predictor_resident_points(&self) -> usize {
        self.predictor.resident_points()
    }

    /// Events waiting in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Estimate-cache counters of an uncached predictor: every
    /// prediction since this state was built or restored reached the
    /// predictor and counts as a miss.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            misses: self.predictions,
            ..CacheStats::default()
        }
    }

    /// Ingest one raw input line. `seq` must exceed every previously
    /// ingested sequence number; responses (with globally unique
    /// ordinals) are appended to `out`. Never panics on malformed input.
    pub fn ingest_line(&mut self, seq: u64, raw: &str, out: &mut Vec<Response>) {
        debug_assert!(seq > self.applied_seq, "non-monotone input seq {seq}");
        self.applied_seq = seq;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        match JobEvent::parse(line) {
            Err(_) => {
                self.counters.malformed += 1;
                counter_add("serve.malformed", 1);
            }
            Ok(ev) => self.admit(ev, seq, out),
        }
    }

    /// Drain the reorder buffer (end of stream): apply every pending
    /// event in canonical order.
    pub fn drain(&mut self, out: &mut Vec<Response>) {
        while !self.buffer.is_empty() {
            let (ev, _) = self.buffer.remove(0);
            self.apply(ev, out);
        }
    }

    fn admit(&mut self, ev: JobEvent, seq: u64, out: &mut Vec<Response>) {
        self.counters.events += 1;
        counter_add("serve.events", 1);
        if let Some(w) = self.watermark {
            if ev.time < w {
                // Behind the watermark: the canonical position has
                // already been applied past. Backfill immediately — a
                // late finish still teaches the predictor.
                self.counters.late += 1;
                counter_add("serve.late", 1);
                self.apply(ev, out);
                return;
            }
        }
        let key = (ev.sort_key(), seq);
        let pos = self
            .buffer
            .partition_point(|(e, s)| (e.sort_key(), *s) <= key);
        if pos < self.buffer.len() {
            // Something already buffered sorts after this event: the
            // arrival order was not canonical.
            self.counters.out_of_order += 1;
            counter_add("serve.out_of_order", 1);
        }
        self.buffer.insert(pos, (ev, seq));
        while self.buffer.len() > self.cfg.horizon.max(1) {
            let (ev, _) = self.buffer.remove(0);
            self.apply(ev, out);
        }
    }

    fn apply(&mut self, ev: JobEvent, out: &mut Vec<Response>) {
        self.watermark = Some(match self.watermark {
            Some(w) => w.max(ev.time),
            None => ev.time,
        });
        match ev.kind {
            EventKind::Submit(spec) => {
                if self.jobs.contains_key(&ev.id) {
                    self.duplicate();
                    return;
                }
                let internal = self.next_internal;
                self.next_internal += 1;
                let mut job = Job {
                    id: JobId(internal),
                    chars: [None; 8],
                    nodes: spec.nodes.max(1),
                    submit: ev.time,
                    runtime: Dur::SECOND,
                    max_runtime: spec.limit,
                };
                for (c, v) in &spec.chars {
                    job.chars[c.index()] = Some(self.syms.intern(v));
                }
                self.jobs.insert(
                    ev.id,
                    JobRecord {
                        job,
                        phase: Phase::Queued,
                    },
                );
                self.live.insert(internal, ev.id);
                self.touch(ev.id);
                self.shed_overload();
            }
            EventKind::Start => match self.jobs.get_mut(&ev.id) {
                None => self.orphan(),
                Some(r) => match r.phase {
                    Phase::Queued => {
                        r.phase = Phase::Running { started: ev.time };
                        self.touch(ev.id);
                    }
                    Phase::Running { .. } | Phase::Done { .. } => self.duplicate(),
                },
            },
            EventKind::Finish { runtime } => match self.jobs.get(&ev.id).map(|r| r.phase) {
                None => self.orphan(),
                Some(Phase::Running { started }) => {
                    let rt = runtime.unwrap_or_else(|| ev.time.since(started));
                    self.complete(ev.id, rt);
                }
                Some(Phase::Queued) => {
                    // Finish observed before any start: reconcile with
                    // what we have rather than losing the completion.
                    self.counters.out_of_order += 1;
                    counter_add("serve.out_of_order", 1);
                    let submit = self.jobs[&ev.id].job.submit;
                    self.complete(ev.id, runtime.unwrap_or_else(|| ev.time.since(submit)));
                }
                Some(Phase::Done { .. }) => self.duplicate(),
            },
            EventKind::Cancel => match self.jobs.get(&ev.id).map(|r| r.phase) {
                None => self.orphan(),
                Some(Phase::Queued | Phase::Running { .. }) => {
                    self.counters.cancelled += 1;
                    counter_add("serve.cancelled", 1);
                    self.retire(ev.id);
                }
                Some(Phase::Done { .. }) => self.duplicate(),
            },
            EventKind::Query => {
                let line = self.answer(ev.id, ev.time);
                self.counters.responses += 1;
                counter_add("serve.responses", 1);
                out.push(Response {
                    ordinal: self.counters.responses,
                    line,
                });
            }
        }
    }

    fn duplicate(&mut self) {
        self.counters.duplicate += 1;
        counter_add("serve.duplicate", 1);
    }

    fn orphan(&mut self) {
        self.counters.orphan += 1;
        counter_add("serve.orphan", 1);
    }

    /// Feed live job `id`'s completion to the predictor and retire it.
    fn complete(&mut self, id: u64, runtime: Dur) {
        let job = Job {
            runtime: runtime.max(Dur::SECOND),
            ..self.jobs[&id].job.clone()
        };
        self.predictor.on_complete(&job);
        if let Some(j) = &mut self.journal {
            j.learned.push(job);
        }
        self.counters.completions += 1;
        counter_add("serve.completions", 1);
        self.retire(id);
    }

    /// Retire live job `id`, just counted as completed or cancelled: mark
    /// it done with its retirement ordinal, and evict the oldest done
    /// records beyond `max_done`.
    fn retire(&mut self, id: u64) {
        let retired = self.counters.completions + self.counters.cancelled;
        let rec = self.jobs.get_mut(&id).expect("retiring a tracked job");
        rec.phase = Phase::Done { retired };
        self.live.remove(&rec.job.id.0);
        self.done.push_back(id);
        self.touch(id);
        while self.done.len() > self.cfg.max_done.max(1) {
            let old = self
                .done
                .pop_front()
                .expect("more done records than the cap");
            self.jobs.remove(&old);
            self.touch(old);
            self.counters.evicted += 1;
            counter_add("serve.evicted", 1);
        }
    }

    /// Drop-oldest load shedding: while more than `max_jobs` jobs are
    /// live, remove the one with the smallest internal id (the oldest
    /// admission). Subsequent events for a shed job count as orphans.
    fn shed_overload(&mut self) {
        while self.live.len() > self.cfg.max_jobs.max(1) {
            let (_, oldest) = self.live.pop_first().expect("more live jobs than the cap");
            self.jobs.remove(&oldest);
            self.touch(oldest);
            self.counters.shed += 1;
            counter_add("serve.shed", 1);
        }
    }

    /// Answer a wait-time query about `id` at time `now`.
    ///
    /// For a queued job the answer is the paper's estimated queue wait:
    /// the nested conservative-backfill forecast ([`forecast_jobs`]) with
    /// the scheduler's belief = prediction, over the running jobs and the
    /// jobs queued ahead of the target. Each is predicted once, in
    /// admission order, running jobs first and the target last; with
    /// exact beliefs the forecast takes its first-pass stop, so the wait
    /// is the target's earliest fit after everything ahead has been
    /// reserved.
    fn answer(&mut self, id: u64, now: Time) -> String {
        let ServiceState {
            cfg,
            predictor,
            predictions,
            jobs,
            live,
            ..
        } = self;
        // The hosted predictor's estimate, clamped to run past `elapsed`.
        let mut predict = |job: &Job, elapsed: Dur| {
            *predictions += 1;
            predictor.predict(job, elapsed).clamped(elapsed)
        };
        let Some(r) = jobs.get(&id) else {
            return format!("t={} id={id} unknown", now.0);
        };
        match r.phase {
            Phase::Done { .. } => format!("t={} id={id} done", now.0),
            Phase::Running { started } => {
                let elapsed = now.since(started).max(Dur::ZERO);
                let p = predict(&r.job, elapsed);
                let rem = p.estimate - elapsed;
                format!(
                    "t={} id={id} running rem={} ci={:016X} fallback={}",
                    now.0,
                    rem.0,
                    p.ci_halfwidth.to_bits(),
                    u8::from(p.fallback),
                )
            }
            Phase::Queued => {
                let ahead = ahead_of(jobs, live, r.job.id.0);
                let running = ahead.iter().filter_map(|rec| match rec.phase {
                    Phase::Running { started } => Some((&rec.job, started)),
                    _ => None,
                });
                let queued = ahead
                    .iter()
                    .copied()
                    .filter(|rec| rec.phase == Phase::Queued)
                    .chain([r])
                    .map(|rec| (&rec.job, u64::from(rec.job.id.0)));
                let mut last = None;
                let forecast = forecast_jobs(
                    Algorithm::Backfill,
                    cfg.machine_nodes.max(1),
                    now,
                    running,
                    queued,
                    |job, elapsed| {
                        let p = predict(job, elapsed);
                        last = Some(p);
                        p.estimate
                    },
                    |_, _, predicted| predicted,
                    r.job.id,
                );
                // Disordered streams can legitimately claim more running
                // nodes than the machine has. The forecast clamps them;
                // count the answer rather than assert.
                if forecast.oversubscribed {
                    counter_add("serve.oversubscribed", 1);
                }
                let p = last.expect("the target is queued, so predicted, last");
                let wait = forecast.start.since(now).max(Dur::ZERO);
                format!(
                    "t={} id={id} wait={} runtime={} ci={:016X} fallback={}",
                    now.0,
                    wait.0,
                    p.estimate.0,
                    p.ci_halfwidth.to_bits(),
                    u8::from(p.fallback),
                )
            }
        }
    }

    /// [`qpredict_durable::checksum`] of the encoded state — the
    /// bit-identity probe used by the chaos tests — hashed as it is
    /// encoded, in bounded memory.
    pub fn fingerprint(&self) -> u64 {
        codec::encoded_checksum(self)
    }

    /// Like [`ServiceState::fingerprint`], but of the state encoded
    /// without its `counters` record, hashed the same way. Equivalence
    /// tests use this: two arrival orders of the same events legitimately
    /// observe different `out_of_order`/`late` tallies yet must converge
    /// to the same learned state, job table, and pending buffer.
    pub fn core_fingerprint(&self) -> u64 {
        codec::encoded_checksum(&Core(self))
    }
}

/// A state as [`ServiceState::core_fingerprint`] hashes it: encoded
/// without its counters. Never decoded.
struct Core<'s>(&'s ServiceState);

impl Codec for Core<'_> {
    fn encode(&self, w: &mut Writer) {
        self.0.encode_records(w, false);
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Self, CodecError> {
        Err(r.error("a core fingerprint's body is never decoded"))
    }
}

/// The jobs a queued answer about `target` (an internal id) forecasts
/// over, in the order it predicts them: every running job, then the jobs
/// queued ahead of the target, each in admission order.
fn ahead_of<'a>(
    jobs: &'a HashMap<u64, JobRecord>,
    live: &BTreeMap<u32, u64>,
    target: u32,
) -> Vec<&'a JobRecord> {
    let record = |id: &u64| jobs.get(id).expect("live jobs are tracked");
    let running = live.values().map(record);
    let queued = live.range(..target).map(|(_, id)| record(id));
    running
        .filter(|rec| matches!(rec.phase, Phase::Running { .. }))
        .chain(queued.filter(|rec| rec.phase == Phase::Queued))
        .collect()
}

/// The full state as a snapshot body (the durability layer seals it).
/// Deterministic: equal states encode to equal bytes, and every
/// floating-point aggregate inside the predictor is carried bitwise, so
/// decode → encode is the identity. Decoding needs the configuration,
/// which must fingerprint-match the one the state was recorded under.
impl Codec<ServeConfig> for ServiceState {
    fn encode(&self, w: &mut Writer) {
        self.encode_records(w, true);
    }

    fn decode(r: &mut Reader<'_>, cfg: &ServeConfig) -> Result<ServiceState, CodecError> {
        let mut state = ServiceState::hosting(cfg.clone()).map_err(|e| r.error(e))?;
        state.read_head(r, STATE_MAGIC)?;
        state.syms = r.record("syms")?.get()?;
        state.jobs = r.map_records("job", &(), &state.syms)?;
        state.index(r)?;
        state.read_buffer(r)?;
        state.predictor = r.get_in(&(&state.cfg, &state.syms))?;
        Ok(state)
    }
}

impl ServiceState {
    /// The snapshot body, with the `counters` record or without it.
    fn encode_records(&self, w: &mut Writer, counters: bool) {
        self.put_head(w, STATE_MAGIC, counters);
        w.record("syms").put(&self.syms);
        w.map_records("job", &self.jobs);
        w.record("rb").put(&self.buffer);
        w.put(&self.predictor);
    }

    /// The records a base and a delta open with: `magic`, the
    /// configuration fingerprint, the cursor and, unless left out, the
    /// counters.
    fn put_head(&self, w: &mut Writer, magic: &str, counters: bool) {
        w.record(magic)
            .record("config")
            .put(&self.cfg.fingerprint());
        w.record("cursor")
            .put(&self.applied_seq)
            .put(&self.next_internal)
            .put(&self.watermark);
        if counters {
            w.record("counters").put(&self.counters);
        }
    }

    /// Read what [`ServiceState::put_head`] wrote, counters included,
    /// refusing a body recorded under another configuration.
    fn read_head(&mut self, r: &mut Reader<'_>, magic: &str) -> Result<(), CodecError> {
        let fp: u64 = r.record(magic)?.record("config")?.get()?;
        let ours = self.cfg.fingerprint();
        if fp != ours {
            return Err(r.error(format!(
                "{magic} recorded under a different configuration (fp {fp:016X}, ours {ours:016X})"
            )));
        }
        r.record("cursor")?;
        self.applied_seq = r.get()?;
        self.next_internal = r.get()?;
        self.watermark = r.get()?;
        self.counters = r.record("counters")?.get()?;
        Ok(())
    }

    /// Rebuild the live and done indexes from the job table. Internal
    /// ids and retirement ordinals must be unique; verify rather than
    /// trust.
    fn index(&mut self, r: &Reader<'_>) -> Result<(), CodecError> {
        self.live.clear();
        let mut done = Vec::new();
        for (&id, rec) in &self.jobs {
            match rec.phase {
                Phase::Done { retired } => done.push((retired, id)),
                _ => {
                    self.live.insert(rec.job.id.0, id);
                }
            }
        }
        done.sort_unstable();
        let unique = done.windows(2).all(|w| w[0].0 < w[1].0);
        if !unique || self.live.len() + done.len() != self.jobs.len() {
            return Err(r.error("job records share an internal id or a retirement ordinal"));
        }
        self.done = done.into_iter().map(|(_, id)| id).collect();
        Ok(())
    }

    /// Read the `rb` record. The buffer must come back in its sorted
    /// order; verify rather than trust.
    fn read_buffer(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.buffer = r.record("rb")?.get()?;
        let sorted = self
            .buffer
            .windows(2)
            .all(|w| (w[0].0.sort_key(), w[0].1) <= (w[1].0.sort_key(), w[1].1));
        if !sorted {
            return Err(r.error("reorder buffer not in canonical order"));
        }
        Ok(())
    }
}

/// Incremental snapshots: a state marked, then changed any number of
/// times, writes a delta that brings a state equal to the marked one (as
/// decoded, not necessarily the same object) to one that encodes exactly
/// as the changed state does.
impl ServiceState {
    /// Append the change since the last mark to `w`. The bounded parts —
    /// cursor, counters, reorder buffer — are written whole; the rest
    /// only as change: symbols interned, job records inserted, changed or
    /// removed (`-`), and, after the `pred` record naming the predictor,
    /// the completions it learned from, in order. The live and done
    /// indexes are rebuilt from the job table, and the predictor's
    /// change by replaying each completion through `on_complete`, the
    /// path WAL replay takes.
    ///
    /// # Panics
    /// On a state that keeps no journal: one never marked, or whose
    /// journal outgrew its cap since the last mark. The service writes a
    /// base then.
    pub(crate) fn encode_delta(&self, w: &mut Writer) {
        let j = self.journal.as_ref().expect("delta of an unmarked state");
        self.put_head(w, DELTA_MAGIC, true);
        w.record("symsadd")
            .put(&j.syms)
            .put(&(self.syms.len() - j.syms));
        for (_, name) in self.syms.iter().skip(j.syms) {
            w.str(name);
        }
        let mut ids = j.jobs.clone();
        ids.sort_unstable();
        ids.dedup();
        let changed: Vec<(u64, Option<JobRecord>)> = ids
            .into_iter()
            .map(|id| (id, self.jobs.get(&id).cloned()))
            .collect();
        w.map_records("job", changed.iter().map(|(id, rec)| (id, rec)));
        w.record("rb").put(&self.buffer);
        w.record("pred").word(self.predictor.name());
        w.record("learned").put(&j.learned.len());
        for job in &j.learned {
            put_job(w.record("learn"), job);
            w.put(&job.runtime);
        }
    }

    /// Read a change written by [`ServiceState::encode_delta`] and apply
    /// it.
    pub(crate) fn apply_delta(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.read_head(r, DELTA_MAGIC)?;
        let from: usize = r.record("symsadd")?.get()?;
        if from != self.syms.len() {
            return Err(r.error(format!(
                "delta adds symbols from {from}, table holds {}",
                self.syms.len()
            )));
        }
        let n: usize = r.get()?;
        for i in from..from + n {
            let name = r.str()?;
            if self.syms.intern(&name).index() != i {
                return Err(r.error(format!("symbol {name:?} listed twice")));
            }
        }
        let changed: Vec<(u64, Option<JobRecord>)> = r.map_records("job", &(), &self.syms)?;
        for (id, rec) in changed {
            match rec {
                Some(rec) => self.jobs.insert(id, rec),
                None => self.jobs.remove(&id),
            };
        }
        self.index(r)?;
        self.read_buffer(r)?;
        read_pred(r, self.predictor.name())?;
        let n: usize = r.record("learned")?.get()?;
        for _ in 0..n {
            let mut job = get_job(r.record("learn")?, &self.syms)?;
            job.runtime = r.get()?;
            self.predictor.on_complete(&job);
        }
        Ok(())
    }

    /// Start a new change: later deltas describe the change since now.
    pub(crate) fn mark(&mut self) {
        let (mut jobs, mut learned) = self
            .journal
            .take()
            .map(|j| (j.jobs, j.learned))
            .unwrap_or_default();
        jobs.clear();
        learned.clear();
        self.journal = Some(Journal {
            jobs,
            syms: self.syms.len(),
            learned,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(state: &mut ServiceState, lines: &[&str]) -> Vec<Response> {
        let mut out = Vec::new();
        let base = state.applied_seq();
        for (i, line) in lines.iter().enumerate() {
            state.ingest_line(base + 1 + i as u64, line, &mut out);
        }
        out
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            horizon: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn lifecycle_and_query_produce_deterministic_responses() {
        let mut s = ServiceState::new(small_cfg());
        let mut out = feed(
            &mut s,
            &[
                "submit 1 100 nodes=8 limit=3600 u=alice",
                "start 1 110",
                "finish 1 710",
                "submit 2 800 nodes=8 limit=3600 u=alice",
                "query 2 801",
            ],
        );
        let mut drained = Vec::new();
        s.drain(&mut drained);
        out.extend(drained);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ordinal, 1);
        assert!(out[0].line.contains("id=2"), "{}", out[0].line);
        assert!(out[0].line.contains("wait="), "{}", out[0].line);
        assert_eq!(s.counters().completions, 1);
        assert_eq!(s.counters().responses, 1);
    }

    #[test]
    fn oversubscribed_running_set_is_counted_and_clamped() {
        // The stream starts 12 nodes on an 8-node machine. The forecast
        // must still answer (from a profile clamped to the machine) and
        // count the answer as oversubscribed.
        let mut s = ServiceState::new(ServeConfig {
            machine_nodes: 8,
            ..small_cfg()
        });
        qpredict_obs::set_recording(true);
        qpredict_obs::reset();
        let mut out = feed(
            &mut s,
            &[
                "submit 1 100 nodes=8 limit=600",
                "submit 2 100 nodes=4 limit=900",
                "start 1 110",
                "start 2 110",
                "submit 3 120 nodes=2 limit=300",
                "query 3 130",
            ],
        );
        s.drain(&mut out);
        let oversubscribed = qpredict_obs::snapshot().counter("serve.oversubscribed");
        qpredict_obs::set_recording(false);
        assert_eq!(out.len(), 1);
        // Nothing is free until job 1's limit runs out at t=710.
        assert_eq!(
            out[0].line,
            "t=130 id=3 wait=580 runtime=300 ci=7FF0000000000000 fallback=1"
        );
        assert_eq!(oversubscribed, 1);
    }

    #[test]
    fn anomalies_are_counted_not_fatal() {
        let mut s = ServiceState::new(ServeConfig {
            horizon: 1,
            ..ServeConfig::default()
        });
        let responses = feed(
            &mut s,
            &[
                "submit 1 100 nodes=4",
                "submit 1 100 nodes=4", // duplicate submit
                "start 9 120",          // orphan
                "finish 1 200",         // finish before start: reconciled
                "finish 1 201",         // duplicate finish
                "not an event line",    // malformed
                "submit 2 300 nodes=4",
                "query 1 150", // behind watermark: late backfill
            ],
        );
        let mut out = Vec::new();
        s.drain(&mut out);
        let c = *s.counters();
        assert_eq!(c.duplicate, 2);
        assert_eq!(c.orphan, 1);
        assert!(c.out_of_order >= 1, "finish-before-start must count");
        assert_eq!(c.malformed, 1);
        assert!(c.late >= 1, "late counter: {c:?}");
        assert_eq!(c.completions, 1);
        assert_eq!(responses.len(), 1, "late query must still answer");
        assert!(responses[0].line.contains("done"), "{}", responses[0].line);
    }

    #[test]
    fn reorder_within_horizon_converges_to_canonical_order() {
        let lines = [
            "submit 1 100 nodes=4 u=a",
            "start 1 110",
            "finish 1 400",
            "submit 2 450 nodes=4 u=a",
            "query 2 451",
        ];
        let mut in_order = ServiceState::new(small_cfg());
        let mut a = feed(&mut in_order, &lines);
        let mut t = Vec::new();
        in_order.drain(&mut t);
        a.extend(t);

        // Swap adjacent events (displacement 1 < horizon 4).
        let shuffled = [lines[1], lines[0], lines[3], lines[2], lines[4]];
        let mut disordered = ServiceState::new(small_cfg());
        let mut b = feed(&mut disordered, &shuffled);
        let mut t = Vec::new();
        disordered.drain(&mut t);
        b.extend(t);

        assert_eq!(
            a.iter().map(|r| &r.line).collect::<Vec<_>>(),
            b.iter().map(|r| &r.line).collect::<Vec<_>>()
        );
        assert_eq!(in_order.core_fingerprint(), disordered.core_fingerprint());
        assert!(disordered.counters().out_of_order >= 1);
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let cfg = small_cfg();
        let mut s = ServiceState::new(cfg.clone());
        feed(
            &mut s,
            &[
                "submit 1 100 nodes=8 limit=3600 u=alice e=lmp",
                "start 1 110",
                "finish 1 710",
                "submit 2 800 nodes=16 u=bob",
                "start 2 805",
                "submit 3 900 nodes=4 u=alice",
                "query 3 901",
                "cancel 9 950", // orphan — counters must survive too
            ],
        );
        let body = codec::encode(&s);
        let back: ServiceState = codec::decode(&body, &cfg).expect("decode");
        assert_eq!(
            codec::encode(&back),
            body,
            "decode→encode must be the identity"
        );
        assert_eq!(back.fingerprint(), s.fingerprint());
        // And the two must continue in lockstep.
        let mut s2 = back;
        let mut orig = s;
        let lines = ["query 3 960", "finish 2 1400", "query 3 1500"];
        let mut ra = feed(&mut orig, &lines);
        let mut rb = feed(&mut s2, &lines);
        let mut t = Vec::new();
        orig.drain(&mut t);
        ra.extend(t);
        let mut t = Vec::new();
        s2.drain(&mut t);
        rb.extend(t);
        assert_eq!(ra, rb);
        assert_eq!(orig.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn decode_rejects_garbage_and_wrong_config() {
        let cfg = small_cfg();
        let s = ServiceState::new(cfg.clone());
        let body = codec::encode(&s);
        let restore = |cfg: &ServeConfig, text: &str| codec::decode::<_, ServiceState>(text, cfg);
        assert!(restore(&cfg, "").is_err());
        assert!(restore(&cfg, "serve nonsense\n").is_err());
        let mut other = cfg.clone();
        other.max_history = 7;
        assert!(restore(&other, &body)
            .unwrap_err()
            .to_string()
            .contains("different configuration"),);
        // Truncating the predictor section must fail, not half-load.
        let cut = body
            .lines()
            .filter(|l| !l.starts_with("pred"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(restore(&cfg, &cut).is_err());
    }

    /// The nested-simulation forecast of `waitpred` (conservative
    /// backfill, scheduler belief = prediction) over a snapshot of
    /// `state` at `now`, using the state's own predictor.
    fn nested_forecast(state: &mut ServiceState, id: u64, now: Time) -> Time {
        use qpredict_sim::Snapshot;
        let machine = state.cfg.machine_nodes;
        let mut wl = qpredict_workload::Workload::new("serve", machine);
        wl.jobs = (0..state.next_internal)
            .map(|i| qpredict_workload::JobBuilder::new().build(JobId(i)))
            .collect();
        let mut records: Vec<&JobRecord> = state.jobs.values().collect();
        records.sort_by_key(|r| r.job.id);
        let mut snap = Snapshot {
            now,
            free_nodes: machine,
            running: Vec::new(),
            queued: Vec::new(),
        };
        for r in &records {
            wl.jobs[r.job.id.index()] = r.job.clone();
            match r.phase {
                Phase::Running { started } => {
                    snap.free_nodes -= r.job.nodes;
                    snap.running.push((r.job.id, started));
                }
                Phase::Queued => snap.queued.push((r.job.id, u64::from(r.job.id.0))),
                Phase::Done { .. } => {}
            }
        }
        let target = state.jobs[&id].job.id;
        let predictor = std::cell::RefCell::new(&mut state.predictor);
        let p = |job: &Job, elapsed: Dur| {
            let mut pred = predictor.borrow_mut();
            pred.predict(job, elapsed).clamped(elapsed).estimate
        };
        qpredict_sim::forecast_start(&wl, Algorithm::Backfill, &snap, p, p, target)
    }

    /// Online = offline: on an in-order stream, every queued job's wait
    /// answer equals the nested backfill forecast over the same state with
    /// belief = prediction.
    #[test]
    fn queued_answers_equal_the_nested_backfill_forecast() {
        let wl = qpredict_workload::synthetic::toy(600, 32, 11);
        let events = qpredict_sim::realized_events(&wl, 1);
        let mut s = ServiceState::new(ServeConfig {
            machine_nodes: wl.machine_nodes,
            ..ServeConfig::default()
        });
        let (mut out, mut compared) = (Vec::new(), 0);
        for (seq, ev) in (1u64..).zip(&events) {
            if ev.kind != EventKind::Query {
                s.ingest_line(seq, &ev.encode(), &mut out);
                continue;
            }
            s.drain(&mut out);
            let answer = s.answer(ev.id, ev.time);
            let Some(wait) = answer
                .split(' ')
                .find_map(|w| w.strip_prefix("wait="))
                .map(|w| w.parse::<i64>().expect("integer wait"))
            else {
                continue;
            };
            let start = nested_forecast(&mut s, ev.id, ev.time);
            assert_eq!(
                wait,
                start.since(ev.time).max(Dur::ZERO).0,
                "query {ev:?}: {answer}"
            );
            compared += 1;
        }
        assert!(compared >= 200, "only {compared} queued answers compared");
    }

    #[test]
    fn load_shedding_and_done_eviction_bound_the_job_table() {
        let cfg = ServeConfig {
            max_jobs: 8,
            max_done: 8,
            horizon: 1,
            ..ServeConfig::default()
        };
        let mut s = ServiceState::new(cfg);
        let mut out = Vec::new();
        // Each round admits two jobs and completes one, so the live set
        // grows without bound unless shedding holds the line, and the
        // done set grows without bound unless the FIFO evicts.
        for i in 0..40i64 {
            let t = 100 + i * 10;
            let a = 2 * i as u64 + 1;
            let b = a + 1;
            for line in [
                format!("submit {a} {t} nodes=4 u=u{}", i % 5),
                format!("submit {b} {t} nodes=4 u=u{}", i % 5),
                format!("start {a} {}", t + 1),
                format!("finish {a} {}", t + 5),
            ] {
                s.ingest_line(s.applied_seq() + 1, &line, &mut out);
            }
        }
        s.drain(&mut out);
        assert!(s.live_jobs() <= 8, "live {}", s.live_jobs());
        assert!(s.jobs.len() <= 8 + 8, "table {}", s.jobs.len());
        assert!(s.counters().shed > 0, "{:?}", s.counters());
        assert!(s.counters().evicted > 0, "{:?}", s.counters());
    }

    /// What a queued answer forecasts over, by a scan of the whole job
    /// table: the selection `ahead_of` makes from the live index.
    fn full_scan_ahead(state: &ServiceState, target: u32) -> Vec<u32> {
        let mut ahead: Vec<&JobRecord> = state
            .jobs
            .values()
            .filter(|rec| match rec.phase {
                Phase::Running { .. } => true,
                Phase::Queued => rec.job.id.0 < target,
                Phase::Done { .. } => false,
            })
            .collect();
        ahead.sort_by_key(|rec| (rec.phase == Phase::Queued, rec.job.id));
        ahead.iter().map(|rec| rec.job.id.0).collect()
    }

    /// The live index against a scan of the whole job table, on a stream
    /// that leaves thousands of done records (default caps) and on one
    /// that sheds and evicts (6 live jobs, 100 done records). At every
    /// query the index selects what the scan selects. A state resumed
    /// from a snapshot a third of the way in, and one rebuilt from that
    /// snapshot plus a delta every 200 lines up to two thirds, answer
    /// every later line exactly as the uninterrupted state does.
    #[test]
    fn live_index_answers_as_a_full_scan_does() {
        let wl = qpredict_workload::synthetic::toy(2_500, 32, 11);
        let events = qpredict_sim::realized_events(&wl, 1);
        let (third, two_thirds) = (events.len() / 3, 2 * events.len() / 3);
        let defaults = ServeConfig::default();
        for (max_jobs, max_done) in [(defaults.max_jobs, defaults.max_done), (6, 100)] {
            let cfg = ServeConfig {
                machine_nodes: wl.machine_nodes,
                max_jobs,
                max_done,
                ..ServeConfig::default()
            };
            let mut s = ServiceState::new(cfg.clone());
            let (mut resumed, mut rebuilt) = (None, None);
            let mut compared = 0;
            for (seq, (i, ev)) in (1u64..).zip(events.iter().enumerate()) {
                if i == third {
                    let body = codec::encode(&s);
                    resumed = Some(codec::decode::<_, ServiceState>(&body, &cfg).expect("resume"));
                    rebuilt = Some(codec::decode::<_, ServiceState>(&body, &cfg).expect("base"));
                    s.mark();
                }
                if i > third && i <= two_thirds && (i % 200 == 0 || i == two_thirds) {
                    let mut w = Writer::default();
                    s.encode_delta(&mut w);
                    let text = w.finish();
                    let state = rebuilt.as_mut().expect("based a third of the way in");
                    let mut r = Reader::new(&text);
                    state.apply_delta(&mut r).expect("apply delta");
                    r.finish().expect("whole delta read");
                    assert_eq!(state.fingerprint(), s.fingerprint(), "line {i}");
                    assert_eq!(state.live, s.live, "line {i}");
                    assert_eq!(state.done, s.done, "line {i}");
                    s.mark();
                }
                // Queries reach the state only once the reorder buffer
                // releases them, so compare at every query line for the
                // oldest and the newest job queued now.
                if ev.kind == EventKind::Query {
                    let queued: Vec<u32> = s
                        .live
                        .iter()
                        .filter(|(_, id)| s.jobs[*id].phase == Phase::Queued)
                        .map(|(&internal, _)| internal)
                        .collect();
                    for &internal in [queued.first(), queued.last()].into_iter().flatten() {
                        let index: Vec<u32> = ahead_of(&s.jobs, &s.live, internal)
                            .iter()
                            .map(|r| r.job.id.0)
                            .collect();
                        assert_eq!(index, full_scan_ahead(&s, internal), "line {i}");
                        compared += 1;
                    }
                }
                let line = ev.encode();
                let mut out = Vec::new();
                s.ingest_line(seq, &line, &mut out);
                let peers = [
                    resumed.as_mut(),
                    rebuilt.as_mut().filter(|_| i >= two_thirds),
                ];
                for peer in peers.into_iter().flatten() {
                    let mut theirs = Vec::new();
                    peer.ingest_line(seq, &line, &mut theirs);
                    assert_eq!(theirs, out, "line {i}");
                }
            }
            let done = s.jobs.len() - s.live_jobs();
            if max_done == defaults.max_done {
                assert!(done >= 2_000, "only {done} done records");
            } else {
                assert!(
                    s.counters().shed > 0 && s.counters().evicted > 0,
                    "{:?}",
                    s.counters()
                );
            }
            assert!(
                compared >= 200,
                "only {compared} queued selections compared"
            );
            for peer in [&resumed, &rebuilt] {
                let peer = peer.as_ref().expect("resumed");
                assert_eq!(peer.fingerprint(), s.fingerprint());
            }
        }
    }
}
