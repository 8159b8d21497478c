//! Job *events*: the streaming counterpart of a batch [`Workload`].
//!
//! A batch trace records each job once, with everything known after the
//! fact. A live service instead sees a stream of per-job events —
//! submission, start, completion, cancellation — interleaved with
//! wait-time queries, possibly duplicated, disordered, or late. This
//! module defines that event model and a line-oriented text codec for
//! event logs (one event per line, `#` comments), used by the serve
//! crate's WAL and by fixtures.
//!
//! ```text
//! submit <id> <t> nodes=<n> [limit=<secs>] [u=<val>] [e=<val>] [q=<val>] ...
//! start <id> <t>
//! finish <id> <t> [rt=<secs>]
//! cancel <id> <t>
//! query <id> <t>
//! ```
//!
//! `<id>` is the producer's external job identifier (any `u64`); `<t>`
//! is integer seconds. Characteristic values on `submit` lines use the
//! [`Characteristic::abbrev`] single-letter keys from the paper's
//! Table 2 and must be whitespace-free. A `finish` without `rt=` means
//! the run time is `t - start_time`; with `rt=` the producer asserts the
//! exact run time (the two disagree only in disordered streams). A
//! `query` asks the service for the predicted queue wait of job `<id>`
//! at time `<t>`.

use qpredict_durable::codec::decimal_digits;
use qpredict_durable::{Codec, CodecError, Reader, Writer};

use crate::job::{Characteristic, Job, CHARACTERISTICS};
use crate::time::{Dur, Time};
use crate::workload::Workload;

/// The submit-time facts about a job, as the service learns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Nodes requested.
    pub nodes: u32,
    /// Requested maximum run time, when the site records one.
    pub limit: Option<Dur>,
    /// Characteristic values (user, executable, queue, …) as strings;
    /// the service interns them into its own symbol table.
    pub chars: Vec<(Characteristic, String)>,
}

/// What happened (or is being asked) about one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The job entered the queue.
    Submit(SubmitSpec),
    /// The job began running.
    Start,
    /// The job completed. `runtime` overrides the `start`-derived run
    /// time when the producer asserts it (e.g. replayed accounting logs).
    Finish {
        /// Producer-asserted run time, if any.
        runtime: Option<Dur>,
    },
    /// The job left the queue (or was killed) without a usable run time.
    Cancel,
    /// Ask for the job's predicted queue wait time.
    Query,
}

impl EventKind {
    /// Canonical ordering rank of this kind *within one timestamp*:
    /// lifecycle transitions apply in causal order and queries observe
    /// the post-transition state. This rank is part of the reorder
    /// buffer's sort key, so any arrival order inside the reorder
    /// horizon converges to one canonical apply order.
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::Submit(_) => 0,
            EventKind::Start => 1,
            EventKind::Finish { .. } => 2,
            EventKind::Cancel => 3,
            EventKind::Query => 4,
        }
    }

    /// The codec keyword (`submit`, `start`, …).
    pub fn keyword(&self) -> &'static str {
        match self {
            EventKind::Submit(_) => "submit",
            EventKind::Start => "start",
            EventKind::Finish { .. } => "finish",
            EventKind::Cancel => "cancel",
            EventKind::Query => "query",
        }
    }
}

/// One event in a job stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEvent {
    /// The producer's external job identifier.
    pub id: u64,
    /// When the event happened (producer clock, integer seconds).
    pub time: Time,
    /// What happened.
    pub kind: EventKind,
}

/// Stored as one string token holding its event-log line.
impl Codec for JobEvent {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.encode());
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<JobEvent, CodecError> {
        let line = r.str()?;
        JobEvent::parse(&line).map_err(|e| r.error(format!("bad event {line:?}: {e}")))
    }
}

impl JobEvent {
    /// The canonical apply-order key: time, then external id, then
    /// lifecycle rank. Total and deterministic, so sorting any
    /// permutation of a set of events yields one order.
    pub fn sort_key(&self) -> (i64, u64, u8) {
        (self.time.0, self.id, self.kind.rank())
    }

    /// Serialize to one codec line (no trailing newline). Integers are
    /// rendered through [`decimal_digits`] into one buffer allocated at
    /// the line's exact length; the bytes are those of the `format!`
    /// rendering.
    pub fn encode(&self) -> String {
        let mut len = self.kind.keyword().len() + 2 + u64_len(self.id) + i64_len(self.time.0);
        match &self.kind {
            EventKind::Submit(spec) => {
                len += " nodes=".len() + u64_len(spec.nodes.into());
                len += spec.limit.map_or(0, |l| " limit=".len() + i64_len(l.0));
                len += spec
                    .chars
                    .iter()
                    .map(|(c, v)| 2 + c.abbrev().len() + v.len())
                    .sum::<usize>();
            }
            EventKind::Finish { runtime: Some(rt) } => len += " rt=".len() + i64_len(rt.0),
            _ => {}
        }
        let mut line = Vec::with_capacity(len);
        line.extend_from_slice(self.kind.keyword().as_bytes());
        line.push(b' ');
        push_u64(&mut line, self.id);
        line.push(b' ');
        push_i64(&mut line, self.time.0);
        match &self.kind {
            EventKind::Submit(spec) => {
                line.extend_from_slice(b" nodes=");
                push_u64(&mut line, spec.nodes.into());
                if let Some(limit) = spec.limit {
                    line.extend_from_slice(b" limit=");
                    push_i64(&mut line, limit.0);
                }
                for (c, v) in &spec.chars {
                    line.push(b' ');
                    line.extend_from_slice(c.abbrev().as_bytes());
                    line.push(b'=');
                    line.extend_from_slice(v.as_bytes());
                }
            }
            EventKind::Finish { runtime: Some(rt) } => {
                line.extend_from_slice(b" rt=");
                push_i64(&mut line, rt.0);
            }
            _ => {}
        }
        debug_assert_eq!(line.len(), len, "the line's length is counted exactly");
        String::from_utf8(line).expect("an event line is keywords, digits and UTF-8 values")
    }

    /// Parse one codec line. Returns a one-line reason on failure; never
    /// panics on arbitrary input.
    pub fn parse(line: &str) -> Result<JobEvent, String> {
        let mut words = line.split_whitespace();
        let keyword = words.next().ok_or("empty event line")?;
        let id = words
            .next()
            .ok_or("missing job id")?
            .parse::<u64>()
            .map_err(|e| format!("bad job id: {e}"))?;
        let time = Time(
            words
                .next()
                .ok_or("missing timestamp")?
                .parse::<i64>()
                .map_err(|e| format!("bad timestamp: {e}"))?,
        );
        let kind = match keyword {
            "submit" => {
                let mut nodes = None;
                let mut limit = None;
                let mut chars = Vec::new();
                for word in words {
                    let (key, value) = word
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value, found {word:?}"))?;
                    match key {
                        "nodes" => {
                            nodes = Some(
                                value
                                    .parse::<u32>()
                                    .map_err(|e| format!("bad nodes: {e}"))?,
                            )
                        }
                        "limit" => {
                            let secs = value
                                .parse::<i64>()
                                .map_err(|e| format!("bad limit: {e}"))?;
                            if secs <= 0 {
                                return Err(format!("non-positive limit {secs}"));
                            }
                            limit = Some(Dur(secs));
                        }
                        other => {
                            let c = Characteristic::from_abbrev(other)
                                .ok_or_else(|| format!("unknown submit key {other:?}"))?;
                            if chars.iter().any(|(seen, _)| *seen == c) {
                                return Err(format!("characteristic {other:?} repeated"));
                            }
                            if value.is_empty() {
                                return Err(format!("empty value for {other:?}"));
                            }
                            chars.push((c, value.to_string()));
                        }
                    }
                }
                let nodes = nodes.ok_or("submit needs nodes=")?;
                if nodes == 0 {
                    return Err("submit with nodes=0".into());
                }
                EventKind::Submit(SubmitSpec {
                    nodes,
                    limit,
                    chars,
                })
            }
            "start" | "cancel" | "query" if words.next().is_some() => {
                return Err(format!("{keyword} takes no extra fields"));
            }
            "start" => EventKind::Start,
            "cancel" => EventKind::Cancel,
            "query" => EventKind::Query,
            "finish" => {
                let mut runtime = None;
                for word in words {
                    let value = word
                        .strip_prefix("rt=")
                        .ok_or_else(|| format!("unknown finish field {word:?}"))?;
                    let secs = value
                        .parse::<i64>()
                        .map_err(|e| format!("bad run time: {e}"))?;
                    if secs <= 0 {
                        return Err(format!("non-positive run time {secs}"));
                    }
                    runtime = Some(Dur(secs));
                }
                EventKind::Finish { runtime }
            }
            other => return Err(format!("unknown event keyword {other:?}")),
        };
        Ok(JobEvent { id, time, kind })
    }
}

/// The number of decimal digits of `v`.
fn u64_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The length of `v` in decimal, sign included.
fn i64_len(v: i64) -> usize {
    usize::from(v < 0) + u64_len(v.unsigned_abs())
}

/// Append the decimal digits of `v`.
fn push_u64(line: &mut Vec<u8>, v: u64) {
    line.extend_from_slice(decimal_digits(v, &mut [0; 20]));
}

/// Append `v` in decimal, with a leading `-` when negative.
fn push_i64(line: &mut Vec<u8>, v: i64) {
    if v < 0 {
        line.push(b'-');
    }
    push_u64(line, v.unsigned_abs());
}

/// The submission of `job`, a job of `w`, at its trace submit time, with
/// external id `job.id + 1` and its characteristics spelled as `serve`
/// parses them.
pub fn submit_event(w: &Workload, job: &Job) -> JobEvent {
    let chars = CHARACTERISTICS
        .into_iter()
        .filter_map(|c| Some((c, w.symbols.resolve(job.chars[c.index()]?).to_string())))
        .collect();
    JobEvent {
        id: job.id.0 as u64 + 1,
        time: job.submit,
        kind: EventKind::Submit(SubmitSpec {
            nodes: job.nodes,
            limit: job.max_runtime,
            chars,
        }),
    }
}

/// Derive a deterministic event stream from a batch workload, for
/// fixtures and benches: each job submits at its trace submit time,
/// starts after a small deterministic queue delay, and finishes after
/// its recorded run time; every `query_every`-th job gets a wait-time
/// query one second after submission. Events come back in canonical
/// [`JobEvent::sort_key`] order. This is *not* a valid schedule for any
/// particular machine — it exercises the service, not the scheduler;
/// `qpredict_sim::realized_events` builds the stream of a real schedule.
pub fn synthesize_events(w: &Workload, query_every: usize) -> Vec<JobEvent> {
    let mut events = Vec::with_capacity(w.jobs.len() * 3 + w.jobs.len() / query_every.max(1));
    for (i, job) in w.jobs.iter().enumerate() {
        let id = job.id.0 as u64 + 1;
        events.push(submit_event(w, job));
        if query_every > 0 && i % query_every == 0 {
            events.push(JobEvent {
                id,
                time: Time(job.submit.0 + 1),
                kind: EventKind::Query,
            });
        }
        let start = Time(job.submit.0 + 2 + (i as i64 % 7) * 30);
        events.push(JobEvent {
            id,
            time: start,
            kind: EventKind::Start,
        });
        events.push(JobEvent {
            id,
            time: Time(start.0 + job.runtime.0),
            kind: EventKind::Finish { runtime: None },
        });
    }
    events.sort_by_key(|e| e.sort_key());
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    fn sample_events() -> Vec<JobEvent> {
        vec![
            JobEvent {
                id: 7,
                time: Time(100),
                kind: EventKind::Submit(SubmitSpec {
                    nodes: 16,
                    limit: Some(Dur(3600)),
                    chars: vec![
                        (Characteristic::User, "wsmith".into()),
                        (Characteristic::Queue, "q16m".into()),
                    ],
                }),
            },
            JobEvent {
                id: 7,
                time: Time(160),
                kind: EventKind::Start,
            },
            JobEvent {
                id: 7,
                time: Time(200),
                kind: EventKind::Query,
            },
            JobEvent {
                id: 7,
                time: Time(760),
                kind: EventKind::Finish {
                    runtime: Some(Dur(600)),
                },
            },
            JobEvent {
                id: 8,
                time: Time(760),
                kind: EventKind::Finish { runtime: None },
            },
            JobEvent {
                id: 9,
                time: Time(800),
                kind: EventKind::Cancel,
            },
        ]
    }

    #[test]
    fn encode_parse_round_trips() {
        for event in sample_events() {
            let line = event.encode();
            let back = JobEvent::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(event, back, "{line:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        for bad in [
            "",
            "launch 1 5",
            "submit x 5 nodes=4",
            "submit 1 notatime nodes=4",
            "submit 1 5",
            "submit 1 5 nodes=0",
            "submit 1 5 nodes=4 limit=0",
            "submit 1 5 nodes=4 zz=9",
            "submit 1 5 nodes=4 u=a u=b",
            "submit 1 5 nodes=4 u=",
            "submit 1 5 nodes=4 banana",
            "start 1 5 extra=1",
            "finish 1 5 rt=0",
            "finish 1 5 wat=3",
            "query 1 5 extra",
        ] {
            assert!(JobEvent::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sort_key_orders_lifecycle_within_a_timestamp() {
        let mut events = sample_events();
        events.reverse();
        events.sort_by_key(|e| e.sort_key());
        let ranks: Vec<(i64, u64, u8)> = events.iter().map(|e| e.sort_key()).collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted);
        // Same (time, id): submit < start < finish < cancel < query.
        assert!(
            EventKind::Submit(SubmitSpec {
                nodes: 1,
                limit: None,
                chars: vec![]
            })
            .rank()
                < EventKind::Start.rank()
        );
        assert!(EventKind::Start.rank() < EventKind::Finish { runtime: None }.rank());
        assert!(EventKind::Finish { runtime: None }.rank() < EventKind::Cancel.rank());
        assert!(EventKind::Cancel.rank() < EventKind::Query.rank());
    }

    #[test]
    fn synthesized_stream_is_canonical_and_complete() {
        let w = synthetic::toy(120, 64, 42);
        let events = synthesize_events(&w, 10);
        let keys: Vec<_> = events.iter().map(|e| e.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "stream must be in canonical order");
        let submits = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Submit(_)))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Finish { .. }))
            .count();
        let queries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Query))
            .count();
        assert_eq!(submits, 120);
        assert_eq!(finishes, 120);
        assert_eq!(queries, 12);
        // Every line survives the codec.
        for e in &events {
            assert_eq!(JobEvent::parse(&e.encode()).unwrap(), *e);
        }
    }
}
