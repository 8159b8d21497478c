//! Differential test: the event codec renders and reads lines exactly
//! as the `format!`-based codec it replaced.
//!
//! `format_encode` and `format_parse` below are that codec, kept
//! verbatim as the reference. Every event of `synthesize_events` on the
//! four site models (with queries), plus finishes with `rt=`, negative
//! times and limits, `u64::MAX` ids and extreme integers, must encode to
//! the same bytes and read back to itself; every line of a malformed
//! corpus, and every prefix of the valid lines, must give the same
//! result, error string included.

use std::fmt::Write as _;

use qpredict_workload::synthetic::sites;
use qpredict_workload::{
    synthesize_events, Characteristic, Dur, EventKind, JobEvent, SubmitSpec, Time, CHARACTERISTICS,
};

/// The `format!` rendering the codec replaced.
fn format_encode(e: &JobEvent) -> String {
    let mut s = format!("{} {} {}", e.kind.keyword(), e.id, e.time.0);
    match &e.kind {
        EventKind::Submit(spec) => {
            let _ = write!(s, " nodes={}", spec.nodes);
            if let Some(limit) = spec.limit {
                let _ = write!(s, " limit={}", limit.0);
            }
            for (c, v) in &spec.chars {
                let _ = write!(s, " {}={}", c.abbrev(), v);
            }
        }
        EventKind::Finish { runtime: Some(rt) } => {
            let _ = write!(s, " rt={}", rt.0);
        }
        _ => {}
    }
    s
}

/// The parser the codec replaced, which collected the words after the
/// timestamp into a `Vec`.
fn format_parse(line: &str) -> Result<JobEvent, String> {
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
    let rest: Vec<&str> = words.collect();
    let kind = match keyword {
        "submit" => {
            let mut nodes = None;
            let mut limit = None;
            let mut chars = Vec::new();
            for word in &rest {
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
        "start" | "cancel" | "query" if !rest.is_empty() => {
            return Err(format!("{keyword} takes no extra fields"));
        }
        "start" => EventKind::Start,
        "cancel" => EventKind::Cancel,
        "query" => EventKind::Query,
        "finish" => {
            let mut runtime = None;
            for word in &rest {
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

/// Events beyond what the site streams hold: every kind at extreme ids
/// and times, signed limits and run times, and submits with every
/// characteristic.
fn edge_events() -> Vec<JobEvent> {
    let ints = [
        0i64,
        1,
        9,
        10,
        99,
        100,
        -1,
        -10,
        -100,
        i64::MAX,
        i64::MIN,
        -12_345,
    ];
    let ids = [0u64, 1, 10, u64::MAX, u64::MAX - 1, 1 << 63];
    let mut events = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        for &t in &ints {
            for kind in [
                EventKind::Start,
                EventKind::Cancel,
                EventKind::Query,
                EventKind::Finish { runtime: None },
                EventKind::Finish {
                    runtime: Some(Dur(ints[(k + 3) % ints.len()])),
                },
                EventKind::Submit(SubmitSpec {
                    nodes: [0, 1, 64, u32::MAX][k % 4],
                    limit: Some(Dur(t)),
                    chars: vec![
                        (Characteristic::User, format!("user{k}")),
                        (Characteristic::Queue, "q-ü".into()),
                    ],
                }),
                EventKind::Submit(SubmitSpec {
                    nodes: 1 + k as u32,
                    limit: None,
                    chars: CHARACTERISTICS
                        .iter()
                        .map(|&c| (c, format!("{}{t}", c.abbrev())))
                        .collect(),
                }),
            ] {
                events.push(JobEvent {
                    id,
                    time: Time(t),
                    kind,
                });
            }
        }
    }
    events
}

/// Lines the reader must refuse (or accept) exactly as the old one did.
const MALFORMED: &[&str] = &[
    "",
    "   ",
    "launch 1 5",
    "submit",
    "submit 1",
    "submit x 5 nodes=4",
    "submit -1 5 nodes=4",
    "submit 18446744073709551616 5 nodes=4",
    "submit 1 notatime nodes=4",
    "submit 1 9223372036854775808 nodes=4",
    "submit 1 5",
    "submit 1 5 nodes=0",
    "submit 1 5 nodes=-3",
    "submit 1 5 nodes=4294967296",
    "submit 1 5 nodes=4 limit=0",
    "submit 1 5 nodes=4 limit=-7",
    "submit 1 5 nodes=4 limit=x",
    "submit 1 5 nodes=4 zz=9",
    "submit 1 5 nodes=4 u=a u=b",
    "submit 1 5 nodes=4 u=",
    "submit 1 5 nodes=4 =x",
    "submit 1 5 nodes=4 banana",
    "submit 1 5 nodes=4 nodes=5",
    "submit 1 5 limit=3 nodes=4 q=a=b",
    "  submit\t1   5 nodes=4\tq=x  ",
    "start 1 5 extra=1",
    "start 1 5 ",
    "cancel 1 5 x",
    "finish 1 5 rt=0",
    "finish 1 5 rt=",
    "finish 1 5 rt=-4",
    "finish 1 5 rt=3 rt=4",
    "finish 1 5 wat=3",
    "query 1 5 extra",
    "query",
    "query 1",
];

#[test]
fn table_codec_equals_the_formatter_codec() {
    let mut lines = 0;
    for site in ["ANL", "CTC", "SDSC95", "SDSC96"] {
        let wl = sites::by_name(site, Some(2_000)).expect("site model");
        let mut events = synthesize_events(&wl, 5);
        // Producer-asserted run times on every third finish.
        for (k, e) in events.iter_mut().enumerate() {
            if let EventKind::Finish { runtime } = &mut e.kind {
                if k % 3 == 0 {
                    *runtime = Some(Dur(1 + k as i64));
                }
            }
        }
        assert!(events.iter().any(|e| e.kind == EventKind::Query));
        for e in &events {
            let line = e.encode();
            assert_eq!(line, format_encode(e), "{site}");
            assert_eq!(JobEvent::parse(&line).as_ref(), Ok(e), "{site}: {line:?}");
            assert_eq!(JobEvent::parse(&line), format_parse(&line), "{site}");
            lines += 1;
        }
    }
    for e in edge_events() {
        let line = e.encode();
        assert_eq!(line, format_encode(&e));
        let parsed = JobEvent::parse(&line);
        assert_eq!(parsed, format_parse(&line), "{line:?}");
        if let Ok(back) = parsed {
            assert_eq!(back, e, "{line:?}");
        }
        // Every prefix of the line, at character boundaries.
        for (cut, _) in line.char_indices() {
            assert_eq!(JobEvent::parse(&line[..cut]), format_parse(&line[..cut]));
        }
        lines += 1;
    }
    for bad in MALFORMED {
        assert_eq!(JobEvent::parse(bad), format_parse(bad), "{bad:?}");
    }
    assert!(lines > 25_000, "only {lines} lines compared");
}
