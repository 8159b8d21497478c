//! Serve's wait answers, locked bit for bit.
//!
//! Every response line the service emits, and the state it ends in, are
//! held to checksums. The response checksums of Smith and Gibbons were
//! captured while serve still resolved its wait questions by hand,
//! before it shared `qpredict_sim::forecast`'s resolution, and
//! Downey's (conditional average) before serve's state held each fact
//! once; the state fingerprints were re-captured when that state format
//! bumped (serve state v5), and Gibbons' and Downey's again when their
//! states bumped (`gibbons-state v4`, `downey-state v4`), which moved no
//! response. Three toy streams,
//! each served by Smith, by Gibbons and by Downey:
//!
//! * `realized_events` in order: the schedule a site on the users'
//!   limits realizes, so no running set exceeds the machine;
//! * the same stream block-shuffled wider than the reorder horizon, so
//!   late queries are applied after starts that come later in time and
//!   see running jobs that started after the query instant;
//! * `synthesize_events`, which is no schedule, served on half the
//!   machine it was drawn for: its running sets exceed the machine and
//!   some of its jobs are wider than it, which exercises the node clamp
//!   and the `serve.oversubscribed` count.
//!
//! A change that moves any response constant changes what serve
//! answers; it must say why, not recapture them. Only a state format
//! change may move a fingerprint.

use qpredict_serve::{PredictorKind, ServeConfig, ServiceState};
use qpredict_workload::{synthesize_events, JobEvent, Rng64};

const HORIZON: usize = 8;

/// One stream served ephemerally: the checksum of every response line,
/// the number of responses and of wait answers, the state's fingerprint,
/// the late-event count and the `serve.oversubscribed` count.
fn serve(predictor: PredictorKind, machine: u32, lines: &[String]) -> [u64; 6] {
    qpredict_obs::reset();
    let mut state = ServiceState::new(ServeConfig {
        predictor,
        machine_nodes: machine,
        horizon: HORIZON,
        ..ServeConfig::default()
    });
    let mut out = Vec::new();
    for (seq, line) in (1u64..).zip(lines) {
        state.ingest_line(seq, line, &mut out);
    }
    state.drain(&mut out);
    let text: String = out
        .iter()
        .map(|r| format!("resp {} {}\n", r.ordinal, r.line))
        .collect();
    let waits = out.iter().filter(|r| r.line.contains(" wait=")).count();
    [
        qpredict_durable::checksum(text.as_bytes()),
        out.len() as u64,
        waits as u64,
        state.fingerprint(),
        state.counters().late,
        qpredict_obs::snapshot().counter("serve.oversubscribed"),
    ]
}

fn encode(events: &[JobEvent]) -> Vec<String> {
    events.iter().map(JobEvent::encode).collect()
}

/// Shuffle disjoint blocks of `block` lines, each by Fisher–Yates.
fn block_shuffle(lines: &mut [String], block: usize, seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    for chunk in lines.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.gen_index(i + 1));
        }
    }
}

#[test]
fn wait_answers_are_locked_bit_for_bit() {
    qpredict_obs::set_recording(true);
    let wl = qpredict_workload::synthetic::toy(600, 16, 5);
    let in_order = encode(&qpredict_sim::realized_events(&wl, 3));
    let mut shuffled = in_order.clone();
    block_shuffle(&mut shuffled, 3 * HORIZON, 7);
    let synthesized = encode(&synthesize_events(&wl, 3));
    // Served on half the machine, the synthesized stream also holds jobs
    // wider than the machine, which the forecast clamps to it.
    let half = wl.machine_nodes / 2;
    assert!(wl.jobs.iter().any(|j| j.nodes > half));
    let streams = [
        ("realized", &in_order, wl.machine_nodes),
        ("shuffled", &shuffled, wl.machine_nodes),
        ("synthesized", &synthesized, half),
    ];
    let want: [[[u64; 6]; 3]; 3] = [
        [
            [0x1B01185DAF414C88, 200, 86, 0x4726BE8A993CF4B3, 0, 0],
            [0x079FE3E0EE545899, 200, 83, 0xBCDD2A58681C8925, 508, 36],
            [0x927F98342F752164, 200, 200, 0x5FC324E8D6F84BB2, 0, 97],
        ],
        [
            [0x4017E04458F011AF, 200, 86, 0x347D7219572AD345, 0, 0],
            [0x9DAA4358CC57783B, 200, 83, 0x35A84CE20DB4EF2A, 508, 36],
            [0x75A7D00D4182BE66, 200, 200, 0xC0D41DB68491AC84, 0, 97],
        ],
        [
            [0x7BDBDC606493B535, 200, 86, 0x527A44F01D4756BA, 0, 0],
            [0xBAFA92BD43515A1C, 200, 83, 0x9EE77A3F07309F5F, 508, 36],
            [0x132485D41CCEED50, 200, 200, 0xBDDCCE0EB068B35E, 0, 97],
        ],
    ];
    let predictors = [
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyAverage,
    ];
    for (predictor, want) in predictors.into_iter().zip(want) {
        for ((stream, lines, machine), want) in streams.iter().zip(want) {
            let row = serve(predictor.clone(), *machine, lines);
            let [_, _, waits, _, late, oversubscribed] = row;
            let name = predictor.name();
            assert!(waits >= 60, "{name} {stream}: {waits} wait answers");
            match *stream {
                "realized" => assert_eq!((late, oversubscribed), (0, 0), "{name} {stream}"),
                "shuffled" => assert!(late > 0, "{name} {stream}: no late events"),
                _ => assert!(oversubscribed > 0, "{name} {stream}: never oversubscribed"),
            }
            assert_eq!(row, want, "{name} {stream}");
        }
    }
}
