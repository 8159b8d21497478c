//! Inputs built from the workload seed: site-model workloads and the
//! serve event stream.

use qpredict_sim::{Algorithm, MaxRuntimeEstimator, Simulation};
use qpredict_workload::synthetic::{generate, SiteSpec};
use qpredict_workload::{synthesize_events, Dur, EventKind, JobEvent, Rng64, Time, Workload};

/// SplitMix64 finalizer: spreads a small benchmark seed over all bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Latest seeded delay added to each submission, seconds.
const SUBMIT_JITTER_S: i64 = 300;
/// Largest seeded relative change to each run time.
const RUNTIME_JITTER: f64 = 0.05;

/// Replica `replica` of the site model `spec` at `jobs` jobs, seeded.
///
/// The trace is the site model's own draw (its built-in seed), and the
/// benchmark seed perturbs it: every submission is delayed by 0 to 5
/// minutes and every run time scaled by up to ±5% (capped at the job's
/// limit). A fresh site-model draw per seed is a different site: across
/// eight draws of the CTC model, backfill + Smith ran at 20k to 82k
/// jobs/s with mean waits of 0.25 to 88 minutes, which would swamp any
/// change the benchmark is meant to show. A replica keeps the site's
/// load and burst structure while every seed still gives other inputs
/// and other answers. The site name is kept, so the searched template
/// set applies.
pub fn site_workload(spec: SiteSpec, jobs: usize, seed: u64, replica: u64) -> Workload {
    let mut wl = generate(&spec.with_jobs(jobs));
    let mut rng = Rng64::seed_from_u64(mix(mix(seed).wrapping_add(replica)));
    for j in &mut wl.jobs {
        j.submit = Time(j.submit.0 + rng.gen_range_i64(0, SUBMIT_JITTER_S));
        let scale = 1.0 + rng.gen_range_f64(-RUNTIME_JITTER, RUNTIME_JITTER);
        let runtime = Dur(((j.runtime.0 as f64) * scale).round().max(1.0) as i64);
        j.runtime = j.max_runtime.map_or(runtime, |limit| runtime.min(limit));
    }
    wl.finalize();
    wl
}

/// The serve workload's input: an event stream replaying a realized
/// schedule, plus what each query's answer is scored against.
#[derive(Clone)]
pub struct Stream {
    /// Encoded event lines, in canonical apply order.
    pub lines: Vec<String>,
    /// Jobs whose lifecycle the stream carries.
    pub jobs: usize,
    /// Machine size of the site the stream came from.
    pub machine_nodes: u32,
    /// Realized wait (seconds) of each queried job, by external id.
    pub realized_wait: std::collections::HashMap<u64, i64>,
    /// Queries in the stream.
    pub queries: usize,
}

/// Build the serve stream from `wl`: schedule it with backfill on
/// maximum run times (as the paper's sites did), then emit each job's
/// submit at its trace submit time, start and finish at the schedule's
/// realized instants, and a wait query at submission for every
/// `query_every`-th job. Submissions reuse the workload layer's event
/// encoding, so characteristics are spelled the way `serve` parses them.
pub fn serve_stream(wl: &Workload, query_every: usize) -> Stream {
    let mut belief = MaxRuntimeEstimator::from_workload(wl);
    let schedule = Simulation::run(wl, Algorithm::Backfill, &mut belief);
    let mut events: Vec<JobEvent> = synthesize_events(wl, 0)
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::Submit(_)))
        .collect();
    let mut realized_wait = std::collections::HashMap::new();
    for (i, o) in schedule.outcomes.iter().enumerate() {
        let id = o.id.0 as u64 + 1;
        events.push(JobEvent {
            id,
            time: o.start,
            kind: EventKind::Start,
        });
        events.push(JobEvent {
            id,
            time: o.finish,
            kind: EventKind::Finish { runtime: None },
        });
        if i % query_every == 0 {
            events.push(JobEvent {
                id,
                time: o.submit,
                kind: EventKind::Query,
            });
            realized_wait.insert(id, o.start.since(o.submit).0);
        }
    }
    events.sort_by_key(JobEvent::sort_key);
    Stream {
        lines: events.iter().map(JobEvent::encode).collect(),
        jobs: wl.len(),
        machine_nodes: wl.machine_nodes,
        queries: realized_wait.len(),
        realized_wait,
    }
}
