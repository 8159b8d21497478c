//! Oracle test: the lazy backfill pass must place every job exactly where
//! the eager construction does, on seeded random scheduler views.
//!
//! The eager construction builds the availability profile first and then
//! walks the queue in arrival order; `backfill_pass` starts the fitting
//! prefix without a profile and builds one only at the first job that
//! must wait. The inputs cover queues that all fit, none fit or partly
//! fit (with exact fits of the nodes the prefix leaves), machine-wide
//! jobs and jobs wider than the machine, running jobs at or past their
//! predicted end, oversubscribed running sets and tied ends, under both
//! conservative and EASY backfill.

use qpredict_sim::scheduler::backfill_pass;
use qpredict_sim::{Profile, QueueEntry, RunningView};
use qpredict_workload::{Dur, JobId, Rng64, Time};

/// The eager construction: profile first, then the arrival-order loop.
fn eager_pass(
    now: Time,
    machine_nodes: u32,
    running: &[RunningView],
    queue: &[QueueEntry],
    easy: bool,
) -> Vec<(usize, Time)> {
    let pairs: Vec<(u32, Time)> = running.iter().map(|r| (r.nodes, r.pred_end)).collect();
    let mut profile = Profile::new(machine_nodes, now, &pairs);
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by_key(|&i| queue[i].seq);
    let mut placed = Vec::new();
    let mut reserved = false;
    for i in order {
        let nodes = queue[i].nodes.min(machine_nodes);
        let dur = queue[i].pred_runtime.max(Dur::SECOND);
        let at = profile.earliest_fit(nodes, dur);
        if at == now || !easy || !reserved {
            profile.reserve(at, dur, nodes);
            reserved |= at != now;
            placed.push((i, at));
        }
    }
    placed
}

struct View {
    machine: u32,
    now: Time,
    running: Vec<RunningView>,
    queue: Vec<QueueEntry>,
}

/// What a view exercises, counted over the run.
#[derive(Default, Debug)]
struct Coverage {
    all_fit: usize,
    none_fit: usize,
    partial: usize,
    exact_fits: usize,
    oversubscribed: usize,
    clamped: usize,
    machine_wide: usize,
    past_end: usize,
}

/// A seeded random view: a machine of 1–48 nodes, a running set that
/// fits it or (sometimes) oversubscribes it, and 1–12 queued jobs given
/// in shuffled order, some wider than the machine or with no run time. Ends and durations come from a coarse grid, so
/// they tie often.
fn random_view(rng: &mut Rng64, cov: &mut Coverage) -> View {
    let machine = 1 + rng.gen_index(48) as u32;
    let now = Time(rng.gen_range_i64(0, 1_000));
    let oversubscribe = rng.gen_bool(0.1);
    let cap = if oversubscribe { 2 * machine } else { machine };
    let mut running = Vec::new();
    let mut used = 0u32;
    if rng.gen_bool(0.1) {
        running.push(RunningView {
            nodes: machine,
            pred_end: now + Dur(10 * rng.gen_range_i64(1, 12)),
        });
        used = machine;
    }
    while used < cap && rng.gen_bool(0.7) {
        let nodes = 1 + rng.gen_index((cap - used) as usize) as u32;
        let pred_end = match rng.gen_index(4) {
            0 => now + Dur(10 * rng.gen_range_i64(1, 12)),
            1 => {
                cov.past_end += 1;
                now - Dur(rng.gen_range_i64(0, 30))
            }
            _ => now + Dur(rng.gen_range_i64(1, 120)),
        };
        running.push(RunningView { nodes, pred_end });
        used += nodes;
    }
    if used > machine {
        cov.oversubscribed += 1;
    }
    let free = machine.saturating_sub(used);
    // Generate in arrival order, so `left` is what the arrival-order
    // prefix leaves free, then shuffle the slice. A third of the queues
    // draw from what is left, so they mostly fit.
    let small = rng.gen_bool(0.35);
    let mut left = Some(free);
    let mut queue: Vec<QueueEntry> = (0..1 + rng.gen_index(12))
        .map(|k| {
            let nodes = match rng.gen_index(6) {
                0 if left.is_some_and(|l| l > 0) => left.expect("checked"),
                _ if small && left.is_some_and(|l| l > 0) => {
                    1 + rng.gen_index(left.expect("checked") as usize) as u32
                }
                1 => machine,
                2 => machine + 1 + rng.gen_index(machine as usize) as u32,
                _ => 1 + rng.gen_index(machine as usize) as u32,
            };
            match left {
                Some(l) if nodes.min(machine) <= l => {
                    if nodes.min(machine) == l {
                        cov.exact_fits += 1;
                    }
                    left = Some(l - nodes.min(machine));
                }
                _ => left = None,
            }
            if nodes > machine {
                cov.clamped += 1;
            } else if nodes == machine {
                cov.machine_wide += 1;
            }
            let pred_runtime = if rng.gen_bool(0.1) {
                Dur::ZERO
            } else {
                Dur(10 * rng.gen_range_i64(1, 12))
            };
            QueueEntry {
                id: JobId(100 + k as u32),
                seq: k as u64,
                nodes,
                pred_runtime,
            }
        })
        .collect();
    for i in (1..queue.len()).rev() {
        queue.swap(i, rng.gen_index(i + 1));
    }
    match prefix_len(&queue, free, machine) {
        0 => cov.none_fit += 1,
        n if n == queue.len() => cov.all_fit += 1,
        _ => cov.partial += 1,
    }
    View {
        machine,
        now,
        running,
        queue,
    }
}

/// Length of the arrival-order prefix that fits in `free` nodes.
fn prefix_len(queue: &[QueueEntry], free: u32, machine: u32) -> usize {
    let mut order: Vec<&QueueEntry> = queue.iter().collect();
    order.sort_by_key(|e| e.seq);
    let mut left = free;
    order
        .iter()
        .take_while(|e| {
            let fits = e.nodes.min(machine) <= left;
            if fits {
                left -= e.nodes.min(machine);
            }
            fits
        })
        .count()
}

#[test]
fn lazy_backfill_pass_matches_the_eager_construction() {
    qpredict_obs::set_recording(true);
    let mut cov = Coverage::default();
    for seed in 0..4_000u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let v = random_view(&mut rng, &mut cov);
        let used: u32 = v.running.iter().map(|r| r.nodes).sum();
        let prefix = prefix_len(&v.queue, v.machine.saturating_sub(used), v.machine);
        for easy in [false, true] {
            qpredict_obs::reset();
            let lazy = backfill_pass(v.now, v.machine, &v.running, &v.queue, easy);
            let profiles = qpredict_obs::snapshot().counter("sim.backfill_profiles");
            let eager = eager_pass(v.now, v.machine, &v.running, &v.queue, easy);
            assert_eq!(lazy, eager, "seed {seed}, easy {easy}");
            assert_eq!(
                profiles,
                u64::from(prefix < v.queue.len()),
                "seed {seed}, easy {easy}: a profile is built exactly when a job must wait"
            );
        }
    }
    qpredict_obs::set_recording(false);
    for (what, n) in [
        ("all-fit queues", cov.all_fit),
        ("none-fit queues", cov.none_fit),
        ("partly fitting queues", cov.partial),
        ("exact fits", cov.exact_fits),
        ("oversubscribed running sets", cov.oversubscribed),
        ("clamped wide jobs", cov.clamped),
        ("machine-wide jobs", cov.machine_wide),
        ("running jobs past their end", cov.past_end),
    ] {
        assert!(n >= 100, "only {n} {what}: {cov:?}");
    }
}
