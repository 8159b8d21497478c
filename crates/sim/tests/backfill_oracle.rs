//! Oracle tests for the backfill [`Planner`].
//!
//! `backfill_pass` below is the one-shot lazy pass the engine used to
//! build on every pass: sort the queue by arrival, start the fitting
//! prefix without a profile, build a profile at the first job that must
//! wait. It is kept here as the from-scratch reference. `eager_pass` is
//! the construction both are measured against: profile first, then the
//! arrival-order loop.
//!
//! * `lazy_backfill_pass_matches_the_eager_construction` holds one
//!   planner pass, and the reference, to the eager construction on
//!   seeded random views: queues that all fit, none fit or partly fit
//!   (with exact fits of the nodes the prefix leaves), machine-wide jobs
//!   and jobs wider than the machine, running jobs at or past their
//!   predicted end, oversubscribed running sets and tied ends, under
//!   both conservative and EASY backfill.
//! * `planner_sequences_match_from_scratch_passes` drives one planner
//!   through seeded event sequences and holds every pass's placements to
//!   a from-scratch `backfill_pass` on the same views, so a plan the
//!   planner carries forward is held to the plan it replaces.

use std::sync::Mutex;

use qpredict_sim::{Algorithm, Planner, Profile, QueueEntry, RunningView};
use qpredict_workload::{Dur, JobId, Rng64, Time};

/// The recording flag is process-global: the tests that read counters
/// take turns.
static RECORDING: Mutex<()> = Mutex::new(());

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

/// The from-scratch lazy pass: `(index into queue, placement)` for every
/// job that starts or receives a reservation, in arrival order. The
/// queue may come in any order.
fn backfill_pass(
    now: Time,
    machine_nodes: u32,
    running: &[RunningView],
    queue: &[QueueEntry],
    easy: bool,
) -> Vec<(usize, Time)> {
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by_key(|&i| queue[i].seq);
    let request = |i: usize| {
        let e = &queue[i];
        (e.nodes.min(machine_nodes), e.pred_runtime.max(Dur::SECOND))
    };

    let used: u64 = running.iter().map(|r| r.nodes as u64).sum();
    let mut free = machine_nodes.saturating_sub(used.min(u32::MAX as u64) as u32);
    let mut placed = Vec::new();
    for &i in &order {
        let (nodes, _) = request(i);
        if nodes > free {
            break;
        }
        free -= nodes;
        placed.push((i, now));
    }
    if placed.len() == order.len() {
        return placed;
    }

    let running_pairs: Vec<(u32, Time)> = running.iter().map(|r| (r.nodes, r.pred_end)).collect();
    let mut profile = Profile::new(machine_nodes, now, &running_pairs);
    for &(i, _) in &placed {
        let (nodes, dur) = request(i);
        profile.reserve(now, dur, nodes);
    }
    let mut reserved = false;
    for &i in &order[placed.len()..] {
        let (nodes, dur) = request(i);
        let at = profile.earliest_fit(nodes, dur);
        if at == now || !easy || !reserved {
            profile.reserve(at, dur, nodes);
            reserved |= at != now;
            placed.push((i, at));
        }
    }
    placed
}

/// One pass of `planner` at `now`: its placements.
fn plan(
    planner: &mut Planner,
    now: Time,
    running: &[RunningView],
    queue: &[QueueEntry],
) -> Vec<(usize, Time)> {
    planner.begin(now);
    running.iter().for_each(|&r| planner.push_running(r));
    queue.iter().for_each(|&e| planner.push_queued(e));
    planner.plan().to_vec()
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
/// in shuffled order, some wider than the machine or with no run time.
/// Ends and durations come from a coarse grid, so they tie often.
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
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    let mut cov = Coverage::default();
    for seed in 0..4_000u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let v = random_view(&mut rng, &mut cov);
        let used: u32 = v.running.iter().map(|r| r.nodes).sum();
        let prefix = prefix_len(&v.queue, v.machine.saturating_sub(used), v.machine);
        // The planner takes the queue in arrival order; the references
        // take the shuffled view. Compare placements by job.
        let mut arrival = v.queue.clone();
        arrival.sort_by_key(|e| e.seq);
        let by_job = |queue: &[QueueEntry], placed: Vec<(usize, Time)>| -> Vec<(JobId, Time)> {
            placed
                .into_iter()
                .map(|(i, at)| (queue[i].id, at))
                .collect()
        };
        for (alg, easy) in [
            (Algorithm::Backfill, false),
            (Algorithm::EasyBackfill, true),
        ] {
            qpredict_obs::reset();
            let mut planner = Planner::new(alg, v.machine);
            let planned = by_job(&arrival, plan(&mut planner, v.now, &v.running, &arrival));
            let profiles = qpredict_obs::snapshot().counter("sim.backfill_profiles");
            let eager = by_job(
                &v.queue,
                eager_pass(v.now, v.machine, &v.running, &v.queue, easy),
            );
            let lazy = by_job(
                &v.queue,
                backfill_pass(v.now, v.machine, &v.running, &v.queue, easy),
            );
            assert_eq!(planned, eager, "seed {seed}, easy {easy}");
            assert_eq!(lazy, eager, "seed {seed}, easy {easy}: the reference");
            assert!(!planner.carried(), "seed {seed}: a first pass carried");
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

/// What happens before a pass of the event sequences. Every step but
/// `Quiet` changes what the previous plan assumed, so the planner must
/// plan from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Time moves on by less than any running job's believed end (maybe
    /// not at all), and jobs may arrive: the plan may carry.
    Quiet,
    /// A running job finishes, before or at its believed end.
    Completion,
    /// A running job's believed end or a queued job's believed duration
    /// changes.
    ChangedBelief,
    /// Time reaches a running job's believed end and the job keeps
    /// running: its view ends at or before `now`.
    EndPassed,
    /// A job the plan did not start is running (started elsewhere).
    /// Sometimes it oversubscribes the machine, as a disordered event
    /// stream can claim; no plan on such a running set carries.
    NewRunning,
    /// A queued job leaves the queue without starting (cancelled),
    /// often the last one.
    Withdrawn,
}

/// A believed duration from a coarse grid (so ends and reservations tie
/// often), sometimes zero (reserved as one second).
fn belief(rng: &mut Rng64) -> Dur {
    if rng.gen_bool(0.05) {
        Dur::ZERO
    } else {
        Dur(10 * rng.gen_range_i64(1, 12))
    }
}

/// Drive a conservative-backfill planner and an EASY one through seeded
/// event sequences on machines of 1–32 nodes: arrivals (up to
/// machine-wide and wider), completions before and at their believed
/// ends, changed beliefs, jobs running past their believed end, jobs
/// started elsewhere (some oversubscribing the machine), queued jobs
/// withdrawn and passes at the previous pass's instant. Every pass's placements must equal a
/// from-scratch `backfill_pass` on the same views. The conservative
/// planner must carry exactly on the quiet passes that follow a pass that
/// left a job waiting on a running set that fits the machine; EASY never
/// carries. Coverage: at least 100 carried passes, 100 from-scratch
/// fallbacks of each cause on passes that would otherwise have carried,
/// and 100 quiet passes after an oversubscribed one.
#[test]
fn planner_sequences_match_from_scratch_passes() {
    let _turn = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    qpredict_obs::set_recording(true);
    qpredict_obs::reset();
    let mut carried = 0u64;
    let mut fallbacks = [0u64; 6];
    let mut oversubscribed = 0u64;
    for seed in 0..400u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let machine = 1 + rng.gen_index(32) as u32;
        let mut now = Time(rng.gen_range_i64(0, 1_000));
        let mut running: Vec<RunningView> = Vec::new();
        let mut queue: Vec<QueueEntry> = Vec::new();
        let mut next_seq = 0u64;
        let mut conservative = Planner::new(Algorithm::Backfill, machine);
        let mut easy = Planner::new(Algorithm::EasyBackfill, machine);
        let (mut left_waiting, mut fitted) = (false, true);
        // A step other than `Quiet` since the last pass (a pass is
        // skipped while the queue is empty).
        let mut disturbed = false;
        for pass in 0..60 {
            let used: u32 = running.iter().map(|r| r.nodes).sum();
            let overdue = running.iter().position(|r| r.pred_end <= now);
            let step = match (overdue, rng.gen_index(9)) {
                // A job past its believed end finishes or is re-believed
                // before anything else may happen.
                (Some(_), k) => [Step::Completion, Step::ChangedBelief][k % 2],
                (None, _) if pass == 0 => Step::Quiet,
                (None, 0) if !running.is_empty() => Step::Completion,
                (None, 1) if !running.is_empty() || !queue.is_empty() => Step::ChangedBelief,
                (None, 2) if !running.is_empty() => Step::EndPassed,
                (None, 3) => Step::NewRunning,
                (None, 4) if !queue.is_empty() => Step::Withdrawn,
                _ => Step::Quiet,
            };
            match step {
                Step::Quiet => {
                    let slack = running.iter().map(|r| (r.pred_end - now).0 - 1).min();
                    let most = slack.unwrap_or(40).min(40);
                    if rng.gen_bool(0.7) && most > 0 {
                        now += Dur(rng.gen_range_i64(1, most));
                    }
                }
                Step::Completion => {
                    let k = overdue.unwrap_or_else(|| rng.gen_index(running.len()));
                    let end = running.remove(k).pred_end;
                    // Finishes at its believed end or before it.
                    if end > now && rng.gen_bool(0.5) {
                        now = end;
                    } else if end > now + Dur::SECOND {
                        now = Time(rng.gen_range_i64(now.0, end.0));
                    }
                }
                Step::ChangedBelief => {
                    let delta = Dur(rng.gen_range_i64(1, 40));
                    match overdue {
                        Some(k) => running[k].pred_end = now + delta,
                        None if !queue.is_empty() && (running.is_empty() || rng.gen_bool(0.5)) => {
                            let k = rng.gen_index(queue.len());
                            let e = &mut queue[k];
                            e.pred_runtime = if e.pred_runtime > delta && rng.gen_bool(0.5) {
                                e.pred_runtime - delta
                            } else {
                                e.pred_runtime.max(Dur::SECOND) + delta
                            };
                        }
                        None => {
                            let k = rng.gen_index(running.len());
                            let r = &mut running[k];
                            r.pred_end = if r.pred_end - delta > now && rng.gen_bool(0.5) {
                                r.pred_end - delta
                            } else {
                                r.pred_end + delta
                            };
                        }
                    }
                }
                Step::EndPassed => {
                    let end = running[rng.gen_index(running.len())].pred_end;
                    now = end + Dur(rng.gen_range_i64(0, 20));
                }
                Step::Withdrawn => {
                    let k = if rng.gen_bool(0.5) {
                        queue.len() - 1
                    } else {
                        rng.gen_index(queue.len())
                    };
                    queue.remove(k);
                }
                Step::NewRunning => {
                    let free = machine.saturating_sub(used);
                    let nodes = if free == 0 || rng.gen_bool(0.1) {
                        free + 1 + rng.gen_index(machine as usize) as u32
                    } else if rng.gen_bool(0.3) {
                        free
                    } else {
                        1 + rng.gen_index(free as usize) as u32
                    };
                    running.push(RunningView {
                        nodes,
                        pred_end: now + belief(&mut rng).max(Dur::SECOND),
                    });
                }
            }
            for _ in 0..rng.gen_index(4) {
                let nodes = match rng.gen_index(8) {
                    0 => machine,
                    1 => machine + 1,
                    _ => 1 + rng.gen_index(machine as usize) as u32,
                };
                queue.push(QueueEntry {
                    id: JobId(next_seq as u32),
                    seq: next_seq,
                    nodes,
                    pred_runtime: belief(&mut rng),
                });
                next_seq += 1;
            }
            disturbed |= step != Step::Quiet;
            if queue.is_empty() {
                continue;
            }

            // A plan is held if the previous pass left a job waiting on a
            // running set that fits the machine.
            let held = left_waiting && fitted;
            let quiet = !disturbed;
            disturbed = false;
            let carries = quiet && held;
            fitted = running.iter().map(|r| r.nodes).sum::<u32>() <= machine;
            let placed = plan(&mut conservative, now, &running, &queue);
            let context = format!("seed {seed}, pass {pass}, {step:?}");
            assert_eq!(
                placed,
                backfill_pass(now, machine, &running, &queue, false),
                "{context}"
            );
            assert_eq!(conservative.carried(), carries, "{context}: carried");
            assert_eq!(
                plan(&mut easy, now, &running, &queue),
                backfill_pass(now, machine, &running, &queue, true),
                "{context}: EASY"
            );
            assert!(!easy.carried(), "{context}: EASY carried");
            match (carries, step) {
                (true, _) => carried += 1,
                (false, Step::Quiet) if quiet && left_waiting => oversubscribed += 1,
                (false, _) if held => fallbacks[step as usize] += 1,
                _ => {}
            }

            // Start what the plan starts now, as the engine does.
            let mut slot = 0;
            queue.retain(|e| {
                let starts = placed[slot] == (slot, now);
                slot += 1;
                if starts {
                    running.push(RunningView {
                        nodes: e.nodes.min(machine),
                        pred_end: now + e.pred_runtime.max(Dur::SECOND),
                    });
                }
                !starts
            });
            left_waiting = !queue.is_empty();
        }
    }
    let counted = qpredict_obs::snapshot().counter("sim.plans_carried");
    qpredict_obs::set_recording(false);
    assert_eq!(counted, carried, "sim.plans_carried counts carried plans");
    assert!(carried >= 100, "only {carried} carried passes");
    for step in [
        Step::Completion,
        Step::ChangedBelief,
        Step::EndPassed,
        Step::NewRunning,
        Step::Withdrawn,
    ] {
        let n = fallbacks[step as usize];
        assert!(n >= 100, "only {n} fallbacks after {step:?}: {fallbacks:?}");
    }
    assert!(
        oversubscribed >= 100,
        "only {oversubscribed} quiet passes after an oversubscribed one"
    );
}
