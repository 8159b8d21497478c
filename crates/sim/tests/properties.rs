//! Randomized tests over the scheduling algorithms and the engine.
//!
//! Deterministic seeded loops stand in for an external property-testing
//! harness: the workspace must build offline with no crates beyond std.

use qpredict_predict::OraclePredictor;
use qpredict_sim::tests_support::workload_from_triples;
use qpredict_sim::{Algorithm, Planner, QueueEntry, RunningView, Simulation, Timeline};
use qpredict_workload::{Dur, JobId, Rng64, Time};

/// One pass on a fresh planner, over a view whose `free` nodes are the
/// machine less the running jobs': the indices of the jobs it starts.
fn schedule_pass(
    alg: Algorithm,
    now: Time,
    machine: u32,
    free: u32,
    running: &[RunningView],
    queue: &[QueueEntry],
) -> Vec<usize> {
    let used: u32 = running.iter().map(|r| r.nodes).sum();
    assert_eq!(used + free, machine, "the view is consistent");
    let mut planner = Planner::new(alg, machine);
    planner.begin(now);
    running.iter().for_each(|&r| planner.push_running(r));
    queue.iter().for_each(|&e| planner.push_queued(e));
    planner
        .plan()
        .iter()
        .filter(|&&(_, at)| at == now)
        .map(|&(i, _)| i)
        .collect()
}

/// A consistent `(machine, free, running, queue)` scheduler view.
fn random_pass_input(rng: &mut Rng64) -> (u32, u32, Vec<RunningView>, Vec<QueueEntry>) {
    let machine = 1u32 << (3 + rng.gen_index(5)); // 8..=128 nodes
    let mut used = 0u32;
    let running: Vec<RunningView> = (0..rng.gen_index(5))
        .filter_map(|_| {
            let n = (1 + rng.gen_index(32) as u32).min(machine);
            let end = rng.gen_range_i64(1, 499);
            if used + n <= machine {
                used += n;
                Some(RunningView {
                    nodes: n,
                    pred_end: Time(end),
                })
            } else {
                None
            }
        })
        .collect();
    let free = machine - used;
    let queue: Vec<QueueEntry> = (0..1 + rng.gen_index(11))
        .map(|i| QueueEntry {
            id: JobId(i as u32),
            seq: i as u64,
            nodes: (1 + rng.gen_index(64) as u32).min(machine),
            pred_runtime: Dur(rng.gen_range_i64(1, 399)),
        })
        .collect();
    (machine, free, running, queue)
}

/// No algorithm ever starts more nodes than are free, and never starts
/// the same queue slot twice.
#[test]
fn passes_respect_capacity() {
    for seed in 0u64..128 {
        let mut rng = Rng64::seed_from_u64(seed);
        let (machine, free, running, queue) = random_pass_input(&mut rng);
        for alg in [
            Algorithm::Fcfs,
            Algorithm::Lwf,
            Algorithm::Backfill,
            Algorithm::EasyBackfill,
        ] {
            let starts = schedule_pass(alg, Time(0), machine, free, &running, &queue);
            let total: u32 = starts.iter().map(|&i| queue[i].nodes).sum();
            assert!(
                total <= free,
                "seed {seed}: {alg} started {total} of {free} free"
            );
            let mut seen = std::collections::HashSet::new();
            for &i in &starts {
                assert!(seen.insert(i), "seed {seed}: {alg} duplicated start {i}");
            }
        }
    }
}

/// FCFS starts exactly a prefix of the arrival order.
#[test]
fn fcfs_starts_are_a_prefix() {
    for seed in 0u64..128 {
        let mut rng = Rng64::seed_from_u64(seed);
        let (machine, free, running, queue) = random_pass_input(&mut rng);
        let starts = schedule_pass(Algorithm::Fcfs, Time(0), machine, free, &running, &queue);
        let mut by_seq: Vec<u64> = starts.iter().map(|&i| queue[i].seq).collect();
        by_seq.sort_unstable();
        for (k, s) in by_seq.iter().enumerate() {
            assert_eq!(*s, k as u64, "seed {seed}: FCFS skipped an earlier job");
        }
    }
}

/// Conservative and EASY backfill agree on the *head* of the queue:
/// both start it exactly when it fits right now. (Start-set inclusion
/// does NOT hold in either direction — EASY may backfill an earlier
/// arrival that conservative refused, consuming capacity a later job
/// would otherwise get; random search found the counterexample.)
#[test]
fn backfill_flavours_agree_on_queue_head() {
    for seed in 0u64..128 {
        let mut rng = Rng64::seed_from_u64(seed);
        let (machine, free, running, queue) = random_pass_input(&mut rng);
        let cons = schedule_pass(
            Algorithm::Backfill,
            Time(0),
            machine,
            free,
            &running,
            &queue,
        );
        let easy = schedule_pass(
            Algorithm::EasyBackfill,
            Time(0),
            machine,
            free,
            &running,
            &queue,
        );
        let head = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.seq)
            .map(|(i, _)| i)
            .expect("non-empty queue");
        assert_eq!(
            cons.contains(&head),
            easy.contains(&head),
            "seed {seed}: flavours disagree on the queue head"
        );
        // And the head starts iff it fits in the free nodes right now.
        assert_eq!(
            cons.contains(&head),
            queue[head].nodes <= free,
            "seed {seed}"
        );
    }
}

/// With an empty machine and no contention the head job always starts
/// immediately under every algorithm.
#[test]
fn empty_machine_always_starts_head() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let nodes = 1 + rng.gen_index(32) as u32;
        let rt = rng.gen_range_i64(1, 999);
        let queue = [QueueEntry {
            id: JobId(0),
            seq: 0,
            nodes,
            pred_runtime: Dur(rt),
        }];
        for alg in [
            Algorithm::Fcfs,
            Algorithm::Lwf,
            Algorithm::Backfill,
            Algorithm::EasyBackfill,
        ] {
            let starts = schedule_pass(alg, Time(5), 32, 32, &[], &queue);
            assert_eq!(
                &starts,
                &vec![0usize],
                "seed {seed}: {alg} refused a fitting head"
            );
        }
    }
}

fn random_triples(rng: &mut Rng64, max_jobs: usize) -> Vec<(i64, u32, i64)> {
    (0..1 + rng.gen_index(max_jobs - 1))
        .map(|_| {
            (
                rng.gen_range_i64(0, 1_999),
                1 + rng.gen_index(16) as u32,
                rng.gen_range_i64(1, 499),
            )
        })
        .collect()
}

/// End-to-end: every engine schedule is feasible (timeline-checked) and
/// peak occupancy is positive whenever jobs exist.
#[test]
fn engine_schedules_feasible() {
    for seed in 0u64..128 {
        let mut rng = Rng64::seed_from_u64(seed);
        let jobs = random_triples(&mut rng, 40);
        let alg = [
            Algorithm::Fcfs,
            Algorithm::Lwf,
            Algorithm::Backfill,
            Algorithm::EasyBackfill,
        ][rng.gen_index(4)];
        let wl = workload_from_triples(16, &jobs);
        let result = Simulation::run(&wl, alg, &mut OraclePredictor);
        let t = Timeline::build(&wl, &result.outcomes);
        assert!(
            t.is_feasible(),
            "seed {seed}: {alg} oversubscribed (peak {})",
            t.peak()
        );
        assert!(t.peak() > 0, "seed {seed}");
    }
}

/// EASY always completes every job and never starts one before submit.
#[test]
fn easy_runs_complete() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let jobs = random_triples(&mut rng, 30);
        let wl = workload_from_triples(16, &jobs);
        let r = Simulation::run(&wl, Algorithm::EasyBackfill, &mut OraclePredictor);
        assert_eq!(r.outcomes.len(), wl.len(), "seed {seed}");
        for o in &r.outcomes {
            assert!(o.start >= o.submit, "seed {seed}");
        }
    }
}
