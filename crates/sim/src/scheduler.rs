//! The three scheduling algorithms of the paper, as a pure decision
//! function over a view of the system state.
//!
//! Both the outer simulation engine ([`crate::engine`]) and the nested
//! wait-time forecast ([`crate::forecast`]) call [`schedule_pass`], so
//! predicted and real scheduler behaviour come from literally the same
//! code.

use qpredict_workload::{Dur, JobId, Time};

use crate::profile::Profile;

/// Which scheduling algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// First-come first-served: the head of the arrival-ordered queue
    /// starts whenever enough nodes are free. Uses no run-time estimates.
    Fcfs,
    /// Least-work-first: the queue is ordered by estimated work
    /// (`nodes x estimated run time`); the head starts whenever it fits.
    Lwf,
    /// Conservative backfill: jobs are examined in arrival order; a job
    /// starts if that does not delay any earlier job's reservation,
    /// otherwise nodes are reserved for it at the earliest possible time.
    Backfill,
    /// EASY (aggressive) backfill: only the *first* blocked job receives
    /// a reservation; later jobs may start whenever they fit without
    /// delaying that single reservation. Not used by the paper (its
    /// backfill reserves for every blocked job) — provided for the
    /// backfill-flavour ablation.
    EasyBackfill,
}

impl Algorithm {
    /// The paper's algorithms, in the paper's order (excludes the
    /// [`Algorithm::EasyBackfill`] ablation variant).
    pub const ALL: [Algorithm; 3] = [Algorithm::Fcfs, Algorithm::Lwf, Algorithm::Backfill];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Fcfs => "FCFS",
            Algorithm::Lwf => "LWF",
            Algorithm::Backfill => "Backfill",
            Algorithm::EasyBackfill => "EASY",
        }
    }

    /// Whether this algorithm consults run-time estimates for *waiting*
    /// jobs (LWF ordering, backfill reservations).
    pub fn uses_queue_estimates(self) -> bool {
        !matches!(self, Algorithm::Fcfs)
    }

    /// Whether this algorithm consults run-time estimates for *running*
    /// jobs (backfill needs predicted completions to build its
    /// availability profile).
    pub fn uses_running_estimates(self) -> bool {
        matches!(self, Algorithm::Backfill | Algorithm::EasyBackfill)
    }

    /// Parse a (case-insensitive) algorithm name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Some(Algorithm::Fcfs),
            "lwf" => Some(Algorithm::Lwf),
            "backfill" | "bf" => Some(Algorithm::Backfill),
            "easy" | "easy-backfill" => Some(Algorithm::EasyBackfill),
            _ => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the scheduler knows about one running job.
#[derive(Debug, Clone, Copy)]
pub struct RunningView {
    /// Nodes the job occupies.
    pub nodes: u32,
    /// Predicted completion instant (from the active run-time estimator).
    pub pred_end: Time,
}

/// What the scheduler knows about one queued job.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    /// Which job this is.
    pub id: JobId,
    /// Arrival sequence number: total order of enqueueing, used for FCFS
    /// order and all tie-breaking.
    pub seq: u64,
    /// Nodes the job requests.
    pub nodes: u32,
    /// Predicted run time (from the active run-time estimator). Ignored
    /// by FCFS.
    pub pred_runtime: Dur,
}

impl QueueEntry {
    /// Estimated work: `nodes x predicted run time`, the LWF priority.
    pub fn est_work(&self) -> f64 {
        self.nodes as f64 * self.pred_runtime.seconds().max(1) as f64
    }
}

/// Decide which queued jobs start *now*.
///
/// * `now` — current instant.
/// * `machine_nodes` — machine size.
/// * `free_nodes` — nodes not occupied by running jobs.
/// * `running` — running jobs (only backfill reads it).
/// * `queue` — queued jobs in any order; `seq` defines arrival order.
///
/// `running` and `free_nodes` must account for exactly the machine's
/// nodes (a debug assertion).
///
/// Returns indices into `queue` of the jobs to start, in the order they
/// should start. The function is pure: callers apply the starts.
pub fn schedule_pass(
    alg: Algorithm,
    now: Time,
    machine_nodes: u32,
    free_nodes: u32,
    running: &[RunningView],
    queue: &[QueueEntry],
) -> Vec<usize> {
    debug_assert!(
        running.iter().map(|r| r.nodes as u64).sum::<u64>() + free_nodes as u64
            == machine_nodes as u64,
        "free-node accounting is inconsistent"
    );
    match alg {
        Algorithm::Fcfs => in_order_pass(
            free_nodes,
            queue,
            |a, b| queue[a].seq.cmp(&queue[b].seq),
            true,
        ),
        Algorithm::Lwf => in_order_pass(
            free_nodes,
            queue,
            |a, b| {
                queue[a]
                    .est_work()
                    .partial_cmp(&queue[b].est_work())
                    .expect("work is finite")
                    .then(queue[a].seq.cmp(&queue[b].seq))
            },
            false,
        ),
        Algorithm::Backfill | Algorithm::EasyBackfill => backfill_pass(
            now,
            machine_nodes,
            running,
            queue,
            alg == Algorithm::EasyBackfill,
        )
        .into_iter()
        .filter(|&(_, at)| at == now)
        .map(|(i, _)| i)
        .collect(),
    }
}

/// Ordered scheduling: sort the queue by `cmp` and start jobs from the
/// front while they fit.
///
/// With `head_blocking` (FCFS — "the application at the head of the
/// queue runs whenever enough nodes become free"), the pass stops at the
/// first job that does not fit. Without it (LWF), non-fitting jobs are
/// skipped and any later, smaller-work job that fits is started: a
/// least-work job asking for most of the machine must not idle the rest
/// of it, or LWF could never produce the paper's Table 10 mean waits
/// (consistently below backfill's).
fn in_order_pass(
    free_nodes: u32,
    queue: &[QueueEntry],
    cmp: impl Fn(usize, usize) -> std::cmp::Ordering,
    head_blocking: bool,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut free = free_nodes;
    let mut starts = Vec::new();
    for i in order {
        if queue[i].nodes <= free {
            free -= queue[i].nodes;
            starts.push(i);
        } else if head_blocking {
            break;
        }
    }
    starts
}

/// Backfill. Reservations are recomputed from scratch each pass (arrival
/// order makes the recomputation deterministic), which is the standard
/// formulation of the paper's description: *"If an application cannot
/// run, nodes are reserved for it at the earliest possible time."*
///
/// With `easy` set, only the first blocked job receives a reservation
/// (EASY semantics); otherwise every blocked job does (conservative, the
/// paper's flavour).
///
/// The pass plans only once a job must wait. It starts the queue's
/// arrival-order prefix of jobs that fit in the nodes free now, and
/// builds the availability [`Profile`] (counted as
/// `sim.backfill_profiles`) at the first job that does not, replaying a
/// reservation at `now` for each job already started. The placements
/// are those of building the profile first: while every reservation
/// starts at `now`, the profile is the running set's releases, which
/// never lower it, minus reservations that all cover `now`. So it never
/// drops below its value at `now`, the nodes free now less the prefix's,
/// and a job fits at `now` exactly when it fits in those. The profile
/// built at the first waiting job then holds the segments the eager
/// construction held at that point. An oversubscribed running set
/// leaves 0 nodes free now, as `Profile::new` does.
///
/// Returns `(index into queue, placement)` for every job that starts
/// (placed at `now`) or receives a reservation, in arrival order. The
/// forecast's first-pass stop reads a target's reservation from here.
pub fn backfill_pass(
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

    qpredict_obs::counter_add("sim.backfill_profiles", 1);
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
        // Under EASY, blocked jobs beyond the first reserve nothing and
        // simply wait.
        if at == now || !easy || !reserved {
            profile.reserve(at, dur, nodes);
            reserved |= at != now;
            placed.push((i, at));
        }
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qe(seq: u64, nodes: u32, rt: i64) -> QueueEntry {
        QueueEntry {
            id: JobId(seq as u32),
            seq,
            nodes,
            pred_runtime: Dur(rt),
        }
    }

    #[test]
    fn fcfs_blocks_behind_head() {
        // Head needs 8 nodes, only 4 free; the 1-node job behind it must
        // NOT start (no backfilling in FCFS).
        let queue = [qe(0, 8, 100), qe(1, 1, 100)];
        let starts = schedule_pass(Algorithm::Fcfs, Time(0), 8, 4, &[rv(4, 50)], &queue);
        assert!(starts.is_empty());
    }

    #[test]
    fn fcfs_starts_in_arrival_order() {
        let queue = [qe(1, 2, 100), qe(0, 2, 100)];
        let starts = schedule_pass(Algorithm::Fcfs, Time(0), 8, 8, &[], &queue);
        assert_eq!(starts, vec![1, 0]); // seq 0 first
    }

    #[test]
    fn lwf_orders_by_work() {
        // seq0: 4 nodes x 100 s = 400 work; seq1: 1 node x 100 s = 100.
        let queue = [qe(0, 4, 100), qe(1, 1, 100)];
        let starts = schedule_pass(Algorithm::Lwf, Time(0), 8, 8, &[], &queue);
        assert_eq!(starts, vec![1, 0]);
    }

    #[test]
    fn lwf_skips_nonfitting_least_work_head() {
        // Least-work job needs 8 nodes (work 8*10=80) and cannot fit; the
        // 1-node job (work 200) fits and starts — LWF does not idle the
        // machine behind a wide head.
        let queue = [qe(0, 8, 10), qe(1, 1, 200)];
        let starts = schedule_pass(Algorithm::Lwf, Time(0), 8, 4, &[rv(4, 50)], &queue);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn lwf_ties_break_by_arrival() {
        let queue = [qe(1, 2, 100), qe(0, 2, 100)];
        let starts = schedule_pass(Algorithm::Lwf, Time(0), 2, 2, &[], &queue);
        assert_eq!(starts, vec![1]); // same work, seq 0 wins, then blocked
    }

    fn rv(nodes: u32, end: i64) -> RunningView {
        RunningView {
            nodes,
            pred_end: Time(end),
        }
    }

    #[test]
    fn backfill_starts_small_job_behind_blocked_head() {
        // 4 nodes free until t=100 (4-node job running to 100).
        // Head wants 8 nodes -> reserved at t=100.
        // Second job: 4 nodes, 50 s: fits now and ends at t=50 <= 100, so
        // it cannot delay the reservation -> backfilled.
        let queue = [qe(0, 8, 100), qe(1, 4, 50)];
        let starts = schedule_pass(Algorithm::Backfill, Time(0), 8, 4, &[rv(4, 100)], &queue);
        assert_eq!(starts, vec![1]);
    }

    #[test]
    fn backfill_refuses_job_that_would_delay_reservation() {
        // Same as above but the small job runs 150 s: it would hold 4
        // nodes past t=100 and delay the 8-node reservation.
        let queue = [qe(0, 8, 100), qe(1, 4, 150)];
        let starts = schedule_pass(Algorithm::Backfill, Time(0), 8, 4, &[rv(4, 100)], &queue);
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_is_conservative_not_easy() {
        // Three jobs: head reserved at 100; second reserved behind it;
        // a third small job must respect BOTH reservations (EASY would
        // only respect the head's).
        // Machine 8; running 4 nodes until 100.
        // q0: 8 nodes 100 s -> reserved [100, 200).
        // q1: 8 nodes 100 s -> reserved [200, 300).
        // q2: 4 nodes 250 s: starting now would run to 250, overlapping
        // [100,300) where 8 nodes are reserved -> must not start.
        let queue = [qe(0, 8, 100), qe(1, 8, 100), qe(2, 4, 250)];
        let starts = schedule_pass(Algorithm::Backfill, Time(0), 8, 4, &[rv(4, 100)], &queue);
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_without_contention_starts_everything_that_fits() {
        let queue = [qe(0, 2, 100), qe(1, 2, 100), qe(2, 2, 100)];
        let starts = schedule_pass(Algorithm::Backfill, Time(0), 8, 8, &[], &queue);
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn algorithm_parse_and_flags() {
        assert_eq!(Algorithm::parse("fcfs"), Some(Algorithm::Fcfs));
        assert_eq!(Algorithm::parse("BF"), Some(Algorithm::Backfill));
        assert_eq!(Algorithm::parse("easy"), Some(Algorithm::EasyBackfill));
        assert_eq!(Algorithm::parse("nope"), None);
        assert!(!Algorithm::Fcfs.uses_queue_estimates());
        assert!(Algorithm::Lwf.uses_queue_estimates());
        assert!(!Algorithm::Lwf.uses_running_estimates());
        assert!(Algorithm::Backfill.uses_running_estimates());
        assert!(Algorithm::EasyBackfill.uses_running_estimates());
    }

    #[test]
    fn easy_backfills_where_conservative_refuses() {
        // Machine 8; 4 nodes busy until t=100.
        // q0: 8 nodes (reserved at 100).
        // q1: 8 nodes (conservative reserves it at 200; EASY reserves
        //     nothing for it).
        // q2: 4 nodes, 250 s: overlaps q1's conservative reservation
        //     (so conservative refuses) but not q0's at [100, 200)?
        //     It does overlap [100, 200) too (4 nodes used + 4 nodes by
        //     q2 leaves 0 of the 8 q0 needs)... so pick durations that
        //     only conflict with q1: q2 runs 80 s, ending at t=80 < 100:
        //     both accept it. Use 150 s: [0,150) overlaps q0's [100,200)
        //     reservation -> even EASY refuses. The distinguishing case
        //     needs q2 to conflict only with the *second* reservation:
        //     make q0 narrow (6 nodes) so q2 (2 nodes, 250 s) can run
        //     alongside q0 but not alongside q1 (8 nodes at [200, ...)).
        let queue = [qe(0, 6, 100), qe(1, 8, 100), qe(2, 2, 250)];
        let running = [rv(4, 100)];
        let conservative = schedule_pass(Algorithm::Backfill, Time(0), 8, 4, &running, &queue);
        let easy = schedule_pass(Algorithm::EasyBackfill, Time(0), 8, 4, &running, &queue);
        // Conservative: q0 reserved at 100 (6 nodes), q1 reserved at 200,
        // q2 (2 nodes, 250 s) would overlap q1's [200, 300) full-machine
        // reservation -> refused.
        assert!(conservative.is_empty(), "got {conservative:?}");
        // EASY: only q0 is reserved ([100, 200), 6 nodes). q2 fits now:
        // 2 nodes for [0, 250) leaves 6 free during the reservation.
        assert_eq!(easy, vec![2]);
    }

    #[test]
    fn est_work_guards_nonpositive_runtime() {
        let e = qe(0, 4, 0);
        assert_eq!(e.est_work(), 4.0);
    }
}
