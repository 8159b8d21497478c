//! The scheduling algorithms of the paper, as one [`Planner`] that
//! decides which queued jobs start *now*.
//!
//! The outer simulation engine ([`crate::engine`]), the nested wait-time
//! forecast ([`crate::forecast`]) and the online service's answers all
//! plan through a [`Planner`], so predicted and real scheduler behaviour
//! come from literally the same code. A planner keeps its running views,
//! queue entries, placement list, event scratch and availability
//! [`Profile`] across passes, so a pass allocates only while the system
//! grows. Under conservative backfill it also carries its plan across a
//! pass that follows no completion (DESIGN.md §14).

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningView {
    /// Nodes the job occupies.
    pub nodes: u32,
    /// Predicted completion instant (from the active run-time estimator).
    pub pred_end: Time,
}

/// What the scheduler knows about one queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The scheduler's decision procedure, with the buffers it plans in.
///
/// A pass is [`Planner::begin`], one [`Planner::push_running`] per
/// running job, one [`Planner::push_queued`] per queued job in arrival
/// order (increasing `seq`, asserted), then [`Planner::plan`]. The plan
/// lists `(index into the queue, placement)` pairs; a job placed at the
/// pass's `now` starts now. Callers apply the starts.
///
/// * FCFS starts the arrival-order prefix that fits in the free nodes.
/// * LWF orders the queue by estimated work (ties by arrival) and starts
///   every job that fits in what is still free.
/// * Backfill places every queued job in arrival order at its earliest
///   fit in the availability [`Profile`]; EASY reserves only for the
///   first job that must wait, and lists no placement for later blocked
///   jobs.
///
/// The free nodes are the machine less the running views' nodes
/// (saturating: an oversubscribed running set leaves none).
#[derive(Debug, Clone)]
pub struct Planner {
    alg: Algorithm,
    machine_nodes: u32,
    now: Time,
    running: Vec<RunningView>,
    queue: Vec<QueueEntry>,
    placed: Vec<(usize, Time)>,
    /// LWF's work order.
    order: Vec<usize>,
    /// The profile's release events, sorted in place on each rebuild.
    events: Vec<(Time, u32)>,
    profile: Profile,
    /// The previous pass's views and entries: [`Planner::begin`] swaps
    /// them with the current ones, so the carry check compares without
    /// copying.
    prev_running: Vec<RunningView>,
    prev_queue: Vec<QueueEntry>,
    prev_now: Time,
    /// A pass is begun and not yet planned.
    pass_open: bool,
    /// The previous pass was conservative backfill on a running set that
    /// fits the machine, and left `profile` holding its plan.
    plan_held: bool,
    carried: bool,
}

/// Work one plan did, flushed to the obs counters once per plan.
#[derive(Default)]
struct Work {
    segments: usize,
    reservations: usize,
}

impl Planner {
    /// A planner for `alg` on a machine of `machine_nodes` nodes, with
    /// empty buffers.
    pub fn new(alg: Algorithm, machine_nodes: u32) -> Planner {
        Planner {
            alg,
            machine_nodes,
            now: Time::ZERO,
            running: Vec::new(),
            queue: Vec::new(),
            placed: Vec::new(),
            order: Vec::new(),
            events: Vec::new(),
            profile: Profile::new(machine_nodes, Time::ZERO, &[]),
            prev_running: Vec::new(),
            prev_queue: Vec::new(),
            prev_now: Time::ZERO,
            pass_open: false,
            plan_held: false,
            carried: false,
        }
    }

    /// Start a pass at `now`: the running views and queue entries are
    /// emptied (and kept as the previous pass's).
    pub fn begin(&mut self, now: Time) {
        // A pass begun and never planned leaves no plan to carry.
        self.plan_held &= !self.pass_open;
        self.pass_open = true;
        std::mem::swap(&mut self.running, &mut self.prev_running);
        std::mem::swap(&mut self.queue, &mut self.prev_queue);
        self.prev_now = self.now;
        self.running.clear();
        self.queue.clear();
        self.now = now;
    }

    /// Add a running job to this pass.
    pub fn push_running(&mut self, view: RunningView) {
        self.running.push(view);
    }

    /// Add the next queued job to this pass.
    ///
    /// # Panics
    /// Panics unless `entry.seq` is greater than the previous entry's:
    /// the queue is given in arrival order.
    pub fn push_queued(&mut self, entry: QueueEntry) {
        if let Some(last) = self.queue.last() {
            assert!(
                last.seq < entry.seq,
                "queue must be in arrival order: seq {} after {}",
                entry.seq,
                last.seq
            );
        }
        self.queue.push(entry);
    }

    /// Whether the last [`Planner::plan`] carried the previous plan
    /// forward instead of planning from scratch.
    pub fn carried(&self) -> bool {
        self.carried
    }

    /// Plan the pass: `(index into the queue, placement)` for every job
    /// that starts now or (under backfill) receives a reservation. FCFS
    /// and LWF list starts in start order; backfill lists placements in
    /// arrival order.
    pub fn plan(&mut self) -> &[(usize, Time)] {
        let mut work = Work::default();
        self.carried = self.alg == Algorithm::Backfill && self.pass_open && self.can_carry();
        self.pass_open = false;
        if self.carried {
            self.carry_forward(&mut work);
            qpredict_obs::counter_add("sim.plans_carried", 1);
        } else {
            self.placed.clear();
            self.plan_held = false;
            match self.alg {
                Algorithm::Fcfs => self.in_order(true),
                Algorithm::Lwf => self.in_order(false),
                Algorithm::Backfill => self.backfill(false, &mut work),
                Algorithm::EasyBackfill => self.backfill(true, &mut work),
            }
        }
        if work.reservations > 0 {
            qpredict_obs::counter_add("sim.profile_segments", work.segments as u64);
            qpredict_obs::counter_add("sim.reservations", work.reservations as u64);
        }
        &self.placed
    }

    /// Nodes the running views occupy.
    fn used_nodes(&self) -> u64 {
        self.running.iter().map(|r| r.nodes as u64).sum()
    }

    /// Nodes not occupied by the running views, out of `used`.
    fn free_of(&self, used: u64) -> u32 {
        self.machine_nodes
            .saturating_sub(used.min(u32::MAX as u64) as u32)
    }

    /// Ordered scheduling: start jobs from the front of the arrival order
    /// (FCFS) or the work order (LWF) while they fit.
    ///
    /// With `head_blocking` (FCFS — "the application at the head of the
    /// queue runs whenever enough nodes become free"), the pass stops at
    /// the first job that does not fit. Without it (LWF), non-fitting
    /// jobs are skipped and any later, smaller-work job that fits is
    /// started: a least-work job asking for most of the machine must not
    /// idle the rest of it, or LWF could never produce the paper's
    /// Table 10 mean waits (consistently below backfill's).
    fn in_order(&mut self, head_blocking: bool) {
        let queue = &self.queue;
        self.order.clear();
        self.order.extend(0..queue.len());
        if !head_blocking {
            self.order.sort_by(|&a, &b| {
                queue[a]
                    .est_work()
                    .partial_cmp(&queue[b].est_work())
                    .expect("work is finite")
                    .then(queue[a].seq.cmp(&queue[b].seq))
            });
        }
        let mut free = self.free_of(self.used_nodes());
        for &i in &self.order {
            if queue[i].nodes <= free {
                free -= queue[i].nodes;
                self.placed.push((i, self.now));
            } else if head_blocking {
                break;
            }
        }
    }

    /// The `(nodes, duration)` a queued job reserves.
    fn request(&self, e: &QueueEntry) -> (u32, Dur) {
        (
            e.nodes.min(self.machine_nodes),
            e.pred_runtime.max(Dur::SECOND),
        )
    }

    /// Backfill from scratch. With `easy` set, only the first blocked job
    /// receives a reservation (EASY semantics); otherwise every blocked
    /// job does (conservative, the paper's flavour: *"If an application
    /// cannot run, nodes are reserved for it at the earliest possible
    /// time."*).
    ///
    /// The pass builds a profile only once a job must wait. It starts the
    /// queue's arrival-order prefix of jobs that fit in the nodes free
    /// now, and rebuilds the [`Profile`] (counted as
    /// `sim.backfill_profiles`) at the first job that does not, replaying
    /// a reservation at `now` for each job already started. The
    /// placements are those of building the profile first (DESIGN.md
    /// §14).
    fn backfill(&mut self, easy: bool, work: &mut Work) {
        let used = self.used_nodes();
        let mut free = self.free_of(used);
        for (i, e) in self.queue.iter().enumerate() {
            let nodes = e.nodes.min(self.machine_nodes);
            if nodes > free {
                break;
            }
            free -= nodes;
            self.placed.push((i, self.now));
        }
        if self.placed.len() == self.queue.len() {
            return;
        }

        qpredict_obs::counter_add("sim.backfill_profiles", 1);
        let now = self.now;
        self.profile.rebuild(
            self.machine_nodes,
            now,
            self.running.iter().map(|r| (r.nodes, r.pred_end)),
            &mut self.events,
        );
        for k in 0..self.placed.len() {
            let (nodes, dur) = self.request(&self.queue[k]);
            work.segments += self.profile.reserve_counted(now, dur, nodes);
            work.reservations += 1;
        }
        let mut reserved = false;
        for i in self.placed.len()..self.queue.len() {
            let (nodes, dur) = self.request(&self.queue[i]);
            let (at, visited) = self.profile.fit(nodes, dur);
            work.segments += visited;
            // Under EASY, blocked jobs beyond the first reserve nothing and
            // simply wait.
            if at == now || !easy || !reserved {
                work.segments += self.profile.reserve_counted(at, dur, nodes);
                work.reservations += 1;
                reserved |= at != now;
                self.placed.push((i, at));
            }
        }
        self.plan_held = !easy && used <= self.machine_nodes as u64;
    }

    /// Whether this pass may reuse the previous conservative plan
    /// (DESIGN.md §14): that plan is held; the running views are the
    /// previous pass's followed by the jobs it started, each reserved
    /// as `(nodes, start + duration)`; every view ends after `now`; and
    /// the queue begins with the previous pass's unstarted entries,
    /// unchanged. Whatever follows them arrived since.
    fn can_carry(&self) -> bool {
        if !self.plan_held || self.now < self.prev_now {
            return false;
        }
        let (prev_now, prev_len) = (self.prev_now, self.prev_running.len());
        let started = self.placed.iter().filter(|&&(_, at)| at == prev_now);
        let unstarted = self.placed.iter().filter(|&&(_, at)| at != prev_now);
        let n_started = started.clone().count();
        self.running.len() == prev_len + n_started
            && self.queue.len() >= self.placed.len() - n_started
            && self.running[..prev_len] == self.prev_running[..]
            && self.running[prev_len..]
                .iter()
                .zip(started)
                .all(|(view, &(i, _))| {
                    let (nodes, dur) = self.request(&self.prev_queue[i]);
                    *view
                        == RunningView {
                            nodes,
                            pred_end: prev_now + dur,
                        }
                })
            && self
                .queue
                .iter()
                .zip(unstarted)
                .all(|(e, &(i, _))| *e == self.prev_queue[i])
            && self.running.iter().all(|v| v.pred_end > self.now)
    }

    /// Keep the previous reservations of the unstarted jobs, re-anchor
    /// the profile at `now`, and place only the arrivals.
    fn carry_forward(&mut self, work: &mut Work) {
        let prev_now = self.prev_now;
        self.placed.retain(|&(_, at)| at != prev_now);
        for (k, p) in self.placed.iter_mut().enumerate() {
            p.0 = k;
        }
        self.profile.advance(self.now);
        for i in self.placed.len()..self.queue.len() {
            let (nodes, dur) = self.request(&self.queue[i]);
            let (at, visited) = self.profile.fit(nodes, dur);
            work.segments += visited + self.profile.reserve_counted(at, dur, nodes);
            work.reservations += 1;
            self.placed.push((i, at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass on a fresh planner: the indices of the jobs it starts.
    fn schedule_pass(
        alg: Algorithm,
        now: Time,
        machine_nodes: u32,
        free_nodes: u32,
        running: &[RunningView],
        queue: &[QueueEntry],
    ) -> Vec<usize> {
        let used: u32 = running.iter().map(|r| r.nodes).sum();
        assert_eq!(used + free_nodes, machine_nodes, "test view is consistent");
        let mut planner = Planner::new(alg, machine_nodes);
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
        let queue = [qe(0, 2, 100), qe(1, 8, 100), qe(2, 2, 100)];
        let starts = schedule_pass(Algorithm::Fcfs, Time(0), 8, 8, &[], &queue);
        assert_eq!(starts, vec![0]); // seq 1 blocks seq 2
    }

    #[test]
    #[should_panic(expected = "queue must be in arrival order")]
    fn a_queue_out_of_arrival_order_is_refused() {
        let queue = [qe(1, 2, 100), qe(0, 2, 100)];
        schedule_pass(Algorithm::Fcfs, Time(0), 8, 8, &[], &queue);
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
        let queue = [qe(0, 2, 100), qe(1, 2, 100)];
        let starts = schedule_pass(Algorithm::Lwf, Time(0), 2, 2, &[], &queue);
        assert_eq!(starts, vec![0]); // same work, seq 0 wins, then blocked
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
