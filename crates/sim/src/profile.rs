//! Node-availability profile for conservative backfill.
//!
//! A [`Profile`] tracks how many nodes are free as a function of time,
//! given the (predicted) completion times of running jobs and the
//! reservations already granted to queued jobs. It answers the two
//! questions backfill asks: *what is the earliest time a `(nodes, dur)`
//! request fits?* and *commit that reservation*.
//!
//! The planner ([`crate::scheduler::Planner`]) keeps one profile for its
//! whole life: the crate-internal `rebuild` refills its segments in place
//! at each pass that plans from scratch, and `advance` re-anchors a
//! carried profile at a later instant. [`Profile::reserve`] touches only
//! the segments inside its window. The crate-internal `fit` and
//! `reserve_counted` also return how many segments they visited, which
//! the planner reports as `sim.profile_segments`.

use qpredict_workload::{Dur, Time};

/// One step of the piecewise-constant free-node function: `free` nodes are
/// available from `start` until the next segment's start (the last segment
/// extends to infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: Time,
    free: u32,
}

/// Piecewise-constant free-node capacity over `[now, infinity)`.
#[derive(Debug, Clone)]
pub struct Profile {
    machine_nodes: u32,
    segments: Vec<Segment>,
}

impl Profile {
    /// Build a profile for a machine with `machine_nodes` nodes, where
    /// `running` lists `(nodes, predicted_end)` for each currently running
    /// job. Predicted ends at or before `now` are treated as `now + 1 s`
    /// (the job is demonstrably still running).
    ///
    /// An oversubscribed `running` set (more nodes in use than the
    /// machine has) is clamped: the profile starts with no free nodes and
    /// never promises more than the machine. Only an online forecast over
    /// a disordered event stream builds one; serve counts those as
    /// `serve.oversubscribed`, and the engine asserts its own node
    /// accounting.
    pub fn new(machine_nodes: u32, now: Time, running: &[(u32, Time)]) -> Profile {
        let mut profile = Profile {
            machine_nodes,
            segments: Vec::with_capacity(running.len() + 1),
        };
        profile.rebuild(machine_nodes, now, running.iter().copied(), &mut Vec::new());
        profile
    }

    /// Refill this profile in place as [`Profile::new`] builds it, with
    /// `events` as scratch for the sorted releases. Both buffers keep
    /// their capacity, so a planner that rebuilds every pass allocates
    /// only while the running set grows.
    pub(crate) fn rebuild(
        &mut self,
        machine_nodes: u32,
        now: Time,
        running: impl Iterator<Item = (u32, Time)>,
        events: &mut Vec<(Time, u32)>,
    ) {
        events.clear();
        let mut used_now = 0u64;
        for (nodes, end) in running {
            used_now += nodes as u64;
            events.push((end.max(now + Dur::SECOND), nodes));
        }
        events.sort_unstable_by_key(|&(t, _)| t);
        self.machine_nodes = machine_nodes;
        self.segments.clear();
        let mut free = machine_nodes.saturating_sub(used_now.min(u32::MAX as u64) as u32);
        self.segments.push(Segment { start: now, free });
        for &(t, nodes) in events.iter() {
            // The `min` only matters after an oversubscribed (clamped)
            // start: completions then release more nodes than the
            // machine has, and the profile must not promise them.
            free = free.saturating_add(nodes).min(machine_nodes);
            match self.segments.last_mut() {
                Some(s) if s.start == t => s.free = free,
                _ => self.segments.push(Segment { start: t, free }),
            }
        }
    }

    /// Re-anchor the profile at `now`, a later instant: the capacity
    /// before `now` is dropped, and the segment covering `now` starts
    /// there.
    pub(crate) fn advance(&mut self, now: Time) {
        let covering = self.segments.partition_point(|s| s.start <= now);
        if covering > 1 {
            self.segments.drain(..covering - 1);
        }
        self.segments[0].start = self.segments[0].start.max(now);
    }

    /// Free nodes at instant `t` (which must be at or after the profile's
    /// start).
    pub fn free_at(&self, t: Time) -> u32 {
        match self.segments.binary_search_by_key(&t, |s| s.start) {
            Ok(i) => self.segments[i].free,
            Err(0) => self.segments[0].free, // before start: clamp
            Err(i) => self.segments[i - 1].free,
        }
    }

    /// Earliest time `t` at or after the profile start such that at least
    /// `nodes` nodes are free throughout `[t, t + dur)`.
    ///
    /// Always succeeds for `nodes <= machine_nodes`, because the final
    /// segment has every reserved job finished eventually.
    ///
    /// # Panics
    /// Panics if `nodes` exceeds the machine size or `dur` is not
    /// positive.
    pub fn earliest_fit(&self, nodes: u32, dur: Dur) -> Time {
        self.fit(nodes, dur).0
    }

    /// [`Profile::earliest_fit`], and the number of segments the scan
    /// visited.
    pub(crate) fn fit(&self, nodes: u32, dur: Dur) -> (Time, usize) {
        assert!(
            nodes <= self.machine_nodes,
            "request for {nodes} nodes exceeds machine of {}",
            self.machine_nodes
        );
        assert!(dur.is_positive(), "duration must be positive");
        let n = self.segments.len();
        let mut visited = 0;
        let mut i = 0;
        while i < n {
            visited += 1;
            if self.segments[i].free < nodes {
                i += 1;
                continue;
            }
            // Candidate anchor: this segment's start. Check the window.
            let anchor = self.segments[i].start;
            let end = anchor + dur;
            let mut ok = true;
            let mut j = i + 1;
            while j < n && self.segments[j].start < end {
                visited += 1;
                if self.segments[j].free < nodes {
                    ok = false;
                    // Restart the scan after the blocking segment.
                    i = j;
                    break;
                }
                j += 1;
            }
            if ok {
                return (anchor, visited);
            }
            i += 1;
        }
        // The last segment always has full capacity free in a well-formed
        // profile (every job ends); fall back to its start.
        (self.segments[n - 1].start, visited)
    }

    /// Subtract `nodes` from the free capacity over `[t, t + dur)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the reservation oversubscribes any
    /// affected segment — callers must only reserve windows returned by
    /// [`Profile::earliest_fit`].
    pub fn reserve(&mut self, t: Time, dur: Dur, nodes: u32) {
        self.reserve_counted(t, dur, nodes);
    }

    /// [`Profile::reserve`], returning the number of segments it
    /// changed: only those inside the window, found from the indices
    /// the two splits return.
    pub(crate) fn reserve_counted(&mut self, t: Time, dur: Dur, nodes: u32) -> usize {
        assert!(dur.is_positive(), "duration must be positive");
        let first = self.split_at(t, 0);
        let end = self.split_at(t + dur, first);
        for s in &mut self.segments[first..end] {
            debug_assert!(
                s.free >= nodes,
                "reservation of {nodes} nodes oversubscribes segment with {} free",
                s.free
            );
            s.free = s.free.saturating_sub(nodes);
        }
        end - first
    }

    /// Ensure a segment boundary exists at `t`, searching from segment
    /// `from` on, and return the index of the first segment starting at
    /// or after `t` (0 when `t` precedes the profile start: no boundary
    /// is added there).
    fn split_at(&mut self, t: Time, from: usize) -> usize {
        match self.segments[from..].binary_search_by_key(&t, |s| s.start) {
            Ok(i) => from + i,
            Err(0) => from,
            Err(i) => {
                let i = from + i;
                let free = self.segments[i - 1].free;
                self.segments.insert(i, Segment { start: t, free });
                i
            }
        }
    }

    /// Verify internal invariants: segments strictly ordered, frees within
    /// the machine size. Returns the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("profile has no segments".into());
        }
        for w in self.segments.windows(2) {
            if w[0].start >= w[1].start {
                return Err(format!(
                    "segments out of order: {:?} then {:?}",
                    w[0].start, w[1].start
                ));
            }
        }
        for s in &self.segments {
            if s.free > self.machine_nodes {
                return Err(format!(
                    "segment at {:?} has {} free on a {}-node machine",
                    s.start, s.free, self.machine_nodes
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> Time {
        Time(s)
    }

    #[test]
    fn empty_machine_is_fully_free() {
        let p = Profile::new(64, t(0), &[]);
        assert_eq!(p.free_at(t(0)), 64);
        assert_eq!(p.free_at(t(1_000_000)), 64);
        assert_eq!(p.earliest_fit(64, Dur(100)), t(0));
        p.check().unwrap();
    }

    #[test]
    fn running_jobs_occupy_until_pred_end() {
        let p = Profile::new(10, t(0), &[(4, t(100)), (3, t(50))]);
        assert_eq!(p.free_at(t(0)), 3);
        assert_eq!(p.free_at(t(49)), 3);
        assert_eq!(p.free_at(t(50)), 6);
        assert_eq!(p.free_at(t(100)), 10);
        p.check().unwrap();
    }

    #[test]
    fn late_pred_end_clamped_to_future() {
        // A running job whose predicted end has already passed still holds
        // its nodes for one more second.
        let p = Profile::new(10, t(100), &[(4, t(50))]);
        assert_eq!(p.free_at(t(100)), 6);
        assert_eq!(p.free_at(t(101)), 10);
    }

    #[test]
    fn earliest_fit_waits_for_capacity() {
        let p = Profile::new(10, t(0), &[(8, t(100))]);
        // 2 nodes fit immediately; 5 must wait for the running job.
        assert_eq!(p.earliest_fit(2, Dur(50)), t(0));
        assert_eq!(p.earliest_fit(5, Dur(50)), t(100));
    }

    #[test]
    fn earliest_fit_requires_window_not_instant() {
        let mut p = Profile::new(10, t(0), &[]);
        // Block [50, 150) with 9 nodes: 5-node jobs cannot overlap it.
        p.reserve(t(50), Dur(100), 9);
        // A 5-node 40s job fits at 0 (window [0,40) clear).
        assert_eq!(p.earliest_fit(5, Dur(40)), t(0));
        // A 5-node 60s job would overlap the blocked window; it must wait
        // until 150.
        assert_eq!(p.earliest_fit(5, Dur(60)), t(150));
    }

    #[test]
    fn reserve_subtracts_and_restores() {
        let mut p = Profile::new(10, t(0), &[]);
        p.reserve(t(20), Dur(30), 7);
        assert_eq!(p.free_at(t(19)), 10);
        assert_eq!(p.free_at(t(20)), 3);
        assert_eq!(p.free_at(t(49)), 3);
        assert_eq!(p.free_at(t(50)), 10);
        p.check().unwrap();
    }

    #[test]
    fn stacked_reservations() {
        let mut p = Profile::new(10, t(0), &[]);
        p.reserve(t(0), Dur(100), 4);
        p.reserve(t(50), Dur(100), 4);
        assert_eq!(p.free_at(t(0)), 6);
        assert_eq!(p.free_at(t(50)), 2);
        assert_eq!(p.free_at(t(100)), 6);
        assert_eq!(p.free_at(t(150)), 10);
        // 5 nodes for 10s fit at 0 (6 free until 50); 5 nodes for 60s
        // would overlap [50,100) where only 2 are free, so they wait
        // until 100.
        assert_eq!(p.earliest_fit(5, Dur(10)), t(0));
        assert_eq!(p.earliest_fit(5, Dur(60)), t(100));
    }

    #[test]
    #[should_panic(expected = "exceeds machine")]
    fn oversized_request_panics() {
        Profile::new(10, t(0), &[]).earliest_fit(11, Dur(1));
    }

    #[test]
    fn oversubscription_is_reported_not_hidden() {
        // 12 running nodes on a 10-node machine: the profile promises
        // nothing until jobs end, and never more than the machine.
        let p = Profile::new(10, t(0), &[(8, t(100)), (4, t(50))]);
        assert_eq!(p.free_at(t(0)), 0);
        assert_eq!(p.free_at(t(50)), 4);
        assert_eq!(p.free_at(t(100)), 10, "free capped at machine size");
        p.check().unwrap();
    }

    #[test]
    fn fit_then_reserve_never_oversubscribes() {
        // Randomized smoke: every reservation placed at earliest_fit keeps
        // the profile valid.
        use qpredict_workload::Rng64;
        let mut rng = Rng64::seed_from_u64(9);
        for _ in 0..50 {
            let mut p = Profile::new(32, t(0), &[(10, t(40)), (6, t(90))]);
            for _ in 0..40 {
                let nodes = 1 + rng.gen_index(32) as u32;
                let dur = Dur(rng.gen_range_i64(1, 200));
                let at = p.earliest_fit(nodes, dur);
                p.reserve(at, dur, nodes);
                p.check().unwrap();
            }
        }
    }
}
