//! Runtime-ordered suffix index for elapsed-time conditioning.
//!
//! The `rtime` option predicts a running job only from the history
//! points whose run time exceeds its elapsed time. A scan reads every
//! point of the category on every such estimate. This index keeps the
//! points in one vector sorted by run time, with the exact integer sums
//! of every prefix whose length is a multiple of 16 and of the whole
//! vector, so the sums over the points above any elapsed time cost one
//! binary search and a pass over the at most 15 entries between the
//! split and the stride boundary below it. An insert or removal is one
//! `Vec::insert`/`remove`, and fixes each later stride sum by the one
//! entry that crosses its boundary.
//!
//! The layout depends only on the indexed values, not on the order they
//! arrived in: an index rebuilt from a decoded history is the index the
//! original maintained, and reads the same entries for every query.
//!
//! **Exactness.** The index holds only points whose run time and node
//! count are non-negative integers that fit in `u32` (every point built
//! from a job, whose durations are whole seconds). It sums them in
//! wrapping `u64` arithmetic, exact modulo 2^64, and keeps Σ(g² + y²)
//! exactly in `u128`: that total bounds every other (g ≤ g², y ≤ y²,
//! 2gy ≤ g² + y²), so while it is below 2^64 no sum has wrapped and
//! every sum the index forms is the true integer. When every total of the
//! selected points is below 2^53, every partial sum a scan over the same
//! points forms is an integer below 2^53 too (all terms are
//! non-negative), so each f64 addition and product of the scan is exact
//! and its result equals the integer total in any order. The estimator
//! then receives the same sums and its shared post-sum arithmetic yields
//! a bit-identical estimate. While any point is not representable,
//! Σ(g² + y²) reaches 2^64, or a selected total reaches 2^53,
//! [`RuntimeIndex::above`] answers `None` and the caller scans.

use crate::category::RegMoments;

/// Ranks between two stored prefix sums.
const STRIDE: usize = 16;

/// Integers below this convert to f64 and add in f64 exactly.
const EXACT: u64 = 1 << 53;

/// One indexed point: `(run time, nodes)`, ordered by run time first.
type Entry = (u32, u32);

/// The entry for a point, when both values are non-negative integers
/// that fit in `u32`.
fn entry(runtime: f64, nodes: f64) -> Option<Entry> {
    let exact = |v: f64| (v >= 0.0 && v <= u32::MAX as f64 && v.fract() == 0.0).then_some(v as u32);
    Some((exact(runtime)?, exact(nodes)?))
}

/// An entry's exact share of Σ(g² + y²).
fn weight((y, g): Entry) -> u128 {
    let (y, g) = (u128::from(y), u128::from(g));
    g * g + y * y
}

/// Sums over entries, with `y` the run time and `g` the node count: what
/// [`RegMoments`] holds, in integers modulo 2^64.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sums {
    n: u64,
    g: u64,
    y: u64,
    gg: u64,
    gy: u64,
    yy: u64,
}

impl Sums {
    /// One entry's terms; each product of two `u32` fits in `u64`.
    fn term((y, g): Entry) -> Sums {
        let (y, g) = (u64::from(y), u64::from(g));
        Sums {
            n: 1,
            g,
            y,
            gg: g * g,
            gy: g * y,
            yy: y * y,
        }
    }

    fn of(entries: &[Entry]) -> Sums {
        entries
            .iter()
            .fold(Sums::default(), |s, &e| s.plus(Sums::term(e)))
    }

    fn zip(self, o: Sums, f: impl Fn(u64, u64) -> u64) -> Sums {
        Sums {
            n: f(self.n, o.n),
            g: f(self.g, o.g),
            y: f(self.y, o.y),
            gg: f(self.gg, o.gg),
            gy: f(self.gy, o.gy),
            yy: f(self.yy, o.yy),
        }
    }

    fn plus(self, o: Sums) -> Sums {
        self.zip(o, u64::wrapping_add)
    }

    fn minus(self, o: Sums) -> Sums {
        self.zip(o, u64::wrapping_sub)
    }

    /// The sums as f64 moments, when every one converts and adds exactly.
    fn moments(self) -> Option<RegMoments> {
        let exact = [self.g, self.y, self.gg, self.gy, self.yy]
            .iter()
            .all(|&s| s < EXACT);
        exact.then_some(RegMoments {
            n: self.n as usize,
            sg: self.g as f64,
            sy: self.y as f64,
            sgg: self.gg as f64,
            sgy: self.gy as f64,
            syy: self.yy as f64,
        })
    }
}

/// Points of one history sorted by run time, with exact sums at every
/// stride boundary. Derived state: built from the points it indexes,
/// never encoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RuntimeIndex {
    /// The entries in sorted order.
    entries: Vec<Entry>,
    /// `strides[j]` sums `entries[..STRIDE * (j + 1)]`: one per complete
    /// stride.
    strides: Vec<Sums>,
    /// Sums of every entry.
    total: Sums,
    /// Exact Σ(g² + y²) over the entries.
    weight: u128,
    /// Points of the history the index could not hold; while any is
    /// present the index answers nothing.
    unindexed: usize,
}

impl RuntimeIndex {
    /// Index `(runtime, nodes)` points.
    pub(crate) fn build(points: impl Iterator<Item = (f64, f64)>) -> RuntimeIndex {
        let mut ix = RuntimeIndex::default();
        for (runtime, nodes) in points {
            match entry(runtime, nodes) {
                Some(e) => ix.entries.push(e),
                None => ix.unindexed += 1,
            }
        }
        ix.entries.sort_unstable();
        for stride in ix.entries.chunks(STRIDE) {
            ix.total = ix.total.plus(Sums::of(stride));
            if stride.len() == STRIDE {
                ix.strides.push(ix.total);
            }
        }
        ix.weight = ix.entries.iter().map(|&e| weight(e)).sum();
        ix
    }

    /// Add a point.
    pub(crate) fn insert(&mut self, runtime: f64, nodes: f64) {
        let Some(e) = entry(runtime, nodes) else {
            self.unindexed += 1;
            return;
        };
        let k = self.entries.partition_point(|&x| x < e);
        self.entries.insert(k, e);
        // Each boundary past `k` gains `e` and loses the entry that `e`
        // pushed across it.
        let t = Sums::term(e);
        for (j, s) in self.strides.iter_mut().enumerate().skip(k / STRIDE) {
            *s = s.plus(t).minus(Sums::term(self.entries[STRIDE * (j + 1)]));
        }
        self.total = self.total.plus(t);
        self.weight += weight(e);
        if self.entries.len().is_multiple_of(STRIDE) {
            self.strides.push(self.total);
        }
    }

    /// Remove a point previously inserted.
    pub(crate) fn remove(&mut self, runtime: f64, nodes: f64) {
        let Some(e) = entry(runtime, nodes) else {
            self.unindexed -= 1;
            return;
        };
        let k = self
            .entries
            .binary_search(&e)
            .expect("a removed point was inserted");
        if self.entries.len().is_multiple_of(STRIDE) {
            self.strides.pop();
        }
        self.entries.remove(k);
        // Each boundary past `k` loses `e` and gains the entry that moved
        // down across it.
        let t = Sums::term(e);
        for (j, s) in self.strides.iter_mut().enumerate().skip(k / STRIDE) {
            *s = s
                .minus(t)
                .plus(Sums::term(self.entries[STRIDE * (j + 1) - 1]));
        }
        self.total = self.total.minus(t);
        self.weight -= weight(e);
    }

    /// Exact moments of the points whose run time exceeds `elapsed_s`
    /// (`sg`, `sgg`, `sgy` over node counts), with the number of entries
    /// read to form them and the smallest run time among those points,
    /// if any: the entry at the split. `None` when the index cannot
    /// answer exactly: some point is not indexed, Σ(g² + y²) reaches
    /// 2^64, a selected total reaches 2^53, or `elapsed_s` is NaN.
    pub(crate) fn above(&self, elapsed_s: f64) -> Option<(RegMoments, usize, Option<u32>)> {
        if self.unindexed > 0 || self.weight >> 64 != 0 || elapsed_s.is_nan() {
            return None;
        }
        // For an integral run time `r`, `r <= e` iff `r <= floor(e)`; the
        // cast floors and saturates. Entries from rank `i` on lie above.
        let t = elapsed_s as u32;
        let i = if elapsed_s < 0.0 {
            0
        } else {
            self.entries.partition_point(|&(r, _)| r <= t)
        };
        // The entries below `i` are those below its stride's boundary
        // `lo` and the at most 15 from `lo` to `i`.
        let lo = i - i % STRIDE;
        let below = match lo / STRIDE {
            0 => Sums::default(),
            j => self.strides[j - 1],
        };
        let sums = self.total.minus(below.plus(Sums::of(&self.entries[lo..i])));
        let next = self.entries.get(i).map(|&(r, _)| r);
        Some((sums.moments()?, i - lo, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::rng::Rng64;

    /// The brute-force sums over `points` above `e`.
    fn brute(points: &[(f64, f64)], e: f64) -> Sums {
        let sel: Vec<Entry> = points
            .iter()
            .filter(|p| p.0 > e)
            .map(|&(r, g)| entry(r, g).expect("integral"))
            .collect();
        Sums::of(&sel)
    }

    /// Sorted entries, exact stride and total sums, and the same layout
    /// as a fresh build over the same values.
    fn check_invariants(ix: &RuntimeIndex) {
        let all = &ix.entries;
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "entries out of order");
        assert_eq!(ix.strides.len(), all.len() / STRIDE);
        for (j, s) in ix.strides.iter().enumerate() {
            assert_eq!(*s, Sums::of(&all[..STRIDE * (j + 1)]), "stride {j}");
        }
        assert_eq!(ix.total, Sums::of(all));
        let fresh = RuntimeIndex::build(all.iter().map(|&(r, g)| (r as f64, g as f64)));
        assert_eq!(&fresh, ix, "layout depends on arrival order");
    }

    /// Every query that can tell two splits apart: at, just below and
    /// just above each distinct run time, and past both ends.
    fn probes(points: &[(f64, f64)]) -> Vec<f64> {
        let mut probes = vec![-1.0, f64::MAX];
        for &(r, _) in points {
            probes.extend([r - 1.0, r - 0.5, r, r + 0.5, r + 1.0]);
        }
        probes
    }

    fn check_queries(ix: &RuntimeIndex, points: &[(f64, f64)], what: &str) {
        for e in probes(points) {
            let (m, read, next) = ix.above(e).expect("integral points index exactly");
            assert_eq!(Some(m), brute(points, e).moments(), "{what}: elapsed {e}");
            assert!(read < STRIDE, "{what}: read {read} entries");
            let smallest = points
                .iter()
                .map(|p| p.0)
                .filter(|&r| r > e)
                .reduce(f64::min);
            assert_eq!(next.map(f64::from), smallest, "{what}: elapsed {e}");
        }
    }

    #[test]
    fn suffix_sums_match_brute_force_under_fifo_churn() {
        let mut rng = Rng64::seed_from_u64(0x5EED);
        for case in 0..40 {
            let cap = 1 + rng.gen_index(600);
            let span = 1 + rng.gen_index(if case % 2 == 0 { 20 } else { 100_000 }) as i64;
            let mut points: std::collections::VecDeque<(f64, f64)> = Default::default();
            let mut ix = RuntimeIndex::default();
            for step in 0..1_500 {
                if points.len() == cap {
                    let (r, g) = points.pop_front().unwrap();
                    ix.remove(r, g);
                }
                let p = (
                    rng.gen_range_i64(0, span) as f64,
                    (1 + rng.gen_index(64)) as f64,
                );
                points.push_back(p);
                ix.insert(p.0, p.1);
                if step % 97 == 0 {
                    check_invariants(&ix);
                }
                let pts: Vec<(f64, f64)> = points.iter().copied().collect();
                let e = rng.gen_range_i64(-1, span + 2) as f64;
                let (m, _, _) = ix.above(e).expect("integral points index exactly");
                assert_eq!(Some(m), brute(&pts, e).moments(), "case {case} step {step}");
            }
            check_invariants(&ix);
            // Reads are a function of the values alone.
            let rebuilt = RuntimeIndex::build(points.iter().copied());
            for e in [0.0, (span / 2) as f64, span as f64] {
                assert_eq!(rebuilt.above(e), ix.above(e));
            }
        }
    }

    /// Grow past five stride boundaries, churn, then shrink to nothing,
    /// removing the oldest point first (and, in odd cases, a random
    /// one): the layout and every distinguishing query hold at each step.
    #[test]
    fn every_stride_boundary_crossed_both_ways() {
        let mut rng = Rng64::seed_from_u64(0x57_21DE);
        for case in 0..12 {
            let span = [3, 40, 5_000][case % 3];
            let mut points: Vec<(f64, f64)> = Vec::new();
            let mut ix = RuntimeIndex::default();
            let step = |ix: &RuntimeIndex, points: &[(f64, f64)], what: &str| {
                check_invariants(ix);
                check_queries(ix, points, what);
            };
            for i in 0..5 * STRIDE + 3 {
                let p = (rng.gen_range_i64(0, span) as f64, rng.gen_index(9) as f64);
                points.push(p);
                ix.insert(p.0, p.1);
                step(&ix, &points, &format!("case {case} grow {i}"));
            }
            for i in 0..3 * STRIDE {
                let (r, g) = points.remove(0);
                ix.remove(r, g);
                let p = (rng.gen_range_i64(0, span) as f64, rng.gen_index(9) as f64);
                points.push(p);
                ix.insert(p.0, p.1);
                step(&ix, &points, &format!("case {case} churn {i}"));
            }
            while !points.is_empty() {
                let at = if case % 2 == 1 {
                    rng.gen_index(points.len())
                } else {
                    0
                };
                let (r, g) = points.remove(at);
                ix.remove(r, g);
                step(
                    &ix,
                    &points,
                    &format!("case {case} shrink to {}", points.len()),
                );
            }
            assert_eq!(ix, RuntimeIndex::default());
        }
    }

    #[test]
    fn unrepresentable_points_and_large_sums_decline() {
        let mut ix = RuntimeIndex::build([(10.0, 1.0), (20.0, 2.0)].into_iter());
        assert!(ix.above(5.0).is_some());
        ix.insert(12.5, 1.0);
        assert!(ix.above(5.0).is_none(), "non-integral run time");
        ix.remove(12.5, 1.0);
        assert!(ix.above(5.0).is_some());
        ix.insert(-1.0, 1.0);
        assert!(ix.above(5.0).is_none(), "negative run time");
        ix.remove(-1.0, 1.0);
        assert!(ix.above(f64::NAN).is_none());
        // 2^27 squared is 2^54: past exact f64 integer addition.
        ix.insert((1u64 << 27) as f64, 1.0);
        assert!(ix.above(5.0).is_none());
        assert!(
            ix.above((1u64 << 27) as f64).is_some(),
            "suffix excludes it"
        );
        // Above everything and below everything.
        let (none, _, next) = ix.above(u32::MAX as f64 * 2.0).unwrap();
        assert_eq!((none.n, next), (0, None));
        ix.remove((1u64 << 27) as f64, 1.0);
        let (all, read, next) = ix.above(-1.0).unwrap();
        assert_eq!((all.n, read, next), (2, 0, Some(10)));
    }

    /// A Σy² past 2^64 whose wrapped `u64` value is small: the index must
    /// decline every query while it is resident, not answer from the
    /// wrapped sums, and answer exactly again once it has left.
    #[test]
    fn sums_past_two_to_the_64_decline() {
        let small: Vec<(f64, f64)> = (0..2 * STRIDE).map(|i| (100.0 + i as f64, 1.0)).collect();
        let mut ix = RuntimeIndex::build(small.iter().copied());
        // (2^32 - 1)^2 + 92,682^2 = 2^64 + 18,533.
        let big = [(u32::MAX as f64, 1.0), (92_682.0, 1.0)];
        for (r, g) in big {
            ix.insert(r, g);
        }
        assert!(ix.total.yy < EXACT, "the wrapped Σy² looks exact");
        for e in [-1.0, 0.0, 99.0, 150.0, 92_682.0, 1e9, f64::MAX] {
            assert!(ix.above(e).is_none(), "elapsed {e}: Σy² is past 2^64");
        }
        ix.remove(u32::MAX as f64, 1.0);
        let mut points = small.clone();
        points.push(big[1]);
        check_invariants(&ix);
        check_queries(&ix, &points, "after the eviction");
    }
}
