//! Runtime-ordered suffix index for elapsed-time conditioning.
//!
//! The `rtime` option predicts a running job only from the history
//! points whose run time exceeds its elapsed time. A scan reads every
//! point of the category on every such estimate. This index keeps the
//! points sorted by run time in blocks of 64 consecutive ranks, with the
//! exact integer sums of every block prefix, so the sums over the points
//! above any elapsed time cost one binary search and a partial pass over
//! one block. An insert or removal shifts one entry across each later
//! block boundary and updates the later prefix sums.
//!
//! The layout depends only on the indexed values, not on the order they
//! arrived in: an index rebuilt from a decoded history is the index the
//! original maintained, and reads the same entries for every query.
//!
//! **Exactness.** The index holds only points whose run time and node
//! count are non-negative integers that fit in `u32` (every point built
//! from a job, whose durations are whole seconds), and sums them in
//! `u128`, which cannot overflow. When every total of the selected points
//! is below 2^53, every partial sum a scan over the same points forms is
//! an integer below 2^53 too (all terms are non-negative), so each f64
//! addition and product of the scan is exact and its result equals the
//! integer total in any order. The estimator then receives the same sums
//! and its shared post-sum arithmetic yields a bit-identical estimate.
//! While any point is not representable, or a total reaches 2^53,
//! [`RuntimeIndex::above`] answers `None` and the caller scans.

use std::collections::VecDeque;

use crate::category::RegMoments;

/// Entries per block; every block but the last is full.
const BLOCK: usize = 64;

/// Integers below this convert to f64 and add in f64 exactly.
const EXACT: u128 = 1 << 53;

/// One indexed point: `(run time, nodes)`, ordered by run time first.
type Entry = (u32, u32);

/// The entry for a point, when both values are non-negative integers
/// that fit in `u32`.
fn entry(runtime: f64, nodes: f64) -> Option<Entry> {
    let exact = |v: f64| (v >= 0.0 && v <= u32::MAX as f64 && v.fract() == 0.0).then_some(v as u32);
    Some((exact(runtime)?, exact(nodes)?))
}

/// Exact sums over entries, with `y` the run time and `g` the node count:
/// what [`RegMoments`] holds, in integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sums {
    n: u64,
    g: u128,
    y: u128,
    gg: u128,
    gy: u128,
    yy: u128,
}

impl Sums {
    fn of<'a>(entries: impl IntoIterator<Item = &'a Entry>) -> Sums {
        let mut s = Sums::default();
        for &e in entries {
            s.add(e);
        }
        s
    }

    fn add(&mut self, (y, g): Entry) {
        let (y, g) = (u128::from(y), u128::from(g));
        self.n += 1;
        self.g += g;
        self.y += y;
        self.gg += g * g;
        self.gy += g * y;
        self.yy += y * y;
    }

    fn sub(&mut self, (y, g): Entry) {
        let (y, g) = (u128::from(y), u128::from(g));
        self.n -= 1;
        self.g -= g;
        self.y -= y;
        self.gg -= g * g;
        self.gy -= g * y;
        self.yy -= y * y;
    }

    fn plus(self, o: Sums) -> Sums {
        Sums {
            n: self.n + o.n,
            g: self.g + o.g,
            y: self.y + o.y,
            gg: self.gg + o.gg,
            gy: self.gy + o.gy,
            yy: self.yy + o.yy,
        }
    }

    fn minus(self, o: Sums) -> Sums {
        Sums {
            n: self.n - o.n,
            g: self.g - o.g,
            y: self.y - o.y,
            gg: self.gg - o.gg,
            gy: self.gy - o.gy,
            yy: self.yy - o.yy,
        }
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

/// A block holding `entries`, with room for the one entry over a full
/// block that an insert holds until it carries its last entry on.
fn block(entries: &[Entry]) -> VecDeque<Entry> {
    let mut b = VecDeque::with_capacity(BLOCK + 1);
    b.extend(entries);
    b
}

fn last(block: &VecDeque<Entry>) -> Entry {
    *block.back().expect("blocks are never empty")
}

/// Points of one history sorted by run time, with exact cumulative sums
/// per block. Derived state: built from the points it indexes, never
/// encoded.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuntimeIndex {
    /// Entries in sorted order: block `j` holds ranks `j * BLOCK ..
    /// (j + 1) * BLOCK`. No block is empty.
    blocks: Vec<VecDeque<Entry>>,
    /// `prefix[j]` sums blocks `0..=j`; the last is the total.
    prefix: Vec<Sums>,
    /// Points of the history the index could not hold; while any is
    /// present the index answers nothing.
    unindexed: usize,
}

impl RuntimeIndex {
    /// Index `(runtime, nodes)` points.
    pub(crate) fn build(points: impl Iterator<Item = (f64, f64)>) -> RuntimeIndex {
        let mut entries = Vec::new();
        let mut unindexed = 0;
        for (runtime, nodes) in points {
            match entry(runtime, nodes) {
                Some(e) => entries.push(e),
                None => unindexed += 1,
            }
        }
        entries.sort_unstable();
        let blocks: Vec<VecDeque<Entry>> = entries.chunks(BLOCK).map(block).collect();
        let prefix = blocks
            .iter()
            .scan(Sums::default(), |acc, b| {
                *acc = acc.plus(Sums::of(b));
                Some(*acc)
            })
            .collect();
        RuntimeIndex {
            blocks,
            prefix,
            unindexed,
        }
    }

    fn total(&self) -> Sums {
        self.prefix.last().copied().unwrap_or_default()
    }

    /// Add a point.
    pub(crate) fn insert(&mut self, runtime: f64, nodes: f64) {
        let Some(e) = entry(runtime, nodes) else {
            self.unindexed += 1;
            return;
        };
        if self.blocks.is_empty() {
            self.blocks.push(block(&[e]));
            self.prefix.push(Sums::of(&[e]));
            return;
        }
        // The first block whose last entry is not below `e`, else the
        // last block: every earlier entry is below `e`.
        let k = self
            .blocks
            .partition_point(|b| last(b) < e)
            .min(self.blocks.len() - 1);
        let b = &mut self.blocks[k];
        b.insert(b.partition_point(|&x| x < e), e);
        for p in &mut self.prefix[k..] {
            p.add(e);
        }
        // Carry each overfull block's last entry into the next block.
        for j in k..self.blocks.len() {
            if self.blocks[j].len() <= BLOCK {
                break;
            }
            let moved = self.blocks[j].pop_back().expect("overfull");
            self.prefix[j].sub(moved);
            match self.blocks.get_mut(j + 1) {
                Some(next) => next.push_front(moved),
                None => {
                    self.blocks.push(block(&[moved]));
                    let total = self.prefix[j].plus(Sums::of(&[moved]));
                    self.prefix.push(total);
                }
            }
        }
    }

    /// Remove a point previously inserted.
    pub(crate) fn remove(&mut self, runtime: f64, nodes: f64) {
        let Some(e) = entry(runtime, nodes) else {
            self.unindexed -= 1;
            return;
        };
        // The first block whose last entry is not below `e` holds `e`.
        let k = self.blocks.partition_point(|b| last(b) < e);
        let b = &mut self.blocks[k];
        let i = b.binary_search(&e).expect("a removed point was inserted");
        b.remove(i);
        for p in &mut self.prefix[k..] {
            p.sub(e);
        }
        // Refill each short block from the front of the next one.
        for j in k + 1..self.blocks.len() {
            let moved = self.blocks[j].pop_front().expect("non-empty");
            self.blocks[j - 1].push_back(moved);
            self.prefix[j - 1].add(moved);
        }
        if self.blocks.last().is_some_and(|b| b.is_empty()) {
            self.blocks.pop();
            self.prefix.pop();
        }
    }

    /// Exact moments of the points whose run time exceeds `elapsed_s`
    /// (`sg`, `sgg`, `sgy` over node counts), with the number of entries
    /// read to form them. `None` when the index cannot answer exactly:
    /// some point is not indexed, a total reaches 2^53, or `elapsed_s`
    /// is NaN.
    pub(crate) fn above(&self, elapsed_s: f64) -> Option<(RegMoments, usize)> {
        if self.unindexed > 0 || elapsed_s.is_nan() {
            return None;
        }
        let (sums, read) = if elapsed_s < 0.0 {
            (self.total(), 0)
        } else if elapsed_s >= u32::MAX as f64 {
            (Sums::default(), 0)
        } else {
            // For an integral run time `r`, `r > e` iff `r > floor(e)`.
            self.sums_above(elapsed_s as u32)
        };
        Some((sums.moments()?, read))
    }

    /// Sums of the entries with run time above `t`, and entries read.
    fn sums_above(&self, t: u32) -> (Sums, usize) {
        let k = self.blocks.partition_point(|b| last(b).0 <= t);
        let Some(b) = self.blocks.get(k) else {
            return (Sums::default(), 0);
        };
        // Inside block `k`, read whichever side of the split is shorter.
        let i = b.partition_point(|&(r, _)| r <= t);
        let tail = b.len() - i;
        if i < tail {
            let before = if k > 0 {
                self.prefix[k - 1]
            } else {
                Sums::default()
            };
            let below = before.plus(Sums::of(b.range(..i)));
            (self.total().minus(below), i)
        } else {
            let after = self.total().minus(self.prefix[k]);
            (after.plus(Sums::of(b.range(i..))), tail)
        }
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

    /// Sorted entries, full blocks but the last, exact prefix sums, and
    /// the same layout as a fresh build over the same values.
    fn check_invariants(ix: &RuntimeIndex) {
        let all: Vec<Entry> = ix.blocks.iter().flatten().copied().collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "entries out of order");
        assert_eq!(ix.prefix.len(), ix.blocks.len());
        for (j, b) in ix.blocks.iter().enumerate() {
            let full = j + 1 < ix.blocks.len();
            assert!(!b.is_empty() && b.len() <= BLOCK);
            assert!(!full || b.len() == BLOCK, "block {j} not full");
            assert_eq!(ix.prefix[j], Sums::of(ix.blocks[..=j].iter().flatten()));
        }
        let fresh = RuntimeIndex::build(all.iter().map(|&(r, g)| (r as f64, g as f64)));
        assert_eq!(fresh.blocks, ix.blocks, "layout depends on arrival order");
        assert_eq!(fresh.prefix, ix.prefix);
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
                let (m, _) = ix.above(e).expect("integral points index exactly");
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
        let (none, _) = ix.above(u32::MAX as f64 * 2.0).unwrap();
        assert_eq!(none.n, 0);
        ix.remove((1u64 << 27) as f64, 1.0);
        let (all, read) = ix.above(-1.0).unwrap();
        assert_eq!((all.n, read), (2, 0));
    }
}
