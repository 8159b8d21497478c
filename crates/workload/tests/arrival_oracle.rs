//! Property tests: the certified Newton inversion of the daily-cycle
//! arrival process must return exactly the integer the reference 50-step
//! bisection returns, for every target.
//!
//! The inputs are seeded: spans log-uniform from 1e3 to 1e9 s (the span
//! cap), amplitudes 0, 0.95 and uniform draws, and three kinds of target:
//! uniform draws under the cumulative rate, as the site models draw them;
//! adversarial targets whose roots sit on or next to a half-second, where
//! rounding flips; and ties, targets exactly equal to the cumulative rate
//! at one of the bisection's own midpoints. The certificate is also held
//! to the bisection on its own, for proposed roots up to seconds away
//! from the true one. A release build checks over a million targets; a
//! debug build checks a twentieth of them.

use qpredict_workload::rng::Rng64;
use qpredict_workload::synthetic::arrivals::{DailyCycle, SPAN_CAP_S};

/// Cycles per case kind; each kind draws a fixed number of targets from
/// every cycle.
fn cycles() -> usize {
    if cfg!(debug_assertions) {
        150
    } else {
        3000
    }
}

fn random_cycle(rng: &mut Rng64) -> DailyCycle {
    let span_s = 10f64.powf(rng.gen_range_f64(3.0, SPAN_CAP_S.log10()));
    let a = match rng.gen_index(3) {
        0 => 0.0,
        1 => 0.95,
        _ => rng.gen_range_f64(0.0, 0.95),
    };
    DailyCycle::new(span_s, a)
}

/// The bisection's midpoints for `target`, in the order it visits them
/// (the same loop as `DailyCycle::arrival_by_bisection`).
fn bisection_midpoints(c: &DailyCycle, target: f64) -> Vec<f64> {
    let (mut lo, mut hi) = (0.0, c.span_s());
    let mut mids = Vec::with_capacity(50);
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        mids.push(mid);
        if c.cumulative(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    mids
}

/// Checks one target; returns whether the fast path certified it.
fn check(c: &DailyCycle, target: f64, what: &str) -> bool {
    let want = c.arrival_by_bisection(target);
    let fast = c.certified_arrival(target);
    if let Some(got) = fast {
        assert_eq!(
            got, want,
            "{what}: certified {got} vs bisection {want} ({c:?}, target {target:e})"
        );
    }
    fast.is_some()
}

#[test]
fn uniform_targets_match_bisection() {
    let mut rng = Rng64::seed_from_u64(0xA771_0001);
    let (mut n, mut fast) = (0usize, 0usize);
    for _ in 0..cycles() {
        let c = random_cycle(&mut rng);
        let total = c.total();
        for _ in 0..150 {
            n += 1;
            fast += usize::from(check(&c, rng.gen_f64() * total, "uniform"));
        }
    }
    // A fast path that always declined would pass the equality checks
    // and prove nothing; at these spans it declines well under 1%.
    assert!(fast * 100 > n * 99, "certified {fast} of {n}");
}

#[test]
fn half_second_roots_match_bisection() {
    let mut rng = Rng64::seed_from_u64(0xA771_0002);
    let (mut n, mut fast) = (0usize, 0usize);
    for _ in 0..cycles() {
        let c = random_cycle(&mut rng);
        for _ in 0..20 {
            let k = (rng.gen_f64() * (c.span_s() - 1.0)).floor();
            for delta in [0.0, 1e-9, 1e-6, 1e-5] {
                for sign in [-1.0, 1.0] {
                    let target = c.cumulative(k + 0.5 + sign * delta);
                    n += 1;
                    fast += usize::from(check(&c, target, "half-second root"));
                }
            }
        }
    }
    // Roots this close to a half-second must mostly decline: the band
    // check is what keeps them exact.
    assert!(fast * 2 < n, "certified {fast} of {n} half-second roots");
}

#[test]
fn targets_at_bisection_midpoints_match_bisection() {
    let mut rng = Rng64::seed_from_u64(0xA771_0003);
    for _ in 0..cycles() {
        let c = random_cycle(&mut rng);
        let total = c.total();
        for _ in 0..50 {
            let mids = bisection_midpoints(&c, rng.gen_f64() * total);
            let mid = mids[rng.gen_index(mids.len())];
            check(&c, c.cumulative(mid), "tie at a midpoint");
        }
    }
}

/// The certificate alone, on proposed roots that Newton would not give:
/// whatever root it is handed, it either declines or returns the
/// bisection's integer. Newton converges on every input above, so this
/// is the case that shows the certification and the band check at work.
#[test]
fn certificate_holds_for_any_proposed_root() {
    let mut rng = Rng64::seed_from_u64(0xA771_0005);
    let offsets = [
        0.0, 1e-6, 1e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 0.01, 0.3, 0.5, 0.7, 3.0,
    ];
    let (mut near, mut near_certified) = (0usize, 0usize);
    for _ in 0..cycles() {
        let c = random_cycle(&mut rng);
        let total = c.total();
        for _ in 0..10 {
            let target = rng.gen_f64() * total;
            let want = c.arrival_by_bisection(target);
            let root = *bisection_midpoints(&c, target)
                .last()
                .expect("50 midpoints");
            for off in offsets {
                for r in [root - off, root + off] {
                    if let Some(got) = c.certify_root(target, r) {
                        assert_eq!(
                            got, want,
                            "root {root} + {off:e}: certified {got} vs bisection {want} ({c:?})"
                        );
                    }
                    if off <= 1e-5 {
                        near += 1;
                        near_certified += usize::from(c.certify_root(target, r).is_some());
                    }
                }
            }
        }
    }
    assert!(
        near_certified * 100 > near * 99,
        "certified {near_certified} of {near} near roots"
    );
}

#[test]
fn spans_and_targets_at_the_edges_match_bisection() {
    let mut rng = Rng64::seed_from_u64(0xA771_0004);
    let spans = [0.0, 0.4, 1.0, 7.5, 1e3, 86_400.0, SPAN_CAP_S, 2e9, 1e12];
    for span_s in spans {
        for a in [-0.5, 0.0, 0.35, 0.95, 1.2] {
            let c = DailyCycle::new(span_s, a);
            let total = c.total();
            for target in [0.0, f64::MIN_POSITIVE, 0.5, total * 0.5, total] {
                check(&c, target, "edge");
            }
            for _ in 0..200 {
                check(&c, rng.gen_f64() * total, "edge span");
            }
        }
    }
}

#[test]
fn spans_above_the_cap_always_bisect() {
    let c = DailyCycle::new(2e9, 0.35);
    assert_eq!(c.certified_arrival(c.total() * 0.5), None);
    let c = DailyCycle::new(f64::NAN, 0.35);
    assert_eq!(c.certified_arrival(1e6), None);
}
