//! Arrival times of the synthetic site models.
//!
//! Jobs arrive over `[0, span_s]` at a rate with a sinusoidal daily cycle
//! of amplitude `a`, whose cumulative rate is
//!
//! ```text
//! Λ(t) = t + (a·DAY/2π)·(1 − cos(2πt/DAY))
//! ```
//!
//! An arrival is `Λ⁻¹(target)` for a uniform `target` in `[0, Λ(span_s)]`,
//! rounded to whole seconds. The reference inversion is a 50-step
//! bisection ([`DailyCycle::arrival_by_bisection`]), 50 `cos` calls per
//! job. [`DailyCycle::certified_arrival`] takes a few Newton steps and
//! returns the rounded root only when [`DailyCycle::cumulative`]
//! certifies that it is the bisection's integer; the site models run the
//! bisection whenever it declines. DESIGN.md §15 carries the argument.
//!
//! # Why the fast path returns the bisection's integer
//!
//! Let `E` bound the floating-point error of [`DailyCycle::cumulative`]
//! against the exact Λ on `[0, span_s]`. For `span_s ≤ SPAN_CAP_S = 1e9`
//! the angle `2πt/DAY` is at most 7.3e4 rad and its three roundings
//! (`TAU`, the product, the quotient) move it by at most 2.5e-11 rad; times
//! the coefficient `a·DAY/2π ≤ 1.31e4` that is under 3.3e-7 s, and the
//! final addition rounds by at most 1.1e-7 s, so `E < 5e-7` s. Λ's slope
//! is at least `1 − a ≥ 0.05`, so `cumulative` orders two points at least
//! `η = 1e-4` s apart correctly: `0.05·η = 5e-6 > 2E`.
//!
//! Newton proposes a root `r`. It is *certified* when
//! `cumulative(r − η) < target ≤ cumulative(r + η)`, the bisection's own
//! test on both sides. Then every bisection midpoint at or below
//! `(r − η) − η` compares below `target` and moves `lo`, and every one at
//! or above `(r + η) + η` moves `hi`; since `lo` starts at 0 and `hi` at
//! `span_s`, `lo` stays below `r + 2η` and `hi` above `r − 2η`. The final
//! bracket is at most `W = span_s·2⁻⁴⁸` wide (each of the 50 halvings
//! adds at most `span_s·2⁻⁵³` of midpoint rounding), so the returned
//! midpoint lies strictly inside `[r − B, r + B]` with `B = 3η + W`, the
//! spare `η` absorbing the roundings of `r ± η` and `r ± B`. When that
//! band lies inside `(0, span_s)` and both of its ends round to one
//! integer, `round` is constant on it, and `r.round()` is the bisection's
//! answer. Spans above the cap, uncertified roots and bands that straddle
//! a half-second or an end of the span run the bisection.

use std::f64::consts::TAU;

/// Seconds per day: the period of the arrival-rate cycle.
const DAY: f64 = 86_400.0;

/// Largest span (seconds, about 32 years) for which the error bound `E`
/// of the module docs holds; longer spans always run the bisection.
pub const SPAN_CAP_S: f64 = 1e9;

/// Half-width `η` of the certification window, seconds.
const ETA: f64 = 1e-4;

/// Newton stops once its step falls below this, or after
/// [`NEWTON_STEPS`] steps; certification judges the result either way.
const NEWTON_TOL: f64 = ETA / 16.0;

/// Most Newton steps per arrival.
const NEWTON_STEPS: usize = 20;

/// `2⁻⁴⁸`: bounds the final bisection bracket relative to the span.
const BRACKET_REL: f64 = 1.0 / (1u64 << 48) as f64;

/// The daily-cycle arrival process over `[0, span_s]`.
#[derive(Debug, Clone, Copy)]
pub struct DailyCycle {
    span_s: f64,
    a: f64,
}

impl DailyCycle {
    /// The process over `[0, span_s]` with daily amplitude `amplitude`,
    /// clamped to `[0, 0.95]` so the rate never drops below 5% of its mean.
    pub fn new(span_s: f64, amplitude: f64) -> DailyCycle {
        DailyCycle {
            span_s,
            a: amplitude.clamp(0.0, 0.95),
        }
    }

    /// The arrival span, seconds.
    pub fn span_s(&self) -> f64 {
        self.span_s
    }

    /// The cumulative rate Λ(t), evaluated exactly as the bisection
    /// always has: both inversions compare against this function.
    #[inline]
    pub fn cumulative(&self, t: f64) -> f64 {
        let a = self.a;
        t + a * DAY / TAU * (1.0 - (TAU * t / DAY).cos())
    }

    /// `Λ(span_s)`: arrival targets are drawn uniformly below it.
    pub fn total(&self) -> f64 {
        self.cumulative(self.span_s)
    }

    /// `Λ⁻¹(target)` rounded to whole seconds by the reference
    /// inversion: 50 bisection steps on `[0, span_s]`, then the rounded
    /// midpoint. The site models fall back to it whenever
    /// [`certified_arrival`](Self::certified_arrival) declines.
    pub fn arrival_by_bisection(&self, target: f64) -> i64 {
        // Λ is strictly increasing.
        let (mut lo, mut hi) = (0.0, self.span_s);
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if self.cumulative(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).round() as i64
    }

    /// The fast path: [`certify_root`](Self::certify_root) applied to a
    /// Newton root. `Some` only with the bisection's integer.
    pub fn certified_arrival(&self, target: f64) -> Option<i64> {
        let a = self.a;
        let c = a * DAY / TAU;
        // t ≤ Λ(t) ≤ t + 2c brackets the root; a Newton step that leaves
        // the bracket, which low slopes at large `a` cause, bisects it.
        let (mut lo, mut hi) = (target - 2.0 * c, target);
        let mut r = target - c;
        for _ in 0..NEWTON_STEPS {
            let (sin, cos) = (TAU * r / DAY).sin_cos();
            let f = r + c * (1.0 - cos) - target;
            if f < 0.0 {
                lo = r;
            } else {
                hi = r;
            }
            let mut next = r - f / (1.0 + a * sin);
            if !(next >= lo && next <= hi) {
                next = 0.5 * (lo + hi);
            }
            let step = next - r;
            r = next;
            if step.is_nan() || step.abs() < NEWTON_TOL {
                break;
            }
        }
        self.certify_root(target, r)
    }

    /// `r.round()` when it provably equals
    /// [`arrival_by_bisection(target)`](Self::arrival_by_bisection), else
    /// `None`, whatever proposed `r`: the span is at most
    /// [`SPAN_CAP_S`], the band `[r − B, r + B]` lies inside
    /// `(0, span_s)` and rounds to one integer, and
    /// `cumulative(r − η) < target ≤ cumulative(r + η)` (module docs).
    pub fn certify_root(&self, target: f64, r: f64) -> Option<i64> {
        // The tests below are written so that a NaN span or root fails.
        if self.span_s.is_nan() || self.span_s > SPAN_CAP_S {
            return None;
        }
        let band = 3.0 * ETA + self.span_s * BRACKET_REL;
        let (lo, hi) = (r - band, r + band);
        if !(lo > 0.0 && hi < self.span_s) || lo.round() != hi.round() {
            return None;
        }
        if !(self.cumulative(r - ETA) < target && target <= self.cumulative(r + ETA)) {
            return None;
        }
        Some(r.round() as i64)
    }
}
