//! Point estimators with confidence intervals.
//!
//! The paper's template framework attaches one of four estimators to each
//! template — a mean or a linear, inverse, or logarithmic regression of
//! run time on the requested node count [13, 4] — and selects among
//! categories by the *smallest confidence interval*. This module
//! implements those estimators over `(x = nodes, y = value)` samples.
//!
//! Confidence/prediction intervals use the normal critical value 1.96
//! (95%); the relative ordering between categories, which is all the
//! selection rule needs, is unaffected by the choice of level.

/// Critical value for the interval half-widths.
const Z: f64 = 1.96;

/// An estimate with its confidence-interval half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate (same unit as the samples).
    pub value: f64,
    /// Half-width of the interval; `INFINITY` when not quantifiable
    /// (e.g. a single sample).
    pub ci: f64,
    /// Number of samples the estimate is based on.
    pub n: usize,
}

/// Sample mean with the standard-error-based interval `z * s / sqrt(n)`.
/// Returns `None` for an empty sample. A single sample yields an infinite
/// interval.
pub fn mean(values: impl Iterator<Item = f64>) -> Option<Estimate> {
    let mut n = 0usize;
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    for v in values {
        n += 1;
        sum += v;
        sum2 += v * v;
    }
    mean_from_moments(n, sum, sum2)
}

/// Sample mean from precomputed moments `(n, sum, sum2)` — the O(1) fast
/// path equivalent of [`mean`], which shares its post-sum arithmetic, so
/// for identical sums the results are bit-identical.
pub fn mean_from_moments(n: usize, sum: f64, sum2: f64) -> Option<Estimate> {
    if n == 0 {
        return None;
    }
    let m = sum / n as f64;
    let ci = if n >= 2 {
        let var = ((sum2 - sum * sum / n as f64) / (n as f64 - 1.0)).max(0.0);
        Z * var.sqrt() / (n as f64).sqrt()
    } else {
        f64::INFINITY
    };
    Some(Estimate { value: m, ci, n })
}

/// The regression families of the paper: `y = a + b*g(x)` with
/// `g(x) = x`, `1/x`, or `ln x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegressionKind {
    /// `y = a + b x`
    Linear,
    /// `y = a + b / x`
    Inverse,
    /// `y = a + b ln x`
    Logarithmic,
}

impl RegressionKind {
    /// The abscissa transform `g(x)` of this family.
    pub fn g(self, x: f64) -> f64 {
        match self {
            RegressionKind::Linear => x,
            RegressionKind::Inverse => 1.0 / x.max(1e-12),
            RegressionKind::Logarithmic => x.max(1e-12).ln(),
        }
    }
}

/// Least-squares regression of `y` on `g(x)`, evaluated at `x0`, with the
/// standard prediction-interval half-width
/// `z * s_e * sqrt(1 + 1/n + (g0 - mean_g)^2 / S_gg)`.
///
/// Requires at least 3 samples and at least two distinct `x` values;
/// returns `None` otherwise (the category "cannot provide a valid
/// prediction" in the paper's terms).
pub fn regression(
    kind: RegressionKind,
    samples: impl Iterator<Item = (f64, f64)>,
    x0: f64,
) -> Option<Estimate> {
    let mut n = 0usize;
    let (mut sg, mut sy, mut sgg, mut sgy, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (x, y) in samples {
        let g = kind.g(x);
        n += 1;
        sg += g;
        sy += y;
        sgg += g * g;
        sgy += g * y;
        syy += y * y;
    }
    regression_from_moments(kind, n, sg, sy, sgg, sgy, syy, x0)
}

/// [`regression`] from precomputed running sums over the transformed
/// samples `(g, y)` with `g = g(x)` — the O(1) fast path used when the
/// sums are maintained incrementally. The post-sum arithmetic is shared
/// with [`regression`], so for identical sums the results are
/// bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn regression_from_moments(
    kind: RegressionKind,
    n: usize,
    sg: f64,
    sy: f64,
    sgg: f64,
    sgy: f64,
    syy: f64,
    x0: f64,
) -> Option<Estimate> {
    if n < 3 {
        return None;
    }
    let nf = n as f64;
    let s_gg = sgg - sg * sg / nf;
    if s_gg < 1e-9 {
        return None; // all x identical: slope undetermined
    }
    let s_gy = sgy - sg * sy / nf;
    let b = s_gy / s_gg;
    let a = (sy - b * sg) / nf;
    let g0 = kind.g(x0);
    let value = a + b * g0;
    // Residual variance; clamped at zero — catastrophic cancellation in
    // the sum-of-squares moments can drive it slightly negative for
    // near-perfect fits, and a NaN interval would poison the smallest-CI
    // selection.
    let sse = (syy - sy * sy / nf) - b * s_gy;
    let s_e2 = (sse / (nf - 2.0)).max(0.0);
    let mean_g = sg / nf;
    let ci = Z * s_e2.sqrt() * (1.0 + 1.0 / nf + (g0 - mean_g).powi(2) / s_gg).sqrt();
    Some(Estimate { value, ci, n })
}

/// Weighted least-squares regression `y = a + b x` over `(x, y, w)`
/// triples, evaluated at `x0` — the regression Gibbons runs across
/// subcategory means, weighting each by the inverse variance of its run
/// times.
///
/// Falls back to the weighted mean (with infinite interval) when the `x`
/// values do not span (degenerate slope), and returns `None` with fewer
/// than 2 points.
pub fn weighted_linear(
    samples: impl Iterator<Item = (f64, f64, f64)>,
    x0: f64,
) -> Option<Estimate> {
    let mut pts: Vec<(f64, f64, f64)> = samples
        .filter(|&(_, _, w)| w.is_finite() && w > 0.0)
        .collect();
    if pts.is_empty() {
        return None;
    }
    if pts.len() == 1 {
        return Some(Estimate {
            value: pts[0].1,
            ci: f64::INFINITY,
            n: 1,
        });
    }
    // Normalize weights for numeric stability.
    let wsum: f64 = pts.iter().map(|p| p.2).sum();
    for p in &mut pts {
        p.2 /= wsum;
    }
    let xbar: f64 = pts.iter().map(|&(x, _, w)| w * x).sum();
    let ybar: f64 = pts.iter().map(|&(_, y, w)| w * y).sum();
    let sxx: f64 = pts
        .iter()
        .map(|&(x, _, w)| w * (x - xbar) * (x - xbar))
        .sum();
    if sxx < 1e-9 {
        return Some(Estimate {
            value: ybar,
            ci: f64::INFINITY,
            n: pts.len(),
        });
    }
    let sxy: f64 = pts
        .iter()
        .map(|&(x, y, w)| w * (x - xbar) * (y - ybar))
        .sum();
    let b = sxy / sxx;
    let a = ybar - b * xbar;
    let value = a + b * x0;
    // Weighted residual spread as the interval basis.
    let sse: f64 = pts
        .iter()
        .map(|&(x, y, w)| w * (y - a - b * x).powi(2))
        .sum();
    let nf = pts.len() as f64;
    let ci = if pts.len() > 2 {
        Z * (sse * nf / (nf - 2.0)).sqrt() * (1.0 + 1.0 / nf + (x0 - xbar).powi(2) / sxx).sqrt()
    } else {
        f64::INFINITY
    };
    Some(Estimate {
        value,
        ci,
        n: pts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_and_single() {
        assert!(mean(std::iter::empty()).is_none());
        let e = mean([5.0].into_iter()).unwrap();
        assert_eq!(e.value, 5.0);
        assert!(e.ci.is_infinite());
        assert_eq!(e.n, 1);
    }

    #[test]
    fn mean_matches_hand_computation() {
        // xs = 2, 4, 6: mean 4, sample var 4, s 2, se 2/sqrt(3)
        let e = mean([2.0, 4.0, 6.0].into_iter()).unwrap();
        assert!((e.value - 4.0).abs() < 1e-12);
        assert!((e.ci - 1.96 * 2.0 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn near_constant_history_never_yields_nan_interval() {
        // Catastrophic cancellation: for huge near-identical values,
        // `sum2 - sum²/n` computed in f64 can come out negative. The
        // variance clamp must turn that into a zero interval, not NaN.
        let vals = [1e8 + 0.1, 1e8 + 0.1, 1e8 + 0.1, 1e8 + 0.1];
        let e = mean(vals.into_iter()).expect("non-empty");
        assert!(e.ci.is_finite(), "ci {}", e.ci);
        assert!(e.ci >= 0.0);
        // The same sums via the moments path.
        let (mut sum, mut sum2) = (0.0, 0.0);
        for v in vals {
            sum += v;
            sum2 += v * v;
        }
        let m = mean_from_moments(vals.len(), sum, sum2).expect("non-empty");
        assert_eq!(e.value.to_bits(), m.value.to_bits());
        assert_eq!(e.ci.to_bits(), m.ci.to_bits());
        // A directly negative variance (as subtract-on-evict residue can
        // produce) clamps to a zero interval.
        let neg = mean_from_moments(2, 2e8, (1e8f64).powi(2) * 2.0 - 1e3).expect("non-empty");
        assert_eq!(neg.ci, 0.0, "negative variance must clamp, got {}", neg.ci);
        assert!(neg.value.is_finite());
    }

    #[test]
    fn near_constant_regression_never_yields_nan_interval() {
        // A perfect fit on huge values: SSE cancels catastrophically.
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 1e9 + i as f64)).collect();
        let e = regression(RegressionKind::Linear, pts.iter().copied(), 3.0).expect("fits");
        assert!(e.ci.is_finite() && e.ci >= 0.0, "ci {}", e.ci);
        // Moments with a slightly negative implied SSE must clamp too.
        let (mut n, mut sg, mut sy, mut sgg, mut sgy, mut syy) = (0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for &(x, y) in &pts {
            n += 1;
            sg += x;
            sy += y;
            sgg += x * x;
            sgy += x * y;
            syy += y * y;
        }
        let m =
            regression_from_moments(RegressionKind::Linear, n, sg, sy, sgg, sgy, syy - 1.0, 3.0)
                .expect("fits");
        assert!(m.ci.is_finite() && m.ci >= 0.0, "ci {}", m.ci);
    }

    #[test]
    fn mean_ci_shrinks_with_n() {
        let small = mean([10.0, 12.0, 14.0].into_iter()).unwrap();
        let big = mean((0..30).map(|i| 10.0 + 4.0 * ((i % 3) as f64))).unwrap();
        assert!(big.ci < small.ci);
    }

    #[test]
    fn linear_regression_recovers_exact_line() {
        // y = 3 + 2x, noiseless
        let pts = [(1.0, 5.0), (2.0, 7.0), (4.0, 11.0), (8.0, 19.0)];
        let e = regression(RegressionKind::Linear, pts.iter().copied(), 16.0).unwrap();
        assert!((e.value - 35.0).abs() < 1e-9);
        assert!(e.ci < 1e-6, "noiseless fit should have ~zero interval");
    }

    #[test]
    fn inverse_regression() {
        // y = 10 + 8/x
        let pts = [(1.0, 18.0), (2.0, 14.0), (4.0, 12.0), (8.0, 11.0)];
        let e = regression(RegressionKind::Inverse, pts.iter().copied(), 16.0).unwrap();
        assert!((e.value - 10.5).abs() < 1e-9);
    }

    #[test]
    fn log_regression() {
        // y = 1 + 2 ln x
        let pts = [
            (1.0, 1.0),
            (std::f64::consts::E, 3.0),
            (std::f64::consts::E.powi(2), 5.0),
        ];
        let e = regression(RegressionKind::Logarithmic, pts.iter().copied(), 1.0).unwrap();
        assert!((e.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_needs_three_points_and_spread() {
        let two = [(1.0, 5.0), (2.0, 7.0)];
        assert!(regression(RegressionKind::Linear, two.iter().copied(), 3.0).is_none());
        let same_x = [(2.0, 5.0), (2.0, 7.0), (2.0, 9.0)];
        assert!(regression(RegressionKind::Linear, same_x.iter().copied(), 3.0).is_none());
    }

    #[test]
    fn regression_interval_grows_with_extrapolation() {
        let pts = [(1.0, 5.1), (2.0, 6.9), (3.0, 9.2), (4.0, 10.8)];
        let near = regression(RegressionKind::Linear, pts.iter().copied(), 2.5).unwrap();
        let far = regression(RegressionKind::Linear, pts.iter().copied(), 50.0).unwrap();
        assert!(far.ci > near.ci);
    }

    #[test]
    fn weighted_linear_prefers_heavy_points() {
        // Heavy points on y = x; one light outlier.
        let pts = [
            (1.0, 1.0, 100.0),
            (2.0, 2.0, 100.0),
            (3.0, 3.0, 100.0),
            (2.0, 10.0, 0.01),
        ];
        let e = weighted_linear(pts.iter().copied(), 4.0).unwrap();
        assert!((e.value - 4.0).abs() < 0.1, "value {}", e.value);
    }

    #[test]
    fn weighted_linear_degenerate_cases() {
        assert!(weighted_linear(std::iter::empty(), 1.0).is_none());
        let one = [(2.0, 7.0, 1.0)];
        let e = weighted_linear(one.iter().copied(), 5.0).unwrap();
        assert_eq!(e.value, 7.0);
        assert!(e.ci.is_infinite());
        // same x -> weighted mean
        let same = [(2.0, 6.0, 1.0), (2.0, 10.0, 3.0)];
        let e = weighted_linear(same.iter().copied(), 5.0).unwrap();
        assert!((e.value - 9.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_linear_ignores_nonpositive_weights() {
        let pts = [
            (1.0, 1.0, 1.0),
            (2.0, 2.0, 1.0),
            (3.0, 3.0, 1.0),
            (9.0, 99.0, 0.0),
            (9.0, 99.0, f64::INFINITY),
        ];
        let e = weighted_linear(pts.iter().copied(), 4.0).unwrap();
        assert!((e.value - 4.0).abs() < 1e-9);
        assert_eq!(e.n, 3);
    }
}
