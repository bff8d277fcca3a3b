//! Violation-likelihood estimation (§III-A, Inequalities 1–3).
//!
//! Volley's central quantity is the probability that the monitored value
//! exceeds the threshold `T` at some point between the current sample and
//! the next one. Modelling the per-default-interval change `δ` as a
//! time-independent random variable with mean `μ` and standard deviation
//! `σ`, the value `i` default intervals after the current sample `v` is
//! `v + i·δ`, and
//!
//! ```text
//! P[v + i·δ > T] = P[δ > (T − v)/i] ≤ 1 / (1 + k²),
//!        where k = (T − v − i·μ) / (i·σ)        (Inequality 1)
//! ```
//!
//! by the one-sided Chebyshev (Cantelli) inequality — *valid only when
//! `k > 0`*; otherwise the bound is vacuous and this module conservatively
//! reports 1. The probability of missing a violation anywhere within a
//! sampling interval of `I` default intervals is then bounded by
//!
//! ```text
//! β(I) ≤ 1 − Π_{i=1..I} k_i² / (1 + k_i²)       (Inequality 3)
//! ```
//!
//! Because Chebyshev holds for *any* distribution of `δ`, these bounds are
//! loose but safe: the adaptation algorithm that consumes them
//! ([`crate::adaptation`]) is conservative about growing the sampling
//! interval, which the paper argues costs little (cost shrinks sublinearly,
//! `1 → 1/2 → 1/3 → …`) while protecting accuracy.

/// Upper bound on the probability that the monitored value exceeds
/// `threshold` exactly `steps` default sampling intervals after a sample
/// with value `value`, given δ statistics `(mu, sigma)` (Inequality 1).
///
/// Conservative edge cases:
///
/// - `steps == 0` → probability of an *immediate* violation is 0 or 1
///   depending on `value > threshold` (no uncertainty).
/// - `k ≤ 0` (the mean walk already crosses the threshold) → 1.
/// - `sigma == 0` (deterministic walk) → 0 or 1 by the sign of
///   `threshold − value − steps·mu`.
/// - non-finite inputs → 1 (never claim safety on garbage data).
///
/// The result always lies in `[0, 1]`.
///
/// ```
/// use volley_core::exceed_probability_bound;
///
/// // Far below the threshold with a small, centered delta: tiny bound.
/// let p = exceed_probability_bound(10.0, 100.0, 0.0, 1.0, 1);
/// assert!(p < 0.001);
/// // Mean drift already crossing the threshold: vacuous bound.
/// let p = exceed_probability_bound(99.0, 100.0, 5.0, 1.0, 1);
/// assert_eq!(p, 1.0);
/// ```
pub fn exceed_probability_bound(
    value: f64,
    threshold: f64,
    mu: f64,
    sigma: f64,
    steps: u32,
) -> f64 {
    exceed_probability_bound_with(BoundKind::Chebyshev, value, threshold, mu, sigma, steps)
}

/// Upper bound `β(I)` on the probability of mis-detecting a violation when
/// the next sample is taken `interval` default intervals after the current
/// one (Inequality 3).
///
/// `β(I) ≤ 1 − Π_{i=1..I} (1 − P[v + i·δ > T])` with each factor bounded
/// via [`exceed_probability_bound`]. The result lies in `[0, 1]` and is
/// monotonically non-decreasing in `interval`.
///
/// ```
/// use volley_core::misdetection_bound;
///
/// let b1 = misdetection_bound(10.0, 100.0, 0.0, 2.0, 1);
/// let b4 = misdetection_bound(10.0, 100.0, 0.0, 2.0, 4);
/// assert!(b1 <= b4);
/// assert!(b4 <= 1.0);
/// ```
pub fn misdetection_bound(value: f64, threshold: f64, mu: f64, sigma: f64, interval: u32) -> f64 {
    misdetection_bound_with(BoundKind::Chebyshev, value, threshold, mu, sigma, interval)
}

/// Which tail bound the likelihood estimation uses.
///
/// The paper deliberately uses the distribution-free Chebyshev bound:
/// "some works make assumptions on value distributions, while our
/// approach makes no such assumptions" (§VI). The Gaussian variant is
/// provided for the `ablation_bound` study — it is much tighter (longer
/// intervals, more savings) but *unsafe* when δ is heavy-tailed, which
/// datacenter metrics routinely are.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum BoundKind {
    /// One-sided Chebyshev (Cantelli): `P ≤ 1/(1+k²)`, any distribution.
    #[default]
    Chebyshev,
    /// Gaussian upper tail: `P ≤ Q(k) = erfc(k/√2)/2`, assumes δ ~ Normal.
    Gaussian,
}

/// Complementary error function via the Abramowitz–Stegun 7.1.26
/// polynomial (max absolute error ≈ 1.5·10⁻⁷ — far below the err scales
/// the adaptation compares against).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let result = poly * (-x * x).exp();
    if sign_negative {
        2.0 - result
    } else {
        result
    }
}

/// Upper bound on `P[v + steps·δ > threshold]` under the chosen tail
/// bound; identical edge-case handling to [`exceed_probability_bound`].
pub fn exceed_probability_bound_with(
    kind: BoundKind,
    value: f64,
    threshold: f64,
    mu: f64,
    sigma: f64,
    steps: u32,
) -> f64 {
    if !value.is_finite() || !threshold.is_finite() || !mu.is_finite() || !sigma.is_finite() {
        return 1.0;
    }
    if steps == 0 {
        return if value > threshold { 1.0 } else { 0.0 };
    }
    let i = f64::from(steps);
    let headroom = threshold - value - i * mu;
    if sigma <= 0.0 {
        // Deterministic walk: the value i steps out is exactly v + i·μ.
        return if headroom < 0.0 { 1.0 } else { 0.0 };
    }
    if headroom <= 0.0 {
        // Cantelli requires k > 0; when the mean path reaches the
        // threshold the one-sided bound is vacuous.
        return 1.0;
    }
    let k = headroom / (i * sigma);
    match kind {
        BoundKind::Chebyshev => 1.0 / (1.0 + k * k),
        BoundKind::Gaussian => (erfc(k / std::f64::consts::SQRT_2) / 2.0).clamp(0.0, 1.0),
    }
}

/// `β(I)` under the chosen tail bound; see [`misdetection_bound`].
pub fn misdetection_bound_with(
    kind: BoundKind,
    value: f64,
    threshold: f64,
    mu: f64,
    sigma: f64,
    interval: u32,
) -> f64 {
    let mut no_violation = 1.0f64;
    for i in 1..=interval {
        let p = exceed_probability_bound_with(kind, value, threshold, mu, sigma, i);
        no_violation *= 1.0 - p;
        if no_violation <= 0.0 {
            return 1.0;
        }
    }
    (1.0 - no_violation).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_steps_is_indicator() {
        assert_eq!(exceed_probability_bound(5.0, 10.0, 0.0, 1.0, 0), 0.0);
        assert_eq!(exceed_probability_bound(15.0, 10.0, 0.0, 1.0, 0), 1.0);
    }

    #[test]
    fn deterministic_walk() {
        // v=0, μ=2, σ=0, T=5: crosses at i=3.
        assert_eq!(exceed_probability_bound(0.0, 5.0, 2.0, 0.0, 2), 0.0);
        assert_eq!(exceed_probability_bound(0.0, 5.0, 2.0, 0.0, 3), 1.0);
    }

    #[test]
    fn vacuous_when_mean_path_crosses() {
        assert_eq!(exceed_probability_bound(10.0, 10.0, 0.0, 1.0, 1), 1.0);
        assert_eq!(exceed_probability_bound(0.0, 10.0, 20.0, 1.0, 1), 1.0);
    }

    #[test]
    fn non_finite_inputs_are_conservative() {
        assert_eq!(exceed_probability_bound(f64::NAN, 10.0, 0.0, 1.0, 1), 1.0);
        assert_eq!(
            exceed_probability_bound(0.0, f64::INFINITY, 0.0, 1.0, 1),
            1.0
        );
        assert_eq!(misdetection_bound(f64::NAN, 10.0, 0.0, 1.0, 3), 1.0);
    }

    #[test]
    fn matches_closed_form() {
        // k = (T - v - iμ)/(iσ) = (100 - 20 - 5)/(5) = 15 at i=1, σ=5, μ=5.
        let p = exceed_probability_bound(20.0, 100.0, 5.0, 5.0, 1);
        let k: f64 = 15.0;
        assert!((p - 1.0 / (1.0 + k * k)).abs() < 1e-15);
    }

    #[test]
    fn bound_decreases_with_headroom() {
        let near = exceed_probability_bound(90.0, 100.0, 0.0, 3.0, 1);
        let far = exceed_probability_bound(10.0, 100.0, 0.0, 3.0, 1);
        assert!(far < near);
    }

    #[test]
    fn bound_increases_with_steps() {
        let mut prev = 0.0;
        for i in 1..20 {
            let p = exceed_probability_bound(10.0, 100.0, 1.0, 2.0, i);
            assert!(p >= prev, "step bound should grow with i (drifting mean)");
            prev = p;
        }
    }

    #[test]
    fn misdetection_monotone_in_interval() {
        let mut prev = 0.0;
        for interval in 1..=32 {
            let b = misdetection_bound(10.0, 100.0, 0.5, 2.0, interval);
            assert!(b >= prev - 1e-15);
            assert!((0.0..=1.0).contains(&b));
            prev = b;
        }
    }

    #[test]
    fn misdetection_saturates_at_one() {
        let b = misdetection_bound(99.0, 100.0, 10.0, 1.0, 8);
        assert_eq!(b, 1.0);
    }

    #[test]
    fn misdetection_interval_one_equals_single_step() {
        let v = 30.0;
        let t = 90.0;
        let b = misdetection_bound(v, t, 0.2, 4.0, 1);
        let p = exceed_probability_bound(v, t, 0.2, 4.0, 1);
        assert!((b - p).abs() < 1e-15);
    }

    #[test]
    fn gaussian_bound_is_tighter_than_chebyshev() {
        for k in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
            // headroom = k·σ with i = 1, σ = 1.
            let g = exceed_probability_bound_with(BoundKind::Gaussian, 0.0, k, 0.0, 1.0, 1);
            let c = exceed_probability_bound_with(BoundKind::Chebyshev, 0.0, k, 0.0, 1.0, 1);
            assert!(g < c, "k={k}: gaussian {g} vs chebyshev {c}");
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn gaussian_bound_matches_known_quantiles() {
        // Q(1.0) ≈ 0.1587, Q(2.0) ≈ 0.0228, Q(3.0) ≈ 0.00135.
        for (k, expected) in [(1.0, 0.1587), (2.0, 0.0228), (3.0, 0.00135)] {
            let g = exceed_probability_bound_with(BoundKind::Gaussian, 0.0, k, 0.0, 1.0, 1);
            assert!((g - expected).abs() < 2e-4, "k={k}: {g} vs {expected}");
        }
    }

    #[test]
    fn bound_kinds_share_edge_cases() {
        for kind in [BoundKind::Chebyshev, BoundKind::Gaussian] {
            assert_eq!(
                exceed_probability_bound_with(kind, 5.0, 10.0, 0.0, 1.0, 0),
                0.0
            );
            assert_eq!(
                exceed_probability_bound_with(kind, 15.0, 10.0, 0.0, 1.0, 0),
                1.0
            );
            assert_eq!(
                exceed_probability_bound_with(kind, 10.0, 10.0, 0.0, 1.0, 1),
                1.0
            );
            assert_eq!(
                exceed_probability_bound_with(kind, 0.0, 5.0, 2.0, 0.0, 3),
                1.0
            );
            assert_eq!(
                exceed_probability_bound_with(kind, f64::NAN, 1.0, 0.0, 1.0, 1),
                1.0
            );
        }
    }

    #[test]
    fn chebyshev_with_matches_plain() {
        let (v, t, mu, sigma) = (12.0, 80.0, 0.3, 2.0);
        for i in 1..=16u32 {
            assert_eq!(
                misdetection_bound(v, t, mu, sigma, i),
                misdetection_bound_with(BoundKind::Chebyshev, v, t, mu, sigma, i)
            );
        }
    }
}
