//! Time-series summary utilities used by the experiment harness.
//!
//! Figure 6 of the paper reports Dom0 CPU utilization as box plots
//! (quartiles + whiskers); Figures 5/7/8 report ratios aggregated over
//! many runs. [`SeriesSummary`] computes the required order statistics in
//! one pass over a series.

use serde::{Deserialize, Serialize};

/// Five-number summary (plus mean) of a series — exactly what a box plot
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Smallest value.
    pub min: f64,
    /// 25th percentile (lower box edge).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (upper box edge).
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub count: usize,
}

impl SeriesSummary {
    /// Summarizes `values`, ignoring non-finite entries.
    ///
    /// Returns `None` when no finite value is present.
    pub fn compute(values: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(SeriesSummary {
            min: sorted[0],
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            max: *sorted.last().expect("non-empty"),
            mean,
            count: sorted.len(),
        })
    }

    /// The interquartile range `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolation percentile of a sorted slice (`p ∈ [0, 100]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Mean of a slice (`0` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_series() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = SeriesSummary::compute(&values).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.max, 101.0);
        assert_eq!(s.q1, 26.0);
        assert_eq!(s.q3, 76.0);
        assert_eq!(s.mean, 51.0);
        assert_eq!(s.count, 101);
        assert_eq!(s.iqr(), 50.0);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = SeriesSummary::compute(&[1.0, f64::NAN, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn summary_of_empty_or_all_nan_is_none() {
        assert!(SeriesSummary::compute(&[]).is_none());
        assert!(SeriesSummary::compute(&[f64::NAN]).is_none());
    }

    #[test]
    fn percentile_bounds() {
        let sorted = [2.0, 4.0, 6.0];
        assert_eq!(percentile(&sorted, 0.0), 2.0);
        assert_eq!(percentile(&sorted, 100.0), 6.0);
        assert_eq!(percentile(&sorted, 50.0), 4.0);
        assert_eq!(percentile(&sorted, 150.0), 6.0); // clamped
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }
}
