//! Aggregation time windows (§VII — the paper's named future-work item:
//! "advanced state monitoring forms (e.g. tasks with aggregation time
//! window)").
//!
//! Many production alert conditions are defined on a *windowed aggregate*
//! rather than an instantaneous value — "average CPU over the last
//! 5 minutes above 80%", "request count in the last minute above N".
//! [`SlidingWindow`] maintains the window mean incrementally (O(1)
//! amortized per update), and [`WindowedSampler`] composes it with the
//! adaptive controller: the monitored value handed to the likelihood
//! machinery is the mean, whose smoothness is exactly what makes windowed
//! tasks friendly to violation-likelihood estimation (an average over `W`
//! ticks can move only slowly, so δ statistics are tight and intervals
//! grow further than for the raw series).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::adaptation::{AdaptationConfig, AdaptiveSampler, Observation};
use crate::error::VolleyError;
use crate::time::Tick;

/// A sliding time window over `(tick, value)` observations.
///
/// Values older than `width` ticks (relative to the most recent push)
/// are evicted; the mean is maintained incrementally.
///
/// ```
/// use volley_core::window::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3).unwrap();
/// w.push(0, 10.0);
/// w.push(1, 20.0);
/// w.push(2, 30.0);
/// assert_eq!(w.mean(), 20.0);
/// w.push(3, 40.0); // tick 0 falls out of the 3-tick window
/// assert_eq!(w.mean(), 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlidingWindow {
    width: u64,
    entries: VecDeque<(Tick, f64)>,
    sum: f64,
}

impl SlidingWindow {
    /// Creates a window spanning `width` ticks (inclusive of the newest
    /// tick: a width of `W` keeps ticks in `(t − W, t]`).
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] when `width` is zero.
    pub fn new(width: u64) -> Result<Self, VolleyError> {
        if width == 0 {
            return Err(VolleyError::invalid("width", "must span at least one tick"));
        }
        Ok(SlidingWindow {
            width,
            entries: VecDeque::new(),
            sum: 0.0,
        })
    }

    /// The window width in ticks.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of values currently inside the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes an observation and evicts entries older than the window.
    ///
    /// Ticks must be non-decreasing; non-finite values are ignored.
    pub fn push(&mut self, tick: Tick, value: f64) {
        if value.is_finite() {
            self.entries.push_back((tick, value));
            self.sum += value;
        }
        self.evict(tick);
    }

    fn evict(&mut self, now: Tick) {
        let cutoff = now.saturating_sub(self.width - 1);
        while let Some(&(t, v)) = self.entries.front() {
            if t < cutoff {
                self.entries.pop_front();
                self.sum -= v;
            } else {
                break;
            }
        }
        // Rebuild the sum occasionally to cap floating-point drift on
        // long streams.
        if self.entries.len() > 1 && self.sum.abs() > 1e12 {
            self.sum = self.entries.iter().map(|(_, v)| v).sum();
        }
    }

    /// The mean of the values in the window (0 for an empty window).
    pub fn mean(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.sum / self.entries.len() as f64
    }
}

/// An adaptive sampler over a windowed mean: the violation condition is
/// `mean(window) > threshold`, and the likelihood machinery operates on
/// the mean series.
///
/// ```
/// use volley_core::window::WindowedSampler;
/// use volley_core::AdaptationConfig;
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let config = AdaptationConfig::builder().error_allowance(0.01).build()?;
/// // Alert when the 10-tick mean exceeds 80.
/// let mut sampler = WindowedSampler::new(config, 80.0, 10)?;
/// sampler.observe(0, 10.0);
/// let outcome = sampler.observe(1, 95.0); // one hot sample
/// assert!(!outcome.violation); // the window mean (52.5) hasn't crossed yet
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedSampler {
    window: SlidingWindow,
    sampler: AdaptiveSampler,
}

impl WindowedSampler {
    /// Creates a windowed sampler; see [`SlidingWindow::new`] for the
    /// window semantics.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] for a zero-width window.
    pub fn new(
        config: AdaptationConfig,
        threshold: f64,
        window_width: u64,
    ) -> Result<Self, VolleyError> {
        Ok(WindowedSampler {
            window: SlidingWindow::new(window_width)?,
            sampler: AdaptiveSampler::new(config, threshold),
        })
    }

    /// The underlying adaptive sampler (intervals, statistics, allowance).
    pub fn sampler(&self) -> &AdaptiveSampler {
        &self.sampler
    }

    /// Feeds the raw value sampled at `tick`, updates the window, and
    /// runs the adaptation step on the window mean.
    pub fn observe(&mut self, tick: Tick, value: f64) -> Observation {
        self.window.push(tick, value);
        self.sampler.observe(tick, self.window.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_width() {
        assert!(SlidingWindow::new(0).is_err());
        let config = AdaptationConfig::default();
        assert!(WindowedSampler::new(config, 1.0, 0).is_err());
    }

    #[test]
    fn mean_matches_naive_computation() {
        let mut w = SlidingWindow::new(5).unwrap();
        let values = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for (t, &v) in values.iter().enumerate() {
            w.push(t as Tick, v);
            let start = (t + 1).saturating_sub(5);
            let slice = &values[start..=t];
            let sum: f64 = slice.iter().sum();
            assert!((w.mean() - sum / slice.len() as f64).abs() < 1e-12, "t={t}");
            assert_eq!(w.len(), slice.len());
        }
    }

    #[test]
    fn sparse_ticks_evict_correctly() {
        let mut w = SlidingWindow::new(10).unwrap();
        w.push(0, 1.0);
        w.push(100, 2.0); // tick 0 far outside the window
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn empty_window_means_zero() {
        let w = SlidingWindow::new(4).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn non_finite_values_are_skipped() {
        let mut w = SlidingWindow::new(4).unwrap();
        w.push(0, 1.0);
        w.push(1, f64::NAN);
        w.push(2, f64::INFINITY);
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), 1.0);
        // A skipped value still moves the window on.
        w.push(9, f64::NAN);
        assert!(w.is_empty());
    }

    #[test]
    fn windowed_sampler_smooths_spikes() {
        let config = AdaptationConfig::builder()
            .error_allowance(0.01)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut sampler = WindowedSampler::new(config, 50.0, 8).unwrap();
        // One isolated spike must not trip a windowed-mean violation.
        let mut violated = false;
        for tick in 0..20u64 {
            let value = if tick == 10 { 200.0 } else { 10.0 };
            violated |= sampler.observe(tick, value).violation;
        }
        assert!(!violated, "mean over 8 ticks stays below 50");
        // A sustained level above the threshold must.
        let mut sustained = false;
        for tick in 20..40u64 {
            sustained |= sampler.observe(tick, 80.0).violation;
        }
        assert!(sustained);
    }

    #[test]
    fn windowed_aggregate_grows_interval_faster_than_raw() {
        // Aggregated values move slowly, so the windowed sampler's δ is
        // tighter and its interval grows at least as fast as a raw
        // sampler on the same noisy stream.
        let config = AdaptationConfig::builder()
            .error_allowance(0.01)
            .patience(3)
            .warmup_samples(3)
            .max_interval(16)
            .build()
            .unwrap();
        let mut windowed = WindowedSampler::new(config, 1000.0, 16).unwrap();
        let mut raw = AdaptiveSampler::new(config, 1000.0);
        let noisy = |t: u64| 100.0 + ((t * 2654435761) % 100) as f64; // 100..200
        let mut tw = 0u64;
        for _ in 0..300 {
            let o = windowed.observe(tw, noisy(tw));
            tw = o.next_sample_tick;
        }
        let mut tr = 0u64;
        for _ in 0..300 {
            let o = raw.observe(tr, noisy(tr));
            tr = o.next_sample_tick;
        }
        assert!(windowed.sampler().interval() >= raw.interval());
    }

    #[test]
    fn serde_round_trip() {
        let config = AdaptationConfig::default();
        let mut s = WindowedSampler::new(config, 10.0, 4).unwrap();
        s.observe(0, 1.0);
        s.observe(1, 2.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: WindowedSampler = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
