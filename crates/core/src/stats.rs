//! Online statistics of inter-sample value changes (§III-B).
//!
//! The violation-likelihood bound of [`crate::likelihood`] needs the mean
//! `μ` and standard deviation `σ` of `δ`, the change of the monitored value
//! across one *default* sampling interval. The paper maintains both with an
//! online updating scheme (attributed to Knuth / Welford) so that no history
//! of samples has to be kept:
//!
//! ```text
//! μ_n = μ_{n-1} + (δ - μ_{n-1}) / n
//! σ²_n = ((n-1)·σ²_{n-1} + (δ - μ_n)(δ - μ_{n-1})) / n
//! ```
//!
//! Two further details from the paper are implemented here:
//!
//! 1. **Coarse-interval updates.** When sampling with interval `I > 1`, the
//!    per-default-interval change is estimated as
//!    `δ̂ = (v(t) − v(t−I)) / I` and `δ̂` feeds the statistics.
//! 2. **Windowed restart.** To track drifting distributions, the statistics
//!    are restarted (`n = 0`) once `n` exceeds a restart limit (1000 in the
//!    paper).
//!
//! Both live here exactly once, over *borrowed* state: `update` is the
//! crate's only Welford and only EWMA recurrence, `record` its only `δ̂`.
//! [`OnlineStats`] and [`DeltaTracker`] are owned storage around them;
//! [`SamplerBank`](crate::SamplerBank) lends them slots of its arrays.

use serde::{Deserialize, Serialize};

use crate::snapshot::{finite_or_zero, DeltaSnapshot, StatsSnapshot};
use crate::time::Tick;

/// Which δ-statistics estimator the adaptation uses.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StatsKind {
    /// Equal-weight accumulation with a periodic restart (`n = 0` past
    /// 1000 observations) — the paper's scheme (§III-B).
    #[default]
    WindowedRestart,
    /// Exponentially-forgetting estimation: where the windowed scheme
    /// weights every observation of the current window equally and then
    /// discards the whole window, this discounts the past continuously
    /// (the standard exponentially-weighted moving variance):
    ///
    /// ```text
    /// μ ← (1−λ)·μ + λ·δ
    /// σ² ← (1−λ)·(σ² + λ·(δ−μ_old)²)
    /// ```
    ///
    /// Smaller `λ` remembers longer. The `ablation_stats` bench compares
    /// both estimators inside the running controller.
    Ewma {
        /// Forgetting factor `λ ∈ (0, 1]` (clamped into range; a
        /// non-finite `λ` falls back to 0.05).
        lambda: f64,
    },
}

/// Number of δ observations after which the paper restarts statistics
/// accumulation (§III-B: "setting n = 0 when n > 1000").
pub const DEFAULT_RESTART_AFTER: u32 = 1000;

/// Sentinel tick for "no previous sample" in a [`DeltaLane`].
pub(crate) const NO_SAMPLE: Tick = Tick::MAX;

/// Incorporates one δ observation into the `(n, mean, variance)` of the
/// estimator `kind` selects. `restart_after` (floored at 2) only concerns
/// the windowed estimator.
///
/// Non-finite observations are ignored (they would poison the statistics
/// and thereby disable adaptation permanently).
#[inline]
pub(crate) fn update(
    kind: StatsKind,
    restart_after: u32,
    n: &mut u64,
    mean: &mut f64,
    variance: &mut f64,
    delta: f64,
) {
    if !delta.is_finite() {
        return;
    }
    match kind {
        StatsKind::WindowedRestart => {
            if *n >= u64::from(restart_after.max(2)) {
                // Paper: "periodically restarts the statistics updating by
                // setting n = 0 when n > 1000". The running values are
                // discarded so the next window reflects only fresh data.
                *n = 0;
                *mean = 0.0;
                *variance = 0.0;
            }
            *n += 1;
            let count = *n as f64;
            let prev_mean = *mean;
            *mean = prev_mean + (delta - prev_mean) / count;
            *variance = ((count - 1.0) * *variance + (delta - *mean) * (delta - prev_mean)) / count;
        }
        StatsKind::Ewma { lambda } => {
            let lambda = if lambda.is_finite() {
                lambda.clamp(1e-6, 1.0)
            } else {
                0.05
            };
            *n += 1;
            if *n == 1 {
                *mean = delta;
                *variance = 0.0;
                return;
            }
            let diff = delta - *mean;
            let incr = lambda * diff;
            *mean += incr;
            *variance = (1.0 - lambda) * (*variance + diff * incr);
        }
    }
    // Guard against tiny negative values caused by floating-point
    // cancellation; variance is non-negative by definition.
    if *variance < 0.0 {
        *variance = 0.0;
    }
}

/// Borrowed δ state of one monitor: the previous sample and the
/// estimator's `(n, mean, variance)`, wherever the owner stores them.
#[derive(Debug)]
pub(crate) struct DeltaLane<'a> {
    /// Tick of the previous sample ([`NO_SAMPLE`] before the first).
    pub(crate) last_tick: &'a mut Tick,
    pub(crate) last_value: &'a mut f64,
    /// Observation count (`u64` so the EWMA counter cannot wrap; the
    /// windowed estimator stays at or below its restart window).
    pub(crate) n: &'a mut u64,
    pub(crate) mean: &'a mut f64,
    pub(crate) variance: &'a mut f64,
}

/// Records a sampled `value` observed at `tick`: the per-default-interval
/// delta estimate `δ̂ = Δv / Δtick` against the previous sample feeds the
/// estimator. If `tick` does not advance past the previous sample (e.g. a
/// forced global-poll sample at the same tick), the observation only
/// replaces the cached value.
#[inline]
pub(crate) fn record(
    kind: StatsKind,
    restart_after: u32,
    lane: &mut DeltaLane<'_>,
    tick: Tick,
    value: f64,
) {
    let last_tick = *lane.last_tick;
    if last_tick != NO_SAMPLE && tick > last_tick {
        let delta_hat = (value - *lane.last_value) / (tick - last_tick) as f64;
        update(
            kind,
            restart_after,
            lane.n,
            lane.mean,
            lane.variance,
            delta_hat,
        );
    }
    *lane.last_tick = tick;
    *lane.last_value = value;
}

/// Online mean/variance accumulator using the paper's update equations.
///
/// The variance is the *population* variance (division by `n`), exactly as
/// printed in §III-B. For `n == 0` the accumulator reports a mean of `0`
/// and a variance of `0`; callers treat the bound produced from an empty
/// accumulator as vacuous (see
/// [`AdaptiveSampler`](crate::AdaptiveSampler), which never grows the
/// interval until the statistics have warmed up).
///
/// ```
/// use volley_core::OnlineStats;
///
/// let mut stats = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     stats.update(x);
/// }
/// assert_eq!(stats.mean(), 2.5);
/// assert_eq!(stats.variance(), 1.25); // population variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    variance: f64,
    restart_after: u32,
}

impl OnlineStats {
    /// Creates an empty accumulator with the paper's default restart window
    /// of [`DEFAULT_RESTART_AFTER`] observations.
    pub fn new() -> Self {
        Self::with_restart_after(DEFAULT_RESTART_AFTER)
    }

    /// Creates an empty accumulator that restarts after `restart_after`
    /// observations. A value of `u32::MAX` effectively disables restarts.
    pub fn with_restart_after(restart_after: u32) -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            variance: 0.0,
            restart_after: restart_after.max(2),
        }
    }

    /// Incorporates one δ observation with the paper's windowed-restart
    /// recurrence; non-finite observations are ignored.
    pub fn update(&mut self, delta: f64) {
        update(
            StatsKind::WindowedRestart,
            self.restart_after,
            &mut self.n,
            &mut self.mean,
            &mut self.variance,
            delta,
        );
    }

    /// Current mean of δ (0 when no observation has been made).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current population variance of δ (0 when fewer than two
    /// observations have been made).
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Current population standard deviation of δ.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Number of observations in the current window (saturating to
    /// `u32`, which only an exponentially-forgetting count can exceed).
    pub fn count(&self) -> u32 {
        u32::try_from(self.n).unwrap_or(u32::MAX)
    }

    /// Discards all state, beginning a fresh window.
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.variance = 0.0;
    }

    /// Captures the accumulator state for checkpointing.
    pub fn to_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            n: self.n,
            mean: self.mean,
            variance: self.variance,
            restart_after: self.restart_after,
        }
    }

    /// Rebuilds an accumulator from a snapshot, re-imposing the type's
    /// invariants on potentially hostile fields: non-finite floats become
    /// 0, the variance is floored at 0, and the restart window keeps its
    /// floor of 2. A corrupted snapshot degrades accuracy; it never
    /// panics or poisons later updates.
    pub fn from_snapshot(snapshot: &StatsSnapshot) -> Self {
        OnlineStats {
            n: snapshot.n,
            mean: finite_or_zero(snapshot.mean),
            variance: finite_or_zero(snapshot.variance).max(0.0),
            restart_after: snapshot.restart_after.max(2),
        }
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

/// Couples an [`OnlineStats`] accumulator with the previous sampled value
/// so that coarse-interval samples update the per-default-interval δ
/// statistics correctly.
///
/// ```
/// use volley_core::DeltaTracker;
///
/// let mut tracker = DeltaTracker::new();
/// tracker.record(0, 10.0);
/// tracker.record(3, 16.0); // δ̂ = (16-10)/3 = 2
/// assert_eq!(tracker.stats().mean(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaTracker {
    stats: OnlineStats,
    last_tick: Tick,
    last_value: f64,
}

impl DeltaTracker {
    /// Creates a tracker with the default restart window.
    pub fn new() -> Self {
        Self::with_restart_after(DEFAULT_RESTART_AFTER)
    }

    /// Creates a tracker whose statistics restart after `restart_after`
    /// observations.
    pub fn with_restart_after(restart_after: u32) -> Self {
        DeltaTracker {
            stats: OnlineStats::with_restart_after(restart_after),
            last_tick: NO_SAMPLE,
            last_value: 0.0,
        }
    }

    /// Lends the tracker's state to the shared `record`.
    pub(crate) fn lane(&mut self) -> DeltaLane<'_> {
        DeltaLane {
            last_tick: &mut self.last_tick,
            last_value: &mut self.last_value,
            n: &mut self.stats.n,
            mean: &mut self.stats.mean,
            variance: &mut self.stats.variance,
        }
    }

    /// Records a sampled `value` observed at `tick` into the paper's
    /// windowed-restart statistics: `δ̂ = Δv / Δtick` against the previous
    /// sample. A sample that does not advance past the previous tick only
    /// replaces the cached value.
    pub fn record(&mut self, tick: Tick, value: f64) {
        record(
            StatsKind::WindowedRestart,
            self.stats.restart_after,
            &mut self.lane(),
            tick,
            value,
        );
    }

    /// The underlying statistics accumulator.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Most recent `(tick, value)` pair, if any sample has been recorded.
    pub fn last_sample(&self) -> Option<(Tick, f64)> {
        (self.last_tick != NO_SAMPLE).then_some((self.last_tick, self.last_value))
    }

    /// Clears both the statistics and the cached last sample.
    pub fn reset(&mut self) {
        self.stats.reset();
        self.last_tick = NO_SAMPLE;
    }

    /// Captures the tracker state for checkpointing.
    pub fn to_snapshot(&self) -> DeltaSnapshot {
        DeltaSnapshot {
            stats: self.stats.to_snapshot(),
            last: self.last_sample(),
        }
    }

    /// Rebuilds a tracker from a snapshot. A cached last sample with a
    /// non-finite value (or the reserved tick `u64::MAX`) is discarded:
    /// the next sample re-seeds the cache instead of producing a poisoned
    /// δ̂.
    pub fn from_snapshot(snapshot: &DeltaSnapshot) -> Self {
        let (last_tick, last_value) = snapshot
            .last
            .filter(|(_, value)| value.is_finite())
            .unwrap_or((NO_SAMPLE, 0.0));
        DeltaTracker {
            stats: OnlineStats::from_snapshot(&snapshot.stats),
            last_tick,
            last_value,
        }
    }
}

impl Default for DeltaTracker {
    fn default() -> Self {
        DeltaTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pass(data: &[f64]) -> (f64, f64) {
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_two_pass_mean_variance() {
        let data = [3.0, -1.5, 2.25, 8.0, 0.0, -4.0, 7.5];
        let mut stats = OnlineStats::new();
        for &x in &data {
            stats.update(x);
        }
        let (mean, var) = two_pass(&data);
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut stats = OnlineStats::new();
        stats.update(42.0);
        assert_eq!(stats.mean(), 42.0);
        assert_eq!(stats.variance(), 0.0);
    }

    #[test]
    fn restart_discards_window() {
        let mut stats = OnlineStats::with_restart_after(4);
        for _ in 0..4 {
            stats.update(100.0);
        }
        assert_eq!(stats.count(), 4);
        stats.update(1.0); // triggers restart, then records 1.0
        assert_eq!(stats.count(), 1);
        assert_eq!(stats.mean(), 1.0);
    }

    #[test]
    fn restart_window_has_floor_of_two() {
        let stats = OnlineStats::with_restart_after(0);
        assert_eq!(stats.restart_after, 2);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut stats = OnlineStats::new();
        stats.update(1.0);
        stats.update(f64::NAN);
        stats.update(f64::INFINITY);
        stats.update(3.0);
        assert_eq!(stats.count(), 2);
        assert_eq!(stats.mean(), 2.0);
    }

    #[test]
    fn variance_never_negative() {
        let mut stats = OnlineStats::new();
        // Values engineered for heavy cancellation.
        for _ in 0..1000 {
            stats.update(1e15);
            stats.update(1e15 + 1.0);
        }
        assert!(stats.variance() >= 0.0);
    }

    #[test]
    fn tracker_uses_elapsed_ticks_for_delta_hat() {
        let mut t = DeltaTracker::new();
        t.record(0, 0.0);
        t.record(4, 8.0);
        assert_eq!(t.stats().mean(), 2.0);
        // A sample that does not advance time replaces the cache without
        // polluting statistics.
        t.record(4, 100.0);
        assert_eq!(t.stats().count(), 1);
        t.record(5, 102.0);
        assert_eq!(t.stats().count(), 2);
        assert_eq!(t.stats().mean(), 2.0); // (2 + 2) / 2
    }

    #[test]
    fn tracker_reset_clears_cache() {
        let mut t = DeltaTracker::new();
        t.record(0, 1.0);
        t.reset();
        assert_eq!(t.last_sample(), None);
        t.record(10, 5.0);
        assert_eq!(t.stats().count(), 0); // first sample after reset seeds only
    }

    #[test]
    fn default_constructors_agree() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        assert_eq!(DeltaTracker::default().stats().count(), 0);
    }

    /// `(n, mean, variance)` after feeding `values` to the EWMA recurrence.
    fn ewma(lambda: f64, values: impl IntoIterator<Item = f64>) -> (u64, f64, f64) {
        let (mut n, mut mean, mut variance) = (0, 0.0, 0.0);
        for v in values {
            let kind = StatsKind::Ewma { lambda };
            update(kind, 0, &mut n, &mut mean, &mut variance, v);
        }
        (n, mean, variance)
    }

    #[test]
    fn ewma_tracks_stationary_mean_and_variance() {
        // Deterministic alternating stream: mean 5, variance 4.
        let stream = (0..20_000).map(|i| if i % 2 == 0 { 3.0 } else { 7.0 });
        let (_, mean, variance) = ewma(0.05, stream);
        assert!((mean - 5.0).abs() < 0.3, "mean {mean}");
        assert!((variance - 4.0).abs() < 0.5, "variance {variance}");
    }

    #[test]
    fn ewma_adapts_to_shifts_faster_than_windowed_restart() {
        // 900 calm observations, then a regime shift: mean jumps to 10.
        let stream = || (0..950).map(|i| if i < 900 { 0.0 } else { 10.0 });
        let (_, ewma_mean, _) = ewma(0.1, stream());
        let mut windowed = OnlineStats::with_restart_after(1000);
        stream().for_each(|v| windowed.update(v));
        assert!(
            ewma_mean > windowed.mean() * 2.0,
            "ewma {ewma_mean} should outrun windowed {}",
            windowed.mean()
        );
    }

    #[test]
    fn ewma_edge_cases() {
        // Non-finite observations are ignored; the first finite one seeds.
        assert_eq!(ewma(0.1, [f64::INFINITY, 4.0]), (1, 4.0, 0.0));
        // λ is clamped into (0, 1] (1 = "only the latest observation")…
        assert_eq!(ewma(7.0, [4.0, 9.0]).1, 9.0);
        // …and a non-finite λ falls back to 0.05.
        assert_eq!(ewma(f64::NAN, [0.0, 1.0]), ewma(0.05, [0.0, 1.0]));
    }

    #[test]
    fn serde_round_trip() {
        let mut t = DeltaTracker::new();
        t.record(0, 1.0);
        t.record(1, 2.0);
        let json = serde_json::to_string(&t).unwrap();
        let back: DeltaTracker = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
