//! Serializable snapshots of adaptation state for durability.
//!
//! The coordinator's value lies in *learned* state: each monitor's δ
//! statistics, its grown sampling interval `I` and its share of the
//! error allowance (§III-B, §IV-B). A coordinator crash that discards
//! this state forces the paper's conservative restart at the default
//! interval `I_d`, wiping out the sampling-cost savings Volley exists to
//! deliver. These snapshot types capture exactly the state worth
//! persisting, in a plain-old-data form that survives serialization and
//! hostile (bit-flipped, truncated) inputs:
//!
//! - construction only via the owning types' `to_snapshot()` methods
//!   ([`OnlineStats::to_snapshot`](crate::OnlineStats::to_snapshot) and
//!   friends), so a snapshot is always a faithful copy;
//! - restoration via `from_snapshot()`, which *sanitizes* every field
//!   (clamping ranges, zeroing non-finite floats) so that a corrupted
//!   snapshot can degrade accuracy but can never panic or poison the
//!   adaptation with `NaN`s.
//!
//! Updating-period aggregates (§IV-B running sums) are deliberately
//! excluded: a restore begins a fresh updating period, because partial
//! period sums from before a crash describe a window that no longer
//! exists.

use serde::{Deserialize, Serialize};

use crate::adaptation::AdaptationConfig;
use crate::time::Tick;

/// Snapshot of an [`OnlineStats`](crate::OnlineStats) accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Observations in the current window (under
    /// [`StatsKind::Ewma`](crate::StatsKind::Ewma): consumed so far).
    pub n: u64,
    /// Running mean of δ.
    pub mean: f64,
    /// Running population variance of δ.
    pub variance: f64,
    /// Restart window length.
    pub restart_after: u32,
}

/// Snapshot of a [`DeltaTracker`](crate::DeltaTracker): the δ statistics
/// plus the cached last sample the next δ̂ will be computed against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaSnapshot {
    /// The δ estimator's moments; which recurrence they belong to is the
    /// owning configuration's [`StatsKind`](crate::StatsKind).
    pub stats: StatsSnapshot,
    /// Most recent `(tick, value)` sample, if any.
    pub last: Option<(Tick, f64)>,
}

/// Snapshot of an [`AdaptiveSampler`](crate::AdaptiveSampler): the full
/// §III-B controller state minus the updating-period aggregates (which
/// restart on restore — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerSnapshot {
    /// The adaptation configuration.
    pub config: AdaptationConfig,
    /// The local violation threshold.
    pub threshold: f64,
    /// The error allowance in effect (may differ from the configured one
    /// after §IV-B reallocation).
    pub err: f64,
    /// The δ statistics and last-sample cache.
    pub tracker: DeltaSnapshot,
    /// The sampling interval in effect, in default-interval units.
    pub interval: u32,
    /// Consecutive sub-slack observations toward the next growth.
    pub consecutive_ok: u32,
    /// Total sampling operations performed so far.
    pub total_samples: u64,
}

/// Zeroes a non-finite float (snapshot sanitization helper).
pub(crate) fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{DeltaTracker, OnlineStats, StatsKind};
    use crate::time::Interval;
    use crate::AdaptiveSampler;

    #[test]
    fn stats_round_trip() {
        let mut s = OnlineStats::with_restart_after(100);
        for x in [1.0, 2.0, 5.0, -3.0] {
            s.update(x);
        }
        let back = OnlineStats::from_snapshot(&s.to_snapshot());
        assert_eq!(back, s);
    }

    #[test]
    fn stats_restore_sanitizes_hostile_fields() {
        let hostile = StatsSnapshot {
            n: 10,
            mean: f64::NAN,
            variance: -5.0,
            restart_after: 0,
        };
        let back = OnlineStats::from_snapshot(&hostile);
        assert_eq!(back.mean(), 0.0);
        assert_eq!(back.variance(), 0.0);
        // The floor of 2 matches `with_restart_after`.
        back.to_snapshot();
        assert!(back.to_snapshot().restart_after >= 2);
        // Restored stats keep working.
        let mut b = back;
        b.update(1.0);
        assert!(b.mean().is_finite());
    }

    #[test]
    fn tracker_round_trip_preserves_last_sample() {
        let mut t = DeltaTracker::new();
        t.record(0, 10.0);
        t.record(3, 16.0);
        let back = DeltaTracker::from_snapshot(&t.to_snapshot());
        assert_eq!(back, t);
        assert_eq!(back.last_sample(), Some((3, 16.0)));
    }

    #[test]
    fn tracker_restore_drops_non_finite_last_sample() {
        let mut t = DeltaTracker::new();
        t.record(0, 1.0);
        let mut snap = t.to_snapshot();
        snap.last = Some((5, f64::NAN));
        let back = DeltaTracker::from_snapshot(&snap);
        assert_eq!(back.last_sample(), None, "poisoned cache is discarded");
    }

    #[test]
    fn sampler_round_trip_restores_interval_and_stats() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 100.0);
        sampler.set_error_allowance(0.02);
        let mut tick = 0u64;
        for _ in 0..60 {
            let obs = sampler.observe(tick, 10.0);
            tick = obs.next_sample_tick;
        }
        assert!(sampler.interval() > Interval::DEFAULT);
        // Draining the period aggregates makes the sampler's remaining
        // state exactly what a snapshot captures.
        sampler.drain_period_report();
        let back = AdaptiveSampler::from_snapshot(&sampler.to_snapshot());
        assert_eq!(back, sampler);
    }

    #[test]
    fn ewma_sampler_round_trips_and_survives_hostile_lambda() {
        let cfg = |lambda| {
            AdaptationConfig::builder()
                .stats(StatsKind::Ewma { lambda })
                .build()
                .unwrap()
        };
        let mut sampler = AdaptiveSampler::new(cfg(0.1), 100.0);
        for (t, v) in [4.0, 6.0, 5.0, 7.0].into_iter().enumerate() {
            sampler.observe(t as u64, v);
        }
        sampler.drain_period_report();
        let mut snap = sampler.to_snapshot();
        assert_eq!(AdaptiveSampler::from_snapshot(&snap), sampler);
        // A corrupted forgetting factor is clamped at every update.
        snap.config = cfg(f64::INFINITY);
        snap.tracker.stats.mean = f64::NEG_INFINITY;
        snap.tracker.stats.variance = f64::NAN;
        let mut back = AdaptiveSampler::from_snapshot(&snap);
        assert_eq!((back.stats().mean(), back.stats().variance()), (0.0, 0.0));
        back.observe(10, 8.0);
        assert!(back.stats().mean().is_finite() && back.stats().variance().is_finite());
    }

    #[test]
    fn sampler_restore_clamps_interval_to_config_max() {
        let sampler = AdaptiveSampler::new(AdaptationConfig::default(), 10.0);
        let mut snap = sampler.to_snapshot();
        snap.interval = 1_000_000;
        let back = AdaptiveSampler::from_snapshot(&snap);
        assert!(back.interval() <= back.config().max_interval());
    }

    #[test]
    fn sampler_restore_survives_hostile_config() {
        let sampler = AdaptiveSampler::new(AdaptationConfig::default(), 10.0);
        let mut snap = sampler.to_snapshot();
        snap.err = f64::NAN;
        snap.threshold = f64::INFINITY;
        let back = AdaptiveSampler::from_snapshot(&snap);
        assert!(back.error_allowance().is_finite());
        assert!(back.threshold().is_finite());
        // The restored sampler still adapts without panicking.
        let mut b = back;
        for t in 0..20 {
            b.observe(t, 1.0);
        }
    }

    #[test]
    fn snapshots_serialize_round_trip() {
        let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 50.0);
        sampler.observe(0, 10.0);
        sampler.observe(1, 12.0);
        let snap = sampler.to_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SamplerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
