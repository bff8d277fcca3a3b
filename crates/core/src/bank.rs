//! Struct-of-arrays adaptive-sampler bank for fleet-scale hot paths.
//!
//! [`AdaptiveSampler`](crate::AdaptiveSampler) is the right shape for one
//! monitor: it carries the §III-B controller *and* the §IV-B
//! updating-period aggregates (average `β(I)`, `β(I+1)` and `r_i`) that
//! a task-level coordinator reads between reallocation rounds. Fleet
//! simulations that never reallocate would pay for those aggregates on
//! every sample anyway — an extra bound evaluation — although they feed
//! nothing.
//!
//! [`SamplerBank`] is the same `step` (see [`crate::adaptation`]) over
//! different storage: one bank holds every monitor of a shard, with each
//! piece of controller state (threshold, δ statistics, interval, growth
//! streak) in its own contiguous array, and lends `step` one slot of each.
//! Scanning a shard's monitors walks flat arrays instead of hopping
//! between heap-allocated sampler structs, and the §IV-B aggregates —
//! which never influence a decision — are skipped. Sharing the code makes
//! every decision field of [`SamplerBank::observe`] equal to
//! [`AdaptiveSampler::observe`](crate::AdaptiveSampler::observe)'s by
//! construction; the `tests` module pins the decisions themselves.

use crate::adaptation::{step, AdaptationConfig, Lane, Observation};
use crate::stats::{DeltaLane, NO_SAMPLE};
use crate::time::{Interval, Tick};

/// A fleet of §III-B adaptive-sampling controllers in struct-of-arrays
/// layout (see module docs).
///
/// ```
/// use volley_core::{AdaptationConfig, AdaptiveSampler, SamplerBank};
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let config = AdaptationConfig::builder()
///     .error_allowance(0.05)
///     .max_interval(8)
///     .patience(3)
///     .build()?;
/// let mut bank = SamplerBank::new(config);
/// let vm = bank.push(100.0);
/// let mut sampler = AdaptiveSampler::new(config, 100.0);
/// let mut tick = 0;
/// for _ in 0..50 {
///     let a = bank.observe(vm, tick, 10.0);
///     let b = sampler.observe(tick, 10.0);
///     assert_eq!(a, b);
///     tick = a.next_sample_tick;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerBank {
    config: AdaptationConfig,
    err: f64,
    /// Violation thresholds, one per monitor.
    thresholds: Vec<f64>,
    /// Tick of the previous sample (`NO_SAMPLE` before the first).
    last_tick: Vec<Tick>,
    /// Value of the previous sample.
    last_value: Vec<f64>,
    /// δ-estimator observation count.
    n: Vec<u64>,
    /// δ-estimator mean.
    mean: Vec<f64>,
    /// δ-estimator population variance.
    variance: Vec<f64>,
    /// Current sampling interval in ticks (≥ 1).
    interval: Vec<u32>,
    /// Consecutive sub-slack observations toward the next growth.
    consecutive_ok: Vec<u32>,
}

impl SamplerBank {
    /// Creates an empty bank; every monitor pushed into it shares
    /// `config` (and starts at its error allowance), as fleet scenarios
    /// do.
    pub fn new(config: AdaptationConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty bank with preallocated capacity for `monitors`.
    pub fn with_capacity(config: AdaptationConfig, monitors: usize) -> Self {
        SamplerBank {
            config,
            err: config.error_allowance(),
            thresholds: Vec::with_capacity(monitors),
            last_tick: Vec::with_capacity(monitors),
            last_value: Vec::with_capacity(monitors),
            n: Vec::with_capacity(monitors),
            mean: Vec::with_capacity(monitors),
            variance: Vec::with_capacity(monitors),
            interval: Vec::with_capacity(monitors),
            consecutive_ok: Vec::with_capacity(monitors),
        }
    }

    /// Adds a monitor with violation condition `value > threshold`,
    /// starting (per the paper) at the default interval. Returns its
    /// index.
    pub fn push(&mut self, threshold: f64) -> usize {
        self.thresholds.push(threshold);
        self.last_tick.push(NO_SAMPLE);
        self.last_value.push(0.0);
        self.n.push(0);
        self.mean.push(0.0);
        self.variance.push(0.0);
        self.interval.push(Interval::DEFAULT.get());
        self.consecutive_ok.push(0);
        self.thresholds.len() - 1
    }

    /// Number of monitors in the bank.
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the bank holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }

    /// The shared adaptation configuration.
    pub fn config(&self) -> &AdaptationConfig {
        &self.config
    }

    /// The violation threshold of monitor `idx`.
    pub fn threshold(&self, idx: usize) -> f64 {
        self.thresholds[idx]
    }

    /// The sampling interval of monitor `idx` currently in effect.
    pub fn interval(&self, idx: usize) -> Interval {
        Interval::new_clamped(self.interval[idx])
    }

    /// Processes one sampling operation of monitor `idx` at `tick` —
    /// the §III-B `step` of
    /// [`AdaptiveSampler::observe`](crate::AdaptiveSampler::observe),
    /// without the §IV-B period aggregates (which feed no decision).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn observe(&mut self, idx: usize, tick: Tick, value: f64) -> Observation {
        let mut lane = Lane {
            delta: DeltaLane {
                last_tick: &mut self.last_tick[idx],
                last_value: &mut self.last_value[idx],
                n: &mut self.n[idx],
                mean: &mut self.mean[idx],
                variance: &mut self.variance[idx],
            },
            interval: &mut self.interval[idx],
            consecutive_ok: &mut self.consecutive_ok[idx],
        };
        let threshold = self.thresholds[idx];
        step(&self.config, self.err, threshold, &mut lane, tick, value).observation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveSampler, StatsKind};

    /// Runs one stream through both layouts. Every step must agree on
    /// every decision field (the benchmark's layer-pass oracle relies on
    /// the same property); the decisions are folded FNV-1a style into
    /// one digest so the two layouts cannot drift *together* unnoticed.
    fn decision_digest(config: AdaptationConfig, threshold: f64, values: &[f64]) -> u64 {
        let mut sampler = AdaptiveSampler::new(config, threshold);
        let mut bank = SamplerBank::new(config);
        let idx = bank.push(threshold);
        let mut tick = 0u64;
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for (i, &value) in values.iter().enumerate() {
            let a = sampler.observe(tick, value);
            let b = bank.observe(idx, tick, value);
            assert_eq!(a.violation, b.violation, "step {i}");
            assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "step {i}");
            assert_eq!(a.next_interval, b.next_interval, "step {i}");
            assert_eq!(a.next_sample_tick, b.next_sample_tick, "step {i}");
            assert_eq!(a.collapsed, b.collapsed, "step {i}");
            assert_eq!(a.grew, b.grew, "step {i}");
            assert_eq!(sampler.interval(), bank.interval(idx), "step {i}");
            for word in [
                u64::from(a.violation),
                a.beta.to_bits(),
                u64::from(a.next_interval),
                u64::from(a.collapsed),
                u64::from(a.grew),
            ] {
                digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
            tick = a.next_sample_tick;
        }
        digest
    }

    /// Deterministic adversarial stream: calm stretches, near-threshold
    /// values, spikes, and exact-threshold samples (vacuous bound).
    fn stream(seed: u64, len: usize, threshold: f64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                x ^= x >> 29;
                match x % 100 {
                    0..=1 => threshold + 5.0,    // violation
                    2..=3 => threshold,          // headroom exactly zero
                    4..=9 => threshold - 1.0,    // risky bound
                    _ => 10.0 + (x % 13) as f64, // calm band
                }
            })
            .collect()
    }

    fn quick(patience: u32, warmup: u32) -> crate::adaptation::AdaptationConfigBuilder {
        AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(patience)
            .warmup_samples(warmup)
    }

    /// Decision-level goldens of the §III-B kernel: the digests were
    /// produced by the two hand-copied kernels that preceded the shared
    /// `step`, so they pin its decisions bit for bit under both layouts.
    #[test]
    fn decisions_match_across_layouts_and_pinned_goldens() {
        const WINDOWED: [u64; 8] = [
            0xD821_4A59_8B2A_458B,
            0x4699_6D87_61F0_966B,
            0xF026_78B4_3162_A250,
            0xC588_B127_71F2_E268,
            0x5BFB_048A_FA3E_5EAD,
            0x9372_A84E_CDEE_3537,
            0xA8A0_1EFD_BA02_A060,
            0xA7ED_4FA9_0167_E6A4,
        ];
        const EWMA: [u64; 8] = [
            0xE2DF_6BDF_6A08_D2CE,
            0x601D_EA97_E36F_D43B,
            0x5369_4C36_59F9_C87F,
            0xF51F_0CBD_A67F_D9A1,
            0x8E82_B8EC_E251_40F0,
            0x1C1B_AD5F_9AB7_A4FB,
            0x7F5C_7BFD_88C8_1995,
            0x6A05_B0CB_5CA7_3EEE,
        ];
        let windowed = quick(3, 3).build().unwrap();
        let ewma = quick(3, 3)
            .stats(StatsKind::Ewma { lambda: 0.1 })
            .build()
            .unwrap();
        let zero_allowance = AdaptationConfig::builder()
            .error_allowance(0.0)
            .max_interval(8)
            .patience(1)
            .build()
            .unwrap();
        // A tiny restart window forces the windowed estimator through
        // many restarts; both layouts must restart at the same steps.
        let restarting = quick(2, 2).restart_after(7).build().unwrap();
        let defaults = AdaptationConfig::default();
        let non_finite = vec![10.0, f64::NAN, 12.0, f64::INFINITY, 11.0, 10.5, 10.2];
        let mut cases = vec![
            (
                "restart_after 7",
                restarting,
                100.0,
                stream(42, 400, 100.0),
                0x8D75_CFC9_F895_9E11,
            ),
            (
                "zero allowance",
                zero_allowance,
                50.0,
                stream(3, 100, 50.0),
                0x49F3_6D94_2A00_694D,
            ),
            (
                "paper defaults",
                defaults,
                99.0,
                stream(7, 2000, 99.0),
                0x69B8_0781_719A_84EE,
            ),
            (
                "non-finite values",
                defaults,
                100.0,
                non_finite,
                0x97B1_AF8A_77E3_180F,
            ),
        ];
        for (name, config, goldens) in [("windowed", windowed, WINDOWED), ("ewma", ewma, EWMA)] {
            for (seed, golden) in (1..).zip(goldens) {
                cases.push((name, config, 100.0, stream(seed, 600, 100.0), golden));
            }
        }
        for (i, (name, config, threshold, values, golden)) in cases.into_iter().enumerate() {
            let digest = decision_digest(config, threshold, &values);
            assert_eq!(digest, golden, "case {i} ({name}): digest {digest:#018X}");
        }
    }

    #[test]
    fn forced_samples_leave_the_same_delta_statistics_as_a_bank_lane() {
        // `observe_forced` skips the rule but not the estimator: a scalar
        // sampler fed alternately through both entry points must hold
        // the δ statistics of a bank lane that observed every sample.
        let config = quick(3, 3).build().unwrap();
        let mut sampler = AdaptiveSampler::new(config, 100.0);
        let mut bank = SamplerBank::new(config);
        let idx = bank.push(100.0);
        for (i, &value) in stream(5, 300, 100.0).iter().enumerate() {
            let tick = 3 * i as u64;
            if i % 2 == 0 {
                sampler.observe(tick, value);
            } else {
                sampler.observe_forced(tick, value);
            }
            bank.observe(idx, tick, value);
            let stats = sampler.stats();
            assert_eq!(u64::from(stats.count()), bank.n[idx], "step {i}");
            assert_eq!(stats.mean().to_bits(), bank.mean[idx].to_bits(), "step {i}");
            assert_eq!(
                stats.variance().to_bits(),
                bank.variance[idx].to_bits(),
                "step {i}"
            );
        }
        assert!(bank.n[idx] > 250);
    }

    #[test]
    fn bank_holds_independent_monitors() {
        let config = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut bank = SamplerBank::with_capacity(config, 2);
        let calm = bank.push(100.0);
        let noisy = bank.push(100.0);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        assert_eq!(bank.threshold(noisy), 100.0);
        let mut tick = 0u64;
        for step in 0..60u64 {
            let obs = bank.observe(calm, tick, 10.0);
            // The noisy monitor swings wildly near the threshold and keeps
            // collapsing; the calm one grows.
            let swing = if step % 2 == 0 { 99.5 } else { 5.0 };
            bank.observe(noisy, tick, swing);
            tick = obs.next_sample_tick;
        }
        assert!(bank.interval(calm) > Interval::DEFAULT);
        assert_eq!(bank.interval(noisy), Interval::DEFAULT);
    }
}
