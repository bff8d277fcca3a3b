//! Seeded input synthesis. Everything the programs under test see comes
//! from here; the same `--seed` gives the same values, bit for bit.
//!
//! Two families:
//!
//! * [`FleetMetric`] — a closed-form `(vm, tick) → value` function for
//!   the sim workloads, so a 200 000-VM fleet needs no trace storage
//!   and every thread count sees the same values.
//! * [`live_traces`] — per-monitor traces for the live workloads: a
//!   smooth `volley-traces` system-metric series per monitor, squeezed
//!   into a calm band, plus fleet-correlated ramped bursts.
//!
//! Both put violations at the end of a *ramp* (the value climbs for
//! several windows before it crosses the threshold): the paper's
//! sampler estimates violation likelihood from recent change, so only
//! traces whose violations announce themselves let cost ratio and
//! detection rate move in either direction. PR 11's i.i.d. spikes gave
//! `detection_rate ≈ sampling_cost_ratio`, which measures nothing.

use volley_traces::SystemMetricsGenerator;

/// SplitMix64 finaliser: a cheap, well-mixed `u64 → u64` hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive digest of a value stream (FNV-style fold of the bit
/// patterns), used for input-determinism tests and result digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
    }

    pub fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }
}

/// Violation threshold of every sim monitor (the `scale` bench's 1 %
/// selectivity threshold over a `[0, 100)` metric).
pub const FLEET_THRESHOLD: f64 = 99.0;

/// Windows per burst slot: each VM draws at most one burst per slot.
const SLOT: u64 = 64;
/// A VM bursts in one slot out of this many.
const BURST_ONE_IN: u64 = 8;
/// Ramped burst shape, in windows.
const RISE: u64 = 8;
const HOLD: u64 = 3;
const FALL: u64 = 3;
/// One burst in this many skips the ramp and jumps to the peak — the
/// adversarial case no likelihood estimate can foresee, which keeps
/// `detection_rate` strictly below 1.
const ABRUPT_ONE_IN: u64 = 64;
/// How far above the threshold a burst peaks.
const PEAK_MARGIN: f64 = 9.0;
/// Amplitude of the slow per-VM sinusoid and of the hashed jitter.
const WAVE_AMPLITUDE: f64 = 3.0;
const JITTER_AMPLITUDE: f64 = 1.0;

/// One period of `sin`, 256 steps: the wave costs a table read instead
/// of a libm call per `(vm, tick)`.
fn sine_table() -> [f64; 256] {
    let mut table = [0.0; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as f64 / 256.0 * std::f64::consts::TAU).sin();
    }
    table
}

/// The sim workloads' metric: calm band + slow per-VM sinusoid + hashed
/// jitter + ramped bursts (rise [`RISE`] windows, hold [`HOLD`]).
#[derive(Debug, Clone)]
pub struct FleetMetric {
    seed: u64,
    sine: [f64; 256],
}

impl FleetMetric {
    pub fn new(seed: u64) -> FleetMetric {
        FleetMetric {
            seed: mix(seed),
            sine: sine_table(),
        }
    }

    /// The ground-truth value of `vm` at window `tick`.
    #[inline]
    pub fn value(&self, vm: u64, tick: u64) -> f64 {
        let h = mix(self.seed ^ vm.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let base = 25.0 + (h & 0xFF) as f64 * (5.0 / 256.0);
        // Period 64 or 128 windows, phase anywhere in it.
        let shift = 6 + ((h >> 8) & 1);
        let phase = (h >> 16) & ((1 << shift) - 1);
        let angle = ((tick + phase) << 8 >> shift) & 0xFF;
        let wave = WAVE_AMPLITUDE * self.sine[angle as usize];
        let j = mix(h ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let jitter = ((j & 0xFFFF) as f64 * (1.0 / 65536.0) - 0.5) * JITTER_AMPLITUDE;
        base + wave + jitter + self.burst(h, base, tick)
    }

    /// Additive burst term: zero outside a burst.
    #[inline]
    fn burst(&self, h: u64, base: f64, tick: u64) -> f64 {
        const LEN: u64 = RISE + HOLD + FALL;
        let b = mix(h ^ (tick / SLOT + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        if !b.is_multiple_of(BURST_ONE_IN) {
            return 0.0;
        }
        let start = (b >> 20) % (SLOT - LEN);
        let k = (tick % SLOT).wrapping_sub(start);
        if k >= LEN {
            return 0.0;
        }
        let peak = FLEET_THRESHOLD + PEAK_MARGIN - base;
        let abrupt = (b >> 40).is_multiple_of(ABRUPT_ONE_IN);
        if k < RISE {
            if abrupt {
                // Flat until the last rise window, then the full jump.
                if k + 1 == RISE {
                    peak
                } else {
                    0.0
                }
            } else {
                peak * (k + 1) as f64 / RISE as f64
            }
        } else if k < RISE + HOLD {
            peak
        } else {
            peak * (LEN - k) as f64 / (FALL + 1) as f64
        }
    }

    /// Digest of the first `vms × ticks` values.
    pub fn digest(&self, vms: u64, ticks: u64) -> Digest {
        let mut digest = Digest::default();
        for vm in 0..vms {
            for tick in 0..ticks {
                digest.push_f64(self.value(vm, tick));
            }
        }
        digest
    }
}

/// Local threshold of every live monitor; the task's global threshold
/// is this times the monitor count.
pub const LIVE_LOCAL_THRESHOLD: f64 = 100.0;

/// Shape of the live workloads' fleet-correlated bursts.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Ticks between burst starts.
    pub burst_every: usize,
    /// Ticks a burst climbs before it peaks.
    pub rise: usize,
    /// Ticks at the peak.
    pub hold: usize,
}

/// One monitor in this many is *hot*: it carries the bursts.
pub const HOT_ONE_IN: usize = 8;

/// Per-monitor traces for a live workload: `traces[m][t]`.
///
/// The calm component is a `volley-traces` memory-class series (smooth
/// AR(1) with ramped load episodes) squeezed into a band well under the
/// local threshold, so local violations — each of which makes the
/// coordinator poll the whole fleet — stay rare between bursts.
///
/// Every `burst_every` ticks a burst ramps up on the *hot* monitors
/// only (exactly one in [`HOT_ONE_IN`], which ones depends on the seed),
/// high enough that the aggregate crosses the global threshold at the
/// peak — heavy hitters, as in a DDoS. A burst on every monitor would
/// poison every sampler's δ statistics and pin the whole fleet at the
/// default interval (cost ratio ≈ 1, whatever the code does); with a
/// hot minority the calm majority can widen, the hot ones cannot, and
/// the ratio lands where both directions are visible.
pub fn live_traces(seed: u64, monitors: usize, ticks: usize, shape: LiveShape) -> Vec<Vec<f64>> {
    let generator = SystemMetricsGenerator::new(seed);
    let metric = memory_metric(&generator);
    let fall = shape.rise / 2;
    let burst_len = shape.rise + shape.hold + fall;
    let start = shape.burst_every - burst_len;
    let hot_offset = (mix(seed) % HOT_ONE_IN as u64) as usize;
    // The hot monitors together must lift the aggregate from the calm
    // level (≈ 20 per monitor) past the threshold (100 per monitor):
    // 80 × HOT_ONE_IN each, plus a margin that the per-monitor gain
    // (0.95–1.05) cannot eat.
    let peak = (LIVE_LOCAL_THRESHOLD - 20.0) * HOT_ONE_IN as f64 * 1.15;
    (0..monitors)
        .map(|m| {
            let calm = generator.trace(m, metric, ticks);
            let hot = (m + hot_offset).is_multiple_of(HOT_ONE_IN);
            let h = mix(seed ^ (m as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            let gain = 0.95 + (h & 0xFFFF) as f64 / 65536.0 * 0.1;
            calm.iter()
                .enumerate()
                .map(|(t, &v)| {
                    // Memory series live in [0, 100] around 55; map to a
                    // band around 20 with a quarter of the swing.
                    let quiet = 20.0 + (v - 55.0) * 0.25;
                    let k = t % shape.burst_every;
                    if !hot || k < start {
                        return quiet;
                    }
                    let k = k - start;
                    let lift = if k < shape.rise {
                        (k + 1) as f64 / shape.rise as f64
                    } else if k < shape.rise + shape.hold {
                        1.0
                    } else {
                        (burst_len - k) as f64 / (fall + 1) as f64
                    };
                    quiet + lift * gain * peak
                })
                .collect()
        })
        .collect()
}

fn memory_metric(generator: &SystemMetricsGenerator) -> usize {
    (0..generator.metric_count())
        .find(|&i| generator.spec(i).class == volley_traces::MetricClass::Memory)
        .expect("the catalog has memory-class metrics")
}

/// Digest of a trace set, in `(monitor, tick)` order.
pub fn traces_digest(traces: &[Vec<f64>]) -> Digest {
    let mut digest = Digest::default();
    for trace in traces {
        for &value in trace {
            digest.push_f64(value);
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: LiveShape = LiveShape {
        burst_every: 100,
        rise: 8,
        hold: 3,
    };

    #[test]
    fn fleet_metric_is_a_function_of_the_seed() {
        let a = FleetMetric::new(1).digest(64, 200);
        assert_eq!(a, FleetMetric::new(1).digest(64, 200));
        assert_ne!(a, FleetMetric::new(2).digest(64, 200));
    }

    #[test]
    fn fleet_metric_is_calm_with_ramped_violations() {
        let metric = FleetMetric::new(7);
        let (mut violations, mut announced) = (0u64, 0u64);
        for vm in 0..200 {
            for tick in 1..640 {
                let v = metric.value(vm, tick);
                assert!((15.0..120.0).contains(&v), "value {v} out of range");
                if v > FLEET_THRESHOLD && metric.value(vm, tick - 1) <= FLEET_THRESHOLD {
                    violations += 1;
                    // A ramped burst is already well above the calm band
                    // one window before it crosses.
                    if metric.value(vm, tick - 1) > 60.0 {
                        announced += 1;
                    }
                }
            }
        }
        assert!(
            violations > 100,
            "only {violations} bursts in 200 VMs × 640 windows"
        );
        // Most bursts ramp; roughly one in ABRUPT_ONE_IN does not.
        assert!(
            announced * 10 > violations * 7,
            "{announced}/{violations} announced"
        );
        assert!(announced < violations, "no abrupt bursts at all");
    }

    #[test]
    fn live_traces_are_a_function_of_the_seed() {
        let a = traces_digest(&live_traces(1, 8, 300, SHAPE));
        assert_eq!(a, traces_digest(&live_traces(1, 8, 300, SHAPE)));
        assert_ne!(a, traces_digest(&live_traces(2, 8, 300, SHAPE)));
    }

    #[test]
    fn live_bursts_cross_the_global_threshold_and_only_there() {
        let monitors = 16;
        let traces = live_traces(3, monitors, 400, SHAPE);
        let global = LIVE_LOCAL_THRESHOLD * monitors as f64;
        let violating: Vec<usize> = (0..400)
            .filter(|&t| traces.iter().map(|tr| tr[t]).sum::<f64>() > global)
            .collect();
        assert!(!violating.is_empty());
        // Violations sit in the last stretch of each 100-tick period.
        assert!(violating.iter().all(|t| t % 100 >= 85), "{violating:?}");
    }
}
