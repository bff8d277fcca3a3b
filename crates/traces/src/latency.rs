//! Request response-time modelling.
//!
//! The paper's state-correlation motivation (§II-B) pairs a *traffic
//! difference* stream with the *request response time* on the same server:
//! "if we observe growing traffic difference …, we are also very likely to
//! observe increasing response time … due to workloads introduced by
//! possible DDoS attacks". [`ResponseTimeModel`] turns any load series
//! (request rate, traffic volume, attack asymmetry) into a response-time
//! series with an M/M/1-style hockey-stick: latency is flat while load is
//! below the knee and grows as `1/(1 − utilization)` beyond it, plus
//! log-normal-ish service jitter. [`PlantedPair`] plants that pairing on
//! a fleet: the §II.B cascade the simulator and its runtime oracle share.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::netflow::{AttackSpec, NetflowConfig};
use crate::DiurnalPattern;

/// A load → response-time transfer model.
///
/// ```
/// use volley_traces::latency::ResponseTimeModel;
///
/// let model = ResponseTimeModel::new(20.0, 1000.0);
/// let calm = model.series(&[100.0; 50], 7);
/// let busy = model.series(&[950.0; 50], 7);
/// let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
/// assert!(mean(&busy) > mean(&calm) * 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseTimeModel {
    /// Service time at zero load (milliseconds).
    base_latency_ms: f64,
    /// Load at which the server saturates (units of the load series).
    capacity: f64,
    /// Relative jitter (standard deviation as a fraction of the mean).
    jitter: f64,
}

impl ResponseTimeModel {
    /// Creates a model with `base_latency_ms` idle latency and saturation
    /// at `capacity` load units, with 10% jitter. Non-positive inputs are
    /// clamped to small positives.
    pub fn new(base_latency_ms: f64, capacity: f64) -> Self {
        ResponseTimeModel {
            base_latency_ms: if base_latency_ms.is_finite() && base_latency_ms > 0.0 {
                base_latency_ms
            } else {
                1.0
            },
            capacity: if capacity.is_finite() && capacity > 0.0 {
                capacity
            } else {
                1.0
            },
            jitter: 0.1,
        }
    }

    /// The idle latency in milliseconds.
    pub fn base_latency_ms(&self) -> f64 {
        self.base_latency_ms
    }

    /// The saturation load.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The deterministic (jitter-free) latency at `load`.
    ///
    /// Utilization is capped at 99% so the hockey-stick stays finite even
    /// for overload inputs.
    pub fn latency_at(&self, load: f64) -> f64 {
        let utilization = (load.max(0.0) / self.capacity).min(0.99);
        self.base_latency_ms / (1.0 - utilization)
    }

    /// Maps a whole load series to a response-time series with seeded
    /// jitter.
    pub fn series(&self, load: &[f64], seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = Normal::new(0.0, self.jitter.max(f64::MIN_POSITIVE))
            .expect("jitter is finite and non-negative");
        load.iter()
            .map(|&l| {
                let base = self.latency_at(l);
                (base * (1.0 + noise.sample(&mut rng))).max(0.1)
            })
            .collect()
    }
}

/// The §II.B planted leader/follower pair on every VM of a fleet:
/// recurring DDoS attacks (80 ticks at peak asymmetry 2 500, one every
/// `attack_period` ticks, phase-staggered by VM so the fleet's attacks
/// do not land in lockstep) drive each VM's traffic asymmetry `ρ` — the
/// expensive follower's signal — and, through a [`ResponseTimeModel`],
/// its request response time, the cheap necessary-condition leader's.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedPair {
    netflow: NetflowConfig,
    ticks: usize,
    seed: u64,
}

impl PlantedPair {
    /// Plants attacks on `vms` VMs over `ticks` ticks.
    pub fn new(seed: u64, vms: usize, ticks: usize, attack_period: u64) -> Self {
        let mut netflow = NetflowConfig::builder()
            .seed(seed)
            .vms(vms)
            .scan_burst_probability(0.0)
            .diurnal(DiurnalPattern::new((ticks as u64).min(5760), 0.3));
        for vm in 0..vms {
            let mut start = (vm as u64 * 211) % attack_period;
            while (start as usize) < ticks {
                netflow = netflow.attack(AttackSpec {
                    vm,
                    start_tick: start,
                    duration_ticks: 80,
                    peak_asymmetry: 2500.0,
                });
                start += attack_period;
            }
        }
        PlantedPair {
            netflow: netflow.build(),
            ticks,
            seed,
        }
    }

    /// VM `vm`'s `(response time, ρ)` series. Response time tracks attack
    /// load through the M/M/1-style model; a per-VM jitter stream keeps
    /// the pairs independent.
    pub fn generate_vm(&self, vm: usize) -> (Vec<f64>, Vec<f64>) {
        let rho = self.netflow.generate_vm(vm, self.ticks).rho;
        let response =
            ResponseTimeModel::new(20.0, 3200.0).series(&rho, self.seed ^ (vm as u64 + 1));
        (response, rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::mean;

    #[test]
    fn idle_latency_is_base() {
        let m = ResponseTimeModel::new(25.0, 100.0);
        assert_eq!(m.latency_at(0.0), 25.0);
        assert_eq!(m.base_latency_ms(), 25.0);
        assert_eq!(m.capacity(), 100.0);
    }

    #[test]
    fn latency_grows_monotonically_with_load() {
        let m = ResponseTimeModel::new(10.0, 1000.0);
        let mut prev = 0.0;
        for load in [0.0, 100.0, 500.0, 900.0, 990.0] {
            let l = m.latency_at(load);
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn overload_is_finite() {
        let m = ResponseTimeModel::new(10.0, 100.0);
        let l = m.latency_at(1e9);
        assert!(l.is_finite());
        assert!((l - 1000.0).abs() < 1e-9, "capped at 99% utilization: {l}");
    }

    #[test]
    fn series_is_deterministic_and_positive() {
        let m = ResponseTimeModel::new(20.0, 500.0);
        let load = [10.0, 450.0, 480.0, 5.0];
        let a = m.series(&load, 3);
        let b = m.series(&load, 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| *v > 0.0));
        assert_ne!(a, m.series(&load, 4));
    }

    #[test]
    fn degenerate_inputs_clamped() {
        let m = ResponseTimeModel::new(-5.0, f64::NAN);
        assert_eq!(m.base_latency_ms(), 1.0);
        assert_eq!(m.capacity(), 1.0);
        assert!(m.latency_at(10.0).is_finite());
    }

    #[test]
    fn correlated_with_attack_load() {
        // The correlation use case: attack asymmetry drives latency.
        let m = ResponseTimeModel::new(20.0, 3000.0);
        let calm = vec![100.0; 200];
        let attack = vec![2800.0; 200];
        let calm_latency = m.series(&calm, 9);
        let attack_latency = m.series(&attack, 9);
        assert!(mean(&attack_latency) > mean(&calm_latency) * 3.0);
    }
}
