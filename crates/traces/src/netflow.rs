//! Internet2-style network traffic with SYN-flood attack injection
//! (the network-level monitoring workload of §V-A).
//!
//! The paper ports netflow logs from the Internet2 backbone onto testbed
//! VMs: every recorded flow becomes synthetic packets between two VMs,
//! each packet carries SYN / SYN-ACK flags with probability `p = 0.1`, and
//! the monitored quantity per VM `v` and 15-second window is the *traffic
//! difference* `ρ_v = P_i(v) − P_o(v)` — incoming SYN packets minus
//! outgoing SYN-ACK packets. Benign traffic keeps `ρ` near zero (every
//! handshake is answered); a SYN-flood attack inflates `P_i` without a
//! matching `P_o`, producing the growing asymmetry the DDoS detector
//! watches for [Douligeris & Mitrokotsa 2004].
//!
//! Without access to the proprietary archive, this module generates
//! statistically equivalent traffic directly at the per-window flow level:
//! Poisson flow arrivals with diurnal volume, heavy-ish-tailed per-flow
//! packet counts, binomial SYN flagging at `p = 0.1`, a small unanswered-
//! handshake rate for baseline noise, and injectable attacks with a smooth
//! ramp profile. The monitoring algorithms only ever see `ρ_v(t)` and the
//! per-window packet count (which drives the Dom0 CPU cost model of
//! Figure 6), both of which this generator reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Binomial, Distribution, Poisson};
use serde::{Deserialize, Serialize};

use crate::diurnal::DiurnalPattern;

/// Mean flows per VM per window, before the per-VM scale and the day
/// cycle.
const BASE_FLOWS_PER_WINDOW: f64 = 2000.0;
/// Mean packets per flow.
const PACKETS_PER_FLOW: f64 = 8.0;
/// Per-packet SYN probability `p`, the paper's value.
const SYN_PROBABILITY: f64 = 0.1;
/// Fraction of benign SYNs left unanswered (baseline `ρ` noise).
const UNANSWERED_RATE: f64 = 0.02;
/// Peak unanswered-SYN level of a scan episode.
const SCAN_BURST_MEAN: f64 = 400.0;

/// A SYN-flood attack against one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Index of the victim VM.
    pub vm: usize,
    /// Tick (window index) at which the attack begins.
    pub start_tick: u64,
    /// Attack length in ticks.
    pub duration_ticks: u64,
    /// Peak extra unanswered SYN packets per window at the attack's
    /// midpoint (the ramp is a smooth half-sine).
    pub peak_asymmetry: f64,
}

impl AttackSpec {
    /// The extra unanswered SYN packets this attack contributes at `tick`
    /// (0 outside the attack window).
    pub fn asymmetry_at(&self, tick: u64) -> f64 {
        if tick < self.start_tick || tick >= self.start_tick + self.duration_ticks.max(1) {
            return 0.0;
        }
        let progress = (tick - self.start_tick) as f64 / self.duration_ticks.max(1) as f64;
        self.peak_asymmetry * (std::f64::consts::PI * progress).sin().max(0.0)
    }
}

/// Per-VM traffic series produced by the generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmTraffic {
    /// Traffic difference `ρ_v(t) = P_i − P_o` per window.
    pub rho: Vec<f64>,
    /// Total packets handled per window (drives the sampling cost model).
    pub packets: Vec<f64>,
}

/// Configuration of the netflow-style traffic generator.
///
/// Build via [`NetflowConfig::builder`]; all parameters have defaults
/// matching the paper's setup (15-second windows, SYN probability 0.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetflowConfig {
    seed: u64,
    vms: usize,
    scan_burst_probability: f64,
    diurnal: DiurnalPattern,
    attacks: Vec<AttackSpec>,
}

impl NetflowConfig {
    /// Starts building a configuration with the defaults described on each
    /// builder method.
    pub fn builder() -> NetflowConfigBuilder {
        NetflowConfigBuilder {
            config: NetflowConfig::default(),
        }
    }

    /// Number of VMs covered by the generator.
    pub fn vms(&self) -> usize {
        self.vms
    }

    /// The configured attacks.
    pub fn attacks(&self) -> &[AttackSpec] {
        &self.attacks
    }

    /// Generates `ticks` windows of traffic for every VM.
    ///
    /// Deterministic: the same configuration always produces the same
    /// traffic. Each VM has an independent per-VM random stream, so adding
    /// VMs does not perturb existing ones.
    pub fn generate(&self, ticks: usize) -> Vec<VmTraffic> {
        (0..self.vms)
            .map(|vm| self.generate_vm(vm, ticks))
            .collect()
    }

    /// Generates `ticks` windows of traffic for a single VM.
    pub fn generate_vm(&self, vm: usize, ticks: usize) -> VmTraffic {
        // Derive a per-VM stream so VMs are independent yet reproducible.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(vm as u64 + 1)),
        );
        // Per-VM scale: some VMs host chattier services than others.
        let vm_scale = 0.5 + rng.gen::<f64>();
        let mut rho = Vec::with_capacity(ticks);
        let mut packets = Vec::with_capacity(ticks);
        // Scan episodes: multi-window stretches of elevated unanswered-SYN
        // activity with a smooth half-sine ramp. They give ρ the heavy
        // upper tail real backbone traffic shows (what high-selectivity
        // thresholds latch onto) while keeping the inter-window change δ
        // moderate — real asymmetry grows over windows, it does not
        // teleport (compare Figure 1's ramping violation).
        let mut episode: Option<AttackSpec> = None;
        for tick in 0..ticks as u64 {
            let load = BASE_FLOWS_PER_WINDOW * vm_scale * self.diurnal.factor(tick);
            let flows = sample_poisson(&mut rng, load);
            let pkts = sample_poisson(&mut rng, flows * PACKETS_PER_FLOW);
            // Half the packets are inbound; SYN flags are set with the
            // paper's fixed probability p = 0.1 (ρ is invariant to p — it
            // scales P_i and P_o alike).
            let inbound = pkts / 2.0;
            let syn_in = sample_binomial(&mut rng, inbound as u64, SYN_PROBABILITY);
            // Benign handshakes answer each SYN with a SYN-ACK except for
            // a small unanswered fraction (timeouts, scans).
            let answered = sample_binomial(&mut rng, syn_in as u64, 1.0 - UNANSWERED_RATE);
            let episode_over = episode
                .map(|e| tick >= e.start_tick + e.duration_ticks)
                .unwrap_or(true);
            if episode_over {
                episode = None;
                if rng.gen::<f64>() < self.scan_burst_probability {
                    episode = Some(AttackSpec {
                        vm,
                        start_tick: tick,
                        duration_ticks: rng.gen_range(20..80),
                        peak_asymmetry: SCAN_BURST_MEAN * (0.2 + 1.6 * rng.gen::<f64>()),
                    });
                }
            }
            let episode_level: f64 = episode.map(|e| e.asymmetry_at(tick)).unwrap_or(0.0);
            let burst = if episode_level > 0.0 {
                sample_poisson(&mut rng, episode_level)
            } else {
                0.0
            };
            let attack: f64 = self
                .attacks
                .iter()
                .filter(|a| a.vm == vm)
                .map(|a| a.asymmetry_at(tick))
                .sum();
            let attack_syns = if attack > 0.0 {
                sample_poisson(&mut rng, attack)
            } else {
                0.0
            };
            rho.push(syn_in - answered + burst + attack_syns);
            packets.push(pkts + burst + attack_syns);
        }
        VmTraffic { rho, packets }
    }
}

impl Default for NetflowConfig {
    /// Defaults: seed 0, 1 VM, scan episodes (20–80 windows long,
    /// starting with probability 0.004 per quiet window), a mild day
    /// cycle of 5760 windows (24 h of 15-second windows) with ±40% swing,
    /// no attacks. The traffic itself is fixed: 2000 flows/window,
    /// 8 packets/flow, SYN probability 0.1, 2% unanswered handshakes and
    /// scan episodes peaking near 400 unanswered SYNs.
    fn default() -> Self {
        NetflowConfig {
            seed: 0,
            vms: 1,
            scan_burst_probability: 0.004,
            diurnal: DiurnalPattern::new(5760, 0.4),
            attacks: Vec::new(),
        }
    }
}

/// Builder for [`NetflowConfig`].
#[derive(Debug, Clone)]
pub struct NetflowConfigBuilder {
    config: NetflowConfig,
}

impl NetflowConfigBuilder {
    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of VMs (default 1).
    pub fn vms(mut self, vms: usize) -> Self {
        self.config.vms = vms.max(1);
        self
    }

    /// Sets the probability that a scan episode starts in a quiet window (default 0.004).
    /// Clamped to `[0, 1]`. Set to 0 for a light-tailed baseline.
    pub fn scan_burst_probability(mut self, p: f64) -> Self {
        self.config.scan_burst_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the diurnal volume cycle (default: 24 h of 15-second windows,
    /// ±40%).
    pub fn diurnal(mut self, pattern: DiurnalPattern) -> Self {
        self.config.diurnal = pattern;
        self
    }

    /// Adds a SYN-flood attack.
    pub fn attack(mut self, attack: AttackSpec) -> Self {
        self.config.attacks.push(attack);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> NetflowConfig {
        self.config
    }
}

fn sample_poisson(rng: &mut StdRng, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    match Poisson::new(lambda) {
        Ok(dist) => dist.sample(rng),
        Err(_) => lambda, // non-finite λ cannot occur with clamped config
    }
}

fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> f64 {
    if n == 0 || p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return n as f64;
    }
    match Binomial::new(n, p) {
        Ok(dist) => dist.sample(rng) as f64,
        Err(_) => n as f64 * p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config(vms: usize) -> NetflowConfig {
        NetflowConfig::builder().seed(7).vms(vms).build()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = quiet_config(3).generate(50);
        let b = quiet_config(3).generate(50);
        assert_eq!(a, b);
    }

    #[test]
    fn vms_have_independent_streams() {
        let traffic = quiet_config(2).generate(50);
        assert_ne!(traffic[0].rho, traffic[1].rho);
        // Adding a VM must not perturb VM 0.
        let more = quiet_config(3).generate(50);
        assert_eq!(traffic[0], more[0]);
    }

    #[test]
    fn baseline_rho_is_small_relative_to_traffic() {
        let traffic = quiet_config(1).generate(500);
        let mean_rho = crate::timeseries::mean(&traffic[0].rho);
        let mean_pkts = crate::timeseries::mean(&traffic[0].packets);
        assert!(mean_rho >= 0.0);
        assert!(
            mean_rho < mean_pkts * 0.01,
            "baseline asymmetry ({mean_rho}) should be a tiny fraction of traffic ({mean_pkts})"
        );
    }

    #[test]
    fn attack_inflates_rho_with_ramp_shape() {
        let attack = AttackSpec {
            vm: 0,
            start_tick: 100,
            duration_ticks: 40,
            peak_asymmetry: 5000.0,
        };
        let config = NetflowConfig::builder().seed(3).attack(attack).build();
        let t = config.generate_vm(0, 200);
        let before = crate::timeseries::mean(&t.rho[..100]);
        let mid = t.rho[120]; // attack midpoint
        let after = crate::timeseries::mean(&t.rho[141..]);
        assert!(
            mid > before * 10.0,
            "attack midpoint {mid} should dwarf baseline {before}"
        );
        assert!(mid > 2000.0);
        assert!(after < mid / 10.0);
    }

    #[test]
    fn attack_ramp_profile() {
        let a = AttackSpec {
            vm: 0,
            start_tick: 10,
            duration_ticks: 10,
            peak_asymmetry: 100.0,
        };
        assert_eq!(a.asymmetry_at(9), 0.0);
        assert_eq!(a.asymmetry_at(10), 0.0); // sin(0)
        assert!((a.asymmetry_at(15) - 100.0).abs() < 1.0); // sin(π/2)
        assert_eq!(a.asymmetry_at(20), 0.0);
        // Zero-duration attacks never fire.
        let z = AttackSpec {
            vm: 0,
            start_tick: 5,
            duration_ticks: 0,
            peak_asymmetry: 100.0,
        };
        assert_eq!(z.asymmetry_at(5), 0.0);
    }

    #[test]
    fn attacks_only_hit_their_victim() {
        let attack = AttackSpec {
            vm: 1,
            start_tick: 0,
            duration_ticks: 100,
            peak_asymmetry: 10_000.0,
        };
        let config = NetflowConfig::builder()
            .seed(5)
            .vms(2)
            .attack(attack)
            .build();
        let traffic = config.generate(100);
        let peak0 = traffic[0].rho.iter().cloned().fold(0.0, f64::max);
        let peak1 = traffic[1].rho.iter().cloned().fold(0.0, f64::max);
        assert!(peak1 > peak0 * 5.0);
    }

    #[test]
    fn diurnal_modulates_volume() {
        let config = NetflowConfig::builder()
            .seed(11)
            .diurnal(DiurnalPattern::new(200, 0.8))
            .build();
        let t = config.generate_vm(0, 200);
        // Day peak (around tick 50) vs night trough (around tick 150).
        let day = crate::timeseries::mean(&t.packets[40..60]);
        let night = crate::timeseries::mean(&t.packets[140..160]);
        assert!(day > night * 2.0, "day {day} vs night {night}");
    }

    #[test]
    fn diurnal_autocorrelation_peaks_at_the_period() {
        // Traffic volume should correlate with itself one full day apart
        // far more strongly than at a quarter-day lag.
        let period = 400u64;
        let config = NetflowConfig::builder()
            .seed(13)
            .scan_burst_probability(0.0)
            .diurnal(DiurnalPattern::new(period, 0.6))
            .build();
        let t = config.generate_vm(0, 1600).packets;
        let m = crate::timeseries::mean(&t);
        let centered: Vec<f64> = t.iter().map(|v| v - m).collect();
        let autocorr = |lag: usize| {
            let n = centered.len() - lag;
            let cov: f64 = (0..n).map(|i| centered[i] * centered[i + lag]).sum::<f64>() / n as f64;
            let var: f64 = centered.iter().map(|c| c * c).sum::<f64>() / centered.len() as f64;
            cov / var
        };
        let at_period = autocorr(period as usize);
        let at_quarter = autocorr(period as usize / 4);
        assert!(
            at_period > at_quarter + 0.3,
            "period-lag autocorrelation {at_period:.3} should dominate quarter-lag {at_quarter:.3}"
        );
    }

    #[test]
    fn builder_clamps_out_of_range() {
        let config = NetflowConfig::builder().vms(0).build();
        assert_eq!(config.vms(), 1);
    }
}
