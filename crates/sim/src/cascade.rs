//! The DDoS cascade scenario: multi-task correlation suppression on the
//! sharded engine (§II.B).
//!
//! The paper's motivating example for the multi-task scheme: an
//! effective DDoS attack on a VM inflates its request **response time**
//! *and* its **traffic asymmetry** `ρ` — elevated response time is
//! (approximately) a necessary condition of an effective attack. The
//! response-time probe is cheap (an agent query); the `ρ` task is
//! expensive (packet capture + deep packet inspection). So each VM's
//! monitor learns the correlation over a training window and then
//! *gates* the expensive `ρ` task with the shared §II.B
//! [`FollowerGate`]: while the cheap leader has been calm over the lag
//! window, the follower's samples are paced to at least the coarse
//! gated interval apart, and it snaps back to its adaptive schedule the
//! moment the leader fires — the live runtime's rule, tick for tick.
//!
//! The scenario runs one such leader/follower pair per VM on the
//! sharded engine ([`crate::shard`]) — shards never exchange state, so
//! results are bit-identical for every thread count — and scores the
//! follower's post-training cost and accuracy against full-resolution
//! ground truth. Running it twice, [`gated`](DdosCascadeConfig::gated)
//! off then on, prices the suppression: the follower's sampling savings
//! at the mis-detection cost the gate introduces.

use serde::{Deserialize, Serialize};

use volley_core::accuracy::{AccuracyReport, DetectionLog, GroundTruth};
use volley_core::correlation::{CorrelationConfig, CorrelationDetector, FollowerGate};
use volley_core::task::TaskId;
use volley_core::{AdaptationConfig, SamplerBank};
use volley_traces::{PlantedPair, TraceFamily};

use crate::cluster::{ClusterConfig, VmId};
use crate::scenario::{fleet_engine, merged_accuracy};
use crate::shard::{EpochCtx, ShardWorker};
use crate::time::{SimDuration, SimTime};

/// Configuration of the DDoS cascade scenario. The follower's `ρ`
/// threshold sits at selectivity 2 % and the leader's response-time
/// threshold at a looser 8 % — per the paper, a *necessary* condition
/// fires at least as often as its consequence. Each attack lasts 80
/// ticks at peak asymmetry 2 500; the follower adapts with `I_m` 16 and
/// patience 5 at the 15-second default interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdosCascadeConfig {
    /// Testbed topology.
    pub cluster: ClusterConfig,
    /// Error allowance `err` for the follower's adaptive sampler.
    pub error_allowance: f64,
    /// Run length in default sampling intervals.
    pub ticks: usize,
    /// Ticks spent learning each VM's correlation before gating starts;
    /// the follower is scored on the remaining `ticks − train_ticks`.
    pub train_ticks: usize,
    /// Random seed for the traffic generator.
    pub seed: u64,
    /// Correlation thresholds and the gated (coarse) interval.
    pub correlation: CorrelationConfig,
    /// Whether the learned gates are applied (`false` = the ungated
    /// adaptive baseline; the correlation is still learned and reported).
    pub gated: bool,
    /// Ticks between recurring attacks on each VM.
    pub attack_period: u64,
}

impl Default for DdosCascadeConfig {
    fn default() -> Self {
        DdosCascadeConfig {
            cluster: ClusterConfig::paper(),
            error_allowance: 0.02,
            ticks: 4000,
            train_ticks: 2000,
            seed: 0,
            correlation: CorrelationConfig {
                lag_window: 4,
                ..CorrelationConfig::default()
            },
            gated: true,
            attack_period: 900,
        }
    }
}

/// Result of one cascade run: the follower task's post-training
/// cost/accuracy, plus what the correlation training learned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CascadeReport {
    /// VMs (leader/follower pairs) simulated.
    pub vms: u32,
    /// Scored (post-training) ticks.
    pub eval_ticks: u64,
    /// Follower cost/accuracy over the evaluation window, merged over
    /// all VMs, versus full-resolution ground truth.
    pub accuracy: AccuracyReport,
    /// Follower sampling operations in the evaluation window.
    pub follower_samples: u64,
    /// Leader probes in the evaluation window (every tick, every VM —
    /// the cheap necessary-condition task is never gated).
    pub leader_samples: u64,
    /// VMs whose follower ended up gated by the learned plan.
    pub gated_vms: u32,
    /// Mean learned necessity confidence `P(leader high | follower
    /// violates)` over all VMs (0 where support was insufficient).
    pub mean_confidence: f64,
}

impl CascadeReport {
    /// Follower sampling-cost ratio versus the periodic baseline.
    pub fn cost_ratio(&self) -> f64 {
        self.accuracy.cost_ratio()
    }

    /// Follower mis-detection rate over the evaluation window.
    pub fn misdetection_rate(&self) -> f64 {
        self.accuracy.misdetection_rate()
    }
}

/// Discrete event payload: sample one VM's follower (`ρ`) task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CascadeEvent {
    vm: VmId,
}

/// One coordinator group's slice of the cascade fleet. The leader task
/// is modeled as an every-tick probe (direct trace reads — the paper's
/// cheap necessary-condition monitor), so only follower samples are
/// event-scheduled; all cascade logic is pure per-VM trace lookups and
/// the shard stays thread-count independent.
struct CascadeShard {
    window: SimDuration,
    ticks: u64,
    train: u64,
    first_vm: u32,
    /// Follower (`ρ`) adaptive samplers.
    bank: SamplerBank,
    rho: Vec<Vec<f64>>,
    response: Vec<Vec<f64>>,
    response_thresholds: Vec<f64>,
    /// Per-VM gate, when training qualified (and applied) one, with the
    /// first tick of leader activity not yet fed to it.
    gates: Vec<Option<(FollowerGate, u64)>>,
    confidences: Vec<f64>,
    /// Follower detections over the evaluation window (tick-rebased).
    logs: Vec<DetectionLog>,
}

impl ShardWorker for CascadeShard {
    type Event = CascadeEvent;
    type Msg = ();

    fn handle(
        &mut self,
        ctx: &mut EpochCtx<'_, CascadeEvent, ()>,
        time: SimTime,
        event: CascadeEvent,
    ) {
        let tick = time.as_micros() / self.window.as_micros();
        if tick >= self.ticks {
            return;
        }
        let local = (event.vm.0 - self.first_vm) as usize;
        let value = self.rho[local][tick as usize];
        let obs = self.bank.observe(local, tick, value);
        if tick >= self.train {
            self.logs[local].record(tick - self.train, 1, obs.violation);
        }
        let mut next = obs.next_sample_tick;
        // Once the plan is in force (from `train` on), the next sample is
        // the first tick at or after the adaptive one that the gate, fed
        // the leader's trace up to that tick, does not hold.
        if let Some((gate, fed)) = &mut self.gates[local] {
            let (response, threshold) = (&self.response[local], self.response_thresholds[local]);
            while next >= self.train && next < self.ticks {
                for t in *fed..=next {
                    gate.advance(t, response[t as usize] > threshold);
                }
                *fed = next + 1;
                if !FollowerGate::holds(gate.interval(), Some(tick), next) {
                    break;
                }
                next += 1;
            }
        }
        if next < self.ticks {
            ctx.schedule(SimTime::ZERO + self.window.saturating_mul(next), event);
        }
    }
}

/// The DDoS cascade scenario (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdosCascadeScenario {
    config: DdosCascadeConfig,
}

impl DdosCascadeScenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: DdosCascadeConfig) -> Self {
        DdosCascadeScenario { config }
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine. The report is bit-identical for every thread count.
    pub fn run(&self, threads: usize) -> CascadeReport {
        let cfg = &self.config;
        assert!(
            cfg.train_ticks < cfg.ticks,
            "cascade needs an evaluation window (train_ticks < ticks)"
        );
        let total_vms = cfg.cluster.total_vms() as usize;
        let ticks = cfg.ticks;
        let train = cfg.train_ticks;

        // Recurring attacks on every VM: every VM sees attacks in both
        // the training and the evaluation window.
        let pairs = PlantedPair::new(cfg.seed, total_vms, ticks, cfg.attack_period);

        let adaptation = AdaptationConfig::builder()
            .error_allowance(cfg.error_allowance)
            .max_interval(16)
            .patience(5)
            .build()
            .expect("scenario adaptation parameters are valid");

        let window = SimDuration::from_secs_f64(TraceFamily::Network.default_interval_secs());
        let (plan, engine) = fleet_engine(cfg.cluster, window, ticks, threads);
        let (workers, _) = engine.run(
            &plan,
            0, // traces carry the seed; the engine draws no randomness
            |shard, ctx| {
                let first_vm = plan
                    .vms_of(shard)
                    .next()
                    .expect("every coordinator group has at least one VM")
                    .0;
                let mut bank = SamplerBank::new(adaptation);
                let mut rho_traces = Vec::new();
                let mut response_traces = Vec::new();
                let mut response_thresholds = Vec::new();
                let mut gates = Vec::new();
                let mut confidences = Vec::new();
                let leader = TaskId(0);
                let follower = TaskId(1);
                for vm in plan.vms_of(shard) {
                    let (response, rho) = pairs.generate_vm(vm.0 as usize);
                    let rho_threshold = volley_core::selectivity_threshold(&rho, 2.0)
                        .expect("non-empty trace, valid selectivity");
                    let resp_threshold = volley_core::selectivity_threshold(&response, 8.0)
                        .expect("non-empty trace, valid selectivity");
                    // Train this VM's detector on the full-resolution
                    // prefix, then freeze the plan.
                    let mut detector =
                        CorrelationDetector::new(cfg.correlation, vec![leader, follower]);
                    for t in 0..train {
                        detector.observe(
                            t as u64,
                            &[response[t] > resp_threshold, rho[t] > rho_threshold],
                        );
                    }
                    confidences.push(
                        detector
                            .necessity_confidence(leader, follower)
                            .unwrap_or(0.0),
                    );
                    gates.push(if cfg.gated {
                        detector
                            .plan()
                            .gate(follower)
                            .map(|g| (FollowerGate::new(g, cfg.correlation.lag_window), 0))
                    } else {
                        None
                    });
                    bank.push(rho_threshold);
                    rho_traces.push(rho);
                    response_traces.push(response);
                    response_thresholds.push(resp_threshold);
                    ctx.schedule(SimTime::ZERO, CascadeEvent { vm });
                }
                let logs = vec![DetectionLog::new(); rho_traces.len()];
                CascadeShard {
                    window,
                    ticks: ticks as u64,
                    train: train as u64,
                    first_vm,
                    bank,
                    rho: rho_traces,
                    response: response_traces,
                    response_thresholds,
                    gates,
                    confidences,
                    logs,
                }
            },
            None,
        );

        // Merge shard results in shard order (contiguous ascending VM
        // ranges), scoring the follower on the evaluation window only.
        let eval_ticks = (ticks - train) as u64;
        let accuracy = merged_accuracy(workers.iter().flat_map(|worker| {
            worker
                .logs
                .iter()
                .zip(&worker.rho)
                .enumerate()
                .map(|(local, (log, rho))| {
                    log.score(
                        &GroundTruth::from_trace(&rho[train..], worker.bank.threshold(local)),
                        eval_ticks,
                    )
                })
        }));
        let gated_vms = workers
            .iter()
            .map(|w| w.gates.iter().filter(|g| g.is_some()).count() as u32)
            .sum();
        let confidence_sum: f64 = workers
            .iter()
            .map(|w| w.confidences.iter().sum::<f64>())
            .sum();
        CascadeReport {
            vms: total_vms as u32,
            eval_ticks,
            follower_samples: accuracy.sampling_ops,
            leader_samples: eval_ticks * total_vms as u64,
            gated_vms,
            mean_confidence: confidence_sum / total_vms as f64,
            accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(gated: bool) -> DdosCascadeConfig {
        DdosCascadeConfig {
            cluster: ClusterConfig::new(2, 4, 1),
            ticks: 2400,
            train_ticks: 1200,
            seed: 11,
            attack_period: 600,
            gated,
            ..DdosCascadeConfig::default()
        }
    }

    #[test]
    fn gating_saves_follower_samples_within_the_allowance() {
        let ungated = DdosCascadeScenario::from_config(small(false)).run(1);
        let gated = DdosCascadeScenario::from_config(small(true)).run(1);
        assert!(gated.gated_vms > 0, "training must qualify gates");
        assert!(
            gated.follower_samples < ungated.follower_samples,
            "gated {} vs ungated {}",
            gated.follower_samples,
            ungated.follower_samples
        );
        let allowance = small(true).error_allowance;
        assert!(
            gated.misdetection_rate() <= allowance,
            "mis-detection {} above allowance {allowance}",
            gated.misdetection_rate()
        );
    }

    #[test]
    fn learned_confidence_is_high_for_the_planted_cascade() {
        let report = DdosCascadeScenario::from_config(small(true)).run(1);
        assert!(
            report.mean_confidence > 0.9,
            "necessity confidence {} too low",
            report.mean_confidence
        );
    }

    #[test]
    fn ungated_runs_learn_but_do_not_gate() {
        let report = DdosCascadeScenario::from_config(small(false)).run(1);
        assert_eq!(report.gated_vms, 0);
        assert!(report.mean_confidence > 0.0, "correlation still learned");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let one = DdosCascadeScenario::from_config(small(true)).run(1);
        let four = DdosCascadeScenario::from_config(small(true)).run(4);
        assert_eq!(one, four);
    }
}
