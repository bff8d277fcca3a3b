//! Distributed tasks on the simulator: multi-VM monitoring with global
//! polls and their Dom0 costs.
//!
//! The single-VM scenarios of [`crate::scenario`] cover Figures 5–7; the
//! paper's distributed experiments (Figure 8, and "results on distributed
//! monitoring tasks (multiple VMs)") group VMs into tasks whose
//! coordinators trigger *global polls* on local violations. This module
//! runs [`DistributedTask`]s over the simulated cluster, charging every
//! scheduled **and** poll-forced sampling operation to the hosting
//! server's Dom0, so the cost of coordination — not just of local
//! sampling — shows up in the utilization figures.

use serde::{Deserialize, Serialize};

use volley_core::accuracy::{AccuracyReport, DetectionLog, GroundTruth};
use volley_core::allocation::AllocationConfig;
use volley_core::coordinator::CoordinationScheme;
use volley_core::task::TaskSpec;
use volley_core::DistributedTask;
use volley_traces::netflow::NetflowConfig;
use volley_traces::timeseries::SeriesSummary;
use volley_traces::{DiurnalPattern, TraceFamily};

use crate::cluster::{ClusterConfig, VmId};
use crate::cost::Dom0CostModel;
use crate::scenario::{fleet_engine, merged_accuracy};
use crate::shard::{EpochCtx, ShardWorker};
use crate::telemetry::ServerTelemetry;
use crate::time::{SimDuration, SimTime};

/// Configuration of the distributed-tasks scenario. Monitors watch
/// network traffic at the 15-second default interval, local thresholds
/// sit at selectivity 1 %, and every sampling operation — scheduled or
/// poll-forced — is charged at the packet-inspection cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedScenarioConfig {
    /// Testbed topology; VMs are grouped into tasks of `task_size`
    /// consecutive VMs (the last partial group is dropped).
    pub cluster: ClusterConfig,
    /// Monitors (VMs) per distributed task.
    pub task_size: usize,
    /// Task-level error allowance.
    pub error_allowance: f64,
    /// Simulation length in 15-second windows.
    pub ticks: usize,
    /// Random seed.
    pub seed: u64,
    /// Maximum sampling interval `I_m`.
    pub max_interval: u32,
    /// Adaptation patience `p`.
    pub patience: u32,
    /// Allowance-allocation scheme.
    pub scheme: CoordinationScheme,
}

impl Default for DistributedScenarioConfig {
    fn default() -> Self {
        DistributedScenarioConfig {
            cluster: ClusterConfig::paper(),
            task_size: 5,
            error_allowance: 0.05,
            ticks: 2000,
            seed: 0,
            max_interval: 16,
            patience: 20,
            scheme: CoordinationScheme::Adaptive,
        }
    }
}

/// Result of a distributed-tasks run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedScenarioReport {
    /// Number of tasks run.
    pub tasks: usize,
    /// Global-aggregate detection accuracy merged over tasks (ground
    /// truth: ticks where a task's aggregate exceeds its global
    /// threshold).
    pub accuracy: AccuracyReport,
    /// Dom0 CPU utilization distribution over (server, window) samples.
    pub cpu: Option<SeriesSummary>,
    /// Total sampling operations (scheduled + poll-forced).
    pub sampling_ops: u64,
    /// Total global polls across tasks.
    pub global_polls: u64,
    /// Total state alerts across tasks.
    pub alerts: u64,
}

impl DistributedScenarioReport {
    /// Sampling-cost ratio versus the periodic baseline.
    pub fn cost_ratio(&self) -> f64 {
        self.accuracy.cost_ratio()
    }
}

/// The distributed-tasks scenario (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedScenario {
    config: DistributedScenarioConfig,
}

/// One distributed task plus its member traces and scoring state, owned
/// by the shard holding its first VM.
struct TaskCell {
    vms: Vec<usize>,
    task: DistributedTask,
    log: DetectionLog,
    truth: GroundTruth,
    rho: Vec<Vec<f64>>,
    packets: Vec<Vec<f64>>,
}

/// Tick event: advance one shard-local task by one window.
#[derive(Debug, Clone, Copy)]
struct StepTask {
    local: usize,
}

/// A shard's slice of the distributed-tasks scenario. Tasks group
/// *consecutive* VMs and may straddle coordinator groups, so each shard
/// charges a private full-cluster telemetry vector; the vectors are
/// merged element-wise (fixed shard order) after the run — deterministic
/// for every thread count.
///
/// The per-tick member-value vector comes from the shard's
/// [`ScratchArena`](crate::shard::ScratchArena), so the step loop
/// allocates nothing at steady state.
struct DistributedShard {
    cluster: ClusterConfig,
    window: SimDuration,
    tick_count: u64,
    cost: Dom0CostModel,
    tasks: Vec<TaskCell>,
    telemetry: Vec<ServerTelemetry>,
    global_polls: u64,
    alerts: u64,
}

impl ShardWorker for DistributedShard {
    type Event = StepTask;
    type Msg = ();

    fn handle(&mut self, ctx: &mut EpochCtx<'_, StepTask, ()>, time: SimTime, event: StepTask) {
        let tick = time.as_micros() / self.window.as_micros();
        if tick >= self.tick_count {
            return;
        }
        let cell = &mut self.tasks[event.local];
        let mut values = ctx.scratch().take_f64();
        values.extend(cell.rho.iter().map(|trace| trace[tick as usize]));
        let outcome = cell.task.step(tick, &values).expect("value count matches");
        ctx.scratch().put_f64(values);
        // Charge each member's Dom0 for this tick's operations:
        // distribute the tick's total ops over the members that
        // sampled (scheduled) or were polled (all of them).
        if outcome.total_samples() > 0 {
            let polled = outcome.poll.is_some();
            for (member, vm) in cell.vms.iter().enumerate() {
                // Every member sampled if a poll ran; otherwise
                // we cannot know which members' schedules fired
                // from the outcome alone, so charge
                // proportionally: scheduled ops spread over the
                // task (the per-op cost model is per-VM traffic).
                let ops_for_vm = if polled {
                    1.0
                } else {
                    f64::from(outcome.scheduled_samples) / cell.vms.len() as f64
                };
                if ops_for_vm > 0.0 {
                    let server = self.cluster.server_of(VmId(*vm as u32));
                    let packets = cell.packets[member][tick as usize];
                    let cost = self.cost.sample_cost(packets * ops_for_vm);
                    self.telemetry[server.0 as usize].charge_sample(time, cost);
                }
            }
        }
        cell.log
            .record(tick, outcome.total_samples(), outcome.alerted());
        if outcome.poll.is_some() {
            self.global_polls += 1;
        }
        if outcome.alerted() {
            self.alerts += 1;
        }
        if tick + 1 < self.tick_count {
            ctx.schedule(time + self.window, event);
        }
    }
}

impl DistributedScenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: DistributedScenarioConfig) -> Self {
        DistributedScenario { config }
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine. The report is bit-identical for every thread count: tasks
    /// are owned by the shard holding their first VM, and per-shard
    /// telemetry merges in fixed shard order.
    ///
    /// # Panics
    ///
    /// Panics when `task_size` is zero or exceeds the VM count.
    pub fn run(&self, threads: usize) -> DistributedScenarioReport {
        let cfg = &self.config;
        assert!(cfg.task_size >= 1, "task_size must be at least 1");
        let total_vms = cfg.cluster.total_vms() as usize;
        let task_count = total_vms / cfg.task_size;
        assert!(task_count >= 1, "task_size exceeds the VM count");
        let window = SimDuration::from_secs_f64(TraceFamily::Network.default_interval_secs());
        let tick_count = cfg.ticks as u64;
        let cost = Dom0CostModel::paper_network();

        let netflow = NetflowConfig::builder()
            .seed(cfg.seed)
            .vms(total_vms)
            .diurnal(DiurnalPattern::new((cfg.ticks as u64).min(5760), 0.4))
            .build();

        let (plan, engine) = fleet_engine(cfg.cluster, window, cfg.ticks, threads);
        let (workers, _) = engine.run(
            &plan,
            0, // traces carry the seed; shards draw no engine randomness
            |shard, ctx| {
                // Member traces generate shard-locally (each VM has an
                // independent stream), so setup parallelizes with the run.
                let mut tasks = Vec::new();
                for task_idx in 0..task_count {
                    let first_vm = VmId((task_idx * cfg.task_size) as u32);
                    if plan.shard_of_vm(first_vm) != shard {
                        continue;
                    }
                    let vms: Vec<usize> =
                        (task_idx * cfg.task_size..(task_idx + 1) * cfg.task_size).collect();
                    let traffic: Vec<_> = vms
                        .iter()
                        .map(|vm| netflow.generate_vm(*vm, cfg.ticks))
                        .collect();
                    let thresholds: Vec<f64> = traffic
                        .iter()
                        .map(|t| {
                            volley_core::selectivity_threshold(&t.rho, 1.0)
                                .expect("non-empty trace, valid selectivity")
                        })
                        .collect();
                    let global: f64 = thresholds.iter().sum();
                    let spec = TaskSpec::builder(global)
                        .threshold_split(volley_core::ThresholdSplit::Proportional)
                        .threshold_weights(thresholds)
                        .error_allowance(cfg.error_allowance)
                        .max_interval(cfg.max_interval)
                        .patience(cfg.patience)
                        .build()
                        .expect("scenario task parameters are valid");
                    let task = DistributedTask::with_scheme(
                        &spec,
                        cfg.scheme,
                        AllocationConfig::default(),
                    )
                    .expect("valid task");
                    let rho: Vec<Vec<f64>> = traffic.iter().map(|t| t.rho.clone()).collect();
                    let packets: Vec<Vec<f64>> = traffic.into_iter().map(|t| t.packets).collect();
                    let truth = GroundTruth::from_aggregate_traces(&rho, global);
                    let local = tasks.len();
                    tasks.push(TaskCell {
                        vms,
                        task,
                        log: DetectionLog::new(),
                        truth,
                        rho,
                        packets,
                    });
                    ctx.schedule(SimTime::ZERO, StepTask { local });
                }
                DistributedShard {
                    cluster: cfg.cluster,
                    window,
                    tick_count,
                    cost,
                    tasks,
                    telemetry: (0..cfg.cluster.servers())
                        .map(|_| ServerTelemetry::new(window))
                        .collect(),
                    global_polls: 0,
                    alerts: 0,
                }
            },
            None,
        );

        // Merge per-shard results in fixed shard order: task logs score
        // in global task order (tasks sort by first VM, shards own
        // ascending VM ranges), telemetry sums element-wise.
        let baseline_per_task = tick_count * cfg.task_size as u64;
        let accuracy = merged_accuracy(workers.iter().flat_map(|worker| {
            worker
                .tasks
                .iter()
                .map(|cell| cell.log.score(&cell.truth, baseline_per_task))
        }));
        let mut telemetry: Vec<ServerTelemetry> = (0..cfg.cluster.servers())
            .map(|_| ServerTelemetry::new(window))
            .collect();
        for worker in &workers {
            for (into, from) in telemetry.iter_mut().zip(&worker.telemetry) {
                into.merge_from(from);
            }
        }
        let horizon = engine.config().horizon;
        let cpu_values: Vec<f64> = telemetry
            .iter()
            .flat_map(|t| t.utilization_values(horizon))
            .collect();
        DistributedScenarioReport {
            tasks: task_count,
            accuracy,
            cpu: SeriesSummary::compute(&cpu_values),
            sampling_ops: accuracy.sampling_ops,
            global_polls: workers.iter().map(|w| w.global_polls).sum(),
            alerts: workers.iter().map(|w| w.alerts).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(err: f64) -> DistributedScenarioConfig {
        DistributedScenarioConfig {
            cluster: ClusterConfig::new(2, 10, 1),
            task_size: 5,
            error_allowance: err,
            ticks: 800,
            seed: 3,
            patience: 5,
            ..DistributedScenarioConfig::default()
        }
    }

    #[test]
    fn groups_vms_into_tasks() {
        let report = DistributedScenario::from_config(small(0.05)).run(1);
        assert_eq!(report.tasks, 4); // 20 VMs / 5
    }

    #[test]
    fn periodic_baseline_detects_all_aggregate_violations() {
        let report = DistributedScenario::from_config(small(0.0)).run(1);
        assert_eq!(report.accuracy.misdetection_rate(), 0.0);
        assert_eq!(report.sampling_ops, 4 * 5 * 800);
    }

    #[test]
    fn adaptation_saves_cost_on_distributed_tasks() {
        let periodic = DistributedScenario::from_config(small(0.0)).run(1);
        let adaptive = DistributedScenario::from_config(small(0.05)).run(1);
        assert!(
            adaptive.sampling_ops < periodic.sampling_ops,
            "adaptive {} vs periodic {}",
            adaptive.sampling_ops,
            periodic.sampling_ops
        );
        let p = periodic.cpu.as_ref().expect("cpu");
        let a = adaptive.cpu.as_ref().expect("cpu");
        assert!(a.mean < p.mean);
    }

    #[test]
    fn polls_happen_and_are_counted() {
        let report = DistributedScenario::from_config(small(0.02)).run(1);
        assert!(
            report.global_polls > 0,
            "local violations should trigger polls"
        );
    }

    #[test]
    fn deterministic() {
        let a = DistributedScenario::from_config(small(0.01)).run(1);
        let b = DistributedScenario::from_config(small(0.01)).run(1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "task_size must be at least 1")]
    fn zero_task_size_panics() {
        DistributedScenario::from_config(DistributedScenarioConfig {
            task_size: 0,
            ..small(0.01)
        })
        .run(1);
    }
}
