//! The fleet scenario: one adaptive monitor per VM (§V-A).
//!
//! [`Scenario`] reproduces the paper's monitoring deployment at any of
//! its three levels ([`TraceFamily`]): every VM gets a Dom0 monitor
//! watching one trace of the family against a selectivity-derived
//! threshold; monitors run Volley's adaptive sampling; every sampling
//! operation charges Dom0 CPU per the family's cost model — packet
//! inspection for network monitoring, a flat agent query otherwise. The
//! Figure 6 harness sweeps the network level's error allowance and
//! summarizes the resulting per-server utilization distributions.

use serde::{Deserialize, Serialize};

use volley_core::accuracy::{AccuracyReport, DetectionLog, GroundTruth};
use volley_core::{AdaptationConfig, SamplerBank};
use volley_traces::http::HttpWorkloadConfig;
use volley_traces::netflow::NetflowConfig;
use volley_traces::sysmetrics::SystemMetricsGenerator;
use volley_traces::timeseries::SeriesSummary;
use volley_traces::{DiurnalPattern, TraceFamily};

use volley_obs::{names, Obs};

use crate::cluster::{ClusterConfig, VmId};
use crate::cost::Dom0CostModel;
use crate::shard::{EngineConfig, EngineStats, EpochCtx, ShardPlan, ShardWorker, ShardedEngine};
use crate::telemetry::ServerTelemetry;
use crate::time::{SimDuration, SimTime};

/// Configuration of the fleet scenario. The family fixes what differs
/// between levels: the default interval
/// ([`TraceFamily::default_interval_secs`]), the trace generator and the
/// Dom0 cost of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Monitoring level (default: network).
    pub family: TraceFamily,
    /// Testbed topology (default: the paper's 20 × 40).
    pub cluster: ClusterConfig,
    /// Error allowance `err` for every monitor (0 = periodic sampling).
    pub error_allowance: f64,
    /// Alert selectivity `k` in percent (threshold = `(100 − k)`-th
    /// percentile of each VM's trace).
    pub selectivity_percent: f64,
    /// Simulation length in the family's default sampling intervals.
    pub ticks: usize,
    /// Random seed for the trace generator.
    pub seed: u64,
    /// Maximum sampling interval `I_m` in default intervals.
    pub max_interval: u32,
    /// Patience `p` of the adaptation algorithm.
    pub patience: u32,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            family: TraceFamily::Network,
            cluster: ClusterConfig::paper(),
            error_allowance: 0.01,
            selectivity_percent: 1.0,
            ticks: 2000,
            seed: 0,
            max_interval: 16,
            patience: 20,
        }
    }
}

/// Result of running a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Cost/accuracy versus the periodic default-interval baseline,
    /// merged over all VMs.
    pub accuracy: AccuracyReport,
    /// Distribution of Dom0 CPU utilization over (server, window) pairs.
    pub cpu: Option<SeriesSummary>,
    /// The raw utilization samples feeding `cpu` (for box plots).
    pub cpu_values: Vec<f64>,
    /// Total sampling operations performed.
    pub sampling_ops: u64,
}

impl ScenarioReport {
    /// Sampling-cost ratio versus the periodic baseline.
    pub fn cost_ratio(&self) -> f64 {
        self.accuracy.cost_ratio()
    }
}

/// The fleet scenario (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    config: ScenarioConfig,
}

/// Discrete event payload: sample one VM's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SampleEvent {
    vm: VmId,
}

/// One coordinator group's slice of the monitoring fleet: the
/// struct-of-arrays sampler bank, detection logs, value traces and Dom0
/// telemetry of its contiguous VM and server ranges. Everything is
/// shard-local, so the sharded engine can run groups on different
/// threads without the results depending on thread count.
///
/// Monitor state lives in a [`SamplerBank`] — parallel arrays indexed
/// by the VM's shard-local offset — so the tick hot path walks
/// contiguous memory instead of chasing one heap-heavy
/// `AdaptiveSampler` per VM, and skips the paper's §IV-B period
/// aggregates that only allowance reallocation consumes. Decisions are
/// those of `AdaptiveSampler`: both run the same §III-B step.
struct FleetShard {
    cluster: ClusterConfig,
    window: SimDuration,
    tick_count: u64,
    cost_model: Dom0CostModel,
    /// First VM id of this shard's contiguous range.
    first_vm: u32,
    /// First server id of this shard's contiguous range.
    first_server: u32,
    bank: SamplerBank,
    logs: Vec<DetectionLog>,
    traces: Vec<Vec<f64>>,
    weights: Option<Vec<Vec<f64>>>,
    telemetry: Vec<ServerTelemetry>,
}

impl ShardWorker for FleetShard {
    type Event = SampleEvent;
    type Msg = ();

    fn handle(
        &mut self,
        ctx: &mut EpochCtx<'_, SampleEvent, ()>,
        time: SimTime,
        event: SampleEvent,
    ) {
        let tick = time.as_micros() / self.window.as_micros();
        if tick >= self.tick_count {
            return;
        }
        let local = (event.vm.0 - self.first_vm) as usize;
        let value = self.traces[local][tick as usize];
        let weight = self
            .weights
            .as_ref()
            .map(|w| w[local][tick as usize])
            .unwrap_or(0.0);
        let server = self.cluster.server_of(event.vm);
        self.telemetry[(server.0 - self.first_server) as usize]
            .charge_sample(time, self.cost_model.sample_cost(weight));
        let obs = self.bank.observe(local, tick, value);
        self.logs[local].record(tick, 1, obs.violation);
        if obs.next_sample_tick < self.tick_count {
            ctx.schedule(
                SimTime::ZERO + self.window.saturating_mul(obs.next_sample_tick),
                event,
            );
        }
    }
}

/// Per-VM trace source: returns the value trace and (for DPI-style
/// costs) the per-tick cost weights of one VM. Called inside the
/// engine's parallel region, so trace generation scales with threads;
/// sources must therefore be pure per VM.
type VmSource = Box<dyn Fn(VmId) -> (Vec<f64>, Option<Vec<f64>>) + Sync>;

impl ScenarioConfig {
    /// The family's trace source over this fleet and seed.
    fn source(&self) -> VmSource {
        let (seed, ticks) = (self.seed, self.ticks);
        let total_vms = self.cluster.total_vms() as usize;
        match self.family {
            TraceFamily::Network => {
                let netflow = NetflowConfig::builder().seed(seed).vms(total_vms).build();
                Box::new(move |vm: VmId| {
                    let traffic = netflow.generate_vm(vm.0 as usize, ticks);
                    (traffic.rho, Some(traffic.packets))
                })
            }
            TraceFamily::System => {
                // One OS metric per VM, cycling through the 66-metric
                // catalog.
                let generator = SystemMetricsGenerator::new(seed)
                    .with_diurnal_period((ticks as u64).min(17_280));
                Box::new(move |vm: VmId| {
                    let vm = vm.0 as usize;
                    (generator.trace(vm, vm % 66, ticks), None)
                })
            }
            TraceFamily::Application => {
                // One web object's access rate per VM. The objects are
                // correlated (shared flash crowds), so the workload is
                // generated once up front and shared read-only across
                // shards.
                let workload = HttpWorkloadConfig::builder()
                    .seed(seed)
                    .objects(total_vms)
                    .requests_per_tick(1000.0 * total_vms as f64)
                    .diurnal(DiurnalPattern::new((ticks as u64).min(86_400), 0.6))
                    .flash_crowd_duration((ticks as u64 / 20).max(10))
                    .build()
                    .generate(ticks);
                Box::new(move |vm: VmId| (workload.object_rate(vm.0 as usize).to_vec(), None))
            }
        }
    }
}

/// The engine every scenario runs on: one shard per coordinator group,
/// and a handful of lockstep epochs over `ticks` windows so the barrier
/// path and epoch telemetry stay exercised without measurable overhead.
pub(crate) fn fleet_engine(
    cluster: ClusterConfig,
    window: SimDuration,
    ticks: usize,
    threads: usize,
) -> (ShardPlan, ShardedEngine) {
    let epoch_ticks = (ticks as u64).div_ceil(8).max(1);
    let engine = ShardedEngine::new(EngineConfig {
        threads,
        epoch: window.saturating_mul(epoch_ticks),
        horizon: SimTime::ZERO + window.saturating_mul(ticks as u64),
    });
    (ShardPlan::by_coordinator_group(cluster), engine)
}

/// Merges per-monitor (or per-task) accuracy reports in the order given.
/// Shards hold contiguous ascending VM ranges, so feeding them in shard
/// order reproduces the sequential engine's merge order exactly.
pub(crate) fn merged_accuracy(reports: impl IntoIterator<Item = AccuracyReport>) -> AccuracyReport {
    reports
        .into_iter()
        .reduce(|acc, report| acc.merged(&report))
        .expect("at least one monitor")
}

impl Scenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: ScenarioConfig) -> Self {
        Scenario { config }
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine and reports cost, accuracy and the Dom0 CPU utilization
    /// distribution. Shards never exchange state (a coordinator group's
    /// monitors only touch their own servers), so the report is
    /// bit-identical for every thread count.
    pub fn run(&self, threads: usize) -> ScenarioReport {
        self.run_detailed(threads, None).0
    }

    /// Like [`run`](Self::run), but also returns the engine's execution
    /// counters and, with `obs`, publishes engine epoch/steal/merge
    /// counters and the fleet's sampling operations
    /// (`volley_sim_sampling_ops_total`) into its registry.
    /// [`EngineStats::steals`] and [`EngineStats::max_queue_depth`]
    /// describe the particular execution.
    pub fn run_detailed(&self, threads: usize, obs: Option<&Obs>) -> (ScenarioReport, EngineStats) {
        let cfg = self.config;
        let adaptation = AdaptationConfig::builder()
            .error_allowance(cfg.error_allowance)
            .max_interval(cfg.max_interval)
            .patience(cfg.patience)
            .build()
            .expect("scenario adaptation parameters are valid");
        let cost_model = match cfg.family {
            TraceFamily::Network => Dom0CostModel::paper_network(),
            TraceFamily::System | TraceFamily::Application => Dom0CostModel::agent_query(),
        };
        let source = cfg.source();
        let window = SimDuration::from_secs_f64(cfg.family.default_interval_secs());
        let (plan, engine) = fleet_engine(cfg.cluster, window, cfg.ticks, threads);
        let tick_count = cfg.ticks as u64;
        let (workers, stats) = engine.run(
            &plan,
            0, // fleet shards draw no engine randomness; traces carry the seed
            |shard, ctx| {
                let first_vm = plan
                    .vms_of(shard)
                    .next()
                    .expect("every coordinator group has at least one VM")
                    .0;
                let first_server = plan
                    .servers_of(shard)
                    .next()
                    .expect("every coordinator group has at least one server")
                    .0;
                let mut bank = SamplerBank::new(adaptation);
                let mut traces = Vec::new();
                let mut weights: Option<Vec<Vec<f64>>> = None;
                for vm in plan.vms_of(shard) {
                    let (trace, weight) = source(vm);
                    let threshold =
                        volley_core::selectivity_threshold(&trace, cfg.selectivity_percent)
                            .expect("non-empty trace, valid selectivity");
                    bank.push(threshold);
                    traces.push(trace);
                    if let Some(weight) = weight {
                        weights.get_or_insert_with(Vec::new).push(weight);
                    }
                    ctx.schedule(SimTime::ZERO, SampleEvent { vm });
                }
                let logs = vec![DetectionLog::new(); traces.len()];
                let telemetry = plan
                    .servers_of(shard)
                    .map(|_| ServerTelemetry::new(window))
                    .collect();
                FleetShard {
                    cluster: cfg.cluster,
                    window,
                    tick_count,
                    cost_model,
                    first_vm,
                    first_server,
                    bank,
                    logs,
                    traces,
                    weights,
                    telemetry,
                }
            },
            obs,
        );

        let accuracy = merged_accuracy(workers.iter().flat_map(|worker| {
            worker
                .logs
                .iter()
                .zip(&worker.traces)
                .enumerate()
                .map(|(local, (log, trace))| {
                    log.score(
                        &GroundTruth::from_trace(trace, worker.bank.threshold(local)),
                        tick_count,
                    )
                })
        }));
        let telemetry: Vec<ServerTelemetry> = workers
            .into_iter()
            .flat_map(|worker| worker.telemetry)
            .collect();
        if let Some(obs) = obs {
            // One counter path: the per-server recorders already counted every
            // sampling operation; their sum is published once.
            let total = telemetry.iter().map(ServerTelemetry::sampling_ops).sum();
            obs.registry()
                .counter(names::SIM_SAMPLING_OPS_TOTAL)
                .add(total);
        }
        let horizon = engine.config().horizon;
        let cpu_values: Vec<f64> = telemetry
            .iter()
            .flat_map(|t| t.utilization_values(horizon))
            .collect();
        let report = ScenarioReport {
            accuracy,
            cpu: SeriesSummary::compute(&cpu_values),
            cpu_values,
            sampling_ops: accuracy.sampling_ops,
        };
        (report, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fleet of `family` at allowance `err`.
    fn small(family: TraceFamily, err: f64) -> ScenarioConfig {
        let (cluster, ticks, seed, max_interval) = match family {
            TraceFamily::Network => (ClusterConfig::new(2, 4, 1), 600, 42, 8),
            TraceFamily::System => (ClusterConfig::new(2, 6, 1), 1200, 9, 16),
            TraceFamily::Application => (ClusterConfig::new(2, 5, 1), 1500, 4, 16),
        };
        ScenarioConfig {
            family,
            cluster,
            error_allowance: err,
            ticks,
            seed,
            max_interval,
            patience: 5,
            ..ScenarioConfig::default()
        }
    }

    fn run(config: ScenarioConfig) -> ScenarioReport {
        Scenario::from_config(config).run(1)
    }

    #[test]
    fn defaults_match_the_paper() {
        let config = ScenarioConfig::default();
        assert_eq!(config.family, TraceFamily::Network);
        assert_eq!(config.cluster, ClusterConfig::paper());
        assert_eq!(config.error_allowance, 0.01);
        assert_eq!(config.selectivity_percent, 1.0);
        assert_eq!(config.max_interval, 16);
        assert_eq!(config.patience, 20);
    }

    #[test]
    fn periodic_baseline_samples_every_window() {
        for family in TraceFamily::ALL {
            let config = small(family, 0.0);
            let report = run(config);
            assert_eq!(
                report.sampling_ops,
                u64::from(config.cluster.total_vms()) * config.ticks as u64,
                "{}",
                family.name()
            );
            assert!((report.cost_ratio() - 1.0).abs() < 1e-12);
            assert_eq!(report.accuracy.misdetection_rate(), 0.0);
        }
    }

    #[test]
    fn adaptation_saves_cost_in_every_family() {
        for family in TraceFamily::ALL {
            let periodic = run(small(family, 0.0));
            let adaptive = run(small(family, 0.05));
            assert!(
                adaptive.sampling_ops < periodic.sampling_ops,
                "{}: adaptive {} vs periodic {}",
                family.name(),
                adaptive.sampling_ops,
                periodic.sampling_ops
            );
            let p = periodic.cpu.expect("cpu");
            let a = adaptive.cpu.expect("cpu");
            assert!(a.mean < p.mean, "{}", family.name());
        }
    }

    #[test]
    fn adaptation_reduces_cost() {
        let periodic = run(small(TraceFamily::Network, 0.0));
        let adaptive = run(small(TraceFamily::Network, 0.05));
        assert!(
            adaptive.sampling_ops < periodic.sampling_ops / 2,
            "adaptive {} vs periodic {}",
            adaptive.sampling_ops,
            periodic.sampling_ops
        );
    }

    #[test]
    fn adaptation_reduces_cpu_utilization() {
        let periodic = run(small(TraceFamily::Network, 0.0));
        let adaptive = run(small(TraceFamily::Network, 0.05));
        let p = periodic.cpu.expect("cpu summary");
        let a = adaptive.cpu.expect("cpu summary");
        assert!(
            a.mean < p.mean * 0.6,
            "adaptive {} vs periodic {}",
            a.mean,
            p.mean
        );
    }

    #[test]
    fn paper_cluster_periodic_utilization_in_band() {
        // One server of the paper topology, short run: utilization must
        // land in the calibrated 20-34% band on average.
        let report = run(ScenarioConfig {
            cluster: ClusterConfig::new(1, 40, 1),
            error_allowance: 0.0,
            ticks: 200,
            seed: 7,
            ..ScenarioConfig::default()
        });
        let cpu = report.cpu.expect("cpu summary");
        assert!(
            (0.15..=0.40).contains(&cpu.mean),
            "mean Dom0 utilization {} outside plausible band",
            cpu.mean
        );
    }

    #[test]
    fn misdetection_stays_reasonable() {
        let report = run(small(TraceFamily::Network, 0.02));
        // The Chebyshev adaptation is conservative; actual misses should
        // be comfortably below 10x the allowance even on short traces.
        assert!(report.accuracy.misdetection_rate() < 0.2);
    }

    #[test]
    fn deterministic_runs() {
        for family in TraceFamily::ALL {
            let config = small(family, 0.01);
            assert_eq!(run(config), run(config), "{}", family.name());
        }
    }

    #[test]
    fn obs_counter_matches_report_sampling_ops() {
        let obs = Obs::new(true);
        let (report, _) =
            Scenario::from_config(small(TraceFamily::Network, 0.01)).run_detailed(1, Some(&obs));
        let snapshot = obs.snapshot(0);
        assert_eq!(
            snapshot
                .counters
                .get(volley_obs::names::SIM_SAMPLING_OPS_TOTAL)
                .copied(),
            Some(report.sampling_ops),
            "registry and Fig. 6 report must share one counter path"
        );
    }

    #[test]
    fn cpu_values_cover_all_server_windows() {
        let report = run(small(TraceFamily::Network, 0.01));
        // 2 servers × 600 windows.
        assert_eq!(report.cpu_values.len(), 2 * 600);
    }

    #[test]
    fn system_scenario_agent_queries_are_cheap() {
        // Agent queries must burden Dom0 far less than packet inspection.
        let system = run(small(TraceFamily::System, 0.0));
        let network = run(ScenarioConfig {
            family: TraceFamily::Network,
            ..small(TraceFamily::System, 0.0)
        });
        let s = system.cpu.expect("cpu");
        let n = network.cpu.expect("cpu");
        assert!(
            s.mean < n.mean / 5.0,
            "system {} vs network {}",
            s.mean,
            n.mean
        );
    }
}
