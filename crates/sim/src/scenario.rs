//! End-to-end simulation scenarios.
//!
//! [`NetworkScenario`] reproduces the paper's network-level monitoring
//! deployment (§V-A): every VM gets a Dom0 monitor watching its traffic
//! difference `ρ_v` against a selectivity-derived threshold; monitors run
//! Volley's adaptive sampling; every sampling operation charges Dom0 CPU
//! per the cost model. The Figure 6 harness sweeps the error allowance
//! and summarizes the resulting per-server utilization distributions.

use serde::{Deserialize, Serialize};

use volley_core::accuracy::{AccuracyReport, DetectionLog, GroundTruth};
use volley_core::{AdaptationConfig, SamplerBank};
use volley_traces::netflow::{AttackSpec, NetflowConfig};
use volley_traces::timeseries::SeriesSummary;
use volley_traces::DiurnalPattern;

use volley_obs::Obs;

use crate::cluster::{ClusterConfig, VmId};
use crate::cost::Dom0CostModel;
use crate::shard::{EngineConfig, EngineStats, EpochCtx, ShardPlan, ShardWorker, ShardedEngine};
use crate::telemetry::{ObsBridge, ServerTelemetry};
use crate::time::{SimDuration, SimTime};

/// Configuration of the network-monitoring fleet scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkScenarioConfig {
    /// Testbed topology (default: the paper's 20 × 40).
    pub cluster: ClusterConfig,
    /// Error allowance `err` for every monitor (0 = periodic sampling).
    pub error_allowance: f64,
    /// Alert selectivity `k` in percent (threshold = `(100 − k)`-th
    /// percentile of each VM's `ρ` trace).
    pub selectivity_percent: f64,
    /// Simulation length in default sampling intervals (15-second
    /// windows).
    pub ticks: usize,
    /// Random seed for the traffic generator.
    pub seed: u64,
    /// Maximum sampling interval `I_m` in windows.
    pub max_interval: u32,
    /// Patience `p` of the adaptation algorithm.
    pub patience: u32,
    /// The default sampling interval in seconds (paper: 15 s).
    pub window_secs: f64,
    /// Dom0 cost model.
    pub cost: Dom0CostModel,
    /// Mean flows per VM-window for the traffic generator.
    pub flows_per_window: f64,
    /// Diurnal traffic cycle.
    pub diurnal: DiurnalPattern,
    /// SYN-flood attacks to inject.
    pub attacks: Vec<AttackSpec>,
}

impl Default for NetworkScenarioConfig {
    fn default() -> Self {
        NetworkScenarioConfig {
            cluster: ClusterConfig::paper(),
            error_allowance: 0.01,
            selectivity_percent: 1.0,
            ticks: 2000,
            seed: 0,
            max_interval: 16,
            patience: 20,
            window_secs: 15.0,
            cost: Dom0CostModel::paper_network(),
            flows_per_window: 2000.0,
            diurnal: DiurnalPattern::new(5760, 0.4),
            attacks: Vec::new(),
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

/// The network-monitoring fleet scenario (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkScenario {
    config: NetworkScenarioConfig,
}

/// Discrete event payload: sample one VM's traffic window.
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

/// Per-VM trace source handed to [`run_fleet`]: returns the value trace
/// and (for DPI-style costs) the per-tick cost weights of one VM.
/// Called inside the engine's parallel region, so trace generation
/// scales with threads; sources must therefore be pure per VM.
type VmSource<'a> = &'a (dyn Fn(VmId) -> (Vec<f64>, Option<Vec<f64>>) + Sync);

/// The shared fleet engine behind every scenario: one adaptive sampler
/// per VM over a per-VM value trace, sampling events scheduled on
/// per-coordinator-group event queues (see [`crate::shard`]), cost
/// charged to the hosting server's Dom0.
///
/// Shards never exchange state (a coordinator group's monitors only
/// touch their own servers), so results are bit-identical for every
/// `threads` value — `threads` buys wall-clock time, nothing else.
#[allow(clippy::too_many_arguments)] // internal engine; each knob is load-bearing
fn run_fleet(
    cluster: ClusterConfig,
    window: SimDuration,
    ticks: usize,
    adaptation: AdaptationConfig,
    selectivity_percent: f64,
    cost_model: Dom0CostModel,
    source: VmSource<'_>,
    obs: Option<&Obs>,
    threads: usize,
) -> (ScenarioReport, EngineStats) {
    let horizon = SimTime::ZERO + window.saturating_mul(ticks as u64);
    let plan = ShardPlan::by_coordinator_group(cluster);
    // Aim for a handful of lockstep epochs so the engine's barrier path
    // and epoch telemetry stay exercised without measurable overhead.
    let epoch_ticks = (ticks as u64).div_ceil(8).max(1);
    let engine = ShardedEngine::new(EngineConfig {
        threads,
        epoch: window.saturating_mul(epoch_ticks),
        horizon,
    });
    let tick_count = ticks as u64;
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
                let threshold = volley_core::selectivity_threshold(&trace, selectivity_percent)
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
                cluster,
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

    // Merge shard results in shard order; shards hold contiguous
    // ascending VM/server ranges, so this reproduces the sequential
    // engine's merge order exactly.
    let baseline_per_vm = ticks as u64;
    let mut accuracy: Option<AccuracyReport> = None;
    let mut telemetry: Vec<ServerTelemetry> = Vec::with_capacity(cluster.servers() as usize);
    for worker in workers {
        for (local, (log, trace)) in worker.logs.iter().zip(&worker.traces).enumerate() {
            let truth = GroundTruth::from_trace(trace, worker.bank.threshold(local));
            let report = log.score(&truth, baseline_per_vm);
            accuracy = Some(match accuracy {
                Some(acc) => acc.merged(&report),
                None => report,
            });
        }
        telemetry.extend(worker.telemetry);
    }
    let accuracy = accuracy.expect("at least one VM");
    if let Some(obs) = obs {
        // One counter path: the per-server recorders already counted every
        // sampling operation; the bridge forwards the delta to the
        // registry instead of keeping a second tally.
        ObsBridge::new(obs.registry()).publish(&telemetry);
    }
    let mut cpu_values = Vec::new();
    for t in &telemetry {
        cpu_values.extend(t.utilization_values(horizon));
    }
    let cpu = SeriesSummary::compute(&cpu_values);
    (
        ScenarioReport {
            accuracy,
            cpu,
            cpu_values,
            sampling_ops: accuracy.sampling_ops,
        },
        stats,
    )
}

impl NetworkScenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: NetworkScenarioConfig) -> Self {
        NetworkScenario { config }
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkScenarioConfig {
        &self.config
    }

    /// Runs the scenario to completion and reports cost, accuracy and the
    /// Dom0 CPU utilization distribution.
    pub fn run(&self) -> ScenarioReport {
        self.run_inner(None, 1).0
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine. Results are bit-identical to [`run`](Self::run) for every
    /// thread count.
    pub fn run_parallel(&self, threads: usize) -> ScenarioReport {
        self.run_inner(None, threads).0
    }

    /// Like [`run_parallel`](Self::run_parallel), but also returns the
    /// engine's execution counters (for report envelopes). The
    /// [`ScenarioReport`] half is bit-identical for every thread count;
    /// [`EngineStats::steals`] and [`EngineStats::max_queue_depth`]
    /// describe the particular execution.
    pub fn run_parallel_detailed(
        &self,
        threads: usize,
        obs: Option<&Obs>,
    ) -> (ScenarioReport, EngineStats) {
        self.run_inner(obs, threads)
    }

    /// Like [`run`](Self::run), but also publishes the fleet's sampling
    /// operations into `obs`'s registry (`volley_sim_sampling_ops_total`).
    pub fn run_with_obs(&self, obs: &Obs) -> ScenarioReport {
        self.run_inner(Some(obs), 1).0
    }

    /// [`run_parallel`](Self::run_parallel) with observability: engine
    /// epoch/steal/merge counters and sampling ops land in `obs`.
    pub fn run_parallel_with_obs(&self, threads: usize, obs: &Obs) -> ScenarioReport {
        self.run_inner(Some(obs), threads).0
    }

    fn run_inner(&self, obs: Option<&Obs>, threads: usize) -> (ScenarioReport, EngineStats) {
        let cfg = &self.config;
        let total_vms = cfg.cluster.total_vms() as usize;
        let mut netflow = NetflowConfig::builder()
            .seed(cfg.seed)
            .vms(total_vms)
            .base_flows_per_window(cfg.flows_per_window)
            .diurnal(cfg.diurnal);
        for attack in &cfg.attacks {
            netflow = netflow.attack(*attack);
        }
        let netflow = netflow.build();
        let adaptation = AdaptationConfig::builder()
            .error_allowance(cfg.error_allowance)
            .max_interval(cfg.max_interval)
            .patience(cfg.patience)
            .build()
            .expect("scenario adaptation parameters are valid");
        let ticks = cfg.ticks;
        // Traces are generated shard-locally inside the engine's parallel
        // region (each VM has an independent stream), so generation —
        // the dominant cost at large fleets — scales with threads too.
        let source = move |vm: VmId| {
            let traffic = netflow.generate_vm(vm.0 as usize, ticks);
            (traffic.rho, Some(traffic.packets))
        };
        run_fleet(
            cfg.cluster,
            SimDuration::from_secs_f64(cfg.window_secs),
            ticks,
            adaptation,
            cfg.selectivity_percent,
            cfg.cost,
            &source,
            obs,
            threads,
        )
    }
}

/// Configuration of the system-metrics monitoring fleet scenario: one
/// OS-metric task per VM, sampled by agent queries (flat cost) at the
/// paper's 5-second default interval (§V-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemScenarioConfig {
    /// Testbed topology.
    pub cluster: ClusterConfig,
    /// Error allowance `err` for every monitor.
    pub error_allowance: f64,
    /// Alert selectivity `k` in percent.
    pub selectivity_percent: f64,
    /// Simulation length in default sampling intervals (5-second ticks).
    pub ticks: usize,
    /// Random seed for the metrics generator.
    pub seed: u64,
    /// Maximum sampling interval `I_m`.
    pub max_interval: u32,
    /// Adaptation patience `p`.
    pub patience: u32,
    /// The default sampling interval in seconds (paper: 5 s).
    pub sample_interval_secs: f64,
    /// Dom0 cost model (default: flat agent query).
    pub cost: Dom0CostModel,
}

impl Default for SystemScenarioConfig {
    fn default() -> Self {
        SystemScenarioConfig {
            cluster: ClusterConfig::paper(),
            error_allowance: 0.01,
            selectivity_percent: 1.0,
            ticks: 2000,
            seed: 0,
            max_interval: 16,
            patience: 20,
            sample_interval_secs: 5.0,
            cost: Dom0CostModel::agent_query(),
        }
    }
}

/// The system-metrics monitoring fleet scenario: each VM's monitor
/// adaptively samples one OS metric (cycling through the 66-metric
/// catalog) via agent queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemScenario {
    config: SystemScenarioConfig,
}

impl SystemScenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: SystemScenarioConfig) -> Self {
        SystemScenario { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemScenarioConfig {
        &self.config
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> ScenarioReport {
        self.run_parallel(1)
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine. Results are bit-identical to [`run`](Self::run) for every
    /// thread count.
    pub fn run_parallel(&self, threads: usize) -> ScenarioReport {
        self.run_parallel_detailed(threads, None).0
    }

    /// Like [`run_parallel`](Self::run_parallel), but also returns the
    /// engine's execution counters (for report envelopes).
    pub fn run_parallel_detailed(
        &self,
        threads: usize,
        obs: Option<&Obs>,
    ) -> (ScenarioReport, EngineStats) {
        let cfg = &self.config;
        let generator = volley_traces::sysmetrics::SystemMetricsGenerator::new(cfg.seed)
            .with_diurnal_period((cfg.ticks as u64).min(17_280));
        let adaptation = AdaptationConfig::builder()
            .error_allowance(cfg.error_allowance)
            .max_interval(cfg.max_interval)
            .patience(cfg.patience)
            .build()
            .expect("scenario adaptation parameters are valid");
        let ticks = cfg.ticks;
        let source = move |vm: VmId| {
            let vm = vm.0 as usize;
            (generator.trace(vm, vm % 66, ticks), None)
        };
        run_fleet(
            cfg.cluster,
            SimDuration::from_secs_f64(cfg.sample_interval_secs),
            ticks,
            adaptation,
            cfg.selectivity_percent,
            cfg.cost,
            &source,
            obs,
            threads,
        )
    }
}

/// Configuration of the application-level monitoring fleet scenario: one
/// per-object access-rate task per VM at the paper's 1-second default
/// interval (§V-A), sampled by log-analysis queries (flat cost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationScenarioConfig {
    /// Testbed topology.
    pub cluster: ClusterConfig,
    /// Error allowance `err` for every monitor.
    pub error_allowance: f64,
    /// Alert selectivity `k` in percent.
    pub selectivity_percent: f64,
    /// Simulation length in default sampling intervals (1-second ticks).
    pub ticks: usize,
    /// Random seed for the HTTP workload generator.
    pub seed: u64,
    /// Maximum sampling interval `I_m`.
    pub max_interval: u32,
    /// Adaptation patience `p`.
    pub patience: u32,
    /// The default sampling interval in seconds (paper: 1 s).
    pub sample_interval_secs: f64,
    /// Dom0 cost model (default: flat agent query).
    pub cost: Dom0CostModel,
}

impl Default for ApplicationScenarioConfig {
    fn default() -> Self {
        ApplicationScenarioConfig {
            cluster: ClusterConfig::paper(),
            error_allowance: 0.01,
            selectivity_percent: 1.0,
            ticks: 2000,
            seed: 0,
            max_interval: 16,
            patience: 20,
            sample_interval_secs: 1.0,
            cost: Dom0CostModel::agent_query(),
        }
    }
}

/// The application-level monitoring fleet scenario: each VM's monitor
/// adaptively samples one web object's access rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationScenario {
    config: ApplicationScenarioConfig,
}

impl ApplicationScenario {
    /// Creates a scenario from its configuration.
    pub fn from_config(config: ApplicationScenarioConfig) -> Self {
        ApplicationScenario { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ApplicationScenarioConfig {
        &self.config
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> ScenarioReport {
        self.run_parallel(1)
    }

    /// Runs the scenario on `threads` worker threads over the sharded
    /// engine. Results are bit-identical to [`run`](Self::run) for every
    /// thread count.
    pub fn run_parallel(&self, threads: usize) -> ScenarioReport {
        self.run_parallel_detailed(threads, None).0
    }

    /// Like [`run_parallel`](Self::run_parallel), but also returns the
    /// engine's execution counters (for report envelopes).
    pub fn run_parallel_detailed(
        &self,
        threads: usize,
        obs: Option<&Obs>,
    ) -> (ScenarioReport, EngineStats) {
        let cfg = &self.config;
        let total_vms = cfg.cluster.total_vms() as usize;
        // The HTTP workload's objects are correlated (shared flash
        // crowds), so it is generated once up front and shared read-only
        // across shards.
        let workload = volley_traces::http::HttpWorkloadConfig::builder()
            .seed(cfg.seed)
            .objects(total_vms)
            .requests_per_tick(1000.0 * total_vms as f64)
            .diurnal(volley_traces::DiurnalPattern::new(
                (cfg.ticks as u64).min(86_400),
                0.6,
            ))
            .flash_crowd_duration((cfg.ticks as u64 / 20).max(10))
            .build()
            .generate(cfg.ticks);
        let adaptation = AdaptationConfig::builder()
            .error_allowance(cfg.error_allowance)
            .max_interval(cfg.max_interval)
            .patience(cfg.patience)
            .build()
            .expect("scenario adaptation parameters are valid");
        let source = move |vm: VmId| (workload.object_rate(vm.0 as usize).to_vec(), None);
        run_fleet(
            cfg.cluster,
            SimDuration::from_secs_f64(cfg.sample_interval_secs),
            cfg.ticks,
            adaptation,
            cfg.selectivity_percent,
            cfg.cost,
            &source,
            obs,
            threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(err: f64) -> NetworkScenarioConfig {
        NetworkScenarioConfig {
            cluster: ClusterConfig::new(2, 4, 1),
            error_allowance: err,
            selectivity_percent: 1.0,
            ticks: 600,
            seed: 42,
            max_interval: 8,
            patience: 5,
            ..NetworkScenarioConfig::default()
        }
    }

    #[test]
    fn periodic_baseline_samples_every_window() {
        let report = NetworkScenario::from_config(small(0.0)).run();
        // 8 VMs × 600 ticks.
        assert_eq!(report.sampling_ops, 8 * 600);
        assert!((report.cost_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(report.accuracy.misdetection_rate(), 0.0);
    }

    #[test]
    fn adaptation_reduces_cost() {
        let periodic = NetworkScenario::from_config(small(0.0)).run();
        let adaptive = NetworkScenario::from_config(small(0.05)).run();
        assert!(
            adaptive.sampling_ops < periodic.sampling_ops / 2,
            "adaptive {} vs periodic {}",
            adaptive.sampling_ops,
            periodic.sampling_ops
        );
    }

    #[test]
    fn adaptation_reduces_cpu_utilization() {
        let periodic = NetworkScenario::from_config(small(0.0)).run();
        let adaptive = NetworkScenario::from_config(small(0.05)).run();
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
        let cfg = NetworkScenarioConfig {
            cluster: ClusterConfig::new(1, 40, 1),
            error_allowance: 0.0,
            ticks: 200,
            seed: 7,
            ..NetworkScenarioConfig::default()
        };
        let report = NetworkScenario::from_config(cfg).run();
        let cpu = report.cpu.expect("cpu summary");
        assert!(
            (0.15..=0.40).contains(&cpu.mean),
            "mean Dom0 utilization {} outside plausible band",
            cpu.mean
        );
    }

    #[test]
    fn misdetection_stays_reasonable() {
        let report = NetworkScenario::from_config(small(0.02)).run();
        // The Chebyshev adaptation is conservative; actual misses should
        // be comfortably below 10x the allowance even on short traces.
        assert!(report.accuracy.misdetection_rate() < 0.2);
    }

    #[test]
    fn deterministic_runs() {
        let a = NetworkScenario::from_config(small(0.01)).run();
        let b = NetworkScenario::from_config(small(0.01)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn obs_counter_matches_report_sampling_ops() {
        let obs = Obs::new(true);
        let report = NetworkScenario::from_config(small(0.01)).run_with_obs(&obs);
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
        let report = NetworkScenario::from_config(small(0.01)).run();
        // 2 servers × 600 windows.
        assert_eq!(report.cpu_values.len(), 2 * 600);
    }

    fn small_system(err: f64) -> SystemScenarioConfig {
        SystemScenarioConfig {
            cluster: ClusterConfig::new(2, 6, 1),
            error_allowance: err,
            ticks: 1200,
            seed: 9,
            patience: 5,
            ..SystemScenarioConfig::default()
        }
    }

    #[test]
    fn system_scenario_periodic_baseline() {
        let report = SystemScenario::from_config(small_system(0.0)).run();
        assert_eq!(report.sampling_ops, 12 * 1200);
        assert_eq!(report.accuracy.misdetection_rate(), 0.0);
    }

    #[test]
    fn system_scenario_adaptation_saves_cost() {
        let periodic = SystemScenario::from_config(small_system(0.0)).run();
        let adaptive = SystemScenario::from_config(small_system(0.05)).run();
        assert!(
            adaptive.sampling_ops < periodic.sampling_ops,
            "adaptive {} vs periodic {}",
            adaptive.sampling_ops,
            periodic.sampling_ops
        );
        let p = periodic.cpu.expect("cpu");
        let a = adaptive.cpu.expect("cpu");
        assert!(a.mean < p.mean);
    }

    #[test]
    fn system_scenario_agent_queries_are_cheap() {
        // Agent queries must burden Dom0 far less than packet inspection.
        let system = SystemScenario::from_config(small_system(0.0)).run();
        let network = NetworkScenario::from_config(NetworkScenarioConfig {
            cluster: ClusterConfig::new(2, 6, 1),
            error_allowance: 0.0,
            ticks: 1200,
            seed: 9,
            ..NetworkScenarioConfig::default()
        })
        .run();
        let s = system.cpu.expect("cpu");
        let n = network.cpu.expect("cpu");
        assert!(
            s.mean < n.mean / 5.0,
            "system {} vs network {}",
            s.mean,
            n.mean
        );
    }

    #[test]
    fn system_scenario_deterministic() {
        let a = SystemScenario::from_config(small_system(0.01)).run();
        let b = SystemScenario::from_config(small_system(0.01)).run();
        assert_eq!(a, b);
    }

    fn small_application(err: f64) -> ApplicationScenarioConfig {
        ApplicationScenarioConfig {
            cluster: ClusterConfig::new(2, 5, 1),
            error_allowance: err,
            ticks: 1500,
            seed: 4,
            patience: 5,
            ..ApplicationScenarioConfig::default()
        }
    }

    #[test]
    fn application_scenario_periodic_baseline() {
        let report = ApplicationScenario::from_config(small_application(0.0)).run();
        assert_eq!(report.sampling_ops, 10 * 1500);
        assert_eq!(report.accuracy.misdetection_rate(), 0.0);
    }

    #[test]
    fn application_scenario_adaptation_saves_cost() {
        let periodic = ApplicationScenario::from_config(small_application(0.0)).run();
        let adaptive = ApplicationScenario::from_config(small_application(0.05)).run();
        assert!(
            adaptive.sampling_ops < periodic.sampling_ops,
            "adaptive {} vs periodic {}",
            adaptive.sampling_ops,
            periodic.sampling_ops
        );
    }

    #[test]
    fn application_scenario_deterministic() {
        let a = ApplicationScenario::from_config(small_application(0.01)).run();
        let b = ApplicationScenario::from_config(small_application(0.01)).run();
        assert_eq!(a, b);
    }
}
