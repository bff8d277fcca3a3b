//! The unified configuration entry point.
//!
//! Three PRs of growth left the workspace with three overlapping ways to
//! describe "a Volley monitoring job": [`TaskSpec`] (the core engine's
//! per-task spec), the `*ScenarioConfig` structs of `volley-sim`, and
//! [`FleetTask`] (the runtime's submission unit). They share most of
//! their knobs — error allowance, max interval, patience, selectivity,
//! seed — but each spells them differently. [`VolleyConfig`] is the one
//! place to set those knobs; terminal methods convert it into whichever
//! entry point a program needs. The old scenario constructors
//! (`NetworkScenario::new` and friends) shipped as `#[deprecated]` shims
//! for one release and have since been removed; migrate to
//! [`VolleyConfig`]. A [`FleetTask`] is a configured [`TaskRunner`] plus
//! its traces.
//!
//! ```
//! use volley::prelude::*;
//!
//! # fn main() -> Result<(), volley::VolleyError> {
//! let config = VolleyConfig::new()
//!     .error_allowance(0.02)
//!     .max_interval(8)
//!     .cluster(ClusterConfig::new(2, 4, 1))
//!     .ticks(200)
//!     .seed(7);
//!
//! // Same knobs, three entry points:
//! let sampler: AdaptiveSampler = config.sampler(100.0)?;      // core
//! let report = config.network_scenario().run();               // sim
//! let spec = config.task_spec(500.0, 3)?;                     // runtime
//! # let _ = (sampler, report, spec);
//! # Ok(())
//! # }
//! ```

use volley_core::task::TaskSpec;
use volley_core::{AdaptationConfig, AdaptiveSampler, VolleyError};
use volley_runtime::{FleetTask, TaskRunner};
use volley_sim::{
    ApplicationScenario, ApplicationScenarioConfig, ClusterConfig, DistributedScenario,
    DistributedScenarioConfig, NetworkScenario, NetworkScenarioConfig, SystemScenario,
    SystemScenarioConfig,
};

/// The unified builder for every Volley entry point (see module docs).
///
/// All setters are chainable and infallible; validation happens in the
/// terminal methods ([`adaptation`](Self::adaptation),
/// [`task_spec`](Self::task_spec), …), which surface the same
/// [`VolleyError`]s the underlying builders raise.
#[derive(Debug, Clone, PartialEq)]
pub struct VolleyConfig {
    error_allowance: f64,
    max_interval: u32,
    patience: u32,
    slack_ratio: Option<f64>,
    warmup_samples: Option<u32>,
    selectivity_percent: f64,
    cluster: ClusterConfig,
    ticks: usize,
    seed: u64,
    threads: usize,
}

impl Default for VolleyConfig {
    fn default() -> Self {
        VolleyConfig {
            error_allowance: 0.01,
            max_interval: 16,
            patience: 20,
            slack_ratio: None,
            warmup_samples: None,
            selectivity_percent: 1.0,
            cluster: ClusterConfig::paper(),
            ticks: 2000,
            seed: 0,
            threads: 1,
        }
    }
}

impl VolleyConfig {
    /// Creates a configuration with the paper's defaults: `err = 0.01`,
    /// `I_m = 16`, `p = 20`, `k = 1 %`, the 20×40 testbed, 2000 ticks.
    pub fn new() -> Self {
        VolleyConfig::default()
    }

    /// Error allowance `err` — the tolerated mis-detection fraction
    /// (0 = periodic sampling).
    #[must_use]
    pub fn error_allowance(mut self, err: f64) -> Self {
        self.error_allowance = err;
        self
    }

    /// Maximum sampling interval `I_m` in ticks.
    #[must_use]
    pub fn max_interval(mut self, ticks: u32) -> Self {
        self.max_interval = ticks;
        self
    }

    /// Adaptation patience `p` (ticks of quiet before widening).
    #[must_use]
    pub fn patience(mut self, p: u32) -> Self {
        self.patience = p;
        self
    }

    /// Allowance slack ratio `γ` (defaults to the core's own default).
    #[must_use]
    pub fn slack_ratio(mut self, gamma: f64) -> Self {
        self.slack_ratio = Some(gamma);
        self
    }

    /// Warm-up samples before adaptation engages (defaults to the
    /// core's own default).
    #[must_use]
    pub fn warmup_samples(mut self, n: u32) -> Self {
        self.warmup_samples = Some(n);
        self
    }

    /// Alert selectivity `k` in percent (thresholds derive from the
    /// `(100 − k)`-th percentile of each trace).
    #[must_use]
    pub fn selectivity_percent(mut self, k: f64) -> Self {
        self.selectivity_percent = k;
        self
    }

    /// Simulated testbed topology.
    #[must_use]
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Simulation length in default sampling intervals.
    #[must_use]
    pub fn ticks(mut self, ticks: usize) -> Self {
        self.ticks = ticks;
        self
    }

    /// Random seed for trace generators.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the sharded simulation engine (see
    /// `volley_sim::shard`). Results never depend on this value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured thread count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The configured selectivity `k` in percent.
    pub fn selectivity(&self) -> f64 {
        self.selectivity_percent
    }

    // --- terminal conversions -------------------------------------------

    /// Builds the core adaptation configuration.
    ///
    /// # Errors
    ///
    /// Propagates the core builder's validation errors (allowance or
    /// interval out of range).
    pub fn adaptation(&self) -> Result<AdaptationConfig, VolleyError> {
        let mut builder = AdaptationConfig::builder()
            .error_allowance(self.error_allowance)
            .max_interval(self.max_interval)
            .patience(self.patience);
        if let Some(gamma) = self.slack_ratio {
            builder = builder.slack_ratio(gamma);
        }
        if let Some(n) = self.warmup_samples {
            builder = builder.warmup_samples(n);
        }
        builder.build()
    }

    /// Builds a single adaptive sampler against `threshold`.
    ///
    /// # Errors
    ///
    /// Propagates [`adaptation`](Self::adaptation) errors.
    pub fn sampler(&self, threshold: f64) -> Result<AdaptiveSampler, VolleyError> {
        Ok(AdaptiveSampler::new(self.adaptation()?, threshold))
    }

    /// Builds a distributed-task specification with `monitors` members
    /// sharing `global_threshold` (replacing direct
    /// `TaskSpec::builder` chains for the common case).
    ///
    /// # Errors
    ///
    /// Propagates the spec builder's validation errors.
    pub fn task_spec(
        &self,
        global_threshold: f64,
        monitors: usize,
    ) -> Result<TaskSpec, VolleyError> {
        let mut builder = TaskSpec::builder(global_threshold)
            .monitors(monitors)
            .error_allowance(self.error_allowance)
            .max_interval(self.max_interval)
            .patience(self.patience);
        if let Some(gamma) = self.slack_ratio {
            builder = builder.slack_ratio(gamma);
        }
        if let Some(n) = self.warmup_samples {
            builder = builder.warmup_samples(n);
        }
        builder.build()
    }

    /// Builds a fleet submission from this configuration's adaptation
    /// knobs: a default [`TaskRunner`] for one monitor per trace, which
    /// the caller may configure further through `runner`.
    ///
    /// # Errors
    ///
    /// Propagates [`task_spec`](Self::task_spec) errors.
    pub fn fleet_task(
        &self,
        global_threshold: f64,
        traces: Vec<Vec<f64>>,
    ) -> Result<FleetTask, VolleyError> {
        let spec = self.task_spec(global_threshold, traces.len())?;
        let runner = TaskRunner::new(&spec)?;
        Ok(FleetTask { runner, traces })
    }

    /// The network-monitoring (DPI cost) scenario configuration.
    pub fn network_scenario_config(&self) -> NetworkScenarioConfig {
        NetworkScenarioConfig {
            cluster: self.cluster,
            error_allowance: self.error_allowance,
            selectivity_percent: self.selectivity_percent,
            ticks: self.ticks,
            seed: self.seed,
            max_interval: self.max_interval,
            patience: self.patience,
            ..NetworkScenarioConfig::default()
        }
    }

    /// The network-monitoring scenario (paper §V-A, Figure 6). Run it
    /// with `run()` or `run_parallel(self.thread_count())`.
    pub fn network_scenario(&self) -> NetworkScenario {
        NetworkScenario::from_config(self.network_scenario_config())
    }

    /// The system-metrics (agent query cost) scenario configuration.
    pub fn system_scenario_config(&self) -> SystemScenarioConfig {
        SystemScenarioConfig {
            cluster: self.cluster,
            error_allowance: self.error_allowance,
            selectivity_percent: self.selectivity_percent,
            ticks: self.ticks,
            seed: self.seed,
            max_interval: self.max_interval,
            patience: self.patience,
            ..SystemScenarioConfig::default()
        }
    }

    /// The system-metrics monitoring scenario.
    pub fn system_scenario(&self) -> SystemScenario {
        SystemScenario::from_config(self.system_scenario_config())
    }

    /// The application-level (access rate) scenario configuration.
    pub fn application_scenario_config(&self) -> ApplicationScenarioConfig {
        ApplicationScenarioConfig {
            cluster: self.cluster,
            error_allowance: self.error_allowance,
            selectivity_percent: self.selectivity_percent,
            ticks: self.ticks,
            seed: self.seed,
            max_interval: self.max_interval,
            patience: self.patience,
            ..ApplicationScenarioConfig::default()
        }
    }

    /// The application-level monitoring scenario.
    pub fn application_scenario(&self) -> ApplicationScenario {
        ApplicationScenario::from_config(self.application_scenario_config())
    }

    /// The distributed-tasks scenario configuration with `task_size`
    /// monitors per task.
    pub fn distributed_scenario_config(&self, task_size: usize) -> DistributedScenarioConfig {
        DistributedScenarioConfig {
            cluster: self.cluster,
            task_size,
            error_allowance: self.error_allowance,
            selectivity_percent: self.selectivity_percent,
            ticks: self.ticks,
            seed: self.seed,
            max_interval: self.max_interval,
            patience: self.patience,
            ..DistributedScenarioConfig::default()
        }
    }

    /// The distributed-tasks scenario (global polls, Figure 8).
    pub fn distributed_scenario(&self, task_size: usize) -> DistributedScenario {
        DistributedScenario::from_config(self.distributed_scenario_config(task_size))
    }

    /// The store-metadata stamp describing a run of this configuration —
    /// what `volley backtest` reads back to rebuild the production
    /// config.
    pub fn task_meta(&self, global_threshold: f64, monitors: usize) -> volley_store::TaskMeta {
        volley_store::TaskMeta {
            monitors,
            global_threshold,
            error_allowance: self.error_allowance,
            ticks: self.ticks as u64,
            seed: self.seed,
        }
    }

    /// Opens (or creates) a sample store at `dir`, stamps it with this
    /// configuration's [`task_meta`](Self::task_meta) and wraps it in a
    /// recorder ready for `TaskRunner::with_recorder`.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors; recording itself is best-effort and
    /// never fails the monitored run.
    pub fn recorder(
        &self,
        dir: impl Into<std::path::PathBuf>,
        global_threshold: f64,
        monitors: usize,
    ) -> std::io::Result<volley_store::SampleRecorder> {
        let store = volley_store::Store::open(dir)?;
        store.write_meta(&self.task_meta(global_threshold, monitors))?;
        Ok(volley_store::SampleRecorder::new(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = VolleyConfig::new();
        let adaptation = config.adaptation().unwrap();
        assert_eq!(adaptation.error_allowance(), 0.01);
        assert_eq!(adaptation.patience(), 20);
        assert_eq!(
            config.network_scenario_config().cluster,
            ClusterConfig::paper()
        );
    }

    #[test]
    fn one_config_feeds_all_three_entry_points() {
        let config = VolleyConfig::new()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(5)
            .cluster(ClusterConfig::new(2, 4, 1))
            .ticks(100)
            .seed(3);

        let sampler = config.sampler(50.0).unwrap();
        assert_eq!(sampler.error_allowance(), 0.05);

        let spec = config.task_spec(200.0, 4).unwrap();
        assert_eq!(spec.monitors().len(), 4);
        assert_eq!(spec.adaptation().error_allowance(), 0.05);

        let scenario = config.network_scenario();
        assert_eq!(scenario.config().error_allowance, 0.05);
        assert_eq!(scenario.config().ticks, 100);
        assert_eq!(scenario.config().seed, 3);

        let task = config.fleet_task(200.0, vec![vec![1.0; 10]; 4]).unwrap();
        let (_, summary) = volley_runtime::FleetRunner::new().run(vec![task]).unwrap();
        assert_eq!(summary.baseline_samples, 4 * 10);
    }

    #[test]
    fn scenario_config_equivalence_with_legacy_defaults() {
        // A default VolleyConfig must describe exactly the scenario the
        // legacy config structs default to.
        let config = VolleyConfig::new();
        assert_eq!(
            config.network_scenario_config(),
            NetworkScenarioConfig::default()
        );
        assert_eq!(
            config.system_scenario_config(),
            SystemScenarioConfig::default()
        );
        assert_eq!(
            config.application_scenario_config(),
            ApplicationScenarioConfig::default()
        );
        // The distributed scenario's legacy default allowance is the
        // paper's task-level 5 %; VolleyConfig keeps one allowance knob,
        // so matching it requires setting that knob explicitly.
        assert_eq!(
            config.error_allowance(0.05).distributed_scenario_config(5),
            DistributedScenarioConfig::default()
        );
    }

    #[test]
    fn validation_errors_surface() {
        assert!(VolleyConfig::new()
            .error_allowance(-1.0)
            .adaptation()
            .is_err());
        assert!(VolleyConfig::new()
            .error_allowance(2.0)
            .sampler(1.0)
            .is_err());
    }

    #[test]
    fn threads_clamp_to_one() {
        assert_eq!(VolleyConfig::new().threads(0).thread_count(), 1);
        assert_eq!(VolleyConfig::new().threads(8).thread_count(), 8);
    }

    #[test]
    fn recorder_terminal_stamps_backtest_metadata() {
        let dir =
            std::env::temp_dir().join(format!("volley-config-recorder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = VolleyConfig::new().error_allowance(0.02).ticks(300).seed(9);
        let recorder = config.recorder(&dir, 500.0, 5).unwrap();
        recorder.record_sample(0, 0, 1.0);
        recorder.flush();
        let meta = recorder
            .with_store(|store| store.read_meta())
            .unwrap()
            .expect("meta stamped");
        assert_eq!(meta, config.task_meta(500.0, 5));
        assert_eq!(meta.error_allowance, 0.02);
        assert_eq!(meta.ticks, 300);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
