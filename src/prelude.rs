//! The one-stop import for Volley programs.
//!
//! `use volley::prelude::*;` brings in [`VolleyConfig`] — the unified
//! builder that replaces the scattered `TaskSpec::builder` /
//! `*ScenarioConfig` / `FleetTask::new` entry points — together with
//! the types its terminal methods return and the handful of helpers
//! (trace generators, thresholds, observability) nearly every example
//! and integration test reaches for.
//!
//! ```
//! use volley::prelude::*;
//!
//! # fn main() -> Result<(), VolleyError> {
//! let report = VolleyConfig::new()
//!     .cluster(ClusterConfig::new(2, 4, 1))
//!     .ticks(100)
//!     .network_scenario()
//!     .run();
//! assert!(report.sampling_ops > 0);
//! # Ok(())
//! # }
//! ```

pub use crate::config::VolleyConfig;

// Core: adaptation, accuracy accounting, coordination, errors.
pub use volley_core::task::TaskSpec;
pub use volley_core::{
    selectivity_threshold, AccuracyReport, AdaptationConfig, AdaptiveSampler, DetectionLog,
    GroundTruth, PeriodicSampler, SamplingPolicy, Tick, VolleyError,
};

// Simulation: topology, scenarios, and the sharded engine.
pub use volley_sim::{
    ApplicationScenario, ApplicationScenarioConfig, ClusterConfig, DistributedScenario,
    DistributedScenarioConfig, DistributedScenarioReport, EngineConfig, EngineStats,
    NetworkScenario, NetworkScenarioConfig, ScenarioReport, ServerId, ShardId, ShardPlan,
    ShardedEngine, SimDuration, SimTime, SystemScenario, SystemScenarioConfig, VmId,
};

// Runtime: the live monitor/coordinator runtime and fleet execution.
pub use volley_runtime::{FleetRunner, FleetSummary, FleetTask, RuntimeReport, TaskRunner};

// Traces: synthetic workloads standing in for the paper's datasets.
pub use volley_traces::{
    DiurnalPattern, HttpWorkloadConfig, NetflowConfig, SystemMetricsGenerator,
};

// Observability: the self-monitoring subsystem.
pub use volley_obs::Obs;

// Store: sample recording, queries and offline backtesting.
pub use volley_store::{
    Backtest, Record, RecordKind, ReplayOutcome, SampleRecorder, ScanRange, Store, TaskMeta,
};
