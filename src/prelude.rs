//! The one-stop import for Volley programs.
//!
//! `use volley::prelude::*;` brings in each entry point's configuration
//! — [`AdaptationConfig`] for one sampler, [`TaskSpec`] for a
//! distributed task, [`ScenarioConfig`] for a simulated fleet — together
//! with the types they build and the handful of helpers (trace
//! generators, thresholds, observability) nearly every example and
//! integration test reaches for.
//!
//! ```
//! use volley::prelude::*;
//!
//! let report = Scenario::from_config(ScenarioConfig {
//!     family: TraceFamily::System,
//!     cluster: ClusterConfig::new(2, 4, 1),
//!     ticks: 100,
//!     ..ScenarioConfig::default()
//! })
//! .run(1);
//! assert!(report.sampling_ops > 0);
//! ```

// Core: adaptation, accuracy accounting, coordination, errors.
pub use volley_core::task::TaskSpec;
pub use volley_core::{
    selectivity_threshold, AccuracyReport, AdaptationConfig, AdaptiveSampler, DetectionLog,
    GroundTruth, PeriodicSampler, SamplingPolicy, Tick, VolleyError,
};

// Simulation: topology, scenarios, and the sharded engine.
pub use volley_sim::{
    ClusterConfig, DistributedScenario, DistributedScenarioConfig, DistributedScenarioReport,
    EngineConfig, EngineStats, Scenario, ScenarioConfig, ScenarioReport, ServerId, ShardId,
    ShardPlan, ShardedEngine, SimDuration, SimTime, VmId,
};

// Runtime: the live monitor/coordinator runtime.
pub use volley_runtime::{RuntimeReport, TaskRunner};

// Traces: synthetic workloads standing in for the paper's datasets.
pub use volley_traces::{
    DiurnalPattern, HttpWorkloadConfig, NetflowConfig, SystemMetricsGenerator, TraceFamily,
};

// Observability: the self-monitoring subsystem.
pub use volley_obs::Obs;

// Store: sample recording, queries and offline backtesting.
pub use volley_store::{
    Backtest, Record, RecordKind, ReplayOutcome, SampleRecorder, ScanRange, Store, TaskMeta,
};
