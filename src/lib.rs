//! # volley
//!
//! Facade crate of the **Volley** reproduction — *"Volley: Violation
//! Likelihood Based State Monitoring for Datacenters"* (ICDCS 2013).
//! It re-exports the workspace's eight libraries under one roof:
//!
//! - [`volley_core`] — the violation-likelihood adaptation
//!   algorithms, distributed coordination and state correlation;
//! - [`volley_traces`] — synthetic datacenter workloads standing
//!   in for the paper's Internet2 / ICAC'09 / WorldCup'98 datasets;
//! - [`volley_sim`] — the discrete-event datacenter simulator with
//!   the Dom0 CPU cost model;
//! - [`volley_runtime`] — the live monitor/coordinator runtime: the
//!   §IV protocol as a sans-IO coordinator machine stepped with its
//!   monitors on the driver's thread, or over sockets to agent processes;
//! - [`volley_obs`] — the self-monitoring observability subsystem
//!   (metrics registry, span tracing, exposition);
//! - [`volley_store`] — the embedded time-series sample store with
//!   record/replay and offline backtesting;
//! - [`volley_analyze`] — offline analysis jobs over store recordings
//!   (single-pass, bounded-memory folds such as the §II.B correlation
//!   matrix);
//! - [`volley_serve`] — the embedded HTTP serving plane (Prometheus
//!   scrape, range-query API and streaming alert subscriptions).
//!
//! The most common entry points are re-exported at the crate root:
//!
//! ```
//! use volley::{AdaptationConfig, AdaptiveSampler};
//!
//! # fn main() -> Result<(), volley::VolleyError> {
//! let config = AdaptationConfig::builder().error_allowance(0.01).build()?;
//! let mut sampler = AdaptiveSampler::new(config, 100.0);
//! let outcome = sampler.observe(0, 42.0);
//! assert!(!outcome.violation);
//! # Ok(())
//! # }
//! ```
//!
//! Each entry point has its own configuration: [`AdaptationConfig`] for
//! one sampler, [`core::task::TaskSpec`] for a distributed task (and a
//! [`TaskRunner`]), and [`ScenarioConfig`] for a simulated fleet run by
//! [`Scenario`]. [`prelude`] imports all of them.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-module map and `EXPERIMENTS.md` for the reproduced figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prelude;

pub use volley_analyze as analyze;
pub use volley_core as core;
pub use volley_obs as obs;
pub use volley_runtime as runtime;
pub use volley_serve as serve;
pub use volley_sim as sim;
pub use volley_store as store;
pub use volley_traces as traces;

pub use volley_core::{
    exceed_probability_bound, misdetection_bound, selectivity_threshold, AccuracyReport,
    AdaptationConfig, AdaptiveSampler, CorrelationConfig, CorrelationDetector, DetectionLog,
    DistributedTask, ErrorAllocator, GroundTruth, Interval, MonitoringPlan, Observation,
    OnlineStats, PeriodicSampler, SamplingPolicy, ThresholdSplit, Tick, VolleyError,
};
pub use volley_obs::Obs;
pub use volley_runtime::TaskRunner;
pub use volley_sim::{Scenario, ScenarioConfig};
pub use volley_store::{Backtest, SampleRecorder, ScanRange, Store};
pub use volley_traces::{
    DiurnalPattern, HttpWorkloadConfig, NetflowConfig, SystemMetricsGenerator, TraceFamily,
};
