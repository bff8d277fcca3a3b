//! # volley-core
//!
//! A from-scratch implementation of **Volley**, the violation-likelihood
//! based adaptive state-monitoring approach of *Meng, Iyengar, Rouvellou and
//! Liu, "Volley: Violation Likelihood Based State Monitoring for
//! Datacenters", ICDCS 2013*.
//!
//! A *state monitoring task* watches a metric value (or an aggregate of
//! values observed on distributed nodes) and raises a **state alert**
//! whenever the value exceeds a threshold `T`. Obtaining one value — a
//! **sampling operation** — is expensive: it may involve deep packet
//! inspection, log analysis or a metered cloud-monitoring API call. Volley
//! replaces fixed-interval periodic sampling with a dynamic interval driven
//! by the estimated probability that a violation would be missed before the
//! next sample, keeping the *mis-detection rate* below a user-specified
//! error allowance while minimizing the number of sampling operations.
//!
//! The crate is organized to mirror the paper:
//!
//! - [`stats`] — online (Welford-style) statistics of inter-sample deltas
//!   with the paper's windowed restart (§III-B).
//! - [`likelihood`] — the one-sided-Chebyshev violation-likelihood bound and
//!   the mis-detection-rate bound `β(I)` (§III-A, Inequalities 1–3).
//! - [`adaptation`] — the monitor-level sampling-interval controller
//!   (§III-B, Figure 2).
//! - [`allocation`] — task-level error-allowance allocation across monitors,
//!   both the `even` baseline and the iterative yield-based `adaptive`
//!   scheme (§IV-B, Figure 3).
//! - [`coordinator`] — the distributed task: local thresholds, local
//!   violations and global polls (§II-A, §IV-A).
//! - [`correlation`] — multi-task state-correlation based monitoring
//!   (§II-B; details deferred by the paper to its technical report).
//! - [`accuracy`] — ground-truth cost/accuracy accounting used throughout
//!   the evaluation (§V).
//!
//! ## Quickstart
//!
//! Adaptively monitor a single metric stream with a 1%-mis-detection
//! allowance:
//!
//! ```
//! use volley_core::{AdaptationConfig, AdaptiveSampler};
//!
//! # fn main() -> Result<(), volley_core::VolleyError> {
//! let config = AdaptationConfig::builder()
//!     .error_allowance(0.01)
//!     .max_interval(8)
//!     .build()?;
//! let mut sampler = AdaptiveSampler::new(config, 100.0); // threshold T = 100
//!
//! let mut tick = 0u64;
//! while tick < 1000 {
//!     let value = 50.0 + (tick as f64 * 0.01); // the sampled metric value
//!     let outcome = sampler.observe(tick, value);
//!     if outcome.violation {
//!         println!("state alert at tick {tick}");
//!     }
//!     tick += u64::from(outcome.next_interval.get());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod adaptation;
pub mod allocation;
pub mod bank;
pub mod coordinator;
pub mod correlation;
pub mod error;
pub mod hash;
pub mod likelihood;
pub mod sampler;
pub mod snapshot;
pub mod stats;
pub mod task;
pub mod threshold;
pub mod time;
pub mod vfs;
pub mod window;

pub use accuracy::{AccuracyReport, DetectionLog, GroundTruth};
pub use adaptation::{AdaptationConfig, AdaptiveSampler, Observation};
pub use allocation::{AllocationConfig, AllowanceCostMode, ErrorAllocator, YieldMode};
pub use bank::SamplerBank;
pub use coordinator::{Coordinator, DistributedTask, GlobalPollOutcome, TaskStepOutcome};
pub use correlation::{CorrelationConfig, CorrelationDetector, FollowerGate, MonitoringPlan};
pub use error::VolleyError;
pub use likelihood::{exceed_probability_bound, misdetection_bound, BoundKind};
pub use sampler::{PeriodicSampler, ReactiveSampler, SamplingPolicy};
pub use snapshot::{DeltaSnapshot, SamplerSnapshot, StatsSnapshot};
pub use stats::{DeltaTracker, OnlineStats, StatsKind};
pub use task::{MonitorId, MonitorSpec, TaskId, TaskSpec};
pub use threshold::{selectivity_threshold, ThresholdSplit};
pub use time::{Interval, Tick};
pub use vfs::{
    CircuitBreaker, FaultFs, IoFaultPlan, IoFaultStats, SinkHealth, StdFs, Vfs, VfsFile,
};
pub use window::{SlidingWindow, WindowedSampler};
