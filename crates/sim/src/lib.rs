//! # volley-sim
//!
//! A discrete-event simulator of the virtualized datacenter testbed the
//! Volley paper evaluates on (§V-A, Figure 4): 20 physical servers, each
//! running a Xen-style privileged **Dom0** plus 40 user VMs (800 VMs
//! total). Monitors live in Dom0 — one per VM — because "only Dom0 can
//! observe communications between VMs running on the same server"; a
//! coordinator is created for every 5 physical servers.
//!
//! The simulator's purpose is to reproduce the *cost side* of the
//! evaluation, in particular Figure 6: sampling a VM's network traffic
//! (packet capture + deep packet inspection) consumes Dom0 CPU
//! proportional to the inspected packet volume, so at `err = 0`
//! (periodic 15-second sampling of all 40 VMs) Dom0 sits at 20–34% CPU,
//! and Volley's adaptation drives that down to ~5%.
//!
//! Components:
//!
//! - [`event`] — a deterministic discrete-event queue (timestamp order,
//!   FIFO among equal timestamps).
//! - [`time`] — simulated time in microseconds with second conversions.
//! - [`cluster`] — the server/VM/Dom0/coordinator topology.
//! - [`cost`] — the Dom0 CPU cost model, calibrated against the paper's
//!   reported utilization band.
//! - [`telemetry`] — per-server CPU utilization windows and sampling
//!   counters.
//! - [`shard`] — the sharded, deterministic, multi-threaded execution
//!   engine (per-coordinator-group event queues in lockstep epochs).
//!
//! Scenarios, each one type with one `run(threads)` whose report is
//! bit-identical for every thread count:
//!
//! - [`scenario`] — the fleet: one adaptive monitor per VM at the
//!   network, system or application level (a
//!   [`volley_traces::TraceFamily`]); the Figure 6 harness runs its
//!   network level.
//! - [`distributed`] — multi-VM tasks whose coordinators trigger global
//!   polls, every poll-forced sample charged to Dom0.
//! - [`cascade`] — the DDoS cascade: per-VM leader/follower task pairs
//!   under the §II.B multi-task correlation suppression.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cascade;
pub mod cluster;
pub mod cost;
pub mod distributed;
pub mod event;
pub mod scenario;
pub mod shard;
pub mod telemetry;
pub mod time;

pub use cascade::{CascadeReport, DdosCascadeConfig, DdosCascadeScenario};
pub use cluster::{ClusterConfig, ServerId, VmId};
pub use cost::Dom0CostModel;
pub use distributed::{DistributedScenario, DistributedScenarioConfig, DistributedScenarioReport};
pub use event::EventQueue;
pub use scenario::{Scenario, ScenarioConfig, ScenarioReport};
pub use shard::{
    EngineConfig, EngineStats, EpochCtx, ScratchArena, ShardId, ShardPlan, ShardWorker,
    ShardedEngine,
};
pub use telemetry::{ServerTelemetry, UtilizationWindow};
pub use time::{SimDuration, SimTime};
