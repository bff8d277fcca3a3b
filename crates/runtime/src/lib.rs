//! # volley-runtime
//!
//! A message-passing implementation of Volley's distributed prototype
//! (§V-A): **agents** supply monitoring data, **monitors** run the
//! violation-likelihood adaptation locally and report local violations,
//! and a **coordinator** processes those reports, runs global polls, and
//! periodically reallocates the task-level error allowance.
//!
//! Unlike [`volley_core::DistributedTask`] — a step-driven reference
//! implementation that calls its samplers directly — this crate runs the
//! monitors and the coordinator as actors communicating exclusively
//! through protocol messages, exactly as the components would across
//! machines: the monitors slots of a table (an agent process minus the
//! socket) or behind real sockets, the coordinator a sans-IO machine
//! ([`coordinator`]). Both are stepped on the driving thread, and so
//! are the coordinator's sockets — this crate spawns no thread, so an
//! in-process run is a pure function of its inputs and a tick costs its
//! work, not its hand-offs; only agents run elsewhere (their own
//! processes, or the threads a test gives them). The coordinator decides by the
//! same [`volley_core::coordinator::Coordinator`] rules the reference
//! does. A [`TaskRunner`] drives simulated time in lock-step
//! (the stand-in for the paper's NTP-synchronized wall clocks) and
//! feeds each monitor its agent's ground-truth values.
//!
//! The protocol per tick:
//!
//! 1. the runner sends [`TickData`](message::TickData) to every monitor;
//! 2. each monitor decides locally whether its sampling schedule fires,
//!    runs adaptation if so, and reports a
//!    [`message::MonitorToCoordinator::TickDone`] (with any
//!    local violation) to the coordinator;
//! 3. on any local violation the coordinator issues a *global poll*: every
//!    monitor returns its current value
//!    ([`message::MonitorToCoordinator::PollReply`]), paying a
//!    forced sampling operation if it had not sampled this tick;
//! 4. the coordinator checks `Σ v_i > T`, emits the tick summary back to
//!    the runner, and — every updating period — collects period reports
//!    and reallocates error allowance (§IV-B).
//!
//! # Fault tolerance
//!
//! The runtime assumes monitors can fail and the network can misbehave:
//!
//! - no coordinator collection phase blocks forever: in process it
//!   closes as soon as the replies in flight are in (nothing arrives by
//!   waiting, so a silent monitor costs no time), and behind sockets at
//!   a **tick deadline** ([`NetCoordinator::with_tick_deadline`]);
//! - a monitor missing consecutive deadlines is **quarantined**
//!   ([`TaskRunner::with_quarantine_after`]): the coordinator stops
//!   waiting for it and aggregates it at its local threshold `T_i`
//!   (**degraded mode** — conservative, so degraded aggregation can raise
//!   false alerts but never suppresses one another monitor could prove);
//! - the runner's **supervisor** restarts quarantined monitors with a
//!   fresh sampler ([`TaskRunner::with_supervision`]), and the
//!   coordinator re-admits them at their ledger allowance and welcomes
//!   them back the moment they report on time;
//! - allowance reallocation **skips any round with missing reports** and
//!   carries the previous allowances forward.
//!
//! Faults themselves are injectable: the deterministic
//! [`failure::FaultPlan`] drops, delays and duplicates protocol messages
//! and schedules monitor crashes and stalls, purely as a function of
//! `(seed, monitor, tick)`, so a run under a given plan is exactly
//! reproducible. Faults happen on the link, never in the protocol: the
//! in-process slot table acts the plan out on the frames it carries and
//! the session fires the coordinator's crash, while the coordinator
//! machine and the monitor actor never read it. Loss on the
//! violation-report path, the knob of the
//! original accuracy experiments, is
//! [`FaultPlan::with_drop_rate`]`(`[`FaultPath::ViolationReport`]`, p)`.
//!
//! One crate-private tick loop drives every task shape over sessions
//! (each steps a coordinator machine and its monitor plane, sending the
//! monitors their tick data, their shutdown and whatever the machine
//! decides — requests, allowances, a failover's fence, gate flips —
//! and nothing else); the runners
//! are its setup plus a hook between steps: [`TaskRunner`] none,
//! [`MultiTaskRunner`] the correlation gate, [`NetCoordinator`] the
//! socket plane's turn.
//!
//! ```
//! use volley_core::task::TaskSpec;
//! use volley_runtime::TaskRunner;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = TaskSpec::builder(100.0).monitors(2).error_allowance(0.02).build()?;
//! // Two quiet value streams; 500 ticks.
//! let traces = vec![vec![10.0; 500], vec![20.0; 500]];
//! let report = TaskRunner::new(&spec)?.run(&traces)?;
//! assert_eq!(report.alerts, 0);
//! assert!(report.total_samples < 1000); // adaptation saved cost
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod coordinator;
pub mod failure;
pub mod message;
pub mod monitor;
pub mod multitask;
pub mod net;
pub mod runner;
mod session;
pub mod transport;

pub use checkpoint::{
    AppendOutcome, CoordinatorSnapshot, Replay, TickOutcome, Wal, WalRecord, WalSyncPolicy,
};
pub use coordinator::CoordinatorActor;
pub use failure::{FaultPath, FaultPlan};
pub use monitor::MonitorActor;
pub use multitask::{MultiTask, MultiTaskConfig, MultiTaskOutcome, MultiTaskRunner, PlanGate};
pub use net::{
    run_agent, AgentConfig, AgentReport, BackoffConfig, NetAddr, NetCoordinator, NetFaultPlan,
    NetRunOutcome, NetStats,
};
pub use runner::{DegradationReport, MultitaskReport, RuntimeReport, TaskRunner};
pub use volley_store::SampleRecorder;
