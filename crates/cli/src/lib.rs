//! # volley-cli
//!
//! The command-line interface for Volley adaptive state monitoring. The
//! installed binary is called `volley`; `volley help` prints every
//! subcommand with every flag it reads and each flag's default,
//! rendered from the one flag table in [`args`] that the parser itself
//! reads. The subcommands, by the paper level they expose:
//!
//! - **monitor level (§III)** — `monitor` replays a full-resolution
//!   value trace through the adaptive controller; `generate` emits
//!   synthetic traces to feed it; `sim` runs the datacenter simulator's
//!   network-monitoring scenario on the sharded engine.
//! - **task level (§IV)** — `run` drives the live runtime on a
//!   bursty workload with observability on; `chaos` does so under
//!   injected message, crash and storage faults (`chaos --net` over real
//!   sockets under reconnect storms); `coordinator` and `agent` split
//!   the same task across processes.
//! - **multi-task level (§II.B)** — `chaos --multitask` runs correlated
//!   tasks under live suppression; `analyze correlate` recovers the
//!   correlation offline from a recorded store.
//! - **recorded history** — `obs` reads back metric snapshots; `store
//!   query|compact|export-csv` inspects a sample store; `backtest`
//!   replays it through candidate error allowances.
//!
//! ```text
//! volley generate --family network --ticks 2000 | tail -n +2 > trace.csv
//! volley monitor  --input trace.csv --percentile 1 --report-json
//! volley chaos    --monitors 5 --crash 1@40 --store-dir /tmp/store
//! volley backtest --store-dir /tmp/store --verify
//! ```
//!
//! A flag a subcommand does not read is a usage error there, never a
//! silent no-op; every `--report-json` output is the versioned envelope
//! `{"schema": N, "command": "...", "report": {...}}`.
//!
//! The library half exposes the argument parsing and command execution
//! so it can be integration-tested without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;

pub use args::{CliError, Command};
pub use commands::run;
