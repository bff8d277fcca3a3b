//! # volley-bench
//!
//! The experiment harness regenerating **every figure** of the Volley
//! paper's evaluation (§V), plus the ablations called out in `DESIGN.md`.
//!
//! A paper table is data, not a binary: [`TABLES`] lists every
//! deterministic table — name, paper item, expected shape, renderer —
//! and `cargo run -p volley-bench --release --bin reproduce [-- --quick]`
//! writes them all. Four more binaries cover the experiments that drive
//! the live runtime or the sharded simulator and gate their own output:
//! `correlation` (§II-B gating), `multitask` (fleet-scale suppression
//! curve), `recovery` (checkpointed failover cost) and `robustness`
//! (message loss vs detection). All five share one argument parser
//! ([`params::BenchArgs`]). Performance is not measured here — that is
//! `benchmark/` and the `BENCH_<n>.json` ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod experiments;
pub mod figures;
pub mod params;
pub mod report;
pub mod tables;
pub mod workloads;

pub use params::{BenchArgs, SweepParams, ERR_SWEEP, SELECTIVITY_SWEEP};
pub use report::Matrix;
pub use tables::{Table, TABLES};
pub use workloads::{TraceFamily, WorkloadSet};
