//! # volley-bench
//!
//! The experiment harness regenerating **every figure** of the Volley
//! paper's evaluation (§V), plus the ablations called out in `DESIGN.md`.
//!
//! A paper table is data, not a binary: [`TABLES`] lists every table —
//! name, paper item, expected shape, renderer — and `cargo run -p
//! volley-bench --release --bin reproduce [-- --quick]` writes them all,
//! from the paper's figures and the ablations to the reproduction's own
//! extension experiments ([`extensions`]: message loss and coordinator
//! failover on the live runtime, §II-B multi-task gating on one VM and
//! at fleet scale). Every table is deterministic, and the extension rows
//! assert their own acceptance gates. Performance is not measured here —
//! that is `benchmark/` and the `BENCH_<n>.json` ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod experiments;
pub mod extensions;
pub mod figures;
pub mod params;
pub mod report;
pub mod tables;
pub mod workloads;

pub use params::{BenchArgs, SweepParams, ERR_SWEEP, SELECTIVITY_SWEEP};
pub use report::Matrix;
pub use tables::{Table, TABLES};
pub use volley_traces::TraceFamily;
pub use workloads::WorkloadSet;
