//! # volley-analyze
//!
//! Offline analysis jobs over [`volley_store`] recordings.
//!
//! The store gives every sampled value, alert and interval change back as
//! one globally ordered, merged scan ([`Store::scan`]); this crate turns
//! that scan into *analysis jobs* — bounded-memory streaming folds that
//! read the history exactly once and produce a small, deterministic
//! result. The contract every job signs:
//!
//! - **Single-pass IO.** A job declares one [`ScanRange`] and the
//!   framework ([`run_job`]) performs the one scan; jobs never touch the
//!   store directly, so a job's IO cost is exactly one merged pass over
//!   the matching segments.
//! - **Bounded memory.** A job's state must be bounded by its
//!   configuration (task counts, caps, `K`), never by the number of
//!   records scanned. Jobs that bound by *dropping* must say so in their
//!   output (see [`CorrelationMatrix::truncated_tasks`]) — silent
//!   truncation reads as full coverage.
//! - **Determinism.** Scans yield records in `(task, monitor, kind,
//!   tick)` order with ties broken by segment sequence, and jobs fold
//!   with deterministic arithmetic — the same store directory produces
//!   byte-identical output on every run, regardless of where segment
//!   boundaries fell.
//!
//! The first job is [`CorrelationMatrixJob`] (`correlation_matrix_v1`):
//! top-K pairwise violation correlation across all recorded tasks, the
//! offline half of the paper's §II.B multi-task scheme. It sorts each
//! task's alert ticks and counts with `volley-core`'s [`preceded_within`],
//! the online detector's kernel too; `volley analyze correlate` runs it.
//!
//! [`preceded_within`]: volley_core::correlation::preceded_within
//! [`Store::scan`]: volley_store::Store::scan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;

pub use correlation::{
    CorrelatedPair, CorrelationMatrix, CorrelationMatrixConfig, CorrelationMatrixJob,
};

use std::io;

use volley_store::{Record, ScanRange, Store};

/// A bounded-memory, single-pass analysis job (see the [crate
/// docs](crate) for the full contract).
///
/// The framework drives the lifecycle: [`range`](Job::range) declares
/// the one scan the job consumes, [`observe`](Job::observe) folds each
/// record in global scan order, and [`finish`](Job::finish) seals the
/// fold into the job's output.
pub trait Job {
    /// The job's result type.
    type Output;

    /// Stable job identifier, versioned (e.g. `correlation_matrix_v1`):
    /// bump the suffix when the output semantics change.
    fn name(&self) -> &'static str;

    /// The single scan this job consumes.
    fn range(&self) -> ScanRange;

    /// Folds one record. Called in `(task, monitor, kind, tick)` order.
    fn observe(&mut self, record: &Record);

    /// Seals the job into its output.
    fn finish(self) -> Self::Output;
}

/// A finished job run: the output plus the framework's IO accounting.
/// (Serialization happens on the concrete output — the vendored serde
/// derive does not cover generics.)
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport<T> {
    /// The job's versioned name.
    pub job: String,
    /// Records the single pass streamed through the job.
    pub records_scanned: u64,
    /// The job's output.
    pub output: T,
}

/// Runs `job` over `store` in one streaming pass.
///
/// This is the framework's only IO path: it opens the job's declared
/// scan once and folds every matching record through the job, so a job
/// run costs exactly one merged pass over the store — however many
/// segments (or however much corruption-truncated tail) the directory
/// holds.
///
/// # Errors
///
/// Propagates scan I/O errors (unreadable segment files). Corrupt or
/// truncated segment *content* is not an error: the store's never-panic
/// recovery yields the decodable prefix and the job folds what survives.
pub fn run_job<J: Job>(store: &Store, mut job: J) -> io::Result<JobReport<J::Output>> {
    let name = job.name().to_string();
    let range = job.range();
    let mut records_scanned = 0u64;
    for record in store.scan(&range)? {
        job.observe(&record);
        records_scanned += 1;
    }
    Ok(JobReport {
        job: name,
        records_scanned,
        output: job.finish(),
    })
}
