//! `volley-obs`: self-monitoring observability for the Volley
//! reproduction.
//!
//! The paper's whole argument is a cost/accuracy trade-off, so the
//! runtime that reproduces it must be able to *watch itself* while it
//! runs. This crate provides the measurement substrate:
//!
//! - **[`Registry`]** — a sharded, lock-free-on-the-hot-path metrics
//!   registry: [`Counter`]s, [`Gauge`]s, and log-bucketed latency
//!   [`Histogram`]s (p50/p90/p99/max). A disabled registry costs one
//!   relaxed atomic load per operation — no clock read, no allocation.
//! - **[`SpanLog`]** — lightweight span tracing: scoped timers and
//!   structured events with monotonic timestamps in a bounded ring,
//!   exportable as a Chrome `traceEvents` JSON document.
//! - **Exposition** — [`Snapshot`] (schema-versioned; the run's store
//!   persists it) and the Prometheus-text encoder, plus
//!   [`parse_prometheus`] for reading that text back.
//!
//! The [`Obs`] bundle ties a registry and span log to one shared
//! enabled flag so the embedding runtime can flip everything on or off
//! with a single store.
//!
//! ```
//! use volley_obs::{names, Obs};
//!
//! let obs = Obs::new(true);
//! let ticks = obs.registry().counter(names::RUNNER_TICKS_TOTAL);
//! {
//!     let _span = obs.spans().span("coordinator_tick");
//!     ticks.inc();
//! }
//! let snapshot = obs.snapshot(1);
//! assert_eq!(snapshot.counters[names::RUNNER_TICKS_TOTAL], 1);
//! assert!(snapshot.to_prometheus().contains(names::RUNNER_TICKS_TOTAL));
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod registry;
pub mod span;

pub use expose::{
    parse_prometheus, sanitize_metric_name, HistogramSnapshot, PromSample, Snapshot,
    SNAPSHOT_SCHEMA_VERSION,
};
pub use registry::{
    bucket_index, bucket_upper_bound, thread_ordinal, Counter, Gauge, Histogram, Registry, BUCKETS,
    SHARDS,
};
pub use span::{SpanEvent, SpanGuard, SpanLog, DEFAULT_SPAN_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Canonical metric and span names used across the workspace. Keeping
/// them here means the runtime, CLI and bench agree on spelling without
/// string literals scattered through five crates.
pub mod names {
    /// Counter: runner ticks driven to completion.
    pub const RUNNER_TICKS_TOTAL: &str = "volley_runner_ticks_total";
    /// Histogram (ns): wall time of one full runner tick.
    pub const RUNNER_TICK_LATENCY_NS: &str = "volley_runner_tick_latency_ns";
    /// Gauge (µs): latency of the most recent runner tick — the value
    /// the runner's watchdog samples for stalls.
    pub const RUNNER_TICK_LATENCY_US: &str = "volley_runner_tick_latency_us";
    /// Counter: ticks aggregated in degraded mode.
    pub const RUNNER_DEGRADED_TICKS_TOTAL: &str = "volley_runner_degraded_ticks_total";
    /// Gauge: fraction of ticks so far that were degraded.
    pub const RUNNER_DEGRADED_FRACTION: &str = "volley_runner_degraded_fraction";
    /// Counter: state alerts raised by the monitored task.
    pub const RUNNER_ALERTS_TOTAL: &str = "volley_runner_alerts_total";
    /// Counter: monitor samples actually taken.
    pub const RUNNER_SAMPLES_TOTAL: &str = "volley_runner_samples_total";
    /// Gauge: samples per monitor per tick (the paper's sampling cost).
    pub const RUNNER_SAMPLING_FRACTION: &str = "volley_runner_sampling_fraction";
    /// Counter: coordinator failovers completed.
    pub const RUNNER_FAILOVERS_TOTAL: &str = "volley_runner_failovers_total";
    /// Histogram (ns): coordinator tick processing time.
    pub const COORDINATOR_TICK_NS: &str = "volley_coordinator_tick_ns";
    /// Counter: global polls triggered.
    pub const COORDINATOR_POLLS_TOTAL: &str = "volley_coordinator_polls_total";
    /// Counter: follower samples suppressed by the §II.B multi-task gate
    /// (adaptive schedule was due, the gate held the sample).
    pub const MULTITASK_SUPPRESSED_SAMPLES_TOTAL: &str =
        "volley_multitask_suppressed_samples_total";
    /// Counter: follower-gate engage/release transitions.
    pub const MULTITASK_GATE_FLIPS_TOTAL: &str = "volley_multitask_gate_flips_total";
    /// Histogram (ns): WAL append latency.
    pub const WAL_APPEND_NS: &str = "volley_wal_append_ns";
    /// Histogram (ns): checkpoint write latency.
    pub const CHECKPOINT_WRITE_NS: &str = "volley_checkpoint_write_ns";
    /// Histogram (ns): monitor sample + likelihood evaluation time.
    pub const MONITOR_SAMPLE_NS: &str = "volley_monitor_sample_ns";
    /// Counter: samples taken across monitor actors.
    pub const MONITOR_SAMPLES_TOTAL: &str = "volley_monitor_samples_total";
    /// Counter: frames sent monitor → coordinator.
    pub const TRANSPORT_SENDS_TOTAL: &str = "volley_transport_sends_total";
    /// Counter: frames received by the coordinator.
    pub const TRANSPORT_RECVS_TOTAL: &str = "volley_transport_recvs_total";
    /// Counter: simulated sampling operations (Fig. 6 cost path).
    pub const SIM_SAMPLING_OPS_TOTAL: &str = "volley_sim_sampling_ops_total";
    /// Counter: lockstep epochs completed by the sharded sim engine.
    pub const SIM_EPOCHS_TOTAL: &str = "volley_sim_epochs_total";
    /// Histogram (ns): wall time of one lockstep epoch (all shards).
    pub const SIM_EPOCH_LATENCY_NS: &str = "volley_sim_epoch_latency_ns";
    /// Counter: shards processed by a thread other than their home thread.
    pub const SIM_SHARD_STEALS_TOTAL: &str = "volley_sim_shard_steals_total";
    /// Counter: cross-shard envelopes merged at epoch boundaries.
    pub const SIM_SHARD_MERGES_TOTAL: &str = "volley_sim_shard_merges_total";
    /// Gauge: largest per-shard pending-event backlog at the last epoch end.
    pub const SIM_SHARD_QUEUE_DEPTH: &str = "volley_sim_shard_queue_depth";
    /// Gauge: agent connections currently open on the net coordinator.
    pub const NET_CONNECTIONS: &str = "volley_net_connections";
    /// Gauge: high-water mark of any connection's outbound frame queue.
    pub const NET_QUEUE_DEPTH: &str = "volley_net_queue_depth";
    /// Counter: agent reconnects absorbed (hello from a known agent id).
    pub const NET_RECONNECTS_TOTAL: &str = "volley_net_reconnects_total";
    /// Counter: outbound frames dropped because a slow peer's bounded
    /// queue was full (backpressure stalls).
    pub const NET_BACKPRESSURE_STALLS_TOTAL: &str = "volley_net_backpressure_stalls_total";
    /// Counter: records shed by the sample store while its circuit
    /// breaker was open (lossy degraded mode).
    pub const STORE_SHED_SAMPLES_TOTAL: &str = "volley_store_shed_samples_total";
    /// Gauge (0/1): sample store currently in lossy degraded mode.
    pub const STORE_DEGRADED: &str = "volley_store_degraded";
    /// Counter: store circuit-breaker trips (degraded-mode entries).
    pub const STORE_BREAKER_TRIPS_TOTAL: &str = "volley_store_breaker_trips_total";
    /// Counter: store circuit-breaker re-arms (degraded-mode exits).
    pub const STORE_BREAKER_REARMS_TOTAL: &str = "volley_store_breaker_rearms_total";
    /// Gauge (0/1): WAL currently shedding to its in-memory ring.
    pub const WAL_DEGRADED: &str = "volley_wal_degraded";
    /// Counter: WAL appends that failed to reach the file.
    pub const WAL_WRITE_FAILURES_TOTAL: &str = "volley_wal_write_failures_total";
    /// Counter: WAL fsyncs that reported failure.
    pub const WAL_SYNC_FAILURES_TOTAL: &str = "volley_wal_sync_failures_total";
    /// Counter: WAL circuit-breaker trips.
    pub const WAL_BREAKER_TRIPS_TOTAL: &str = "volley_wal_breaker_trips_total";
    /// Counter: WAL circuit-breaker re-arms.
    pub const WAL_BREAKER_REARMS_TOTAL: &str = "volley_wal_breaker_rearms_total";
    /// Gauge: frames currently parked in the WAL degraded ring.
    pub const WAL_RING_BUFFERED: &str = "volley_wal_ring_buffered";
    /// Counter: frames evicted from the bounded WAL ring (lost state).
    pub const WAL_RING_DROPPED_TOTAL: &str = "volley_wal_ring_dropped_total";
    /// Counter: storage faults injected by the active I/O fault plan.
    pub const IO_FAULTS_INJECTED_TOTAL: &str = "volley_io_faults_injected_total";
    /// Gauge: HTTP connections currently open on the serving plane.
    pub const SERVE_CONNECTIONS: &str = "volley_serve_connections";
    /// Counter: `/metrics` scrapes served.
    pub const SERVE_REQUESTS_METRICS_TOTAL: &str = "volley_serve_requests_metrics_total";
    /// Counter: `/api/v1/query` range queries served.
    pub const SERVE_REQUESTS_QUERY_TOTAL: &str = "volley_serve_requests_query_total";
    /// Counter: `/api/v1/alerts/stream` subscriptions opened.
    pub const SERVE_REQUESTS_STREAM_TOTAL: &str = "volley_serve_requests_stream_total";
    /// Counter: requests for any other path (404/405).
    pub const SERVE_REQUESTS_OTHER_TOTAL: &str = "volley_serve_requests_other_total";
    /// Counter: malformed or oversized requests rejected by the parser.
    pub const SERVE_BAD_REQUESTS_TOTAL: &str = "volley_serve_bad_requests_total";
    /// Counter: stream events a subscriber missed because the bounded
    /// broadcast ring wrapped past its cursor (reported like net
    /// backpressure: counted, never blocking).
    pub const SERVE_STREAM_LAG_DROPS_TOTAL: &str = "volley_serve_stream_lag_drops_total";
    /// Counter: connections dropped because a client drained slower
    /// than its bounded write buffer filled.
    pub const SERVE_SLOW_CLIENT_DROPS_TOTAL: &str = "volley_serve_slow_client_drops_total";
    /// Histogram (ns): request dispatch latency (parse to response
    /// bytes queued).
    pub const SERVE_REQUEST_NS: &str = "volley_serve_request_ns";
}

/// A registry and span log sharing one enabled flag: the single handle
/// the runtime threads through coordinator, monitors, and CLI.
#[derive(Debug, Clone)]
pub struct Obs {
    enabled: Arc<AtomicBool>,
    registry: Registry,
    spans: SpanLog,
}

impl Obs {
    /// Creates a bundle, enabled or not, whose span ring holds
    /// [`DEFAULT_SPAN_CAPACITY`] spans.
    pub fn new(enabled: bool) -> Self {
        let flag = Arc::new(AtomicBool::new(enabled));
        Obs {
            registry: Registry::with_flag(Arc::clone(&flag)),
            spans: SpanLog::with_flag(Arc::clone(&flag), DEFAULT_SPAN_CAPACITY),
            enabled: flag,
        }
    }

    /// A disabled bundle: every instrument is one relaxed load.
    pub fn disabled() -> Self {
        Obs::new(false)
    }

    /// Whether instruments currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips recording on or off for the registry *and* span log.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span log.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Shorthand for `self.spans().span(name)`.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.spans.span(name)
    }

    /// Shorthand for `self.registry().snapshot(tick)`.
    pub fn snapshot(&self, tick: u64) -> Snapshot {
        self.registry.snapshot(tick)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_one_flag() {
        let obs = Obs::new(false);
        let counter = obs.registry().counter("c");
        counter.inc();
        {
            let _span = obs.span("s");
        }
        assert_eq!(counter.value(), 0);
        assert!(obs.spans().events().is_empty());

        obs.set_enabled(true);
        counter.inc();
        {
            let _span = obs.span("s");
        }
        assert_eq!(counter.value(), 1);
        assert_eq!(obs.spans().events().len(), 1);
        assert!(obs.enabled());
    }

    #[test]
    fn snapshot_shorthand_matches_registry() {
        let obs = Obs::new(true);
        obs.registry().counter(names::RUNNER_TICKS_TOTAL).add(3);
        let snapshot = obs.snapshot(7);
        assert_eq!(snapshot.tick, 7);
        assert_eq!(snapshot.counters[names::RUNNER_TICKS_TOTAL], 3);
    }
}
