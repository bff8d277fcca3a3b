//! Lightweight span tracing: scoped timers and structured events with
//! monotonic timestamps, collected into a bounded ring buffer.
//!
//! Spans cover the runtime's hot paths (coordinator tick, monitor sample,
//! likelihood evaluation, WAL append, checkpoint write, transport
//! phases). The ring holds the most recent [`capacity`](SpanLog::capacity)
//! events; older events are evicted and counted, never blocking a hot
//! path on a full buffer — and a *contended* push is likewise dropped
//! and counted rather than waiting on the lock. [`SpanLog::to_chrome_trace`] exports the ring
//! as a Chrome `traceEvents` JSON document for flamegraph-style offline
//! analysis (`chrome://tracing`, Perfetto, speedscope).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::registry::thread_ordinal;

/// Default ring capacity: enough for thousands of ticks of coordinator
/// spans without unbounded growth.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// One completed span or instantaneous event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name (one of the fixed hot-path names).
    pub name: String,
    /// Start offset from the log's epoch, in microseconds (monotonic).
    pub start_us: u64,
    /// Duration in microseconds; `0` for instantaneous events.
    pub dur_us: u64,
    /// The recording thread's process-wide ordinal.
    pub tid: u64,
}

/// The in-ring representation: `Copy`, no allocation on the hot path.
/// Converted to [`SpanEvent`] only on export.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    tid: u64,
}

#[derive(Debug)]
struct SpanInner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<RawEvent>>,
    dropped: AtomicU64,
}

/// The bounded span event log. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct SpanLog {
    enabled: Arc<AtomicBool>,
    inner: Arc<SpanInner>,
}

impl SpanLog {
    /// Creates a log with its own enabled flag.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        SpanLog::with_flag(Arc::new(AtomicBool::new(enabled)), capacity)
    }

    /// Creates a log sharing an external enabled flag (how
    /// [`Obs`](crate::Obs) keeps registry and span log in lock-step).
    pub fn with_flag(enabled: Arc<AtomicBool>, capacity: usize) -> Self {
        SpanLog {
            enabled,
            inner: Arc::new(SpanInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether spans currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events evicted from the full ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Starts a scoped span recorded on guard drop. When disabled the
    /// guard is inert — one relaxed atomic load, no clock read.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.start(name, None)
    }

    /// Starts a scoped span that also records its duration (nanoseconds)
    /// into `histogram` — one clock pair serving both the trace and the
    /// latency distribution.
    #[inline]
    pub fn span_timed<'a>(
        &'a self,
        name: &'static str,
        histogram: &'a crate::Histogram,
    ) -> SpanGuard<'a> {
        self.start(name, Some(histogram))
    }

    /// The guard borrows the log and the histogram: starting a span
    /// clones no handle.
    #[inline]
    fn start<'a>(
        &'a self,
        name: &'static str,
        histogram: Option<&'a crate::Histogram>,
    ) -> SpanGuard<'a> {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanGuard(None);
        }
        SpanGuard(Some(SpanGuardInner {
            log: self,
            name,
            started: Instant::now(),
            histogram,
        }))
    }

    /// Records an instantaneous event.
    #[inline]
    pub fn event(&self, name: &'static str) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        self.push(name, now, now);
    }

    /// Records a span that started at `started` and ended now (for call
    /// sites that measured the interval themselves).
    pub fn record(&self, name: &'static str, started: Instant) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.push(name, started, Instant::now());
    }

    fn push(&self, name: &'static str, started: Instant, ended: Instant) {
        let event = RawEvent {
            name,
            start_us: started
                .saturating_duration_since(self.inner.epoch)
                .as_micros() as u64,
            dur_us: ended.saturating_duration_since(started).as_micros() as u64,
            tid: thread_ordinal(),
        };
        // Never block a hot path on another thread's export or push:
        // contended events count as dropped, like ring eviction.
        let Ok(mut ring) = self.inner.ring.try_lock() else {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner
            .ring
            .lock()
            .expect("span lock never poisoned")
            .iter()
            .map(|e| SpanEvent {
                name: e.name.to_string(),
                start_us: e.start_us,
                dur_us: e.dur_us,
                tid: e.tid,
            })
            .collect()
    }

    /// Exports the ring as a Chrome `traceEvents` JSON document
    /// (complete `"X"` events; load in `chrome://tracing`, Perfetto or
    /// speedscope).
    pub fn to_chrome_trace(&self) -> String {
        #[derive(Serialize)]
        struct TraceEvent {
            name: String,
            ph: String,
            ts: u64,
            dur: u64,
            pid: u64,
            tid: u64,
        }
        #[derive(Serialize)]
        struct TraceDocument {
            dropped_events: u64,
            trace_events: Vec<TraceEvent>,
        }
        let trace_events = self
            .events()
            .into_iter()
            .map(|e| TraceEvent {
                name: e.name,
                ph: "X".to_string(),
                ts: e.start_us,
                dur: e.dur_us,
                pid: 0,
                tid: e.tid,
            })
            .collect();
        let doc = TraceDocument {
            dropped_events: self.dropped(),
            trace_events,
        };
        serde_json::to_string_pretty(&doc).expect("trace document serializes")
    }
}

#[derive(Debug)]
struct SpanGuardInner<'a> {
    log: &'a SpanLog,
    name: &'static str,
    started: Instant,
    histogram: Option<&'a crate::Histogram>,
}

/// A scoped span; records on drop. Inert when the log is disabled.
#[derive(Debug)]
pub struct SpanGuard<'a>(Option<SpanGuardInner<'a>>);

impl SpanGuard<'_> {
    /// Closes the span now instead of at scope end.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if let Some(inner) = self.0.take() {
            let ended = Instant::now();
            if let Some(histogram) = inner.histogram {
                histogram.record(ended.duration_since(inner.started).as_nanos() as u64);
            }
            inner.log.push(inner.name, inner.started, ended);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false, 16);
        {
            let _guard = log.span("quiet");
        }
        log.event("mark");
        assert!(log.events().is_empty());
    }

    #[test]
    fn spans_and_events_are_buffered_in_order() {
        let log = SpanLog::new(true, 16);
        {
            let _guard = log.span("outer");
            log.event("mark");
        }
        let events = log.events();
        assert_eq!(events.len(), 2);
        // The instantaneous mark closes before the enclosing span.
        assert_eq!(events[0].name, "mark");
        assert_eq!(events[0].dur_us, 0);
        assert_eq!(events[1].name, "outer");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let log = SpanLog::new(true, 4);
        for _ in 0..10 {
            log.event("e");
        }
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.dropped(), 6);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_entry_per_event() {
        let log = SpanLog::new(true, 16);
        log.event("a");
        {
            let _guard = log.span("b");
        }
        let json = log.to_chrome_trace();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value["trace_events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[1]["name"], "b");
    }

    #[test]
    fn span_timed_feeds_the_histogram_too() {
        let registry = crate::Registry::new(true);
        let histogram = registry.histogram("h");
        let log = SpanLog::with_flag(registry.flag(), 16);
        {
            let _guard = log.span_timed("timed", &histogram);
        }
        assert_eq!(histogram.snapshot().count, 1);
        assert_eq!(log.events().len(), 1);
    }
}
