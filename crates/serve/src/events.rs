//! The bounded broadcast ring feeding `/api/v1/alerts/stream`, and the
//! [`ServePublisher`] handle the runtime pushes events through.
//!
//! The design mirrors the net layer's backpressure contract: the
//! runtime side never blocks and never grows unbounded state. Each
//! publish is one mutex push into a fixed-capacity ring; when the ring
//! wraps past a slow subscriber's cursor the missed events are
//! *counted* (like `net_backpressure_stalls_total`) and the subscriber
//! keeps going from the oldest retained event. Late subscribers replay
//! whatever history the ring still holds, so an alert raised before
//! the first client connects is still delivered.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::reactor::Waker;

/// Default capacity of the broadcast ring, in events.
pub const DEFAULT_STREAM_BUFFER: usize = 1024;

struct RingInner {
    /// `(sequence, NDJSON line)` pairs, oldest first.
    buf: VecDeque<(u64, Arc<str>)>,
    /// Sequence number the next published event receives.
    next_seq: u64,
    cap: usize,
    /// Open `/api/v1/alerts/stream` subscriptions: a publish wakes the
    /// serving loop only while someone is there to push it to.
    subscribers: usize,
    waker: Option<Waker>,
}

/// A bounded multi-subscriber broadcast ring of NDJSON event lines.
///
/// Cloning is cheap; all clones share the ring.
#[derive(Clone)]
pub struct EventRing {
    inner: Arc<Mutex<RingInner>>,
}

impl EventRing {
    /// Creates a ring retaining at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> Self {
        EventRing {
            inner: Arc::new(Mutex::new(RingInner {
                buf: VecDeque::new(),
                next_seq: 0,
                cap: cap.max(1),
                subscribers: 0,
                waker: None,
            })),
        }
    }

    /// Publishes one event line (no trailing newline), evicting the
    /// oldest retained event if the ring is full. Never blocks beyond
    /// the mutex.
    pub fn publish_line(&self, line: impl Into<Arc<str>>) {
        let mut inner = self.inner.lock().expect("event ring lock never poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back((seq, line.into()));
        if inner.subscribers > 0 {
            if let Some(waker) = &inner.waker {
                waker.wake();
            }
        }
    }

    /// Names the serving loop's waker (once, before the loop starts).
    pub(crate) fn attach_waker(&self, waker: Waker) {
        self.inner
            .lock()
            .expect("event ring lock never poisoned")
            .waker = Some(waker);
    }

    /// A stream subscription opened (`+1`) or closed (`-1`). Taken under
    /// the ring lock, so a publish either precedes the subscriber's
    /// first `collect_since` or sees it and wakes the loop.
    pub(crate) fn subscribers_changed(&self, by: isize) {
        let mut inner = self.inner.lock().expect("event ring lock never poisoned");
        inner.subscribers = inner.subscribers.saturating_add_signed(by);
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        self.inner
            .lock()
            .expect("event ring lock never poisoned")
            .next_seq
    }

    /// Collects every retained event with sequence `>= cursor`.
    ///
    /// Returns `(next_cursor, lagged, lines)` where `lagged` counts
    /// events that were published past `cursor` but already evicted —
    /// the subscriber's overflow, charged like net backpressure.
    pub fn collect_since(&self, cursor: u64) -> (u64, u64, Vec<Arc<str>>) {
        let inner = self.inner.lock().expect("event ring lock never poisoned");
        let oldest = inner.buf.front().map_or(inner.next_seq, |(seq, _)| *seq);
        let lagged = oldest.saturating_sub(cursor);
        let lines = inner
            .buf
            .iter()
            .filter(|(seq, _)| *seq >= cursor)
            .map(|(_, line)| Arc::clone(line))
            .collect();
        (inner.next_seq, lagged, lines)
    }
}

impl fmt::Debug for EventRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventRing")
            .field("published", &self.published())
            .finish_non_exhaustive()
    }
}

/// The runtime-facing handle: formats lifecycle events as NDJSON and
/// publishes them into the ring, plus a relaxed atomic carrying the
/// current tick for `/metrics` snapshot stamping.
///
/// Every method is a couple of allocations and one bounded ring push —
/// safe to call from the tick path.
#[derive(Clone)]
pub struct ServePublisher {
    ring: EventRing,
    tick: Arc<AtomicU64>,
}

impl fmt::Debug for ServePublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServePublisher")
            .field("tick", &self.tick())
            .field("ring", &self.ring)
            .finish()
    }
}

impl ServePublisher {
    /// Creates a publisher over `ring`.
    pub fn new(ring: EventRing) -> Self {
        ServePublisher {
            ring,
            tick: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The ring this publisher feeds.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Records the runtime's current tick (stamps `/metrics` scrapes).
    pub fn set_tick(&self, tick: u64) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    /// The most recently recorded tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    fn publish(&self, event: &str, fields: Vec<(String, serde::Value)>) {
        let mut object = vec![("event".to_string(), event.to_value())];
        object.extend(fields);
        let line = serde_json::to_string(&serde::Value::Object(object)).expect("serializable");
        self.ring.publish_line(line.as_str());
    }

    /// Task `task` (its index in the run; a single-task run is task 0)
    /// fired a state alert at `tick`.
    pub fn alert(&self, task: u64, tick: u64, degraded: bool) {
        self.publish(
            "alert",
            vec![
                ("task".to_string(), task.to_value()),
                ("tick".to_string(), tick.to_value()),
                ("degraded".to_string(), degraded.to_value()),
            ],
        );
    }

    /// A coordinator failover began epoch `epoch` around `tick`.
    pub fn epoch(&self, epoch: u64, tick: u64) {
        self.publish(
            "epoch",
            vec![
                ("epoch".to_string(), epoch.to_value()),
                ("tick".to_string(), tick.to_value()),
            ],
        );
    }

    /// A persistence sink entered or left degraded mode at `tick`.
    pub fn degradation(&self, sink: &str, degraded: bool, tick: u64) {
        self.publish(
            "degradation",
            vec![
                ("sink".to_string(), sink.to_value()),
                ("degraded".to_string(), degraded.to_value()),
                ("tick".to_string(), tick.to_value()),
            ],
        );
    }

    /// The run completed after `ticks` ticks. Streaming clients can
    /// hang up once they see this.
    pub fn run_end(&self, ticks: u64) {
        self.publish("run_end", vec![("ticks".to_string(), ticks.to_value())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_subscriber_replays_history() {
        let ring = EventRing::new(8);
        let publisher = ServePublisher::new(ring.clone());
        publisher.alert(0, 10, false);
        publisher.alert(2, 20, true);
        let (next, lagged, lines) = ring.collect_since(0);
        assert_eq!(next, 2);
        assert_eq!(lagged, 0);
        assert_eq!(
            lines
                .iter()
                .map(|l| l.as_ref().to_owned())
                .collect::<Vec<_>>(),
            vec![
                r#"{"event":"alert","task":0,"tick":10,"degraded":false}"#,
                r#"{"event":"alert","task":2,"tick":20,"degraded":true}"#,
            ]
        );
        // Caught up: nothing new, no lag.
        let (next, lagged, lines) = ring.collect_since(next);
        assert_eq!((next, lagged, lines.len()), (2, 0, 0));
    }

    #[test]
    fn overflow_is_counted_not_blocking() {
        let ring = EventRing::new(4);
        for tick in 0..10 {
            ring.publish_line(format!("line-{tick}").as_str());
        }
        // Cursor 0 missed everything the ring no longer retains.
        let (next, lagged, lines) = ring.collect_since(0);
        assert_eq!(next, 10);
        assert_eq!(lagged, 6);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].as_ref(), "line-6");
    }

    #[test]
    fn event_shapes_are_stable() {
        let ring = EventRing::new(8);
        let publisher = ServePublisher::new(ring.clone());
        publisher.epoch(2, 60);
        publisher.degradation("wal", true, 61);
        publisher.run_end(150);
        let (_, _, lines) = ring.collect_since(0);
        assert_eq!(
            lines[0].as_ref(),
            r#"{"event":"epoch","epoch":2,"tick":60}"#
        );
        assert_eq!(
            lines[1].as_ref(),
            r#"{"event":"degradation","sink":"wal","degraded":true,"tick":61}"#
        );
        assert_eq!(lines[2].as_ref(), r#"{"event":"run_end","ticks":150}"#);
    }

    #[test]
    fn tick_is_shared_across_clones() {
        let publisher = ServePublisher::new(EventRing::new(4));
        let clone = publisher.clone();
        publisher.set_tick(42);
        assert_eq!(clone.tick(), 42);
    }
}
