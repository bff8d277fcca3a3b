//! The traced pass: spans recorded by the benchmark's own code around
//! each call into a layer, kept in memory, folded into self times.
//!
//! A span is `{name, start, end, parent, round}`. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover — children of one parent may overlap (agent threads,
//! engine workers), so coverage is the union of their intervals, not
//! the sum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub round: u32,
}

/// In-memory span sink. Disabled, every call is one relaxed load.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer holding at most `cap` spans per round (further spans
    /// are counted as dropped, never reallocated mid-round).
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Turning the tracer on reserves its whole capacity up front, so
    /// no traced round pays (or measures) a reallocation; an untraced
    /// run never allocates it at all.
    pub fn set_enabled(&self, enabled: bool) {
        if enabled {
            let mut spans = self
                .spans
                .lock()
                .expect("no span recorder panics holding the lock");
            let missing = self.cap.saturating_sub(spans.len());
            spans.reserve(missing);
        }
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opens a span that [`close`](Self::close) ends; returns
    /// [`NO_PARENT`] when disabled or full, which is a valid (ignored)
    /// argument to `close` and a valid parent.
    pub fn open(&self, name: &'static str, parent: SpanId, round: u32) -> SpanId {
        if !self.enabled() {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round,
        })
    }

    pub fn close(&self, id: SpanId) {
        if id == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics holding the lock");
        if let Some(span) = spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Records a finished leaf span.
    pub fn record(&self, name: &'static str, start_ns: u64, parent: SpanId, round: u32) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics holding the lock");
        if spans.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        }
        spans.push(span);
        (spans.len() - 1) as SpanId
    }

    /// Hands back everything recorded so far and starts empty again
    /// (span ids restart at 0, so call between rounds only).
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics holding the lock");
        spans.drain(..).collect()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds `spans` into per-name count / total / self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    // Children grouped by parent, each group in start order, so one
    // sweep per group yields the union of the intervals.
    let mut by_parent: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent != NO_PARENT)
        .collect();
    by_parent.sort_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    let mut covered = vec![0u64; spans.len()];
    let mut at = 0;
    while at < by_parent.len() {
        let parent = spans[by_parent[at] as usize].parent;
        let Some(bounds) = spans.get(parent as usize) else {
            at += 1;
            continue;
        };
        let (mut lo, mut hi) = (0u64, 0u64); // current merged run, empty
        let mut sum = 0u64;
        while at < by_parent.len() && spans[by_parent[at] as usize].parent == parent {
            let child = &spans[by_parent[at] as usize];
            let start = child.start_ns.clamp(bounds.start_ns, bounds.end_ns);
            let end = child.end_ns.clamp(bounds.start_ns, bounds.end_ns);
            if start > hi {
                sum += hi - lo;
                (lo, hi) = (start, end);
            } else {
                hi = hi.max(end);
            }
            at += 1;
        }
        covered[parent as usize] = sum + (hi - lo);
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(covered[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("handle", 10, 30, 0),
            span("handle", 50, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["run"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            t["handle"],
            SelfTime {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
    }

    #[test]
    fn overlapping_children_cover_their_union_once() {
        // Two agent threads busy at once: 20..60 ∪ 40..80 = 60 ns, not 80.
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("agent", 20, 60, 0),
            span("agent", 40, 80, 0),
        ];
        assert_eq!(self_times(&spans)["round"].self_ns, 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_nest() {
        let spans = [
            span("outer", 10, 50, NO_PARENT),
            span("mid", 0, 30, 0), // starts before the parent: clipped to 10..30
            span("leaf", 12, 20, 1), // grandchild only reduces `mid`
            span("late", 45, 70, 0), // ends after the parent: clipped to 45..50
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"].self_ns, 40 - 20 - 5);
        assert_eq!(t["mid"].self_ns, 30 - 8);
        assert_eq!(t["leaf"].self_ns, 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(8);
        let id = tracer.open("x", NO_PARENT, 0);
        tracer.close(id);
        tracer.record("y", 0, NO_PARENT, 0);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn full_tracer_counts_drops() {
        let tracer = Tracer::new(1);
        tracer.set_enabled(true);
        let root = tracer.open("root", NO_PARENT, 3);
        tracer.record("leaf", tracer.now_ns(), root, 3);
        tracer.close(root);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].round, 3);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(tracer.dropped(), 1);
    }
}
