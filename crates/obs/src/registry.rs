//! The lock-free metrics registry: counters, gauges and log-bucketed
//! histograms, sharded across threads.
//!
//! # Design
//!
//! Every instrument is a cheap cloneable *handle* around shared atomic
//! state. Handles share one `Arc<AtomicBool>` enabled flag with the
//! [`Registry`] that minted them, and every hot-path operation checks it
//! **first** — before touching clocks or shards — so a disabled registry
//! costs exactly one relaxed atomic load per call site.
//!
//! Writes are striped over [`SHARDS`] cache-line-aligned slots indexed by
//! a per-thread ordinal, so threads hammering the same counter
//! never contend on one cache line. Reads ([`Counter::value`],
//! [`Histogram::snapshot`]) sum the stripes; they are racy-consistent
//! (each stripe is read atomically, the sum is not a point-in-time cut),
//! which is the standard and sufficient contract for monitoring data.
//!
//! Registration (name → instrument) takes a mutex, but only on the cold
//! path: callers cache handles, never look up per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::expose::{HistogramSnapshot, Snapshot, SNAPSHOT_SCHEMA_VERSION};

/// Number of write stripes per instrument. The threads that write one
/// registry concurrently are the sharded simulator's workers and the
/// serve thread (the live runtime writes from its one driving thread);
/// eight covers the worker counts the repo runs while keeping each
/// histogram's footprint modest.
pub const SHARDS: usize = 8;

/// Number of power-of-two latency buckets. Bucket 0 holds zeros; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything larger. 64 buckets cover the full `u64` range.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: `0` for `0`, else `64 - leading_zeros`,
/// capped at the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// The largest value bucket `index` can hold (the quantile estimate
/// reported for samples in that bucket).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A cache-line-aligned atomic slot: stripes of one instrument never
/// share a line, so threads on different stripes never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn new() -> Self {
        PaddedU64(AtomicU64::new(0))
    }
}

/// A process-wide thread ordinal: the first instrumented call from each
/// thread claims the next ordinal. Stripe index = ordinal mod [`SHARDS`];
/// the ordinal itself also serves as the span log's thread id.
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// This thread's process-wide ordinal (stable for the thread's lifetime).
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|ordinal| *ordinal)
}

#[inline]
fn shard_index() -> usize {
    (thread_ordinal() % SHARDS as u64) as usize
}

#[derive(Debug)]
struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            shards: std::array::from_fn(|_| PaddedU64::new()),
        }
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A monotonic counter handle. Cloning is cheap; all clones share state.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds `n`. One relaxed atomic load when the registry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all stripes.
    pub fn value(&self) -> u64 {
        self.cell.sum()
    }
}

/// A last-value gauge handle storing an `f64` as atomic bits.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge. One relaxed atomic load when disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value (0.0 until first set).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One stripe of a histogram: count, sum, max and the bucket array.
#[repr(align(64))]
#[derive(Debug)]
struct HistogramShard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramShard {
    fn new() -> Self {
        HistogramShard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Debug)]
struct HistogramCell {
    shards: [HistogramShard; SHARDS],
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            shards: std::array::from_fn(|_| HistogramShard::new()),
        }
    }
}

/// A log-bucketed latency histogram handle (p50/p90/p99/max via
/// [`HistogramSnapshot`]). Values are dimensionless `u64`s; by repo
/// convention latency histograms record **nanoseconds** and carry an
/// `_ns` name suffix.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one value. One relaxed atomic load when disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = &self.cell.shards[shard_index()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the stripes into a mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for shard in &self.cell.shards {
            out.count = out.count.wrapping_add(shard.count.load(Ordering::Relaxed));
            out.sum = out.sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            out.max = out.max.max(shard.max.load(Ordering::Relaxed));
            for (bucket, slot) in out.buckets.iter_mut().zip(shard.buckets.iter()) {
                *bucket = bucket.wrapping_add(slot.load(Ordering::Relaxed));
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<String, Arc<CounterCell>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// The metrics registry (see module docs). Cloning shares all state.
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    families: Arc<Mutex<Families>>,
}

impl Registry {
    /// Creates a registry, initially enabled or not.
    pub fn new(enabled: bool) -> Self {
        Registry::with_flag(Arc::new(AtomicBool::new(enabled)))
    }

    /// Creates a registry sharing an external enabled flag (how
    /// [`Obs`](crate::Obs) keeps registry and span log in lock-step).
    pub fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Registry {
            enabled,
            families: Arc::new(Mutex::new(Families::default())),
        }
    }

    /// Whether instruments currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off; affects every handle already minted.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The shared enabled flag.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.enabled)
    }

    /// Gets or registers the counter `name`. Cold path — cache the handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut families = self.families.lock().expect("registry lock never poisoned");
        let cell = families
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCell::new()));
        Counter {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Gets or registers the gauge `name`. Cold path — cache the handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut families = self.families.lock().expect("registry lock never poisoned");
        let bits = families
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
        Gauge {
            enabled: Arc::clone(&self.enabled),
            bits: Arc::clone(bits),
        }
    }

    /// Gets or registers the histogram `name`. Cold path — cache the
    /// handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut families = self.families.lock().expect("registry lock never poisoned");
        let cell = families
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new()));
        Histogram {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Captures every registered instrument into a [`Snapshot`] stamped
    /// with `tick`.
    pub fn snapshot(&self, tick: u64) -> Snapshot {
        let families = self.families.lock().expect("registry lock never poisoned");
        let counters = families
            .counters
            .iter()
            .map(|(name, cell)| (name.clone(), cell.sum()))
            .collect();
        let gauges = families
            .gauges
            .iter()
            .map(|(name, bits)| (name.clone(), f64::from_bits(bits.load(Ordering::Relaxed))))
            .collect();
        let histograms = families
            .histograms
            .iter()
            .map(|(name, cell)| {
                let handle = Histogram {
                    enabled: Arc::clone(&self.enabled),
                    cell: Arc::clone(cell),
                };
                (name.clone(), handle.snapshot())
            })
            .collect();
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            tick,
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_record_nothing() {
        let registry = Registry::new(false);
        let counter = registry.counter("c");
        let gauge = registry.gauge("g");
        let histogram = registry.histogram("h");
        counter.add(5);
        gauge.set(3.5);
        histogram.record(100);
        assert_eq!(counter.value(), 0);
        assert_eq!(gauge.value(), 0.0);
        assert_eq!(histogram.snapshot().count, 0);
    }

    #[test]
    fn set_enabled_flips_every_existing_handle() {
        let registry = Registry::new(false);
        let counter = registry.counter("c");
        counter.inc();
        assert_eq!(counter.value(), 0);
        registry.set_enabled(true);
        counter.inc();
        assert_eq!(counter.value(), 1);
    }

    #[test]
    fn same_name_shares_state() {
        let registry = Registry::new(true);
        let a = registry.counter("shared");
        let b = registry.counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let registry = Registry::new(true);
        let gauge = registry.gauge("g");
        gauge.set(1.25);
        gauge.set(-7.0);
        assert_eq!(gauge.value(), -7.0);
    }

    #[test]
    fn bucket_index_covers_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Bucket i's upper bound belongs to bucket i.
        for i in 0..BUCKETS {
            assert!(bucket_index(bucket_upper_bound(i)) <= i.max(1));
        }
    }

    #[test]
    fn histogram_quantiles_track_recorded_values() {
        let registry = Registry::new(true);
        let histogram = registry.histogram("h");
        for _ in 0..90 {
            histogram.record(100); // bucket [64, 128)
        }
        for _ in 0..10 {
            histogram.record(10_000); // bucket [8192, 16384)
        }
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 10_000);
        assert!(snap.quantile(0.5) < 256, "p50 {}", snap.quantile(0.5));
        assert!(snap.quantile(0.99) >= 8191, "p99 {}", snap.quantile(0.99));
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let registry = Registry::new(true);
        let counter = registry.counter("c");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.value(), 80_000);
    }

    #[test]
    fn snapshot_lists_all_instruments() {
        let registry = Registry::new(true);
        registry.counter("a").add(1);
        registry.gauge("b").set(2.0);
        registry.histogram("c").record(3);
        let snap = registry.snapshot(42);
        assert_eq!(snap.tick, 42);
        assert_eq!(snap.counters.get("a"), Some(&1));
        assert_eq!(snap.gauges.get("b"), Some(&2.0));
        assert_eq!(snap.histograms.get("c").unwrap().count, 1);
    }
}
