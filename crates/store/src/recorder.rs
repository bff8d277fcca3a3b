//! `SampleRecorder`: the recording sink the runtime hangs off every
//! monitor actor and every task's session.
//!
//! Each of them holds a clone of one cheap `Clone` handle over one
//! shared [`Store`]; the runtime steps them all on its driver thread.
//! Recording must never take the runtime down: every append is
//! best-effort — I/O failures bump a counter instead of propagating,
//! and the caller checks [`io_errors`](SampleRecorder::io_errors) at
//! teardown.
//!
//! Determinism note: the handle is also safe to share across threads,
//! where *arrival* order into the store would be racy — but segments
//! sort records by `(task, monitor, kind, tick)` at encode time and
//! every recorded key is unique per tick, so the sealed bytes (and
//! every scan) do not depend on arrival order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use volley_core::{SinkHealth, Tick};
use volley_obs::Snapshot;

use crate::record::{Record, RecordKind, TASK_WIDE};
use crate::store::Store;

#[derive(Debug)]
struct RecorderInner {
    store: Mutex<Store>,
    io_errors: AtomicU64,
}

/// A cloneable, thread-safe handle recording monitoring events into a
/// shared [`Store`].
#[derive(Debug, Clone)]
pub struct SampleRecorder {
    inner: Arc<RecorderInner>,
    task: u32,
}

impl SampleRecorder {
    /// Wraps a store; records carry task index 0 until
    /// [`for_task`](SampleRecorder::for_task) re-tags the handle.
    pub fn new(store: Store) -> SampleRecorder {
        SampleRecorder {
            inner: Arc::new(RecorderInner {
                store: Mutex::new(store),
                io_errors: AtomicU64::new(0),
            }),
            task: 0,
        }
    }

    /// A handle tagging its records with `task` — same underlying store,
    /// so one store can absorb a whole fleet.
    #[must_use]
    pub fn for_task(&self, task: u32) -> SampleRecorder {
        SampleRecorder {
            inner: Arc::clone(&self.inner),
            task,
        }
    }

    /// The task index this handle tags records with.
    pub fn task(&self) -> u32 {
        self.task
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        // A panic mid-append leaves the store consistent (Vec push /
        // file write), so recover the guard rather than poisoning all
        // recording forever.
        self.inner
            .store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn append(&self, monitor: u32, kind: RecordKind, tick: Tick, value: f64) {
        let record = Record {
            task: self.task,
            monitor,
            kind,
            tick,
            value,
        };
        if self.lock().append(record).is_err() {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a scheduled sample observation.
    pub fn record_sample(&self, monitor: u32, tick: Tick, value: f64) {
        self.append(monitor, RecordKind::Sample, tick, value);
    }

    /// Records a forced sample taken to answer a global poll.
    pub fn record_poll_sample(&self, monitor: u32, tick: Tick, value: f64) {
        self.append(monitor, RecordKind::PollSample, tick, value);
    }

    /// Records a task-level alert (`degraded` marks alerts raised while
    /// aggregation ran in degraded mode).
    pub fn record_alert(&self, tick: Tick, degraded: bool) {
        let value = if degraded { 2.0 } else { 1.0 };
        self.append(TASK_WIDE, RecordKind::Alert, tick, value);
    }

    /// Records a monitor's sampling-interval change.
    pub fn record_interval_change(&self, monitor: u32, tick: Tick, interval: u32) {
        self.append(
            monitor,
            RecordKind::IntervalChange,
            tick,
            f64::from(interval),
        );
    }

    /// Persists an obs snapshot's counters and gauges into the store
    /// (see [`Store::record_snapshot`]).
    pub fn record_snapshot(&self, tick: Tick, snapshot: &Snapshot) {
        let task = self.task;
        let mut snapshot = snapshot.clone();
        snapshot.tick = tick;
        if self.lock().record_snapshot(task, &snapshot).is_err() {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seals any buffered records into a segment. Best-effort like every
    /// recording call; failures land in [`io_errors`](Self::io_errors).
    pub fn flush(&self) {
        if self.lock().flush().is_err() {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends swallowed by I/O failures so far.
    pub fn io_errors(&self) -> u64 {
        self.inner.io_errors.load(Ordering::Relaxed)
    }

    /// The shared store's [`Store::health`], read under one lock.
    pub fn health(&self) -> SinkHealth {
        self.lock().health()
    }

    /// Runs `f` against the underlying store — the escape hatch for
    /// scans and maintenance when the caller owns the only handle.
    pub fn with_store<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        f(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ScanRange;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("volley-recorder-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn concurrent_appends_produce_deterministic_scans() {
        let dirs = [temp_dir("conc-a"), temp_dir("conc-b")];
        let mut scans = Vec::new();
        for dir in &dirs {
            let recorder = SampleRecorder::new(Store::open(dir).unwrap());
            let handles: Vec<_> = (0..4u32)
                .map(|m| {
                    let r = recorder.clone();
                    std::thread::spawn(move || {
                        for t in 0..200u64 {
                            r.record_sample(m, t, f64::from(m) * 100.0 + t as f64);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            recorder.record_alert(49, false);
            recorder.flush();
            assert_eq!(recorder.io_errors(), 0);
            let records: Vec<Record> =
                recorder.with_store(|s| s.scan(&ScanRange::all()).unwrap().collect());
            assert_eq!(records.len(), 801);
            scans.push(records);
        }
        // Thread interleaving differs between the two runs; scans don't.
        assert_eq!(scans[0], scans[1]);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn task_tagging_partitions_a_shared_store() {
        let dir = temp_dir("tags");
        let recorder = SampleRecorder::new(Store::open(&dir).unwrap());
        let t0 = recorder.for_task(0);
        let t1 = recorder.for_task(1);
        t0.record_sample(0, 5, 1.0);
        t1.record_sample(0, 5, 2.0);
        t1.record_interval_change(0, 6, 4);
        recorder.flush();
        let only_t1: Vec<Record> =
            recorder.with_store(|s| s.scan(&ScanRange::all().task(1)).unwrap().collect());
        assert_eq!(only_t1.len(), 2);
        assert!(only_t1.iter().all(|r| r.task == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
