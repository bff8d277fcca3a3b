//! The embedded store: a directory of immutable segment files behind a
//! bounded in-memory write buffer.
//!
//! Appends land in the buffer and seal into a new `seg-NNNNNNNN.vseg`
//! when either flush limit trips (record count or buffered tick span) or
//! on an explicit [`Store::flush`]. Segments are immutable once written
//! (temp file + atomic rename, like WAL compaction); [`Store::compact`]
//! merge-rewrites all sealed segments into one and [`Store::retain_from`]
//! drops cold segments entirely below a tick horizon.
//!
//! Scans k-way-merge the per-segment cursors, so the result order —
//! `(task, monitor, kind, tick)`, ties by segment sequence — never
//! depends on how appends happened to be split across segments. Two
//! scans of the same directory are byte-identical.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use volley_core::vfs::{CircuitBreaker, SinkHealth, StdFs, Vfs};
use volley_core::Tick;

use crate::record::{Record, RecordKind};
use crate::segment::{decode_entry, encode_segment, ChunkEntry, SegmentReader};

/// Default flush threshold: buffered records.
pub const DEFAULT_FLUSH_RECORDS: usize = 8192;
/// Default flush threshold: buffered tick span (a time-based bound — at
/// one record per tick this seals a segment every ~512 ticks even if the
/// record bound is never hit).
pub const DEFAULT_FLUSH_TICK_SPAN: u64 = 512;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".vseg";
const META_FILE: &str = "task-meta.json";
const NAMES_FILE: &str = "metric-names.txt";

/// Recording-time context persisted next to the segments so `volley
/// backtest` can rebuild the production [`TaskSpec`]
/// (`volley_core::task::TaskSpec`) without the user re-typing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskMeta {
    /// Monitors in the recorded task.
    pub monitors: usize,
    /// The global violation threshold `T`.
    pub global_threshold: f64,
    /// The error allowance the recording ran with.
    pub error_allowance: f64,
    /// Ticks the recording was driven for.
    pub ticks: u64,
    /// The recording's seed (workload / fault plan).
    pub seed: u64,
}

/// Filter for a scan: every field is optional; an unset field matches
/// everything. Tick bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanRange {
    /// Restrict to one task.
    pub task: Option<u32>,
    /// Restrict to one monitor (or metric-name id for obs kinds).
    pub monitor: Option<u32>,
    /// Restrict to one record kind.
    pub kind: Option<RecordKind>,
    /// First tick (inclusive).
    pub from: Tick,
    /// Last tick (inclusive).
    pub to: Tick,
}

impl Default for ScanRange {
    fn default() -> Self {
        ScanRange::all()
    }
}

impl ScanRange {
    /// Matches every record.
    pub fn all() -> Self {
        ScanRange {
            task: None,
            monitor: None,
            kind: None,
            from: 0,
            to: Tick::MAX,
        }
    }

    /// Restricts to one task.
    #[must_use]
    pub fn task(mut self, task: u32) -> Self {
        self.task = Some(task);
        self
    }

    /// Restricts to one monitor.
    #[must_use]
    pub fn monitor(mut self, monitor: u32) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Restricts to one record kind.
    #[must_use]
    pub fn kind(mut self, kind: RecordKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Sets the first tick (inclusive).
    #[must_use]
    pub fn from(mut self, tick: Tick) -> Self {
        self.from = tick;
        self
    }

    /// Sets the last tick (inclusive).
    #[must_use]
    pub fn to(mut self, tick: Tick) -> Self {
        self.to = tick;
        self
    }

    /// Whether `record` passes the filter.
    pub fn matches(&self, record: &Record) -> bool {
        self.task.is_none_or(|t| t == record.task)
            && self.monitor.is_none_or(|m| m == record.monitor)
            && self.kind.is_none_or(|k| k == record.kind)
            && record.tick >= self.from
            && record.tick <= self.to
    }

    /// Whether a chunk could contain matching records — the sparse-index
    /// skip test (chunks failing it are never decoded).
    fn overlaps(&self, entry: &ChunkEntry) -> bool {
        self.task.is_none_or(|t| t == entry.task)
            && self.monitor.is_none_or(|m| m == entry.monitor)
            && self.kind.is_none_or(|k| k == entry.kind)
            && entry.max_tick >= self.from
            && entry.min_tick <= self.to
    }
}

/// Outcome of a [`Store::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CompactionStats {
    /// Sealed segments before the pass.
    pub segments_before: usize,
    /// Sealed segments after (0 or 1).
    pub segments_after: usize,
    /// Segment bytes before.
    pub bytes_before: u64,
    /// Segment bytes after.
    pub bytes_after: u64,
    /// Records carried over.
    pub records: u64,
}

/// The embedded time-series store. Single-writer; concurrent writers
/// share one store behind [`SampleRecorder`](crate::SampleRecorder).
///
/// All file I/O goes through a [`Vfs`], so chaos runs can inject storage
/// faults underneath. On sustained flush failure a [`CircuitBreaker`]
/// trips the store into lossy degraded mode: new appends are *shed*
/// (counted, dropped) instead of growing the buffer without bound, while
/// deterministically backed-off probe appends keep testing the disk; the
/// first successful probe flush re-arms the store and the retained
/// buffer — at most one segment's worth — is sealed normally.
#[derive(Debug)]
pub struct Store {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    buffer: Vec<Record>,
    flush_records: usize,
    flush_tick_span: u64,
    buffered_min: Tick,
    buffered_max: Tick,
    next_seq: u64,
    names: Vec<String>,
    name_ids: BTreeMap<String, u32>,
    names_dirty: bool,
    breaker: CircuitBreaker,
    shed_samples: u64,
}

impl Store {
    /// Opens (creating if needed) a store directory, discovering existing
    /// segments and the metric-name dictionary.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_on(Arc::new(StdFs), dir)
    }

    /// Opens a store whose file I/O goes through an arbitrary [`Vfs`] —
    /// the fault-injection entry point.
    pub fn open_on(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let next_seq = segment_files(vfs.as_ref(), &dir)?
            .last()
            .map_or(0, |&(seq, _)| seq + 1);
        let mut store = Store {
            vfs,
            dir,
            buffer: Vec::new(),
            flush_records: DEFAULT_FLUSH_RECORDS,
            flush_tick_span: DEFAULT_FLUSH_TICK_SPAN,
            buffered_min: Tick::MAX,
            buffered_max: 0,
            next_seq,
            names: Vec::new(),
            name_ids: BTreeMap::new(),
            names_dirty: false,
            breaker: CircuitBreaker::default(),
            shed_samples: 0,
        };
        store.load_names()?;
        Ok(store)
    }

    /// Overrides the write-buffer flush limits (floored at 1 record /
    /// 1 tick).
    #[must_use]
    pub fn with_flush_limits(mut self, records: usize, tick_span: u64) -> Self {
        self.flush_records = records.max(1);
        self.flush_tick_span = tick_span.max(1);
        self
    }

    /// Replaces the circuit breaker (tests tune trip threshold/backoff).
    #[must_use]
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = breaker;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records currently buffered (unsealed).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// How the store degraded: `degraded` while appends are shed,
    /// `lost` records shed so far (`store_shed_samples_total`), and its
    /// breaker's trips and re-arms.
    pub fn health(&self) -> SinkHealth {
        SinkHealth {
            lost: self.shed_samples,
            ..SinkHealth::new(&self.breaker, self.vfs.as_ref())
        }
    }

    /// Appends one record, sealing a segment when a flush limit trips.
    ///
    /// In degraded mode the record is shed (and counted) unless the
    /// breaker's deterministic backoff admits a probe, in which case the
    /// record is accepted and a flush is forced to test the disk.
    pub fn append(&mut self, record: Record) -> io::Result<()> {
        self.vfs.set_tick(record.tick);
        let probing = if self.breaker.is_open() {
            if !self.breaker.should_attempt() {
                self.shed_samples += 1;
                return Ok(());
            }
            true
        } else {
            false
        };
        self.buffered_min = self.buffered_min.min(record.tick);
        self.buffered_max = self.buffered_max.max(record.tick);
        self.buffer.push(record);
        if probing
            || self.buffer.len() >= self.flush_records
            || self.buffered_max.saturating_sub(self.buffered_min) >= self.flush_tick_span
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Seals the write buffer into a new segment (no-op when empty).
    /// Also persists the metric-name dictionary if it grew.
    ///
    /// Every flush outcome feeds the circuit breaker: sustained failure
    /// trips the store into lossy degraded mode, a success after a trip
    /// re-arms it. A failed flush keeps the buffer, so no accepted record
    /// is lost before the disk definitively comes back or the run ends.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.names_dirty {
            if let Err(e) = self.save_names() {
                self.breaker.record_failure();
                return Err(e);
            }
        }
        if self.buffer.is_empty() {
            return Ok(());
        }
        let bytes = encode_segment(&self.buffer);
        let path = self.segment_path(self.next_seq);
        match write_atomic(self.vfs.as_ref(), &self.dir, &path, &bytes) {
            Ok(()) => {
                self.breaker.record_success();
                self.next_seq += 1;
                self.buffer.clear();
                self.buffered_min = Tick::MAX;
                self.buffered_max = 0;
                Ok(())
            }
            Err(e) => {
                self.breaker.record_failure();
                Err(e)
            }
        }
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir
            .join(format!("{SEGMENT_PREFIX}{seq:08}{SEGMENT_SUFFIX}"))
    }

    /// Sealed segment files as `(sequence, path)`, in sequence order.
    pub fn segments(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        segment_files(self.vfs.as_ref(), &self.dir)
    }

    /// Scans sealed segments, merged into one globally ordered iterator.
    /// Buffered records are not visible — [`flush`](Store::flush) first
    /// for read-your-writes.
    pub fn scan(&self, range: &ScanRange) -> io::Result<Scan> {
        let mut cursors = Vec::new();
        for (_, path) in self.segments()? {
            let bytes = self.vfs.read(&path)?;
            let cursor = SegmentCursor::new(bytes, *range);
            if !cursor.exhausted() {
                cursors.push(cursor);
            }
        }
        Ok(Scan { cursors })
    }

    /// Merge-rewrites all sealed segments into a single one. Scans
    /// before and after return identical record sequences; the rewrite
    /// also drops torn tails and reclaims their framing.
    pub fn compact(&mut self) -> io::Result<CompactionStats> {
        self.flush()?;
        let old = self.segments()?;
        let bytes_before: u64 = old.iter().map(|(_, p)| self.vfs.len(p).unwrap_or(0)).sum();
        let records: Vec<Record> = self.scan(&ScanRange::all())?.collect();
        let count = records.len() as u64;
        let stats = if records.is_empty() {
            CompactionStats {
                segments_before: old.len(),
                segments_after: 0,
                bytes_before,
                bytes_after: 0,
                records: 0,
            }
        } else {
            let merged = encode_segment(&records);
            let path = self.segment_path(self.next_seq);
            write_atomic(self.vfs.as_ref(), &self.dir, &path, &merged)?;
            self.next_seq += 1;
            CompactionStats {
                segments_before: old.len(),
                segments_after: 1,
                bytes_before,
                bytes_after: merged.len() as u64,
                records: count,
            }
        };
        for (_, path) in old {
            self.vfs.remove_file(&path)?;
        }
        Ok(stats)
    }

    /// Retention: deletes sealed segments whose every record is below
    /// `horizon` (cold segments). Segments straddling the horizon are
    /// kept whole — pair with [`compact`](Store::compact) to tighten.
    /// Returns the number of segments dropped.
    pub fn retain_from(&mut self, horizon: Tick) -> io::Result<usize> {
        self.flush()?;
        let mut dropped = 0;
        for (_, path) in self.segments()? {
            let bytes = self.vfs.read(&path)?;
            let reader = SegmentReader::open(&bytes);
            let max_tick = reader.entries().iter().map(|e| e.max_tick).max();
            if max_tick.is_some_and(|t| t < horizon) {
                self.vfs.remove_file(&path)?;
                dropped += 1;
            }
        }
        Ok(dropped)
    }

    // -- recording-time metadata ---------------------------------------

    /// Persists the recording context (atomic rename).
    pub fn write_meta(&self, meta: &TaskMeta) -> io::Result<()> {
        let json = serde_json::to_string_pretty(meta).expect("serializable");
        write_atomic(
            self.vfs.as_ref(),
            &self.dir,
            &self.dir.join(META_FILE),
            json.as_bytes(),
        )
    }

    /// Reads back the recording context, if one was written.
    pub fn read_meta(&self) -> io::Result<Option<TaskMeta>> {
        match self.vfs.read(&self.dir.join(META_FILE)) {
            Ok(bytes) => serde_json::from_slice(&bytes)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    // -- metric-name dictionary (obs series) ---------------------------

    /// Interns a metric name, returning its stable id. Ids are assigned
    /// in first-seen order and persisted at the next flush.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        self.names_dirty = true;
        id
    }

    /// The metric name behind an interned id.
    pub fn metric_name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Persists an observability snapshot's counters and gauges as
    /// [`RecordKind::Counter`] / [`RecordKind::Gauge`] series keyed by
    /// interned metric-name ids — the store replaces loose `obs-*.json`
    /// files as the snapshot sink.
    pub fn record_snapshot(
        &mut self,
        task: u32,
        snapshot: &volley_obs::Snapshot,
    ) -> io::Result<()> {
        for (name, &value) in &snapshot.counters {
            let monitor = self.intern(name);
            self.append(Record {
                task,
                monitor,
                kind: RecordKind::Counter,
                tick: snapshot.tick,
                value: value as f64,
            })?;
        }
        for (name, &value) in &snapshot.gauges {
            let monitor = self.intern(name);
            self.append(Record {
                task,
                monitor,
                kind: RecordKind::Gauge,
                tick: snapshot.tick,
                value,
            })?;
        }
        Ok(())
    }

    fn load_names(&mut self) -> io::Result<()> {
        let text = match self.vfs.read(&self.dir.join(NAMES_FILE)) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            let Some((id, name)) = line.split_once(' ') else {
                continue;
            };
            let (Ok(id), name) = (id.parse::<u32>(), name.trim()) else {
                continue;
            };
            if id as usize == self.names.len() && !name.is_empty() {
                self.names.push(name.to_string());
                self.name_ids.insert(name.to_string(), id);
            }
        }
        Ok(())
    }

    fn save_names(&mut self) -> io::Result<()> {
        let mut text = String::new();
        for (id, name) in self.names.iter().enumerate() {
            text.push_str(&format!("{id} {name}\n"));
        }
        write_atomic(
            self.vfs.as_ref(),
            &self.dir,
            &self.dir.join(NAMES_FILE),
            text.as_bytes(),
        )?;
        self.names_dirty = false;
        Ok(())
    }
}

/// Writes via a temp file + `sync_all` + atomic rename, the
/// WAL-compaction idiom: the sync-before-rename guarantees a crash can
/// never expose a renamed-but-half-written file, so a visible
/// `seg-*.vseg` is always fully written.
fn write_atomic(vfs: &dyn Vfs, dir: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(".tmp-write");
    let mut file = vfs.create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    vfs.rename(&tmp, path)
}

/// Lists `seg-NNNNNNNN.vseg` files in `dir`, sorted by sequence.
fn segment_files(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for path in vfs.list(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            found.push((seq, path));
        }
    }
    found.sort_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// One segment's scan state: owned bytes, CRC-checked once when the
/// cursor opens, the filtered chunk list, and at most one decoded chunk
/// at a time (bounded memory regardless of segment size).
#[derive(Debug)]
struct SegmentCursor {
    bytes: Vec<u8>,
    entries: Vec<ChunkEntry>,
    next_entry: usize,
    chunk: Vec<Record>,
    chunk_pos: usize,
    range: ScanRange,
}

impl SegmentCursor {
    fn new(bytes: Vec<u8>, range: ScanRange) -> SegmentCursor {
        let entries: Vec<ChunkEntry> = SegmentReader::open(&bytes)
            .entries()
            .iter()
            .filter(|e| range.overlaps(e))
            .copied()
            .collect();
        let mut cursor = SegmentCursor {
            bytes,
            entries,
            next_entry: 0,
            chunk: Vec::new(),
            chunk_pos: 0,
            range,
        };
        cursor.refill();
        cursor
    }

    /// Ensures the current chunk has an unconsumed record, decoding
    /// forward as needed.
    fn refill(&mut self) {
        while self.chunk_pos >= self.chunk.len() {
            let Some(entry) = self.entries.get(self.next_entry) else {
                return;
            };
            self.next_entry += 1;
            let mut decoded = decode_entry(&self.bytes, entry).unwrap_or_default();
            decoded.retain(|r| self.range.matches(r));
            self.chunk = decoded;
            self.chunk_pos = 0;
        }
    }

    fn exhausted(&self) -> bool {
        self.chunk_pos >= self.chunk.len()
    }

    fn peek(&self) -> Option<&Record> {
        self.chunk.get(self.chunk_pos)
    }

    fn advance(&mut self) -> Option<Record> {
        let record = *self.chunk.get(self.chunk_pos)?;
        self.chunk_pos += 1;
        self.refill();
        Some(record)
    }
}

/// A merged scan over every sealed segment: yields records in
/// `(task, monitor, kind, tick)` order, ties broken by segment
/// sequence — deterministic regardless of segment boundaries.
#[derive(Debug)]
pub struct Scan {
    cursors: Vec<SegmentCursor>,
}

impl Iterator for Scan {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let mut best: Option<usize> = None;
        for (i, cursor) in self.cursors.iter().enumerate() {
            let Some(head) = cursor.peek() else { continue };
            let better = match best {
                None => true,
                // Strict `<` keeps the lowest segment sequence on ties
                // (cursors are in sequence order).
                Some(b) => head.sort_key() < self.cursors[b].peek()?.sort_key(),
            };
            if better {
                best = Some(i);
            }
        }
        self.cursors[best?].advance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("volley-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(monitor: u32, tick: u64, value: f64) -> Record {
        Record {
            task: 0,
            monitor,
            kind: RecordKind::Sample,
            tick,
            value,
        }
    }

    #[test]
    fn append_flush_scan_round_trip() {
        let dir = temp_dir("round-trip");
        let mut store = Store::open(&dir).unwrap();
        for t in 0..100u64 {
            store.append(rec(t as u32 % 4, t, t as f64 * 0.5)).unwrap();
        }
        store.flush().unwrap();
        let got: Vec<Record> = store.scan(&ScanRange::all()).unwrap().collect();
        assert_eq!(got.len(), 100);
        // Global order: by monitor, then tick.
        assert!(got.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_order_is_independent_of_segment_boundaries() {
        let dir_a = temp_dir("boundary-a");
        let dir_b = temp_dir("boundary-b");
        let mut a = Store::open(&dir_a).unwrap().with_flush_limits(7, 1_000_000);
        let mut b = Store::open(&dir_b)
            .unwrap()
            .with_flush_limits(1000, 1_000_000);
        // Interleaved appends (as concurrent monitors would produce).
        for t in 0..60u64 {
            for m in [2u32, 0, 1] {
                a.append(rec(m, t, f64::from(m) + t as f64)).unwrap();
                b.append(rec(m, t, f64::from(m) + t as f64)).unwrap();
            }
        }
        a.flush().unwrap();
        b.flush().unwrap();
        assert!(a.segments().unwrap().len() > b.segments().unwrap().len());
        let scan_a: Vec<Record> = a.scan(&ScanRange::all()).unwrap().collect();
        let scan_b: Vec<Record> = b.scan(&ScanRange::all()).unwrap().collect();
        assert_eq!(scan_a, scan_b);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn range_filters_apply() {
        let dir = temp_dir("filters");
        let mut store = Store::open(&dir).unwrap();
        for t in 0..50u64 {
            store.append(rec(0, t, 1.0)).unwrap();
            store.append(rec(1, t, 2.0)).unwrap();
            store
                .append(Record {
                    kind: RecordKind::Alert,
                    ..rec(crate::TASK_WIDE, t, 1.0)
                })
                .unwrap();
        }
        store.flush().unwrap();
        let samples: Vec<Record> = store
            .scan(&ScanRange::all().monitor(1).from(10).to(19))
            .unwrap()
            .collect();
        assert_eq!(samples.len(), 10);
        assert!(samples
            .iter()
            .all(|r| r.monitor == 1 && (10..20).contains(&r.tick)));
        let alerts: Vec<Record> = store
            .scan(&ScanRange::all().kind(RecordKind::Alert))
            .unwrap()
            .collect();
        assert_eq!(alerts.len(), 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_scans_and_shrinks() {
        let dir = temp_dir("compact");
        let mut store = Store::open(&dir).unwrap().with_flush_limits(16, 1_000_000);
        for t in 0..400u64 {
            store.append(rec((t % 3) as u32, t, 25.0)).unwrap();
        }
        store.flush().unwrap();
        let before: Vec<Record> = store.scan(&ScanRange::all()).unwrap().collect();
        let stats = store.compact().unwrap();
        assert!(stats.segments_before > 1);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(stats.records, 400);
        assert!(
            stats.bytes_after < stats.bytes_before,
            "merging cold segments reclaims framing: {stats:?}"
        );
        let after: Vec<Record> = store.scan(&ScanRange::all()).unwrap().collect();
        assert_eq!(before, after);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_drops_cold_segments_only() {
        let dir = temp_dir("retain");
        let mut store = Store::open(&dir).unwrap().with_flush_limits(10, 1_000_000);
        for t in 0..100u64 {
            store.append(rec(0, t, 1.0)).unwrap();
        }
        store.flush().unwrap();
        let dropped = store.retain_from(50).unwrap();
        assert!(dropped >= 4, "dropped {dropped}");
        let left: Vec<Record> = store.scan(&ScanRange::all()).unwrap().collect();
        assert!(
            left.iter().all(|r| r.tick >= 40),
            "only warm segments remain"
        );
        assert!(left.iter().any(|r| r.tick >= 50));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let dir = temp_dir("reopen");
        let mut store = Store::open(&dir).unwrap();
        store.append(rec(0, 1, 1.0)).unwrap();
        store.flush().unwrap();
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        store.append(rec(0, 2, 2.0)).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segments().unwrap().len(), 2);
        assert_eq!(store.scan(&ScanRange::all()).unwrap().count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_storm_sheds_then_rearms_and_resumes() {
        use volley_core::vfs::{CircuitBreaker, FaultFs, IoFaultPlan};
        let dir = temp_dir("enospc");
        // Disk full for ticks [20, 60): flushes fail, the breaker trips,
        // appends shed; after the window a probe re-arms and recording
        // resumes.
        let vfs = Arc::new(FaultFs::new(
            IoFaultPlan::new(11).with_enospc_window(20, 40),
        ));
        let mut store = Store::open_on(vfs, &dir)
            .unwrap()
            .with_flush_limits(8, 1_000_000)
            .with_breaker(CircuitBreaker::with_backoff(2, 2, 8));
        for t in 0..120u64 {
            let _ = store.append(rec(0, t, t as f64));
        }
        store.flush().unwrap();
        let health = store.health();
        assert!(health.trips >= 1, "breaker tripped during the storm");
        assert!(health.rearms >= 1, "store re-armed after the storm");
        assert!(!health.degraded, "fault cleared");
        assert!(health.lost > 0, "degraded mode shed records");
        let got: Vec<Record> = store.scan(&ScanRange::all()).unwrap().collect();
        assert!(
            got.iter().any(|r| r.tick >= 100),
            "recording resumed after re-arm"
        );
        assert!(
            got.iter().filter(|r| r.tick < 20).count() >= 8,
            "pre-storm records persisted"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips() {
        let dir = temp_dir("meta");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.read_meta().unwrap(), None);
        let meta = TaskMeta {
            monitors: 5,
            global_threshold: 500.0,
            error_allowance: 0.0,
            ticks: 150,
            seed: 42,
        };
        store.write_meta(&meta).unwrap();
        assert_eq!(store.read_meta().unwrap(), Some(meta));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_persistence_round_trips_names() {
        let dir = temp_dir("snapshot");
        let mut store = Store::open(&dir).unwrap();
        let obs = volley_obs::Obs::new(true);
        obs.registry().counter("volley_test_ticks_total").add(7);
        obs.registry().gauge("volley_test_latency_us").set(1.5);
        store.record_snapshot(0, &obs.snapshot(10)).unwrap();
        store.record_snapshot(0, &obs.snapshot(20)).unwrap();
        store.flush().unwrap();
        drop(store);
        // A fresh open resolves the persisted dictionary: a snapshot
        // recorded after it files each series under the id it had.
        let mut store = Store::open(&dir).unwrap();
        store.record_snapshot(0, &obs.snapshot(30)).unwrap();
        store.flush().unwrap();
        for (kind, value) in [(RecordKind::Counter, 7.0), (RecordKind::Gauge, 1.5)] {
            let range = ScanRange::all().task(0).kind(kind);
            let series: Vec<_> = store
                .scan(&range)
                .unwrap()
                .map(|r| (r.monitor, r.tick, r.value))
                .collect();
            let id = series[0].0;
            assert_eq!(series, [(id, 10, value), (id, 20, value), (id, 30, value)]);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
