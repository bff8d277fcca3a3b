//! Coordinator durability: a CRC-framed write-ahead log of tick
//! outcomes with periodic snapshots of the adaptation state.
//!
//! A coordinator crash must not discard what the task has *learned* —
//! per-monitor δ statistics, grown sampling intervals and the §IV-B
//! allowance assignment. The coordinator therefore appends one
//! [`TickOutcome`] record per completed tick and, every checkpoint
//! interval, a full [`CoordinatorSnapshot`] gathered from the monitors.
//! A standby taking over replays the log, restores each monitor from the
//! latest snapshot and falls back to the paper's conservative
//! default-interval restart only for state newer than that horizon.
//!
//! ## On-disk format
//!
//! The log is a flat sequence of records, each framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: `len` bytes of JSON]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the payload — the sample store's
//! [`volley_store::crc32`], shared by both formats. Recovery reads
//! records until the first frame that is short, oversized, fails its CRC
//! or fails to parse — the **truncated-tail rule**: everything before
//! the bad frame is trusted, everything at and after it is discarded.
//! This makes a torn final write (the common crash artifact) and trailing
//! corruption harmless, at the price of losing the records behind an
//! early corruption — which is exactly the conservative fallback the
//! recovery semantics already handle.
//!
//! Decoding is pure ([`decode_records`] takes a byte slice) so the
//! never-panic property is directly proptestable without touching disk.
//!
//! ## Compaction
//!
//! Only the latest snapshot and the tick records behind it matter for
//! recovery. When the record count passes the compaction threshold the
//! next snapshot append rewrites the log as just that snapshot (via a
//! temp file and an atomic rename), bounding log growth.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use volley_core::snapshot::SamplerSnapshot;
use volley_core::time::Tick;
use volley_core::vfs::{CircuitBreaker, SinkHealth, StdFs, Vfs, VfsFile};
use volley_store::crc32;

/// Upper bound on a record payload. A bit-flipped length field would
/// otherwise make recovery attempt a multi-gigabyte read.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Default number of records after which an appended snapshot compacts
/// the log.
pub const DEFAULT_COMPACT_AFTER: u64 = 512;

/// Default capacity of the in-memory checkpoint ring a degraded WAL
/// falls back to.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Bytes of framing overhead per record (`len` + `crc`).
const FRAME_OVERHEAD: usize = 8;

// ---------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------

/// Per-tick outcome appended to the WAL after the tick completes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickOutcome {
    /// Coordinator epoch that produced this record.
    pub epoch: u64,
    /// The completed tick.
    pub tick: Tick,
    /// Whether the tick escalated to a global poll.
    pub polled: bool,
    /// Whether the tick raised a state alert.
    pub alerted: bool,
    /// Local violation reports received this tick.
    pub local_violations: u32,
}

/// Full coordinator adaptation state at a checkpoint: everything a
/// standby needs to resume without re-learning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorSnapshot {
    /// Coordinator epoch that gathered this snapshot.
    pub epoch: u64,
    /// Tick at which the snapshot was gathered.
    pub tick: Tick,
    /// Next §IV-B allowance-update tick.
    pub next_update_tick: Tick,
    /// Per-monitor error allowances in effect.
    pub allowances: Vec<f64>,
    /// Per-monitor sampler snapshots; `None` for monitors that did not
    /// answer the snapshot request in time (those restart conservatively
    /// on recovery).
    pub samplers: Vec<Option<SamplerSnapshot>>,
    /// Multi-task follower-gate state (§II.B suppression policy); `None`
    /// when the coordinator runs without a gate — and when replaying logs
    /// written before this field existed.
    #[serde(default)]
    pub multitask: Option<MultitaskSnapshot>,
}

/// Follower-gate state persisted with each checkpoint: where the
/// coordinator's gate stood and what it had counted, for whoever reads
/// the log. No runner resumes a gate from it — the multi-task runner,
/// the only one that gates, arms no standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultitaskSnapshot {
    /// Whether the gate was engaged (leader calm, followers coarsened).
    pub engaged: bool,
    /// Lifetime engage/release transitions.
    pub flips: u64,
    /// Lifetime follower samples suppressed across the fleet.
    pub suppressed: u64,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A periodic full checkpoint.
    Snapshot(CoordinatorSnapshot),
    /// A per-tick outcome.
    Tick(TickOutcome),
}

// ---------------------------------------------------------------------
// Pure encode / decode
// ---------------------------------------------------------------------

/// Encodes one record into its framed on-disk form.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    // Sized for the whole frame up front (a Tick's JSON is ≈ 90 bytes, a
    // sampler's ≈ 380), so the payload is written without regrowing.
    let capacity = match record {
        WalRecord::Tick(_) => 128,
        WalRecord::Snapshot(s) => 160 + 24 * s.allowances.len() + 400 * s.samplers.len(),
    };
    let mut framed = Vec::with_capacity(capacity);
    // The payload is written in place behind a header filled in after it.
    framed.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    serde_json::to_writer(&mut framed, record).expect("WAL records always serialize");
    let (header, payload) = framed.split_at_mut(FRAME_OVERHEAD);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    framed
}

/// Result of replaying a WAL byte stream under the truncated-tail rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// The latest intact snapshot, if any.
    pub snapshot: Option<CoordinatorSnapshot>,
    /// Tick outcomes recorded *after* that snapshot (the state newer than
    /// the checkpoint horizon — recovered only conservatively).
    pub tail: Vec<TickOutcome>,
    /// Number of bytes of the stream that decoded cleanly.
    pub valid_len: usize,
    /// Whether bytes beyond `valid_len` were discarded (torn write or
    /// corruption).
    pub truncated: bool,
    /// Number of records that decoded cleanly.
    pub records: u64,
}

/// Decodes a WAL byte stream, stopping at the first short, oversized,
/// CRC-failing or unparsable frame. Never panics, for any input.
pub fn decode_records(bytes: &[u8]) -> Replay {
    let mut replay = Replay::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_OVERHEAD {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN {
            break;
        }
        let len = len as usize;
        let Some(payload) = rest.get(FRAME_OVERHEAD..FRAME_OVERHEAD + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(record) = serde_json::from_slice::<WalRecord>(payload) else {
            break;
        };
        match record {
            WalRecord::Snapshot(snapshot) => {
                replay.snapshot = Some(snapshot);
                replay.tail.clear();
            }
            WalRecord::Tick(outcome) => replay.tail.push(outcome),
        }
        offset += FRAME_OVERHEAD + len;
        replay.valid_len = offset;
        replay.records += 1;
    }
    replay.truncated = replay.valid_len < bytes.len();
    replay
}

// ---------------------------------------------------------------------
// Sync policy
// ---------------------------------------------------------------------

/// Group-fsync policy for WAL appends.
///
/// The historical behavior — never fsync an append, only compactions —
/// is [`WalSyncPolicy::Never`]; the default trades one fsync per
/// checkpoint interval for snapshot durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSyncPolicy {
    /// Fsync after every `n` appended records (group commit).
    EveryN(u64),
    /// Fsync only when the appended record is a snapshot.
    #[default]
    OnSnapshot,
    /// Never fsync appends (compaction still syncs its temp file).
    Never,
}

impl FromStr for WalSyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "never" => Ok(WalSyncPolicy::Never),
            "on-snapshot" => Ok(WalSyncPolicy::OnSnapshot),
            "every" | "every-n" => Ok(WalSyncPolicy::EveryN(1)),
            other => match other.strip_prefix("every-") {
                Some(n) => n
                    .parse::<u64>()
                    .map_err(|_| format!("bad --wal-sync value: {other}"))
                    .map(|n| WalSyncPolicy::EveryN(n.max(1))),
                None => Err(format!(
                    "bad --wal-sync value: {other} (want every-N|on-snapshot|never)"
                )),
            },
        }
    }
}

/// What happened to an appended record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record was written to the log file (and fsynced when the sync
    /// policy deemed a sync due).
    Persisted,
    /// The WAL is degraded: the record was retained only in the bounded
    /// in-memory checkpoint ring and will be drained to disk if the sink
    /// re-arms.
    Buffered,
}

// ---------------------------------------------------------------------
// The on-disk log
// ---------------------------------------------------------------------

/// Append-only write-ahead log of [`WalRecord`]s.
///
/// All file I/O goes through a [`Vfs`], so chaos runs can inject ENOSPC
/// storms, EIO and torn writes underneath it. On sustained append
/// failure a per-sink [`CircuitBreaker`] trips the log into degraded
/// mode: records are retained in a bounded in-memory ring, probes with
/// deterministic backoff test the disk, and the first successful probe
/// drains the ring back into the file (re-arm). A torn tail left by a
/// failed write is repaired by truncating back to the last
/// known-good byte offset before the next disk write.
#[derive(Debug)]
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Records in the current (possibly compacted) file.
    records_in_file: u64,
    /// Records ever appended through this handle — the index axis for
    /// injected corruption.
    appended: u64,
    compact_after: u64,
    /// Record indices (on the `appended` axis) whose payload is
    /// bit-flipped after the CRC is computed: deterministic
    /// WAL-corruption injection for chaos runs.
    corruptions: Vec<u64>,
    /// The latest snapshot's framed bytes as encoded, before any injected
    /// corruption: what compaction writes.
    last_snapshot: Option<Vec<u8>>,
    sync_policy: WalSyncPolicy,
    /// Records persisted since the last fsync (for `EveryN`).
    unsynced: u64,
    /// Bytes of the file known to hold intact frames.
    valid_len: u64,
    /// True when a failed write may have left partial bytes after
    /// `valid_len`; repaired by truncation before the next write.
    dirty_tail: bool,
    breaker: CircuitBreaker,
    /// Degraded-mode fallback: framed records awaiting a successful
    /// probe, oldest first.
    ring: VecDeque<Vec<u8>>,
    ring_capacity: usize,
    /// Append-path write failures (fed to the breaker).
    write_failures: u64,
    /// Fsyncs that reported failure instead of being silently dropped.
    sync_failures: u64,
    /// Records evicted from the full ring — permanently shed.
    ring_dropped: u64,
}

impl Wal {
    /// Creates (or truncates) the log at `path` on the real filesystem.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        Wal::create_on(Arc::new(StdFs), path)
    }

    /// Creates (or truncates) the log at `path` on an arbitrary
    /// [`Vfs`] — the fault-injection entry point.
    pub fn create_on(vfs: Arc<dyn Vfs>, path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                vfs.create_dir_all(dir)?;
            }
        }
        // Truncate, then reopen in append mode: append-mode writes always
        // land at end-of-file, which keeps torn-tail truncation sound.
        drop(vfs.create(&path)?);
        let file = vfs.open_append(&path)?;
        Ok(Wal {
            vfs,
            path,
            file,
            records_in_file: 0,
            appended: 0,
            compact_after: DEFAULT_COMPACT_AFTER,
            corruptions: Vec::new(),
            last_snapshot: None,
            sync_policy: WalSyncPolicy::default(),
            unsynced: 0,
            valid_len: 0,
            dirty_tail: false,
            breaker: CircuitBreaker::default(),
            ring: VecDeque::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            write_failures: 0,
            sync_failures: 0,
            ring_dropped: 0,
        })
    }

    /// Sets the compaction threshold: once the file holds more than
    /// `records` records, the next snapshot append compacts the log.
    pub fn with_compaction(mut self, records: u64) -> Self {
        self.compact_after = records.max(1);
        self
    }

    /// Schedules deterministic corruption: the `indices`-th appended
    /// records (0-based, counted across compactions) are written with one
    /// payload byte flipped *after* the CRC is computed, so replay
    /// detects the mismatch and truncates there.
    pub fn with_corruption(mut self, indices: Vec<u64>) -> Self {
        self.corruptions = indices;
        self
    }

    /// Sets the group-fsync policy for appends.
    pub fn with_sync_policy(mut self, policy: WalSyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Sets the capacity of the degraded-mode in-memory record ring.
    pub fn with_ring_capacity(mut self, records: usize) -> Self {
        self.ring_capacity = records.max(1);
        self
    }

    /// Replaces the circuit breaker (tests tune trip threshold/backoff).
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = breaker;
        self
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the file.
    pub fn records(&self) -> u64 {
        self.records_in_file
    }

    /// How the log degraded: `degraded` while appends fall back to the
    /// in-memory ring, `buffered` records held there, `lost` records
    /// evicted from it, and the failed writes and fsyncs behind it.
    pub fn health(&self) -> SinkHealth {
        SinkHealth {
            lost: self.ring_dropped,
            buffered: self.ring.len() as u64,
            write_failures: self.write_failures,
            sync_failures: self.sync_failures,
            ..SinkHealth::new(&self.breaker, self.vfs.as_ref())
        }
    }

    /// Appends one record.
    ///
    /// In degraded mode the record lands in the bounded in-memory ring
    /// and the call reports [`AppendOutcome::Buffered`]; an `Err` means
    /// the disk write (or a due fsync) failed *now* — the record is still
    /// retained in the ring, so callers may treat errors as advisory.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<AppendOutcome> {
        let (tick, is_snapshot) = match record {
            WalRecord::Snapshot(s) => (s.tick, true),
            WalRecord::Tick(o) => (o.tick, false),
        };
        self.vfs.set_tick(tick);
        let mut framed = encode_record(record);
        if is_snapshot {
            self.last_snapshot = Some(framed.clone());
        }
        if self.corruptions.contains(&self.appended) && framed.len() > FRAME_OVERHEAD {
            let idx = FRAME_OVERHEAD + (framed.len() - FRAME_OVERHEAD) / 2;
            framed[idx] ^= 0x40;
        }
        self.appended += 1;

        if !self.breaker.should_attempt() {
            self.buffer_degraded(framed);
            return Ok(AppendOutcome::Buffered);
        }
        if let Err(e) = self.persist_writes(&framed) {
            self.write_failures += 1;
            self.breaker.record_failure();
            // The record is retained in memory: a later successful probe
            // drains it to disk in order.
            self.buffer_degraded(framed);
            return Err(e);
        }
        if let Err(e) = self.maybe_sync(is_snapshot) {
            // The frame reached the OS but not stable storage — feed the
            // breaker without ring-buffering (no duplication on re-arm).
            self.sync_failures += 1;
            self.breaker.record_failure();
            return Err(e);
        }
        self.breaker.record_success();
        Ok(AppendOutcome::Persisted)
    }

    /// Pushes a framed record into the degraded-mode ring, evicting the
    /// oldest record when full.
    fn buffer_degraded(&mut self, framed: Vec<u8>) {
        if self.ring.len() >= self.ring_capacity {
            self.ring.pop_front();
            self.ring_dropped += 1;
        }
        self.ring.push_back(framed);
    }

    /// Writes any ring backlog plus `framed` to the file as one write,
    /// repairing a torn tail first: a probe stands or falls as a whole,
    /// so a backlog drains whenever one write lands, however long it is.
    fn persist_writes(&mut self, framed: &[u8]) -> io::Result<()> {
        if self.dirty_tail {
            // A previous failed write may have left partial bytes; the
            // file is in append mode, so truncating to the last intact
            // offset makes the next write land exactly there.
            self.file.truncate(self.valid_len)?;
            self.dirty_tail = false;
        }
        if self.ring.is_empty() {
            return self.write_frames(framed, 1);
        }
        let backlog: usize = self.ring.iter().map(Vec::len).sum();
        let mut batch = Vec::with_capacity(backlog + framed.len());
        for frame in &self.ring {
            batch.extend_from_slice(frame);
        }
        batch.extend_from_slice(framed);
        self.write_frames(&batch, self.ring.len() as u64 + 1)?;
        self.ring.clear();
        Ok(())
    }

    /// Fsyncs when the group-commit policy says a sync is due.
    fn maybe_sync(&mut self, is_snapshot: bool) -> io::Result<()> {
        let sync_due = match self.sync_policy {
            WalSyncPolicy::Never => false,
            WalSyncPolicy::OnSnapshot => is_snapshot,
            WalSyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
        };
        if sync_due {
            self.file.sync_all()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Writes `frames` framed records, concatenated in `bytes`, updating
    /// the intact-bytes watermark; a failure marks the tail dirty for
    /// truncation-repair.
    fn write_frames(&mut self, bytes: &[u8], frames: u64) -> io::Result<()> {
        match self.file.write_all(bytes) {
            Ok(()) => {
                self.valid_len += bytes.len() as u64;
                self.records_in_file += frames;
                self.unsynced += frames;
                Ok(())
            }
            Err(e) => {
                self.dirty_tail = true;
                Err(e)
            }
        }
    }

    /// Appends a snapshot and compacts the log down to just that
    /// snapshot when the file has outgrown the compaction threshold.
    pub fn append_snapshot(&mut self, snapshot: &CoordinatorSnapshot) -> io::Result<()> {
        let outcome = self.append(&WalRecord::Snapshot(snapshot.clone()))?;
        if outcome == AppendOutcome::Persisted && self.records_in_file > self.compact_after {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the log as just the latest snapshot (temp file + atomic
    /// rename), dropping every record the snapshot supersedes.
    fn compact(&mut self) -> io::Result<()> {
        let Some(framed) = &self.last_snapshot else {
            return Ok(());
        };
        let tmp = self.path.with_extension("wal.tmp");
        let mut out = self.vfs.create(&tmp)?;
        out.write_all(framed)?;
        out.sync_all()?;
        drop(out);
        self.vfs.rename(&tmp, &self.path)?;
        self.file = self.vfs.open_append(&self.path)?;
        self.records_in_file = 1;
        self.valid_len = framed.len() as u64;
        self.dirty_tail = false;
        self.unsynced = 0;
        Ok(())
    }

    /// Replays the log at `path` under the truncated-tail rule. A
    /// missing file replays as empty (a cold start).
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Replay> {
        let mut bytes = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        }
        Ok(decode_records(&bytes))
    }

    /// Starts a fresh log at `path` seeded with `snapshot` (if any) —
    /// the takeover path: the standby compacts whatever it could replay
    /// into a clean log, clearing any corrupt tail in the process. Only
    /// creating the file can fail: the seed write is advisory, like any
    /// [`append`](Self::append).
    pub fn compact_to(
        path: impl Into<PathBuf>,
        snapshot: Option<&CoordinatorSnapshot>,
    ) -> io::Result<Self> {
        Wal::compact_to_on(Arc::new(StdFs), path, snapshot)
    }

    /// [`Wal::compact_to`] on an arbitrary [`Vfs`].
    pub fn compact_to_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        snapshot: Option<&CoordinatorSnapshot>,
    ) -> io::Result<Self> {
        let mut wal = Wal::create_on(vfs, path)?;
        if let Some(snapshot) = snapshot {
            let _ = wal.append(&WalRecord::Snapshot(snapshot.clone()));
        }
        Ok(wal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use volley_core::{AdaptationConfig, AdaptiveSampler};

    fn sampler_snapshot() -> SamplerSnapshot {
        let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 100.0);
        sampler.observe(0, 10.0);
        sampler.observe(1, 12.0);
        sampler.to_snapshot()
    }

    fn snapshot(epoch: u64, tick: Tick) -> CoordinatorSnapshot {
        CoordinatorSnapshot {
            epoch,
            tick,
            next_update_tick: tick + 50,
            allowances: vec![0.005, 0.005],
            samplers: vec![Some(sampler_snapshot()), None],
            multitask: Some(MultitaskSnapshot {
                engaged: tick.is_multiple_of(2),
                flips: tick,
                suppressed: tick * 3,
            }),
        }
    }

    /// A snapshot written before the multitask field existed must still
    /// replay (forward compatibility of the WAL format).
    #[test]
    fn pre_multitask_snapshot_decodes_with_none() {
        let legacy = br#"{"Snapshot":{"epoch":1,"tick":7,"next_update_tick":57,"allowances":[0.01],"samplers":[null]}}"#;
        let mut framed = Vec::new();
        framed.extend_from_slice(&(legacy.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(legacy).to_le_bytes());
        framed.extend_from_slice(legacy);
        let replay = decode_records(&framed);
        assert_eq!(replay.records, 1);
        let snap = replay.snapshot.expect("snapshot decodes");
        assert_eq!(snap.tick, 7);
        assert_eq!(snap.multitask, None);
    }

    fn outcome(tick: Tick) -> TickOutcome {
        TickOutcome {
            epoch: 0,
            tick,
            polled: tick.is_multiple_of(2),
            alerted: false,
            local_violations: (tick % 3) as u32,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("volley-checkpoint-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn encode_decode_round_trip() {
        let records = vec![
            WalRecord::Tick(outcome(1)),
            WalRecord::Snapshot(snapshot(0, 2)),
            WalRecord::Tick(outcome(3)),
            WalRecord::Tick(outcome(4)),
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let replay = decode_records(&bytes);
        assert_eq!(replay.records, 4);
        assert!(!replay.truncated);
        assert_eq!(replay.valid_len, bytes.len());
        assert_eq!(replay.snapshot, Some(snapshot(0, 2)));
        assert_eq!(replay.tail, vec![outcome(3), outcome(4)]);
    }

    #[test]
    fn later_snapshot_supersedes_earlier_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(&WalRecord::Snapshot(snapshot(0, 1))));
        bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(2))));
        bytes.extend_from_slice(&encode_record(&WalRecord::Snapshot(snapshot(0, 3))));
        let replay = decode_records(&bytes);
        assert_eq!(replay.snapshot.unwrap().tick, 3);
        assert!(replay.tail.is_empty(), "tail restarts at each snapshot");
    }

    #[test]
    fn torn_final_write_truncates_cleanly() {
        let mut bytes = encode_record(&WalRecord::Tick(outcome(1)));
        let whole = bytes.len();
        bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(2)))[..10]);
        let replay = decode_records(&bytes);
        assert_eq!(replay.records, 1);
        assert!(replay.truncated);
        assert_eq!(replay.valid_len, whole);
        assert_eq!(replay.tail, vec![outcome(1)]);
    }

    #[test]
    fn bit_flip_stops_replay_at_the_flip() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(1))));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(2))));
        bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(3))));
        // Flip a payload byte of the middle record.
        bytes[first + FRAME_OVERHEAD + 3] ^= 0x01;
        let replay = decode_records(&bytes);
        assert_eq!(replay.records, 1);
        assert!(replay.truncated);
        assert_eq!(replay.tail, vec![outcome(1)]);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let replay = decode_records(&bytes);
        assert_eq!(replay.records, 0);
        assert!(replay.truncated);
    }

    #[test]
    fn wal_append_replay_round_trip() {
        let path = temp_path("round-trip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&WalRecord::Tick(outcome(1))).unwrap();
        wal.append_snapshot(&snapshot(0, 2)).unwrap();
        wal.append(&WalRecord::Tick(outcome(3))).unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.snapshot, Some(snapshot(0, 2)));
        assert_eq!(replay.tail, vec![outcome(3)]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = Wal::replay(temp_path("does-not-exist-ever")).unwrap();
        assert_eq!(replay, Replay::default());
    }

    #[test]
    fn compaction_bounds_the_log() {
        let path = temp_path("compaction");
        let mut wal = Wal::create(&path).unwrap().with_compaction(4);
        for t in 0..20 {
            wal.append(&WalRecord::Tick(outcome(t))).unwrap();
            if t % 5 == 4 {
                wal.append_snapshot(&snapshot(0, t)).unwrap();
            }
        }
        assert!(
            wal.records() <= 6,
            "log must stay bounded, has {} records",
            wal.records()
        );
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.snapshot.unwrap().tick, 19);
        assert!(!replay.truncated);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_corruption_truncates_at_the_record() {
        let path = temp_path("corruption");
        let mut wal = Wal::create(&path).unwrap().with_corruption(vec![2]);
        for t in 0..5 {
            wal.append(&WalRecord::Tick(outcome(t))).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, 2, "replay stops at the corrupted record");
        assert!(replay.truncated);
        assert_eq!(replay.tail, vec![outcome(0), outcome(1)]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_to_clears_a_corrupt_tail() {
        let src = temp_path("compact-src");
        let mut wal = Wal::create(&src).unwrap().with_corruption(vec![3]);
        wal.append_snapshot(&snapshot(0, 10)).unwrap();
        for t in 11..15 {
            wal.append(&WalRecord::Tick(outcome(t))).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&src).unwrap();
        assert!(replay.truncated);
        let dst = temp_path("compact-dst");
        let fresh = Wal::compact_to(&dst, replay.snapshot.as_ref()).unwrap();
        assert_eq!(fresh.records(), 1);
        drop(fresh);
        let clean = Wal::replay(&dst).unwrap();
        assert!(!clean.truncated);
        assert_eq!(clean.snapshot, replay.snapshot);
        fs::remove_file(&src).ok();
        fs::remove_file(&dst).ok();
    }

    #[test]
    fn wal_sheds_to_ring_under_enospc_and_drains_on_rearm() {
        let path = temp_path("ring-rearm");
        let vfs = Arc::new(volley_core::vfs::FaultFs::new(
            volley_core::vfs::IoFaultPlan::new(9).with_enospc_window(5, 5),
        ));
        let mut wal = Wal::create_on(vfs, &path)
            .unwrap()
            .with_sync_policy(WalSyncPolicy::EveryN(1))
            .with_breaker(CircuitBreaker::with_backoff(2, 1, 4));
        for t in 0..20 {
            let _ = wal.append(&WalRecord::Tick(outcome(t)));
        }
        let health = wal.health();
        assert!(health.trips >= 1, "breaker tripped");
        assert!(health.rearms >= 1, "sink re-armed");
        assert!(!health.degraded, "fault cleared, breaker closed");
        assert_eq!(health.buffered, 0);
        assert_eq!(health.lost, 0);
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records, 20, "ring drained every shed record");
        let ticks: Vec<Tick> = replay.tail.iter().map(|o| o.tick).collect();
        assert_eq!(ticks, (0..20).collect::<Vec<_>>(), "order preserved");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_ring_is_bounded() {
        let path = temp_path("ring-bounded");
        let vfs = Arc::new(volley_core::vfs::FaultFs::new(
            volley_core::vfs::IoFaultPlan::new(9).with_enospc_window(0, 0),
        ));
        let mut wal = Wal::create_on(vfs, &path)
            .unwrap()
            .with_breaker(CircuitBreaker::with_backoff(1, 4, 4))
            .with_ring_capacity(8);
        for t in 0..40 {
            let _ = wal.append(&WalRecord::Tick(outcome(t)));
        }
        let health = wal.health();
        assert!(health.degraded);
        assert_eq!(health.buffered, 8);
        assert_eq!(health.lost, 32);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_failures_are_observed_not_swallowed() {
        let path = temp_path("sync-fail");
        let vfs = Arc::new(volley_core::vfs::FaultFs::new(
            volley_core::vfs::IoFaultPlan::new(4).with_sync_errors(1.0),
        ));
        let mut wal = Wal::create_on(vfs, &path)
            .unwrap()
            .with_sync_policy(WalSyncPolicy::EveryN(2));
        assert!(wal.append(&WalRecord::Tick(outcome(0))).is_ok());
        assert!(wal.append(&WalRecord::Tick(outcome(1))).is_err());
        assert_eq!(wal.health().sync_failures, 1);
        // The frames still reached the OS: nothing was ring-buffered.
        assert_eq!(wal.health().buffered, 0);
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap().records, 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_sync_policy_parses() {
        assert_eq!("never".parse::<WalSyncPolicy>(), Ok(WalSyncPolicy::Never));
        assert_eq!(
            "on-snapshot".parse::<WalSyncPolicy>(),
            Ok(WalSyncPolicy::OnSnapshot)
        );
        assert_eq!(
            "every-8".parse::<WalSyncPolicy>(),
            Ok(WalSyncPolicy::EveryN(8))
        );
        assert_eq!(
            "every-n".parse::<WalSyncPolicy>(),
            Ok(WalSyncPolicy::EveryN(1))
        );
        assert!("sometimes".parse::<WalSyncPolicy>().is_err());
        assert!("every-x".parse::<WalSyncPolicy>().is_err());
    }

    #[test]
    fn decode_never_panics_on_arbitrary_prefixes() {
        let mut bytes = Vec::new();
        for t in 0..3 {
            bytes.extend_from_slice(&encode_record(&WalRecord::Tick(outcome(t))));
        }
        for cut in 0..bytes.len() {
            let replay = decode_records(&bytes[..cut]);
            assert!(replay.records <= 3);
        }
    }
}
