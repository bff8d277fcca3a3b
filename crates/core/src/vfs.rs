//! Fault-injectable virtual filesystem and storage circuit breaker.
//!
//! Every durability plane in Volley — the coordinator WAL and the
//! volley-store segment files — writes through the small
//! [`Vfs`]/[`VfsFile`] traits defined here instead of `std::fs` directly.
//! Production code uses the zero-cost [`StdFs`] passthrough; chaos and
//! property tests swap in [`FaultFs`], a deterministic seeded filesystem
//! that injects the classic storage failure modes at chosen tick windows
//! and operation indices:
//!
//! - **ENOSPC** — every write and fsync fails with
//!   [`std::io::ErrorKind::StorageFull`] while a tick window is active;
//! - **EIO** — a write fails cleanly with nothing written;
//! - **short writes** — a hash-chosen prefix is written, then the
//!   operation errors;
//! - **torn writes** — a prefix is written *and its final byte is
//!   corrupted* before the operation errors, modeling a tear inside a
//!   sector;
//! - **failed fsyncs** — `sync_all` errors while the written bytes stay
//!   in the OS cache.
//!
//! All decisions are pure hashes of `(seed, lane, operation index)` — the
//! same idiom as the runtime's message-level `FaultPlan` — so a fault
//! schedule is reproducible from a seed alone and independent of thread
//! interleaving. The ENOSPC window is expressed in *ticks*: persistence
//! clients advance the fault clock via [`Vfs::set_tick`] (a no-op on real
//! filesystems), which keeps window edges aligned with simulation time
//! rather than wall-clock races.
//!
//! [`CircuitBreaker`] is the companion degradation policy: persistence
//! clients feed it write outcomes, and after a run of consecutive
//! failures it opens, shedding work until a deterministically backed-off
//! probe succeeds and the sink re-arms. Detection never consults it —
//! degraded persistence sheds fidelity, never alerts. Each sink reports
//! what it cost through one [`SinkHealth`] value.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An open file handle behind a [`Vfs`].
///
/// Only the operations the durability plane needs: buffered appends, a
/// checked flush, a checked fsync, and truncation (used by the WAL to
/// repair a torn tail before re-appending).
pub trait VfsFile: Send + fmt::Debug {
    /// Writes the whole buffer, or reports how the write failed. A failed
    /// write through a fault-injecting filesystem may have persisted a
    /// prefix of the buffer (short/torn writes).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes userspace buffers to the OS.
    fn flush(&mut self) -> io::Result<()>;
    /// Forces written bytes to stable storage and reports failure instead
    /// of swallowing it.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates the file to `len` bytes. Modeled as a metadata operation:
    /// fault filesystems do not inject errors here, so a client can always
    /// repair a torn tail.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A minimal filesystem abstraction over the operations Volley's
/// persistence sinks perform.
///
/// Implementations must be shareable across threads ([`Send`] + [`Sync`]);
/// sinks hold an `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Renames a file (a metadata operation — never fault-injected).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the entries of a directory (files and subdirectories).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Returns the length of a file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Advances the fault clock. Persistence sinks call this with the
    /// simulation tick they are writing on behalf of; real filesystems
    /// ignore it, [`FaultFs`] uses it to activate tick-windowed faults
    /// such as an ENOSPC storm.
    fn set_tick(&self, _tick: u64) {}
    /// Faults this filesystem injected so far: none on a real one.
    fn injected_faults(&self) -> u64 {
        0
    }
}

/// The production passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

/// A real [`File`] handle exposed through [`VfsFile`].
#[derive(Debug)]
pub struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(dir)? {
            entries.push(entry?.path());
        }
        Ok(entries)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }
}

/// A deterministic schedule of storage faults, seeded like the runtime's
/// message-level fault plan.
///
/// Probabilities are evaluated with a pure hash of
/// `(seed, fault lane, operation index)`, so a plan replays identically
/// for a given seed regardless of wall-clock timing. The ENOSPC window is
/// expressed in simulation ticks and activated through [`Vfs::set_tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct IoFaultPlan {
    seed: u64,
    error_rate: f64,
    short_write_rate: f64,
    torn_write_rate: f64,
    sync_error_rate: f64,
    enospc_from: Option<u64>,
    enospc_ticks: u64,
}

impl Default for IoFaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

const LANE_EIO: u64 = 31;
const LANE_SHORT: u64 = 32;
const LANE_TORN: u64 = 33;
const LANE_SYNC: u64 = 34;
const LANE_CUT: u64 = 35;

impl IoFaultPlan {
    /// A benign plan (no faults) under the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            error_rate: 0.0,
            short_write_rate: 0.0,
            torn_write_rate: 0.0,
            sync_error_rate: 0.0,
            enospc_from: None,
            enospc_ticks: 0,
        }
    }

    /// Probability that a write fails cleanly with EIO (nothing written).
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = clamp_probability(rate);
        self
    }

    /// Probability that a write persists only a hash-chosen prefix before
    /// erroring.
    pub fn with_short_writes(mut self, rate: f64) -> Self {
        self.short_write_rate = clamp_probability(rate);
        self
    }

    /// Probability that a write is torn: a prefix is persisted with its
    /// final byte corrupted, then the operation errors.
    pub fn with_torn_writes(mut self, rate: f64) -> Self {
        self.torn_write_rate = clamp_probability(rate);
        self
    }

    /// Probability that `sync_all` fails while the data stays in cache.
    pub fn with_sync_errors(mut self, rate: f64) -> Self {
        self.sync_error_rate = clamp_probability(rate);
        self
    }

    /// Arms an ENOSPC storm starting at tick `from` and lasting `ticks`
    /// ticks (`0` means until the end of the run). While active, every
    /// write and fsync fails with [`io::ErrorKind::StorageFull`].
    pub fn with_enospc_window(mut self, from: u64, ticks: u64) -> Self {
        self.enospc_from = Some(from);
        self.enospc_ticks = ticks;
        self
    }

    /// The seed the fault hashes are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing — used to skip wrapping sinks in
    /// a [`FaultFs`] at all.
    pub fn is_benign(&self) -> bool {
        self.error_rate <= 0.0
            && self.short_write_rate <= 0.0
            && self.torn_write_rate <= 0.0
            && self.sync_error_rate <= 0.0
            && self.enospc_from.is_none()
    }

    /// True when the ENOSPC window covers `tick`.
    pub fn enospc_active(&self, tick: u64) -> bool {
        match self.enospc_from {
            None => false,
            Some(from) => {
                tick >= from
                    && (self.enospc_ticks == 0 || tick < from.saturating_add(self.enospc_ticks))
            }
        }
    }

    /// Deterministic per-operation decision: hashes `(seed, lane, op)`
    /// into a uniform unit float and compares against `probability`.
    fn decide(&self, lane: u64, op: u64, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        if probability >= 1.0 {
            return true;
        }
        unit_hash(self.seed, lane, op) < probability
    }

    /// Deterministic cut point for a short/torn write of `len` bytes:
    /// always at least one byte short, never empty.
    fn cut(&self, op: u64, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        let h = unit_hash(self.seed, LANE_CUT, op);
        1 + ((h * (len - 1) as f64) as usize).min(len - 2)
    }
}

/// Clamps a probability into `[0, 1]`, mapping NaN to 0.
fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// SplitMix64 avalanche of `(seed, lane, op)` into a unit float — the
/// same construction the runtime fault plan uses for message faults.
fn unit_hash(seed: u64, lane: u64, op: u64) -> f64 {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane);
    crate::hash::unit_f64(h ^ op.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Counters of injected faults, shared between a [`FaultFs`] and whoever
/// wants to report on it.
#[derive(Debug, Default)]
pub struct IoFaultStats {
    /// Writes/fsyncs failed by an active ENOSPC window.
    pub enospc: AtomicU64,
    /// Writes failed cleanly with EIO.
    pub eio: AtomicU64,
    /// Writes that persisted only a prefix.
    pub short_writes: AtomicU64,
    /// Writes torn mid-buffer with a corrupted final byte.
    pub torn_writes: AtomicU64,
    /// Fsyncs that reported failure.
    pub sync_failures: AtomicU64,
}

impl IoFaultStats {
    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        self.enospc.load(Ordering::Relaxed)
            + self.eio.load(Ordering::Relaxed)
            + self.short_writes.load(Ordering::Relaxed)
            + self.torn_writes.load(Ordering::Relaxed)
            + self.sync_failures.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct FaultCtl {
    plan: IoFaultPlan,
    ops: AtomicU64,
    tick: AtomicU64,
    stats: Arc<IoFaultStats>,
}

impl FaultCtl {
    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    fn enospc_now(&self) -> bool {
        self.plan.enospc_active(self.tick.load(Ordering::Relaxed))
    }

    fn enospc_error(&self) -> io::Error {
        self.stats.enospc.fetch_add(1, Ordering::Relaxed);
        io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
    }

    /// Applies the write-lane fault schedule for one operation. Returns
    /// `Ok(())` when the full buffer was written to `out`.
    fn faulted_write(&self, out: &mut dyn Write, buf: &[u8]) -> io::Result<()> {
        let op = self.next_op();
        if self.enospc_now() {
            return Err(self.enospc_error());
        }
        if self.plan.decide(LANE_TORN, op, self.plan.torn_write_rate) {
            let cut = self.plan.cut(op, buf.len());
            if cut > 0 {
                let mut prefix = buf[..cut].to_vec();
                prefix[cut - 1] ^= 0x40;
                out.write_all(&prefix)?;
            }
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected torn write"));
        }
        if self.plan.decide(LANE_SHORT, op, self.plan.short_write_rate) {
            let cut = self.plan.cut(op, buf.len());
            if cut > 0 {
                out.write_all(&buf[..cut])?;
            }
            self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected short write"));
        }
        if self.plan.decide(LANE_EIO, op, self.plan.error_rate) {
            self.stats.eio.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected EIO"));
        }
        out.write_all(buf)
    }

    /// Applies the sync-lane fault schedule for one operation.
    fn faulted_sync(&self, file: &File) -> io::Result<()> {
        let op = self.next_op();
        if self.enospc_now() {
            return Err(self.enospc_error());
        }
        if self.plan.decide(LANE_SYNC, op, self.plan.sync_error_rate) {
            self.stats.sync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected fsync failure"));
        }
        file.sync_all()
    }
}

/// A fault-injecting filesystem: `std::fs` underneath, with the
/// deterministic [`IoFaultPlan`] applied to every write and fsync.
///
/// Reads and metadata operations (rename, truncate, remove, list) pass
/// through unfaulted — the fault model targets the write path, which is
/// where durability promises are made.
#[derive(Debug, Clone)]
pub struct FaultFs {
    ctl: Arc<FaultCtl>,
}

impl FaultFs {
    /// Builds a fault filesystem executing `plan`.
    pub fn new(plan: IoFaultPlan) -> Self {
        Self {
            ctl: Arc::new(FaultCtl {
                plan,
                ops: AtomicU64::new(0),
                tick: AtomicU64::new(0),
                stats: Arc::new(IoFaultStats::default()),
            }),
        }
    }

    /// The injected-fault counters, shared with this filesystem.
    pub fn stats(&self) -> Arc<IoFaultStats> {
        Arc::clone(&self.ctl.stats)
    }
}

/// A faulted file handle produced by [`FaultFs`].
#[derive(Debug)]
pub struct FaultFile {
    file: File,
    ctl: Arc<FaultCtl>,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let ctl = Arc::clone(&self.ctl);
        ctl.faulted_write(&mut self.file, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.ctl.faulted_sync(&self.file)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

impl Vfs for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            file: File::create(path)?,
            ctl: Arc::clone(&self.ctl),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(FaultFile {
            file,
            ctl: Arc::clone(&self.ctl),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdFs.list(dir)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn set_tick(&self, tick: u64) {
        self.ctl.tick.fetch_max(tick, Ordering::Relaxed);
    }

    fn injected_faults(&self) -> u64 {
        self.ctl.stats.total()
    }
}

/// Per-sink storage circuit breaker with deterministic backoff.
///
/// Persistence clients feed every write outcome in; after `threshold`
/// consecutive failures the breaker **opens** and the sink enters its
/// degraded mode (shed samples, buffer checkpoints in memory, pause
/// snapshots). While open, [`CircuitBreaker::should_attempt`] admits a
/// probe after a deterministically growing number of shed operations
/// (doubling from `base` up to `cap` on each failed probe); the first
/// successful probe **re-arms** the sink. All state is counter-based — no
/// wall clock — so degradation transitions replay bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    open: bool,
    skipped: u64,
    next_probe: u64,
    base: u64,
    cap: u64,
    trips: u64,
    rearms: u64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new(3)
    }
}

impl CircuitBreaker {
    /// Breaker that trips after `threshold` consecutive failures, probing
    /// after 4 shed operations and backing off up to 64.
    pub fn new(threshold: u32) -> Self {
        Self::with_backoff(threshold, 4, 64)
    }

    /// Breaker with an explicit probe backoff schedule: first probe after
    /// `base` shed operations, doubling to at most `cap` after each
    /// failed probe.
    pub fn with_backoff(threshold: u32, base: u64, cap: u64) -> Self {
        let base = base.max(1);
        Self {
            threshold: threshold.max(1),
            consecutive: 0,
            open: false,
            skipped: 0,
            next_probe: base,
            base,
            cap: cap.max(base),
            trips: 0,
            rearms: 0,
        }
    }

    /// True while the breaker is open (sink degraded).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Whether the caller should attempt the real operation. Always true
    /// while closed; while open, true only when the deterministic backoff
    /// schedule admits a probe (every call while open advances the
    /// schedule).
    pub fn should_attempt(&mut self) -> bool {
        if !self.open {
            return true;
        }
        self.skipped += 1;
        if self.skipped >= self.next_probe {
            self.skipped = 0;
            true
        } else {
            false
        }
    }

    /// Feeds a successful operation: closes (re-arms) the breaker if open.
    /// Returns true when this success re-armed the sink.
    pub fn record_success(&mut self) -> bool {
        self.consecutive = 0;
        if self.open {
            self.open = false;
            self.rearms += 1;
            self.next_probe = self.base;
            self.skipped = 0;
            true
        } else {
            false
        }
    }

    /// Feeds a failed operation: trips the breaker after `threshold`
    /// consecutive failures, and doubles the probe distance on a failed
    /// probe while open. Returns true when this failure tripped the
    /// breaker.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        if self.open {
            self.next_probe = (self.next_probe.saturating_mul(2)).min(self.cap);
            false
        } else if self.consecutive >= self.threshold {
            self.open = true;
            self.trips += 1;
            self.next_probe = self.base;
            self.skipped = 0;
            true
        } else {
            false
        }
    }

    /// Times the breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times an open breaker re-armed after a successful probe.
    pub fn rearms(&self) -> u64 {
        self.rearms
    }
}

/// One durable sink's degradation, read in one call — the WAL's or the
/// sample store's `health()`: its breaker's state and transitions, what
/// it lost for good, and the faults its filesystem injected. Counters a
/// sink does not keep read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkHealth {
    /// The breaker is open: the sink is degraded now.
    pub degraded: bool,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Times the breaker re-armed.
    pub rearms: u64,
    /// What the sink dropped while degraded: ring evictions (WAL) or shed
    /// records (store).
    pub lost: u64,
    /// Records held in memory until the sink re-arms (the WAL's ring).
    pub buffered: u64,
    /// Writes that failed (the WAL's appends).
    pub write_failures: u64,
    /// Fsyncs that reported failure (the WAL's).
    pub sync_failures: u64,
    /// Faults the sink's filesystem injected.
    pub faults_injected: u64,
}

impl SinkHealth {
    /// The part every sink shares: `breaker`'s state and transitions
    /// and the faults `vfs` injected.
    pub fn new(breaker: &CircuitBreaker, vfs: &dyn Vfs) -> Self {
        SinkHealth {
            degraded: breaker.is_open(),
            trips: breaker.trips(),
            rearms: breaker.rearms(),
            faults_injected: vfs.injected_faults(),
            ..SinkHealth::default()
        }
    }

    /// Two sinks side by side: counters add, degraded if either is.
    #[must_use]
    pub fn plus(self, other: SinkHealth) -> Self {
        SinkHealth {
            degraded: self.degraded || other.degraded,
            trips: self.trips + other.trips,
            rearms: self.rearms + other.rearms,
            lost: self.lost + other.lost,
            buffered: self.buffered + other.buffered,
            write_failures: self.write_failures + other.write_failures,
            sync_failures: self.sync_failures + other.sync_failures,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }

    /// A sink followed by its successor (a WAL across coordinator
    /// incarnations): counters add, the state is `later`'s.
    #[must_use]
    pub fn then(self, later: SinkHealth) -> Self {
        SinkHealth {
            degraded: later.degraded,
            buffered: later.buffered,
            ..self.plus(later)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "volley-vfs-tests-{}-{tag}-{id}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_fs_round_trips() {
        let dir = temp_dir("std");
        let vfs = StdFs;
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        assert_eq!(vfs.len(&path).unwrap(), 5);
        let to = dir.join("b.bin");
        vfs.rename(&path, &to).unwrap();
        assert_eq!(vfs.list(&dir).unwrap(), vec![to.clone()]);
        vfs.remove_file(&to).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn benign_plan_injects_nothing() {
        let dir = temp_dir("benign");
        let vfs = FaultFs::new(IoFaultPlan::new(7));
        assert!(IoFaultPlan::new(7).is_benign());
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        for _ in 0..100 {
            f.write_all(b"payload").unwrap();
        }
        f.sync_all().unwrap();
        assert_eq!(vfs.stats().total(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_window_follows_the_tick_clock() {
        let dir = temp_dir("enospc");
        let plan = IoFaultPlan::new(1).with_enospc_window(10, 5);
        assert!(!plan.is_benign());
        let vfs = FaultFs::new(plan);
        let mut f = vfs.create(&dir.join("a.bin")).unwrap();
        f.write_all(b"ok").unwrap();
        vfs.set_tick(10);
        let err = f.write_all(b"full").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(f.sync_all().unwrap_err().kind(), io::ErrorKind::StorageFull);
        vfs.set_tick(15);
        f.write_all(b"clear").unwrap();
        f.sync_all().unwrap();
        assert_eq!(vfs.stats().enospc.load(Ordering::Relaxed), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_clock_never_goes_backwards() {
        let plan = IoFaultPlan::new(1).with_enospc_window(10, 0);
        let vfs = FaultFs::new(plan.clone());
        vfs.set_tick(20);
        vfs.set_tick(5);
        assert!(plan.enospc_active(20));
        assert_eq!(vfs.ctl.tick.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn torn_write_persists_a_corrupted_prefix() {
        let dir = temp_dir("torn");
        let vfs = FaultFs::new(IoFaultPlan::new(3).with_torn_writes(1.0));
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        let payload = vec![0xABu8; 64];
        assert!(f.write_all(&payload).is_err());
        drop(f);
        let on_disk = fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < payload.len());
        assert_eq!(on_disk[on_disk.len() - 1], 0xAB ^ 0x40);
        assert_eq!(vfs.stats().torn_writes.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_persists_a_clean_prefix() {
        let dir = temp_dir("short");
        let vfs = FaultFs::new(IoFaultPlan::new(3).with_short_writes(1.0));
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        let payload = vec![0xCDu8; 64];
        assert!(f.write_all(&payload).is_err());
        drop(f);
        let on_disk = fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < payload.len());
        assert!(on_disk.iter().all(|&b| b == 0xCD));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let plan = IoFaultPlan::new(42).with_error_rate(0.3);
        let a: Vec<bool> = (0..200).map(|op| plan.decide(LANE_EIO, op, 0.3)).collect();
        let b: Vec<bool> = (0..200).map(|op| plan.decide(LANE_EIO, op, 0.3)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x));
        assert!(a.iter().any(|&x| !x));
        let other = IoFaultPlan::new(43);
        let c: Vec<bool> = (0..200).map(|op| other.decide(LANE_EIO, op, 0.3)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn breaker_trips_probes_and_rearms_deterministically() {
        let mut b = CircuitBreaker::with_backoff(3, 2, 8);
        assert!(b.should_attempt());
        b.record_failure();
        b.record_failure();
        assert!(!b.is_open());
        assert!(b.record_failure());
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);

        // Probe admitted after `base` shed ops; a failed probe doubles.
        assert!(!b.should_attempt());
        assert!(b.should_attempt());
        b.record_failure();
        let mut shed = 0;
        while !b.should_attempt() {
            shed += 1;
        }
        assert_eq!(shed, 3); // distance doubled from 2 to 4
        assert!(b.record_success());
        assert!(!b.is_open());
        assert_eq!(b.rearms(), 1);
        assert!(b.should_attempt());
    }

    #[test]
    fn breaker_backoff_caps() {
        let mut b = CircuitBreaker::with_backoff(1, 2, 8);
        b.record_failure();
        for _ in 0..10 {
            b.record_failure();
        }
        assert_eq!(b.next_probe, 8);
    }
}
