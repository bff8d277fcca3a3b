//! Failure injection for the runtime's message paths.
//!
//! The paper's accuracy analysis assumes local violation reports reach the
//! coordinator; a lossy network makes the effective mis-detection rate
//! worse than the allowance. [`FaultPlan`] quantifies that effect and is
//! the runtime's one fault path: every decision is a pure function of
//! `(seed, path, monitor, tick)`, so outcomes are identical regardless of
//! thread scheduling, and the same plan replayed over the same traces
//! yields an identical [`RuntimeReport`](crate::RuntimeReport). Besides
//! message drops on both report paths
//! ([`with_drop_rate`](FaultPlan::with_drop_rate)) it injects
//! duplication, delayed (reordered) delivery, monitor crashes at a given
//! tick, multi-tick stalls, partitions, coordinator crashes, WAL
//! corruption and storage faults.
//!
//! Faults happen on the link and in processes, never in the protocol:
//! the in-process slot table acts the monitor and message faults out on
//! the frames it carries in both directions, the task session kills
//! the coordinator process on its scheduled crash, and the WAL and the
//! sinks take the storage faults. Neither protocol machine — the
//! coordinator nor the monitor actor — reads the plan; each learns of a
//! fault only from the frames it does or does not receive. The socket
//! plane's plan is always benign.

use volley_core::hash::unit_f64;
use volley_core::task::MonitorId;
use volley_core::time::Tick;
use volley_core::vfs::IoFaultPlan;

/// The monitor→coordinator message path a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPath {
    /// `TickDone` local-violation reports.
    ViolationReport,
    /// `PollReply` responses to a global poll.
    PollReply,
}

impl FaultPath {
    fn tag(self) -> u64 {
        match self {
            FaultPath::ViolationReport => 1,
            FaultPath::PollReply => 2,
        }
    }
}

/// A deterministic, seeded fault schedule for one task run.
///
/// Probabilistic faults (drop, duplicate, delay) are decided by hashing
/// `(seed, path, monitor, tick)` — never by a shared mutable RNG — so the
/// decision for a given message is independent of the order in which
/// concurrent messages arrive. Scheduled faults (crash, stall) are exact:
/// a crash kills the monitor actor when it sees the given tick; a stall
/// makes it drop everything it receives for `duration` ticks starting at
/// the given tick, as a hung process would.
///
/// ```
/// use volley_runtime::{FaultPath, FaultPlan};
/// use volley_core::task::MonitorId;
///
/// let plan = FaultPlan::new(42)
///     .with_drop_rate(FaultPath::ViolationReport, 0.5)
///     .with_crash(MonitorId(1), 100)
///     .with_stall(MonitorId(2), 50, 10);
/// assert_eq!(plan.crash_tick(MonitorId(1)), Some(100));
/// assert!(plan.stalled(MonitorId(2), 55));
/// assert!(!plan.stalled(MonitorId(2), 60));
/// // Decisions are reproducible: the same (path, monitor, tick) always
/// // resolves the same way for a given seed.
/// let d = plan.drops(FaultPath::ViolationReport, MonitorId(0), 7);
/// assert_eq!(d, plan.drops(FaultPath::ViolationReport, MonitorId(0), 7));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    report_drop: f64,
    poll_reply_drop: f64,
    duplicate: f64,
    delay: f64,
    crashes: Vec<(MonitorId, Tick)>,
    stalls: Vec<(MonitorId, Tick, u64)>,
    /// Ticks at which the *coordinator* process crashes (exits without a
    /// summary), handing over to a standby if one is configured.
    coordinator_crashes: Vec<Tick>,
    /// Network partitions: `(monitor, from, to)` cuts the link between
    /// the coordinator and `monitor` for ticks in `[from, to)` — frames
    /// in both directions are lost, but the monitor process stays alive.
    partitions: Vec<(MonitorId, Tick, Tick)>,
    /// Record indices (0-based, in append order) of the coordinator WAL
    /// that are written corrupted (one payload bit flipped after the CRC
    /// is computed).
    wal_corruptions: Vec<u64>,
    /// Storage faults injected underneath the runner's checkpoint WAL via
    /// `FaultFs` (the sample store is opened by the caller, over a
    /// `FaultFs` of its own under the same plan).
    io: IoFaultPlan,
}

impl FaultPlan {
    /// Creates a benign plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the drop probability for one message path (clamped to
    /// `[0, 1]`; non-finite values disable the fault).
    #[must_use]
    pub fn with_drop_rate(mut self, path: FaultPath, probability: f64) -> Self {
        let p = clamp_probability(probability);
        match path {
            FaultPath::ViolationReport => self.report_drop = p,
            FaultPath::PollReply => self.poll_reply_drop = p,
        }
        self
    }

    /// Sets the probability that a monitor reply is sent twice.
    #[must_use]
    pub fn with_duplication_rate(mut self, probability: f64) -> Self {
        self.duplicate = clamp_probability(probability);
        self
    }

    /// Sets the probability that a monitor reply is held back and sent
    /// after the following reply (a one-message reorder, which makes the
    /// held message miss its tick deadline).
    #[must_use]
    pub fn with_delay_rate(mut self, probability: f64) -> Self {
        self.delay = clamp_probability(probability);
        self
    }

    /// Schedules `monitor` to crash (exit without replying) upon
    /// receiving the tick `at`.
    #[must_use]
    pub fn with_crash(mut self, monitor: MonitorId, at: Tick) -> Self {
        self.crashes.push((monitor, at));
        self
    }

    /// Schedules `monitor` to stall — discard every message it receives —
    /// for `duration` ticks starting at tick `from`.
    #[must_use]
    pub fn with_stall(mut self, monitor: MonitorId, from: Tick, duration: u64) -> Self {
        self.stalls.push((monitor, from, duration));
        self
    }

    /// Schedules the coordinator to crash at tick `at`, once the tick's
    /// data has left and before any reply reaches it (so the tick has no
    /// summary, and the successor re-drives it).
    #[must_use]
    pub fn with_coordinator_crash(mut self, at: Tick) -> Self {
        self.coordinator_crashes.push(at);
        self
    }

    /// Schedules a network partition cutting every monitor in `lanes`
    /// off from the coordinator for ticks in `[from, to)`. Frames are
    /// lost in both directions; the monitor processes stay alive and
    /// keep their local state, which is what makes healed partitions
    /// dangerous — their first frames after the heal carry whatever
    /// coordinator epoch they last saw.
    #[must_use]
    pub fn with_partition(mut self, lanes: &[MonitorId], from: Tick, to: Tick) -> Self {
        for &monitor in lanes {
            self.partitions.push((monitor, from, to));
        }
        self
    }

    /// Schedules the `record`-th appended coordinator-WAL record
    /// (0-based) to be written corrupted, exercising the truncated-tail
    /// recovery path.
    #[must_use]
    pub fn with_wal_corruption(mut self, record: u64) -> Self {
        self.wal_corruptions.push(record);
        self
    }

    /// Installs a storage-fault schedule: the runner's checkpoint WAL
    /// runs over a `FaultFs` built from this plan, and the caller opens
    /// the sample store over one of its own (as the CLI does). Detection
    /// is unaffected by design — only sampling fidelity degrades.
    #[must_use]
    pub fn with_io_faults(mut self, io: IoFaultPlan) -> Self {
        self.io = io;
        self
    }

    /// The storage-fault schedule (benign by default).
    pub fn io(&self) -> &IoFaultPlan {
        &self.io
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan injects no faults at all.
    pub fn is_benign(&self) -> bool {
        self.report_drop == 0.0
            && self.poll_reply_drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.coordinator_crashes.is_empty()
            && self.partitions.is_empty()
            && self.wal_corruptions.is_empty()
            && self.io.is_benign()
    }

    /// Whether the message from `monitor` at `tick` on `path` is dropped.
    pub fn drops(&self, path: FaultPath, monitor: MonitorId, tick: Tick) -> bool {
        let p = match path {
            FaultPath::ViolationReport => self.report_drop,
            FaultPath::PollReply => self.poll_reply_drop,
        };
        self.decide(path.tag(), monitor, tick, p)
    }

    /// Whether the reply from `monitor` at `tick` is duplicated.
    pub fn duplicates(&self, monitor: MonitorId, tick: Tick) -> bool {
        self.decide(3, monitor, tick, self.duplicate)
    }

    /// Whether the reply from `monitor` at `tick` is delayed past the
    /// next reply.
    pub fn delays(&self, monitor: MonitorId, tick: Tick) -> bool {
        self.decide(4, monitor, tick, self.delay)
    }

    /// The tick at which `monitor` crashes, if any (the earliest when
    /// several are scheduled).
    pub fn crash_tick(&self, monitor: MonitorId) -> Option<Tick> {
        self.crashes
            .iter()
            .filter(|(m, _)| *m == monitor)
            .map(|&(_, t)| t)
            .min()
    }

    /// Whether `monitor` is inside a stall window at `tick`.
    pub fn stalled(&self, monitor: MonitorId, tick: Tick) -> bool {
        self.stalls
            .iter()
            .any(|&(m, from, dur)| m == monitor && tick >= from && tick < from.saturating_add(dur))
    }

    /// The earliest coordinator crash scheduled after `fired` — the tick
    /// the last one fired at, `None` before any has — if any: the crash
    /// the incumbent coordinator process is headed for. A standby taking
    /// over after a crash at tick `t` asks with `Some(t)`, so only later
    /// crashes still apply to it.
    pub fn coordinator_crash_after(&self, fired: Option<Tick>) -> Option<Tick> {
        let pending = |&&at: &&Tick| fired.is_none_or(|fired| at > fired);
        self.coordinator_crashes
            .iter()
            .filter(pending)
            .copied()
            .min()
    }

    /// Whether the link between the coordinator and `monitor` is cut at
    /// `tick`.
    pub fn partitioned(&self, monitor: MonitorId, tick: Tick) -> bool {
        self.partitions
            .iter()
            .any(|&(m, from, to)| m == monitor && tick >= from && tick < to)
    }

    /// WAL record indices this plan corrupts (for the coordinator's
    /// checkpoint writer).
    pub fn wal_corruptions(&self) -> &[u64] {
        &self.wal_corruptions
    }

    /// One order-independent fault decision: a pure hash of
    /// `(seed, lane, monitor, tick)` compared against `probability`.
    fn decide(&self, lane: u64, monitor: MonitorId, tick: Tick, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        if probability >= 1.0 {
            return true;
        }
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lane);
        h ^= u64::from(monitor.0).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= tick.wrapping_mul(0x94D0_49BB_1331_11EB);
        // The finalizer's avalanche decorrelates nearby (monitor, tick)
        // pairs.
        unit_f64(h) < probability
    }
}

fn clamp_probability(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_decisions_are_order_independent() {
        let plan = FaultPlan::new(11).with_drop_rate(FaultPath::ViolationReport, 0.4);
        // Query in two different orders; outcomes must match pairwise.
        let forward: Vec<bool> = (0..100)
            .flat_map(|t| (0..4).map(move |m| (m, t)))
            .map(|(m, t)| plan.drops(FaultPath::ViolationReport, MonitorId(m), t))
            .collect();
        let mut backward: Vec<((u32, Tick), bool)> = (0..100)
            .rev()
            .flat_map(|t| (0..4).rev().map(move |m| (m, t)))
            .map(|(m, t)| {
                (
                    (m, t),
                    plan.drops(FaultPath::ViolationReport, MonitorId(m), t),
                )
            })
            .collect();
        backward.sort_by_key(|&(key, _)| (key.1, key.0));
        let backward: Vec<bool> = backward.into_iter().map(|(_, d)| d).collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn plan_rate_approximates_probability() {
        let plan = FaultPlan::new(5).with_drop_rate(FaultPath::PollReply, 0.3);
        let drops = (0..100_000u64)
            .filter(|&t| plan.drops(FaultPath::PollReply, MonitorId(0), t))
            .count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn plan_paths_are_decorrelated() {
        let plan = FaultPlan::new(9)
            .with_drop_rate(FaultPath::ViolationReport, 0.5)
            .with_drop_rate(FaultPath::PollReply, 0.5);
        let report: Vec<bool> = (0..256)
            .map(|t| plan.drops(FaultPath::ViolationReport, MonitorId(0), t))
            .collect();
        let poll: Vec<bool> = (0..256)
            .map(|t| plan.drops(FaultPath::PollReply, MonitorId(0), t))
            .collect();
        assert_ne!(report, poll, "paths must use independent streams");
    }

    #[test]
    fn plan_crash_and_stall_windows() {
        let plan = FaultPlan::new(0)
            .with_crash(MonitorId(3), 40)
            .with_crash(MonitorId(3), 20)
            .with_stall(MonitorId(1), 10, 5);
        assert_eq!(plan.crash_tick(MonitorId(3)), Some(20), "earliest crash");
        assert_eq!(plan.crash_tick(MonitorId(0)), None);
        assert!(!plan.stalled(MonitorId(1), 9));
        assert!(plan.stalled(MonitorId(1), 10));
        assert!(plan.stalled(MonitorId(1), 14));
        assert!(!plan.stalled(MonitorId(1), 15));
        assert!(!plan.stalled(MonitorId(0), 12));
    }

    #[test]
    fn coordinator_crash_partition_and_wal_faults() {
        let plan = FaultPlan::new(3)
            .with_coordinator_crash(80)
            .with_coordinator_crash(40)
            .with_partition(&[MonitorId(1), MonitorId(2)], 30, 60)
            .with_wal_corruption(17);
        assert!(!plan.is_benign());
        assert_eq!(
            plan.coordinator_crash_after(None),
            Some(40),
            "earliest crash"
        );
        assert!(!plan.partitioned(MonitorId(1), 29));
        assert!(plan.partitioned(MonitorId(1), 30));
        assert!(plan.partitioned(MonitorId(2), 59));
        assert!(!plan.partitioned(MonitorId(2), 60), "`to` is exclusive");
        assert!(
            !plan.partitioned(MonitorId(0), 45),
            "other lanes unaffected"
        );
        assert_eq!(plan.wal_corruptions(), &[17]);
    }

    #[test]
    fn standby_plan_strips_consumed_coordinator_crashes() {
        let plan = FaultPlan::new(4)
            .with_coordinator_crash(40)
            .with_coordinator_crash(120);
        assert_eq!(
            plan.coordinator_crash_after(Some(40)),
            Some(120),
            "later crashes survive for the standby"
        );
        assert_eq!(plan.coordinator_crash_after(Some(39)), Some(40));
        assert_eq!(plan.coordinator_crash_after(Some(200)), None);
    }

    #[test]
    fn benign_plan_does_nothing() {
        let plan = FaultPlan::new(123);
        assert!(plan.is_benign());
        assert!(!plan.drops(FaultPath::ViolationReport, MonitorId(0), 0));
        assert!(!plan.duplicates(MonitorId(0), 0));
        assert!(!plan.delays(MonitorId(0), 0));
        let faulty = plan.clone().with_duplication_rate(1.0);
        assert!(!faulty.is_benign());
        assert!(faulty.duplicates(MonitorId(0), 0));
    }

    #[test]
    fn io_faults_make_a_plan_non_benign() {
        let plan = FaultPlan::new(8);
        assert!(plan.io().is_benign());
        let stormy = plan.with_io_faults(IoFaultPlan::new(8).with_enospc_window(100, 50));
        assert!(!stormy.is_benign());
        assert!(!stormy.io().is_benign());
        assert!(stormy.io().enospc_active(120));
        assert!(!stormy.io().enospc_active(150), "window end is exclusive");
    }
}
