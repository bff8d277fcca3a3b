//! The coordinator actor: local-violation processing, global polls and
//! error-allowance reallocation on its own thread.
//!
//! # Fault tolerance
//!
//! Unlike the original lock-step loop — which blocked forever on
//! `recv()` and hence hung if a single monitor died — every collection
//! phase is bounded by a configurable **tick deadline**. A monitor that
//! misses [`quarantine_after`](CoordinatorActor::with_quarantine_after)
//! consecutive deadlines is **quarantined**: the coordinator stops
//! waiting for it (so later ticks complete at full speed), reports the
//! event to the runner (whose supervisor may restart the monitor), and
//! switches to **degraded aggregation** — the missing monitor is counted
//! at its local threshold `T_i`, the largest value consistent with it
//! having nothing to report. Since `Σ T_i ≤ T`, this substitution never
//! suppresses an alert another monitor's excess would have caused: degraded
//! mode errs toward alerting, preserving the paper's no-missed-alert
//! property at the price of possible false alerts. A quarantined monitor
//! that reports on time again is restored immediately.
//!
//! # Durability and failover
//!
//! Every frame is epoch-stamped ([`MonitorFrame`]/[`ControlFrame`]). A
//! coordinator rejects monitor frames sealed at an older epoch — they can
//! only come from before a failover, e.g. from a monitor that sat out the
//! [`NewEpoch`](CoordinatorToMonitor::NewEpoch) broadcast behind a
//! network partition. Rejected frames are counted
//! ([`TickSummary::stale_epoch_frames`]) and answered with a fresh
//! `NewEpoch` at the end of the round (*epoch repair*), after which the
//! sender's next report is current-epoch and it re-earns active status
//! through the normal quarantine-recovery path. Quarantined monitors are
//! only awaited again on **fresh** evidence — a `Revived` handshake or a
//! frame for a not-yet-closed tick — so a delayed frame replayed after
//! quarantine cannot resurrect a dead monitor.
//!
//! With [`with_checkpoint`](CoordinatorActor::with_checkpoint) the
//! coordinator appends every tick outcome to a [`Wal`] and periodically
//! gathers full [`CoordinatorSnapshot`]s (per-monitor sampler state via
//! [`RequestSnapshot`](CoordinatorToMonitor::RequestSnapshot), allowances,
//! update schedule), which a warm standby replays to resume with learned
//! intervals instead of the paper's conservative `I_d` restart.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use volley_core::adaptation::PeriodReport;
use volley_core::allocation::ErrorAllocator;
use volley_core::snapshot::SamplerSnapshot;
use volley_core::task::MonitorId;
use volley_core::time::Tick;
use volley_obs::{names, Counter, Histogram, Obs, SpanLog};

use crate::checkpoint::{CoordinatorSnapshot, MultitaskSnapshot, TickOutcome, Wal, WalRecord};
use crate::failure::{FaultPath, FaultPlan};
use crate::link::MonitorLink;
use crate::message::{
    decode_line, encode, ControlFrame, CoordinatorToMonitor, CoordinatorToRunner, MonitorFrame,
    MonitorToCoordinator, TickSummary,
};

/// Default bound on how long the coordinator waits for one tick's
/// reports. Generous next to the microseconds a healthy monitor needs,
/// so deadline misses indicate real failures, not scheduling jitter.
pub const DEFAULT_TICK_DEADLINE: Duration = Duration::from_secs(1);

/// Default number of consecutive missed deadlines before quarantine.
pub const DEFAULT_QUARANTINE_AFTER: u32 = 3;

/// Checkpoint bookkeeping: the WAL plus the snapshot cadence.
#[derive(Debug)]
struct Checkpointer {
    wal: Wal,
    every: u64,
    /// Next tick at (or after) which a full snapshot is gathered.
    next: Tick,
}

/// The coordinator: evaluates the global condition on local-violation
/// reports and periodically redistributes the error allowance (§IV),
/// tolerating crashed, stalled and lossy monitors via tick deadlines,
/// quarantine and degraded aggregation, and surviving its own crash via
/// an epoch-fenced warm standby restoring from the write-ahead log.
#[derive(Debug)]
pub struct CoordinatorActor {
    global_threshold: f64,
    local_thresholds: Vec<f64>,
    allocator: ErrorAllocator,
    slack_ratio: f64,
    update_period: u64,
    next_update_tick: Tick,
    adaptive_allocation: bool,
    faults: FaultPlan,
    tick_deadline: Duration,
    quarantine_after: u32,
    epoch: u64,
    /// Last tick closed by a previous incarnation (failover resume).
    resume_last_tick: Option<Tick>,
    checkpoint: Option<Checkpointer>,
    /// Multi-task follower gate (§II.B): present only on follower-task
    /// coordinators driven by a [`LeaderState`] feed.
    multitask: Option<FollowerGate>,
    /// Observability handles (absent = zero instrumentation cost).
    obs: Option<CoordinatorObsHandles>,
}

/// The §II.B suppression policy: while the precondition (leader) task's
/// violation likelihood is low, this coordinator's monitors are paced to
/// a coarse interval; the moment the leader fires they snap back to their
/// adaptive schedules. The gate engages and releases on [`LeaderState`]
/// transitions fed by the runner.
///
/// [`LeaderState`]: MonitorToCoordinator::LeaderState
#[derive(Debug)]
struct FollowerGate {
    /// Coarse interval pushed to followers while the leader is calm.
    gated_interval: u32,
    /// Whether the gate is currently engaged (leader calm).
    engaged: bool,
    /// Lifetime engage/release transitions.
    flips: u64,
    /// Lifetime samples suppressed across this coordinator's fleet.
    suppressed: u64,
    /// Restored gate state not yet re-broadcast to the (fresh) monitors.
    needs_sync: bool,
    /// Whether this coordinator broadcasts [`SetGate`] itself. An
    /// external driver (the multi-task runner) turns this off and sends
    /// the gate frames FIFO-ordered with tick data, which keeps the tick
    /// at which a gate takes effect deterministic; the coordinator still
    /// tracks engage/release state, counts flips and suppressed samples,
    /// and checkpoints the gate.
    ///
    /// [`SetGate`]: CoordinatorToMonitor::SetGate
    broadcast: bool,
}

/// Pre-resolved obs instruments for the coordinator's hot paths.
#[derive(Debug)]
struct CoordinatorObsHandles {
    spans: SpanLog,
    tick_hist: Histogram,
    wal_hist: Histogram,
    checkpoint_hist: Histogram,
    polls: Counter,
    recvs: Counter,
    suppressed: Counter,
    gate_flips: Counter,
}

/// Mutable per-run liveness bookkeeping.
struct Liveness {
    quarantined: Vec<bool>,
    /// A quarantined monitor showing signs of life (a `Revived` notice
    /// from the runner's supervisor, or a *fresh* frame of its own): the
    /// next collection awaits it again so it can re-earn active status.
    reviving: Vec<bool>,
    consecutive_missed: Vec<u32>,
    last_tick: Option<Tick>,
    /// Payloads received and not yet read to their end. A payload holds
    /// one frame per line: a monitor host sends everything one drain of
    /// its inbox produced as one payload, the socket loop every line of
    /// one read.
    pending: VecDeque<Bytes>,
    /// How much of `pending`'s front payload has been read.
    cursor: usize,
    /// Frames read ahead of their round (defensive; lock-step rarely
    /// produces them), re-queued on `pending` when the next round opens.
    read_ahead: Vec<Bytes>,
    /// Stale-epoch frames rejected this round.
    stale_epoch: u32,
    /// Monitors that sent a stale-epoch frame and owe an epoch repair.
    needs_epoch: Vec<bool>,
    /// [`mark_reviving`](Self::mark_reviving) grew the awaited set since
    /// a collection last counted it.
    awaited_grew: bool,
    /// Per-round scratch, reset where its phase starts (kept here so a
    /// tick allocates none of it): who reported this tick, whom the poll
    /// waits for, who answered it.
    seen: Vec<bool>,
    awaiting: Vec<bool>,
    replied: Vec<bool>,
}

impl Liveness {
    fn new(monitors: usize) -> Self {
        Liveness {
            quarantined: vec![false; monitors],
            reviving: vec![false; monitors],
            consecutive_missed: vec![0; monitors],
            last_tick: None,
            pending: VecDeque::new(),
            cursor: 0,
            read_ahead: Vec::new(),
            stale_epoch: 0,
            needs_epoch: vec![false; monitors],
            awaited_grew: false,
            seen: vec![false; monitors],
            awaiting: vec![false; monitors],
            replied: vec![false; monitors],
        }
    }

    fn active(&self, idx: usize) -> bool {
        !self.quarantined[idx]
    }

    /// Whether a tick collection should wait for this monitor.
    fn awaited(&self, idx: usize) -> bool {
        !self.quarantined[idx] || self.reviving[idx]
    }

    fn any_quarantined(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }

    /// The next unread line of the pending payloads, newline included
    /// (a last line may lack it), as `(payload, range)`.
    fn next_line(&mut self) -> Option<std::ops::Range<usize>> {
        while let Some(payload) = self.pending.front() {
            let rest = &payload[self.cursor..];
            if rest.is_empty() {
                self.pending.pop_front();
                self.cursor = 0;
                continue;
            }
            let len = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |at| at + 1);
            self.cursor += len;
            return Some(self.cursor - len..self.cursor);
        }
        None
    }

    /// Marks evidence that a quarantined monitor is alive again.
    fn mark_reviving(&mut self, idx: usize) {
        if idx < self.quarantined.len() && self.quarantined[idx] && !self.reviving[idx] {
            self.reviving[idx] = true;
            self.consecutive_missed[idx] = 0;
            self.awaited_grew = true;
        }
    }
}

/// The monitor a protocol message claims to come from; `None` for
/// runner-originated control notices that speak for no monitor.
fn msg_sender(msg: &MonitorToCoordinator) -> Option<MonitorId> {
    match *msg {
        MonitorToCoordinator::TickDone { monitor, .. }
        | MonitorToCoordinator::PollReply { monitor, .. }
        | MonitorToCoordinator::Report { monitor, .. }
        | MonitorToCoordinator::Revived { monitor }
        | MonitorToCoordinator::StateSnapshot { monitor, .. } => Some(monitor),
        MonitorToCoordinator::LeaderState { .. } => None,
    }
}

/// Whether `msg` is *fresh* evidence of life — something a live monitor
/// would send now, as opposed to a delayed or replayed frame from an
/// already-closed tick. Only fresh evidence may resurrect a quarantined
/// monitor: awaiting one again on a stale delayed frame would stall every
/// round on a monitor that is in fact dead.
fn is_fresh(msg: &MonitorToCoordinator, last_tick: Option<Tick>) -> bool {
    match *msg {
        MonitorToCoordinator::Revived { .. } => true,
        MonitorToCoordinator::TickDone { tick, .. }
        | MonitorToCoordinator::PollReply { tick, .. } => last_tick.is_none_or(|lt| tick > lt),
        MonitorToCoordinator::Report { .. }
        | MonitorToCoordinator::StateSnapshot { .. }
        | MonitorToCoordinator::LeaderState { .. } => false,
    }
}

impl CoordinatorActor {
    /// Creates a coordinator for the monitors whose local thresholds are
    /// `local_thresholds` (one per monitor, used for degraded
    /// aggregation), sharing `global_threshold` and the allocator's
    /// global allowance.
    ///
    /// `adaptive_allocation` selects between the paper's `adapt` scheme
    /// and the static `even` baseline; `slack_ratio` must match the
    /// monitors' adaptation `γ`.
    pub fn new(
        global_threshold: f64,
        local_thresholds: Vec<f64>,
        allocator: ErrorAllocator,
        slack_ratio: f64,
        adaptive_allocation: bool,
    ) -> Self {
        let update_period = allocator.config().update_period_ticks;
        CoordinatorActor {
            global_threshold,
            local_thresholds,
            allocator,
            slack_ratio,
            update_period,
            next_update_tick: update_period,
            adaptive_allocation,
            faults: FaultPlan::default(),
            tick_deadline: DEFAULT_TICK_DEADLINE,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            epoch: 0,
            resume_last_tick: None,
            checkpoint: None,
            multitask: None,
            obs: None,
        }
    }

    /// Enables the §II.B follower gate: while the leader task is calm
    /// (per [`LeaderState`](MonitorToCoordinator::LeaderState) notices
    /// fed by the runner), every monitor of this task is paced to at most
    /// one sample per `gated_interval` ticks (minimum 2 — a gate of 1
    /// would suppress nothing). The gate starts released and engages on
    /// the first calm notice.
    #[must_use]
    pub fn with_multitask(mut self, gated_interval: u32) -> Self {
        self.multitask = Some(FollowerGate {
            gated_interval: gated_interval.max(2),
            engaged: false,
            flips: 0,
            suppressed: 0,
            needs_sync: false,
            broadcast: true,
        });
        self
    }

    /// Hands gate *propagation* to an external driver: the coordinator
    /// stops broadcasting [`CoordinatorToMonitor::SetGate`] and only
    /// tracks gate state (engage/release transitions, suppressed-sample
    /// counts, checkpointing). The driver must send the gate frames on
    /// each monitor's inbox link itself, FIFO-ordered with tick data, so
    /// the tick at which a gate takes effect is deterministic. Must
    /// follow [`with_multitask`](Self::with_multitask).
    #[must_use]
    pub fn with_external_gate_driver(mut self) -> Self {
        if let Some(gate) = self.multitask.as_mut() {
            gate.broadcast = false;
        }
        self
    }

    /// Restores follower-gate state from a checkpoint (failover resume).
    /// Must follow [`with_multitask`](Self::with_multitask); an engaged
    /// gate is re-broadcast to the (freshly spawned, ungated) monitors on
    /// the first tick round, so suppression survives the failover intact.
    #[must_use]
    pub fn with_multitask_resume(mut self, snapshot: &MultitaskSnapshot) -> Self {
        if let Some(gate) = self.multitask.as_mut() {
            gate.engaged = snapshot.engaged;
            gate.flips = snapshot.flips;
            gate.suppressed = snapshot.suppressed;
            gate.needs_sync = snapshot.engaged;
        }
        self
    }

    /// Installs a deterministic fault plan for the monitor→coordinator
    /// message paths.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches observability: spans + latency histograms for the tick
    /// round ([`names::COORDINATOR_TICK_NS`]), WAL appends
    /// ([`names::WAL_APPEND_NS`]) and checkpoint writes
    /// ([`names::CHECKPOINT_WRITE_NS`]), plus counters for global polls
    /// and received transport frames. Handles are resolved once so the
    /// tick loop never touches the registry mutex.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = Some(CoordinatorObsHandles {
            spans: obs.spans().clone(),
            tick_hist: obs.registry().histogram(names::COORDINATOR_TICK_NS),
            wal_hist: obs.registry().histogram(names::WAL_APPEND_NS),
            checkpoint_hist: obs.registry().histogram(names::CHECKPOINT_WRITE_NS),
            polls: obs.registry().counter(names::COORDINATOR_POLLS_TOTAL),
            recvs: obs.registry().counter(names::TRANSPORT_RECVS_TOTAL),
            suppressed: obs
                .registry()
                .counter(names::MULTITASK_SUPPRESSED_SAMPLES_TOTAL),
            gate_flips: obs.registry().counter(names::MULTITASK_GATE_FLIPS_TOTAL),
        });
        self
    }

    /// Bounds how long each collection phase waits for monitor replies.
    #[must_use]
    pub fn with_tick_deadline(mut self, deadline: Duration) -> Self {
        self.tick_deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// Sets how many consecutive missed deadlines quarantine a monitor
    /// (minimum 1).
    #[must_use]
    pub fn with_quarantine_after(mut self, rounds: u32) -> Self {
        self.quarantine_after = rounds.max(1);
        self
    }

    /// Seals every control frame at `epoch` and rejects monitor frames
    /// from older epochs. A standby taking over bumps the epoch so the
    /// fleet can tell the new primary's traffic from the old one's.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Resumes after a failover: `last_tick` is the last tick the
    /// previous incarnation closed (`None` if none completed) and
    /// `next_update_tick` restores the §IV-B reallocation schedule.
    #[must_use]
    pub fn with_resume(mut self, last_tick: Option<Tick>, next_update_tick: Tick) -> Self {
        self.resume_last_tick = last_tick;
        self.next_update_tick = next_update_tick;
        if let Some(cp) = self.checkpoint.as_mut() {
            cp.next = last_tick.map_or(0, |t| t + cp.every);
        }
        self
    }

    /// Checkpoints to `wal`: every tick outcome is appended, and every
    /// `every` ticks (minimum 1) the coordinator gathers a full snapshot
    /// of its own and every reachable monitor's adaptation state.
    #[must_use]
    pub fn with_checkpoint(mut self, wal: Wal, every: u64) -> Self {
        let every = every.max(1);
        let next = self.resume_last_tick.map_or(0, |t| t + every);
        self.checkpoint = Some(Checkpointer { wal, every, next });
        self
    }

    /// The global threshold.
    pub fn global_threshold(&self) -> f64 {
        self.global_threshold
    }

    /// The epoch this coordinator seals its frames with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn monitors(&self) -> usize {
        self.local_thresholds.len()
    }

    /// Whether monitor `idx` is reachable (not partitioned) at `tick`.
    fn reachable(&self, idx: usize, tick: Tick) -> bool {
        !self.faults.partitioned(MonitorId(idx as u32), tick)
    }

    /// Receives the next frame: the next line of the pending payloads
    /// first, then the channel, bounded by `deadline`. `Ok(None)` means
    /// the deadline passed; `Err(())` means every sender disconnected.
    fn recv_frame<'a>(
        &self,
        live: &'a mut Liveness,
        from_monitors: &Receiver<Bytes>,
        deadline: Instant,
    ) -> Result<Option<&'a [u8]>, ()> {
        loop {
            if let Some(line) = live.next_line() {
                return Ok(Some(&live.pending[0][line]));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            match from_monitors.recv_timeout(remaining) {
                Ok(payload) => {
                    if let Some(handles) = &self.obs {
                        let frames = payload.split_inclusive(|&b| b == b'\n').count();
                        handles.recvs.add(frames as u64);
                    }
                    live.pending.push_back(payload);
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(()),
            }
        }
    }

    /// Receives and decodes the next protocol message within `deadline`,
    /// enforcing the epoch fence, transparently consuming supervisor
    /// `Revived` notices and noting *fresh* life signs from quarantined
    /// monitors. `Ok(None)` means the deadline passed; `Err(())` means
    /// every sender disconnected.
    fn recv_msg(
        &self,
        live: &mut Liveness,
        from_monitors: &Receiver<Bytes>,
        deadline: Instant,
    ) -> Result<Option<MonitorToCoordinator>, ()> {
        loop {
            let Some(frame) = self.recv_frame(live, from_monitors, deadline)? else {
                return Ok(None);
            };
            let Ok(MonitorFrame { epoch, msg }) = decode_line::<MonitorFrame>(frame) else {
                continue; // malformed frame: skip this line only
            };
            let sender = msg_sender(&msg).map(|id| id.0 as usize);
            if epoch < self.epoch {
                // A frame from before the failover — e.g. a monitor that
                // missed the NewEpoch broadcast behind a partition, or
                // traffic from the deposed primary's world. Reject it
                // (split-brain safety) but schedule an epoch repair so
                // the sender can rejoin the current epoch.
                live.stale_epoch += 1;
                if let Some(idx) = sender.filter(|&i| i < self.monitors()) {
                    live.needs_epoch[idx] = true;
                }
                continue;
            }
            if let Some(idx) = sender.filter(|&i| i < self.monitors()) {
                if is_fresh(&msg, live.last_tick) {
                    live.mark_reviving(idx);
                }
            }
            if matches!(msg, MonitorToCoordinator::Revived { .. }) {
                continue; // control notice, not a protocol reply
            }
            return Ok(Some(msg));
        }
    }

    /// Runs the coordinator loop until the monitor channel disconnects,
    /// consuming the actor.
    ///
    /// `from_monitors` carries encoded [`MonitorFrame`]s; `to_monitors[i]`
    /// is monitor *i*'s inbox link; each tick's
    /// [`CoordinatorToRunner::Summary`] — interleaved with quarantine and
    /// recovery events — is emitted on `to_runner`.
    pub fn run(
        mut self,
        from_monitors: Receiver<Bytes>,
        to_monitors: Vec<MonitorLink>,
        to_runner: Sender<Bytes>,
    ) {
        let n = self.monitors();
        debug_assert_eq!(to_monitors.len(), n);
        let mut live = Liveness::new(n);
        live.last_tick = self.resume_last_tick;
        while let Ok(true) = self.run_tick(&mut live, &from_monitors, &to_monitors, &to_runner) {}
    }

    /// One full tick round. `Ok(true)` continues, `Ok(false)` stops
    /// cleanly (runner gone, or an injected coordinator crash fired),
    /// `Err(())` stops on monitor disconnect.
    fn run_tick(
        &mut self,
        live: &mut Liveness,
        from_monitors: &Receiver<Bytes>,
        to_monitors: &[MonitorLink],
        to_runner: &Sender<Bytes>,
    ) -> Result<bool, ()> {
        let n = self.monitors();
        live.stale_epoch = 0;
        live.pending.extend(live.read_ahead.drain(..));
        // One span + histogram pair covers the whole round — collection
        // wait included, which is what makes a stalled monitor visible as
        // coordinator tick latency.
        let _tick_span = self
            .obs
            .as_ref()
            .map(|h| h.spans.span_timed("coordinator_tick", &h.tick_hist));

        // Phase 1: collect TickDone from every awaited monitor — active
        // ones plus quarantined ones showing signs of life, minus any the
        // fault plan has partitioned away — bounded by the tick deadline.
        // When nothing at all is awaited (everything quarantined or
        // unreachable) the round still waits out the deadline: that
        // throttles the loop and gives `Revived` notices a chance to
        // arrive.
        let deadline = Instant::now() + self.tick_deadline;
        live.seen.fill(false);
        let mut round_tick: Option<Tick> = None;
        let mut scheduled = 0u32;
        let mut violations = 0u32;
        let mut suppressed_samples = 0u32;
        // `(awaited, outstanding)`: how many monitors this collection
        // waits for and how many of them have yet to report. Counted over
        // the fleet only when the awaited set can have changed — the round
        // opens, its tick is fixed, `recv_msg` revives a monitor — and
        // kept by decrement otherwise (a recount per frame is O(n²) a
        // tick).
        let mut waiting: Option<(usize, usize)> = None;
        loop {
            // Partitioned monitors are never waited for — their frames
            // cannot arrive — but still count as missing below, so a long
            // partition quarantines them and degraded aggregation takes
            // over.
            let expect = round_tick.unwrap_or_else(|| live.last_tick.map_or(0, |t| t + 1));
            let awaited = |live: &Liveness, i: usize| live.awaited(i) && self.reachable(i, expect);
            if std::mem::take(&mut live.awaited_grew) {
                waiting = None;
            }
            let (awaited_count, outstanding) = *waiting.get_or_insert_with(|| {
                let awaited_count = (0..n).filter(|&i| awaited(live, i)).count();
                let reported = (0..n).filter(|&i| awaited(live, i) && live.seen[i]).count();
                (awaited_count, awaited_count - reported)
            });
            if awaited_count > 0 && outstanding == 0 {
                break;
            }
            let Some(msg) = self.recv_msg(live, from_monitors, deadline)? else {
                break; // deadline: finish the round with whoever reported
            };
            if let MonitorToCoordinator::LeaderState { active, .. } = msg {
                // The runner sends leader-state notices ahead of a tick's
                // data, so the gate decision lands before this round's
                // reports are produced downstream.
                self.apply_leader_state(active, to_monitors);
                continue;
            }
            let MonitorToCoordinator::TickDone {
                monitor,
                tick: t,
                sampled,
                violation,
                suppressed,
            } = msg
            else {
                continue; // stale replies/reports from previous phases
            };
            let idx = monitor.0 as usize;
            if idx >= n {
                continue;
            }
            match round_tick {
                None => {
                    if live.last_tick.is_some_and(|lt| t <= lt) {
                        continue; // late frame for an already-closed tick
                    }
                    round_tick = Some(t);
                    waiting = None; // reachability is judged at `t` from here on
                }
                Some(rt) if t < rt => continue, // late frame
                Some(rt) if t > rt => {
                    // Read-ahead (possible only if the runner raced ahead);
                    // keep it for the next round.
                    live.read_ahead.push(MonitorFrame::seal(self.epoch, msg));
                    continue;
                }
                Some(_) => {}
            }
            if live.seen[idx] {
                continue; // duplicated frame
            }
            live.seen[idx] = true;
            if let Some((_, outstanding)) = waiting.as_mut() {
                if !live.awaited_grew && live.awaited(idx) && self.reachable(idx, expect) {
                    *outstanding -= 1;
                }
            }
            live.consecutive_missed[idx] = 0;
            if live.quarantined[idx] {
                live.quarantined[idx] = false;
                live.reviving[idx] = false;
                let event = CoordinatorToRunner::MonitorRecovered { monitor, tick: t };
                if to_runner.send(encode(&event)).is_err() {
                    return Ok(false);
                }
            }
            if sampled {
                scheduled += 1;
            }
            if suppressed {
                suppressed_samples += 1;
            }
            // The report path may be lossy: a dropped report means the
            // coordinator never learns of the local violation.
            if violation && !self.faults.drops(FaultPath::ViolationReport, monitor, t) {
                violations += 1;
            }
        }
        let tick = match round_tick {
            Some(t) => t,
            // Nothing arrived (every monitor quarantined or silent): the
            // lock-step still advances one tick so the runner's loop —
            // which sent this tick's data — gets its summary.
            None => live.last_tick.map_or(0, |t| t + 1),
        };
        live.last_tick = Some(tick);

        // An injected coordinator crash: the primary vanishes without a
        // summary and without checkpointing this tick, exactly as a real
        // crash mid-round would — tick `tick` is newer than the
        // checkpoint horizon and the standby must re-drive it.
        if self
            .faults
            .coordinator_crash_tick()
            .is_some_and(|c| tick >= c)
        {
            return Ok(false);
        }

        // Deadline bookkeeping: missed reports, quarantine decisions.
        let mut missing_reports = 0u32;
        for idx in 0..n {
            if live.quarantined[idx] {
                missing_reports += 1;
                // A reviving monitor that keeps missing deadlines loses
                // its comeback credit (stop waiting for it again).
                if live.reviving[idx] {
                    live.consecutive_missed[idx] += 1;
                    if live.consecutive_missed[idx] >= self.quarantine_after {
                        live.reviving[idx] = false;
                    }
                }
                continue;
            }
            if live.seen[idx] {
                continue;
            }
            missing_reports += 1;
            live.consecutive_missed[idx] += 1;
            if live.consecutive_missed[idx] >= self.quarantine_after {
                live.quarantined[idx] = true;
                let event = CoordinatorToRunner::MonitorQuarantined {
                    monitor: MonitorId(idx as u32),
                    tick,
                    consecutive_missed: live.consecutive_missed[idx],
                };
                if to_runner.send(encode(&event)).is_err() {
                    return Ok(false);
                }
            }
        }

        // Phase 2: global poll on any surviving local violation.
        let mut poll_samples = 0u32;
        let mut polled = false;
        let mut alerted = false;
        let mut degraded = false;
        if violations > 0 {
            polled = true;
            if let Some(handles) = &self.obs {
                handles.polls.inc();
            }
            // Wait only for monitors that can answer in time: active,
            // reachable, poll deliverable, reply neither dropped nor
            // delayed by the plan (drop/delay decisions are pure functions
            // shared with the injection sites, so predicting them here
            // changes nothing about outcomes — it only avoids pointless
            // deadline waits).
            live.awaiting.fill(false);
            live.replied.fill(false);
            let poll = ControlFrame::seal(self.epoch, CoordinatorToMonitor::Poll { tick });
            // Awaited monitors yet to answer, kept by decrement (a recount
            // per reply is O(n²) a polled tick).
            let mut outstanding = 0usize;
            for (idx, link) in to_monitors.iter().enumerate().take(n) {
                if !live.active(idx) || !self.reachable(idx, tick) {
                    continue; // unreachable; aggregate at T_i
                }
                let monitor = MonitorId(idx as u32);
                if !link.send(poll.clone()) {
                    continue; // monitor process gone; aggregate at T_i
                }
                live.awaiting[idx] = !self.faults.drops(FaultPath::PollReply, monitor, tick)
                    && !self.faults.delays(monitor, tick);
                outstanding += usize::from(live.awaiting[idx]);
            }
            let mut aggregate = 0.0;
            let poll_deadline = Instant::now() + self.tick_deadline;
            while outstanding > 0 {
                let Some(msg) = self.recv_msg(live, from_monitors, poll_deadline)? else {
                    break;
                };
                let MonitorToCoordinator::PollReply {
                    monitor,
                    tick: t,
                    value,
                    forced_sample,
                } = msg
                else {
                    continue;
                };
                let idx = monitor.0 as usize;
                if idx >= n || t != tick || live.replied[idx] {
                    continue; // stale, foreign or duplicated reply
                }
                if self.faults.drops(FaultPath::PollReply, monitor, tick) {
                    continue; // the network ate this reply
                }
                live.replied[idx] = true;
                if live.awaiting[idx] {
                    outstanding -= 1;
                }
                aggregate += value;
                if forced_sample {
                    poll_samples += 1;
                }
            }
            // Degraded aggregation: every monitor that did not answer is
            // counted at its local threshold T_i — the largest value it
            // could hold without having reported a local violation.
            for (idx, &got_reply) in live.replied.iter().enumerate() {
                if !got_reply {
                    aggregate += self.local_thresholds[idx];
                    degraded = true;
                }
            }
            alerted = aggregate > self.global_threshold;
        } else if live.any_quarantined() {
            degraded = missing_reports > 0;
        }

        // Phase 3: periodic allowance reallocation.
        if tick >= self.next_update_tick {
            self.next_update_tick = tick + self.update_period;
            if self.adaptive_allocation && self.monitors() > 1 {
                self.reallocate(live, from_monitors, to_monitors)?;
            }
        }

        // Phase 4: durability — append the tick outcome, snapshot on
        // schedule.
        let outcome = TickOutcome {
            epoch: self.epoch,
            tick,
            polled,
            alerted,
            local_violations: violations,
        };
        self.checkpoint_tick(live, from_monitors, to_monitors, outcome);

        // Epoch repair: answer every stale-epoch sender with the current
        // epoch so it can rejoin (its next report will be fresh and
        // current-epoch, re-earning active status the normal way).
        for (idx, link) in to_monitors.iter().enumerate().take(n) {
            if std::mem::take(&mut live.needs_epoch[idx]) {
                let repair = CoordinatorToMonitor::NewEpoch { epoch: self.epoch };
                let _ = link.send(ControlFrame::seal(self.epoch, repair));
            }
        }

        // Follower-gate accounting, plus the failover resync: a restored
        // engaged gate is pushed to the freshly spawned (ungated)
        // monitors here if no LeaderState notice beat us to it.
        let mut gated = false;
        if let Some(gate) = self.multitask.as_mut() {
            gate.suppressed += u64::from(suppressed_samples);
            gated = gate.engaged;
            if std::mem::take(&mut gate.needs_sync) && gate.broadcast {
                let interval = gate.engaged.then_some(gate.gated_interval);
                let set = CoordinatorToMonitor::SetGate { interval };
                let frame = ControlFrame::seal(self.epoch, set);
                for link in to_monitors.iter().take(n) {
                    let _ = link.send(frame.clone());
                }
            }
        }
        if suppressed_samples > 0 {
            if let Some(handles) = &self.obs {
                handles.suppressed.add(u64::from(suppressed_samples));
            }
        }

        let summary = CoordinatorToRunner::Summary(TickSummary {
            tick,
            scheduled_samples: scheduled,
            poll_samples,
            local_violations: violations,
            polled,
            alerted,
            missing_reports,
            degraded,
            stale_epoch_frames: live.stale_epoch,
            suppressed_samples,
            gated,
        });
        Ok(to_runner.send(encode(&summary)).is_ok())
    }

    /// Applies a leader violation-likelihood transition to the follower
    /// gate: a calm leader engages the gate (broadcast the coarse
    /// interval), an active leader releases it (broadcast the snap-back).
    /// No-op when this coordinator has no gate configured.
    fn apply_leader_state(&mut self, active: bool, to_monitors: &[MonitorLink]) {
        let Some(gate) = self.multitask.as_mut() else {
            return;
        };
        let engage = !active;
        let flip = engage != gate.engaged;
        let resync = std::mem::take(&mut gate.needs_sync);
        if !flip && !resync {
            return;
        }
        gate.engaged = engage;
        if flip {
            gate.flips += 1;
        }
        if gate.broadcast {
            let interval = engage.then_some(gate.gated_interval);
            let frame = ControlFrame::seal(self.epoch, CoordinatorToMonitor::SetGate { interval });
            for link in to_monitors {
                let _ = link.send(frame.clone());
            }
        }
        if flip {
            if let Some(handles) = &self.obs {
                handles.gate_flips.inc();
            }
        }
    }

    /// Appends `outcome` to the WAL and, on the snapshot schedule,
    /// gathers and appends a full [`CoordinatorSnapshot`]. WAL I/O errors
    /// are swallowed: durability is best-effort and never worth crashing
    /// the primary over (a standby restoring from a short WAL just falls
    /// back to conservative restarts for the missing state).
    fn checkpoint_tick(
        &mut self,
        live: &mut Liveness,
        from_monitors: &Receiver<Bytes>,
        to_monitors: &[MonitorLink],
        outcome: TickOutcome,
    ) {
        let due = match self.checkpoint.as_mut() {
            None => return,
            Some(cp) => {
                {
                    let _timed = self
                        .obs
                        .as_ref()
                        .map(|h| h.spans.span_timed("wal_append", &h.wal_hist));
                    let _ = cp.wal.append(&WalRecord::Tick(outcome));
                }
                let due = outcome.tick >= cp.next;
                if due {
                    cp.next = outcome.tick + cp.every;
                }
                due
            }
        };
        if !due {
            return;
        }
        // The checkpoint span covers the full durability round: gathering
        // sampler snapshots from the fleet plus the WAL write.
        let _timed = self
            .obs
            .as_ref()
            .map(|h| h.spans.span_timed("checkpoint_write", &h.checkpoint_hist));
        let samplers = self.gather_snapshots(live, from_monitors, to_monitors, outcome.tick);
        let snapshot = CoordinatorSnapshot {
            epoch: self.epoch,
            tick: outcome.tick,
            next_update_tick: self.next_update_tick,
            allowances: self.allocator.allowances().to_vec(),
            samplers,
            multitask: self.multitask.as_ref().map(|g| MultitaskSnapshot {
                engaged: g.engaged,
                flips: g.flips,
                suppressed: g.suppressed,
            }),
        };
        if let Some(cp) = self.checkpoint.as_mut() {
            let _ = cp.wal.append_snapshot(&snapshot);
        }
    }

    /// Asks every active, reachable monitor for its sampler state and
    /// collects the replies within one tick deadline. Monitors that
    /// cannot answer get a `None` slot — after a failover they restart
    /// conservatively at `I_d` instead of restoring.
    fn gather_snapshots(
        &self,
        live: &mut Liveness,
        from_monitors: &Receiver<Bytes>,
        to_monitors: &[MonitorLink],
        tick: Tick,
    ) -> Vec<Option<SamplerSnapshot>> {
        let n = self.monitors();
        let mut snaps: Vec<Option<SamplerSnapshot>> = vec![None; n];
        let mut awaiting = vec![false; n];
        // Awaited monitors yet to answer, kept by decrement.
        let mut outstanding = 0usize;
        let request = ControlFrame::seal(self.epoch, CoordinatorToMonitor::RequestSnapshot);
        for idx in 0..n {
            if live.active(idx) && self.reachable(idx, tick) {
                awaiting[idx] = to_monitors[idx].send(request.clone());
                outstanding += usize::from(awaiting[idx]);
            }
        }
        let deadline = Instant::now() + self.tick_deadline;
        while outstanding > 0 {
            let Ok(Some(msg)) = self.recv_msg(live, from_monitors, deadline) else {
                break; // deadline or disconnect: checkpoint what we have
            };
            if let MonitorToCoordinator::StateSnapshot { monitor, snapshot } = msg {
                let idx = monitor.0 as usize;
                if idx < n {
                    outstanding -= usize::from(awaiting[idx] && snaps[idx].is_none());
                    snaps[idx] = Some(snapshot);
                }
            }
        }
        snaps
    }

    /// One §IV-B updating round: gather period reports, update the
    /// allocator, push new allowances. If any monitor is quarantined or
    /// misses the deadline, the round is skipped and every monitor simply
    /// carries its previous allowance forward — reallocation is an
    /// optimization, never worth stalling or crashing the task over.
    fn reallocate(
        &mut self,
        live: &mut Liveness,
        from_monitors: &Receiver<Bytes>,
        to_monitors: &[MonitorLink],
    ) -> Result<(), ()> {
        let n = self.monitors();
        if live.any_quarantined() {
            return Ok(());
        }
        let request = ControlFrame::seal(self.epoch, CoordinatorToMonitor::RequestReport);
        for tx in to_monitors {
            if !tx.send(request.clone()) {
                return Ok(()); // dead monitor: skip the round
            }
        }
        let mut reports: Vec<Option<PeriodReport>> = vec![None; n];
        let mut received = 0usize;
        let deadline = Instant::now() + self.tick_deadline;
        while received < n {
            let Some(msg) = self.recv_msg(live, from_monitors, deadline)? else {
                return Ok(()); // deadline: carry allowances forward
            };
            if let MonitorToCoordinator::Report { monitor, report } = msg {
                let idx = monitor.0 as usize;
                if idx < n && reports[idx].is_none() {
                    reports[idx] = Some(report);
                    received += 1;
                }
            }
        }
        let reports: Vec<PeriodReport> = reports.into_iter().flatten().collect();
        if let Ok(decision) = self.allocator.update(&reports, self.slack_ratio) {
            if decision.reallocated {
                for (tx, &err) in to_monitors.iter().zip(decision.allowances.iter()) {
                    let set = CoordinatorToMonitor::SetAllowance { err };
                    let _ = tx.send(ControlFrame::seal(self.epoch, set));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Replay;
    use crate::message::decode;
    use crossbeam::channel::unbounded;
    use std::path::PathBuf;
    use volley_core::allocation::AllocationConfig;

    /// Receives runner frames until the next tick summary, returning it
    /// plus any liveness events seen on the way.
    fn next_summary(runner_rx: &Receiver<Bytes>) -> (TickSummary, Vec<CoordinatorToRunner>) {
        let mut events = Vec::new();
        loop {
            let frame = runner_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("coordinator alive");
            match decode::<CoordinatorToRunner>(&frame).expect("well-formed frame") {
                CoordinatorToRunner::Summary(summary) => return (summary, events),
                event => events.push(event),
            }
        }
    }

    fn new_coordinator(threshold: f64) -> CoordinatorActor {
        let allocator = ErrorAllocator::new(AllocationConfig::default(), 0.01, 1).unwrap();
        CoordinatorActor::new(threshold, vec![threshold], allocator, 0.2, true)
    }

    /// Drives a 1-monitor coordinator by hand: send sealed frames,
    /// receive summaries.
    fn harness_with(
        coord: CoordinatorActor,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        let (mon_tx, mon_rx) = unbounded::<Bytes>();
        let (to_mon_tx, to_mon_rx) = unbounded::<Bytes>();
        let (runner_tx, runner_rx) = unbounded::<Bytes>();
        let handle = std::thread::spawn(move || {
            coord.run(mon_rx, vec![MonitorLink::new(to_mon_tx)], runner_tx)
        });
        (mon_tx, to_mon_rx, runner_rx, handle)
    }

    fn harness(
        threshold: f64,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        harness_with(new_coordinator(threshold))
    }

    fn seal0(msg: MonitorToCoordinator) -> Bytes {
        MonitorFrame::seal(0, msg)
    }

    #[test]
    fn quiet_tick_produces_summary_without_poll() {
        let (mon_tx, _to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: false,
                suppressed: false,
            }))
            .unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.scheduled_samples, 1);
        assert!(!summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert_eq!(summary.stale_epoch_frames, 0);
        assert!(events.is_empty());
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn violation_triggers_poll_and_alert() {
        let (mon_tx, to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 3,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        // Coordinator must ask for a poll, sealed at its epoch.
        let poll: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert_eq!(poll.epoch, 0);
        assert!(matches!(poll.msg, CoordinatorToMonitor::Poll { tick: 3 }));
        // Reply above the threshold.
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 3,
                value: 250.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.alerted);
        assert!(!summary.degraded);
        assert_eq!(summary.local_violations, 1);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn poll_below_threshold_does_not_alert() {
        let (mon_tx, to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        let _: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 0,
                value: 50.0,
                forced_sample: true,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.poll_samples, 1);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn dropped_reports_suppress_polls() {
        // Drop every report.
        let plan = FaultPlan::new(1).with_drop_rate(FaultPath::ViolationReport, 1.0);
        let (mon_tx, to_mon_rx, runner_rx, handle) =
            harness_with(new_coordinator(100.0).with_fault_plan(plan));
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(!summary.polled, "dropped report must suppress the poll");
        assert_eq!(summary.local_violations, 0);
        assert!(to_mon_rx.try_recv().is_err());
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn disconnect_terminates_coordinator() {
        let (mon_tx, _to_mon, _runner_rx, handle) = harness(10.0);
        drop(mon_tx);
        handle.join().unwrap();
    }

    /// A 2-monitor coordinator with a short deadline for fault tests.
    fn degraded_coordinator(quarantine_after: u32) -> CoordinatorActor {
        let allocator = ErrorAllocator::new(AllocationConfig::default(), 0.01, 2).unwrap();
        CoordinatorActor::new(100.0, vec![50.0, 50.0], allocator, 0.2, false)
            .with_tick_deadline(Duration::from_millis(30))
            .with_quarantine_after(quarantine_after)
    }

    #[allow(clippy::type_complexity)]
    fn degraded_harness_with(
        coord: CoordinatorActor,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        let (mon_tx, mon_rx) = unbounded::<Bytes>();
        let (to_mon0_tx, to_mon0_rx) = unbounded::<Bytes>();
        let (to_mon1_tx, to_mon1_rx) = unbounded::<Bytes>();
        let (runner_tx, runner_rx) = unbounded::<Bytes>();
        let handle = std::thread::spawn(move || {
            coord.run(
                mon_rx,
                vec![MonitorLink::new(to_mon0_tx), MonitorLink::new(to_mon1_tx)],
                runner_tx,
            )
        });
        (mon_tx, to_mon0_rx, to_mon1_rx, runner_rx, handle)
    }

    #[allow(clippy::type_complexity)]
    fn degraded_harness(
        quarantine_after: u32,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        degraded_harness_with(degraded_coordinator(quarantine_after))
    }

    fn tick_done(monitor: u32, tick: Tick, violation: bool) -> Bytes {
        seal0(MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled: true,
            violation,
            suppressed: false,
        })
    }

    #[test]
    fn silent_monitor_is_quarantined_then_aggregated_at_threshold() {
        let (mon_tx, to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(2);
        // Monitor 1 never reports. Two rounds of misses quarantine it.
        for tick in 0..2 {
            mon_tx.send(tick_done(0, tick, false)).unwrap();
            let (summary, events) = next_summary(&runner_rx);
            assert_eq!(summary.tick, tick);
            assert_eq!(summary.missing_reports, 1);
            if tick == 1 {
                assert!(matches!(
                    events.as_slice(),
                    [CoordinatorToRunner::MonitorQuarantined {
                        monitor: MonitorId(1),
                        consecutive_missed: 2,
                        ..
                    }]
                ));
            } else {
                assert!(events.is_empty());
            }
        }
        // Quarantined: the next round completes instantly and a local
        // violation polls only monitor 0, with monitor 1 counted at its
        // local threshold T_1 = 50 → 60 + 50 > 100 alerts (degraded).
        mon_tx.send(tick_done(0, 2, true)).unwrap();
        let poll: ControlFrame = decode(&to_mon0.recv().unwrap()).unwrap();
        assert!(matches!(poll.msg, CoordinatorToMonitor::Poll { tick: 2 }));
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 2,
                value: 60.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.degraded, "aggregation substituted T_1");
        assert!(summary.alerted, "60 + T_1(50) > 100");
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn quarantined_monitor_recovers_on_reporting_again() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(1);
        // One missed round quarantines monitor 1 immediately.
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined { .. }]
        ));
        // Next tick both report. Monitor 1's frame is enqueued first
        // (channel FIFO), so the round sees its life sign before the
        // active set is satisfied: recovery event, full strength again.
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorRecovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn revived_notice_makes_the_round_await_the_monitor() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(1);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined { .. }]
        ));
        // The supervisor announces the restart *before* any tick-1 frame.
        mon_tx
            .send(seal0(MonitorToCoordinator::Revived {
                monitor: MonitorId(1),
            }))
            .unwrap();
        // Even with the active monitor's frame first, the round now waits
        // for monitor 1 instead of closing without it.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.missing_reports, 0);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorRecovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn duplicate_and_stale_frames_are_discarded() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(3);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        mon_tx.send(tick_done(0, 0, false)).unwrap(); // duplicate
        mon_tx.send(tick_done(1, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.scheduled_samples, 2, "duplicate not double-counted");
        // A stale frame for tick 0 must not satisfy tick 1's collection.
        mon_tx.send(tick_done(0, 0, true)).unwrap(); // stale (late) frame
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 1);
        assert_eq!(summary.local_violations, 0, "stale violation ignored");
        drop(mon_tx);
        handle.join().unwrap();
    }

    /// One payload holding `frames` back to back, as a monitor host sends
    /// a drain of its inbox.
    fn payload(frames: &[Bytes]) -> Bytes {
        Bytes::from(
            frames
                .iter()
                .flat_map(|frame| frame.iter().copied())
                .collect::<Vec<u8>>(),
        )
    }

    /// A 2-monitor coordinator whose deadline is long enough that a test
    /// waiting one out fails its own timing assertion.
    fn patient_coordinator() -> CoordinatorActor {
        degraded_coordinator(3).with_tick_deadline(Duration::from_secs(4))
    }

    /// The next summary, which must arrive without a deadline wait.
    fn prompt_summary(runner_rx: &Receiver<Bytes>) -> TickSummary {
        let started = Instant::now();
        let (summary, events) = next_summary(runner_rx);
        assert!(events.is_empty(), "unexpected events {events:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the round waited out its deadline"
        );
        summary
    }

    #[test]
    fn a_malformed_line_in_a_payload_skips_only_that_line() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) =
            degraded_harness_with(patient_coordinator());
        let garbage = Bytes::from_static(b"{\"epoch\":0,\"msg\":garbage}\n");
        mon_tx
            .send(payload(&[
                tick_done(0, 0, false),
                garbage,
                tick_done(1, 0, false),
            ]))
            .unwrap();
        let summary = prompt_summary(&runner_rx);
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.scheduled_samples, 2, "both neighbours counted");
        assert_eq!(summary.missing_reports, 0);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn a_stale_epoch_line_in_a_payload_is_counted_and_repaired_alone() {
        let (mon_tx, to_mon0, to_mon1, runner_rx, handle) =
            degraded_harness_with(patient_coordinator().with_epoch(2));
        let report = |epoch, monitor, violation| {
            MonitorFrame::seal(
                epoch,
                MonitorToCoordinator::TickDone {
                    monitor: MonitorId(monitor),
                    tick: 0,
                    sampled: true,
                    violation,
                    suppressed: false,
                },
            )
        };
        // Monitor 1 first speaks from the deposed epoch (with a violation
        // that must not poll), then at the current one.
        mon_tx
            .send(payload(&[
                report(2, 0, false),
                report(1, 1, true),
                report(2, 1, false),
            ]))
            .unwrap();
        let summary = prompt_summary(&runner_rx);
        assert_eq!(summary.stale_epoch_frames, 1);
        assert_eq!(
            summary.scheduled_samples, 2,
            "the neighbours were processed"
        );
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.polled, "a stale violation must not poll");
        let repair: ControlFrame = decode(&to_mon1.recv().unwrap()).unwrap();
        assert!(matches!(
            repair.msg,
            CoordinatorToMonitor::NewEpoch { epoch: 2 }
        ));
        assert!(
            to_mon0.try_recv().is_err(),
            "only the stale sender is repaired"
        );
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn empty_and_unterminated_payloads_neither_panic_nor_hang() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) =
            degraded_harness_with(patient_coordinator());
        mon_tx.send(Bytes::new()).unwrap();
        mon_tx.send(Bytes::from_static(b"\n\n")).unwrap();
        let whole = payload(&[tick_done(0, 0, false), tick_done(1, 0, false)]);
        let unterminated = Bytes::copy_from_slice(&whole[..whole.len() - 1]);
        mon_tx.send(unterminated).unwrap();
        let summary = prompt_summary(&runner_rx);
        assert_eq!(
            summary.scheduled_samples, 2,
            "the last line needs no newline"
        );
        assert_eq!(summary.missing_reports, 0);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn a_payload_spanning_two_ticks_leaves_the_second_for_the_next_round() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) =
            degraded_harness_with(patient_coordinator());
        // Monitor 0 races a tick ahead inside one payload: its tick-1
        // report is read during round 0 (set aside), monitor 1's lies
        // unread in the payload when round 0 closes.
        mon_tx
            .send(payload(&[
                tick_done(0, 0, false),
                tick_done(0, 1, true),
                tick_done(1, 0, false),
                tick_done(1, 1, false),
            ]))
            .unwrap();
        let summary = prompt_summary(&runner_rx);
        assert_eq!((summary.tick, summary.scheduled_samples), (0, 2));
        assert_eq!(summary.local_violations, 0, "tick 1's violation waits");
        // Round 1 needs nothing new from the channel — but its violation
        // polls, and the poll is answered in one payload too.
        mon_tx
            .send(payload(&[0u32, 1].map(|monitor| {
                seal0(MonitorToCoordinator::PollReply {
                    monitor: MonitorId(monitor),
                    tick: 1,
                    value: 10.0,
                    forced_sample: false,
                })
            })))
            .unwrap();
        let summary = prompt_summary(&runner_rx);
        assert_eq!((summary.tick, summary.scheduled_samples), (1, 2));
        assert_eq!(summary.local_violations, 1);
        assert!(summary.polled && !summary.degraded && !summary.alerted);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn missed_poll_reply_degrades_instead_of_hanging() {
        let (mon_tx, to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(5);
        // Both report; monitor 0 raises a violation; monitor 1 never
        // answers the poll.
        mon_tx.send(tick_done(0, 0, true)).unwrap();
        mon_tx.send(tick_done(1, 0, false)).unwrap();
        let _: ControlFrame = decode(&to_mon0.recv().unwrap()).unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 0,
                value: 10.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.degraded, "monitor 1's reply timed out");
        assert!(!summary.alerted, "10 + T_1(50) <= 100");
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn stale_epoch_frames_are_rejected_counted_and_repaired() {
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(
            new_coordinator(100.0)
                .with_epoch(2)
                .with_tick_deadline(Duration::from_millis(30)),
        );
        // A frame from the deposed epoch-1 world: rejected, and its
        // violation must NOT trigger a poll.
        mon_tx
            .send(MonitorFrame::seal(
                1,
                MonitorToCoordinator::TickDone {
                    monitor: MonitorId(0),
                    tick: 0,
                    sampled: true,
                    violation: true,
                    suppressed: false,
                },
            ))
            .unwrap();
        // The current-epoch report closes the round.
        mon_tx
            .send(MonitorFrame::seal(
                2,
                MonitorToCoordinator::TickDone {
                    monitor: MonitorId(0),
                    tick: 0,
                    sampled: true,
                    violation: false,
                    suppressed: false,
                },
            ))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.stale_epoch_frames, 1);
        assert!(!summary.polled, "stale violation must not poll");
        // Epoch repair: the sender is told the current epoch.
        let repair: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert_eq!(repair.epoch, 2);
        assert!(matches!(
            repair.msg,
            CoordinatorToMonitor::NewEpoch { epoch: 2 }
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn stale_delayed_frame_does_not_resurrect_a_quarantined_monitor() {
        // Unit-level check of the re-admission rule: recv_msg marks a
        // quarantined monitor reviving only on *fresh* evidence.
        let coord = degraded_coordinator(1);
        let mut live = Liveness::new(2);
        live.quarantined[1] = true;
        live.last_tick = Some(5);
        let (tx, rx) = unbounded::<Bytes>();
        // A delayed frame for the long-closed tick 3 finally arrives.
        tx.send(tick_done(1, 3, false)).unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        let msg = coord.recv_msg(&mut live, &rx, deadline).unwrap();
        assert!(msg.is_some(), "frame is delivered (round logic drops it)");
        assert!(
            !live.reviving[1],
            "a delayed frame from a closed tick must not resurrect"
        );
        // A genuinely fresh report does.
        tx.send(tick_done(1, 6, false)).unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        coord.recv_msg(&mut live, &rx, deadline).unwrap();
        assert!(live.reviving[1], "a fresh report re-admits the monitor");
    }

    #[test]
    fn partitioned_monitor_is_not_awaited_but_counts_missing() {
        // Monitor 1 is partitioned for ticks 0..100. The round must not
        // burn its (long) deadline waiting for frames that cannot arrive.
        let plan = FaultPlan::new(7).with_partition(&[MonitorId(1)], 0, 100);
        let coord = degraded_coordinator(2)
            .with_fault_plan(plan)
            .with_tick_deadline(Duration::from_millis(500));
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness_with(coord);
        let started = Instant::now();
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "round must close without waiting for the partitioned monitor"
        );
        assert_eq!(
            summary.missing_reports, 1,
            "partitioned still counts missed"
        );
        // A second miss quarantines it — degraded aggregation takes over.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined {
                monitor: MonitorId(1),
                ..
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn injected_coordinator_crash_silences_the_coordinator() {
        let plan = FaultPlan::new(7).with_coordinator_crash(1);
        let coord = new_coordinator(100.0)
            .with_fault_plan(plan)
            .with_tick_deadline(Duration::from_millis(30));
        let (mon_tx, _to_mon, runner_rx, handle) = harness_with(coord);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 0);
        // Tick 1 hits the crash: no summary, the thread exits while the
        // monitor channel is still alive — exactly what the runner's
        // failover path observes as a disconnect.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        handle.join().unwrap();
        assert!(
            runner_rx.try_recv().is_err(),
            "crashed coordinator must not emit a summary for the crash tick"
        );
    }

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("volley-coordinator-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn checkpointing_records_ticks_and_gathered_snapshots() {
        let path = temp_wal("checkpointing-records");
        let wal = Wal::create(&path).unwrap();
        let coord = new_coordinator(100.0)
            .with_checkpoint(wal, 1)
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        let snapshot = {
            use volley_core::{AdaptationConfig, AdaptiveSampler};
            let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 100.0);
            sampler.observe(0, 10.0);
            sampler.to_snapshot()
        };
        for tick in 0..2 {
            mon_tx.send(tick_done(0, tick, false)).unwrap();
            // Snapshot cadence 1: every round asks for sampler state.
            let request: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
            assert!(matches!(request.msg, CoordinatorToMonitor::RequestSnapshot));
            mon_tx
                .send(seal0(MonitorToCoordinator::StateSnapshot {
                    monitor: MonitorId(0),
                    snapshot,
                }))
                .unwrap();
            let (summary, _) = next_summary(&runner_rx);
            assert_eq!(summary.tick, tick);
        }
        drop(mon_tx);
        handle.join().unwrap();
        let replay: Replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        let restored = replay.snapshot.expect("snapshot persisted");
        assert_eq!(restored.tick, 1);
        assert_eq!(restored.epoch, 0);
        assert_eq!(restored.samplers, vec![Some(snapshot)]);
        assert_eq!(restored.allowances.len(), 1);
        assert!(replay.tail.is_empty(), "snapshot is the newest record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leader_state_engages_and_releases_the_follower_gate() {
        let coord = new_coordinator(100.0)
            .with_multitask(8)
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        // Calm leader ahead of tick 0: the gate engages.
        mon_tx
            .send(seal0(MonitorToCoordinator::LeaderState {
                tick: 0,
                active: false,
            }))
            .unwrap();
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.gated, "calm leader engages the gate");
        assert_eq!(summary.suppressed_samples, 0);
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: Some(8) }
        ));
        // Leader fires ahead of tick 1: snap-back broadcast, and the
        // suppressed flag reported for the tick still counts.
        mon_tx
            .send(seal0(MonitorToCoordinator::LeaderState {
                tick: 1,
                active: true,
            }))
            .unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 1,
                sampled: false,
                violation: false,
                suppressed: true,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(!summary.gated, "active leader releases the gate");
        assert_eq!(summary.suppressed_samples, 1);
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: None }
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn restored_gate_resyncs_monitors_and_persists_through_checkpoints() {
        let path = temp_wal("gate-resync");
        let wal = Wal::create(&path).unwrap();
        let restored = MultitaskSnapshot {
            engaged: true,
            flips: 3,
            suppressed: 9,
        };
        let coord = new_coordinator(100.0)
            .with_multitask(6)
            .with_multitask_resume(&restored)
            .with_checkpoint(wal, 1)
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        // Checkpoint cadence 1: the round gathers a snapshot first…
        let request: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(request.msg, CoordinatorToMonitor::RequestSnapshot));
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.gated, "restored gate stays engaged");
        // …then re-broadcasts the restored gate to the fresh monitors.
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: Some(6) }
        ));
        drop(mon_tx);
        handle.join().unwrap();
        let replay: Replay = Wal::replay(&path).unwrap();
        let snap = replay.snapshot.expect("snapshot persisted");
        assert_eq!(snap.multitask, Some(restored), "gate state checkpointed");
        std::fs::remove_file(&path).ok();
    }
}
