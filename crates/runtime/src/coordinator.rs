//! The coordinator protocol as a sans-IO machine: local-violation
//! processing, global polls, allowance reallocation and checkpointing,
//! stepped by whoever owns the I/O.
//!
//! [`CoordinatorActor`] owns no channel, clock, log or metrics handle.
//! Its driver feeds it [`MonitorFrame`]s — values
//! ([`on_frames`](CoordinatorActor::on_frames)) in process, a received
//! payload of encoded ones, batched per run of monitors
//! ([`on_payload`](CoordinatorActor::on_payload), expanded into the same
//! loop) behind sockets — tells it when the phase
//! it is in has waited long enough
//! ([`on_deadline`](CoordinatorActor::on_deadline)) and executes what it
//! finds in the outbox ([`pop_output`](CoordinatorActor::pop_output)) in
//! order: sends, liveness notices, the tick's log records and finally
//! its [`TickSummary`]. The machine never blocks, so it needs no thread:
//! the task session steps it on the thread that drives the ticks, between
//! deliveries to its in-process monitors or receives from its sockets. The §IV *decisions*
//! (aggregate vs `T`, when an updating period ends, how allowance moves)
//! are the embedded [`Coordinator`]'s; this module is the protocol
//! around them.
//!
//! # One tick, four phases
//!
//! A tick collects every awaited monitor's `TickDone` (*reports*), on a
//! surviving local violation polls the fleet (*poll*), at the end of an
//! updating period gathers period reports (*reallocate*) and on the
//! checkpoint cadence gathers sampler state (*snapshot*). Every phase
//! waits on the same awaited set under one rule — a monitor is awaited
//! when it is active (or, for reports, showing signs of life) and its
//! link took the request — and ends when the set empties or the driver
//! reports the deadline.
//!
//! The machine knows only what its monitors' frames tell it. Lost,
//! delayed and duplicated frames, partitions and crashed processes are
//! the link's doing — the in-process slot table acts out the session's
//! fault plan on the frames it carries — and reach the machine only as
//! silence, refusals ([`on_undeliverable`](CoordinatorActor::on_undeliverable))
//! or frames it has already seen.
//!
//! # Fault tolerance
//!
//! A monitor that misses
//! [`quarantine_after`](CoordinatorActor::with_quarantine_after)
//! consecutive report deadlines is **quarantined**: the machine stops
//! waiting for it, tells the driver (whose supervisor may restart it)
//! and aggregates in **degraded mode** — the missing monitor counts at
//! its local threshold `T_i`, which can raise a false alert but never
//! hides one ([`Coordinator::poll`]). A quarantined monitor that reports
//! on time again — in the same batch as the active monitors' reports
//! or ahead of it — is restored immediately, but is only *awaited* again on
//! **fresh** evidence — a `Revived` notice or a frame for a tick not yet
//! closed — so a delayed frame replayed after quarantine cannot
//! resurrect a dead monitor. Reallocation skips any round it cannot get
//! every monitor's report for and carries the allowances forward.
//!
//! # Durability and failover
//!
//! Every frame is epoch-stamped. Monitor frames sealed at an older epoch
//! — from before a failover, e.g. from a monitor that sat out the
//! [`NewEpoch`](CoordinatorToMonitor::NewEpoch) broadcast behind a
//! partition — are rejected, counted
//! ([`TickSummary::stale_epoch_frames`]) and answered with a fresh
//! `NewEpoch` when the round closes (*epoch repair*). With
//! [`with_checkpoint`](CoordinatorActor::with_checkpoint) the machine
//! emits a [`TickOutcome`] per tick and periodically a full
//! [`CoordinatorSnapshot`] for the driver to log; a warm standby replays
//! them to resume with learned intervals and the learned allowance split
//! instead of the paper's conservative `I_d` restart. A coordinator
//! crash is the driver's to act out: it drops the machine mid-tick and
//! builds a successor with [`take_over`](CoordinatorActor::take_over),
//! which queues the fence itself.
//!
//! # One speaker
//!
//! The machine decides everything a monitor is told but its tick data
//! and its shutdown: requests, the failover fence, the §II.B follower
//! gate ([`on_leader`](CoordinatorActor::on_leader)) and the allowance
//! ledger — after a reallocation round, in the fence, and in answer to
//! every `Revived`, so a restarted or reconnected monitor holds its
//! ledger entry again. Its driver runs whatever is left pending between
//! ticks before the next tick's data.

use std::collections::VecDeque;

use volley_core::adaptation::PeriodReport;
use volley_core::coordinator::Coordinator;
use volley_core::snapshot::SamplerSnapshot;
use volley_core::task::MonitorId;
use volley_core::time::Tick;

use crate::checkpoint::{CoordinatorSnapshot, MultitaskSnapshot, TickOutcome};
use crate::message::{CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickSummary};
use crate::net::expand_reply_line;

/// Default number of consecutive missed deadlines before quarantine.
pub const DEFAULT_QUARANTINE_AFTER: u32 = 3;

/// What the machine asks of its driver, to be executed in outbox order.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send `msg`, sealed at the machine's epoch, to each monitor in
    /// `to`. A link that refuses it (the monitor process is gone) is
    /// reported back through
    /// [`on_undeliverable`](CoordinatorActor::on_undeliverable).
    Send {
        /// The recipients, ascending.
        to: Vec<MonitorId>,
        /// The message.
        msg: CoordinatorToMonitor,
    },
    /// Replies to the requests just sent are awaited: time the phase's
    /// deadline from now.
    ArmDeadline,
    /// A monitor missed enough consecutive report deadlines to be
    /// quarantined: it is no longer waited for and counts at its local
    /// threshold until it reappears.
    Quarantined {
        /// The quarantined monitor.
        monitor: MonitorId,
        /// The tick at which quarantine began.
        tick: Tick,
        /// Consecutive deadlines missed at that point.
        consecutive_missed: u32,
    },
    /// A quarantined monitor reported on time again.
    Recovered {
        /// The recovered monitor.
        monitor: MonitorId,
        /// The tick at which it reported again.
        tick: Tick,
    },
    /// The follower gate engaged or released.
    GateFlipped,
    /// The tick's outcome, for the checkpoint log.
    Tick(TickOutcome),
    /// A full checkpoint, for the checkpoint log.
    Snapshot(CoordinatorSnapshot),
    /// The tick is complete.
    Summary(TickSummary),
}

/// The collection phase a tick is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Every awaited monitor's `TickDone`.
    Reports,
    /// `PollReply`s to a global poll.
    Poll,
    /// Period `Report`s for a §IV-B updating round.
    Reallocate,
    /// `StateSnapshot`s for a checkpoint.
    Snapshot,
}

/// Whom the current phase waits for.
#[derive(Debug, Clone)]
struct Await {
    on: Vec<bool>,
    /// Monitors the phase waited for at any point.
    armed: usize,
    /// Of those, the ones yet to answer.
    outstanding: usize,
}

impl Await {
    fn clear(&mut self) {
        self.on.fill(false);
        self.armed = 0;
        self.outstanding = 0;
    }

    fn expect(&mut self, idx: usize) {
        if !std::mem::replace(&mut self.on[idx], true) {
            self.armed += 1;
            self.outstanding += 1;
        }
    }

    /// Monitor `idx` answered, or never will.
    fn settle(&mut self, idx: usize) {
        if std::mem::replace(&mut self.on[idx], false) {
            self.outstanding -= 1;
        }
    }
}

/// The monitor a protocol message comes from.
fn msg_sender(msg: &MonitorToCoordinator) -> MonitorId {
    match *msg {
        MonitorToCoordinator::TickDone { monitor, .. }
        | MonitorToCoordinator::PollReply { monitor, .. }
        | MonitorToCoordinator::Report { monitor, .. }
        | MonitorToCoordinator::Revived { monitor }
        | MonitorToCoordinator::StateSnapshot { monitor, .. } => monitor,
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
        MonitorToCoordinator::Report { .. } | MonitorToCoordinator::StateSnapshot { .. } => false,
    }
}

/// The coordinator: evaluates the global condition on local-violation
/// reports and periodically redistributes the error allowance (§IV),
/// tolerating crashed, stalled and lossy monitors via deadlines,
/// quarantine and degraded aggregation, and surviving its own crash via
/// an epoch-fenced warm standby restoring from the checkpoints it emits.
/// See the [module docs](self) for how it is driven.
#[derive(Debug, Clone)]
pub struct CoordinatorActor {
    rules: Coordinator,
    quarantine_after: u32,
    epoch: u64,
    /// Snapshot cadence and the next tick one is due at (or after).
    checkpoint: Option<(u64, Tick)>,
    /// The §II.B follower gate and the interval it paces this task's
    /// monitors to while the leader task is calm: the machine flips it
    /// on the driver's [`on_leader`](Self::on_leader) calls, sends the
    /// `SetGate` frames, counts flips and suppressed samples and
    /// checkpoints it.
    gate: Option<(u32, MultitaskSnapshot)>,
    quarantined: Vec<bool>,
    /// A quarantined monitor showing signs of life (a `Revived` notice
    /// from the driver's supervisor, or a *fresh* frame of its own): the
    /// next collection awaits it again so it can re-earn active status.
    reviving: Vec<bool>,
    consecutive_missed: Vec<u32>,
    /// The last tick closed, by this incarnation or its predecessor.
    last_tick: Option<Tick>,
    /// Monitors that sent a stale-epoch frame and owe an epoch repair.
    needs_epoch: Vec<bool>,
    /// Monitors that sent a `Revived` in the batch being fed, owed
    /// their ledger entry.
    owed_ledger: Vec<bool>,
    phase: Phase,
    wait: Await,
    /// The open round's tick, fixed by its first report.
    round_tick: Option<Tick>,
    /// The open round's summary so far.
    summary: TickSummary,
    /// Per-phase answers, one slot per monitor: who reported this tick,
    /// poll values — and, sized only while their (rare) phase is open,
    /// period reports and sampler snapshots.
    seen: Vec<bool>,
    values: Vec<Option<f64>>,
    reports: Vec<Option<PeriodReport>>,
    snapshots: Vec<Option<SamplerSnapshot>>,
    /// Reports read ahead of their round (defensive; lock-step rarely
    /// produces them), replayed when the next round opens.
    read_ahead: Vec<MonitorToCoordinator>,
    outbox: VecDeque<Output>,
}

impl CoordinatorActor {
    /// A coordinator deciding by `rules`, at epoch 0 with no
    /// checkpoints and no gate, awaiting the reports of the tick after
    /// `last_tick` — the last tick a previous incarnation closed, `None`
    /// at the start of a run.
    pub fn new(rules: Coordinator, last_tick: Option<Tick>) -> Self {
        let n = rules.monitors();
        let mut machine = CoordinatorActor {
            rules,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            epoch: 0,
            checkpoint: None,
            gate: None,
            quarantined: vec![false; n],
            reviving: vec![false; n],
            consecutive_missed: vec![0; n],
            last_tick,
            needs_epoch: vec![false; n],
            owed_ledger: vec![false; n],
            phase: Phase::Reports,
            wait: Await {
                on: vec![false; n],
                armed: 0,
                outstanding: 0,
            },
            round_tick: None,
            summary: TickSummary::default(),
            seen: vec![false; n],
            values: vec![None; n],
            reports: Vec::new(),
            snapshots: Vec::new(),
            read_ahead: Vec::new(),
            outbox: VecDeque::new(),
        };
        machine.open_round();
        machine
    }

    /// A successor taking over at `epoch` from a primary that crashed
    /// with `tick` in flight, deciding by fresh `rules`. It resumes the
    /// ledger and the reallocation schedule from `snapshot`, the last
    /// checkpoint recovered (the even split without one, or when its
    /// ledger is no split `rules` could hold; with no snapshot the next
    /// round is a full period away), awaits `tick`'s reports and queues
    /// the fence: `NewEpoch`, then per monitor `RestoreState` from the
    /// snapshot or the paper's conservative `ResetSampler` where it holds
    /// none, then the monitor's ledger entry. A monitor that cannot hear
    /// the `NewEpoch` (partitioned) keeps its old epoch, and its frames
    /// are rejected until epoch repair re-admits it.
    pub fn take_over(
        mut rules: Coordinator,
        epoch: u64,
        tick: Tick,
        snapshot: Option<&CoordinatorSnapshot>,
    ) -> Self {
        match snapshot {
            Some(s) => {
                rules.restore(&s.allowances, s.next_update_tick);
            }
            None => rules.defer_reallocation(tick),
        }
        let mut machine = Self::new(rules, tick.checked_sub(1)).with_epoch(epoch);
        let n = machine.monitors();
        let all = (0..n as u32).map(MonitorId).collect();
        machine.send(all, CoordinatorToMonitor::NewEpoch { epoch });
        for idx in 0..n {
            let msg = match snapshot.and_then(|s| s.samplers.get(idx).copied().flatten()) {
                Some(snapshot) => CoordinatorToMonitor::RestoreState { snapshot },
                None => CoordinatorToMonitor::ResetSampler,
            };
            machine.send(vec![MonitorId(idx as u32)], msg);
            machine.send_ledger(idx);
        }
        machine
    }

    /// Tracks the §II.B follower gate, pacing this task's monitors to at
    /// least `gated_interval` ticks while it is engaged: the driver
    /// reports the leader task's state ahead of each tick
    /// ([`on_leader`](Self::on_leader)), and the machine reports
    /// [`TickSummary::gated`] and checkpoints the gate. The gate starts
    /// released.
    #[must_use]
    pub fn with_multitask(mut self, gated_interval: u32) -> Self {
        let released = MultitaskSnapshot {
            engaged: false,
            flips: 0,
            suppressed: 0,
        };
        self.gate = Some((gated_interval, released));
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

    /// Checkpoints: every tick emits its [`Output::Tick`], and every
    /// `every` ticks (minimum 1) the machine gathers its own and every
    /// active monitor's adaptation state into an [`Output::Snapshot`].
    #[must_use]
    pub fn with_checkpoint(mut self, every: u64) -> Self {
        let every = every.max(1);
        self.checkpoint = Some((every, self.last_tick.map_or(0, |t| t + every)));
        self
    }

    /// The rules this coordinator decides by, and their state.
    pub fn rules(&self) -> &Coordinator {
        &self.rules
    }

    /// The next thing the driver must do, oldest first.
    pub fn pop_output(&mut self) -> Option<Output> {
        self.outbox.pop_front()
    }

    fn monitors(&self) -> usize {
        self.seen.len()
    }

    fn send(&mut self, to: Vec<MonitorId>, msg: CoordinatorToMonitor) {
        self.outbox.push_back(Output::Send { to, msg });
    }

    /// Tells monitor `idx` its ledger entry.
    fn send_ledger(&mut self, idx: usize) {
        let err = self.rules.allowances()[idx];
        self.send(
            vec![MonitorId(idx as u32)],
            CoordinatorToMonitor::SetAllowance { err },
        );
    }

    fn active(&self, idx: usize) -> bool {
        !self.quarantined[idx]
    }

    /// The tick the open round is for until its first report says so.
    fn expected_tick(&self) -> Tick {
        self.round_tick
            .unwrap_or_else(|| self.last_tick.map_or(0, |t| t + 1))
    }

    /// [`on_frames`](Self::on_frames) of a batch of one.
    pub fn on_frame(&mut self, frame: MonitorFrame) {
        self.on_frames([frame]);
    }

    /// Feeds the machine the frames that arrived together, as values (what
    /// the in-process plane hands over); returns how many. Each is
    /// admitted: one no wire could carry is dropped, the epoch fence
    /// enforced, *fresh* life signs from quarantined monitors noted and the
    /// message handed to the phase that waits for it, if any still does.
    ///
    /// Frames that arrive together are judged together: a phase closes
    /// only once the whole batch is in, so where in it a frame stood
    /// decides nothing. In process a tick's replies are one batch in
    /// monitor order, and a quarantined but live monitor's report would
    /// otherwise trail the report that closes its round — late, tick
    /// after tick, however promptly it was sent.
    pub fn on_frames(&mut self, frames: impl IntoIterator<Item = MonitorFrame>) -> u64 {
        self.on_batch(frames, Self::admit)
    }

    /// [`on_frames`](Self::on_frames) for a payload as the socket plane
    /// reads it — agent lines, each an encoded [`MonitorFrame`] or a
    /// [`ReplyBatch`](crate::net::ReplyBatch) of many, the last line's
    /// newline optional — each line expanded into its frames
    /// ([`expand_reply_line`]) as the same loop reaches it, a malformed
    /// one skipped alone. Returns how many lines it held.
    pub fn on_payload(&mut self, payload: &[u8]) -> u64 {
        let lines = payload.split_inclusive(|&b| b == b'\n');
        self.on_batch(lines, |machine, line| {
            expand_reply_line(line, |frame| machine.admit(frame));
        })
    }

    /// The one loop a batch goes through, whatever it is a batch of:
    /// every item is `feed`-ed to the machine, and only then are the
    /// phases that completed closed. Returns how many items there were.
    fn on_batch<T>(
        &mut self,
        batch: impl IntoIterator<Item = T>,
        mut feed: impl FnMut(&mut Self, T),
    ) -> u64 {
        let mut count = 0;
        for item in batch {
            count += 1;
            feed(self, item);
        }
        self.readmit();
        self.settle(false);
        count
    }

    /// Answers the batch's `Revived` notices: a restarted or reconnected
    /// monitor holds whatever its new process started with, so each is
    /// told its ledger entry — the monitors owed one value in one send,
    /// so a fleet connecting at once costs one outbox entry, not one
    /// each.
    fn readmit(&mut self) {
        while let Some(first) = self.owed_ledger.iter().position(|&owed| owed) {
            let err = self.rules.allowances()[first];
            let mut to = Vec::new();
            for idx in first..self.monitors() {
                if self.owed_ledger[idx] && self.rules.allowances()[idx] == err {
                    self.owed_ledger[idx] = false;
                    to.push(MonitorId(idx as u32));
                }
            }
            self.send(to, CoordinatorToMonitor::SetAllowance { err });
        }
    }

    /// One frame into the machine, short of closing the phase it may
    /// have completed.
    fn admit(&mut self, frame: MonitorFrame) {
        let MonitorFrame { epoch, msg } = frame;
        if !msg.is_wire_representable() {
            return;
        }
        let sender = msg_sender(&msg).0 as usize;
        let known = sender < self.monitors();
        if epoch < self.epoch {
            // A frame from before the failover — e.g. a monitor that
            // missed the NewEpoch broadcast behind a partition, or
            // traffic from the deposed primary's world. Reject it
            // (split-brain safety) but schedule an epoch repair so the
            // sender can rejoin the current epoch.
            self.summary.stale_epoch_frames += 1;
            if known {
                self.needs_epoch[sender] = true;
            }
            return;
        }
        if known && is_fresh(&msg, self.last_tick) {
            self.mark_reviving(sender);
        }
        if known && matches!(msg, MonitorToCoordinator::Revived { .. }) {
            self.owed_ledger[sender] = true;
        }
        self.accept(msg);
    }

    /// The leader task's state ahead of `tick`, the tick about to open:
    /// a calm leader engages the follower gate, an active one releases
    /// it. A flip sends every monitor its `SetGate`, which the driver
    /// runs ahead of `tick`'s data, so the tick a gate takes effect at
    /// is a pure function of the traces. Without a gate it does nothing.
    pub fn on_leader(&mut self, tick: Tick, active: bool) {
        debug_assert_eq!(tick, self.expected_tick(), "a gate flip between ticks");
        let Some((interval, gate)) = self.gate.as_mut() else {
            return;
        };
        if gate.engaged != active {
            return;
        }
        gate.engaged = !active;
        gate.flips += 1;
        let interval = gate.engaged.then_some(*interval);
        let all = (0..self.monitors() as u32).map(MonitorId).collect();
        self.send(all, CoordinatorToMonitor::SetGate { interval });
        self.outbox.push_back(Output::GateFlipped);
    }

    /// The phase the machine is in has waited long enough: it closes
    /// with whoever answered.
    pub fn on_deadline(&mut self) {
        self.settle(true);
    }

    /// A link refused what was just sent to `monitor`: its process is
    /// gone, so a request phase stops waiting for its reply (and a
    /// reallocation round, which needs every report, is skipped). The
    /// report collection takes no notice — a silent monitor's missing
    /// report is what the deadline and quarantine are for.
    pub fn on_undeliverable(&mut self, monitor: MonitorId) {
        match self.phase {
            Phase::Reports => return,
            Phase::Reallocate => self.wait.clear(),
            Phase::Poll | Phase::Snapshot => {
                if (monitor.0 as usize) < self.monitors() {
                    self.wait.settle(monitor.0 as usize);
                }
            }
        }
        self.settle(false);
    }

    /// Marks evidence that a quarantined monitor is alive again: the
    /// report collection awaits it from now on.
    fn mark_reviving(&mut self, idx: usize) {
        if self.quarantined[idx] && !self.reviving[idx] {
            self.reviving[idx] = true;
            self.consecutive_missed[idx] = 0;
            if self.phase == Phase::Reports && !self.seen[idx] {
                self.wait.expect(idx);
            }
        }
    }

    fn accept(&mut self, msg: MonitorToCoordinator) {
        let (n, tick) = (self.monitors(), self.summary.tick);
        match (self.phase, msg) {
            (Phase::Reports, msg @ MonitorToCoordinator::TickDone { .. }) => {
                self.on_tick_done(msg);
            }
            (
                Phase::Poll,
                MonitorToCoordinator::PollReply {
                    monitor,
                    tick: t,
                    value,
                    forced_sample,
                },
            ) => {
                let idx = monitor.0 as usize;
                // Stale, foreign and duplicated replies are dropped.
                if idx < n && t == tick && self.values[idx].is_none() {
                    self.values[idx] = Some(value);
                    self.wait.settle(idx);
                    self.summary.poll_samples += u32::from(forced_sample);
                }
            }
            (Phase::Reallocate, MonitorToCoordinator::Report { monitor, report }) => {
                let idx = monitor.0 as usize;
                if idx < n && self.reports[idx].is_none() {
                    self.reports[idx] = Some(report);
                    self.wait.settle(idx);
                }
            }
            (Phase::Snapshot, MonitorToCoordinator::StateSnapshot { monitor, snapshot }) => {
                let idx = monitor.0 as usize;
                if idx < n {
                    self.snapshots[idx] = Some(snapshot);
                    self.wait.settle(idx);
                }
            }
            _ => {} // a closed phase's late replies; `Revived` is only a life sign
        }
    }

    fn on_tick_done(&mut self, msg: MonitorToCoordinator) {
        let MonitorToCoordinator::TickDone {
            monitor,
            tick: t,
            sampled,
            violation,
            suppressed,
        } = msg
        else {
            return;
        };
        let idx = monitor.0 as usize;
        if idx >= self.monitors() {
            return;
        }
        match self.round_tick {
            None => {
                if self.last_tick.is_some_and(|lt| t <= lt) {
                    return; // late frame for an already-closed tick
                }
                self.round_tick = Some(t);
            }
            Some(rt) if t < rt => return, // late frame
            Some(rt) if t > rt => {
                // Possible only if the driver raced ahead.
                self.read_ahead.push(msg);
                return;
            }
            Some(_) => {}
        }
        if std::mem::replace(&mut self.seen[idx], true) {
            return; // duplicated frame
        }
        self.wait.settle(idx);
        self.consecutive_missed[idx] = 0;
        if self.quarantined[idx] {
            self.quarantined[idx] = false;
            self.reviving[idx] = false;
            self.outbox
                .push_back(Output::Recovered { monitor, tick: t });
        }
        self.summary.scheduled_samples += u32::from(sampled);
        self.summary.suppressed_samples += u32::from(suppressed);
        self.summary.local_violations += u32::from(violation);
    }

    /// Closes every phase that is over — its awaited set emptied or, for
    /// the current one, the driver's deadline `expired`. The report
    /// collection is special in one way: with nobody to wait for
    /// (everything quarantined) it still waits for the
    /// deadline, so a driver behind sockets gives re-dialling agents'
    /// `Revived` notices a chance to arrive (in process, where nothing
    /// arrives by waiting, the driver reports the deadline at once).
    fn settle(&mut self, mut expired: bool) {
        while expired
            || self.wait.outstanding == 0 && (self.phase != Phase::Reports || self.wait.armed > 0)
        {
            expired = false;
            match self.phase {
                Phase::Reports => self.close_reports(),
                Phase::Poll => self.close_poll(),
                Phase::Reallocate => self.close_reallocate(),
                Phase::Snapshot => self.close_snapshot(),
            }
        }
    }

    /// Opens the next round's report collection.
    fn open_round(&mut self) {
        self.phase = Phase::Reports;
        self.round_tick = None;
        self.summary = TickSummary::default();
        self.seen.fill(false);
        self.await_reports();
        for msg in std::mem::take(&mut self.read_ahead) {
            self.accept(msg);
        }
    }

    /// Awaits a `TickDone` from every active monitor plus the
    /// quarantined ones showing signs of life. One cut off from the
    /// coordinator never answers and counts as missing, so a long
    /// partition quarantines it and degraded aggregation takes over.
    fn await_reports(&mut self) {
        self.wait.clear();
        for idx in 0..self.monitors() {
            if self.active(idx) || self.reviving[idx] {
                self.wait.expect(idx);
            }
        }
    }

    /// Opens a request phase: `msg` goes to every active monitor, and
    /// each is awaited (unless its link refuses the request).
    fn request(&mut self, phase: Phase, msg: CoordinatorToMonitor) {
        self.phase = phase;
        self.wait.clear();
        let to: Vec<MonitorId> = (0..self.monitors())
            .filter(|&idx| self.active(idx))
            .map(|idx| MonitorId(idx as u32))
            .collect();
        for &monitor in &to {
            self.wait.expect(monitor.0 as usize);
        }
        if !to.is_empty() {
            self.send(to, msg);
        }
        if self.wait.outstanding > 0 {
            self.outbox.push_back(Output::ArmDeadline);
        }
    }

    /// The report collection is over: fix the tick, do the deadline
    /// bookkeeping, then poll if anyone violated.
    fn close_reports(&mut self) {
        // With nothing received (every monitor quarantined or silent)
        // the lock-step still advances one tick, so the driver — which
        // sent this tick's data — gets its summary.
        let tick = self.expected_tick();
        self.last_tick = Some(tick);
        self.summary.tick = tick;

        for idx in 0..self.monitors() {
            if self.quarantined[idx] {
                self.summary.missing_reports += 1;
                // A reviving monitor that keeps missing deadlines loses
                // its comeback credit (stop waiting for it again).
                if self.reviving[idx] {
                    self.consecutive_missed[idx] += 1;
                    if self.consecutive_missed[idx] >= self.quarantine_after {
                        self.reviving[idx] = false;
                    }
                }
            } else if !self.seen[idx] {
                self.summary.missing_reports += 1;
                self.consecutive_missed[idx] += 1;
                if self.consecutive_missed[idx] >= self.quarantine_after {
                    self.quarantined[idx] = true;
                    self.outbox.push_back(Output::Quarantined {
                        monitor: MonitorId(idx as u32),
                        tick,
                        consecutive_missed: self.consecutive_missed[idx],
                    });
                }
            }
        }

        if self.summary.local_violations == 0 {
            self.summary.degraded =
                self.quarantined.contains(&true) && self.summary.missing_reports > 0;
            return self.begin_reallocate();
        }
        self.summary.polled = true;
        self.values.fill(None);
        self.request(Phase::Poll, CoordinatorToMonitor::Poll { tick });
    }

    fn close_poll(&mut self) {
        let answers = self.values.iter().copied();
        let outcome = self.rules.poll(self.summary.tick, answers);
        self.summary.alerted = outcome.global_violation;
        self.summary.degraded = outcome.degraded;
        self.begin_reallocate();
    }

    /// One §IV-B updating round, when one is due: gather period reports,
    /// update the allocator, push new allowances. A round that cannot
    /// hear from every monitor — one is quarantined, gone, or misses the
    /// deadline — is skipped and every monitor carries its allowance
    /// forward: reallocation is an optimization, never worth stalling
    /// the task over.
    fn begin_reallocate(&mut self) {
        let due = self.rules.reallocation_due(self.summary.tick);
        if due && (0..self.monitors()).all(|idx| self.active(idx)) {
            self.reports = vec![None; self.monitors()];
            self.request(Phase::Reallocate, CoordinatorToMonitor::RequestReport);
        } else {
            self.begin_checkpoint();
        }
    }

    fn close_reallocate(&mut self) {
        let reports: Vec<PeriodReport> = std::mem::take(&mut self.reports)
            .into_iter()
            .flatten()
            .collect();
        if reports.len() == self.monitors() && self.rules.reallocate(&reports).is_some() {
            for idx in 0..self.monitors() {
                self.send_ledger(idx);
            }
        }
        self.begin_checkpoint();
    }

    /// Durability: the tick's outcome, and on the snapshot schedule the
    /// sampler state of every monitor that can be asked for it. Monitors
    /// that cannot answer get a `None` slot — after a failover they
    /// restart conservatively at `I_d` instead of restoring.
    fn begin_checkpoint(&mut self) {
        let Some((every, next)) = self.checkpoint.as_mut() else {
            return self.finish_round();
        };
        let summary = &self.summary;
        self.outbox.push_back(Output::Tick(TickOutcome {
            epoch: self.epoch,
            tick: summary.tick,
            polled: summary.polled,
            alerted: summary.alerted,
            local_violations: summary.local_violations,
        }));
        if summary.tick < *next {
            return self.finish_round();
        }
        *next = summary.tick + *every;
        self.snapshots = vec![None; self.monitors()];
        self.request(Phase::Snapshot, CoordinatorToMonitor::RequestSnapshot);
    }

    fn close_snapshot(&mut self) {
        self.outbox.push_back(Output::Snapshot(CoordinatorSnapshot {
            epoch: self.epoch,
            tick: self.summary.tick,
            next_update_tick: self.rules.next_update_tick(),
            allowances: self.rules.allowances().to_vec(),
            samplers: std::mem::take(&mut self.snapshots),
            multitask: self.gate.map(|(_, gate)| gate),
        }));
        self.finish_round();
    }

    fn finish_round(&mut self) {
        // Epoch repair: answer every stale-epoch sender with the current
        // epoch so it can rejoin (its next report will be fresh and
        // current-epoch, re-earning active status the normal way).
        for idx in 0..self.monitors() {
            if std::mem::take(&mut self.needs_epoch[idx]) {
                let epoch = self.epoch;
                self.send(
                    vec![MonitorId(idx as u32)],
                    CoordinatorToMonitor::NewEpoch { epoch },
                );
            }
        }
        if let Some((_, gate)) = self.gate.as_mut() {
            gate.suppressed += u64::from(self.summary.suppressed_samples);
            self.summary.gated = gate.engaged;
        }
        self.outbox.push_back(Output::Summary(self.summary));
        self.open_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::encode;
    use volley_core::allocation::AllocationConfig;
    use volley_core::coordinator::CoordinationScheme;
    use volley_core::task::TaskSpec;
    use volley_core::Interval;

    /// The §IV rules of `monitors` monitors splitting `threshold` and the
    /// allowance `err` evenly.
    fn rules(monitors: usize, threshold: f64, err: f64, scheme: CoordinationScheme) -> Coordinator {
        let spec = TaskSpec::builder(threshold)
            .monitors(monitors)
            .error_allowance(err)
            .build()
            .unwrap();
        Coordinator::new(&spec, scheme, AllocationConfig::default()).unwrap()
    }

    /// A 1-monitor coordinator with global (= local) threshold `threshold`.
    fn solo(threshold: f64) -> CoordinatorActor {
        let rules = rules(1, threshold, 0.01, CoordinationScheme::Adaptive);
        CoordinatorActor::new(rules, None)
    }

    /// A 2-monitor coordinator (`T` = 100, `T_i` = 50) that never
    /// reallocates.
    fn pair(quarantine_after: u32) -> CoordinatorActor {
        let rules = rules(2, 100.0, 0.01, CoordinationScheme::Even);
        CoordinatorActor::new(rules, None).with_quarantine_after(quarantine_after)
    }

    fn sealed(epoch: u64, msg: MonitorToCoordinator) -> MonitorFrame {
        MonitorFrame { epoch, msg }
    }

    fn tick_done(monitor: u32, tick: Tick, violation: bool) -> MonitorFrame {
        sealed(
            0,
            MonitorToCoordinator::TickDone {
                monitor: MonitorId(monitor),
                tick,
                sampled: true,
                violation,
                suppressed: false,
            },
        )
    }

    fn poll_reply(monitor: u32, tick: Tick, value: f64, forced_sample: bool) -> MonitorFrame {
        sealed(
            0,
            MonitorToCoordinator::PollReply {
                monitor: MonitorId(monitor),
                tick,
                value,
                forced_sample,
            },
        )
    }

    fn send(to: &[u32], msg: CoordinatorToMonitor) -> Output {
        Output::Send {
            to: to.iter().copied().map(MonitorId).collect(),
            msg,
        }
    }

    /// Everything in the outbox, which must hold no summary: the tick
    /// is still open.
    fn pending(machine: &mut CoordinatorActor) -> Vec<Output> {
        let outputs: Vec<Output> = std::iter::from_fn(|| machine.pop_output()).collect();
        assert!(
            !outputs.iter().any(|o| matches!(o, Output::Summary(_))),
            "the tick closed early: {outputs:?}"
        );
        outputs
    }

    /// Pops the outbox up to the next tick summary, which must be there
    /// already — no deadline, no further frame needed — returning it and
    /// whatever came before it.
    fn closed(machine: &mut CoordinatorActor) -> (TickSummary, Vec<Output>) {
        let mut before = Vec::new();
        loop {
            match machine.pop_output().expect("the tick is still open") {
                Output::Summary(summary) => return (summary, before),
                output => before.push(output),
            }
        }
    }

    #[test]
    fn quiet_tick_produces_summary_without_poll() {
        let mut machine = solo(100.0);
        machine.on_frame(tick_done(0, 0, false));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.scheduled_samples, 1);
        assert!(!summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert_eq!(summary.stale_epoch_frames, 0);
        assert!(before.is_empty(), "{before:?}");
        assert_eq!(machine.pop_output(), None);
    }

    #[test]
    fn violation_triggers_poll_and_alert() {
        let mut machine = solo(100.0);
        machine.on_frame(tick_done(0, 3, true));
        // The coordinator must ask for a poll and start waiting for it.
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0], CoordinatorToMonitor::Poll { tick: 3 }),
                Output::ArmDeadline
            ]
        );
        // Reply above the threshold.
        machine.on_frame(poll_reply(0, 3, 250.0, false));
        let (summary, _) = closed(&mut machine);
        assert!(summary.polled);
        assert!(summary.alerted);
        assert!(!summary.degraded);
        assert_eq!(summary.local_violations, 1);
        assert_eq!(machine.rules().alerts, 1);
    }

    #[test]
    fn poll_below_threshold_does_not_alert() {
        let mut machine = solo(100.0);
        machine.on_frame(tick_done(0, 0, true));
        pending(&mut machine);
        machine.on_frame(poll_reply(0, 0, 50.0, true));
        let (summary, _) = closed(&mut machine);
        assert!(summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.poll_samples, 1);
    }

    #[test]
    fn silent_monitor_is_quarantined_then_aggregated_at_threshold() {
        let mut machine = pair(2);
        // Monitor 1 never reports. Two rounds of misses quarantine it.
        for tick in 0..2 {
            machine.on_frame(tick_done(0, tick, false));
            assert!(pending(&mut machine).is_empty(), "monitor 1 is awaited");
            machine.on_deadline();
            let (summary, before) = closed(&mut machine);
            assert_eq!(summary.tick, tick);
            assert_eq!(summary.missing_reports, 1);
            if tick == 1 {
                assert_eq!(
                    before,
                    [Output::Quarantined {
                        monitor: MonitorId(1),
                        tick: 1,
                        consecutive_missed: 2,
                    }]
                );
            } else {
                assert!(before.is_empty());
            }
        }
        // Quarantined: the next round completes without it and a local
        // violation polls only monitor 0, with monitor 1 counted at its
        // local threshold T_1 = 50 → 60 + 50 > 100 alerts (degraded).
        machine.on_frame(tick_done(0, 2, true));
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0], CoordinatorToMonitor::Poll { tick: 2 }),
                Output::ArmDeadline
            ]
        );
        machine.on_frame(poll_reply(0, 2, 60.0, false));
        let (summary, _) = closed(&mut machine);
        assert!(summary.polled);
        assert!(summary.degraded, "aggregation substituted T_1");
        assert!(summary.alerted, "60 + T_1(50) > 100");
    }

    /// A `pair(1)` whose monitor 1 sat out tick 0 and is quarantined.
    fn pair_with_monitor_1_quarantined() -> CoordinatorActor {
        let mut machine = pair(1);
        machine.on_frame(tick_done(0, 0, false));
        machine.on_deadline();
        let (_, before) = closed(&mut machine);
        assert!(matches!(before.as_slice(), [Output::Quarantined { .. }]));
        machine
    }

    #[test]
    fn quarantined_monitor_recovers_on_reporting_again() {
        let mut machine = pair_with_monitor_1_quarantined();
        // Next tick both report. Monitor 1's frame comes first, so the
        // round sees its life sign before the active set is satisfied:
        // recovery event, full strength again.
        machine.on_frame(tick_done(1, 1, false));
        machine.on_frame(tick_done(0, 1, false));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert_eq!(
            before,
            [Output::Recovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        );
    }

    /// Inside one payload the order of the frames decides nothing:
    /// monitor 1's report trails the one that completes the active set
    /// and still counts. In process a tick's replies always arrive as one
    /// payload in monitor order, so closing the round frame by frame
    /// would leave a quarantined monitor behind an active one late on
    /// every tick.
    #[test]
    fn a_quarantined_monitor_recovers_wherever_its_report_stands_in_the_payload() {
        let mut machine = pair_with_monitor_1_quarantined();
        machine.on_payload(&payload(&[tick_done(0, 1, false), tick_done(1, 1, false)]));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.missing_reports, 0);
        assert_eq!(
            before,
            [Output::Recovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        );
        // Frame by frame the active monitor's report closes the round,
        // and the other one is late.
        let mut machine = pair_with_monitor_1_quarantined();
        machine.on_frame(tick_done(0, 1, false));
        machine.on_frame(tick_done(1, 1, false));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.missing_reports, 1);
        assert!(before.is_empty());
    }

    #[test]
    fn revived_notice_makes_the_round_await_the_monitor() {
        let mut machine = pair_with_monitor_1_quarantined();
        // The supervisor announces the restart *before* any tick-1 frame.
        machine.on_frame(sealed(
            0,
            MonitorToCoordinator::Revived {
                monitor: MonitorId(1),
            },
        ));
        // It is told its ledger entry, and even with the active
        // monitor's frame first, the round now waits for monitor 1
        // instead of closing without it.
        machine.on_frame(tick_done(0, 1, false));
        let ledger = CoordinatorToMonitor::SetAllowance { err: 0.005 };
        assert_eq!(pending(&mut machine), [send(&[1], ledger)]);
        machine.on_frame(tick_done(1, 1, false));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.missing_reports, 0);
        assert_eq!(
            before,
            [Output::Recovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        );
    }

    #[test]
    fn duplicate_and_stale_frames_are_discarded() {
        let mut machine = pair(3);
        machine.on_frame(tick_done(0, 0, false));
        machine.on_frame(tick_done(0, 0, false)); // duplicate
        machine.on_frame(tick_done(1, 0, false));
        let (summary, _) = closed(&mut machine);
        assert_eq!(summary.scheduled_samples, 2, "duplicate not double-counted");
        // A stale frame for tick 0 must not satisfy tick 1's collection.
        machine.on_frame(tick_done(0, 0, true)); // stale (late) frame
        machine.on_frame(tick_done(0, 1, false));
        machine.on_frame(tick_done(1, 1, false));
        let (summary, _) = closed(&mut machine);
        assert_eq!(summary.tick, 1);
        assert_eq!(summary.local_violations, 0, "stale violation ignored");
    }

    /// One payload holding `frames` back to back, as a slot table leaves
    /// a batch of replies.
    fn payload(frames: &[MonitorFrame]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|frame| encode(frame).to_vec())
            .collect()
    }

    #[test]
    fn a_malformed_line_in_a_payload_skips_only_that_line() {
        let mut machine = pair(3);
        let mut bytes = payload(&[tick_done(0, 0, false)]);
        bytes.extend_from_slice(b"{\"epoch\":0,\"msg\":garbage}\n");
        bytes.extend(payload(&[tick_done(1, 0, false)]));
        assert_eq!(machine.on_payload(&bytes), 3);
        let (summary, _) = closed(&mut machine);
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.scheduled_samples, 2, "both neighbours counted");
        assert_eq!(summary.missing_reports, 0);
    }

    #[test]
    fn a_stale_epoch_line_in_a_payload_is_counted_and_repaired_alone() {
        let mut machine = pair(3).with_epoch(2);
        let report = |epoch, monitor, violation| MonitorFrame {
            epoch,
            ..tick_done(monitor, 0, violation)
        };
        // Monitor 1 first speaks from the deposed epoch (with a violation
        // that must not poll), then at the current one.
        machine.on_payload(&payload(&[
            report(2, 0, false),
            report(1, 1, true),
            report(2, 1, false),
        ]));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.stale_epoch_frames, 1);
        assert_eq!(
            summary.scheduled_samples, 2,
            "the neighbours were processed"
        );
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.polled, "a stale violation must not poll");
        assert_eq!(
            before,
            [send(&[1], CoordinatorToMonitor::NewEpoch { epoch: 2 })],
            "only the stale sender is repaired"
        );
    }

    #[test]
    fn empty_and_unterminated_payloads_neither_panic_nor_close_a_round() {
        let mut machine = pair(3);
        assert_eq!(machine.on_payload(b""), 0);
        assert_eq!(machine.on_payload(b"\n\n"), 2);
        assert!(pending(&mut machine).is_empty());
        let whole = payload(&[tick_done(0, 0, false), tick_done(1, 0, false)]);
        assert_eq!(machine.on_payload(&whole[..whole.len() - 1]), 2);
        let (summary, _) = closed(&mut machine);
        assert_eq!(
            summary.scheduled_samples, 2,
            "the last line needs no newline"
        );
        assert_eq!(summary.missing_reports, 0);
    }

    #[test]
    fn a_payload_spanning_two_ticks_leaves_the_second_for_the_next_round() {
        let mut machine = pair(3);
        // Monitor 0 races a tick ahead inside one payload: its tick-1
        // report is read during round 0 and set aside.
        machine.on_payload(&payload(&[
            tick_done(0, 0, false),
            tick_done(0, 1, true),
            tick_done(1, 0, false),
            tick_done(1, 1, false),
        ]));
        let (summary, _) = closed(&mut machine);
        assert_eq!((summary.tick, summary.scheduled_samples), (0, 2));
        assert_eq!(summary.local_violations, 0, "tick 1's violation waits");
        // Round 1 needs nothing new — but its violation polls, and the
        // poll is answered in one payload too.
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0, 1], CoordinatorToMonitor::Poll { tick: 1 }),
                Output::ArmDeadline
            ]
        );
        machine.on_payload(&payload(&[
            poll_reply(0, 1, 10.0, false),
            poll_reply(1, 1, 10.0, false),
        ]));
        let (summary, _) = closed(&mut machine);
        assert_eq!((summary.tick, summary.scheduled_samples), (1, 2));
        assert_eq!(summary.local_violations, 1);
        assert!(summary.polled && !summary.degraded && !summary.alerted);
    }

    #[test]
    fn missed_poll_reply_degrades_instead_of_hanging() {
        let mut machine = pair(5);
        // Both report; monitor 0 raises a violation; monitor 1 never
        // answers the poll.
        machine.on_frame(tick_done(0, 0, true));
        machine.on_frame(tick_done(1, 0, false));
        machine.on_frame(poll_reply(0, 0, 10.0, false));
        assert_eq!(pending(&mut machine).len(), 2, "poll sent, deadline armed");
        machine.on_deadline();
        let (summary, _) = closed(&mut machine);
        assert!(summary.polled);
        assert!(summary.degraded, "monitor 1's reply timed out");
        assert!(!summary.alerted, "10 + T_1(50) <= 100");
    }

    /// The wire writes a non-finite float as `null`, which arrives as a
    /// malformed line; handed over as a value such a reply is dropped
    /// just the same — the poll stays open, the deadline degrades it.
    #[test]
    fn a_reply_the_wire_cannot_carry_is_dropped_as_its_malformed_line_is() {
        type Feed = fn(&mut CoordinatorActor, &[MonitorFrame]);
        let by_value: Feed = |machine, frames| {
            machine.on_frames(frames.iter().cloned());
        };
        let by_wire: Feed = |machine, frames| {
            machine.on_payload(&payload(frames));
        };
        for lost in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for feed in [by_value, by_wire] {
                let mut machine = pair(5);
                feed(
                    &mut machine,
                    &[tick_done(0, 0, true), tick_done(1, 0, false)],
                );
                assert_eq!(pending(&mut machine).len(), 2, "poll sent, deadline armed");
                let replies = [poll_reply(0, 0, 60.0, false), poll_reply(1, 0, lost, true)];
                feed(&mut machine, &replies);
                assert!(pending(&mut machine).is_empty(), "monitor 1 still awaited");
                machine.on_deadline();
                let (summary, _) = closed(&mut machine);
                assert!(summary.degraded && summary.alerted, "60 + T_1(50) > 100");
                assert_eq!(summary.poll_samples, 0, "the lost reply's sample too");
            }
        }
    }

    #[test]
    fn a_poll_no_link_takes_is_not_waited_for() {
        let mut machine = pair(5);
        machine.on_frame(tick_done(0, 0, true));
        machine.on_frame(tick_done(1, 0, false));
        pending(&mut machine);
        // Monitor 1's process is gone: its link refuses the poll.
        machine.on_undeliverable(MonitorId(1));
        machine.on_frame(poll_reply(0, 0, 60.0, false));
        let (summary, _) = closed(&mut machine);
        assert!(summary.degraded && summary.alerted, "60 + T_1(50) > 100");
    }

    #[test]
    fn stale_epoch_frames_are_rejected_counted_and_repaired() {
        let mut machine = solo(100.0).with_epoch(2);
        // A frame from the deposed epoch-1 world: rejected, and its
        // violation must NOT trigger a poll.
        machine.on_frame(MonitorFrame {
            epoch: 1,
            ..tick_done(0, 0, true)
        });
        // The current-epoch report closes the round.
        machine.on_frame(MonitorFrame {
            epoch: 2,
            ..tick_done(0, 0, false)
        });
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.stale_epoch_frames, 1);
        assert!(!summary.polled, "stale violation must not poll");
        // Epoch repair: the sender is told the current epoch.
        assert_eq!(
            before,
            [send(&[0], CoordinatorToMonitor::NewEpoch { epoch: 2 })]
        );
    }

    #[test]
    fn stale_delayed_frame_does_not_resurrect_a_quarantined_monitor() {
        // The re-admission rule: a quarantined monitor is marked reviving
        // only on *fresh* evidence.
        let mut machine = pair(1);
        machine.quarantined[1] = true;
        machine.last_tick = Some(5);
        // A delayed frame for the long-closed tick 3 finally arrives.
        machine.on_frame(tick_done(1, 3, false));
        assert!(
            !machine.reviving[1] && machine.quarantined[1],
            "a delayed frame from a closed tick must not resurrect"
        );
        assert!(pending(&mut machine).is_empty());
        // A genuinely fresh report does.
        machine.on_frame(tick_done(1, 6, false));
        assert_eq!(
            pending(&mut machine),
            [Output::Recovered {
                monitor: MonitorId(1),
                tick: 6,
            }],
            "a fresh report re-admits the monitor"
        );
    }

    #[test]
    fn checkpointing_records_ticks_and_gathered_snapshots() {
        let mut machine = solo(100.0).with_checkpoint(1);
        let snapshot = {
            use volley_core::{AdaptationConfig, AdaptiveSampler};
            let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 100.0);
            sampler.observe(0, 10.0);
            sampler.to_snapshot()
        };
        for tick in 0..2 {
            machine.on_frame(tick_done(0, tick, false));
            // Snapshot cadence 1: every round logs its outcome, then asks
            // for sampler state.
            assert_eq!(
                pending(&mut machine),
                [
                    Output::Tick(TickOutcome {
                        epoch: 0,
                        tick,
                        polled: false,
                        alerted: false,
                        local_violations: 0,
                    }),
                    send(&[0], CoordinatorToMonitor::RequestSnapshot),
                    Output::ArmDeadline,
                ]
            );
            machine.on_frame(sealed(
                0,
                MonitorToCoordinator::StateSnapshot {
                    monitor: MonitorId(0),
                    snapshot,
                },
            ));
            let (summary, before) = closed(&mut machine);
            assert_eq!(summary.tick, tick);
            let [Output::Snapshot(logged)] = before.as_slice() else {
                panic!("expected one snapshot, got {before:?}");
            };
            assert_eq!(logged.tick, tick);
            assert_eq!(logged.epoch, 0);
            assert_eq!(logged.next_update_tick, 1000);
            assert_eq!(logged.samplers, [Some(snapshot)]);
            assert_eq!(logged.allowances, [0.01]);
            assert_eq!(logged.multitask, None);
        }
    }

    #[test]
    fn a_leader_flip_sends_the_gate_and_checkpoints_it() {
        let mut machine = pair(3).with_multitask(8).with_checkpoint(1);
        let gate = |interval| send(&[0, 1], CoordinatorToMonitor::SetGate { interval });
        // Calm leader ahead of tick 0: the gate engages, and every
        // monitor is told so.
        machine.on_leader(0, false);
        assert_eq!(pending(&mut machine), [gate(Some(8)), Output::GateFlipped]);
        machine.on_leader(0, false);
        assert!(pending(&mut machine).is_empty(), "no flip, no frame");
        machine.on_frames([tick_done(0, 0, false), tick_done(1, 0, false)]);
        machine.on_deadline();
        let (summary, _) = closed(&mut machine);
        assert!(summary.gated, "calm leader engages the gate");
        assert_eq!(summary.suppressed_samples, 0);
        // Leader fires ahead of tick 1: the gate releases, and the
        // suppressed flag reported for the tick still counts.
        machine.on_leader(1, true);
        assert_eq!(pending(&mut machine), [gate(None), Output::GateFlipped]);
        let suppressed = MonitorToCoordinator::TickDone {
            monitor: MonitorId(0),
            tick: 1,
            sampled: false,
            violation: false,
            suppressed: true,
        };
        machine.on_frames([sealed(0, suppressed), tick_done(1, 1, false)]);
        machine.on_deadline();
        let (summary, before) = closed(&mut machine);
        assert!(!summary.gated, "active leader releases the gate");
        assert_eq!(summary.suppressed_samples, 1);
        // The snapshot is taken before the tick's suppressed sample is
        // added to the gate's lifetime count.
        let Some(Output::Snapshot(logged)) = before.last() else {
            panic!("expected a snapshot, got {before:?}");
        };
        assert_eq!(
            logged.multitask,
            Some(MultitaskSnapshot {
                engaged: false,
                flips: 2,
                suppressed: 0,
            })
        );
        // Without a gate a leader notice does nothing.
        let mut ungated = pair(3);
        ungated.on_leader(0, false);
        assert!(pending(&mut ungated).is_empty());
    }

    /// Every `Revived` is answered with the monitor's ledger entry: a
    /// restarted or reconnected monitor holds whatever its new process
    /// started with, which after a reallocation is not what the ledger
    /// says. The notices of one batch owed the same entry share a send.
    #[test]
    fn a_revived_monitor_is_told_its_ledger_entry() {
        let rules = || rules(2, 100.0, 0.02, CoordinationScheme::Adaptive);
        let revived = |epoch, monitor| {
            let monitor = MonitorId(monitor);
            sealed(epoch, MonitorToCoordinator::Revived { monitor })
        };
        let ledger = |to: &[u32], err| send(to, CoordinatorToMonitor::SetAllowance { err });
        // A quarantined monitor restarted after a reallocation.
        let mut skewed = rules();
        assert!(skewed.restore(&[0.015, 0.005], 2000));
        let mut machine = CoordinatorActor::new(skewed, None).with_quarantine_after(1);
        machine.on_frame(tick_done(0, 0, false));
        machine.on_deadline();
        let (_, before) = closed(&mut machine);
        assert!(matches!(before.as_slice(), [Output::Quarantined { .. }]));
        machine.on_frame(revived(0, 1));
        assert_eq!(pending(&mut machine), [ledger(&[1], 0.005)]);
        // A whole fleet reconnecting: one send per distinct entry.
        machine.on_frames([revived(0, 1), revived(0, 0)]);
        assert_eq!(
            pending(&mut machine),
            [ledger(&[0], 0.015), ledger(&[1], 0.005)]
        );
        let mut even = CoordinatorActor::new(rules(), None);
        even.on_frames([revived(0, 1), revived(0, 0)]);
        assert_eq!(pending(&mut even), [ledger(&[0, 1], 0.01)]);
        // A notice from a deposed epoch or for a foreign monitor is not
        // answered.
        let mut fenced = CoordinatorActor::new(rules(), None).with_epoch(1);
        fenced.on_frames([revived(0, 0), revived(1, 7)]);
        assert!(pending(&mut fenced).is_empty());
    }

    /// The successor queues the whole fence itself: `NewEpoch` to all,
    /// then per monitor its checkpointed sampler or the conservative
    /// reset and its ledger entry — the restored split, or the even one
    /// when there is no checkpoint (the next round then a full period
    /// away) or its ledger is not a split the rules could hold.
    #[test]
    fn a_successor_fences_restores_and_re_sends_the_ledger() {
        let sampler = {
            use volley_core::{AdaptationConfig, AdaptiveSampler};
            let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 50.0);
            sampler.observe(0, 10.0);
            sampler.to_snapshot()
        };
        let checkpoint = |allowances: Vec<f64>| CoordinatorSnapshot {
            epoch: 0,
            tick: 1200,
            next_update_tick: 2000,
            allowances,
            samplers: vec![Some(sampler), None],
            multitask: None,
        };
        let fence = |ledger: [f64; 2]| {
            vec![
                send(&[0, 1], CoordinatorToMonitor::NewEpoch { epoch: 2 }),
                send(
                    &[0],
                    CoordinatorToMonitor::RestoreState { snapshot: sampler },
                ),
                send(&[0], CoordinatorToMonitor::SetAllowance { err: ledger[0] }),
                send(&[1], CoordinatorToMonitor::ResetSampler),
                send(&[1], CoordinatorToMonitor::SetAllowance { err: ledger[1] }),
            ]
        };
        let rules = || rules(2, 100.0, 0.02, CoordinationScheme::Adaptive);
        let restored = checkpoint(vec![0.015, 0.005]);
        let mut machine = CoordinatorActor::take_over(rules(), 2, 1300, Some(&restored));
        assert_eq!(pending(&mut machine), fence([0.015, 0.005]));
        assert_eq!(machine.rules().next_update_tick(), 2000);
        assert_eq!(machine.expected_tick(), 1300);
        // A ledger no split could be falls back to the even one.
        let overspent = checkpoint(vec![0.015, 0.015]);
        let mut machine = CoordinatorActor::take_over(rules(), 2, 1300, Some(&overspent));
        assert_eq!(pending(&mut machine), fence([0.01, 0.01]));
        // No checkpoint: every monitor restarts conservatively.
        let mut machine = CoordinatorActor::take_over(rules(), 2, 1300, None);
        let reset = |monitor| send(&[monitor], CoordinatorToMonitor::ResetSampler);
        let even = |monitor| send(&[monitor], CoordinatorToMonitor::SetAllowance { err: 0.01 });
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0, 1], CoordinatorToMonitor::NewEpoch { epoch: 2 }),
                reset(0),
                even(0),
                reset(1),
                even(1),
            ]
        );
        assert_eq!(machine.rules().next_update_tick(), 2300);
        // The successor's frames are sealed at its epoch: an old one's
        // report is stale.
        machine.on_frame(tick_done(0, 1300, true));
        machine.on_frames([
            MonitorFrame {
                epoch: 2,
                ..tick_done(0, 1300, false)
            },
            MonitorFrame {
                epoch: 2,
                ..tick_done(1, 1300, false)
            },
        ]);
        let (summary, _) = closed(&mut machine);
        assert_eq!((summary.tick, summary.stale_epoch_frames), (1300, 1));
        assert!(!summary.polled);
    }

    fn period_report(interval: u32, beta_grown: f64) -> PeriodReport {
        PeriodReport {
            observations: 100,
            avg_beta_current: beta_grown / 2.0,
            avg_beta_grown: beta_grown,
            avg_potential_reduction: 1.0 - 1.0 / f64::from(interval + 1),
            interval: Interval::new_clamped(interval),
            at_max_interval: false,
            cost_curve: vec![1.0; 8],
        }
    }

    /// A failover past the first reallocation: the monitors restore the
    /// skewed split they held, and the successor's ledger must resume
    /// from it — its first round moves one quantum *from that split*.
    #[test]
    fn a_restored_allowance_split_survives_the_first_reallocation() {
        let err = 0.02;
        let restored = [0.015, 0.005];
        let mut rules = rules(2, 100.0, err, CoordinationScheme::Adaptive);
        assert!(rules.restore(&restored, 2000));
        let mut machine = CoordinatorActor::new(rules, Some(1999));
        machine.on_frame(tick_done(0, 2000, false));
        machine.on_frame(tick_done(1, 2000, false));
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0, 1], CoordinatorToMonitor::RequestReport),
                Output::ArmDeadline
            ]
        );
        // Monitor 0 converts allowance into savings cheaply, monitor 1
        // hardly at all: the round moves a quantum from 1 to 0.
        for (monitor, report) in [period_report(2, 0.0001), period_report(1, 0.9)]
            .into_iter()
            .enumerate()
        {
            let monitor = MonitorId(monitor as u32);
            machine.on_frame(sealed(0, MonitorToCoordinator::Report { monitor, report }));
        }
        let (_, before) = closed(&mut machine);
        let assigned: Vec<f64> = before
            .iter()
            .map(|output| match output {
                Output::Send { to, msg } => match (to.as_slice(), msg) {
                    (&[MonitorId(m)], &CoordinatorToMonitor::SetAllowance { err }) => (m, err),
                    other => panic!("unexpected send {other:?}"),
                },
                other => panic!("unexpected output {other:?}"),
            })
            .enumerate()
            .map(|(idx, (monitor, err))| {
                assert_eq!(idx as u32, monitor);
                err
            })
            .collect();
        let quantum = err * AllocationConfig::default().transfer_fraction;
        assert_eq!(assigned.len(), 2, "the round reallocated");
        for (assigned, restored) in assigned.iter().zip(restored) {
            assert!(
                (assigned - restored).abs() <= quantum + 1e-12,
                "{assigned} is more than a quantum from the restored {restored}"
            );
        }
        assert!(assigned[0] > restored[0], "allowance moved toward yield");
        assert!(assigned.iter().sum::<f64>() <= err + 1e-12);
        assert_eq!(machine.rules().next_update_tick(), 3000);
    }

    #[test]
    fn a_refused_report_request_skips_the_round() {
        let rules = rules(2, 100.0, 0.02, CoordinationScheme::Adaptive);
        let mut machine = CoordinatorActor::new(rules, Some(999));
        machine.on_frame(tick_done(0, 1000, false));
        machine.on_frame(tick_done(1, 1000, false));
        assert_eq!(pending(&mut machine).len(), 2, "reports requested");
        machine.on_undeliverable(MonitorId(1));
        let (summary, before) = closed(&mut machine);
        assert_eq!(summary.tick, 1000);
        assert!(before.is_empty(), "allowances carried forward: {before:?}");
        assert_eq!(machine.rules().allocation_rounds, 0);
    }

    /// A monitor cut off from the coordinator on an update tick, before
    /// it is quarantined, is asked for its period report like everyone
    /// else — the machine cannot tell a partition from a slow reply. The
    /// round closes on the deadline without it, and every monitor
    /// carries its allowance forward.
    #[test]
    fn a_silent_monitor_is_asked_for_its_report_and_the_round_skipped() {
        let rules = rules(2, 100.0, 0.02, CoordinationScheme::Adaptive);
        let mut machine = CoordinatorActor::new(rules, Some(999));
        // An update tick, with monitor 1 silent but not yet quarantined.
        machine.on_frame(tick_done(0, 1000, false));
        assert!(pending(&mut machine).is_empty(), "monitor 1 is awaited");
        machine.on_deadline();
        assert_eq!(
            pending(&mut machine),
            [
                send(&[0, 1], CoordinatorToMonitor::RequestReport),
                Output::ArmDeadline
            ]
        );
        let monitor = MonitorId(0);
        let report = period_report(2, 0.0001);
        machine.on_frame(sealed(0, MonitorToCoordinator::Report { monitor, report }));
        assert!(
            pending(&mut machine).is_empty(),
            "monitor 1's report is awaited"
        );
        machine.on_deadline();
        let (summary, before) = closed(&mut machine);
        assert_eq!((summary.tick, summary.missing_reports), (1000, 1));
        assert!(before.is_empty(), "allowances carried forward: {before:?}");
        assert_eq!(machine.rules().allowances(), [0.01, 0.01]);
        assert_eq!(
            machine.rules().next_update_tick(),
            2000,
            "the cadence advanced"
        );
        assert_eq!(
            machine.rules().allocation_rounds,
            0,
            "the round was skipped"
        );
    }
}
