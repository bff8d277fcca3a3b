//! The monitor actor (local adaptive sampling) and the table that hosts
//! it: a crate-private `SlotTable` of `MonitorSlot`s stepped by whichever
//! thread feeds it — the task session's driver in process, a socket agent
//! ([`crate::net::run_agent`]) across the network; the two differ only in
//! where frames come from and where the replies — [`MonitorFrame`]
//! values handed to the feeder's sink — go: only the agent encodes them.

use volley_core::adaptation::SamplerTickState;
use volley_core::correlation::FollowerGate;
use volley_core::task::MonitorId;
use volley_core::AdaptiveSampler;
use volley_obs::{names, Counter, Histogram, Obs, SpanLog};
use volley_store::SampleRecorder;

use crate::failure::{FaultPath, FaultPlan};
use crate::message::{
    ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickData,
};
use crate::session::fresh_sampler;

/// A monitor: owns one [`AdaptiveSampler`] and serves the coordinator
/// protocol.
///
/// The actor is transport-agnostic: it takes decoded [`ControlFrame`]s
/// and answers with [`MonitorFrame`]s, so the same actor runs in process
/// and behind a socket. It knows no fault model: the slot hosting it
/// acts faults out on the frames around it (see `MonitorSlot`).
///
/// # Epoch fencing
///
/// Every frame travels inside an epoch-stamped envelope. The monitor's
/// rules ([`handle_frame`](MonitorActor::handle_frame)):
///
/// - `Shutdown` is honored regardless of epoch (teardown must not hang
///   behind fencing);
/// - frames from an *older* epoch are rejected — a deposed coordinator
///   cannot command this monitor;
/// - frames from a newer epoch are processed, but the monitor only
///   *adopts* an epoch on an explicit
///   [`CoordinatorToMonitor::NewEpoch`] — until that arrives, its
///   replies keep the old stamp and the new coordinator rejects them.
///   A monitor partitioned across a failover therefore re-enters only
///   through quarantine and the supervised `Revived` handshake, never by
///   having a stale frame mistaken for current traffic.
#[derive(Debug, Clone)]
pub struct MonitorActor {
    id: MonitorId,
    sampler: AdaptiveSampler,
    next_sample_tick: u64,
    /// The agent's most recent tick data (what a global poll returns).
    current: Option<TickData>,
    /// Whether the current tick's schedule already sampled.
    sampled_this_tick: bool,
    /// The coordinator epoch this monitor currently accepts.
    epoch: u64,
    /// Frames rejected for carrying an epoch older than ours.
    stale_rejections: u64,
    /// Observability handles (absent = zero instrumentation cost).
    obs: Option<MonitorObsHandles>,
    /// Sample/interval recording sink (absent = nothing persisted).
    recorder: Option<SampleRecorder>,
    /// The last interval recorded, so only *changes* produce records
    /// (0 = none yet: the first observation records the initial
    /// interval, giving replays a complete interval timeline).
    last_interval: u32,
    /// Multi-task suppression gate (§II.B): while engaged, scheduled
    /// samples are paced to at least this many ticks apart — the
    /// effective interval becomes `max(adaptive, gate)`. Global polls
    /// are never gated, so the coordinator's aggregation stays exact.
    gate: Option<u32>,
    /// Tick of the last sample taken (scheduled or poll-forced), the
    /// reference point the gate paces from.
    last_sample_tick: Option<u64>,
    /// Scheduled samples the gate has held back so far.
    suppressed_total: u64,
}

/// What tick data and polls can change in an actor: the state a socket
/// agent keeps at the start of a granted window, so that a rewind can put
/// it back and replay (`DESIGN.md` §8). Everything else an actor holds —
/// the sampler's configuration, threshold and allowance among it — moves
/// only on the coordinator's other control frames, so a rewind leaves it
/// as they last set it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickState {
    sampler: SamplerTickState,
    next_sample_tick: u64,
    current: Option<TickData>,
    sampled_this_tick: bool,
    last_sample_tick: Option<u64>,
    last_interval: u32,
    suppressed_total: u64,
}

/// Pre-resolved obs instruments, so the hot path never takes the
/// registry mutex.
#[derive(Debug, Clone)]
struct MonitorObsHandles {
    spans: SpanLog,
    sample_hist: Histogram,
    samples: Counter,
    sends: Counter,
}

impl MonitorActor {
    /// Creates a monitor actor around a configured sampler.
    pub fn new(id: MonitorId, sampler: AdaptiveSampler) -> Self {
        MonitorActor {
            id,
            sampler,
            next_sample_tick: 0,
            current: None,
            sampled_this_tick: false,
            epoch: 0,
            stale_rejections: 0,
            obs: None,
            recorder: None,
            last_interval: 0,
            gate: None,
            last_sample_tick: None,
            suppressed_total: 0,
        }
    }

    /// Attaches observability: the sample/likelihood-evaluation path gets
    /// a span + latency histogram ([`names::MONITOR_SAMPLE_NS`]) and
    /// counters for samples and transport sends. Instrument handles are
    /// resolved once here so the hot path never touches the registry
    /// mutex; when the bundle is disabled each instrument costs one
    /// relaxed atomic load.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = Some(MonitorObsHandles {
            spans: obs.spans().clone(),
            sample_hist: obs.registry().histogram(names::MONITOR_SAMPLE_NS),
            samples: obs.registry().counter(names::MONITOR_SAMPLES_TOTAL),
            sends: obs.registry().counter(names::TRANSPORT_SENDS_TOTAL),
        });
        self
    }

    /// Attaches a recording sink: every observed sample (scheduled or
    /// poll-forced) and every sampling-interval change is appended to
    /// the store. Recording is best-effort and never blocks or fails
    /// the actor (see [`SampleRecorder`]).
    #[must_use]
    pub fn with_recorder(mut self, recorder: SampleRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Starts the monitor already fenced at `epoch` (supervised restarts
    /// after a failover hand the replacement the current epoch).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The monitor's identity.
    pub fn id(&self) -> MonitorId {
        self.id
    }

    /// The coordinator epoch this monitor currently accepts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Frames rejected so far for carrying a stale epoch.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections
    }

    /// Read access to the underlying sampler (diagnostics/tests).
    pub fn sampler(&self) -> &AdaptiveSampler {
        &self.sampler
    }

    /// The currently engaged suppression-gate interval, if any.
    pub fn gate(&self) -> Option<u32> {
        self.gate
    }

    /// Scheduled samples held back by the gate so far.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed_total
    }

    /// A copy of what tick data and polls can change.
    pub(crate) fn tick_state(&self) -> TickState {
        TickState {
            sampler: self.sampler.tick_state(),
            next_sample_tick: self.next_sample_tick,
            current: self.current,
            sampled_this_tick: self.sampled_this_tick,
            last_sample_tick: self.last_sample_tick,
            last_interval: self.last_interval,
            suppressed_total: self.suppressed_total,
        }
    }

    /// Puts back what [`tick_state`](Self::tick_state) copied.
    pub(crate) fn restore_tick_state(&mut self, state: &TickState) {
        self.sampler.restore_tick_state(&state.sampler);
        self.next_sample_tick = state.next_sample_tick;
        self.current = state.current;
        self.sampled_this_tick = state.sampled_this_tick;
        self.last_sample_tick = state.last_sample_tick;
        self.last_interval = state.last_interval;
        self.suppressed_total = state.suppressed_total;
    }

    /// Handles one decoded protocol message, returning any reply and
    /// whether the actor should terminate.
    ///
    /// Exposed so unit tests (and alternative transports) can drive the
    /// actor without threads.
    pub fn handle(&mut self, msg: CoordinatorToMonitor) -> (Option<MonitorToCoordinator>, bool) {
        match msg {
            CoordinatorToMonitor::Tick(data) => {
                self.current = Some(data);
                self.sampled_this_tick = false;
                let mut violation = false;
                let mut sampled = false;
                let mut suppressed = false;
                if data.tick >= self.next_sample_tick {
                    // The adaptive schedule is due — but an engaged gate
                    // paces samples to at least `gate` ticks apart while
                    // the leader task is calm. `next_sample_tick` is left
                    // untouched, so releasing the gate snaps the monitor
                    // straight back to its adaptive schedule. A gated
                    // monitor that has never sampled samples at once: the
                    // first sample seeds the δ estimate.
                    if FollowerGate::holds(self.gate, self.last_sample_tick, data.tick) {
                        suppressed = true;
                        self.suppressed_total += 1;
                    } else {
                        // The sample + violation-likelihood evaluation is
                        // the monitor's hot path: one span/timer pair
                        // covers both.
                        let obs = {
                            let _timed = self
                                .obs
                                .as_ref()
                                .map(|h| h.spans.span_timed("monitor_sample", &h.sample_hist));
                            self.sampler.observe(data.tick, data.value)
                        };
                        if let Some(handles) = &self.obs {
                            handles.samples.inc();
                        }
                        self.next_sample_tick = obs.next_sample_tick;
                        violation = obs.violation;
                        sampled = true;
                        self.sampled_this_tick = true;
                        self.last_sample_tick = Some(data.tick);
                        self.record_observation(data.tick, data.value, false);
                    }
                }
                (
                    Some(MonitorToCoordinator::TickDone {
                        monitor: self.id,
                        tick: data.tick,
                        sampled,
                        violation,
                        suppressed,
                    }),
                    false,
                )
            }
            CoordinatorToMonitor::Poll { tick } => {
                let data = self.current.unwrap_or(TickData { tick, value: 0.0 });
                let forced = !self.sampled_this_tick;
                if forced {
                    self.sampler.observe_forced(data.tick, data.value);
                    // A poll response counts as this tick's sample; a
                    // second poll in the same tick must not double-charge.
                    self.sampled_this_tick = true;
                    self.last_sample_tick = Some(data.tick);
                    self.record_observation(data.tick, data.value, true);
                }
                (
                    Some(MonitorToCoordinator::PollReply {
                        monitor: self.id,
                        tick: data.tick,
                        value: data.value,
                        forced_sample: forced,
                    }),
                    false,
                )
            }
            CoordinatorToMonitor::RequestReport => (
                Some(MonitorToCoordinator::Report {
                    monitor: self.id,
                    report: self.sampler.drain_period_report(),
                }),
                false,
            ),
            CoordinatorToMonitor::SetAllowance { err } => {
                self.sampler.set_error_allowance(err);
                (None, false)
            }
            CoordinatorToMonitor::NewEpoch { epoch } => {
                // Epochs only ever rise; an old NewEpoch re-delivered out
                // of order must not roll the fence back.
                self.epoch = self.epoch.max(epoch);
                (None, false)
            }
            CoordinatorToMonitor::RequestSnapshot => (
                Some(MonitorToCoordinator::StateSnapshot {
                    monitor: self.id,
                    snapshot: self.sampler.to_snapshot(),
                }),
                false,
            ),
            CoordinatorToMonitor::RestoreState { snapshot } => {
                self.sampler = AdaptiveSampler::from_snapshot(&snapshot);
                // The restored schedule samples at the next tick: one
                // deliberate extra sample that refreshes the δ estimate
                // right after recovery, then the grown interval resumes.
                self.next_sample_tick = 0;
                self.current = None;
                self.sampled_this_tick = false;
                // Recovery may land on any interval: re-record it at the
                // next observation. The deliberate post-restore refresh
                // sample must not be gate-paced either.
                self.last_interval = 0;
                self.last_sample_tick = None;
                (None, false)
            }
            CoordinatorToMonitor::ResetSampler => {
                // The paper's conservative restart: fresh statistics at
                // the default interval. The allowance in effect survives
                // (the coordinator follows up with `SetAllowance` when it
                // has a better value).
                self.sampler = fresh_sampler(
                    *self.sampler.config(),
                    self.sampler.threshold(),
                    self.sampler.error_allowance(),
                );
                self.next_sample_tick = 0;
                self.current = None;
                self.sampled_this_tick = false;
                self.last_interval = 0;
                self.last_sample_tick = None;
                (None, false)
            }
            CoordinatorToMonitor::SetGate { interval } => {
                self.gate = interval.filter(|&i| i > 1);
                (None, false)
            }
            CoordinatorToMonitor::Shutdown => (None, true),
        }
    }

    /// Appends the observation (and any interval change it caused) to
    /// the attached recorder, if any.
    fn record_observation(&mut self, tick: u64, value: f64, forced: bool) {
        let interval = self.sampler.interval().get();
        let changed = std::mem::replace(&mut self.last_interval, interval) != interval;
        let Some(recorder) = &self.recorder else {
            return;
        };
        if forced {
            recorder.record_poll_sample(self.id.0, tick, value);
        } else {
            recorder.record_sample(self.id.0, tick, value);
        }
        if changed {
            recorder.record_interval_change(self.id.0, tick, interval);
        }
    }

    /// Handles one epoch-stamped frame, applying the fencing rules (see
    /// the type docs) before delegating to
    /// [`handle`](MonitorActor::handle). Replies are sealed at the
    /// monitor's *current* epoch.
    pub fn handle_frame(&mut self, frame: ControlFrame) -> (Option<MonitorFrame>, bool) {
        if matches!(frame.msg, CoordinatorToMonitor::Shutdown) {
            return (None, true);
        }
        if frame.epoch < self.epoch {
            self.stale_rejections += 1;
            return (None, false);
        }
        let (reply, terminate) = self.handle(frame.msg);
        (
            reply.map(|msg| MonitorFrame {
                epoch: self.epoch,
                msg,
            }),
            terminate,
        )
    }
}

/// One hosted monitor: the actor and the bit of process state the
/// [`FaultPlan`] of its table acts on — liveness, the last tick seen, a
/// held delayed reply.
///
/// The plan is acted out in `deliver`, on the frames in both directions;
/// neither the actor nor the coordinator reads it. A restarted slot
/// replaces the faulty process, so the plan's process faults (crash,
/// stall) pass it by, while its link faults keep applying.
/// Faults key on virtual ticks, never on a real sleep, so any number of
/// slots share one thread without one's fault touching another's
/// replies:
///
/// - **crash**: the slot dies (held reply and all) the first time a tick
///   at or past the scheduled crash tick arrives — the process simply
///   ceases to exist, and sends to it fail;
/// - **stall**: while stalled the slot keeps consuming input but neither
///   processes nor replies, like a thread wedged on a lock (shutdown
///   still terminates it so harness teardown cannot hang);
/// - **drop**: a `TickDone`'s violation bit is lost on the report path
///   (the tick's report still arrives, as a quiet one), and a
///   `PollReply` is lost whole — each keyed by the reply's own tick;
/// - **delay**: a reply (the frame, a value) is held back and flushed
///   after the *next* reply, arriving reordered and past its deadline;
/// - **duplicate**: a reply is sent twice (the frame and a clone),
///   exercising the coordinator's dedup path;
/// - **partition**: while the link to the coordinator is cut the slot
///   consumes input without processing it and sends nothing — its local
///   state (including its epoch) freezes, which is exactly what makes
///   its first frames after the heal stale.
#[derive(Debug)]
pub(crate) struct MonitorSlot {
    actor: MonitorActor,
    /// Cleared by a crash or a shutdown, for good: a send to a dead
    /// monitor fails as a send to an exited process would.
    alive: bool,
    /// Told to shut down (whether or not a crash got there first).
    stopped: bool,
    /// Installed by a supervisor: its process faults were the
    /// predecessor's.
    restarted: bool,
    /// The slot's notion of "now", which fault decisions key on.
    last_tick: u64,
    /// A delayed reply awaiting the next send opportunity (boxed: a
    /// fault path must not cost every slot a frame's 160 bytes).
    held: Option<Box<MonitorFrame>>,
}

impl MonitorSlot {
    /// A live slot around `actor`.
    pub(crate) fn new(actor: MonitorActor) -> Self {
        MonitorSlot {
            actor,
            alive: true,
            stopped: false,
            restarted: false,
            last_tick: 0,
            held: None,
        }
    }

    /// The hosted actor.
    pub(crate) fn actor(&self) -> &MonitorActor {
        &self.actor
    }

    /// Whether the monitor still runs (neither crashed nor shut down).
    pub(crate) fn alive(&self) -> bool {
        self.alive
    }

    /// Feeds the slot one control frame under `faults`, handing the reply
    /// frames it sends to `out`; returns how many that was.
    fn deliver(
        &mut self,
        faults: &FaultPlan,
        frame: ControlFrame,
        out: &mut impl FnMut(MonitorFrame),
    ) -> u64 {
        let shutdown = matches!(frame.msg, CoordinatorToMonitor::Shutdown);
        self.stopped |= shutdown;
        if !self.alive {
            return 0;
        }
        let (id, process) = (self.actor.id, !self.restarted);
        if let CoordinatorToMonitor::Tick(data) = &frame.msg {
            self.last_tick = data.tick;
            if process && faults.crash_tick(id).is_some_and(|at| data.tick >= at) {
                // Simulated crash: vanish without replying.
                self.held = None;
                self.alive = false;
                return 0;
            }
        }
        let now = self.last_tick;
        let stalled = process && faults.stalled(id, now);
        if (stalled || faults.partitioned(id, now)) && !shutdown {
            return 0; // wedged or cut off: consume input, do nothing
        }
        let (delays, duplicates) = (faults.delays(id, now), faults.duplicates(id, now));
        let (reply, terminate) = self.actor.handle_frame(frame);
        let mut sent = 0;
        if let Some(reply) = reply {
            // A reply lost on the link still took its turn: one held
            // behind it goes out all the same.
            let reply = lossy(faults, reply);
            if delays {
                // Hold this reply; anything already held goes out now,
                // behind schedule.
                let late = std::mem::replace(&mut self.held, reply.map(Box::new));
                sent += flush(late, out);
            } else {
                if let Some(reply) = reply {
                    sent += 1 + u64::from(duplicates);
                    if duplicates {
                        out(reply.clone());
                    }
                    out(reply);
                }
                sent += flush(self.held.take(), out);
            }
        }
        if terminate {
            sent += self.retire(out);
        }
        self.count(sent)
    }

    /// Ends the slot's life in an orderly way (shutdown, or a supervisor
    /// replacing it): a still-held reply goes out — the coordinator will
    /// discard it as stale, but a real delayed packet would arrive too.
    fn retire(&mut self, out: &mut impl FnMut(MonitorFrame)) -> u64 {
        self.alive = false;
        flush(self.held.take(), out)
    }

    /// Counts `sent` frames as transport sends when obs is on.
    fn count(&self, sent: u64) -> u64 {
        if let Some(handles) = &self.actor.obs {
            handles.sends.add(sent);
        }
        sent
    }
}

/// What of `reply` survives the plan's lossy report paths, keyed by the
/// reply's own tick: a dropped violation report clears the `TickDone`'s
/// violation bit, a dropped poll reply is lost whole.
fn lossy(faults: &FaultPlan, mut reply: MonitorFrame) -> Option<MonitorFrame> {
    match &mut reply.msg {
        MonitorToCoordinator::TickDone {
            monitor,
            tick,
            violation,
            ..
        } => {
            *violation = *violation && !faults.drops(FaultPath::ViolationReport, *monitor, *tick);
        }
        MonitorToCoordinator::PollReply { monitor, tick, .. }
            if faults.drops(FaultPath::PollReply, *monitor, *tick) =>
        {
            return None;
        }
        _ => {}
    }
    Some(reply)
}

/// Hands a held reply, if any, to `out`; returns how many frames went.
fn flush(held: Option<Box<MonitorFrame>>, out: &mut impl FnMut(MonitorFrame)) -> u64 {
    held.map_or(0, |late| {
        out(*late);
        1
    })
}

/// The monitors one thread hosts: a contiguous range of the task's
/// monitor ids, one [`MonitorSlot`] each, and the one [`FaultPlan`] their
/// processes and links run under.
#[derive(Debug)]
pub(crate) struct SlotTable {
    /// Id of the first hosted monitor; `slots[i]` is monitor `base + i`.
    base: u32,
    slots: Vec<MonitorSlot>,
    faults: FaultPlan,
}

#[cfg(test)]
thread_local! {
    /// Ticks watched on this thread and, per monitor id, its sampler
    /// state as the tick's data last reached it in a slot table — the
    /// sweep's probe of agent-hosted monitors, recorded afresh each
    /// time, so a re-stepped monitor's record is the state it last
    /// stepped on from.
    pub(crate) static WATCHED: std::cell::RefCell<crate::session::Watched> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl SlotTable {
    /// A fault-free table hosting `slots` as monitors `base..`.
    pub(crate) fn new(base: u32, slots: Vec<MonitorSlot>) -> Self {
        SlotTable {
            base,
            slots,
            faults: FaultPlan::default(),
        }
    }

    /// Runs the hosted monitors' processes and links under `faults`.
    #[must_use]
    pub(crate) fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The hosted slots, in monitor order.
    pub(crate) fn slots(&self) -> &[MonitorSlot] {
        &self.slots
    }

    /// Whether every hosted monitor has been told to shut down.
    pub(crate) fn finished(&self) -> bool {
        self.slots.iter().all(|slot| slot.stopped)
    }

    fn slot(&mut self, monitor: u32) -> Option<&mut MonitorSlot> {
        let hosted = monitor.checked_sub(self.base)?;
        self.slots.get_mut(hosted as usize)
    }

    /// The actor of the `hosted`-th slot, for a rewind to restore.
    pub(crate) fn actor_mut(&mut self, hosted: usize) -> &mut MonitorActor {
        &mut self.slots[hosted].actor
    }

    /// Hands monitor `to` one control frame (misrouted frames and frames
    /// for a dead monitor are dropped); its replies are handed to `out`,
    /// their count returned.
    pub(crate) fn deliver(
        &mut self,
        to: u32,
        frame: ControlFrame,
        out: &mut impl FnMut(MonitorFrame),
    ) -> u64 {
        let faults = &self.faults;
        let hosted = to.checked_sub(self.base).map(|at| at as usize);
        #[cfg(test)]
        if let (CoordinatorToMonitor::Tick(data), Some(at)) = (frame.msg, hosted) {
            let state = self
                .slots
                .get(at)
                .map(|slot| crate::session::probe(slot.actor.sampler()));
            WATCHED.with_borrow_mut(|watched| {
                for (_, states) in watched.iter_mut().filter(|(t, _)| *t == data.tick) {
                    states[to as usize] = state;
                }
            });
        }
        let slot = hosted.and_then(|at| self.slots.get_mut(at));
        slot.map_or(0, |slot| slot.deliver(faults, frame, out))
    }

    /// Puts a restarted slot around `actor` in its predecessor's place; a
    /// reply the predecessor still held goes out, as a process told to
    /// exit flushes it.
    pub(crate) fn install(&mut self, actor: MonitorActor, out: &mut impl FnMut(MonitorFrame)) {
        let fresh = MonitorSlot {
            restarted: true,
            ..MonitorSlot::new(actor)
        };
        if let Some(slot) = self.slot(fresh.actor.id.0) {
            let mut old = std::mem::replace(slot, fresh);
            let sent = old.retire(out);
            old.count(sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volley_core::AdaptationConfig;

    fn actor(threshold: f64) -> MonitorActor {
        actor_id(0, threshold)
    }

    fn actor_id(id: u32, threshold: f64) -> MonitorActor {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .patience(2)
            .warmup_samples(2)
            .max_interval(4)
            .build()
            .unwrap();
        MonitorActor::new(MonitorId(id), AdaptiveSampler::new(cfg, threshold))
    }

    #[test]
    fn tick_produces_done_with_violation_flag() {
        let mut a = actor(5.0);
        let (reply, stop) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 0,
            value: 9.0,
        }));
        assert!(!stop);
        match reply.unwrap() {
            MonitorToCoordinator::TickDone {
                sampled,
                violation,
                tick,
                ..
            } => {
                assert!(sampled);
                assert!(violation);
                assert_eq!(tick, 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn skipped_ticks_report_unsampled() {
        let mut a = actor(100.0);
        // Warm up until the interval grows past 1.
        let mut tick = 0u64;
        loop {
            a.handle(CoordinatorToMonitor::Tick(TickData { tick, value: 1.0 }));
            if a.sampler().interval().get() > 1 {
                break;
            }
            tick += 1;
            assert!(tick < 1000, "interval should grow");
        }
        // The next tick falls inside the grown interval: not sampled.
        let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: tick + 1,
            value: 1.0,
        }));
        match reply.unwrap() {
            MonitorToCoordinator::TickDone {
                sampled, violation, ..
            } => {
                assert!(!sampled);
                assert!(!violation);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn poll_returns_current_value_and_forces_sample_once() {
        let mut a = actor(100.0);
        // Drive ticks until one falls inside a grown interval (unsampled).
        let mut tick = 0u64;
        loop {
            let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData { tick, value: 7.5 }));
            match reply.unwrap() {
                MonitorToCoordinator::TickDone { sampled: false, .. } => break,
                MonitorToCoordinator::TickDone { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
            tick += 1;
            assert!(tick < 1000, "interval should eventually grow");
        }
        let (reply, _) = a.handle(CoordinatorToMonitor::Poll { tick });
        match reply.unwrap() {
            MonitorToCoordinator::PollReply {
                value,
                forced_sample,
                ..
            } => {
                assert_eq!(value, 7.5);
                assert!(forced_sample);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // A second poll in the same tick is free.
        let (reply, _) = a.handle(CoordinatorToMonitor::Poll { tick: 21 });
        match reply.unwrap() {
            MonitorToCoordinator::PollReply { forced_sample, .. } => assert!(!forced_sample),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn set_allowance_flows_to_sampler() {
        let mut a = actor(10.0);
        let (reply, stop) = a.handle(CoordinatorToMonitor::SetAllowance { err: 0.42 });
        assert!(reply.is_none());
        assert!(!stop);
        assert_eq!(a.sampler().error_allowance(), 0.42);
    }

    #[test]
    fn report_drains_period() {
        let mut a = actor(10.0);
        a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 0,
            value: 1.0,
        }));
        let (reply, _) = a.handle(CoordinatorToMonitor::RequestReport);
        match reply.unwrap() {
            MonitorToCoordinator::Report { report, .. } => assert_eq!(report.observations, 1),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn gate_paces_scheduled_samples_and_releases_cleanly() {
        // Every sampled value violates (200 > 100), pinning the adaptive
        // interval at 1 — so every skipped tick is the gate's doing.
        let mut a = actor(100.0);
        a.handle(CoordinatorToMonitor::SetGate { interval: Some(4) });
        // Tick 0: first gated sample happens (gate needs a reference).
        let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 0,
            value: 200.0,
        }));
        assert!(matches!(
            reply.unwrap(),
            MonitorToCoordinator::TickDone { sampled: true, .. }
        ));
        // Ticks 1–3: adaptive schedule is due (interval pinned at 1)
        // but the gate holds every sample.
        for tick in 1u64..4 {
            let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData { tick, value: 200.0 }));
            match reply.unwrap() {
                MonitorToCoordinator::TickDone {
                    sampled,
                    suppressed,
                    ..
                } => {
                    assert!(!sampled, "gate must hold tick {tick}");
                    assert!(suppressed, "held tick {tick} counts as suppressed");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(a.suppressed_total(), 3);
        // Tick 4: the gate interval has elapsed — the sample goes through.
        let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 4,
            value: 200.0,
        }));
        assert!(matches!(
            reply.unwrap(),
            MonitorToCoordinator::TickDone { sampled: true, .. }
        ));
        // Release: the adaptive schedule resumes immediately.
        a.handle(CoordinatorToMonitor::SetGate { interval: None });
        assert_eq!(a.gate(), None);
        let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 5,
            value: 200.0,
        }));
        match reply.unwrap() {
            MonitorToCoordinator::TickDone {
                sampled,
                suppressed,
                ..
            } => {
                assert!(sampled, "released gate snaps back to adaptive");
                assert!(!suppressed);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn gated_monitor_still_answers_polls_with_forced_samples() {
        let mut a = actor(100.0);
        a.handle(CoordinatorToMonitor::SetGate { interval: Some(8) });
        a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 0,
            value: 3.0,
        }));
        // Tick 1 is gate-held...
        let (reply, _) = a.handle(CoordinatorToMonitor::Tick(TickData {
            tick: 1,
            value: 7.0,
        }));
        assert!(matches!(
            reply.unwrap(),
            MonitorToCoordinator::TickDone {
                suppressed: true,
                ..
            }
        ));
        // ...but a global poll still forces a real sample: aggregation
        // exactness is never traded away by the gate.
        let (reply, _) = a.handle(CoordinatorToMonitor::Poll { tick: 1 });
        match reply.unwrap() {
            MonitorToCoordinator::PollReply {
                value,
                forced_sample,
                ..
            } => {
                assert_eq!(value, 7.0);
                assert!(forced_sample);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn shutdown_terminates() {
        let mut a = actor(10.0);
        let (reply, stop) = a.handle(CoordinatorToMonitor::Shutdown);
        assert!(reply.is_none());
        assert!(stop);
    }

    use crate::failure::FaultPlan;

    /// A table stepping `actors` as monitors `0..`, driven by hand: what
    /// the session and the socket agent do, minus the coordinator.
    struct Hosted {
        table: SlotTable,
        /// What the slots sent and [`sent`](Self::sent) has not read yet.
        out: Vec<MonitorFrame>,
    }

    fn hosted(slots: Vec<MonitorSlot>) -> Hosted {
        hosted_under(FaultPlan::default(), slots)
    }

    /// [`hosted`] with the table under `plan`.
    fn hosted_under(plan: FaultPlan, slots: Vec<MonitorSlot>) -> Hosted {
        Hosted {
            table: SlotTable::new(0, slots).with_faults(plan),
            out: Vec::new(),
        }
    }

    impl Hosted {
        /// Delivers one frame; returns how many frames the slot sent.
        fn send(&mut self, monitor: u32, epoch: u64, msg: CoordinatorToMonitor) -> u64 {
            let frame = ControlFrame { epoch, msg };
            let out = &mut self.out;
            self.table
                .deliver(monitor, frame, &mut |reply| out.push(reply))
        }

        fn tick(&mut self, monitor: u32, tick: u64, value: f64) -> u64 {
            let data = TickData { tick, value };
            self.send(monitor, 0, CoordinatorToMonitor::Tick(data))
        }

        fn install(&mut self, actor: MonitorActor) {
            let out = &mut self.out;
            self.table.install(actor, &mut |reply| out.push(reply));
        }

        fn alive(&self, monitor: usize) -> bool {
            self.table.slots()[monitor].alive()
        }

        /// The frames sent since the last call, in order.
        fn sent(&mut self) -> Vec<MonitorFrame> {
            std::mem::take(&mut self.out)
        }

        /// The `(monitor, tick)` of every frame sent since the last call,
        /// all of them `TickDone`s sealed at `epoch`.
        fn tick_dones(&mut self, epoch: u64) -> Vec<(u32, u64)> {
            let done = |frame: MonitorFrame| {
                assert_eq!(frame.epoch, epoch);
                match frame.msg {
                    MonitorToCoordinator::TickDone { monitor, tick, .. } => (monitor.0, tick),
                    other => panic!("expected a TickDone, got {other:?}"),
                }
            };
            self.sent().into_iter().map(done).collect()
        }
    }

    #[test]
    fn a_slot_answers_a_tick_with_exactly_one_frame() {
        let mut host = hosted(vec![MonitorSlot::new(actor(5.0))]);
        assert_eq!(host.tick(0, 0, 9.0), 1);
        let sent = host.sent();
        assert!(matches!(
            sent[..],
            [MonitorFrame {
                epoch: 0,
                msg: MonitorToCoordinator::TickDone {
                    violation: true,
                    ..
                }
            }]
        ));
        // A frame for a monitor the table does not host is dropped.
        assert_eq!(host.tick(7, 1, 9.0), 0);
        assert!(host.sent().is_empty());
    }

    /// Fault paths cost a healthy slot next to nothing: the plan is the
    /// table's, one for all its slots, and a delayed reply is held behind
    /// a pointer, not in a frame's 160 bytes.
    #[test]
    fn a_slot_holds_its_actor_and_three_words() {
        use std::mem::size_of;
        // The actor, then: the three flags (padded), `last_tick`, `held`.
        assert!(size_of::<MonitorSlot>() <= size_of::<MonitorActor>() + 3 * size_of::<u64>());
    }

    #[test]
    fn crash_fault_terminates_without_reply() {
        let plan = FaultPlan::new(1).with_crash(MonitorId(0), 1);
        let slots = vec![
            MonitorSlot::new(actor(5.0)),
            MonitorSlot::new(actor_id(1, 5.0)),
        ];
        let mut host = hosted_under(plan, slots);
        host.tick(0, 0, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        assert!(host.alive(0));
        // The crash tick: consumed, and nothing comes of it.
        assert_eq!(host.tick(0, 1, 1.0), 0);
        assert!(!host.alive(0), "a send to a crashed monitor fails");
        assert_eq!(host.tick(0, 2, 1.0), 0);
        host.tick(1, 1, 1.0);
        assert_eq!(host.tick_dones(0), [(1, 1)], "the neighbour is untouched");
    }

    #[test]
    fn stalled_monitor_discards_but_honors_shutdown() {
        let plan =
            FaultPlan::new(1)
                .with_stall(MonitorId(0), 1, 2)
                .with_stall(MonitorId(0), 4, 100);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(5.0))]);
        host.tick(0, 0, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        // Ticks 1 and 2 fall inside the stall window: consumed, no reply.
        host.tick(0, 1, 1.0);
        host.send(0, 0, CoordinatorToMonitor::Poll { tick: 1 });
        host.tick(0, 2, 1.0);
        assert!(host.sent().is_empty());
        // Tick 3 is past the window: the monitor answers again.
        host.tick(0, 3, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 3)]);
        // Back inside a (second) stall the slot still hears Shutdown —
        // an agent whose table never finished would never exit.
        host.tick(0, 4, 1.0);
        assert!(!host.table.finished());
        host.send(0, 0, CoordinatorToMonitor::Shutdown);
        assert!(host.table.finished() && !host.alive(0));
        assert!(host.sent().is_empty());
    }

    #[test]
    fn partitioned_monitor_goes_silent_then_answers_with_its_old_epoch() {
        let plan = FaultPlan::new(1).with_partition(&[MonitorId(0)], 1, 3);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(5.0))]);
        host.tick(0, 0, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        // The partition spans a failover: the dying primary's tick 1
        // advances the monitor's clock into the window, then the standby's
        // NewEpoch broadcast and the next tick are blind-consumed.
        let tick = |tick| CoordinatorToMonitor::Tick(TickData { tick, value: 1.0 });
        host.send(0, 0, tick(1));
        host.send(0, 1, CoordinatorToMonitor::NewEpoch { epoch: 1 });
        host.send(0, 1, tick(2));
        assert!(host.sent().is_empty());
        // The partition heals at tick 3 — but the monitor missed the
        // epoch bump, so its reply still carries epoch 0: provably stale
        // at the new coordinator.
        host.send(0, 1, tick(3));
        assert_eq!(host.tick_dones(0), [(0, 3)]);
    }

    #[test]
    fn delayed_reply_arrives_after_the_next_one() {
        // Delay probability 1: every reply is held one send behind.
        let plan = FaultPlan::new(1).with_delay_rate(1.0);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(100.0))]);
        assert_eq!(host.tick(0, 0, 1.0), 0, "held");
        // Tick 0's reply only goes out when tick 1's reply displaces it;
        // tick 1's reply goes out at shutdown.
        assert_eq!(host.tick(0, 1, 1.0), 1);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        assert_eq!(host.send(0, 0, CoordinatorToMonitor::Shutdown), 1);
        assert_eq!(host.tick_dones(0), [(0, 1)]);
    }

    /// The report path's drops happen on the link: a violating tick is
    /// still answered, but with its violation bit lost, and a dropped
    /// poll reply never leaves at all.
    #[test]
    fn dropped_reports_suppress_polls() {
        let plan = FaultPlan::new(1)
            .with_drop_rate(FaultPath::ViolationReport, 1.0)
            .with_drop_rate(FaultPath::PollReply, 1.0);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(5.0))]);
        assert_eq!(host.tick(0, 0, 9.0), 1);
        let sent = host.sent();
        assert!(matches!(
            sent[..],
            [MonitorFrame {
                msg: MonitorToCoordinator::TickDone {
                    sampled: true,
                    violation: false,
                    ..
                },
                ..
            }]
        ));
        assert_eq!(host.send(0, 0, CoordinatorToMonitor::Poll { tick: 0 }), 0);
        assert!(host.sent().is_empty());
    }

    #[test]
    fn duplicated_reply_is_sent_twice() {
        let plan = FaultPlan::new(1).with_duplication_rate(1.0);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(100.0))]);
        assert_eq!(host.tick(0, 0, 1.0), 2);
        let sent = host.sent();
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0], sent[1], "the same frame goes out twice");
    }

    #[test]
    fn a_table_is_finished_once_every_slot_was_told_to_shut_down() {
        let plan = FaultPlan::new(1).with_crash(MonitorId(0), 0);
        let slots = vec![
            MonitorSlot::new(actor(5.0)),
            MonitorSlot::new(actor_id(1, 5.0)),
        ];
        let mut host = hosted_under(plan, slots);
        host.tick(0, 0, 1.0);
        host.tick(1, 0, 1.0);
        assert_eq!(host.tick_dones(0), [(1, 0)]);
        // Slot 0 is dead by now. One live slot shut down is not the end:
        // slot 0 may yet be replaced, so the table keeps serving…
        host.send(1, 0, CoordinatorToMonitor::Shutdown);
        assert!(!host.table.finished());
        host.install(actor(5.0));
        host.tick(0, 1, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 1)]);
        // …until the (replaced) slot 0 is shut down too.
        host.send(0, 0, CoordinatorToMonitor::Shutdown);
        assert!(host.table.finished());
    }

    #[test]
    fn a_stalled_or_crashed_slot_does_not_delay_its_neighbours() {
        let plan = FaultPlan::new(1)
            .with_crash(MonitorId(0), 1)
            .with_stall(MonitorId(1), 1, 1_000);
        let slots = (0..4).map(|m| MonitorSlot::new(actor_id(m, 5.0)));
        let mut host = hosted_under(plan, slots.collect());
        for tick in 0..3 {
            for monitor in 0..4 {
                host.tick(monitor, tick, 1.0);
            }
            // Every healthy slot answers every tick, in delivery order,
            // with nothing from (or because of) the two faulty ones in
            // between.
            let healthy: &[u32] = if tick == 0 { &[0, 1, 2, 3] } else { &[2, 3] };
            let expected: Vec<(u32, u64)> = healthy.iter().map(|&m| (m, tick)).collect();
            assert_eq!(host.tick_dones(0), expected);
        }
    }

    #[test]
    fn install_after_crash_revives_the_slot_and_drops_the_gap() {
        let plan = FaultPlan::new(1).with_crash(MonitorId(0), 1);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(5.0))]);
        host.tick(0, 0, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        host.tick(0, 1, 1.0);
        // Between crash and install every frame dies at the dead slot.
        assert_eq!(host.tick(0, 2, 1.0), 0);
        assert!(!host.alive(0));
        host.install(actor(5.0).with_epoch(3));
        assert!(host.alive(0), "the slot is live again");
        let data = TickData {
            tick: 3,
            value: 1.0,
        };
        host.send(0, 3, CoordinatorToMonitor::Tick(data));
        assert_eq!(
            host.tick_dones(3),
            [(0, 3)],
            "the fresh actor's first report; tick 2 was dropped"
        );
    }

    /// A restarted slot replaces its process, not its link: its
    /// monitor's crash and stall pass it by, a partition still cuts it
    /// off, and a neighbour keeps its own process faults.
    #[test]
    fn a_restarted_slot_runs_past_its_process_faults_not_its_link_faults() {
        let plan = FaultPlan::new(5)
            .with_crash(MonitorId(0), 1)
            .with_stall(MonitorId(0), 2, 10)
            .with_partition(&[MonitorId(0)], 4, 6)
            .with_stall(MonitorId(1), 2, 10);
        let slots = vec![
            MonitorSlot::new(actor(5.0)),
            MonitorSlot::new(actor_id(1, 5.0)),
        ];
        let mut host = hosted_under(plan, slots);
        host.tick(0, 1, 1.0);
        assert!(!host.alive(0), "crashed");
        host.install(actor(5.0));
        for tick in 2..8 {
            host.tick(0, tick, 1.0);
            host.tick(1, tick, 1.0);
        }
        let answered = [(0, 2), (0, 3), (0, 6), (0, 7)];
        assert_eq!(host.tick_dones(0), answered, "cut off at 4 and 5 only");
    }

    #[test]
    fn install_flushes_the_reply_a_stalled_predecessor_still_held() {
        // Every reply is delayed; from tick 1 on the monitor is wedged.
        let plan = FaultPlan::new(1)
            .with_delay_rate(1.0)
            .with_stall(MonitorId(0), 1, 1_000);
        let mut host = hosted_under(plan, vec![MonitorSlot::new(actor(5.0))]);
        host.tick(0, 0, 1.0); // reply held
        host.tick(0, 1, 1.0); // stalled
        assert!(host.sent().is_empty());
        // A process told to exit flushes what it still holds; so does
        // the install, ahead of anything the newcomer says. The newcomer
        // runs past the stall — a process fault of its predecessor — but
        // its link still delays: its first reply waits for its second.
        host.install(actor(5.0));
        host.tick(0, 2, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 0)]);
        host.tick(0, 3, 1.0);
        assert_eq!(host.tick_dones(0), [(0, 2)]);
    }

    #[test]
    fn stale_frames_are_rejected_after_an_epoch_bump() {
        let mut a = actor(5.0);
        let (reply, _) = a.handle_frame(ControlFrame {
            epoch: 1,
            msg: CoordinatorToMonitor::NewEpoch { epoch: 1 },
        });
        assert!(reply.is_none());
        assert_eq!(a.epoch(), 1);
        // A frame from the deposed coordinator: rejected, no reply.
        let (reply, stop) = a.handle_frame(ControlFrame {
            epoch: 0,
            msg: CoordinatorToMonitor::Poll { tick: 9 },
        });
        assert!(reply.is_none());
        assert!(!stop);
        assert_eq!(a.stale_rejections(), 1);
        // The same poll at the current epoch is answered, sealed at 1.
        let (reply, _) = a.handle_frame(ControlFrame {
            epoch: 1,
            msg: CoordinatorToMonitor::Poll { tick: 9 },
        });
        let frame = reply.unwrap();
        assert_eq!(frame.epoch, 1);
        assert!(matches!(
            frame.msg,
            MonitorToCoordinator::PollReply { tick: 9, .. }
        ));
        // Shutdown is honored even from a stale epoch.
        let (_, stop) = a.handle_frame(ControlFrame {
            epoch: 0,
            msg: CoordinatorToMonitor::Shutdown,
        });
        assert!(stop);
    }

    #[test]
    fn higher_epoch_data_does_not_implicitly_re_fence() {
        let mut a = actor(5.0);
        let (reply, _) = a.handle_frame(ControlFrame {
            epoch: 2,
            msg: CoordinatorToMonitor::Tick(TickData {
                tick: 0,
                value: 9.0,
            }),
        });
        // Processed — but the reply still carries the monitor's own epoch.
        assert_eq!(reply.unwrap().epoch, 0);
        assert_eq!(a.epoch(), 0, "only NewEpoch raises the fence");
    }

    #[test]
    fn snapshot_request_restore_and_reset() {
        let mut a = actor(100.0);
        // Warm the sampler until its interval grows.
        let mut tick = 0u64;
        while a.sampler().interval().get() == 1 {
            a.handle(CoordinatorToMonitor::Tick(TickData { tick, value: 1.0 }));
            tick += 1;
            assert!(tick < 1000, "interval should grow");
        }
        let grown = a.sampler().interval();
        let (reply, _) = a.handle(CoordinatorToMonitor::RequestSnapshot);
        let snapshot = match reply.unwrap() {
            MonitorToCoordinator::StateSnapshot { monitor, snapshot } => {
                assert_eq!(monitor, MonitorId(0));
                snapshot
            }
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(snapshot.interval, grown.get());

        // Reset collapses to the conservative default interval...
        a.handle(CoordinatorToMonitor::SetAllowance { err: 0.03 });
        a.handle(CoordinatorToMonitor::ResetSampler);
        assert_eq!(a.sampler().interval().get(), 1);
        assert_eq!(a.sampler().stats().count(), 0);
        assert_eq!(
            a.sampler().error_allowance(),
            0.03,
            "reset keeps the allowance in effect"
        );
        // ...while restore brings back the learned interval and δ stats.
        a.handle(CoordinatorToMonitor::RestoreState { snapshot });
        assert_eq!(a.sampler().interval(), grown);
        assert!(a.sampler().stats().count() > 0);
    }
}
