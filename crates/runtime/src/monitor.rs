//! The monitor actor: local adaptive sampling on its own thread.

use bytes::Bytes;
use crossbeam::channel::Receiver;

use volley_core::task::MonitorId;
use volley_core::AdaptiveSampler;
use volley_obs::{names, Counter, Histogram, Obs, SpanLog};
use volley_store::SampleRecorder;

use crate::failure::FaultPlan;
use crate::link::MonitorLink;
use crate::message::{
    decode, encode_into, ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator,
    TickData,
};
use crate::session::fresh_sampler;

/// A monitor: owns one [`AdaptiveSampler`] and serves the coordinator
/// protocol over byte-framed channels.
///
/// The actor is transport-agnostic: it speaks [`Bytes`] frames produced by
/// [`encode`](crate::message::encode), so the crossbeam channels used here
/// could be replaced by sockets without changing the actor.
///
/// An installed [`FaultPlan`] lets the run loop impersonate a faulty
/// process: crashing at a scheduled tick, going silent for a stall
/// window, or delaying/duplicating its replies — all without touching
/// the pure protocol logic in [`handle`](MonitorActor::handle).
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
#[derive(Debug)]
pub struct MonitorActor {
    id: MonitorId,
    sampler: AdaptiveSampler,
    next_sample_tick: u64,
    /// The agent's most recent tick data (what a global poll returns).
    current: Option<TickData>,
    /// Whether the current tick's schedule already sampled.
    sampled_this_tick: bool,
    /// Injected faults, evaluated in the run loop only.
    faults: FaultPlan,
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

/// Pre-resolved obs instruments, so the hot path never takes the
/// registry mutex.
#[derive(Debug)]
struct MonitorObsHandles {
    spans: SpanLog,
    sample_hist: Histogram,
    samples: Counter,
    sends: Counter,
}

/// Sends `frame`, counting successful transport sends when obs is on.
fn send_counted(outbox: &MonitorLink, obs: &Option<MonitorObsHandles>, frame: Bytes) -> bool {
    let ok = outbox.send(frame);
    if ok {
        if let Some(handles) = obs {
            handles.sends.inc();
        }
    }
    ok
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
            faults: FaultPlan::default(),
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

    /// Installs a deterministic fault plan this actor's run loop acts out.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
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
                    // straight back to its adaptive schedule.
                    if self.gate_holds(data.tick) {
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

    /// Whether the engaged gate holds back a due sample at `tick`: a
    /// sample was already taken fewer than `gate` ticks ago. A gated
    /// monitor that has never sampled takes its first sample immediately
    /// (the gate needs a reference point, and the first sample is what
    /// seeds the δ estimate).
    fn gate_holds(&self, tick: u64) -> bool {
        match (self.gate, self.last_sample_tick) {
            (Some(gate), Some(last)) => tick < last.saturating_add(u64::from(gate)),
            _ => false,
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

    /// Runs the actor loop until shutdown or channel disconnection,
    /// consuming the actor.
    ///
    /// Faults from the installed [`FaultPlan`] are acted out here:
    ///
    /// - **crash**: the loop returns (dropping the inbox) the first time a
    ///   tick at or past the scheduled crash tick arrives — the process
    ///   simply ceases to exist;
    /// - **stall**: while stalled the actor keeps consuming input but
    ///   neither processes nor replies, like a thread wedged on a lock
    ///   (shutdown still terminates it so harness teardown cannot hang);
    /// - **delay**: a reply is held back and flushed after the *next*
    ///   reply, arriving reordered and past its collection deadline;
    /// - **duplicate**: a reply is sent twice, exercising the
    ///   coordinator's dedup path;
    /// - **partition**: while the link to the coordinator is cut the
    ///   actor consumes input without processing it and sends nothing —
    ///   its local state (including its epoch) freezes, which is exactly
    ///   what makes its first frames after the heal stale.
    ///
    /// The outbox is a [`MonitorLink`] so the supervisor can atomically
    /// repoint every monitor at a standby coordinator during failover.
    pub fn run(mut self, inbox: Receiver<Bytes>, outbox: MonitorLink) {
        // A delayed reply awaiting the next send opportunity.
        let mut held: Option<Bytes> = None;
        // The actor's notion of "now": the last tick it saw, which is what
        // fault decisions (stall/partition windows, delay/duplicate lanes)
        // key on.
        let mut last_tick = 0u64;
        // Replies are encoded into one reused buffer; only the frame that
        // crosses the channel is allocated. The buffer stays frame-sized: a
        // one-off snapshot reply must not pin its kilobyte on every monitor
        // thread for the rest of the run.
        const REPLY_SCRATCH: usize = 256;
        let mut scratch: Vec<u8> = Vec::new();
        while let Ok(bytes) = inbox.recv() {
            let frame: ControlFrame = match decode(&bytes) {
                Ok(m) => m,
                Err(_) => continue, // drop malformed frames, as a socket server would
            };
            if let CoordinatorToMonitor::Tick(data) = &frame.msg {
                last_tick = data.tick;
                if self
                    .faults
                    .crash_tick(self.id)
                    .is_some_and(|at| data.tick >= at)
                {
                    return; // simulated crash: vanish without replying
                }
            }
            let unreachable = self.faults.stalled(self.id, last_tick)
                || self.faults.partitioned(self.id, last_tick);
            if unreachable && !matches!(frame.msg, CoordinatorToMonitor::Shutdown) {
                continue; // wedged or cut off: consume input, do nothing
            }
            let (reply, terminate) = self.handle_frame(frame);
            if let Some(reply) = reply {
                scratch.clear();
                scratch.shrink_to(REPLY_SCRATCH);
                encode_into(&reply, &mut scratch);
                let frame = Bytes::copy_from_slice(&scratch);
                if self.faults.delays(self.id, last_tick) {
                    // Hold this reply; anything already held goes out now,
                    // behind schedule.
                    if let Some(old) = held.replace(frame) {
                        if !send_counted(&outbox, &self.obs, old) {
                            return;
                        }
                    }
                } else {
                    if !send_counted(&outbox, &self.obs, frame.clone()) {
                        return; // coordinator gone
                    }
                    if self.faults.duplicates(self.id, last_tick)
                        && !send_counted(&outbox, &self.obs, frame)
                    {
                        return;
                    }
                    if let Some(old) = held.take() {
                        if !send_counted(&outbox, &self.obs, old) {
                            return;
                        }
                    }
                }
            }
            if terminate {
                break;
            }
        }
        // Flush any still-held reply; the coordinator will discard it as
        // stale, but a real delayed packet would arrive too.
        if let Some(old) = held {
            send_counted(&outbox, &self.obs, old);
        }
    }
}

/// Frames flowing monitor → coordinator (encoded
/// [`MonitorToCoordinator`]).
pub type MonitorToCoordinatorFrame = Bytes;

#[cfg(test)]
mod tests {
    use super::*;
    use volley_core::AdaptationConfig;

    fn actor(threshold: f64) -> MonitorActor {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .patience(2)
            .warmup_samples(2)
            .max_interval(4)
            .build()
            .unwrap();
        MonitorActor::new(MonitorId(0), AdaptiveSampler::new(cfg, threshold))
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

    /// Decodes a monitor reply, asserting the envelope carries `epoch`.
    fn open(frame: &Bytes, epoch: u64) -> MonitorToCoordinator {
        let sealed: MonitorFrame = decode(frame).unwrap();
        assert_eq!(sealed.epoch, epoch);
        sealed.msg
    }

    #[test]
    fn threaded_actor_round_trip() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let outbox = MonitorLink::new(outbox);
        let handle = std::thread::spawn(move || actor(5.0).run(inbox, outbox));
        to_monitor
            .send(ControlFrame::seal(
                0,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 0,
                    value: 9.0,
                }),
            ))
            .unwrap();
        let frame = from_monitor.recv().unwrap();
        assert!(matches!(
            open(&frame, 0),
            MonitorToCoordinator::TickDone {
                violation: true,
                ..
            }
        ));
        to_monitor
            .send(ControlFrame::seal(0, CoordinatorToMonitor::Shutdown))
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn malformed_frames_are_skipped() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let outbox = MonitorLink::new(outbox);
        let handle = std::thread::spawn(move || actor(5.0).run(inbox, outbox));
        to_monitor.send(Bytes::from_static(b"garbage\n")).unwrap();
        to_monitor
            .send(ControlFrame::seal(
                0,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 0,
                    value: 0.0,
                }),
            ))
            .unwrap();
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone {
                violation: false,
                ..
            }
        ));
        to_monitor
            .send(ControlFrame::seal(0, CoordinatorToMonitor::Shutdown))
            .unwrap();
        handle.join().unwrap();
    }

    use crate::failure::FaultPlan;

    fn tick_frame(tick: u64, value: f64) -> Bytes {
        ControlFrame::seal(0, CoordinatorToMonitor::Tick(TickData { tick, value }))
    }

    #[test]
    fn crash_fault_terminates_without_reply() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let faulty = actor(5.0).with_faults(FaultPlan::new(1).with_crash(MonitorId(0), 1));
        let handle = std::thread::spawn(move || faulty.run(inbox, MonitorLink::new(outbox)));
        to_monitor.send(tick_frame(0, 1.0)).unwrap();
        let _ = open(&from_monitor.recv().unwrap(), 0);
        to_monitor.send(tick_frame(1, 1.0)).unwrap();
        handle.join().unwrap(); // thread exits at the crash tick
        assert!(from_monitor.try_recv().is_err(), "no reply after crashing");
    }

    #[test]
    fn stalled_monitor_discards_but_honors_shutdown() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let faulty = actor(5.0).with_faults(FaultPlan::new(1).with_stall(MonitorId(0), 1, 2));
        let handle = std::thread::spawn(move || faulty.run(inbox, MonitorLink::new(outbox)));
        to_monitor.send(tick_frame(0, 1.0)).unwrap();
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 0, .. }
        ));
        // Ticks 1 and 2 fall inside the stall window: consumed, no reply.
        to_monitor.send(tick_frame(1, 1.0)).unwrap();
        to_monitor
            .send(ControlFrame::seal(
                0,
                CoordinatorToMonitor::Poll { tick: 1 },
            ))
            .unwrap();
        to_monitor.send(tick_frame(2, 1.0)).unwrap();
        // Tick 3 is past the window: the monitor answers again.
        to_monitor.send(tick_frame(3, 1.0)).unwrap();
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 3, .. }
        ));
        to_monitor
            .send(ControlFrame::seal(0, CoordinatorToMonitor::Shutdown))
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn partitioned_monitor_goes_silent_then_answers_with_its_old_epoch() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let faulty =
            actor(5.0).with_faults(FaultPlan::new(1).with_partition(&[MonitorId(0)], 1, 3));
        let handle = std::thread::spawn(move || faulty.run(inbox, MonitorLink::new(outbox)));
        to_monitor.send(tick_frame(0, 1.0)).unwrap();
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 0, .. }
        ));
        // The partition spans a failover: the dying primary's tick 1
        // advances the monitor's clock into the window, then the standby's
        // NewEpoch broadcast and the next tick are blind-consumed.
        to_monitor
            .send(ControlFrame::seal(
                0,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 1,
                    value: 1.0,
                }),
            ))
            .unwrap();
        to_monitor
            .send(ControlFrame::seal(
                1,
                CoordinatorToMonitor::NewEpoch { epoch: 1 },
            ))
            .unwrap();
        to_monitor
            .send(ControlFrame::seal(
                1,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 2,
                    value: 1.0,
                }),
            ))
            .unwrap();
        // The partition heals at tick 3 — but the monitor missed the
        // epoch bump, so its reply still carries epoch 0: provably stale
        // at the new coordinator.
        to_monitor
            .send(ControlFrame::seal(
                1,
                CoordinatorToMonitor::Tick(TickData {
                    tick: 3,
                    value: 1.0,
                }),
            ))
            .unwrap();
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 3, .. }
        ));
        to_monitor
            .send(ControlFrame::seal(1, CoordinatorToMonitor::Shutdown))
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn delayed_reply_arrives_after_the_next_one() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        // Delay probability 1: every reply is held one send behind.
        let faulty = actor(100.0).with_faults(FaultPlan::new(1).with_delay_rate(1.0));
        let handle = std::thread::spawn(move || faulty.run(inbox, MonitorLink::new(outbox)));
        to_monitor.send(tick_frame(0, 1.0)).unwrap();
        to_monitor.send(tick_frame(1, 1.0)).unwrap();
        to_monitor
            .send(ControlFrame::seal(0, CoordinatorToMonitor::Shutdown))
            .unwrap();
        // Tick 0's reply only flushes when tick 1's reply displaces it;
        // tick 1's reply flushes at loop exit.
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 0, .. }
        ));
        assert!(matches!(
            open(&from_monitor.recv().unwrap(), 0),
            MonitorToCoordinator::TickDone { tick: 1, .. }
        ));
        handle.join().unwrap();
    }

    #[test]
    fn duplicated_reply_is_sent_twice() {
        let (to_monitor, inbox) = crossbeam::channel::unbounded::<Bytes>();
        let (outbox, from_monitor) = crossbeam::channel::unbounded::<Bytes>();
        let faulty = actor(100.0).with_faults(FaultPlan::new(1).with_duplication_rate(1.0));
        let handle = std::thread::spawn(move || faulty.run(inbox, MonitorLink::new(outbox)));
        to_monitor.send(tick_frame(0, 1.0)).unwrap();
        let a = from_monitor.recv().unwrap();
        let b = from_monitor.recv().unwrap();
        assert_eq!(a, b, "the same frame goes out twice");
        to_monitor
            .send(ControlFrame::seal(0, CoordinatorToMonitor::Shutdown))
            .unwrap();
        handle.join().unwrap();
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
