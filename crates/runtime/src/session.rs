//! The task session and the one loop that drives sessions: the only
//! owner of the tick path.
//!
//! Every runner in this crate drives the same protocol — monitors feed a
//! coordinator, a driver paces ticks — so its moving parts live here once:
//!
//! - **spawn** ([`TaskSession::spawn`]): the only monitor-actor recipe
//!   ([`monitor_actor`]), the only [`CoordinatorActor`] construction and
//!   the plane between them ([`MonitorPlane`]) — the monitors in a slot
//!   table this session steps itself, or behind sockets it steps just
//!   the same;
//! - **step** ([`TaskSession::step_window`]): send what the machine left
//!   pending between ticks, then a window of ticks' [`TickData`] — one
//!   tick in process, one window line per agent behind sockets, however
//!   many ticks — then step the coordinator machine on this thread
//!   — pump monitor frames into it a tick at a time, execute its outbox,
//!   behind sockets sending a poll with the next window where the
//!   machine allows — until the windows' [`TickSummary`]s come out, and
//!   fold them into the [`RuntimeReport`];
//! - **finish** ([`TaskSession::finish`]): Shutdown, flush — on success
//!   *and* on error;
//! - **drive** ([`drive`]): the one tick loop over any number of
//!   sessions — run length, the standby retry, the serve stream, the
//!   runner instruments, the watchdog, registry snapshots into the store,
//!   degradation accounting and finishing on every exit — with a
//!   [`Hook`] called between steps.
//!
//! The session is pure I/O for the protocol: it sends the monitors their
//! tick data, their shutdown and whatever the machine queues — requests,
//! allowances, a failover's fence, gate flips — and decides nothing a
//! monitor is told. Its supervisor restarts a quarantined monitor and
//! tells the machine so (`Revived`); the machine answers with the
//! monitor's ledger entry.
//!
//! Nothing here has a thread: the coordinator is a machine
//! ([`crate::coordinator`]) that never blocks, an in-process monitor is
//! a slot that answers the frame it is handed, the socket plane is a
//! connection table turned while the machine waits, and this module is
//! their I/O shell — the plane, the checkpoint [`Wal`], the obs handles.
//! With the monitors in process nothing runs concurrently, nothing is
//! ever bytes — control frames and replies (held and duplicated ones
//! included) cross as values; the codec runs at the socket plane's edges
//! only — and nothing waits: a round closes as soon as the replies in
//! flight are in, so a report is a pure function of the traces, the
//! spec and the [`FaultPlan`](crate::FaultPlan). The deadline the
//! machine arms is the socket plane's, the only plane that receives
//! anything while it waits.
//!
//! The runners keep setup and a hook only: [`crate::TaskRunner`] is one
//! in-process task with no hook; [`crate::MultiTaskRunner`] N of them
//! with the correlation gate as its hook; [`crate::NetCoordinator`] one
//! remote task with the socket plane's turn as its hook.

use std::time::Instant;

use volley_core::allocation::AllocationConfig;
use volley_core::coordinator::Coordinator;
use volley_core::task::{MonitorId, TaskSpec};
use volley_core::time::Tick;
use volley_core::vfs::SinkHealth;
use volley_core::{AdaptationConfig, AdaptiveSampler, VolleyError};
use volley_obs::{names, Counter, Histogram};
use volley_serve::ServePublisher;
use volley_store::SampleRecorder;

use crate::checkpoint::{CoordinatorSnapshot, Wal, WalRecord};
use crate::coordinator::{CoordinatorActor, MonitorRun, Output};
use crate::message::{
    ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickData, TickSummary,
};
use crate::monitor::{MonitorActor, MonitorSlot, SlotTable};
use crate::net::{SocketPlane, WindowFeed, MAX_WINDOW};
use crate::runner::{DegradationReport, RuntimeReport, TaskRunner};

/// Hard cap on coordinator failovers per task and run — a backstop
/// against fault plans that kill every incarnation.
const MAX_FAILOVERS: u32 = 8;

/// A fresh sampler at the default interval holding allowance `err`.
pub(crate) fn fresh_sampler(config: AdaptationConfig, threshold: f64, err: f64) -> AdaptiveSampler {
    let mut sampler = AdaptiveSampler::new(config, threshold);
    sampler.set_error_allowance(err);
    sampler
}

/// The monitor-actor recipe: monitor `idx` of `spec` around a fresh
/// sampler at the even allowance share. In-process slots, supervised
/// restarts and socket agents all start here, hence bit-for-bit parity.
pub(crate) fn monitor_actor(spec: &TaskSpec, idx: usize) -> MonitorActor {
    let m = &spec.monitors()[idx];
    let even_share = spec.adaptation().error_allowance() / spec.monitors().len() as f64;
    let sampler = fresh_sampler(*spec.adaptation(), m.local_threshold, even_share);
    MonitorActor::new(m.id, sampler)
}

/// The protocol a task's actors are built from, as its runner
/// configures it.
impl TaskRunner {
    /// The §IV rules one coordinator incarnation starts from.
    fn rules(&self) -> Result<Coordinator, VolleyError> {
        Coordinator::new(&self.spec, self.scheme, AllocationConfig::default())
    }

    /// Monitor `idx`'s actor at `epoch`, wired to the session's sinks.
    fn actor(&self, epoch: u64, idx: usize) -> MonitorActor {
        let actor = monitor_actor(&self.spec, idx)
            .with_epoch(epoch)
            .with_obs(&self.obs);
        match &self.recorder {
            Some(recorder) => actor.with_recorder(recorder.clone()),
            None => actor,
        }
    }

    /// One coordinator incarnation, `machine` configured as the runner
    /// says, snapshotting every `checkpoint_every` ticks when given.
    fn coordinator(
        &self,
        machine: CoordinatorActor,
        checkpoint_every: Option<u64>,
    ) -> CoordinatorActor {
        let mut coordinator = machine.with_quarantine_after(self.quarantine_after);
        if let Some(interval) = self.gated_interval {
            coordinator = coordinator.with_multitask(interval);
        }
        if let Some(every) = checkpoint_every {
            coordinator = coordinator.with_checkpoint(every);
        }
        coordinator
    }
}

/// How many ticks `traces` (`traces[i][t]` = monitor *i*'s value at tick
/// *t*) can drive `spec` for: the shortest trace's length.
///
/// # Errors
///
/// [`VolleyError::EmptyTask`] for a spec without monitors,
/// [`VolleyError::ValueCountMismatch`] unless there is one trace per
/// monitor, [`VolleyError::NonFiniteValue`] for a `NaN` or infinite
/// value within that length — a `Tick` the wire cannot carry, so both
/// planes refuse it before any tick rather than diverge on it.
pub(crate) fn run_length(spec: &TaskSpec, traces: &[Vec<f64>]) -> Result<u64, VolleyError> {
    let n = spec.monitors().len();
    if n == 0 {
        return Err(VolleyError::EmptyTask);
    }
    if traces.len() != n {
        return Err(VolleyError::ValueCountMismatch {
            got: traces.len(),
            expected: n,
        });
    }
    let ticks = traces.iter().map(Vec::len).min().unwrap_or(0);
    if !traces
        .iter()
        .all(|trace| trace[..ticks].iter().all(|v| v.is_finite()))
    {
        return Err(VolleyError::NonFiniteValue {
            parameter: "traces",
        });
    }
    Ok(ticks as u64)
}

/// Watched ticks and, per monitor in id order, its sampler's state as
/// the tick's data reached it: its snapshot (allowance included) and its
/// tick state (period sums included).
#[cfg(test)]
pub(crate) type Watched = Vec<(Tick, Vec<Option<Probe>>)>;

/// A sampler's snapshot and tick state.
#[cfg(test)]
pub(crate) type Probe = (
    volley_core::SamplerSnapshot,
    volley_core::adaptation::SamplerTickState,
);

/// What [`Watched`] records of `sampler`.
#[cfg(test)]
pub(crate) fn probe(sampler: &AdaptiveSampler) -> Probe {
    (sampler.to_snapshot(), sampler.tick_state())
}

/// Every monitor's sampler state, allowance included, in id order, once
/// `config`'s task has stepped `traces` in process, tick by tick as the
/// drive loop steps it: at the end, and as the data of the tick after
/// each reallocation or snapshot tick — each tick whose close sends the
/// monitors more than a poll — reached them.
#[cfg(test)]
pub(crate) fn inline_states(
    config: &TaskRunner,
    traces: &[Vec<f64>],
) -> Result<(Vec<volley_core::SamplerSnapshot>, Watched), VolleyError> {
    let mut session = TaskSession::spawn(config, MonitorPlane::inline(config), None)?;
    let states = |session: &TaskSession| -> Vec<Probe> {
        let MonitorPlane::Inline { table, .. } = &session.plane else {
            unreachable!("the session was spawned in process");
        };
        table
            .slots()
            .iter()
            .map(|slot| probe(slot.actor().sampler()))
            .collect()
    };
    let mut watched = Vec::new();
    for tick in 0..run_length(&config.spec, traces)? {
        let sends = session.coordinator.as_ref().map(|c| c.quiet_ticks(2)) == Some(1);
        session.step(tick, |idx| traces[idx][tick as usize])?;
        if sends {
            watched.push((tick + 1, states(&session).into_iter().map(Some).collect()));
        }
    }
    let at_end = states(&session).into_iter().map(|(snapshot, _)| snapshot);
    Ok((at_end.collect(), watched))
}

/// What a step reports once the coordinator has crashed.
const COORDINATOR_DEAD: VolleyError = VolleyError::RuntimeDisconnected {
    component: "coordinator",
};

/// Where a session's monitors live.
pub(crate) enum MonitorPlane {
    /// In process: every monitor a slot of one table the session steps
    /// on its own thread — an agent without a socket, so without a codec.
    /// A control frame is handed to its slot as a value; the reply frames
    /// wait in `in_flight` until the coordinator machine is next stepped.
    Inline {
        table: SlotTable,
        in_flight: Vec<MonitorFrame>,
    },
    /// Behind sockets the session steps on its own thread as well: a
    /// control frame is encoded straight into its connection's write
    /// batch, tick data as a window line, and the replies the agents
    /// write back are read into the plane's inbox while the coordinator
    /// machine waits for them — window replies into the feed, which hands
    /// the machine their ticks one at a time.
    Remote(Box<SocketPlane>, WindowFeed),
}

impl MonitorPlane {
    /// The in-process plane of `config`'s task: one fresh slot per
    /// monitor, their processes and links under the session's fault plan.
    pub(crate) fn inline(config: &TaskRunner) -> Self {
        let slot = |idx| MonitorSlot::new(config.actor(0, idx));
        let slots = (0..config.spec.monitors().len()).map(slot).collect();
        MonitorPlane::Inline {
            table: SlotTable::new(0, slots).with_faults(config.fault_plan.clone()),
            in_flight: Vec::new(),
        }
    }

    /// The monitors behind `sockets`.
    pub(crate) fn remote(sockets: SocketPlane) -> Self {
        MonitorPlane::Remote(Box::new(sockets), WindowFeed::new())
    }

    /// Sends `msg` at `epoch` to every monitor of `to`, in order, calling
    /// `refused` for every in-process monitor that is gone (it crashed or
    /// shut down). A monitor no live connection hosts is the socket
    /// plane's to count, and the deadline's to notice.
    fn send(
        &mut self,
        epoch: u64,
        to: MonitorRun,
        msg: CoordinatorToMonitor,
        mut refused: impl FnMut(MonitorId),
    ) {
        match self {
            MonitorPlane::Inline { table, in_flight } => {
                let mut replies = |reply| in_flight.push(reply);
                for monitor in to.iter() {
                    // Delivered even to a dead monitor: its slot drops
                    // the frame, but must still hear a shutdown.
                    let alive = table.slots()[monitor.0 as usize].alive();
                    table.deliver(monitor.0, ControlFrame { epoch, msg }, &mut replies);
                    if !alive {
                        refused(monitor);
                    }
                }
            }
            MonitorPlane::Remote(plane, _) => plane.send(to, ControlFrame { epoch, msg }),
        }
    }

    /// Sends every monitor its data for `ticks` — one tick in process, a
    /// window line of one or more behind sockets — `value(i, t)` being
    /// monitor *i*'s at tick *t*.
    fn send_data(
        &mut self,
        epoch: u64,
        ticks: std::ops::Range<Tick>,
        value: &dyn Fn(usize, Tick) -> f64,
    ) {
        match self {
            MonitorPlane::Inline { table, in_flight } => {
                let tick = ticks.start;
                let mut replies = |reply| in_flight.push(reply);
                for idx in 0..table.slots().len() {
                    let msg = CoordinatorToMonitor::Tick(TickData {
                        tick,
                        value: value(idx, tick),
                    });
                    table.deliver(idx as u32, ControlFrame { epoch, msg }, &mut replies);
                }
            }
            MonitorPlane::Remote(plane, feed) => {
                feed.open(ticks.clone());
                plane.send_data(epoch, ticks, &|monitor, tick| value(monitor as usize, tick));
            }
        }
    }

    /// Sends the poll `msg` to the runs `polled` and, with it, every
    /// monitor its data for `ticks`, the window granted after the polled
    /// tick: behind sockets, the only plane that grants one.
    fn send_poll(
        &mut self,
        epoch: u64,
        (polled, msg): (&[MonitorRun], CoordinatorToMonitor),
        ticks: std::ops::Range<Tick>,
        value: &dyn Fn(usize, Tick) -> f64,
    ) {
        if let MonitorPlane::Remote(plane, feed) = self {
            feed.carry(ticks.clone());
            let poll = ControlFrame { epoch, msg };
            plane.send_poll(polled, poll, ticks, &|monitor, tick| {
                value(monitor as usize, tick)
            });
        }
    }

    /// How many ticks the plane's monitors may step as one window, at
    /// most `len`: one in process, where no round trip is saved and a
    /// fault plan decides per frame and per tick.
    fn window(&self, len: u64) -> u64 {
        match self {
            MonitorPlane::Inline { .. } => 1,
            MonitorPlane::Remote(plane, _) => plane.window(len.min(MAX_WINDOW as u64)),
        }
    }

    /// Starts the collection deadline the machine just armed, where
    /// replies can arrive while the driver waits: behind sockets. In
    /// process nothing does, so there is nothing to time.
    fn arm_deadline(&mut self) {
        if let MonitorPlane::Remote(plane, _) = self {
            plane.arm();
        }
    }
}

/// Pre-resolved obs instruments for the shell's hot paths (handles are
/// resolved once so a tick never touches the registry mutex).
struct ShellObs {
    /// `coordinator_tick`: the whole round, collection wait included —
    /// which is what makes a stalled monitor visible as tick latency.
    tick_hist: Histogram,
    wal_hist: Histogram,
    /// `checkpoint_write`: gathering sampler snapshots plus the write.
    checkpoint_hist: Histogram,
    polls: Counter,
    recvs: Counter,
    suppressed: Counter,
    gate_flips: Counter,
}

/// What a step behind sockets may grant along with a poll: the values,
/// and how many ticks from a tick the drive loop allows a window to span
/// without acting before it (0: none).
#[derive(Clone, Copy)]
struct Carry<'v> {
    value: &'v dyn Fn(usize, Tick) -> f64,
    ahead: &'v dyn Fn(Tick) -> u64,
}

/// One running task: its monitor plane, its coordinator incarnation and
/// the report folded so far.
pub(crate) struct TaskSession<'a> {
    config: &'a TaskRunner,
    epoch: u64,
    plane: MonitorPlane,
    /// `None` once an injected crash silenced it, until a failover.
    coordinator: Option<CoordinatorActor>,
    /// The tick the fault plan's last coordinator crash fired at.
    crashed_at: Option<Tick>,
    /// The incumbent's checkpoint log.
    wal: Option<Wal>,
    /// The dead incarnations' logs, folded: every counter, the last
    /// one's state.
    wal_retired: SinkHealth,
    obs: ShellObs,
    /// When the tick's snapshot, if one is due, began to be gathered.
    checkpoint_started: Instant,
    /// The summaries of the ticks the last step closed, in order.
    summaries: Vec<TickSummary>,
    /// The runs a poll going out with a window goes to.
    polled: Vec<MonitorRun>,
    /// The end of the window the last poll went out with.
    carried: Option<Tick>,
    report: RuntimeReport,
}

impl<'a> TaskSession<'a> {
    /// Builds the first coordinator incarnation over `plane`,
    /// checkpointing to `wal` (log plus snapshot cadence) when given.
    /// Spawns nothing: the session runs on the thread that steps it.
    ///
    /// # Errors
    ///
    /// A spec no allocator accepts.
    pub(crate) fn spawn(
        config: &'a TaskRunner,
        plane: MonitorPlane,
        wal: Option<(Wal, u64)>,
    ) -> Result<Self, VolleyError> {
        let rules = config.rules()?;
        let registry = config.obs.registry();
        let (wal, every) = wal.unzip();
        Ok(TaskSession {
            config,
            epoch: 0,
            plane,
            coordinator: Some(config.coordinator(CoordinatorActor::new(rules, None), every)),
            crashed_at: None,
            wal,
            wal_retired: SinkHealth::default(),
            checkpoint_started: Instant::now(),
            summaries: Vec::with_capacity(MAX_WINDOW),
            polled: Vec::new(),
            carried: None,
            obs: ShellObs {
                tick_hist: registry.histogram(names::COORDINATOR_TICK_NS),
                wal_hist: registry.histogram(names::WAL_APPEND_NS),
                checkpoint_hist: registry.histogram(names::CHECKPOINT_WRITE_NS),
                polls: registry.counter(names::COORDINATOR_POLLS_TOTAL),
                recvs: registry.counter(names::TRANSPORT_RECVS_TOTAL),
                suppressed: registry.counter(names::MULTITASK_SUPPRESSED_SAMPLES_TOTAL),
                gate_flips: registry.counter(names::MULTITASK_GATE_FLIPS_TOTAL),
            },
            report: RuntimeReport::default(),
        })
    }

    /// The socket plane of a networked session, for its driver to serve
    /// between ticks.
    pub(crate) fn remote(&mut self) -> &mut SocketPlane {
        match &mut self.plane {
            MonitorPlane::Remote(plane, _) => plane,
            MonitorPlane::Inline { .. } => unreachable!("the session was spawned in process"),
        }
    }

    /// The report folded so far.
    pub(crate) fn report(&self) -> &RuntimeReport {
        &self.report
    }

    /// The task's checkpoint-log health across coordinator incarnations:
    /// every log's counters, and the incumbent's state — the last dead
    /// log's while no successor log runs.
    pub(crate) fn wal_health(&self) -> SinkHealth {
        match &self.wal {
            Some(wal) => self.wal_retired.then(wal.health()),
            None => self.wal_retired,
        }
    }

    /// Drives one tick ([`step_window`](Self::step_window) of one) and
    /// returns its summary.
    ///
    /// # Errors
    ///
    /// As [`step_window`](Self::step_window).
    #[cfg(test)]
    pub(crate) fn step(
        &mut self,
        tick: Tick,
        value: impl Fn(usize) -> f64,
    ) -> Result<TickSummary, VolleyError> {
        self.step_window(tick, 1, &|idx, _| value(idx), &|_| 0)?;
        Ok(self.summaries[0])
    }

    /// Drives a window of at most `len` ticks from `tick`: runs what the
    /// coordinator left pending between ticks (a failover's fence, a gate
    /// flip), sends monitor *i* its values `value(i, t)` — the plane's
    /// window of them: one tick in process — steps the coordinator one
    /// tick at a time until the window's summaries come out (restarting
    /// quarantined monitors on the way when supervising) and folds them
    /// into the report; returns how many ticks closed, their summaries
    /// in [`summaries`](Self::summaries). A poll's request rewinds the
    /// agents that stepped past its tick. Behind sockets it goes out with
    /// the next window — of at most `ahead(t + 1)` ticks, which the step
    /// then runs too — where the machine promises that closing the polled
    /// tick sends the monitors nothing; otherwise the window ends at the
    /// poll, as it does at a deadline, which it counts as one: every tick
    /// after the one it closes is granted again. A refused tick means
    /// that monitor is gone; the coordinator notices via its deadline, so
    /// the run keeps going. In process every window is one tick, stepped
    /// in lock-step; behind sockets a window of one is the same window
    /// line and reply as any other.
    ///
    /// The fault plan's next coordinator crash fires once the tick's
    /// data has left and before any reply reaches the machine: the
    /// replies in flight, the machine and its log die with the process,
    /// so the tick gets no summary and no log record — it is newer than
    /// the checkpoint horizon, and the successor must re-drive it.
    ///
    /// # Errors
    ///
    /// [`VolleyError::RuntimeDisconnected`] when the coordinator crashed
    /// mid-tick: [`fail_over`](Self::fail_over) and step the same tick
    /// again, or [`finish`](Self::finish).
    pub(crate) fn step_window(
        &mut self,
        tick: Tick,
        len: u64,
        value: &dyn Fn(usize, Tick) -> f64,
        ahead: &dyn Fn(Tick) -> u64,
    ) -> Result<usize, VolleyError> {
        let mut coordinator = self.coordinator.take();
        let mut len = self.plane.window(len);
        if let Some(coordinator) = coordinator.as_mut() {
            self.drain(coordinator, None);
            len = coordinator.quiet_ticks(len);
        }
        self.plane.send_data(self.epoch, tick..tick + len, value);
        let mut coordinator = coordinator.ok_or(COORDINATOR_DEAD)?;
        let crash = self
            .config
            .fault_plan
            .coordinator_crash_after(self.crashed_at);
        if crash.is_some_and(|at| tick >= at) {
            self.crashed_at = Some(tick);
            self.wal_retired = self.wal_health();
            self.wal = None;
            if let MonitorPlane::Inline { in_flight, .. } = &mut self.plane {
                in_flight.clear();
            }
            return Err(COORDINATOR_DEAD);
        }
        self.summaries.clear();
        let carry = match self.plane {
            MonitorPlane::Remote(..) => Some(Carry { value, ahead }),
            MonitorPlane::Inline { .. } => None,
        };
        let closed = self.pump(&mut coordinator, tick + len, carry);
        self.coordinator = Some(coordinator);
        for summary in &self.summaries {
            Self::fold(&mut self.report, self.config.recorder.as_ref(), summary);
        }
        closed
    }

    /// The summaries of the ticks the last step closed, in order.
    pub(crate) fn summaries(&self) -> &[TickSummary] {
        &self.summaries
    }

    /// The coordinator's I/O shell: executes its outbox, and whenever
    /// that runs dry hands it what the monitors have sent (frames in
    /// process, a payload behind sockets), reporting the deadline when
    /// nothing came; collects the summaries of the ticks before `end` —
    /// and of the window a poll went out with, if one did (`carry`).
    /// In process the replies in flight are all there is, so a round
    /// missing some closes at once; behind sockets the table is turned
    /// until a payload arrives or the deadline the machine last armed
    /// passes, and the window's replies are handed over a tick at a
    /// time: the next tick's once the machine closed the last.
    fn pump(
        &mut self,
        coordinator: &mut CoordinatorActor,
        mut end: Tick,
        carry: Option<Carry<'_>>,
    ) -> Result<usize, VolleyError> {
        let spans = self.config.obs.spans();
        // The guard borrows its histogram across `&mut self` calls, so the
        // handle is cloned — only while spans record.
        let tick_hist = spans.enabled().then(|| self.obs.tick_hist.clone());
        let _tick_span = tick_hist
            .as_ref()
            .map(|hist| spans.span_timed("coordinator_tick", hist));
        // The window's data just left: its reports are awaited from now.
        self.plane.arm_deadline();
        let mut cut = false;
        loop {
            if let Some(summary) = self.drain(coordinator, carry.filter(|_| !cut)) {
                self.summaries.push(summary);
                let next = summary.tick + 1;
                // A poll rewound the agents to its tick, a deadline left
                // the rest of the window unanswered: it ends here — but
                // for the window the poll went out with, if no deadline
                // passed.
                match self.carried.take().filter(|_| !cut) {
                    Some(until) => end = until,
                    None if summary.polled => return Ok(self.summaries.len()),
                    None => {}
                }
                if cut || next >= end {
                    return Ok(self.summaries.len());
                }
                if let MonitorPlane::Remote(_, feed) = &mut self.plane {
                    feed.feed(next, coordinator);
                }
                continue;
            }
            let received = match &mut self.plane {
                MonitorPlane::Inline { in_flight, .. } => {
                    coordinator.on_frames(in_flight.drain(..))
                }
                MonitorPlane::Remote(plane, feed) => feed.absorb(plane.collect(), coordinator),
            };
            if received == 0 {
                coordinator.on_deadline();
                cut = true;
            }
            self.obs.recvs.add(received);
        }
    }

    /// Executes the coordinator's outbox until it is empty, returning
    /// the tick summary if one came out. Whatever follows a summary —
    /// the ledger entry a restarted monitor is re-admitted at — goes out
    /// with it, so nothing is left pending once a tick is over. With a
    /// `carry`, a poll the machine lets carry the next window goes out
    /// with it, once its last run is known: the outbox entry after it.
    ///
    /// WAL I/O errors are swallowed: durability is best-effort and never
    /// worth failing the run over (a standby restoring from a short log
    /// just falls back to conservative restarts for the missing state).
    fn drain(
        &mut self,
        coordinator: &mut CoordinatorActor,
        carry: Option<Carry<'_>>,
    ) -> Option<TickSummary> {
        let spans = self.config.obs.spans();
        let mut closed = None;
        let mut next = None;
        while let Some(output) = next.take().or_else(|| coordinator.pop_output()) {
            if let Some((carry, Output::Send { to, msg })) = carry.zip(Some(&output)) {
                if let Some(grant) = self.grant(coordinator, carry, *msg) {
                    // The poll's runs: this send and those queued behind it.
                    self.polled.push(*to);
                    while let Some(output) = coordinator.pop_output() {
                        match output {
                            Output::Send { to, msg: poll } if poll == *msg => self.polled.push(to),
                            output => {
                                next = Some(output);
                                break;
                            }
                        }
                    }
                    let polled = (self.polled.as_slice(), *msg);
                    self.plane
                        .send_poll(self.epoch, polled, grant.clone(), carry.value);
                    self.polled.clear();
                    self.carried = Some(grant.end);
                    continue;
                }
            }
            match output {
                Output::Send { to, msg } => {
                    let refused = |monitor| coordinator.on_undeliverable(monitor);
                    self.plane.send(self.epoch, to, msg, refused);
                }
                Output::ArmDeadline => self.plane.arm_deadline(),
                Output::Quarantined { monitor, .. } => {
                    self.report.quarantines += 1;
                    if self.config.supervise {
                        self.restart_monitor(coordinator, monitor);
                    }
                }
                Output::Recovered { .. } => self.report.recoveries += 1,
                Output::GateFlipped => self.obs.gate_flips.inc(),
                Output::Tick(outcome) => {
                    if let Some(wal) = self.wal.as_mut() {
                        let _timed = spans.span_timed("wal_append", &self.obs.wal_hist);
                        let _ = wal.append(&WalRecord::Tick(outcome));
                    }
                    // A snapshot, if due, is gathered from here on.
                    self.checkpoint_started = Instant::now();
                }
                Output::Snapshot(snapshot) => {
                    if let Some(wal) = self.wal.as_mut() {
                        let _ = wal.append_snapshot(&snapshot);
                    }
                    if spans.enabled() {
                        spans.record("checkpoint_write", self.checkpoint_started);
                        let elapsed = self.checkpoint_started.elapsed().as_nanos() as u64;
                        self.obs.checkpoint_hist.record(elapsed);
                    }
                }
                Output::Summary(summary) => {
                    if summary.polled {
                        self.obs.polls.inc();
                    }
                    self.obs
                        .suppressed
                        .add(u64::from(summary.suppressed_samples));
                    closed = Some(summary);
                }
            }
        }
        closed
    }

    /// The window that may go out with `msg`, if it is a poll the
    /// machine lets carry one: the ticks after the polled one that both
    /// the machine and the drive loop (`carry`) allow, and the plane's frame
    /// cap fits.
    fn grant(
        &self,
        coordinator: &CoordinatorActor,
        carry: Carry<'_>,
        msg: CoordinatorToMonitor,
    ) -> Option<std::ops::Range<Tick>> {
        let next = msg.polled_tick()? + 1;
        let ahead = (carry.ahead)(next);
        let len = coordinator.poll_carries(self.plane.window(ahead).min(ahead));
        (len > 0).then_some(next..next + len)
    }

    /// Folds one tick summary into `report` (and records its alert).
    fn fold(report: &mut RuntimeReport, recorder: Option<&SampleRecorder>, summary: &TickSummary) {
        report.ticks += 1;
        report.scheduled_samples += u64::from(summary.scheduled_samples);
        report.poll_samples += u64::from(summary.poll_samples);
        report.total_samples = report.scheduled_samples + report.poll_samples;
        report.local_violation_reports += u64::from(summary.local_violations);
        report.missed_tick_reports += u64::from(summary.missing_reports);
        report.stale_epoch_frames += u64::from(summary.stale_epoch_frames);
        if summary.polled {
            report.polls += 1;
            if summary.degraded {
                report.degraded_polls += 1;
            }
        }
        if summary.alerted {
            report.alerts += 1;
            report.alert_ticks.push(summary.tick);
            if summary.degraded {
                report.degraded_alerts += 1;
            }
            if let Some(recorder) = recorder {
                recorder.record_alert(summary.tick, summary.degraded);
            }
        }
    }

    /// Replaces a quarantined in-process monitor with a fresh actor
    /// installed in its slot: a fresh sampler at the default interval (its
    /// learned schedule died with it) and the current epoch; the
    /// coordinator, told by the `Revived` notice, re-admits it at its
    /// ledger allowance. Process faults (crash/stall) are stripped from the
    /// restarted actor's plan — its predecessor already acted them out —
    /// while network faults (including partitions) keep applying.
    fn restart_monitor(&mut self, coordinator: &mut CoordinatorActor, monitor: MonitorId) {
        let idx = monitor.0 as usize;
        if let MonitorPlane::Inline { table, in_flight } = &mut self.plane {
            let actor = self.config.actor(self.epoch, idx);
            table.install(actor, &mut |reply| in_flight.push(reply));
        }
        self.report.restarts += 1;
        // Tell the coordinator to await the restarted monitor again,
        // ahead of the fresh actor's first report.
        coordinator.on_frame(MonitorFrame {
            epoch: self.epoch,
            msg: MonitorToCoordinator::Revived { monitor },
        });
    }

    /// Hands the coordinator the leader task's state ahead of `tick`;
    /// the `SetGate` frames a flip queues go out ahead of `tick`'s data.
    pub(crate) fn on_leader(&mut self, tick: Tick, active: bool) {
        if let Some(coordinator) = self.coordinator.as_mut() {
            coordinator.on_leader(tick, active);
        }
    }

    /// Fails over to a successor coordinator after [`step`](Self::step)
    /// reported the incumbent dead with `tick` in flight: bump the epoch
    /// and build the successor from `snapshot`, the last checkpoint
    /// recovered ([`CoordinatorActor::take_over`], which queues the fence
    /// the next step runs ahead of `tick`'s data), checkpointing to `wal`
    /// — or, when no successor log could start, counting the faults
    /// injected into it. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// As [`spawn`](Self::spawn).
    pub(crate) fn fail_over(
        &mut self,
        tick: Tick,
        snapshot: Option<&CoordinatorSnapshot>,
        wal: Result<(Wal, u64), u64>,
    ) -> Result<u64, VolleyError> {
        let rules = self.config.rules()?;
        let monitors = self.config.spec.monitors().len();
        let restored = snapshot.map_or(0, |s| s.samplers.iter().take(monitors).flatten().count());
        self.report.checkpoint_restores += restored as u64;
        self.report.conservative_restarts += (monitors - restored) as u64;
        self.report.coordinator_failovers += 1;
        self.epoch += 1;
        let successor = CoordinatorActor::take_over(rules, self.epoch, tick, snapshot);
        let (wal, every) = match wal {
            Ok(wal) => (Some(wal.0), Some(wal.1)),
            Err(faults) => {
                self.wal_retired.faults_injected += faults;
                (None, None)
            }
        };
        self.coordinator = Some(self.config.coordinator(successor, every));
        self.wal = wal;
        Ok(self.epoch)
    }

    /// Tells every monitor to shut down (crashed ones refuse it, which
    /// is fine; the epoch fence never applies to `Shutdown`).
    pub(crate) fn broadcast_shutdown(&mut self) {
        let all = MonitorRun {
            first: MonitorId(0),
            count: self.config.spec.monitors().len() as u32,
        };
        self.plane
            .send(self.epoch, all, CoordinatorToMonitor::Shutdown, |_| {});
    }

    /// Tears the session down and returns its report: stop the monitors,
    /// and only then — every producer gone — seal the recorded samples.
    pub(crate) fn finish(mut self) -> RuntimeReport {
        self.broadcast_shutdown();
        if let Some(recorder) = &self.config.recorder {
            recorder.flush();
        }
        self.report
    }
}

/// A runner's policy over its sessions, called by [`drive`] between
/// steps. Every method defaults to doing nothing.
pub(crate) trait Hook {
    /// Once the sessions are spawned, before tick 0 of `ticks`.
    fn start(&mut self, _ticks: u64, _sessions: &mut [TaskSession<'_>]) -> Result<(), VolleyError> {
        Ok(())
    }

    /// How many ticks from `tick` (of the `left` the run has) a lone
    /// task may step as one window: the hook acts before its first tick
    /// only, so a tick it must act before starts a window of its own —
    /// and answers 0, since no window may be granted ahead of it along
    /// with a poll. One by default: lock-step.
    fn window(&self, _tick: Tick, _left: u64) -> u64 {
        1
    }

    /// Before task `task` steps `tick` — the first of its window.
    fn before_step(&mut self, _tick: Tick, _task: usize, _session: &mut TaskSession<'_>) {}

    /// After task `task` stepped `tick` into `summary`, each tick of a
    /// window in order.
    fn after_step(
        &mut self,
        _tick: Tick,
        _task: usize,
        _summary: &TickSummary,
        _session: &mut TaskSession<'_>,
    ) {
    }

    /// After every task stepped `tick`; may reorder the next tick's steps.
    fn after_tick(&mut self, _tick: Tick, _order: &mut [usize]) {}

    /// On every exit, before the sessions are finished.
    fn stop(&mut self, _sessions: &mut [TaskSession<'_>]) {}
}

/// One task [`drive`] steps: the runner configuring it, its traces, its
/// monitors' sockets until its session is spawned (in process without),
/// and the failovers it has left.
pub(crate) struct Task<'a> {
    runner: &'a TaskRunner,
    traces: &'a [Vec<f64>],
    sockets: Option<SocketPlane>,
    failovers_left: u32,
}

impl<'a> Task<'a> {
    pub(crate) fn new(
        runner: &'a TaskRunner,
        traces: &'a [Vec<f64>],
        sockets: Option<SocketPlane>,
    ) -> Self {
        Task {
            runner,
            traces,
            sockets,
            failovers_left: MAX_FAILOVERS,
        }
    }
}

/// One health read of the run's durable sinks (`wal` and `store` on the
/// serve stream): the tasks' checkpoint logs side by side and the sample
/// store (one per run: a multi-task run hands every task a handle on the
/// same store). A sink not attached reads all zeros.
fn sink_health(
    wals: impl Iterator<Item = SinkHealth>,
    recorder: Option<&SampleRecorder>,
) -> [SinkHealth; 2] {
    [
        wals.fold(SinkHealth::default(), SinkHealth::plus),
        recorder.map(SampleRecorder::health).unwrap_or_default(),
    ]
}

/// What the tick loop does with the `offset`-th tick task `index`'s last
/// step closed: its alert on the serve stream, the runner counters (when
/// instrumented), the hook's `after_step`; whether it ran degraded.
fn closed_tick<H: Hook + ?Sized>(
    (index, offset): (usize, u64),
    session: &mut TaskSession<'_>,
    hook: Option<&mut H>,
    serve: Option<&ServePublisher>,
    counters: Option<(&Counter, &Counter)>,
) -> bool {
    let summary = session.summaries()[offset as usize];
    if summary.alerted {
        if let Some(serve) = serve {
            serve.alert(index as u64, summary.tick, summary.degraded);
        }
    }
    if let Some((samples_total, alerts_total)) = counters {
        samples_total.add(u64::from(summary.scheduled_samples) + u64::from(summary.poll_samples));
        if summary.alerted {
            alerts_total.inc();
        }
    }
    if let Some(hook) = hook {
        hook.after_step(summary.tick, index, &summary, session);
    }
    summary.degraded
}

/// The one tick loop: drives `tasks` in lock-step over their shortest
/// run on the calling thread, calling `hook` between steps, and returns
/// their reports in task order.
///
/// A task whose coordinator died is failed over and stepped again when
/// its runner arms a standby; its alerts go out on the serve stream
/// tagged with its index. The run-level sinks — runner instruments,
/// watchdog, sample store, snapshot cadence, serve publisher — are the
/// first task's runner's (a multi-task run hands every task the same obs
/// bundle, store and publisher), and so is the watchdog's report section.
/// On every exit the hook stops, then every spawned session is finished:
/// monitors shut down, the recorder sealed.
///
/// # Errors
///
/// What [`run_length`] rejects in any task (before anything is opened),
/// an invalid watchdog allowance or a non-finite watchdog threshold, a
/// spec no allocator accepts, the hook's start, or a coordinator that
/// died with no standby (or past the failover cap of 8).
pub(crate) fn drive(
    mut tasks: Vec<Task<'_>>,
    mut hook: Option<&mut dyn Hook>,
) -> Result<Vec<RuntimeReport>, VolleyError> {
    let Some(first) = tasks.first().map(|task| task.runner) else {
        return Ok(Vec::new());
    };
    let mut ticks = u64::MAX;
    for task in &tasks {
        ticks = ticks.min(run_length(&task.runner.spec, task.traces)?);
    }
    let monitors: usize = tasks.iter().map(|task| task.traces.len()).sum();
    let (obs, serve) = (&first.obs, first.serve.as_ref());
    // Registry snapshots into the store, at the runner's cadence.
    let snapshots = first.recorder.as_ref().zip(first.snapshot_every);
    // Asking for snapshots or a watchdog implies instrumenting: both read
    // the registry, which is empty while obs is disabled.
    if snapshots.is_some() || first.self_monitor.is_some() {
        obs.set_enabled(true);
    }

    let mut planes = Vec::with_capacity(tasks.len());
    for task in &mut tasks {
        let wal = task.runner.open_wal();
        planes.push(match task.sockets.take() {
            Some(sockets) => (MonitorPlane::remote(sockets), wal),
            None => (MonitorPlane::inline(task.runner), wal),
        });
    }
    // The watchdog: one adaptive sampler on the loop's own tick latency
    // (µs), and the tick its next sample is due.
    let mut watchdog = match first.self_monitor {
        Some((threshold_us, err)) => {
            let config = AdaptationConfig::builder().error_allowance(err).build()?;
            if !threshold_us.is_finite() {
                return Err(VolleyError::NonFiniteValue {
                    parameter: "threshold",
                });
            }
            Some((AdaptiveSampler::new(config, threshold_us), 0))
        }
        None => None,
    };
    let mut self_monitor_samples = 0u64;

    // Observability: pre-resolve the runner's instruments (no registry
    // mutex on the tick path).
    let registry = obs.registry();
    let ticks_total = registry.counter(names::RUNNER_TICKS_TOTAL);
    let tick_hist = registry.histogram(names::RUNNER_TICK_LATENCY_NS);
    let tick_gauge = registry.gauge(names::RUNNER_TICK_LATENCY_US);
    let degraded_total = registry.counter(names::RUNNER_DEGRADED_TICKS_TOTAL);
    let alerts_total = registry.counter(names::RUNNER_ALERTS_TOTAL);
    let samples_total = registry.counter(names::RUNNER_SAMPLES_TOTAL);
    let failovers_total = registry.counter(names::RUNNER_FAILOVERS_TOTAL);
    let sampling_fraction = registry.gauge(names::RUNNER_SAMPLING_FRACTION);
    let degraded_fraction = registry.gauge(names::RUNNER_DEGRADED_FRACTION);
    let wal_degraded_gauge = registry.gauge(names::WAL_DEGRADED);
    let wal_ring_gauge = registry.gauge(names::WAL_RING_BUFFERED);
    let store_degraded_gauge = registry.gauge(names::STORE_DEGRADED);
    let mut degraded_ticks = 0u64;
    let mut self_monitor_alert_ticks: Vec<Tick> = Vec::new();
    // Last published wal/store degradation states, so the serve stream
    // only carries *transitions*, not one event per tick.
    let mut published = [false; 2];

    let mut sessions: Vec<TaskSession<'_>> = Vec::with_capacity(tasks.len());
    let driven = (|| -> Result<(), VolleyError> {
        for (task, (plane, wal)) in tasks.iter().zip(planes) {
            sessions.push(TaskSession::spawn(task.runner, plane, wal)?);
        }
        if let Some(hook) = hook.as_deref_mut() {
            hook.start(ticks, &mut sessions)?;
        }
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        let lone = sessions.len() == 1;
        let mut tick = 0;
        while tick < ticks {
            let tick_started = obs.enabled().then(Instant::now);
            // One session may step a window of ticks where its hook
            // allows; tasks stepped in lock-step step one at a time.
            let mut len = match hook.as_deref() {
                Some(hook) if lone => hook.window(tick, ticks - tick).max(1),
                _ => 1,
            };
            // The window's first tick is closed task by task, each right
            // after its step, as lock-step steps are; a window's later
            // ticks (one task's) once it is over.
            let mut degraded = false;
            let counters = tick_started.map(|_| (&samples_total, &alerts_total));
            for &index in &order {
                let (task, session) = (&mut tasks[index], &mut sessions[index]);
                if let Some(hook) = hook.as_deref_mut() {
                    hook.before_step(tick, index, session);
                }
                // A dead coordinator fails the step; with a standby armed
                // the same tick is stepped again on its successor.
                let traces = task.traces;
                let value = |i: usize, t: Tick| traces[i][t as usize];
                // The windows a poll may carry: the hook's, within the run.
                let ahead = |t: Tick| match hook.as_deref() {
                    Some(hook) if lone && t < ticks => hook.window(t, ticks - t),
                    _ => 0,
                };
                loop {
                    let err = match session.step_window(tick, len, &value, &ahead) {
                        Ok(closed) => break len = closed as u64,
                        Err(err) => err,
                    };
                    if !task.runner.standby || task.failovers_left == 0 {
                        return Err(err);
                    }
                    task.failovers_left -= 1;
                    failovers_total.inc();
                    let (snapshot, wal) = task.runner.recover_wal();
                    let epoch = session.fail_over(tick, snapshot.as_ref(), wal)?;
                    if let Some(serve) = serve {
                        serve.epoch(epoch, tick);
                    }
                }
                let hook = hook.as_deref_mut();
                degraded |= closed_tick((index, 0), session, hook, serve, counters);
            }
            // A window's latency, spread evenly over its ticks.
            let mut latency = None;
            for offset in 0..len {
                let tick = tick + offset;
                if offset > 0 {
                    degraded = false;
                    for &index in &order {
                        let (session, hook) = (&mut sessions[index], hook.as_deref_mut());
                        degraded |= closed_tick((index, offset), session, hook, serve, counters);
                    }
                }
                if let Some(hook) = hook.as_deref_mut() {
                    hook.after_tick(tick, &mut order);
                }
                degraded_ticks += u64::from(degraded);

                // Per-tick observability: record end-to-end tick latency
                // (the watchdog samples it when due), bump the runner
                // counters, refresh derived gauges, snapshot on cadence,
                // then read the sinks.
                if let Some(started) = tick_started {
                    let elapsed = *latency.get_or_insert_with(|| started.elapsed() / len as u32);
                    let latency_us = elapsed.as_micros() as f64;
                    tick_hist.record(elapsed.as_nanos() as u64);
                    tick_gauge.set(latency_us);
                    if let Some((sampler, due)) = watchdog.as_mut().filter(|(_, due)| tick >= *due)
                    {
                        let seen = sampler.observe(tick, latency_us);
                        self_monitor_samples += 1;
                        if seen.violation {
                            self_monitor_alert_ticks.push(tick);
                        }
                        *due = seen.next_sample_tick;
                    }
                    obs.spans().record("runner_tick", started);
                    ticks_total.inc();
                    if degraded {
                        degraded_total.inc();
                    }
                    let done = (tick + 1) as f64;
                    let sampled: u64 = sessions.iter().map(|s| s.report().total_samples).sum();
                    sampling_fraction.set(sampled as f64 / (done * monitors as f64));
                    degraded_fraction.set(degraded_ticks as f64 / done);
                }
                if let Some((recorder, _)) = snapshots.filter(|&(_, every)| tick % every == 0) {
                    recorder.record_snapshot(&registry.snapshot(tick));
                }
                // Sink health, one read a tick: every breaker transition
                // shows up as a gauge and on the serve stream, per the
                // accuracy contract's "visible, never silent" rule.
                if tick_started.is_some() || serve.is_some() {
                    let wals = sessions.iter().map(TaskSession::wal_health);
                    let sinks = sink_health(wals, first.recorder.as_ref());
                    let [wal, store] = sinks;
                    if tick_started.is_some() {
                        wal_degraded_gauge.set(f64::from(u8::from(wal.degraded)));
                        wal_ring_gauge.set(wal.buffered as f64);
                        store_degraded_gauge.set(f64::from(u8::from(store.degraded)));
                    }
                    if let Some(serve) = serve {
                        serve.set_tick(tick);
                        let named = ["wal", "store"].into_iter().zip(sinks);
                        for ((sink, health), published) in named.zip(&mut published) {
                            if health.degraded != *published {
                                *published = health.degraded;
                                serve.degradation(sink, health.degraded, tick);
                            }
                        }
                    }
                }
            }
            tick += len;
        }
        Ok(())
    })();
    // Every exit tears down the same way. The recorder is sealed before
    // degradation state is read: the final flush can itself trip or
    // re-arm the store breaker.
    if let Some(hook) = hook {
        hook.stop(&mut sessions);
    }
    let wals: Vec<SinkHealth> = sessions.iter().map(TaskSession::wal_health).collect();
    let mut reports: Vec<RuntimeReport> = sessions.into_iter().map(TaskSession::finish).collect();
    driven?;

    // Degradation accounting, one read of each sink: a task's section
    // holds its own WAL and the shared store. The run's totals are
    // published once, so the final snapshot (and any scraper) carries
    // them.
    let [wal, store] = sink_health(wals.iter().copied(), first.recorder.as_ref());
    if obs.enabled() {
        DegradationReport::new(wal, store).publish(registry);
    }
    // The final snapshot, then the span trace beside it: best-effort,
    // like every recording. The store is read again after this last seal,
    // so the report counts every fault its own writes took.
    let store = match snapshots {
        Some((recorder, _)) => {
            recorder.record_snapshot(&registry.snapshot(ticks));
            recorder.flush();
            let spans = recorder.with_store(|store| store.dir().join("spans.json"));
            let _ = std::fs::write(spans, obs.spans().to_chrome_trace());
            recorder.health()
        }
        None => store,
    };
    for (report, wal) in reports.iter_mut().zip(wals) {
        report.degradation = DegradationReport::new(wal, store);
    }
    let report = &mut reports[0];
    report.self_monitor_alerts = self_monitor_alert_ticks.len() as u64;
    report.self_monitor_alert_ticks = self_monitor_alert_ticks;
    report.self_monitor_samples = self_monitor_samples;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::time::Duration;

    use super::*;
    use crate::failure::{FaultPath, FaultPlan};

    /// Non-test source of one file: everything before its test module.
    fn non_test_source(path: &Path) -> String {
        let text = std::fs::read_to_string(path).expect("readable source");
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text[..end].to_string()
    }

    /// Calls `visit` on every `.rs` file under `dir`.
    fn for_each_source(dir: &Path, visit: &mut dyn FnMut(&Path)) {
        for entry in std::fs::read_dir(dir).expect("readable src dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                for_each_source(&path, visit);
            } else if path.extension().is_some_and(|e| e == "rs") {
                visit(&path);
            }
        }
    }

    /// The drift guard for the monitor plane: nothing in this crate spawns
    /// a thread — no monitor, host or coordinator has one of its own, and
    /// the networked coordinator serves its sockets on the thread that
    /// steps the session, so it spawns no thread either. Nor does the
    /// in-process path wait: neither the shell, the machine nor a slot
    /// sleeps, and the machine's module reads no time at all — nor the
    /// fault plan: faults happen on the link, never in the protocol. And
    /// the shell tells a monitor nothing the machine did not decide.
    #[test]
    fn a_session_spawns_no_thread() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut sites = Vec::new();
        for_each_source(&src, &mut |path| {
            let spawns = non_test_source(path).matches("thread::spawn(").count();
            sites.extend(std::iter::repeat_n(path.to_path_buf(), spawns));
        });
        assert!(sites.is_empty(), "thread::spawn( in {sites:?}");
        for file in ["session.rs", "coordinator.rs", "monitor.rs"] {
            let source = non_test_source(&src.join(file));
            assert!(!source.contains("thread::sleep("), "{file} sleeps");
        }
        let machine = non_test_source(&src.join("coordinator.rs"));
        assert!(!machine.contains("std::time"), "coordinator.rs reads time");
        for fault in ["FaultPlan", "FaultPath"] {
            assert!(!machine.contains(fault), "coordinator.rs names {fault}");
        }
        // One speaker for the protocol: the session sends tick data and
        // the shutdown; everything else a monitor is told is the
        // machine's to decide.
        let shell = non_test_source(&src.join("session.rs"));
        for (at, _) in shell.match_indices("CoordinatorToMonitor::") {
            let rest = &shell[at + "CoordinatorToMonitor::".len()..];
            let variant = rest.split(|c: char| !c.is_alphanumeric()).next();
            assert!(
                matches!(variant, Some("Tick" | "Shutdown")),
                "session.rs builds CoordinatorToMonitor::{}",
                variant.unwrap_or_default()
            );
        }
    }

    /// The drift guard for the reply direction: the in-process plane
    /// never touches the codec. Between a slot's `handle_frame` and the
    /// machine's `admit` a reply is a value — so neither this module nor
    /// the slot table calls an encoder, a decoder or a `seal`.
    #[test]
    fn the_in_process_plane_never_touches_the_codec() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for file in ["session.rs", "monitor.rs"] {
            let source = non_test_source(&src.join(file));
            let code = source.lines().filter(|l| !l.trim_start().starts_with("//"));
            for (at, line) in code.enumerate() {
                for call in ["encode", "decode", "seal("] {
                    assert!(
                        !line.contains(call),
                        "{file}: `{call}` in code line {at}: {line}"
                    );
                }
            }
        }
    }

    /// The socket plane's send, over a loopback pair: every frame leaves
    /// stamped with the epoch and wrapped for its monitor, in order, and
    /// written by the send itself — nothing turns the table while the
    /// far end reads. A monitor no live connection hosts is an unrouted
    /// drop, not a refusal.
    #[test]
    fn the_remote_plane_writes_frames_in_order_within_the_send_and_counts_the_unrouted() {
        use crate::message::encode;
        use crate::net::{ctl_line, welcome_line, AgentHello, NetAddr};
        use std::io::{Read, Write};

        let mut sockets = SocketPlane::bind(&NetAddr::Tcp("127.0.0.1:0".into()), 8).unwrap();
        let mut agent = std::net::TcpStream::connect(sockets.local_addr().unwrap()).unwrap();
        let hello = AgentHello {
            agent: 0,
            first: 3,
            count: 5,
            epoch: 0,
        };
        let revived = MonitorToCoordinator::Revived {
            monitor: MonitorId(3),
        };
        let revived = MonitorFrame::seal(0, revived);
        agent.write_all(&encode(&hello)).unwrap();
        agent.write_all(&revived).unwrap();
        // The hello registers on the way to the first monitor frame.
        sockets.tick_deadline = Duration::from_secs(10);
        sockets.arm();
        let inbox = sockets.collect();
        assert_eq!(inbox[..], revived[..]);

        let mut plane = MonitorPlane::remote(sockets);
        let poll = CoordinatorToMonitor::Poll { tick: 9 };
        let stop = CoordinatorToMonitor::Shutdown;
        let mut refused = Vec::new();
        for (to, msg) in [(3, poll), (7, poll), (1, poll), (3, stop)] {
            let to = MonitorRun::one(MonitorId(to));
            plane.send(4, to, msg, |monitor| refused.push(monitor));
        }
        assert!(refused.is_empty());
        let wire = |to, msg| ctl_line(to, &ControlFrame::seal(4, msg));
        let lines = [welcome_line(0), wire(3, poll), wire(7, poll), wire(3, stop)];
        let expected: Vec<u8> = lines.iter().flat_map(|line| line.to_vec()).collect();
        let mut read = vec![0u8; expected.len()];
        agent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        agent.read_exact(&mut read).unwrap();
        assert_eq!(read, expected);
        let MonitorPlane::Remote(sockets, _) = &plane else {
            unreachable!("the plane is remote");
        };
        assert_eq!(sockets.stats().unrouted_drops, 1);
        assert_eq!(sockets.stats().frames_out, 4);
    }

    /// The drift guard for the tick path: actors are built and sessions
    /// spawned in this module only, so a new driver cannot quietly grow
    /// its own copy of the monitor or coordinator recipe, or a tick loop
    /// of its own beside [`drive`].
    #[test]
    fn actor_recipes_live_in_the_session_module_only() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut offenders = Vec::new();
        for_each_source(&src, &mut |path| {
            if path.file_name().is_some_and(|f| f != "session.rs") {
                let source = non_test_source(path);
                let recipes = [
                    "CoordinatorActor::new(",
                    "CoordinatorActor::take_over(",
                    "AdaptiveSampler::new(",
                    "TaskSession::spawn(",
                ];
                for recipe in recipes {
                    if source.contains(recipe) {
                        offenders.push(format!("{}: {recipe}", path.display()));
                    }
                }
            }
        });
        assert!(
            offenders.is_empty(),
            "actor construction outside session.rs: {offenders:?}"
        );
    }

    /// Runs `config`'s task over `traces` through the session itself.
    /// Returns the report and every reallocation: the allowances the
    /// monitors held after each tick that moved the coordinator's ledger
    /// — what that round's `SetAllowance` frames carried.
    fn run_inline(config: &TaskRunner, traces: &[Vec<f64>]) -> (RuntimeReport, Vec<Vec<f64>>) {
        let plane = MonitorPlane::inline(config);
        let mut session = TaskSession::spawn(config, plane, None).unwrap();
        let ledger = |session: &TaskSession| {
            let coordinator = session.coordinator.as_ref().unwrap();
            coordinator.rules().allowances().to_vec()
        };
        let mut assigned = ledger(&session);
        let mut reallocations = Vec::new();
        for tick in 0..run_length(&config.spec, traces).unwrap() {
            session
                .step(tick, |idx| traces[idx][tick as usize])
                .unwrap();
            if ledger(&session) != assigned {
                assigned = ledger(&session);
                let MonitorPlane::Inline { table, .. } = &session.plane else {
                    unreachable!("the plane is inline");
                };
                let held = |slot: &MonitorSlot| slot.actor().sampler().error_allowance();
                let held: Vec<f64> = table.slots().iter().map(held).collect();
                assert_eq!(held, assigned, "tick {tick}: the frames arrived");
                reallocations.push(held);
            }
        }
        (session.finish(), reallocations)
    }

    /// tests/runtime_parity.rs's traces: per-monitor noise around a
    /// monitor-specific base, with periodic 120-unit surges.
    fn parity_traces(monitors: usize, ticks: usize, seed: u64) -> Vec<Vec<f64>> {
        (0..monitors)
            .map(|m| {
                let mut state = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(m as u64);
                (0..ticks)
                    .map(|t| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let noise = (state >> 33) as f64 / (1u64 << 31) as f64;
                        let base = 20.0 + 5.0 * (m as f64) + noise * 5.0;
                        let surge = t % (500 + m * 37) > (480 + m * 37);
                        base + if surge { 120.0 } else { 0.0 }
                    })
                    .collect()
            })
            .collect()
    }

    fn parity_spec(monitors: usize) -> TaskSpec {
        TaskSpec::builder(60.0 * monitors as f64)
            .monitors(monitors)
            .error_allowance(0.02)
            .max_interval(8)
            .patience(5)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    /// The whole-task run, fault-free: the session — the machine and the
    /// real monitor actors on one thread — reproduces the reference
    /// [`DistributedTask::step`] exactly, and never alert on a tick the
    /// ground truth does not contain.
    #[test]
    fn a_single_threaded_task_matches_the_reference_and_the_ground_truth() {
        use volley_core::{DistributedTask, GroundTruth};
        // Uneven local thresholds carried by the spec itself.
        let weighted = TaskSpec::builder(240.0)
            .threshold_split(volley_core::ThresholdSplit::Proportional)
            .threshold_weights(vec![1.0, 2.0, 3.0, 2.0])
            .error_allowance(0.02)
            .max_interval(8)
            .patience(5)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut alerts_checked = 0;
        for (spec, seed) in [
            (parity_spec(2), 1u64),
            (parity_spec(3), 2),
            (parity_spec(5), 3),
            (weighted, 4),
        ] {
            let monitors = spec.monitors().len();
            let traces = parity_traces(monitors, 1200, seed);
            let mut reference = DistributedTask::new(&spec).unwrap();
            let (mut alerts, mut samples) = (Vec::new(), 0u64);
            for tick in 0..1200u64 {
                let values: Vec<f64> = traces.iter().map(|t| t[tick as usize]).collect();
                let outcome = reference.step(tick, &values).unwrap();
                samples += u64::from(outcome.total_samples());
                if outcome.alerted() {
                    alerts.push(tick);
                }
            }
            let config = TaskRunner::new(&spec).unwrap();
            let (report, _) = run_inline(&config, &traces);
            assert_eq!(report.alert_ticks, alerts, "alerts (m={monitors})");
            assert_eq!(report.total_samples, samples, "samples (m={monitors})");
            assert_eq!(report.missed_tick_reports, 0);
            let truth = GroundTruth::from_aggregate_traces(&traces, spec.global_threshold());
            for tick in &report.alert_ticks {
                assert!(
                    truth.violation_ticks().contains(tick),
                    "alert at {tick} without a violation"
                );
            }
            alerts_checked += alerts.len();
        }
        assert!(alerts_checked > 0, "no trace violated");
    }

    /// The fault plan of the whole-task tests, under `seed`:
    /// drops on both lossy paths, delays, duplicates, a crash, a stall
    /// and a partition, with the supervisor restarting what is
    /// quarantined.
    fn faulty_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_drop_rate(FaultPath::ViolationReport, 0.1)
            .with_drop_rate(FaultPath::PollReply, 0.1)
            .with_delay_rate(0.02)
            .with_duplication_rate(0.02)
            .with_crash(MonitorId(1), 300)
            .with_stall(MonitorId(2), 600, 40)
            .with_partition(&[MonitorId(3)], 995, 1005)
    }

    fn faulty(spec: &TaskSpec, seed: u64) -> TaskRunner {
        TaskRunner::new(spec)
            .unwrap()
            .with_fault_plan(faulty_plan(seed))
    }

    /// The whole-task run under a seeded fault plan: nothing runs beside
    /// the driver, so the folded report is identical on every rerun,
    /// `missed_tick_reports` included, and every reallocation under each
    /// of 16 seeds' plans assigns `Σ err_i ≤ err`.
    #[test]
    fn a_single_threaded_faulty_task_reproduces_its_report_exactly() {
        let spec = parity_spec(4);
        let traces = parity_traces(4, 2400, 7);
        let err = spec.adaptation().error_allowance();
        let mut rounds = 0;
        for seed in 42..58 {
            let (_, reallocations) = run_inline(&faulty(&spec, seed), &traces);
            for assigned in &reallocations {
                assert_eq!(assigned.len(), 4);
                let total = assigned.iter().sum::<f64>();
                assert!(total <= err + 1e-12, "seed={seed}: {assigned:?}");
            }
            rounds += reallocations.len();
        }
        assert!(rounds > 0, "no round reallocated");
        let config = faulty(&spec, 42);
        let (first, reallocations) = run_inline(&config, &traces);
        assert_eq!(first.ticks, 2400);
        assert!(first.alerts > 0 && first.degraded_polls > 0);
        assert!(first.missed_tick_reports > 0 && first.quarantines >= 3);
        assert_eq!(first.quarantines, first.restarts);
        assert_eq!(first.restarts, first.recoveries);
        for rerun in 1..100 {
            let (report, again) = run_inline(&config, &traces);
            assert_eq!(report, first, "rerun {rerun}");
            assert_eq!(again, reallocations, "rerun {rerun}");
        }
    }

    /// Paper §IV's promise, across a supervised restart: a reallocation
    /// moves allowance, then monitor 1 crashes, is quarantined and is
    /// restarted from the even share. The coordinator re-admits it at
    /// its ledger entry, so after every tick the monitors hold exactly
    /// the ledger, which never sums past `err`.
    #[test]
    fn a_restarted_monitor_is_re_admitted_at_its_ledger_allowance() {
        let spec = parity_spec(4);
        let traces = parity_traces(4, 1200, 7);
        let err = spec.adaptation().error_allowance();
        let plan = FaultPlan::new(1).with_crash(MonitorId(1), 1050);
        let config = TaskRunner::new(&spec).unwrap().with_fault_plan(plan);
        let plane = MonitorPlane::inline(&config);
        let mut session = TaskSession::spawn(&config, plane, None).unwrap();
        let even = vec![err / 4.0; 4];
        for tick in 0..1200 {
            session
                .step(tick, |idx| traces[idx][tick as usize])
                .unwrap();
            let coordinator = session.coordinator.as_ref().unwrap();
            let ledger = coordinator.rules().allowances();
            if tick == 1000 {
                assert_ne!(ledger, even, "the round moved no allowance");
            }
            let MonitorPlane::Inline { table, .. } = &session.plane else {
                unreachable!("the plane is inline");
            };
            let held = |slot: &MonitorSlot| slot.actor().sampler().error_allowance();
            let held: Vec<f64> = table.slots().iter().map(held).collect();
            assert_eq!(held, ledger, "tick {tick}: held is not the ledger");
            assert!(
                held.iter().sum::<f64>() <= err + 1e-12,
                "tick {tick}: {held:?}"
            );
        }
        let report = session.finish();
        assert_eq!((report.quarantines, report.restarts), (1, 1));
        assert_eq!(report.recoveries, 1);
    }

    /// The scheduled coordinator crash is the session's to fire: once
    /// the tick's data has left and before any reply reaches the
    /// machine. The step fails with the machine, its log and the
    /// replies in flight gone, every later step fails alike, and a
    /// successor re-drives the crashed tick from the start.
    #[test]
    fn a_coordinator_crash_fires_between_the_data_and_the_replies() {
        let spec = parity_spec(2);
        let config = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_coordinator_crash(1));
        let dir = std::env::temp_dir().join(format!("volley-session-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Wal::create(dir.join("crash.wal")).unwrap();
        let plane = MonitorPlane::inline(&config);
        let mut session = TaskSession::spawn(&config, plane, Some((wal, 1))).unwrap();
        assert_eq!(session.step(0, |_| 10.0).unwrap().tick, 0);
        let dead = |step: Result<TickSummary, VolleyError>| {
            matches!(
                step,
                Err(VolleyError::RuntimeDisconnected {
                    component: "coordinator"
                })
            )
        };
        assert!(dead(session.step(1, |_| 10.0)));
        assert!(session.coordinator.is_none() && session.wal.is_none());
        let MonitorPlane::Inline { in_flight, .. } = &session.plane else {
            unreachable!("the plane is inline");
        };
        assert!(in_flight.is_empty(), "the tick's replies died with it");
        assert!(dead(session.step(1, |_| 10.0)), "a dead machine stays dead");
        assert_eq!(session.fail_over(1, None, Err(0)).unwrap(), 1);
        let summary = session.step(1, |_| 10.0).unwrap();
        assert_eq!((summary.tick, summary.missing_reports), (1, 0));
        assert_eq!(session.step(2, |_| 10.0).unwrap().tick, 2, "one crash");
        let report = session.finish();
        assert_eq!((report.ticks, report.coordinator_failovers), (3, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A boundary case of the step-level crash: a quarantined monitor
    /// whose first report back lands on the coordinator's crash tick is
    /// not counted as recovered. The dead primary never closed that
    /// tick, and its successor starts with nobody quarantined.
    #[test]
    fn a_recovery_on_the_crash_tick_dies_with_the_primary() {
        let spec = parity_spec(2);
        let traces = parity_traces(2, 40, 3);
        let run = |crash_at: Tick| {
            let plan = FaultPlan::new(7)
                .with_stall(MonitorId(1), 5, 1)
                .with_coordinator_crash(crash_at);
            let config = TaskRunner::new(&spec)
                .unwrap()
                .with_fault_plan(plan)
                .with_quarantine_after(1)
                .with_supervision(false)
                .with_standby(true);
            config.run(&traces).unwrap()
        };
        // Monitor 1 misses tick 5, is quarantined, and reports on tick 6.
        let recovered = run(20);
        assert_eq!((recovered.quarantines, recovered.recoveries), (1, 1));
        let crashed = run(6);
        assert_eq!((crashed.quarantines, crashed.recoveries), (1, 0));
        assert_eq!(crashed.coordinator_failovers, 1);
        assert_eq!(crashed.ticks, 40);
    }

    /// The one policy the link-level partition alters: a monitor cut off
    /// across a §IV-B update tick before it is quarantined is asked for
    /// its report like the rest, and the round is skipped on the missing
    /// one — the reachable monitors drain their period, and every
    /// monitor carries its allowance forward. Every reallocation before
    /// and after still assigns `Σ err_i ≤ err`, the monitors hold what
    /// the ledger says, and the report is identical on rerun.
    #[test]
    fn a_partition_across_an_update_tick_skips_the_round_and_keeps_the_ledger() {
        let spec = parity_spec(4);
        let traces = parity_traces(4, 3400, 11);
        let err = spec.adaptation().error_allowance();
        // Cut monitor 2 off across the update ticks 1000 and 2000, for
        // fewer ticks than it takes to quarantine it.
        let plan = FaultPlan::new(3)
            .with_partition(&[MonitorId(2)], 999, 1001)
            .with_partition(&[MonitorId(2)], 1999, 2001);
        let config = TaskRunner::new(&spec).unwrap().with_fault_plan(plan);
        let plane = MonitorPlane::inline(&config);
        let mut session = TaskSession::spawn(&config, plane, None).unwrap();
        for tick in 0..=1000 {
            session
                .step(tick, |idx| traces[idx][tick as usize])
                .unwrap();
        }
        let MonitorPlane::Inline { table, .. } = &session.plane else {
            unreachable!("the plane is inline");
        };
        let period = |m: usize| {
            let mut sampler = table.slots()[m].actor().sampler().clone();
            sampler.drain_period_report().observations
        };
        for reachable in [0, 1, 3] {
            assert_eq!(period(reachable), 0, "monitor {reachable} was asked");
        }
        assert!(period(2) > 0, "the cut-off monitor kept its period");
        let coordinator = session.coordinator.as_ref().unwrap();
        assert_eq!(coordinator.rules().allocation_rounds, 0, "skipped");
        let (first, reallocations) = run_inline(&config, &traces);
        assert_eq!(first.quarantines, 0, "the partitions are short");
        assert_eq!(first.missed_tick_reports, 4);
        assert!(!reallocations.is_empty(), "tick 3000 reallocates");
        for assigned in &reallocations {
            let total = assigned.iter().sum::<f64>();
            assert!(total <= err + 1e-12, "{assigned:?}");
        }
        let (again, reallocated_again) = run_inline(&config, &traces);
        assert_eq!(again, first);
        assert_eq!(reallocated_again, reallocations);
    }

    /// A hook that holds up the step of one tick: a slow tick, as the
    /// socket plane's turn makes one when its agents are slow to answer.
    struct SlowTick {
        at: Tick,
        pause: Duration,
    }

    impl Hook for SlowTick {
        fn before_step(&mut self, tick: Tick, _: usize, _: &mut TaskSession<'_>) {
            if tick == self.at {
                std::thread::sleep(self.pause);
            }
        }
    }

    /// The watchdog end to end: one eager sampler on the loop's own tick
    /// latency flags the tick held up past its threshold, and nothing
    /// before it — a quiet workload, so the slow tick is all there is.
    #[test]
    fn the_watchdog_alerts_on_a_slow_tick_and_only_there() {
        let spec = TaskSpec::builder(300.0)
            .monitors(3)
            .error_allowance(0.0)
            .build()
            .unwrap();
        let traces: Vec<Vec<f64>> = (0..3)
            .map(|m| (0..40).map(|t| 20.0 + ((t * (3 + m)) % 7) as f64).collect())
            .collect();
        let runner = TaskRunner::new(&spec)
            .unwrap()
            .with_self_monitor(100_000.0, 0.0);
        let mut slow = SlowTick {
            at: 10,
            pause: Duration::from_millis(250),
        };
        let task = Task::new(&runner, &traces, None);
        let report = drive(vec![task], Some(&mut slow)).unwrap().remove(0);
        assert_eq!(report.ticks, 40);
        assert_eq!(report.alerts, 0, "quiet workload: no state alerts");
        // Eager watchdog (err = 0): one latency sample per tick.
        assert_eq!(report.self_monitor_samples, 40);
        let flagged = &report.self_monitor_alert_ticks;
        assert!(!flagged.is_empty(), "the slow tick went unflagged");
        assert!(
            flagged.iter().all(|t| (10..14).contains(t)),
            "alerts away from the slow tick: {flagged:?}"
        );
    }
}
