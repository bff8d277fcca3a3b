//! The task session: the one owner of the tick path.
//!
//! Every runner in this crate drives the same protocol — monitors feed a
//! coordinator, a driver paces ticks — so its moving parts live here once:
//!
//! - **spawn** ([`TaskSession::spawn`]): the only monitor-actor recipe
//!   ([`monitor_actor`]), the only [`CoordinatorActor`] construction and
//!   the link/channel wiring between them, the monitors hosted on a few
//!   in-process threads or behind a socket event loop ([`MonitorPlane`]);
//! - **step** ([`TaskSession::step`]): send one tick's [`TickData`], drain
//!   liveness events until its [`TickSummary`], fold that into the
//!   [`RuntimeReport`];
//! - **finish** ([`TaskSession::finish`]): Shutdown, join, flush — on
//!   success *and* on error.
//!
//! The runners keep policy only: [`crate::TaskRunner`] supervision,
//! standby failover and sinks; [`crate::MultiTaskRunner`] N sessions in
//! lock-step with gates driven between steps; [`crate::NetCoordinator`]
//! one remote session beside its event loop.

use std::thread::{self, JoinHandle};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

use volley_core::allocation::{AllocationConfig, ErrorAllocator};
use volley_core::task::{MonitorId, TaskSpec};
use volley_core::time::Tick;
use volley_core::{AdaptationConfig, AdaptiveSampler, VolleyError};
use volley_obs::Obs;
use volley_serve::reactor::Waker;
use volley_store::SampleRecorder;

use crate::checkpoint::{CoordinatorSnapshot, Wal};
use crate::coordinator::{CoordinatorActor, DEFAULT_QUARANTINE_AFTER, DEFAULT_TICK_DEADLINE};
use crate::failure::FaultPlan;
use crate::link::MonitorLink;
use crate::message::{
    decode, ControlFrame, CoordinatorToMonitor, CoordinatorToRunner, MonitorFrame,
    MonitorToCoordinator, TickData, TickSummary,
};
use crate::monitor::{HostMsg, MonitorActor, MonitorSlot, SlotTable};
use crate::runner::RuntimeReport;

/// A fresh sampler at the default interval holding allowance `err`.
pub(crate) fn fresh_sampler(config: AdaptationConfig, threshold: f64, err: f64) -> AdaptiveSampler {
    let mut sampler = AdaptiveSampler::new(config, threshold);
    sampler.set_error_allowance(err);
    sampler
}

/// The even share of the task allowance every monitor starts from (and
/// falls back to on a conservative restart).
fn even_share(spec: &TaskSpec) -> f64 {
    spec.adaptation().error_allowance() / spec.monitors().len() as f64
}

/// The monitor-actor recipe: monitor `idx` of `spec` around a fresh
/// sampler at the even allowance share. In-process hosts, supervised
/// restarts and socket agents all start here, hence bit-for-bit parity.
pub(crate) fn monitor_actor(spec: &TaskSpec, idx: usize) -> MonitorActor {
    let m = &spec.monitors()[idx];
    let sampler = fresh_sampler(*spec.adaptation(), m.local_threshold, even_share(spec));
    MonitorActor::new(m.id, sampler)
}

/// The protocol parameters a session's actors are built from. Runners
/// hold one and override the fields they own.
#[derive(Debug)]
pub(crate) struct SessionConfig {
    pub(crate) spec: TaskSpec,
    pub(crate) obs: Obs,
    /// The paper's `adapt` allocation scheme (else the static `even`).
    pub(crate) adaptive_allocation: bool,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) tick_deadline: Duration,
    pub(crate) quarantine_after: u32,
    /// Recording sink for every monitor's samples and the task's alerts.
    pub(crate) recorder: Option<SampleRecorder>,
    /// Restart quarantined in-process monitors with a fresh actor.
    pub(crate) supervise: bool,
    /// §II.B follower gate at this coarse interval, propagated by the
    /// driver through [`TaskSession::drive_gate`].
    pub(crate) gated_interval: Option<u32>,
}

impl SessionConfig {
    /// Adaptive allocation, no faults, default deadlines, nothing
    /// recorded, no supervision, no gate.
    pub(crate) fn new(spec: TaskSpec, obs: Obs) -> Self {
        SessionConfig {
            spec,
            obs,
            adaptive_allocation: true,
            fault_plan: FaultPlan::default(),
            tick_deadline: DEFAULT_TICK_DEADLINE,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            recorder: None,
            supervise: false,
            gated_interval: None,
        }
    }
}

/// How many ticks `traces` (`traces[i][t]` = monitor *i*'s value at tick
/// *t*) can drive `spec` for: the shortest trace's length.
///
/// # Errors
///
/// [`VolleyError::EmptyTask`] for a spec without monitors,
/// [`VolleyError::ValueCountMismatch`] unless there is one trace per
/// monitor.
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
    Ok(traces.iter().map(Vec::len).min().unwrap_or(0) as u64)
}

/// Where a session's monitors live.
pub(crate) enum MonitorPlane {
    /// In process: `min(n, available_parallelism())` host threads, each
    /// stepping a contiguous slice of the monitors off one inbox — an
    /// agent without a socket. `hosts` pins the thread count instead;
    /// only tests set it (a report must not depend on it).
    Hosted { hosts: Option<usize> },
    /// Behind sockets: control frames leave tagged `(monitor, frame)` on
    /// `out` (each send firing `waker`), monitor frames arrive on
    /// `from_monitors` — both far ends held by the event loop that owns
    /// the connections.
    Remote {
        out: Sender<(u32, Bytes)>,
        waker: Waker,
        from_monitors: Receiver<Bytes>,
    },
}

/// One running task: its monitor links, its coordinator incarnation and
/// the report folded so far.
pub(crate) struct TaskSession<'a> {
    config: &'a SessionConfig,
    epoch: u64,
    links: Vec<MonitorLink>,
    /// The shared, swappable monitor→coordinator link (in-process plane
    /// only): failover repoints it at the successor's fresh channel, so
    /// frames addressed to the dead incarnation die with its receiver.
    out_link: Option<MonitorLink>,
    /// The monitor host threads (in-process plane only).
    host_handles: Vec<JoinHandle<()>>,
    summary_rx: Receiver<Bytes>,
    /// `None` once a dead coordinator has been joined.
    coord_handle: Option<JoinHandle<()>>,
    report: RuntimeReport,
}

impl<'a> TaskSession<'a> {
    /// Wires the links, spawns the monitor hosts (in-process plane) and
    /// the first coordinator incarnation, checkpointing to `wal` (log
    /// plus snapshot cadence) when given.
    ///
    /// # Errors
    ///
    /// A spec no allocator accepts — before any thread is spawned.
    pub(crate) fn spawn(
        config: &'a SessionConfig,
        plane: MonitorPlane,
        wal: Option<(Wal, u64)>,
    ) -> Result<Self, VolleyError> {
        let n = config.spec.monitors().len();
        let allocator = allocator(config)?;
        let (summary_tx, summary_rx) = unbounded::<Bytes>();
        let mut session = TaskSession {
            config,
            epoch: 0,
            links: Vec::new(),
            out_link: None,
            host_handles: Vec::new(),
            summary_rx,
            coord_handle: None,
            report: RuntimeReport::default(),
        };
        let from_monitors = match plane {
            MonitorPlane::Hosted { hosts } => {
                let (to_coord_tx, to_coord_rx) = unbounded::<Bytes>();
                let out_link = MonitorLink::new(to_coord_tx);
                let hosts = hosts
                    .or_else(|| thread::available_parallelism().ok().map(usize::from))
                    .unwrap_or(1)
                    .clamp(1, n);
                for host in 0..hosts {
                    let (tx, rx) = unbounded::<HostMsg>();
                    let hosted = host * n / hosts..(host + 1) * n / hosts;
                    let mut slots = Vec::with_capacity(hosted.len());
                    for idx in hosted.clone() {
                        let plan = session.config.fault_plan.clone();
                        let slot = MonitorSlot::new(session.actor(idx, plan));
                        let link = MonitorLink::hosted(idx as u32, tx.clone(), slot.liveness());
                        session.links.push(link);
                        slots.push(slot);
                    }
                    let table = SlotTable::new(hosted.start as u32, slots);
                    let outbox = out_link.clone();
                    let handle = thread::spawn(move || table.host(rx, outbox));
                    session.host_handles.push(handle);
                }
                session.out_link = Some(out_link);
                to_coord_rx
            }
            MonitorPlane::Remote {
                out,
                waker,
                from_monitors,
            } => {
                session.links = (0..n as u32)
                    .map(|m| MonitorLink::tagged(m, out.clone(), waker.clone()))
                    .collect();
                from_monitors
            }
        };
        let plan = session.config.fault_plan.clone();
        session.start_coordinator(allocator, plan, None, wal, from_monitors, summary_tx);
        Ok(session)
    }

    /// Monitor `idx`'s actor at the current epoch under `plan`, wired to
    /// the session's sinks.
    fn actor(&self, idx: usize, plan: FaultPlan) -> MonitorActor {
        let actor = monitor_actor(&self.config.spec, idx)
            .with_faults(plan)
            .with_epoch(self.epoch)
            .with_obs(&self.config.obs);
        match &self.config.recorder {
            Some(recorder) => actor.with_recorder(recorder.clone()),
            None => actor,
        }
    }

    /// Builds and spawns one coordinator incarnation at the current epoch.
    fn start_coordinator(
        &mut self,
        allocator: ErrorAllocator,
        plan: FaultPlan,
        resume: Option<(Option<Tick>, Tick)>,
        wal: Option<(Wal, u64)>,
        from_monitors: Receiver<Bytes>,
        summary_tx: Sender<Bytes>,
    ) {
        let spec = &self.config.spec;
        let local_thresholds = spec.monitors().iter().map(|m| m.local_threshold).collect();
        let mut coordinator = CoordinatorActor::new(
            spec.global_threshold(),
            local_thresholds,
            allocator,
            spec.adaptation().slack_ratio(),
            self.config.adaptive_allocation,
        )
        .with_fault_plan(plan)
        .with_tick_deadline(self.config.tick_deadline)
        .with_quarantine_after(self.config.quarantine_after)
        .with_epoch(self.epoch)
        .with_obs(&self.config.obs);
        if let Some(interval) = self.config.gated_interval {
            coordinator = coordinator
                .with_multitask(interval)
                .with_external_gate_driver();
        }
        if let Some((last_tick, next_update_tick)) = resume {
            coordinator = coordinator.with_resume(last_tick, next_update_tick);
        }
        if let Some((wal, every)) = wal {
            coordinator = coordinator.with_checkpoint(wal, every);
        }
        let links = self.links.clone();
        self.coord_handle = Some(thread::spawn(move || {
            coordinator.run(from_monitors, links, summary_tx)
        }));
    }

    /// The report folded so far.
    pub(crate) fn report(&self) -> &RuntimeReport {
        &self.report
    }

    /// Drives one tick: sends monitor *i* the value `value(i)`, consumes
    /// liveness events (restarting quarantined monitors when supervising)
    /// until the tick's summary arrives, and folds it into the report. A
    /// failed send means that monitor is gone; the coordinator notices
    /// via its deadline, so the run keeps going.
    ///
    /// # Errors
    ///
    /// [`VolleyError::RuntimeDisconnected`] when the coordinator died
    /// mid-tick (its thread is joined by then): [`fail_over`](Self::fail_over)
    /// and step the same tick again, or [`finish`](Self::finish).
    pub(crate) fn step(
        &mut self,
        tick: Tick,
        value: impl Fn(usize) -> f64,
    ) -> Result<TickSummary, VolleyError> {
        // Seal the whole tick, then send it: the socket plane's loop
        // wakes on the first frame, and by the time it looks most of the
        // rest are queued behind it — a few write batches per agent
        // instead of a trickle paced by the encoder.
        let frames: Vec<Bytes> = (0..self.links.len())
            .map(|i| {
                let value = value(i);
                ControlFrame::seal(
                    self.epoch,
                    CoordinatorToMonitor::Tick(TickData { tick, value }),
                )
            })
            .collect();
        for (link, frame) in self.links.iter().zip(frames) {
            let _ = link.send(frame);
        }
        let summary = loop {
            let Ok(frame) = self.summary_rx.recv() else {
                if let Some(handle) = self.coord_handle.take() {
                    handle.join().expect("coordinator thread exits cleanly");
                }
                return Err(VolleyError::RuntimeDisconnected {
                    component: "coordinator",
                });
            };
            match decode::<CoordinatorToRunner>(&frame) {
                Ok(CoordinatorToRunner::Summary(summary)) => break summary,
                Ok(CoordinatorToRunner::MonitorQuarantined { monitor, .. }) => {
                    self.report.quarantines += 1;
                    if self.config.supervise {
                        self.restart_monitor(monitor);
                    }
                }
                Ok(CoordinatorToRunner::MonitorRecovered { .. }) => {
                    self.report.recoveries += 1;
                }
                Err(_) => {} // never produced by our coordinator
            }
        };
        self.fold(&summary);
        Ok(summary)
    }

    /// Folds one tick summary into the report (and records its alert).
    fn fold(&mut self, summary: &TickSummary) {
        let report = &mut self.report;
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
            if let Some(recorder) = &self.config.recorder {
                recorder.record_alert(summary.tick, summary.degraded);
            }
        }
    }

    /// Replaces a quarantined monitor with a fresh actor installed in
    /// its host's slot: a fresh sampler at the default interval (its
    /// learned schedule died with it), the even allowance share, the
    /// current epoch. Process faults (crash/stall) are stripped from the
    /// restarted actor's plan — its predecessor already acted them out —
    /// while network faults (including partitions) keep applying.
    fn restart_monitor(&mut self, monitor: MonitorId) {
        let idx = monitor.0 as usize;
        let plan = self.config.fault_plan.without_process_faults(monitor);
        self.links[idx].install(self.actor(idx, plan));
        self.report.restarts += 1;
        // Tell the coordinator to await the restarted monitor again;
        // FIFO puts this notice ahead of the fresh actor's first report.
        self.send_to_coordinator(MonitorToCoordinator::Revived { monitor });
    }

    /// Sends a driver-originated notice down the monitors' shared link.
    fn send_to_coordinator(&self, msg: MonitorToCoordinator) {
        let out_link = self.out_link.as_ref().expect("in-process plane");
        let _ = out_link.send(MonitorFrame::seal(self.epoch, msg));
    }

    /// Propagates a follower-gate transition ahead of `tick`'s data:
    /// `SetGate` shares each monitor's inbox FIFO with the `Tick` frame
    /// that follows, `LeaderState` the monitor→coordinator FIFO with the
    /// `TickDone`s it must precede — so the tick a gate takes effect at
    /// is a pure function of the traces.
    pub(crate) fn drive_gate(&self, tick: Tick, interval: Option<u32>, leader_active: bool) {
        let set = ControlFrame::seal(self.epoch, CoordinatorToMonitor::SetGate { interval });
        for link in &self.links {
            let _ = link.send(set.clone());
        }
        self.send_to_coordinator(MonitorToCoordinator::LeaderState {
            tick,
            active: leader_active,
        });
    }

    /// Fails over to a successor coordinator after [`step`](Self::step)
    /// reported the incumbent dead with `tick` in flight: bump the epoch,
    /// fence the fleet, restore monitor state from `snapshot`
    /// (conservative `I_d` resets where it has none), repoint the shared
    /// outbox at a fresh channel — stranding any frames addressed to the
    /// dead incarnation — and spawn the successor resuming behind the
    /// tick the caller is about to step again, checkpointing to `wal`.
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// As [`spawn`](Self::spawn).
    pub(crate) fn fail_over(
        &mut self,
        tick: Tick,
        snapshot: Option<&CoordinatorSnapshot>,
        wal: Option<(Wal, u64)>,
    ) -> Result<u64, VolleyError> {
        let allocator = allocator(self.config)?;
        self.report.coordinator_failovers += 1;
        self.epoch += 1;
        let epoch = self.epoch;

        // Fence first, then restore: a monitor that consumes the NewEpoch
        // adopts it, so every later reply carries the new stamp. A monitor
        // that cannot hear us (partitioned) keeps its old epoch — its
        // post-heal frames are provably stale and the new coordinator
        // rejects them until epoch repair readmits it.
        for (idx, link) in self.links.iter().enumerate() {
            let send = |msg| link.send(ControlFrame::seal(epoch, msg));
            send(CoordinatorToMonitor::NewEpoch { epoch });
            match snapshot.and_then(|s| s.samplers.get(idx).copied().flatten()) {
                Some(snapshot) => {
                    send(CoordinatorToMonitor::RestoreState { snapshot });
                    self.report.checkpoint_restores += 1;
                }
                None => {
                    // The paper's conservative restart: back to the
                    // default interval and the even allowance share.
                    send(CoordinatorToMonitor::ResetSampler);
                    send(CoordinatorToMonitor::SetAllowance {
                        err: even_share(&self.config.spec),
                    });
                    self.report.conservative_restarts += 1;
                }
            }
        }

        let (to_coord_tx, to_coord_rx) = unbounded::<Bytes>();
        self.out_link
            .as_ref()
            .expect("in-process plane")
            .replace(to_coord_tx);
        let (summary_tx, summary_rx) = unbounded::<Bytes>();
        self.summary_rx = summary_rx;
        let next_update = snapshot.map_or_else(
            || tick + AllocationConfig::default().update_period_ticks,
            |s| s.next_update_tick,
        );
        let plan = self
            .config
            .fault_plan
            .without_coordinator_crashes_through(tick);
        let resume = Some((tick.checked_sub(1), next_update));
        self.start_coordinator(allocator, plan, resume, wal, to_coord_rx, summary_tx);
        Ok(epoch)
    }

    /// Tells every monitor to shut down (crashed ones fail the send,
    /// which is fine; the epoch fence never applies to `Shutdown`).
    pub(crate) fn broadcast_shutdown(&self) {
        for link in &self.links {
            let _ = link.send(ControlFrame::seal(
                self.epoch,
                CoordinatorToMonitor::Shutdown,
            ));
        }
    }

    /// Tears the session down and returns its report: stop the monitors
    /// and join their hosts, cut the monitor→coordinator channel so the
    /// coordinator exits on disconnect, join it, and only then — every
    /// producer gone — seal the recorded samples. A remote plane's event
    /// loop must already have stopped (it holds the coordinator's inbox
    /// sender).
    pub(crate) fn finish(self) -> RuntimeReport {
        self.broadcast_shutdown();
        for handle in self.host_handles {
            handle.join().expect("monitor host exits cleanly");
        }
        drop(self.links);
        drop(self.out_link);
        if let Some(handle) = self.coord_handle {
            handle.join().expect("coordinator thread exits cleanly");
        }
        if let Some(recorder) = &self.config.recorder {
            recorder.flush();
        }
        self.report
    }
}

/// The allowance allocator one coordinator incarnation starts from.
fn allocator(config: &SessionConfig) -> Result<ErrorAllocator, VolleyError> {
    let spec = &config.spec;
    ErrorAllocator::new(
        AllocationConfig::default(),
        spec.adaptation().error_allowance(),
        spec.monitors().len(),
    )
}

#[cfg(test)]
mod tests {
    use std::path::Path;

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

    /// The drift guard for the monitor plane: a session's threads are its
    /// hosts plus one coordinator, however many monitors it runs — the
    /// crate spawns threads at two sites here (host, coordinator) and at
    /// one in the socket server (its event loop), never one per monitor.
    #[test]
    fn a_session_spawns_at_most_hosts_plus_one_threads() {
        use super::{MonitorPlane, SessionConfig, TaskSession};
        use volley_core::task::TaskSpec;
        use volley_obs::Obs;

        let spec = TaskSpec::builder(6400.0).monitors(64).build().unwrap();
        let config = SessionConfig::new(spec, Obs::disabled());
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        for (hosts, expected) in [(None, cores.min(64)), (Some(3), 3), (Some(500), 64)] {
            let session =
                TaskSession::spawn(&config, MonitorPlane::Hosted { hosts }, None).unwrap();
            assert_eq!(session.host_handles.len(), expected, "hosts {hosts:?}");
            assert_eq!(session.links.len(), 64);
            session.finish();
        }

        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let spawns = |file: &str| {
            non_test_source(&src.join(file))
                .matches("thread::spawn(")
                .count()
        };
        let mut total = 0;
        for_each_source(&src, &mut |path| {
            total += non_test_source(path).matches("thread::spawn(").count();
        });
        assert_eq!(spawns("session.rs"), 2, "one per host, one per coordinator");
        assert_eq!(spawns("net/server.rs"), 1, "the event loop");
        assert_eq!(total, 3, "a thread::spawn outside the three known sites");
    }

    /// The drift guard for the tick path: actors are built in this module
    /// only, so a new driver cannot quietly grow its own copy of the
    /// monitor or coordinator recipe.
    #[test]
    fn actor_recipes_live_in_the_session_module_only() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut offenders = Vec::new();
        for_each_source(&src, &mut |path| {
            if path.file_name().is_some_and(|f| f != "session.rs") {
                let source = non_test_source(path);
                for recipe in ["CoordinatorActor::new(", "AdaptiveSampler::new("] {
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
}
