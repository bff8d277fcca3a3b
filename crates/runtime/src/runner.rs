//! The task runner: the configuration of one task — its protocol knobs,
//! whether quarantined monitors are restarted, whether a warm standby
//! takes over when the coordinator dies, and the WAL/obs/serve sinks the
//! run publishes to — run by the session module's one drive loop.

use std::path::PathBuf;
use std::sync::Arc;

use serde::Serialize;

use volley_core::coordinator::CoordinationScheme;
use volley_core::task::TaskSpec;
use volley_core::time::Tick;
use volley_core::vfs::{FaultFs, SinkHealth, StdFs, Vfs};
use volley_core::VolleyError;
use volley_obs::{names, Obs, Registry};
use volley_serve::ServePublisher;
use volley_store::SampleRecorder;

use crate::checkpoint::{CoordinatorSnapshot, Wal, WalSyncPolicy};
use crate::coordinator::DEFAULT_QUARANTINE_AFTER;
use crate::failure::FaultPlan;
use crate::session::{self, Task};

/// How the run's persistence sinks degraded under storage faults.
///
/// All zeros on a healthy run, so a fault-free [`RuntimeReport`] is
/// unchanged by the section's presence. Every counter describes
/// *sampling-fidelity* loss only: detection (alerts, polls) never waits
/// on a sink and is bit-identical with or without storage faults.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct DegradationReport {
    /// Storage faults injected under the task's sinks: its WAL
    /// incarnations' and the sample store's filesystems, and — on the
    /// first task's report — the snapshot writer's.
    pub io_faults_injected: u64,
    /// WAL appends that never reached the file (summed across
    /// coordinator incarnations).
    pub wal_write_failures: u64,
    /// WAL fsyncs that reported failure.
    pub wal_sync_failures: u64,
    /// WAL circuit-breaker trips (degraded-mode entries).
    pub wal_trips: u64,
    /// WAL circuit-breaker re-arms (degraded-mode exits).
    pub wal_rearms: u64,
    /// Checkpoint frames evicted from the bounded in-memory ring while
    /// the WAL was degraded — durable state actually lost.
    pub wal_ring_dropped: u64,
    /// WAL still shedding to its ring when the run ended.
    pub wal_degraded_at_end: bool,
    /// Records the sample store shed while its breaker was open.
    pub store_shed_samples: u64,
    /// Store circuit-breaker trips.
    pub store_trips: u64,
    /// Store circuit-breaker re-arms.
    pub store_rearms: u64,
    /// Store still lossy when the run ended.
    pub store_degraded_at_end: bool,
    /// Obs snapshot dumps skipped while the writer was paused.
    pub obs_snapshots_paused: u64,
    /// Obs writer circuit-breaker trips.
    pub obs_trips: u64,
    /// Obs writer circuit-breaker re-arms.
    pub obs_rearms: u64,
    /// Obs writer still paused when the run ended.
    pub obs_degraded_at_end: bool,
}

impl DegradationReport {
    /// Whether any sink degraded (or any fault was injected) at all.
    pub fn any(&self) -> bool {
        *self != DegradationReport::default()
    }

    /// The section over one health read of each durable sink.
    pub(crate) fn new(wal: SinkHealth, store: SinkHealth, snapshots: SinkHealth) -> Self {
        DegradationReport {
            io_faults_injected: wal.faults_injected
                + store.faults_injected
                + snapshots.faults_injected,
            wal_write_failures: wal.write_failures,
            wal_sync_failures: wal.sync_failures,
            wal_trips: wal.trips,
            wal_rearms: wal.rearms,
            wal_ring_dropped: wal.lost,
            wal_degraded_at_end: wal.degraded,
            store_shed_samples: store.lost,
            store_trips: store.trips,
            store_rearms: store.rearms,
            store_degraded_at_end: store.degraded,
            obs_snapshots_paused: snapshots.lost,
            obs_trips: snapshots.trips,
            obs_rearms: snapshots.rearms,
            obs_degraded_at_end: snapshots.degraded,
        }
    }

    /// Adds the section's counters to their `_total` series in
    /// `registry`, so the final snapshot (and any scraper) carries them.
    pub(crate) fn publish(&self, registry: &Registry) {
        let totals = [
            (names::WAL_WRITE_FAILURES_TOTAL, self.wal_write_failures),
            (names::WAL_SYNC_FAILURES_TOTAL, self.wal_sync_failures),
            (names::WAL_BREAKER_TRIPS_TOTAL, self.wal_trips),
            (names::WAL_BREAKER_REARMS_TOTAL, self.wal_rearms),
            (names::WAL_RING_DROPPED_TOTAL, self.wal_ring_dropped),
            (names::STORE_SHED_SAMPLES_TOTAL, self.store_shed_samples),
            (names::STORE_BREAKER_TRIPS_TOTAL, self.store_trips),
            (names::STORE_BREAKER_REARMS_TOTAL, self.store_rearms),
            (names::OBS_SNAPSHOTS_PAUSED_TOTAL, self.obs_snapshots_paused),
            (names::IO_FAULTS_INJECTED_TOTAL, self.io_faults_injected),
        ];
        for (name, total) in totals {
            registry.counter(name).add(total);
        }
    }
}

/// Multi-task (§II.B) outcome section for a task that ran as a gated
/// follower behind the correlation gate of a
/// [`crate::multitask::MultiTaskRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct MultitaskReport {
    /// The leader (precondition) task this follower was gated behind.
    pub leader: u64,
    /// Ticks this task spent with the gate engaged (leader calm).
    pub gated_ticks: u64,
    /// Scheduled samples the gate suppressed across the task's monitors.
    pub suppressed_samples: u64,
    /// Gate engage/release transitions over the run.
    pub gate_flips: u64,
}

/// Aggregate result of a task run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct RuntimeReport {
    /// Ticks processed.
    pub ticks: u64,
    /// Scheduled sampling operations across all monitors.
    pub scheduled_samples: u64,
    /// Forced (global-poll) sampling operations.
    pub poll_samples: u64,
    /// Global polls run.
    pub polls: u64,
    /// State alerts raised.
    pub alerts: u64,
    /// Local violation reports that reached the coordinator.
    pub local_violation_reports: u64,
    /// Ticks at which alerts were raised.
    pub alert_ticks: Vec<Tick>,
    /// Total sampling operations (scheduled + forced).
    pub total_samples: u64,
    /// Monitor-ticks whose report missed the collection deadline (or whose
    /// monitor was quarantined).
    pub missed_tick_reports: u64,
    /// Global polls aggregated in degraded mode (≥ 1 missing monitor
    /// counted at its local threshold).
    pub degraded_polls: u64,
    /// Alerts raised by a degraded-mode aggregation.
    pub degraded_alerts: u64,
    /// Monitor quarantine events.
    pub quarantines: u64,
    /// Monitor recovery events (quarantined monitors reporting again).
    pub recoveries: u64,
    /// Monitors restarted by the runner's supervisor.
    pub restarts: u64,
    /// Coordinator failovers to a warm standby.
    pub coordinator_failovers: u64,
    /// Monitor frames the coordinator rejected for carrying a stale
    /// epoch (split-brain fencing at work).
    pub stale_epoch_frames: u64,
    /// Monitors whose sampler state was restored from a checkpoint at
    /// failover.
    pub checkpoint_restores: u64,
    /// Monitors restarted conservatively at the default interval at
    /// failover (no checkpointed state available for them).
    pub conservative_restarts: u64,
    /// Tick latencies the watchdog's adaptive sampler read.
    pub self_monitor_samples: u64,
    /// Alerts the watchdog raised: sampled ticks whose latency exceeded
    /// its threshold.
    pub self_monitor_alerts: u64,
    /// Ticks at which self-monitoring alerts were raised.
    pub self_monitor_alert_ticks: Vec<Tick>,
    /// How the persistence sinks degraded under storage faults (all
    /// zeros on a healthy run).
    pub degradation: DegradationReport,
    /// Multi-task suppression outcome; `None` unless this task ran as a
    /// gated follower of a [`crate::multitask::MultiTaskRunner`].
    pub multitask: Option<MultitaskReport>,
}

impl RuntimeReport {
    /// Sampling-cost ratio versus periodic default-interval sampling on
    /// the same monitor count (1.0 before any tick).
    pub fn cost_ratio(&self, monitors: usize) -> f64 {
        let baseline = self.ticks * monitors as u64;
        if baseline == 0 {
            1.0
        } else {
            self.total_samples as f64 / baseline as f64
        }
    }
}

/// Drives a distributed monitoring task in process.
///
/// See the [crate docs](crate) for the tick protocol and the fault
/// tolerance model (deadlines, quarantine, degraded aggregation,
/// supervised restart, epoch-fenced coordinator failover).
#[derive(Debug)]
pub struct TaskRunner {
    pub(crate) spec: TaskSpec,
    pub(crate) obs: Obs,
    /// The paper's `adapt` allocation scheme or the static `even`.
    pub(crate) scheme: CoordinationScheme,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) quarantine_after: u32,
    /// Recording sink for every monitor's samples and the task's alerts.
    pub(crate) recorder: Option<SampleRecorder>,
    /// Restart quarantined in-process monitors with a fresh actor.
    pub(crate) supervise: bool,
    /// §II.B follower gate at this coarse interval, propagated between
    /// steps by the multi-task runner's gate.
    pub(crate) gated_interval: Option<u32>,
    pub(crate) standby: bool,
    /// Checkpoint WAL path and snapshot cadence (ticks).
    wal: Option<(PathBuf, u64)>,
    /// WAL group-fsync policy (default sync on snapshot records).
    wal_sync: WalSyncPolicy,
    /// Snapshot dump directory and cadence (ticks).
    pub(crate) obs_dir: Option<(PathBuf, u64)>,
    /// Self-monitor watchdog: (tick-latency threshold in µs, error
    /// allowance for its adaptive sampler).
    pub(crate) self_monitor: Option<(f64, f64)>,
    /// Live serving-plane publisher: alert/epoch/degradation events and
    /// the current tick for `/metrics` stamping.
    pub(crate) serve: Option<ServePublisher>,
}

impl TaskRunner {
    /// Creates a runner for `spec` with adaptive allowance allocation, no
    /// injected faults, supervision enabled, and neither a standby
    /// coordinator nor checkpointing.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::EmptyTask`] for a spec without monitors.
    pub fn new(spec: &TaskSpec) -> Result<Self, VolleyError> {
        if spec.monitors().is_empty() {
            return Err(VolleyError::EmptyTask);
        }
        Ok(TaskRunner {
            spec: spec.clone(),
            obs: Obs::disabled(),
            scheme: CoordinationScheme::Adaptive,
            fault_plan: FaultPlan::default(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            recorder: None,
            supervise: true,
            gated_interval: None,
            standby: false,
            wal: None,
            wal_sync: WalSyncPolicy::default(),
            obs_dir: None,
            self_monitor: None,
            serve: None,
        })
    }

    /// Attaches a [`SampleRecorder`]: every monitor records its sampled
    /// values and interval changes, and the runner records every alert.
    /// The recorder is flushed at teardown, on success and on error alike.
    /// Recording is best-effort and never fails the run — check
    /// [`SampleRecorder::io_errors`] afterwards.
    #[must_use]
    pub fn with_recorder(mut self, recorder: SampleRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Shares an observability bundle with the run: the runner, the
    /// coordinator and every monitor record into it. A disabled bundle
    /// (the default) costs one relaxed atomic load per instrument.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a live serving-plane publisher: the runner pushes alert,
    /// failover-epoch and sink-degradation events into its bounded ring
    /// and stamps the current tick for `/metrics` scrapes. Publishing is
    /// a couple of relaxed stores and one bounded ring push per event —
    /// it never blocks the tick path.
    #[must_use]
    pub fn with_serve_publisher(mut self, publisher: ServePublisher) -> Self {
        self.serve = Some(publisher);
        self
    }

    /// Dumps periodic [`volley_obs::Snapshot`]s (JSON + Prometheus text)
    /// into `dir` every `every` ticks, plus a final snapshot and the span
    /// trace (`spans.json`) at teardown. Implies nothing about the
    /// bundle's enabled flag — pair with an enabled [`Obs`].
    #[must_use]
    pub fn with_obs_dir(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        self.obs_dir = Some((dir.into(), every.max(1)));
        self
    }

    /// Arms the *Volley-watching-Volley* watchdog: one Volley adaptive
    /// sampler watches the loop's own tick latency (the value of the
    /// [`volley_obs::names::RUNNER_TICK_LATENCY_US`] gauge) and raises a
    /// self-monitor alert whenever a sampled tick took longer than
    /// `threshold_us` microseconds. `err` is the sampler's error
    /// allowance — 0.0 checks every tick, larger values let the watchdog
    /// itself skip quiet ticks. Arming it turns the [`Obs`] bundle on; a
    /// non-finite `threshold_us` or an invalid `err` fails the run before
    /// its first tick.
    #[must_use]
    pub fn with_self_monitor(mut self, threshold_us: f64, err: f64) -> Self {
        self.self_monitor = Some((threshold_us, err));
        self
    }

    /// Selects the allowance-allocation scheme (default adaptive).
    #[must_use]
    pub fn with_scheme(mut self, scheme: CoordinationScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Installs a deterministic [`FaultPlan`]: message drops, delays and
    /// duplication plus scheduled monitor crashes, stalls, partitions,
    /// coordinator crashes and WAL corruption. The same plan and spec
    /// reproduce the same [`RuntimeReport`].
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets how many consecutive missed deadlines quarantine a monitor
    /// (default
    /// [`DEFAULT_QUARANTINE_AFTER`]).
    #[must_use]
    pub fn with_quarantine_after(mut self, rounds: u32) -> Self {
        self.quarantine_after = rounds;
        self
    }

    /// Enables or disables the supervisor that restarts quarantined
    /// monitors (default enabled). With supervision off a dead monitor
    /// stays quarantined and the task runs degraded to completion.
    #[must_use]
    pub fn with_supervision(mut self, supervise: bool) -> Self {
        self.supervise = supervise;
        self
    }

    /// Arms a warm standby: when the coordinator dies mid-run, the runner
    /// bumps the epoch, fences the fleet with
    /// [`NewEpoch`](crate::message::CoordinatorToMonitor::NewEpoch), restores monitor
    /// state from the checkpoint WAL (when [`with_wal`](Self::with_wal)
    /// is configured — conservative `I_d` resets otherwise) and re-drives
    /// the interrupted tick on a fresh coordinator. Without a standby a
    /// dead coordinator ends the run with
    /// [`VolleyError::RuntimeDisconnected`].
    #[must_use]
    pub fn with_standby(mut self, standby: bool) -> Self {
        self.standby = standby;
        self
    }

    /// Checkpoints coordinator state to a write-ahead log at `path`,
    /// snapshotting the full adaptation state every `every` ticks
    /// (minimum 1). Durability is best-effort: if the log cannot be
    /// created the run proceeds unlogged and a failover falls back to
    /// conservative restarts.
    #[must_use]
    pub fn with_wal(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.wal = Some((path.into(), every.max(1)));
        self
    }

    /// Selects the WAL group-fsync policy (default
    /// [`WalSyncPolicy::OnSnapshot`]): how often appended checkpoint
    /// records are pushed past the OS cache.
    #[must_use]
    pub fn with_wal_sync(mut self, policy: WalSyncPolicy) -> Self {
        self.wal_sync = policy;
        self
    }

    /// Runs the task over the per-monitor ground-truth `traces`
    /// (`traces[i][t]` = monitor *i*'s value at tick *t*) and blocks until
    /// the shortest trace is exhausted. Everything runs on the calling
    /// thread: the monitors are slots of one table and the coordinator a
    /// machine, both stepped here, so the protocol's report is a pure
    /// function of the traces, the spec and the fault plan — it does not
    /// depend on the host's speed (only the self-monitor section, which
    /// watches wall-clock tick latency, does).
    ///
    /// The run completes even if monitors crash or stall mid-way: the
    /// coordinator quarantines them after missed deadlines — a round
    /// closes as soon as the replies in flight are in, since nothing
    /// arrives by waiting — and (unless supervision is disabled) the
    /// runner restarts them with a fresh sampler at the default
    /// interval. With [`with_standby`](Self::with_standby) the run also
    /// survives the coordinator dying: the interrupted tick is re-driven
    /// on a fresh, epoch-bumped coordinator.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::ValueCountMismatch`] when the trace count
    /// differs from the monitor count,
    /// [`VolleyError::NonFiniteValue`] for a `NaN` or infinite trace
    /// value, or [`VolleyError::RuntimeDisconnected`] if the coordinator
    /// crashes mid-run with no standby armed (or past the failover cap
    /// of 8) — after the same teardown as a completed run: every monitor
    /// shut down, the recorder flushed.
    pub fn run(&self, traces: &[Vec<f64>]) -> Result<RuntimeReport, VolleyError> {
        let mut reports = session::drive(vec![Task::new(self, traces, None)], None)?;
        Ok(reports.pop().expect("one task, one report"))
    }

    /// The filesystem one runner-owned sink writes through: the plain one,
    /// or — when the plan schedules storage faults — a fresh `FaultFs`.
    /// One instance per sink: independent op counters keep fault
    /// decisions order-independent, and each sink counts its own faults.
    pub(crate) fn sink_fs(&self) -> Arc<dyn Vfs> {
        let io = self.fault_plan.io();
        if io.is_benign() {
            return Arc::new(StdFs);
        }
        Arc::new(FaultFs::new(io.clone()))
    }

    /// Arms a freshly created log with the sync policy and any planned
    /// corruption, pairing it with the snapshot cadence (best-effort —
    /// `None` when the log could not be created).
    fn arm_wal(&self, created: std::io::Result<Wal>, every: u64) -> Option<(Wal, u64)> {
        let wal = created.ok()?;
        let corruptions = self.fault_plan.wal_corruptions().to_vec();
        Some((
            wal.with_sync_policy(self.wal_sync)
                .with_corruption(corruptions),
            every,
        ))
    }

    /// Opens the checkpoint WAL under the plan's storage faults.
    pub(crate) fn open_wal(&self) -> Option<(Wal, u64)> {
        let (path, every) = self.wal.as_ref()?;
        self.arm_wal(Wal::create_on(self.sink_fs(), path), *every)
    }

    /// Standby takeover, storage side: recovers whatever the dead
    /// incarnation managed to persist, then restarts the log cleanly
    /// (compaction also clears any corrupt tail the replay truncated at)
    /// under the same storage-fault plan as its predecessor's. Returns
    /// the last checkpoint and the restarted log — kept even when its
    /// seed snapshot write failed, as the ring holds that snapshot — or,
    /// when the log file could not be created, the faults its filesystem
    /// injected on the way (0 with no log configured).
    pub(crate) fn recover_wal(&self) -> (Option<CoordinatorSnapshot>, Result<(Wal, u64), u64>) {
        let Some((path, every)) = &self.wal else {
            return (None, Err(0));
        };
        let replay = Wal::replay(path).unwrap_or_default();
        let fs = self.sink_fs();
        let compacted = Wal::compact_to_on(Arc::clone(&fs), path, replay.snapshot.as_ref());
        let wal = self
            .arm_wal(compacted, *every)
            .ok_or_else(|| fs.injected_faults());
        (replay.snapshot, wal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultPath;
    use volley_core::task::MonitorId;

    fn spec(monitors: usize, threshold: f64, err: f64) -> TaskSpec {
        TaskSpec::builder(threshold)
            .monitors(monitors)
            .error_allowance(err)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    #[test]
    fn quiet_run_has_no_alerts_and_saves_cost() {
        let spec = spec(3, 1000.0, 0.05);
        let traces = vec![vec![5.0; 800], vec![10.0; 800], vec![20.0; 800]];
        let report = TaskRunner::new(&spec).unwrap().run(&traces).unwrap();
        assert_eq!(report.ticks, 800);
        assert_eq!(report.alerts, 0);
        assert_eq!(report.polls, 0);
        assert_eq!(report.missed_tick_reports, 0);
        assert_eq!(report.quarantines, 0);
        assert_eq!(report.coordinator_failovers, 0);
        assert_eq!(report.stale_epoch_frames, 0);
        assert!(
            report.cost_ratio(3) < 0.7,
            "cost ratio {}",
            report.cost_ratio(3)
        );
    }

    #[test]
    fn global_violation_is_detected() {
        let spec = spec(2, 100.0, 0.01);
        let mut a = vec![10.0; 300];
        let mut b = vec![10.0; 300];
        a[250] = 80.0; // local threshold 50 exceeded
        b[250] = 70.0; // sum 150 > 100
        let report = TaskRunner::new(&spec)
            .unwrap()
            .run([a, b].as_ref())
            .unwrap();
        // Monitors at the default interval early on sample every tick;
        // tick 250 may fall inside a grown interval, but both streams are
        // identical constants so both monitors share the same schedule —
        // if either samples tick 250 the alert fires. Verify the benign
        // case cannot alert and the polled case sums correctly instead.
        assert!(report.alerts <= 1);
        if report.alerts == 1 {
            assert_eq!(report.alert_ticks, vec![250]);
        }
    }

    #[test]
    fn violation_at_default_interval_is_always_caught() {
        // err = 0 keeps every monitor at the default interval.
        let spec = spec(2, 100.0, 0.0);
        let mut a = vec![10.0; 100];
        let b = vec![10.0; 100];
        a[57] = 95.0; // sum 105 > 100, local threshold 50 < 95
        let report = TaskRunner::new(&spec)
            .unwrap()
            .run([a, b].as_ref())
            .unwrap();
        assert_eq!(report.alerts, 1);
        assert_eq!(report.alert_ticks, vec![57]);
        assert_eq!(report.scheduled_samples, 200);
        // At err = 0 every monitor samples every tick, so the poll needs
        // no forced samples.
        assert_eq!(report.poll_samples, 0);
        assert_eq!(report.polls, 1);
    }

    /// Calm wobble with every monitor bursting over its local threshold
    /// on the last tick of each 50: polls, alerts and adaptation all move.
    fn bursty_traces(monitors: usize, ticks: usize) -> Vec<Vec<f64>> {
        (0..monitors)
            .map(|m| {
                (0..ticks)
                    .map(|t| {
                        let wobble = ((t * (3 + m)) % 7) as f64;
                        if t % 50 == 49 {
                            140.0 + wobble
                        } else {
                            20.0 + wobble
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A coordinator crash strands the replies addressed to the dead
    /// incarnation: duplicates trailing the report that closed the
    /// crashed round never reach the successor, so the only stale-epoch
    /// frames it counts are the delayed replies the monitors still held
    /// across the failover — five, the count the host-thread plane
    /// produced, where a swapped channel did the stranding.
    #[test]
    fn a_coordinator_crash_strands_the_replies_in_flight() {
        let monitors = 5;
        let spec = spec(monitors, 100.0 * monitors as f64, 0.02);
        let traces = bursty_traces(monitors, 150);
        let plan = FaultPlan::new(42)
            .with_duplication_rate(0.3)
            .with_delay_rate(0.5)
            .with_coordinator_crash(60);
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(plan)
            .with_standby(true)
            .run(&traces)
            .unwrap();
        assert_eq!(report.ticks, 150);
        assert_eq!(report.coordinator_failovers, 1);
        assert_eq!(report.alerts, 3, "every burst still alerts");
        assert_eq!(report.stale_epoch_frames, 5);
    }

    #[test]
    fn trace_count_mismatch_rejected() {
        let spec = spec(2, 100.0, 0.01);
        let err = TaskRunner::new(&spec)
            .unwrap()
            .run(&[vec![1.0; 10]])
            .unwrap_err();
        assert!(matches!(
            err,
            VolleyError::ValueCountMismatch {
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn full_report_loss_misses_everything() {
        let spec = spec(1, 50.0, 0.0);
        let mut trace = vec![10.0; 100];
        trace[30] = 99.0;
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(3).with_drop_rate(FaultPath::ViolationReport, 1.0))
            .run([trace].as_ref())
            .unwrap();
        assert_eq!(report.alerts, 0, "all reports dropped → no alerts");
        assert_eq!(report.polls, 0);
    }

    #[test]
    fn matches_reference_distributed_task() {
        // The live runtime and the step-driven core implementation
        // must agree on alerts and sample counts for identical inputs.
        let spec = spec(2, 200.0, 0.03);
        let traces: Vec<Vec<f64>> = (0..2)
            .map(|m| {
                (0..1500u64)
                    .map(|t| {
                        let base = 20.0 + 10.0 * (m as f64);
                        let wob = ((t * (7 + m as u64)) % 13) as f64;
                        if t % 400 == 399 {
                            base + 150.0 + wob
                        } else {
                            base + wob
                        }
                    })
                    .collect()
            })
            .collect();
        let runtime_report = TaskRunner::new(&spec).unwrap().run(&traces).unwrap();

        let mut reference = volley_core::DistributedTask::new(&spec).unwrap();
        let mut ref_alerts = Vec::new();
        let mut ref_samples = 0u64;
        for tick in 0..1500u64 {
            let values = [traces[0][tick as usize], traces[1][tick as usize]];
            let out = reference.step(tick, &values).unwrap();
            ref_samples += u64::from(out.total_samples());
            if out.alerted() {
                ref_alerts.push(tick);
            }
        }
        assert_eq!(runtime_report.alert_ticks, ref_alerts);
        assert_eq!(runtime_report.total_samples, ref_samples);
    }

    #[test]
    fn recorder_captures_every_sample_and_alert() {
        use volley_store::{RecordKind, SampleRecorder, ScanRange, Store};
        let dir = std::env::temp_dir().join(format!("volley-runner-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = spec(2, 50.0, 0.0);
        let mut traces = vec![vec![5.0; 120], vec![10.0; 120]];
        traces[0][60..70].fill(80.0); // aggregate 90 > 50: a held violation
        let recorder = SampleRecorder::new(Store::open(&dir).unwrap());
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_recorder(recorder.clone())
            .run(&traces)
            .unwrap();
        assert_eq!(recorder.io_errors(), 0);
        let samples = recorder.with_store(|s| {
            s.scan(&ScanRange::all().kind(RecordKind::Sample))
                .unwrap()
                .count() as u64
        });
        let polls = recorder.with_store(|s| {
            s.scan(&ScanRange::all().kind(RecordKind::PollSample))
                .unwrap()
                .count() as u64
        });
        assert_eq!(samples + polls, report.total_samples);
        let alert_ticks: Vec<Tick> = recorder.with_store(|s| {
            s.scan(&ScanRange::all().kind(RecordKind::Alert))
                .unwrap()
                .map(|r| r.tick)
                .collect()
        });
        assert_eq!(alert_ticks, report.alert_ticks);
        // err = 0 keeps every interval at 1: exactly one initial
        // IntervalChange record per monitor.
        let interval_changes = recorder.with_store(|s| {
            s.scan(&ScanRange::all().kind(RecordKind::IntervalChange))
                .unwrap()
                .count()
        });
        assert_eq!(interval_changes, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn even_scheme_runs() {
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 300], vec![2.0; 300]];
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_scheme(CoordinationScheme::Even)
            .run(&traces)
            .unwrap();
        assert_eq!(report.alerts, 0);
    }

    #[test]
    fn crashed_monitor_is_restarted_and_run_completes() {
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 60], vec![2.0; 60]];
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_crash(MonitorId(1), 5))
            .with_quarantine_after(2)
            .run(&traces)
            .unwrap();
        assert_eq!(report.ticks, 60, "the run must not hang or truncate");
        assert_eq!(report.quarantines, 1);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.recoveries, 1, "restarted monitor reports again");
        assert!(
            report.missed_tick_reports >= 2,
            "the dead rounds are accounted for"
        );
    }

    #[test]
    fn unsupervised_crash_runs_degraded_to_completion() {
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 40], vec![2.0; 40]];
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_crash(MonitorId(1), 5))
            .with_quarantine_after(2)
            .with_supervision(false)
            .run(&traces)
            .unwrap();
        assert_eq!(report.ticks, 40);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.recoveries, 0);
        // Dead from tick 5 onward: every later tick misses its report.
        assert!(report.missed_tick_reports >= 34);
    }

    #[test]
    fn coordinator_crash_without_standby_errors() {
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 40], vec![2.0; 40]];
        let err = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_coordinator_crash(10))
            .run(&traces)
            .unwrap_err();
        assert!(matches!(
            err,
            VolleyError::RuntimeDisconnected {
                component: "coordinator"
            }
        ));
    }

    #[test]
    fn coordinator_crash_without_standby_still_flushes_the_recorder() {
        use volley_store::{RecordKind, SampleRecorder, ScanRange, Store};
        let dir = std::env::temp_dir().join(format!("volley-runner-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // err = 0: both monitors sample every tick, so the samples acked
        // before the crash tick are exactly 2 per tick 0..10.
        let spec = spec(2, 1000.0, 0.0);
        let traces = vec![vec![1.0; 40], vec![2.0; 40]];
        let recorder = SampleRecorder::new(Store::open(&dir).unwrap());
        let err = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_coordinator_crash(10))
            .with_recorder(recorder.clone())
            .run(&traces)
            .unwrap_err();
        assert!(matches!(
            err,
            VolleyError::RuntimeDisconnected {
                component: "coordinator"
            }
        ));
        assert_eq!(recorder.io_errors(), 0);
        drop(recorder);
        // A fresh handle sees only what reached disk: the error path must
        // have joined the monitors and sealed their buffered samples.
        let reopened = Store::open(&dir).unwrap();
        for monitor in 0..2u32 {
            let ticks: Vec<Tick> = reopened
                .scan(&ScanRange::all().kind(RecordKind::Sample).monitor(monitor))
                .unwrap()
                .map(|r| r.tick)
                .filter(|&t| t < 10)
                .collect();
            assert_eq!(ticks, (0..10).collect::<Vec<Tick>>(), "monitor {monitor}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn standby_fails_over_and_completes_conservatively() {
        // No WAL: the standby resets every sampler at I_d and the run
        // still finishes every tick.
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 40], vec![2.0; 40]];
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_coordinator_crash(10))
            .with_standby(true)
            .run(&traces)
            .unwrap();
        assert_eq!(report.ticks, 40, "failover must not lose ticks");
        assert_eq!(report.coordinator_failovers, 1);
        assert_eq!(report.checkpoint_restores, 0);
        assert_eq!(report.conservative_restarts, 2);
        assert_eq!(report.alerts, 0);
    }

    #[test]
    fn standby_restores_from_checkpoint() {
        let dir = std::env::temp_dir().join("volley-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("restore-{}.wal", std::process::id()));
        let spec = spec(2, 1000.0, 0.02);
        let traces = vec![vec![1.0; 60], vec![2.0; 60]];
        let report = TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(FaultPlan::new(7).with_coordinator_crash(30))
            .with_standby(true)
            .with_wal(&path, 5)
            .run(&traces)
            .unwrap();
        assert_eq!(report.ticks, 60);
        assert_eq!(report.coordinator_failovers, 1);
        assert_eq!(
            report.checkpoint_restores, 2,
            "both samplers restored from the tick-25 snapshot"
        );
        assert_eq!(report.conservative_restarts, 0);
        std::fs::remove_file(&path).ok();
    }
}
