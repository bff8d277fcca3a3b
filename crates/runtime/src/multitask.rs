//! Multi-task correlation suppression on the live runtime (§II.B).
//!
//! A [`MultiTaskRunner`] drives several distributed monitoring tasks in
//! lock-step on the calling thread — each a [`TaskRunner`] of its own,
//! all in the one drive loop — with the paper's multi-task scheme as the
//! loop's hook: a policy over task-level monitors. For a **training
//! window** it feeds every task's detected violation activity into a
//! [`CorrelationDetector`]; once the window closes it derives a
//! two-level [`MonitoringPlan`] and thereafter paces each *gated
//! follower* task at the coarse gated interval while its *leader*
//! (precondition) task's violation likelihood is low, snapping the
//! follower back to its adaptive schedule the moment the leader fires.
//!
//! Leaders are never gated — the plan keeps the leader/follower sets
//! disjoint — so the tasks whose violations *precede* others always run
//! at full fidelity.
//!
//! # Determinism
//!
//! Gate propagation is driven between steps: ahead of a follower's step
//! the hook tells its coordinator
//! ([`CoordinatorActor::with_multitask`]) where the leader stands
//! ([`CoordinatorActor::on_leader`]). On a flip the machine queues a
//! [`CoordinatorToMonitor::SetGate`] frame for every follower monitor,
//! which the session sends ahead of that tick's
//! [`CoordinatorToMonitor::Tick`] frame, so the tick at which a gate
//! engages or releases is a pure function of the traces. The machine
//! also counts flips and suppressed samples and checkpoints the gate
//! through the WAL/snapshot plane.
//!
//! ```
//! use volley_core::correlation::CorrelationConfig;
//! use volley_core::task::TaskSpec;
//! use volley_runtime::multitask::{MultiTask, MultiTaskConfig, MultiTaskRunner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = TaskSpec::builder(100.0).monitors(1).error_allowance(0.05).build()?;
//! // Leader bursts at ticks 10..20 of every 40; the follower echoes it
//! // two ticks later — a violation cascade the detector can learn.
//! let burst = |offset: u64| -> Vec<f64> {
//!     (0..400u64)
//!         .map(|t| if (10 + offset..20 + offset).contains(&(t % 40)) { 200.0 } else { 5.0 })
//!         .collect()
//! };
//! let tasks = vec![
//!     MultiTask::new(spec.clone(), vec![burst(0)]),
//!     MultiTask::new(spec, vec![burst(2)]),
//! ];
//! let config = MultiTaskConfig {
//!     correlation: CorrelationConfig { min_support: 5, min_confidence: 0.8, ..Default::default() },
//!     train_ticks: 200,
//! };
//! let outcome = MultiTaskRunner::new(config)?.run(&tasks)?;
//! assert_eq!(outcome.gates.len(), 1, "follower gated behind the leader");
//! # Ok(())
//! # }
//! ```
//!
//! [`CorrelationDetector`]: volley_core::correlation::CorrelationDetector
//! [`MonitoringPlan`]: volley_core::correlation::MonitoringPlan
//! [`CoordinatorToMonitor::SetGate`]: crate::message::CoordinatorToMonitor::SetGate
//! [`CoordinatorToMonitor::Tick`]: crate::message::CoordinatorToMonitor::Tick
//! [`CoordinatorActor::with_multitask`]: crate::coordinator::CoordinatorActor::with_multitask
//! [`CoordinatorActor::on_leader`]: crate::coordinator::CoordinatorActor::on_leader

use std::path::PathBuf;

use serde::Serialize;

use volley_core::correlation::{
    CorrelationConfig, CorrelationDetector, FollowerGate, MonitoringPlan,
};
use volley_core::task::{TaskId, TaskSpec};
use volley_core::time::Tick;
use volley_core::VolleyError;
use volley_obs::Obs;
use volley_serve::ServePublisher;
use volley_store::SampleRecorder;

use crate::message::TickSummary;
use crate::runner::{MultitaskReport, RuntimeReport, TaskRunner};
use crate::session::{self, Hook, Task, TaskSession};

/// One task submission for a multi-task run.
#[derive(Debug, Clone)]
pub struct MultiTask {
    /// The task specification.
    pub spec: TaskSpec,
    /// Per-monitor ground-truth traces (`traces[i][t]`).
    pub traces: Vec<Vec<f64>>,
}

impl MultiTask {
    /// Creates a submission.
    pub fn new(spec: TaskSpec, traces: Vec<Vec<f64>>) -> Self {
        MultiTask { spec, traces }
    }
}

/// Configuration for the multi-task scheme.
#[derive(Debug, Clone)]
pub struct MultiTaskConfig {
    /// Correlation thresholds and the gated (coarse) interval.
    pub correlation: CorrelationConfig,
    /// Ticks spent learning correlations before the plan is derived and
    /// gating starts. A window at least as long as the run disables
    /// gating entirely (pure observation).
    pub train_ticks: Tick,
}

impl Default for MultiTaskConfig {
    fn default() -> Self {
        MultiTaskConfig {
            correlation: CorrelationConfig::default(),
            train_ticks: 200,
        }
    }
}

/// One gate of the derived [`MonitoringPlan`], flattened for reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PlanGate {
    /// The gated follower task (index into the submissions).
    pub follower: u64,
    /// The leader (precondition) task pacing it.
    pub leader: u64,
    /// Necessity confidence `P(leader active within lag | follower
    /// violates)` estimated over the training window.
    pub confidence: f64,
    /// Coarse interval applied while the leader is calm (ticks).
    pub gated_interval: u32,
}

/// Aggregate result of a multi-task run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskOutcome {
    /// Per-task reports in submission order. Gated followers carry a
    /// populated [`RuntimeReport::multitask`] section.
    pub reports: Vec<RuntimeReport>,
    /// The gates of the derived plan (empty when training never closed
    /// or nothing correlated).
    pub gates: Vec<PlanGate>,
    /// Ticks driven.
    pub ticks: u64,
    /// Ticks spent training before gating could start.
    pub train_ticks: u64,
    /// Scheduled samples suppressed by gates across all tasks.
    pub suppressed_samples: u64,
    /// Gate engage/release transitions across all tasks.
    pub gate_flips: u64,
}

impl MultiTaskOutcome {
    /// Total sampling operations across all tasks.
    pub fn total_samples(&self) -> u64 {
        self.reports.iter().map(|r| r.total_samples).sum()
    }
}

/// Drives several monitoring tasks in lock-step with live §II.B
/// correlation suppression (see the [module docs](self)).
#[derive(Debug)]
pub struct MultiTaskRunner {
    config: MultiTaskConfig,
    recorder: Option<SampleRecorder>,
    /// Registry snapshots into the recorder's store every this many ticks.
    snapshot_every: Option<u64>,
    obs: Obs,
    /// Checkpoint directory and snapshot cadence; each task logs to
    /// `task-{index}.wal` inside it.
    wal: Option<(PathBuf, u64)>,
    serve: Option<ServePublisher>,
}

impl MultiTaskRunner {
    /// Creates a runner.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] for an invalid
    /// [`CorrelationConfig`].
    pub fn new(config: MultiTaskConfig) -> Result<Self, VolleyError> {
        config.correlation.validate()?;
        Ok(MultiTaskRunner {
            config,
            recorder: None,
            snapshot_every: None,
            obs: Obs::disabled(),
            wal: None,
            serve: None,
        })
    }

    /// Attaches a [`SampleRecorder`]: each task records under its
    /// submission index (via [`SampleRecorder::for_task`]), producing the
    /// multi-task store that `volley analyze correlate` consumes.
    #[must_use]
    pub fn with_recorder(mut self, recorder: SampleRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Records a registry snapshot into the recorder's store every
    /// `every` ticks (minimum 1) and at run end, as
    /// [`TaskRunner::with_snapshot_every`] does — so `volley obs` reads
    /// a multi-task store too. Without a recorder it does nothing.
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = Some(every.max(1));
        self
    }

    /// Shares an observability bundle with every task's actors (the
    /// multi-task counters `volley_multitask_*` land in it).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Checkpoints every coordinator into `dir/task-{index}.wal` with a
    /// snapshot every `every` ticks, persisting each follower's gate
    /// state through the WAL/snapshot plane.
    #[must_use]
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        self.wal = Some((dir.into(), every.max(1)));
        self
    }

    /// Attaches a live serving-plane publisher: every task's alerts go
    /// out on its stream, each tagged with the task's submission index,
    /// as a [`TaskRunner`]'s do.
    #[must_use]
    pub fn with_serve_publisher(mut self, publisher: ServePublisher) -> Self {
        self.serve = Some(publisher);
        self
    }

    /// Runs all submissions in lock-step and returns per-task reports
    /// plus the derived gating plan.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::EmptyTask`] for a spec without monitors,
    /// [`VolleyError::ValueCountMismatch`] when a submission's trace
    /// count differs from its monitor count,
    /// [`VolleyError::NonFiniteValue`] for a `NaN` or infinite trace
    /// value, and [`VolleyError::RuntimeDisconnected`] if a coordinator
    /// dies mid-run (no task arms a standby).
    pub fn run(&self, tasks: &[MultiTask]) -> Result<MultiTaskOutcome, VolleyError> {
        let mut runners = Vec::with_capacity(tasks.len());
        for (index, task) in tasks.iter().enumerate() {
            // Each task records under, and logs to, its own index.
            let mut runner = TaskRunner::new(&task.spec)?.with_obs(self.obs.clone());
            runner.gated_interval = Some(self.config.correlation.gated_interval.get());
            if let Some(recorder) = &self.recorder {
                runner = runner.with_recorder(recorder.for_task(index as u32));
            }
            // The run-level sinks are the first task's.
            if let Some(every) = self.snapshot_every.filter(|_| index == 0) {
                runner = runner.with_snapshot_every(every);
            }
            if let Some((dir, every)) = &self.wal {
                runner = runner.with_wal(dir.join(format!("task-{index}.wal")), *every);
            }
            if let Some(serve) = &self.serve {
                runner = runner.with_serve_publisher(serve.clone());
            }
            runners.push(runner);
        }
        let driven = runners
            .iter()
            .zip(tasks)
            .map(|(runner, task)| Task::new(runner, &task.traces, None))
            .collect();
        let n = tasks.len();
        let mut policy = CorrelationGate {
            config: &self.config,
            detector: CorrelationDetector::new(
                self.config.correlation,
                (0..n as u64).map(TaskId).collect(),
            ),
            plan: None,
            ticks: 0,
            gates: vec![None; n],
            active_now: vec![false; n],
            sections: vec![MultitaskReport::default(); n],
        };
        let mut reports = session::drive(driven, Some(&mut policy))?;

        let plan = policy.plan.iter().flat_map(MonitoringPlan::iter);
        let mut gates: Vec<PlanGate> = plan
            .map(|(follower, gate)| PlanGate {
                follower: follower.0,
                leader: gate.leader.0,
                confidence: gate.confidence,
                gated_interval: gate.gated_interval.get(),
            })
            .collect();
        gates.sort_by_key(|g| g.follower);
        for gate in &gates {
            let follower = gate.follower as usize;
            let section = MultitaskReport {
                leader: gate.leader,
                gate_flips: policy.gates[follower].map_or(0, |(_, g)| g.flips()),
                ..policy.sections[follower]
            };
            reports[gate.follower as usize].multitask = Some(section);
        }
        let sections = reports.iter().filter_map(|report| report.multitask);
        Ok(MultiTaskOutcome {
            ticks: reports.first().map_or(0, |report| report.ticks),
            suppressed_samples: sections.clone().map(|s| s.suppressed_samples).sum(),
            gate_flips: sections.map(|s| s.gate_flips).sum(),
            reports,
            gates,
            train_ticks: self.config.train_ticks,
        })
    }
}

/// The §II.B policy as the drive loop's hook: learns correlations over
/// the training window, then gates each follower ahead of its step and
/// steps it after the ungated tasks, so its gate decision at tick `t`
/// sees its leader's activity *including* tick `t`.
struct CorrelationGate<'c> {
    config: &'c MultiTaskConfig,
    detector: CorrelationDetector,
    plan: Option<MonitoringPlan>,
    ticks: u64,
    /// Each gated follower's leader index and gate, by task index.
    gates: Vec<Option<(usize, FollowerGate)>>,
    /// Whether each task's violation was detected (locally reported or
    /// alerted) this tick: the §II.B precondition signal.
    active_now: Vec<bool>,
    sections: Vec<MultitaskReport>,
}

impl Hook for CorrelationGate<'_> {
    fn start(&mut self, ticks: u64, _: &mut [TaskSession<'_>]) -> Result<(), VolleyError> {
        self.ticks = ticks;
        Ok(())
    }

    /// Drives a follower's gate ahead of its tick frame.
    fn before_step(&mut self, tick: Tick, task: usize, session: &mut TaskSession<'_>) {
        let Some((leader, gate)) = self.gates[task].as_mut() else {
            return;
        };
        if gate.advance(tick, self.active_now[*leader]) {
            session.on_leader(tick, gate.interval().is_none());
        }
        if gate.interval().is_some() {
            self.sections[task].gated_ticks += 1;
        }
    }

    fn after_step(&mut self, _: Tick, task: usize, summary: &TickSummary, _: &mut TaskSession<'_>) {
        self.active_now[task] = summary.local_violations > 0 || summary.alerted;
        self.sections[task].suppressed_samples += u64::from(summary.suppressed_samples);
    }

    /// Feeds the detector each task's detected activity over the
    /// training window only. Derives the plan only when gating still has
    /// ticks to act on; a training window at least as long as the run
    /// stays pure observation and reports no gates.
    fn after_tick(&mut self, tick: Tick, order: &mut [usize]) {
        if tick >= self.config.train_ticks {
            return;
        }
        self.detector.observe(tick, &self.active_now);
        if tick + 1 == self.config.train_ticks && tick + 1 < self.ticks {
            let derived = self.detector.plan();
            order.sort_by_key(|&i| derived.gate(TaskId(i as u64)).is_some());
            let lag = self.config.correlation.lag_window;
            for (follower, gate) in derived.iter() {
                let leader = gate.leader.0 as usize;
                let mut follower_gate = FollowerGate::new(gate, lag);
                if let Some(at) = self.detector.last_active(gate.leader) {
                    follower_gate.advance(at, true);
                }
                self.gates[follower.0 as usize] = Some((leader, follower_gate));
            }
            self.plan = Some(derived);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Replay, Wal};

    fn spec(threshold: f64) -> TaskSpec {
        TaskSpec::builder(threshold)
            .monitors(1)
            .error_allowance(0.05)
            .max_interval(4)
            .patience(2)
            .warmup_samples(2)
            .build()
            .unwrap()
    }

    /// A value trace violating (200 > 100) on `offset..offset+8` of every
    /// 40-tick period, calm (5) otherwise.
    fn burst_trace(ticks: u64, offset: u64) -> Vec<f64> {
        (0..ticks)
            .map(|t| {
                if (offset..offset + 8).contains(&(t % 40)) {
                    200.0
                } else {
                    5.0
                }
            })
            .collect()
    }

    fn cascade(ticks: u64) -> Vec<MultiTask> {
        vec![
            // Leader: bursts open each period.
            MultiTask::new(spec(100.0), vec![burst_trace(ticks, 10)]),
            // Follower: echoes the leader two ticks later.
            MultiTask::new(spec(100.0), vec![burst_trace(ticks, 12)]),
            // Bystander: never violates, correlates with nothing.
            MultiTask::new(spec(100.0), vec![vec![5.0; ticks as usize]]),
        ]
    }

    fn config() -> MultiTaskConfig {
        MultiTaskConfig {
            correlation: CorrelationConfig {
                min_confidence: 0.8,
                min_support: 5,
                ..Default::default()
            },
            train_ticks: 200,
        }
    }

    #[test]
    fn follower_is_gated_behind_its_leader_and_saves_samples() {
        let outcome = MultiTaskRunner::new(config())
            .unwrap()
            .run(&cascade(600))
            .unwrap();
        assert_eq!(outcome.ticks, 600);
        assert_eq!(
            outcome.gates.len(),
            1,
            "exactly the cascade pair gates: {:?}",
            outcome.gates
        );
        assert_eq!(outcome.gates[0].follower, 1);
        assert_eq!(outcome.gates[0].leader, 0);
        assert!(outcome.gates[0].confidence >= 0.8);
        // The leader runs ungated at full fidelity.
        assert!(outcome.reports[0].multitask.is_none());
        assert!(outcome.reports[0].alerts > 0);
        // The follower is paced while the leader is calm…
        let section = outcome.reports[1].multitask.expect("follower gated");
        assert_eq!(section.leader, 0);
        assert!(section.suppressed_samples > 0, "gate suppressed samples");
        assert!(section.gated_ticks > 0);
        assert!(section.gate_flips >= 2, "engages and releases every burst");
        // …yet still detects its post-training bursts: snap-back works.
        let post_train_alerts = outcome.reports[1]
            .alert_ticks
            .iter()
            .filter(|&&t| t >= 200)
            .count();
        assert!(post_train_alerts > 0, "gated follower still alerts");
        // Savings against the identical run with gating disabled.
        let mut ungated_config = config();
        ungated_config.train_ticks = 600;
        let ungated = MultiTaskRunner::new(ungated_config)
            .unwrap()
            .run(&cascade(600))
            .unwrap();
        assert!(ungated.gates.is_empty());
        assert!(
            outcome.reports[1].total_samples < ungated.reports[1].total_samples,
            "gating saves follower samples ({} vs {})",
            outcome.reports[1].total_samples,
            ungated.reports[1].total_samples,
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let runner = MultiTaskRunner::new(config()).unwrap();
        let first = runner.run(&cascade(400)).unwrap();
        let second = runner.run(&cascade(400)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn gate_state_checkpoints_through_the_wal_plane() {
        let dir = std::env::temp_dir().join(format!("volley-multitask-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = MultiTaskRunner::new(config())
            .unwrap()
            .with_wal_dir(&dir, 1)
            .run(&cascade(400))
            .unwrap();
        let section = outcome.reports[1].multitask.expect("follower gated");
        let replay: Replay = Wal::replay(dir.join("task-1.wal")).unwrap();
        let snap = replay.snapshot.expect("snapshot persisted");
        let persisted = snap.multitask.expect("gate state checkpointed");
        assert_eq!(persisted.flips, section.gate_flips);
        // The final tick's suppression lands after that tick's snapshot,
        // so the persisted counter may trail by at most one monitor-tick.
        assert!(persisted.suppressed <= section.suppressed_samples);
        assert!(persisted.suppressed + 1 >= section.suppressed_samples);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_traces_are_rejected() {
        let bad = vec![MultiTask::new(spec(100.0), vec![])];
        let err = MultiTaskRunner::new(config())
            .unwrap()
            .run(&bad)
            .unwrap_err();
        assert!(matches!(err, VolleyError::ValueCountMismatch { .. }));
    }

    #[test]
    fn empty_submission_list_is_trivial() {
        let outcome = MultiTaskRunner::new(config()).unwrap().run(&[]).unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.ticks, 0);
    }
}
