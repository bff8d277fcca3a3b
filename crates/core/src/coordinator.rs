//! The distributed task: monitors, coordinator, local violations and
//! global polls (§II-A, §IV).
//!
//! Execution model (matching the paper's prototype of §V-A): each monitor
//! owns an [`AdaptiveSampler`] over its local variable `v_i` with local
//! threshold `T_i`; when a sampled value exceeds `T_i` the monitor reports
//! a **local violation** to the coordinator, which performs a **global
//! poll** — collecting the current values from *all* monitors — and raises
//! a state alert if `Σ v_i > T`. Periodically (every `update_period_ticks`)
//! the coordinator collects the monitors' period reports and reallocates
//! the task-level error allowance using an [`ErrorAllocator`].
//!
//! [`DistributedTask`] is deliberately *step-driven*: the embedding layer
//! (the simulator, a backtest, or a test) advances the tick axis and
//! supplies the ground-truth current values; the task decides which
//! monitors actually *sample* (i.e. pay cost and see the value) at that
//! tick. This makes cost and accuracy accounting exact.
//!
//! The coordinator's three rules — the aggregate comparison, the
//! updating-period cadence and the allocator round — are
//! [`Coordinator`]'s and are spelled nowhere else: `DistributedTask::step`
//! is a direct synchronous loop over its samplers that calls them, and
//! the message-passing runtime's coordinator (`volley-runtime`) wraps
//! the same type in its protocol. `step` is the reference every parity
//! test and the benchmark's live oracle compare that runtime against.

use serde::{Deserialize, Serialize};

use crate::adaptation::{AdaptiveSampler, PeriodReport};
use crate::allocation::{AllocationConfig, ErrorAllocator};
use crate::error::VolleyError;
use crate::task::TaskSpec;
use crate::time::Tick;

/// How the coordinator distributes the error allowance over monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CoordinationScheme {
    /// Iterative yield-based reallocation (the paper's `adapt` scheme).
    #[default]
    Adaptive,
    /// Static even division (the paper's `even` baseline in Figure 8).
    Even,
}

/// Outcome of a global poll.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalPollOutcome {
    /// Tick at which the poll ran.
    pub tick: Tick,
    /// The aggregate `Σ v_i` observed by the poll.
    pub aggregate: f64,
    /// Whether the aggregate exceeded the global threshold (a state alert).
    pub global_violation: bool,
    /// Whether a monitor without a value was counted at its local
    /// threshold `T_i`. Never set by [`DistributedTask::step`], whose
    /// monitors always answer.
    pub degraded: bool,
}

/// Outcome of advancing a [`DistributedTask`] by one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskStepOutcome {
    /// Number of regular (scheduled) sampling operations performed.
    pub scheduled_samples: u32,
    /// Number of extra sampling operations forced by a global poll.
    pub poll_samples: u32,
    /// Indices of monitors that reported a local violation this tick.
    pub local_violations: Vec<usize>,
    /// The global poll, if one was triggered.
    pub poll: Option<GlobalPollOutcome>,
    /// Whether an allowance reallocation round ran this tick.
    pub reallocated: bool,
}

impl TaskStepOutcome {
    /// Total sampling operations (scheduled + forced) this tick.
    pub fn total_samples(&self) -> u32 {
        self.scheduled_samples + self.poll_samples
    }

    /// Whether this tick raised a state alert.
    pub fn alerted(&self) -> bool {
        self.poll.map(|p| p.global_violation).unwrap_or(false)
    }
}

/// Per-monitor state held by the task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MonitorState {
    sampler: AdaptiveSampler,
    next_sample_tick: Tick,
}

/// The coordinator's rules (§IV), each spelled here and nowhere else:
/// a global poll compares `Σ v_i` with `T` ([`poll`](Self::poll)), an
/// updating period elapses ([`reallocation_due`](Self::reallocation_due))
/// and allowance moves by yield ([`reallocate`](Self::reallocate)).
///
/// It holds no monitor, channel or clock. [`DistributedTask::step`] calls
/// it over its own samplers; the live runtime's coordinator calls it
/// over whatever its monitors answered in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coordinator {
    /// Total global polls performed.
    pub global_polls: u64,
    /// Total state alerts raised.
    pub alerts: u64,
    /// Total local violation reports received.
    pub local_violation_reports: u64,
    /// Allowance reallocation rounds run.
    pub allocation_rounds: u64,
    global_threshold: f64,
    local_thresholds: Vec<f64>,
    allocator: ErrorAllocator,
    scheme: CoordinationScheme,
    slack_ratio: f64,
    next_update_tick: Tick,
}

impl Coordinator {
    /// The coordinator of `spec`'s task: the allowance split evenly, the
    /// first reallocation one updating period after tick 0.
    ///
    /// # Errors
    ///
    /// [`VolleyError::EmptyTask`] for a spec without monitors, otherwise
    /// what [`ErrorAllocator::new`] rejects.
    pub fn new(
        spec: &TaskSpec,
        scheme: CoordinationScheme,
        allocation: AllocationConfig,
    ) -> Result<Self, VolleyError> {
        if spec.monitors().is_empty() {
            return Err(VolleyError::EmptyTask);
        }
        let adaptation = spec.adaptation();
        let allocator = ErrorAllocator::new(
            allocation,
            adaptation.error_allowance(),
            spec.monitors().len(),
        )?;
        Ok(Coordinator {
            global_polls: 0,
            alerts: 0,
            local_violation_reports: 0,
            allocation_rounds: 0,
            global_threshold: spec.global_threshold(),
            local_thresholds: spec.monitors().iter().map(|m| m.local_threshold).collect(),
            allocator,
            scheme,
            slack_ratio: adaptation.slack_ratio(),
            next_update_tick: allocation.update_period_ticks,
        })
    }

    /// The global violation threshold `T`.
    pub fn global_threshold(&self) -> f64 {
        self.global_threshold
    }

    /// The coordination scheme in effect.
    pub fn scheme(&self) -> CoordinationScheme {
        self.scheme
    }

    /// Number of monitors in the task.
    pub fn monitors(&self) -> usize {
        self.local_thresholds.len()
    }

    /// The allowance each monitor is assigned (`Σ ≤ err`).
    pub fn allowances(&self) -> &[f64] {
        self.allocator.allowances()
    }

    /// The tick at (or after) which the next reallocation is due.
    pub fn next_update_tick(&self) -> Tick {
        self.next_update_tick
    }

    /// Evaluates a global poll at `tick` over `values`, one per monitor
    /// in monitor order. A monitor without a value is counted at its
    /// local threshold `T_i` — the largest value it could hold without
    /// having reported a local violation — and marks the outcome
    /// degraded: since `Σ T_i ≤ T` the substitution can raise a false
    /// alert but never hides one another monitor's excess would cause.
    pub fn poll(
        &mut self,
        tick: Tick,
        values: impl IntoIterator<Item = Option<f64>>,
    ) -> GlobalPollOutcome {
        let mut degraded = false;
        let mut aggregate = 0.0;
        for (value, &local_threshold) in values.into_iter().zip(&self.local_thresholds) {
            aggregate += value.unwrap_or_else(|| {
                degraded = true;
                local_threshold
            });
        }
        let global_violation = aggregate > self.global_threshold;
        self.global_polls += 1;
        self.alerts += u64::from(global_violation);
        GlobalPollOutcome {
            tick,
            aggregate,
            global_violation,
            degraded,
        }
    }

    /// Whether an updating period ends at `tick`; if so the next one is
    /// scheduled. `true` asks the caller to gather one period report per
    /// monitor for [`reallocate`](Self::reallocate) — never under the
    /// [`Even`](CoordinationScheme::Even) scheme or for a single
    /// monitor, which have nothing to move.
    pub fn reallocation_due(&mut self, tick: Tick) -> bool {
        if tick < self.next_update_tick {
            return false;
        }
        self.defer_reallocation(tick);
        self.scheme == CoordinationScheme::Adaptive && self.monitors() > 1
    }

    /// Schedules the next reallocation one updating period after `tick`
    /// (a coordinator taking over at `tick` with no checkpoint to
    /// [`restore`](Self::restore)).
    pub fn defer_reallocation(&mut self, tick: Tick) {
        self.next_update_tick = tick + self.allocator.config().update_period_ticks;
    }

    /// One §IV-B updating round over the monitors' period `reports` (one
    /// per monitor, in monitor order). Returns the new assignment when
    /// it changed, for the caller to push to its monitors; `None` when
    /// the round was throttled, already at its fixed point, or handed
    /// the wrong number of reports.
    pub fn reallocate(&mut self, reports: &[PeriodReport]) -> Option<&[f64]> {
        let decision = self.allocator.update(reports, self.slack_ratio).ok()?;
        self.allocation_rounds += 1;
        decision.reallocated.then(|| self.allocator.allowances())
    }

    /// Resumes a checkpointed coordinator's reallocation state: its
    /// schedule and the allowance split its monitors still hold. Returns
    /// `false`, keeping the schedule but falling back to the even split,
    /// when `allowances` cannot be such a split (see
    /// [`ErrorAllocator::restore`]).
    pub fn restore(&mut self, allowances: &[f64], next_update_tick: Tick) -> bool {
        self.next_update_tick = next_update_tick;
        self.allocator.restore(allowances)
    }
}

/// A fully-assembled distributed state monitoring task.
///
/// ```
/// use volley_core::task::TaskSpec;
/// use volley_core::DistributedTask;
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let spec = TaskSpec::builder(100.0).monitors(2).error_allowance(0.02).build()?;
/// let mut task = DistributedTask::new(&spec)?;
///
/// // Advance the tick axis, supplying ground-truth values per monitor.
/// for tick in 0..100u64 {
///     let values = [20.0, 25.0]; // quiet: 45 < 100, no local violations
///     let outcome = task.step(tick, &values)?;
///     assert!(!outcome.alerted());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedTask {
    monitors: Vec<MonitorState>,
    coordinator: Coordinator,
    total_scheduled_samples: u64,
    total_poll_samples: u64,
    ticks_seen: u64,
}

impl DistributedTask {
    /// Assembles the task from its specification with the default
    /// (adaptive) coordination scheme and allocation configuration.
    ///
    /// # Errors
    ///
    /// Propagates specification/configuration validation errors.
    pub fn new(spec: &TaskSpec) -> Result<Self, VolleyError> {
        Self::with_scheme(
            spec,
            CoordinationScheme::Adaptive,
            AllocationConfig::default(),
        )
    }

    /// Assembles the task with an explicit coordination scheme and
    /// allocation configuration.
    ///
    /// # Errors
    ///
    /// Propagates specification/configuration validation errors.
    pub fn with_scheme(
        spec: &TaskSpec,
        scheme: CoordinationScheme,
        allocation: AllocationConfig,
    ) -> Result<Self, VolleyError> {
        let coordinator = Coordinator::new(spec, scheme, allocation)?;
        let monitors = spec
            .monitors()
            .iter()
            .zip(coordinator.allowances())
            .map(|(m, &err)| {
                let mut sampler = AdaptiveSampler::new(*spec.adaptation(), m.local_threshold);
                sampler.set_error_allowance(err);
                MonitorState {
                    sampler,
                    next_sample_tick: 0,
                }
            })
            .collect();
        Ok(DistributedTask {
            monitors,
            coordinator,
            total_scheduled_samples: 0,
            total_poll_samples: 0,
            ticks_seen: 0,
        })
    }

    /// The global violation threshold `T`.
    pub fn global_threshold(&self) -> f64 {
        self.coordinator.global_threshold()
    }

    /// Number of monitors in the task.
    pub fn monitor_count(&self) -> usize {
        self.monitors.len()
    }

    /// The coordination scheme in effect.
    pub fn scheme(&self) -> CoordinationScheme {
        self.coordinator.scheme()
    }

    /// The coordinator: its rules' state and aggregate statistics.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Total sampling operations performed so far (scheduled + forced).
    pub fn total_samples(&self) -> u64 {
        self.total_scheduled_samples + self.total_poll_samples
    }

    /// Total sampling operations a periodic baseline at the default
    /// interval would have performed over the same ticks.
    pub fn periodic_baseline_samples(&self) -> u64 {
        self.ticks_seen * self.monitors.len() as u64
    }

    /// Sampling-cost ratio versus the periodic baseline (`≤ 1`; lower is
    /// better). Returns 1.0 before any tick has been processed.
    pub fn cost_ratio(&self) -> f64 {
        let baseline = self.periodic_baseline_samples();
        if baseline == 0 {
            1.0
        } else {
            self.total_samples() as f64 / baseline as f64
        }
    }

    /// Replaces monitor `index`'s local threshold (used by experiments that
    /// skew local violation rates, Figure 8).
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::UnknownMonitor`] for an out-of-range index.
    pub fn set_local_threshold(&mut self, index: usize, threshold: f64) -> Result<(), VolleyError> {
        let len = self.monitors.len();
        let m = self
            .monitors
            .get_mut(index)
            .ok_or(VolleyError::UnknownMonitor { index, len })?;
        m.sampler.set_threshold(threshold);
        Ok(())
    }

    /// Advances the task by one tick.
    ///
    /// `values[i]` is the ground-truth current value of monitor `i`'s
    /// variable at `tick`; a monitor only *sees* it (and pays sampling
    /// cost) when its schedule or a global poll says so.
    ///
    /// Ticks must be supplied in non-decreasing order starting from 0; the
    /// task assumes one call per tick for exact baseline accounting.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::ValueCountMismatch`] when `values.len()`
    /// differs from the monitor count.
    pub fn step(&mut self, tick: Tick, values: &[f64]) -> Result<TaskStepOutcome, VolleyError> {
        if values.len() != self.monitors.len() {
            return Err(VolleyError::ValueCountMismatch {
                got: values.len(),
                expected: self.monitors.len(),
            });
        }
        self.ticks_seen += 1;
        let mut outcome = TaskStepOutcome {
            scheduled_samples: 0,
            poll_samples: 0,
            local_violations: Vec::new(),
            poll: None,
            reallocated: false,
        };

        // Phase 1: scheduled local sampling.
        let mut sampled = vec![false; self.monitors.len()];
        for (i, m) in self.monitors.iter_mut().enumerate() {
            if tick >= m.next_sample_tick {
                let obs = m.sampler.observe(tick, values[i]);
                m.next_sample_tick = obs.next_sample_tick;
                sampled[i] = true;
                outcome.scheduled_samples += 1;
                if obs.violation {
                    outcome.local_violations.push(i);
                    self.coordinator.local_violation_reports += 1;
                }
            }
        }
        self.total_scheduled_samples += u64::from(outcome.scheduled_samples);

        // Phase 2: global poll on any local violation. The coordinator
        // collects current values from every monitor; monitors that have
        // not sampled this tick are forced to sample now (extra cost).
        if !outcome.local_violations.is_empty() {
            for (i, m) in self.monitors.iter_mut().enumerate() {
                if !sampled[i] {
                    m.sampler.observe_forced(tick, values[i]);
                    outcome.poll_samples += 1;
                }
            }
            self.total_poll_samples += u64::from(outcome.poll_samples);
            let answers = values.iter().copied().map(Some);
            outcome.poll = Some(self.coordinator.poll(tick, answers));
        }

        // Phase 3: periodic allowance reallocation (adaptive scheme only).
        if self.coordinator.reallocation_due(tick) {
            let reports: Vec<_> = self
                .monitors
                .iter_mut()
                .map(|m| m.sampler.drain_period_report())
                .collect();
            if let Some(allowances) = self.coordinator.reallocate(&reports) {
                for (m, &err) in self.monitors.iter_mut().zip(allowances) {
                    m.sampler.set_error_allowance(err);
                }
                outcome.reallocated = true;
            }
        }

        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn spec(monitors: usize, global_threshold: f64, err: f64) -> TaskSpec {
        TaskSpec::builder(global_threshold)
            .monitors(monitors)
            .error_allowance(err)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    #[test]
    fn quiet_task_never_alerts_and_saves_cost() {
        let mut task = DistributedTask::new(&spec(4, 1000.0, 0.05)).unwrap();
        for tick in 0..2000u64 {
            let outcome = task.step(tick, &[10.0, 20.0, 15.0, 5.0]).unwrap();
            assert!(!outcome.alerted());
        }
        assert_eq!(task.coordinator().alerts, 0);
        assert!(
            task.cost_ratio() < 0.7,
            "cost ratio {} should show savings",
            task.cost_ratio()
        );
    }

    #[test]
    fn local_violation_triggers_global_poll() {
        let mut task = DistributedTask::new(&spec(2, 100.0, 0.01)).unwrap();
        // Local thresholds are 50 each. Monitor 0 exceeds local but the
        // aggregate stays under the global threshold.
        let outcome = task.step(0, &[60.0, 10.0]).unwrap();
        assert_eq!(outcome.local_violations, vec![0]);
        let poll = outcome.poll.expect("local violation must trigger a poll");
        assert_eq!(poll.aggregate, 70.0);
        assert!(!poll.global_violation);
        assert_eq!(task.coordinator().global_polls, 1);
        assert_eq!(task.coordinator().alerts, 0);
    }

    #[test]
    fn global_violation_raises_alert() {
        let mut task = DistributedTask::new(&spec(2, 100.0, 0.01)).unwrap();
        let outcome = task.step(0, &[60.0, 55.0]).unwrap();
        assert!(outcome.alerted());
        assert_eq!(task.coordinator().alerts, 1);
    }

    #[test]
    fn no_local_violation_means_no_poll_even_when_sum_exceeds() {
        // This is the fundamental property of local-task decomposition:
        // as long as every v_i <= T_i, Σ v_i <= T, so *missing* a global
        // violation without local violations is impossible. Values at
        // exactly the local thresholds must not poll.
        let mut task = DistributedTask::new(&spec(2, 100.0, 0.01)).unwrap();
        let outcome = task.step(0, &[50.0, 50.0]).unwrap();
        assert!(outcome.poll.is_none());
    }

    #[test]
    fn poll_forces_samples_on_other_monitors() {
        let mut task = DistributedTask::new(&spec(3, 90.0, 0.05)).unwrap();
        // Let the samplers grow so monitors are not all sampling each tick.
        for tick in 0..500u64 {
            task.step(tick, &[1.0, 1.0, 1.0]).unwrap();
        }
        let samples_before = task.total_samples();
        // Now monitor 0 violates its local threshold (30).
        let mut tick = 500u64;
        let outcome = loop {
            let o = task.step(tick, &[40.0, 1.0, 1.0]).unwrap();
            if !o.local_violations.is_empty() {
                break o;
            }
            tick += 1;
        };
        assert!(outcome.poll.is_some());
        // All three monitors observed this tick's values (scheduled or
        // forced).
        assert_eq!(outcome.scheduled_samples + outcome.poll_samples, 3);
        assert!(task.total_samples() > samples_before);
    }

    #[test]
    fn value_count_mismatch_rejected() {
        let mut task = DistributedTask::new(&spec(2, 100.0, 0.01)).unwrap();
        assert!(task.step(0, &[1.0]).is_err());
        assert!(task.step(0, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn even_scheme_never_reallocates() {
        let spec = spec(3, 1000.0, 0.03);
        let mut task = DistributedTask::with_scheme(
            &spec,
            CoordinationScheme::Even,
            AllocationConfig {
                update_period_ticks: 50,
                ..AllocationConfig::default()
            },
        )
        .unwrap();
        for tick in 0..500u64 {
            let o = task.step(tick, &[10.0, 200.0, 10.0]).unwrap();
            assert!(!o.reallocated);
        }
        for i in 0..3 {
            assert!((task.coordinator().allowances()[i] - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn adaptive_scheme_shifts_allowance_to_quiet_monitors() {
        // A large I_m keeps the quiet monitor below its cap so its yield
        // stays positive and the iterative scheme keeps feeding it.
        let spec = TaskSpec::builder(1000.0)
            .monitors(2)
            .error_allowance(0.02)
            .max_interval(64)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut task = DistributedTask::with_scheme(
            &spec,
            CoordinationScheme::Adaptive,
            AllocationConfig {
                update_period_ticks: 100,
                ..AllocationConfig::default()
            },
        )
        .unwrap();
        // Monitor 0 quiet with mild noise (so its sustain need is
        // non-zero); monitor 1 noisy, hugging its local threshold (500) —
        // expensive to grow.
        let mut reallocated = false;
        for tick in 0..3000u64 {
            let quiet = 10.0 + ((tick * 31) % 5) as f64;
            let noisy = 480.0 + ((tick * 7919) % 35) as f64; // 480..515
            let o = task.step(tick, &[quiet, noisy]).unwrap();
            reallocated |= o.reallocated;
        }
        assert!(reallocated, "adaptive scheme should have reallocated");
        let (quiet, busy) = (
            task.coordinator().allowances()[0],
            task.coordinator().allowances()[1],
        );
        assert!(
            quiet > busy,
            "quiet monitor should hold more allowance (quiet={quiet}, busy={busy})"
        );
    }

    #[test]
    fn single_monitor_task_works() {
        let mut task = DistributedTask::new(&spec(1, 50.0, 0.02)).unwrap();
        let mut alerts = 0;
        for tick in 0..100u64 {
            let v = if tick == 57 { 60.0 } else { 10.0 };
            if task.step(tick, &[v]).unwrap().alerted() {
                alerts += 1;
            }
        }
        // tick 57 may fall between samples; at most one alert.
        assert!(alerts <= 1);
        assert_eq!(task.monitor_count(), 1);
    }

    #[test]
    fn cost_ratio_is_one_for_periodic_behaviour() {
        // err = 0 ⇒ every monitor samples every tick ⇒ ratio 1.
        let spec = TaskSpec::builder(100.0)
            .monitors(2)
            .error_allowance(0.0)
            .build()
            .unwrap();
        let mut task = DistributedTask::new(&spec).unwrap();
        for tick in 0..100u64 {
            task.step(tick, &[1.0, 1.0]).unwrap();
        }
        assert!((task.cost_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_poll_counts_a_silent_monitor_at_its_local_threshold() {
        let spec = spec(2, 100.0, 0.01); // T_i = 50
        let mut rules = Coordinator::new(
            &spec,
            CoordinationScheme::Adaptive,
            AllocationConfig::default(),
        )
        .unwrap();
        let complete = rules.poll(7, [Some(60.0), Some(30.0)]);
        assert_eq!((complete.tick, complete.aggregate), (7, 90.0));
        assert!(!complete.global_violation && !complete.degraded);
        // 60 + T_1 = 110 > 100: the substitution errs toward alerting.
        let degraded = rules.poll(8, [Some(60.0), None]);
        assert_eq!(degraded.aggregate, 110.0);
        assert!(degraded.global_violation && degraded.degraded);
        // Σ T_i = T is not a violation: silence alone never alerts.
        let silent = rules.poll(9, [None, None]);
        assert!(!silent.global_violation && silent.degraded);
        assert_eq!((rules.global_polls, rules.alerts), (3, 1));
    }

    #[test]
    fn the_cadence_advances_under_every_scheme_but_only_adaptive_reallocates() {
        let allocation = AllocationConfig {
            update_period_ticks: 50,
            ..AllocationConfig::default()
        };
        for (monitors, scheme, reallocates) in [
            (3, CoordinationScheme::Adaptive, true),
            (3, CoordinationScheme::Even, false),
            (1, CoordinationScheme::Adaptive, false),
        ] {
            let spec = spec(monitors, 100.0, 0.03);
            let mut rules = Coordinator::new(&spec, scheme, allocation).unwrap();
            assert!(!rules.reallocation_due(49));
            assert_eq!(rules.reallocation_due(50), reallocates);
            assert_eq!(rules.next_update_tick(), 100);
            assert!(!rules.reallocation_due(99));
            rules.defer_reallocation(120);
            assert_eq!(rules.next_update_tick(), 170);
        }
    }

    #[test]
    fn restore_adopts_a_valid_split_and_refuses_anything_else() {
        let spec = spec(2, 100.0, 0.02);
        let fresh = || {
            Coordinator::new(
                &spec,
                CoordinationScheme::Adaptive,
                AllocationConfig::default(),
            )
            .unwrap()
        };
        let mut rules = fresh();
        assert!(rules.restore(&[0.015, 0.005], 4000));
        assert_eq!(rules.allowances(), [0.015, 0.005]);
        assert_eq!(rules.next_update_tick(), 4000);
        // Off disk, anything can come back: a wrong length, a negative
        // or non-finite entry, a split that overspends `err`.
        for bad in [
            &[0.02][..],
            &[0.01, 0.005, 0.005],
            &[0.03, -0.01],
            &[f64::NAN, 0.01],
            &[f64::INFINITY, 0.0],
            &[0.015, 0.015],
        ] {
            let mut rules = fresh();
            rules.restore(&[0.015, 0.005], 1000);
            assert!(!rules.restore(bad, 3000), "{bad:?}");
            assert_eq!(rules.allowances(), [0.01, 0.01], "even split after {bad:?}");
            assert_eq!(rules.next_update_tick(), 3000, "the schedule is kept");
        }
    }

    /// The drift guard for the §IV task rules: the global-poll
    /// comparison, the updating-period cadence and the allocator round
    /// are each spelled once, here — the simulator, the live runtime
    /// and the store's backtest all call [`Coordinator`] for them.
    #[test]
    fn the_task_rules_are_spelled_once() {
        use std::path::{Path, PathBuf};
        let needles = [
            "> self.global_threshold",   // Σ v_i vs T
            "next_update_tick = tick +", // the cadence advance
            "allocator.update(",         // the §IV-B round
        ];
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut pending: Vec<PathBuf> = ["core", "runtime", "sim", "store"]
            .iter()
            .map(|krate| crates.join(krate).join("src"))
            .collect();
        let mut homes = vec![Vec::new(); needles.len()];
        while let Some(path) = pending.pop() {
            if path.is_dir() {
                let entries = std::fs::read_dir(&path).expect("readable src dir");
                pending.extend(entries.map(|entry| entry.expect("dir entry").path()));
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code: String = text[..text.find("#[cfg(test)]").unwrap_or(text.len())]
                .lines()
                .filter(|line| !line.trim_start().starts_with("//"))
                .collect();
            for (needle, homes) in needles.iter().zip(&mut homes) {
                homes.extend(code.matches(needle).map(|_| path.clone()));
            }
        }
        let here = crates.join("core/src/coordinator.rs");
        for (needle, homes) in needles.iter().zip(&homes) {
            assert_eq!(homes, std::slice::from_ref(&here), "`{needle}`");
        }
    }

    #[test]
    fn serde_round_trip_preserves_state() {
        let mut task = DistributedTask::new(&spec(2, 100.0, 0.02)).unwrap();
        for tick in 0..50u64 {
            task.step(tick, &[1.0, 2.0]).unwrap();
        }
        let json = serde_json::to_string(&task).unwrap();
        let mut restored: DistributedTask = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, task);
        // Both copies evolve identically afterwards.
        for tick in 50..80u64 {
            let a = task.step(tick, &[1.0, 2.0]).unwrap();
            let b = restored.step(tick, &[1.0, 2.0]).unwrap();
            assert_eq!(a, b);
        }
    }
}
