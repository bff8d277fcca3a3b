//! Multi-task state-correlation based monitoring (§II-B).
//!
//! The paper observes that the states of different monitoring tasks are
//! often related — e.g. growing request response time is a *necessary
//! condition* of a successful DDoS attack, so high-frequency DDoS sampling
//! is only worthwhile while response time is elevated. The full design was
//! deferred to the authors' technical report; this module implements the
//! most direct statistical realization of the interface the paper defines:
//!
//! 1. **Automatic detection** ([`CorrelationDetector`]): from synchronized
//!    per-task violation histories, estimate for every ordered pair
//!    `(leader, follower)` the *necessity confidence*
//!    `P(leader active | follower violates)` — how reliably the leader's
//!    state is elevated whenever the follower violates. A leader "active"
//!    state tolerates a configurable lag window, since correlated effects
//!    (e.g. traffic surge → response-time growth) are rarely simultaneous.
//! 2. **Plan generation** ([`MonitoringPlan`]): pick, for each task, the
//!    best sufficiently-confident leader and *gate* the follower — sample
//!    it at a coarse interval while its leader is quiet, at the default
//!    interval once the leader fires. Gating is two-level only (a leader
//!    is never itself gated), so one missed leader can suppress at most
//!    its direct followers.
//! 3. **Enforcement** ([`FollowerGate`]): the one gate rule — engage
//!    while the leader is calm over the lag window, pace due samples to
//!    `max(adaptive, gated)` while engaged — that the live runtime and
//!    the simulator both apply.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::error::VolleyError;
use crate::task::TaskId;
use crate::time::{Interval, Tick};

/// Configuration of correlation detection and plan generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationConfig {
    /// Minimum necessity confidence `P(leader active | follower violates)`
    /// required to gate a follower on a leader (default 0.95).
    pub min_confidence: f64,
    /// Minimum number of follower violations observed before a pair is
    /// trusted at all (default 20).
    pub min_support: u32,
    /// Lag tolerance in ticks: the leader counts as active at tick `t` if
    /// it was active anywhere in `[t − lag_window, t]` (default 2).
    pub lag_window: u32,
    /// Interval used for a gated follower while its leader is quiet
    /// (default 8 ticks).
    pub gated_interval: Interval,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            min_confidence: 0.95,
            min_support: 20,
            lag_window: 2,
            gated_interval: Interval::new_clamped(8),
        }
    }
}

impl CorrelationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] when `min_confidence` is not
    /// in `(0, 1]` or `min_support` is zero.
    pub fn validate(&self) -> Result<(), VolleyError> {
        if !self.min_confidence.is_finite()
            || !(0.0..=1.0).contains(&self.min_confidence)
            || self.min_confidence == 0.0
        {
            return Err(VolleyError::invalid("min_confidence", "must lie in (0, 1]"));
        }
        if self.min_support == 0 {
            return Err(VolleyError::invalid("min_support", "must be at least 1"));
        }
        Ok(())
    }
}

/// Online detector of inter-task state correlation.
///
/// Feed it one [`observe`](CorrelationDetector::observe) call per tick,
/// in ascending tick order, with the set of task states; query
/// [`necessity_confidence`](CorrelationDetector::necessity_confidence) or
/// build a [`MonitoringPlan`].
///
/// It keeps each task's active ticks, counting at query time with the
/// offline job's merge [`preceded_within`], with no per-task cap: its
/// callers' training windows bound its memory.
///
/// ```
/// use volley_core::{CorrelationConfig, CorrelationDetector};
/// use volley_core::task::TaskId;
///
/// let mut det = CorrelationDetector::new(CorrelationConfig::default(), vec![TaskId(0), TaskId(1)]);
/// for tick in 0..1000u64 {
///     let attack = tick % 100 < 5;
///     // Task 0 (response time) is always elevated when task 1 (DDoS) fires.
///     det.observe(tick, &[attack, attack]);
/// }
/// let c = det.necessity_confidence(TaskId(0), TaskId(1)).unwrap();
/// assert!(c > 0.99);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationDetector {
    config: CorrelationConfig,
    tasks: Vec<TaskId>,
    /// Ascending ticks at which each task was active (violating).
    active: Vec<Vec<Tick>>,
    ticks: u64,
}

impl CorrelationDetector {
    /// Creates a detector over the given tasks.
    pub fn new(config: CorrelationConfig, tasks: Vec<TaskId>) -> Self {
        CorrelationDetector {
            config,
            active: vec![Vec::new(); tasks.len()],
            tasks,
            ticks: 0,
        }
    }

    /// Records one synchronized observation: `active[i]` is whether task
    /// `i` is in (or near) violation at `tick`.
    ///
    /// Extra or missing columns are ignored beyond the task count.
    pub fn observe(&mut self, tick: Tick, active: &[bool]) {
        self.ticks += 1;
        for (ticks, &is_active) in self.active.iter_mut().zip(active) {
            if is_active {
                ticks.push(tick);
            }
        }
    }

    /// The last tick `task` was observed active, if any.
    pub fn last_active(&self, task: TaskId) -> Option<Tick> {
        self.active[self.index_of(task)?].last().copied()
    }

    /// Estimated `P(leader active | follower violates)`, or `None` when
    /// the pair lacks support (fewer than `min_support` follower
    /// violations), is a self-pair, or either task is unknown.
    pub fn necessity_confidence(&self, leader: TaskId, follower: TaskId) -> Option<f64> {
        self.confidence(self.index_of(leader)?, self.index_of(follower)?)
    }

    /// Column `f`'s active ticks with a column `l` tick inside the lag
    /// window, over all of `f`'s active ticks.
    fn confidence(&self, l: usize, f: usize) -> Option<f64> {
        let support = self.active[f].len() as u64;
        if l == f || support < u64::from(self.config.min_support) {
            return None;
        }
        let lag = u64::from(self.config.lag_window);
        let joint = preceded_within(&self.active[l], &self.active[f], lag);
        Some(joint as f64 / support as f64)
    }

    fn index_of(&self, task: TaskId) -> Option<usize> {
        self.tasks.iter().position(|t| *t == task)
    }

    /// Builds a monitoring plan: for every task, pick the most confident
    /// qualifying leader (if any) and gate the task on it.
    ///
    /// Guarantees:
    ///
    /// - a task chosen as anyone's leader is never itself gated
    ///   (two-level plans only — no gating chains);
    /// - a pair qualifies only with `min_support` observations and
    ///   confidence ≥ `min_confidence`;
    /// - leaders with a *higher* base violation rate than their follower
    ///   are preferred lower (gating on a noisier signal saves less), and
    ///   a leader whose base rate exceeds 0.5 never qualifies.
    pub fn plan(&self) -> MonitoringPlan {
        self.plan_with_costs(&vec![1.0; self.tasks.len()])
    }

    /// Builds a cost-aware monitoring plan: identical qualification rules
    /// to [`plan`](CorrelationDetector::plan), but gate candidates are
    /// ranked by the **expected sampling-cost saving** they unlock — the
    /// multi-task scheduling rule the paper sketches ("considering both
    /// cost factors and degree of state correlation", §II-B).
    ///
    /// `costs[i]` is the per-sampling-operation cost of task `i` (any
    /// consistent unit: CPU seconds, dollars). A gate's value is
    /// `follower_cost × (1 − 1/gated_interval) × (1 − leader_base_rate)`
    /// — what the follower saves per tick while its leader is quiet —
    /// *minus* nothing for the leader (it keeps sampling regardless).
    /// Where the confidence-ranked plan would gate a cheap task at the
    /// expense of using an expensive one as leader, the cost-aware plan
    /// flips the pair.
    ///
    /// Costs beyond the task count are ignored; missing costs default to 1.
    pub fn plan_with_costs(&self, costs: &[f64]) -> MonitoringPlan {
        let n = self.tasks.len();
        let cost = |i: usize| {
            costs
                .get(i)
                .copied()
                .filter(|c| c.is_finite() && *c > 0.0)
                .unwrap_or(1.0)
        };
        let saving_factor = 1.0 - 1.0 / f64::from(self.config.gated_interval.get());
        // Candidate gates: (follower, leader, confidence, value).
        let mut candidates: Vec<(usize, usize, f64, f64)> = Vec::new();
        for f in 0..n {
            for l in 0..n {
                let Some(conf) = self.confidence(l, f) else {
                    continue;
                };
                let leader_rate = if self.ticks == 0 {
                    1.0
                } else {
                    self.active[l].len() as f64 / self.ticks as f64
                };
                if conf >= self.config.min_confidence && leader_rate <= 0.5 {
                    let value = cost(f) * saving_factor * (1.0 - leader_rate);
                    candidates.push((f, l, conf, value));
                }
            }
        }
        // Highest expected saving first; confidence breaks ties.
        candidates.sort_by(|a, b| {
            b.3.partial_cmp(&a.3)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut gated: HashMap<TaskId, Gate> = HashMap::new();
        let mut leaders: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut followers: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (f, l, conf, _) in candidates {
            if followers.contains(&f) || followers.contains(&l) || leaders.contains(&f) {
                continue; // keep plans two-level and one leader per follower
            }
            leaders.insert(l);
            followers.insert(f);
            gated.insert(
                self.tasks[f],
                Gate {
                    leader: self.tasks[l],
                    confidence: conf,
                    gated_interval: self.config.gated_interval,
                },
            );
        }
        MonitoringPlan { gates: gated }
    }
}

/// How many of `followers`' ticks have a tick of `leaders` inside
/// `[t - lag, t]`: the §II.B joint count, the numerator of a necessity
/// confidence. Both slices are sorted ascending; one two-pointer merge,
/// O(|leaders| + |followers|).
pub fn preceded_within(leaders: &[Tick], followers: &[Tick], lag: u64) -> u64 {
    let mut joint = 0;
    let mut next = 0; // first leader tick strictly after the follower tick
    for &tick in followers {
        while next < leaders.len() && leaders[next] <= tick {
            next += 1;
        }
        if next > 0 && leaders[next - 1] >= tick.saturating_sub(lag) {
            joint += 1;
        }
    }
    joint
}

/// A single follower→leader gate within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// The leader task whose activity releases the follower.
    pub leader: TaskId,
    /// The necessity confidence that justified this gate.
    pub confidence: f64,
    /// Interval the follower uses while the leader is quiet.
    pub gated_interval: Interval,
}

/// A correlation-based monitoring plan: which tasks are gated on which
/// leaders.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MonitoringPlan {
    gates: HashMap<TaskId, Gate>,
}

impl MonitoringPlan {
    /// The gate applied to `task`, if it is gated.
    pub fn gate(&self, task: TaskId) -> Option<&Gate> {
        self.gates.get(&task)
    }

    /// Iterates over `(follower, gate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&TaskId, &Gate)> {
        self.gates.iter()
    }
}

/// One follower's §II.B gate in force: the single rule every executor of
/// a [`MonitoringPlan`] applies.
///
/// Fed its leader's activity one tick at a time, in ascending tick order
/// (skipped ticks count as calm), the gate is *engaged* at tick `t` iff
/// the leader was not active anywhere in `[t − lag_window, t]`. While
/// engaged it paces the follower: a due sample at `t` is
/// [held](FollowerGate::holds) iff `t < last_sample + gated_interval`,
/// so the effective interval is `max(adaptive, gated)`, and a release
/// snaps the follower straight back to its adaptive schedule. A fresh
/// gate starts released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerGate {
    gated_interval: u32,
    lag_window: u64,
    leader_last_active: Option<Tick>,
    engaged: bool,
    flips: u64,
}

impl FollowerGate {
    /// A released gate enforcing `gate` with a `lag_window`-tick leader
    /// lag tolerance.
    pub fn new(gate: &Gate, lag_window: u32) -> Self {
        FollowerGate {
            gated_interval: gate.gated_interval.get(),
            lag_window: u64::from(lag_window),
            leader_last_active: None,
            engaged: false,
            flips: 0,
        }
    }

    /// Feeds the leader's activity at `tick` and re-evaluates the gate
    /// there; returns whether the gate flipped (engaged or released).
    pub fn advance(&mut self, tick: Tick, leader_active: bool) -> bool {
        if leader_active {
            self.leader_last_active = Some(tick);
        }
        let engaged = self
            .leader_last_active
            .is_none_or(|at| tick.saturating_sub(at) > self.lag_window);
        let flipped = engaged != self.engaged;
        self.engaged = engaged;
        self.flips += u64::from(flipped);
        flipped
    }

    /// The pacing interval in force: the gated interval while engaged,
    /// `None` while released.
    pub fn interval(&self) -> Option<u32> {
        self.engaged.then_some(self.gated_interval)
    }

    /// Engage/release transitions so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The pacing rule: whether a gate pacing at `interval` (`None` =
    /// released) holds back a sample due at `tick`, the follower's last
    /// sample having been taken at `last_sample`. A follower that has
    /// never sampled is never held: the first sample is the reference
    /// point the pacing counts from.
    #[inline]
    pub fn holds(interval: Option<u32>, last_sample: Option<Tick>, tick: Tick) -> bool {
        match (interval, last_sample) {
            (Some(interval), Some(last)) => tick < last.saturating_add(u64::from(interval)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<TaskId> {
        (0..n).map(TaskId).collect()
    }

    /// Leader (task 0) is active in a window strictly containing every
    /// follower (task 1) violation.
    fn feed_necessary_pair(det: &mut CorrelationDetector, ticks: u64) {
        for tick in 0..ticks {
            let leader = tick % 50 < 10;
            let follower = tick % 50 >= 2 && tick % 50 < 8;
            det.observe(tick, &[leader, follower]);
        }
    }

    #[test]
    fn two_pointer_counts_lag_window_hits() {
        // 12 sees 10 (lag 2 exactly); 13 does not (10 < 11); 52 sees 50.
        assert_eq!(preceded_within(&[10, 50], &[12, 13, 52, 90], 2), 2);
        assert_eq!(preceded_within(&[10], &[12], 1), 0, "outside the window");
        assert_eq!(preceded_within(&[10], &[10], 0), 1, "same tick counts");
        assert_eq!(preceded_within(&[], &[1, 2, 3], 5), 0);
        assert_eq!(preceded_within(&[1, 2, 3], &[], 5), 0);
    }

    #[test]
    fn window_is_backward_looking_only() {
        // Leader alert *after* the follower's never counts.
        assert_eq!(preceded_within(&[13], &[12], 5), 0);
    }

    #[test]
    fn boundary_tick_is_inclusive() {
        assert_eq!(preceded_within(&[10], &[12], 2), 1, "t - lag exactly");
        assert_eq!(preceded_within(&[9], &[12], 2), 0, "one past the window");
    }

    #[test]
    fn config_validation() {
        assert!(CorrelationConfig::default().validate().is_ok());
        let bad = CorrelationConfig {
            min_confidence: 0.0,
            ..CorrelationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = CorrelationConfig {
            min_support: 0,
            ..CorrelationConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn detects_necessary_condition() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        feed_necessary_pair(&mut det, 5000);
        let conf = det.necessity_confidence(TaskId(0), TaskId(1)).unwrap();
        assert!(conf > 0.99, "confidence {conf}");
        // The reverse direction is much weaker: the leader is active on
        // ticks where the follower is not.
        let rev = det.necessity_confidence(TaskId(1), TaskId(0)).unwrap();
        assert!(rev < conf);
    }

    #[test]
    fn insufficient_support_returns_none() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        det.observe(0, &[true, true]);
        assert_eq!(det.necessity_confidence(TaskId(0), TaskId(1)), None);
    }

    #[test]
    fn unknown_task_returns_none() {
        let det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        assert_eq!(det.necessity_confidence(TaskId(9), TaskId(1)), None);
    }

    #[test]
    fn plan_gates_follower_on_leader() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        feed_necessary_pair(&mut det, 5000);
        let plan = det.plan();
        assert_eq!(plan.iter().count(), 1);
        let gate = plan.gate(TaskId(1)).expect("follower should be gated");
        assert_eq!(gate.leader, TaskId(0));
        assert!(gate.confidence > 0.99);
    }

    #[test]
    fn plan_is_two_level() {
        // 0 necessary for 1, 1 necessary for 2 — 1 must not be both a
        // leader and a follower.
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(3));
        for tick in 0..5000u64 {
            let a = tick % 50 < 12;
            let b = tick % 50 >= 2 && tick % 50 < 10;
            let c = tick % 50 >= 4 && tick % 50 < 8;
            det.observe(tick, &[a, b, c]);
        }
        let plan = det.plan();
        for (follower, gate) in plan.iter() {
            assert!(
                plan.gate(gate.leader).is_none(),
                "leader {} of {} is itself gated",
                gate.leader,
                follower
            );
        }
    }

    #[test]
    fn uncorrelated_tasks_are_not_gated() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        // Deterministic but independent-looking activity patterns.
        for tick in 0..10_000u64 {
            let a = (tick * 7919) % 97 < 5;
            let b = (tick * 6271) % 89 < 5;
            det.observe(tick, &[a, b]);
        }
        let plan = det.plan();
        assert_eq!(
            plan.iter().count(),
            0,
            "independent tasks must not gate each other"
        );
    }

    #[test]
    fn noisy_leader_never_qualifies() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        // Leader active 60% of the time: trivially "necessary" but useless.
        for tick in 0..5000u64 {
            let leader = tick % 10 < 6;
            let follower = tick % 10 < 2;
            det.observe(tick, &[leader, follower]);
        }
        assert_eq!(det.plan().iter().count(), 0);
    }

    #[test]
    fn cost_aware_plan_gates_the_expensive_task() {
        // Tasks 0 and 1 are mutually necessary (they fire together), so
        // either could lead. The cost-aware plan must gate whichever is
        // more expensive to sample.
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        for tick in 0..5000u64 {
            let both = tick % 50 < 5;
            det.observe(tick, &[both, both]);
        }
        let expensive_second = det.plan_with_costs(&[1.0, 100.0]);
        assert!(
            expensive_second.gate(TaskId(1)).is_some(),
            "task 1 (costly) should be gated"
        );
        let expensive_first = det.plan_with_costs(&[100.0, 1.0]);
        assert!(
            expensive_first.gate(TaskId(0)).is_some(),
            "task 0 (costly) should be gated"
        );
    }

    #[test]
    fn cost_aware_plan_defaults_match_plain_plan() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        feed_necessary_pair(&mut det, 5000);
        assert_eq!(det.plan(), det.plan_with_costs(&[1.0, 1.0]));
    }

    #[test]
    fn cost_aware_plan_tolerates_bad_costs() {
        let mut det = CorrelationDetector::new(CorrelationConfig::default(), ids(2));
        feed_necessary_pair(&mut det, 5000);
        // NaN / zero / short cost vectors are treated as unit costs.
        let plan = det.plan_with_costs(&[f64::NAN]);
        assert_eq!(plan.iter().count(), det.plan().iter().count());
    }

    #[test]
    fn follower_gate_engages_exactly_outside_the_lag_window() {
        let plan_gate = Gate {
            leader: TaskId(0),
            confidence: 1.0,
            gated_interval: Interval::new_clamped(8),
        };
        let mut gate = FollowerGate::new(&plan_gate, 3);
        assert_eq!(gate.interval(), None, "a fresh gate is released");
        assert!(!gate.advance(4, true));
        for tick in 5..=7 {
            assert!(!gate.advance(tick, false), "tick {tick} is within the lag");
        }
        assert!(gate.advance(8, false), "4 + 3 < 8 engages");
        assert_eq!(gate.interval(), Some(8));
        assert!(FollowerGate::holds(gate.interval(), Some(8), 15));
        assert!(!FollowerGate::holds(gate.interval(), Some(8), 16));
        assert!(
            !FollowerGate::holds(gate.interval(), None, 9),
            "no reference yet"
        );
        assert!(gate.advance(9, true), "the leader fires: released");
        assert!(!FollowerGate::holds(gate.interval(), Some(8), 10));
        assert_eq!(gate.flips(), 2);
    }

    #[test]
    fn lag_window_tolerates_delayed_followers() {
        // The follower fires exactly 2 ticks after each leader pulse ends.
        let config = CorrelationConfig {
            lag_window: 3,
            ..CorrelationConfig::default()
        };
        let mut det = CorrelationDetector::new(config, ids(2));
        for tick in 0..5000u64 {
            let leader = tick % 40 == 0;
            let follower = tick % 40 == 2;
            det.observe(tick, &[leader, follower]);
        }
        let conf = det.necessity_confidence(TaskId(0), TaskId(1)).unwrap();
        assert!(conf > 0.99);
        // With a zero lag window the same pattern shows no correlation.
        let tight = CorrelationConfig {
            lag_window: 0,
            ..CorrelationConfig::default()
        };
        let mut det2 = CorrelationDetector::new(tight, ids(2));
        for tick in 0..5000u64 {
            let leader = tick % 40 == 0;
            let follower = tick % 40 == 2;
            det2.observe(tick, &[leader, follower]);
        }
        assert_eq!(
            det2.necessity_confidence(TaskId(0), TaskId(1)).unwrap(),
            0.0
        );
    }
}
