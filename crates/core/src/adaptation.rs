//! Monitor-level violation-likelihood based interval adaptation
//! (§III-B, Figure 2).
//!
//! After every sampling operation the controller computes the
//! mis-detection-rate bound `β(I)` for its current interval `I` from the
//! freshly sampled value and the online δ statistics, then applies the
//! paper's additive-increase / multiplicative-decrease-like rule:
//!
//! - if `β(I) > err` → collapse to the default interval immediately
//!   (`I ← 1`), protecting accuracy when the δ distribution shifts abruptly;
//! - if `β(I) ≤ (1 − γ)·err` for `p` *consecutive* samples → grow the
//!   interval by one default interval (`I ← I + 1`), capped at the
//!   user-specified maximum `I_m`;
//! - otherwise → keep the interval and reset the consecutive counter.
//!
//! The slack ratio `γ` prevents growing straight into a violation of the
//! allowance (without it, growing at `β(I) = err` would almost surely yield
//! `β(I+1) > err`). The paper reports `γ = 0.2`, `p = 20` as a good
//! practice; both are the defaults here.
//!
//! That whole per-sample algorithm is one crate-private function, `step`,
//! over a borrowed `Lane` of monitor state. [`AdaptiveSampler`] runs it
//! on the one lane it owns and adds the §IV-B updating-period aggregates;
//! [`SamplerBank`](crate::SamplerBank) runs it on a slot of its arrays
//! and adds nothing.

use serde::{Deserialize, Serialize};

use crate::error::VolleyError;
use crate::likelihood::{misdetection_bound_with, BoundKind};
use crate::snapshot::{finite_or_zero, SamplerSnapshot};
use crate::stats::{self, DeltaLane, DeltaTracker, OnlineStats, StatsKind};
use crate::time::{Interval, Tick};

/// Configuration of the monitor-level adaptation algorithm.
///
/// Construct via [`AdaptationConfig::builder`]:
///
/// ```
/// use volley_core::AdaptationConfig;
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let config = AdaptationConfig::builder()
///     .error_allowance(0.01)
///     .max_interval(16)
///     .slack_ratio(0.2)
///     .patience(20)
///     .build()?;
/// assert_eq!(config.max_interval().get(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationConfig {
    error_allowance: f64,
    max_interval: Interval,
    slack_ratio: f64,
    patience: u32,
    restart_after: u32,
    warmup_samples: u32,
    #[serde(default)]
    bound: BoundKind,
    #[serde(default)]
    stats: StatsKind,
}

impl AdaptationConfig {
    /// Starts building a configuration; see the field documentation on the
    /// builder methods.
    pub fn builder() -> AdaptationConfigBuilder {
        AdaptationConfigBuilder::default()
    }

    /// The error allowance `err ∈ (0, 1]`: the acceptable probability of
    /// mis-detecting a violation relative to periodic sampling at the
    /// default interval. An allowance of exactly `0` is expressible via
    /// [`AdaptationConfigBuilder::error_allowance`] and degrades the
    /// controller to periodic sampling.
    pub fn error_allowance(&self) -> f64 {
        self.error_allowance
    }

    /// The maximum sampling interval `I_m` the controller will ever use.
    pub fn max_interval(&self) -> Interval {
        self.max_interval
    }

    /// The slack ratio `γ ∈ [0, 1)` applied when deciding to grow the
    /// interval (paper default 0.2).
    pub fn slack_ratio(&self) -> f64 {
        self.slack_ratio
    }

    /// Number of consecutive sub-slack observations `p` required before the
    /// interval grows (paper default 20).
    pub fn patience(&self) -> u32 {
        self.patience
    }

    /// δ-statistics restart window (paper default 1000).
    pub fn restart_after(&self) -> u32 {
        self.restart_after
    }

    /// Number of δ observations required before the controller trusts its
    /// statistics enough to grow the interval at all.
    pub fn warmup_samples(&self) -> u32 {
        self.warmup_samples
    }

    /// The tail bound driving likelihood estimation (default: the
    /// paper's distribution-free Chebyshev bound).
    pub fn bound(&self) -> BoundKind {
        self.bound
    }

    /// The δ-statistics estimator (default: the paper's windowed
    /// restart).
    pub fn stats(&self) -> StatsKind {
        self.stats
    }

    /// The grow threshold `(1 − γ)·err` for a given allowance.
    pub(crate) fn grow_threshold(&self, err: f64) -> f64 {
        (1.0 - self.slack_ratio) * err
    }

    /// Re-imposes the builder's invariants on a configuration that may
    /// have come from a hostile source (a corrupted checkpoint record):
    /// non-finite parameters fall back to the paper defaults, ranges are
    /// clamped, and the patience keeps its floor of 1. Valid
    /// configurations pass through unchanged.
    pub(crate) fn sanitized(mut self) -> Self {
        if !self.error_allowance.is_finite() {
            self.error_allowance = 0.01;
        }
        self.error_allowance = self.error_allowance.clamp(0.0, 1.0);
        if !self.slack_ratio.is_finite() {
            self.slack_ratio = 0.2;
        }
        self.slack_ratio = self.slack_ratio.clamp(0.0, 0.99);
        self.patience = self.patience.max(1);
        self
    }
}

impl Default for AdaptationConfig {
    /// Paper defaults: `γ = 0.2`, `p = 20`, statistics restart after 1000
    /// observations, `err = 0.01`, `I_m = 32`.
    fn default() -> Self {
        AdaptationConfig {
            error_allowance: 0.01,
            max_interval: Interval::new_clamped(32),
            slack_ratio: 0.2,
            patience: 20,
            restart_after: crate::stats::DEFAULT_RESTART_AFTER,
            warmup_samples: 5,
            bound: BoundKind::default(),
            stats: StatsKind::default(),
        }
    }
}

/// Builder for [`AdaptationConfig`].
#[derive(Debug, Clone, Default)]
pub struct AdaptationConfigBuilder {
    config: AdaptationConfig,
}

impl AdaptationConfigBuilder {
    /// Sets the error allowance `err ∈ [0, 1]` (default 0.01).
    ///
    /// `err = 0` yields plain periodic sampling at the default interval.
    pub fn error_allowance(mut self, err: f64) -> Self {
        self.config.error_allowance = err;
        self
    }

    /// Sets the maximum interval `I_m` in default-interval units
    /// (default 32). Values below 1 are clamped to 1.
    pub fn max_interval(mut self, ticks: u32) -> Self {
        self.config.max_interval = Interval::new_clamped(ticks);
        self
    }

    /// Sets the slack ratio `γ ∈ [0, 1)` (default 0.2).
    pub fn slack_ratio(mut self, gamma: f64) -> Self {
        self.config.slack_ratio = gamma;
        self
    }

    /// Sets the patience `p ≥ 1` (default 20).
    pub fn patience(mut self, p: u32) -> Self {
        self.config.patience = p;
        self
    }

    /// Sets the statistics restart window (default 1000).
    pub fn restart_after(mut self, n: u32) -> Self {
        self.config.restart_after = n;
        self
    }

    /// Sets the number of warm-up δ observations before any interval
    /// growth (default 5).
    pub fn warmup_samples(mut self, n: u32) -> Self {
        self.config.warmup_samples = n;
        self
    }

    /// Selects the tail bound (default [`BoundKind::Chebyshev`]; the
    /// Gaussian variant exists for the `ablation_bound` study and is
    /// unsafe on heavy-tailed data).
    pub fn bound(mut self, kind: BoundKind) -> Self {
        self.config.bound = kind;
        self
    }

    /// Selects the δ-statistics estimator (default the paper's windowed
    /// restart; [`StatsKind::Ewma`] for the `ablation_stats` study).
    pub fn stats(mut self, kind: StatsKind) -> Self {
        self.config.stats = kind;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] when `err ∉ [0, 1]`,
    /// `γ ∉ [0, 1)`, `p == 0`, or any parameter is non-finite.
    pub fn build(self) -> Result<AdaptationConfig, VolleyError> {
        let c = self.config;
        if !c.error_allowance.is_finite() || !(0.0..=1.0).contains(&c.error_allowance) {
            return Err(VolleyError::invalid(
                "error_allowance",
                "must lie in [0, 1]",
            ));
        }
        if !c.slack_ratio.is_finite() || !(0.0..1.0).contains(&c.slack_ratio) {
            return Err(VolleyError::invalid("slack_ratio", "must lie in [0, 1)"));
        }
        if c.patience == 0 {
            return Err(VolleyError::invalid("patience", "must be at least 1"));
        }
        Ok(c)
    }
}

/// Outcome of one sampling operation processed by [`AdaptiveSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Whether the sampled value exceeded the (local) threshold.
    pub violation: bool,
    /// Upper bound `β(I)` on the mis-detection rate computed for the
    /// interval in effect *after* this observation.
    pub beta: f64,
    /// The interval used to schedule the *next* sample.
    pub next_interval: Interval,
    /// The tick at which the next regular sample is due.
    pub next_sample_tick: Tick,
    /// Whether this observation collapsed the interval back to the default
    /// (`β(I) > err`).
    pub collapsed: bool,
    /// Whether this observation grew the interval by one default interval.
    pub grew: bool,
}

/// Borrowed §III-B controller state of one monitor, wherever its owner
/// stores it: the δ state plus the interval in effect (in ticks, ≥ 1) and
/// the streak of consecutive sub-slack observations toward the next growth.
#[derive(Debug)]
pub(crate) struct Lane<'a> {
    pub(crate) delta: DeltaLane<'a>,
    pub(crate) interval: &'a mut u32,
    pub(crate) consecutive_ok: &'a mut u32,
}

/// What one [`step`] decided, plus the inputs of its bound for callers
/// that evaluate further bounds on the same sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) observation: Observation,
    /// Mean and standard deviation of δ after recording the sample.
    pub(crate) mu: f64,
    pub(crate) sigma: f64,
    /// Whether the statistics have warmed up; until then `beta` is a
    /// vacuous 1.
    pub(crate) warmed: bool,
}

/// Feeds one sample into the lane's δ statistics without running the
/// adaptation rule.
#[inline]
pub(crate) fn record(config: &AdaptationConfig, lane: &mut DeltaLane<'_>, tick: Tick, value: f64) {
    stats::record(config.stats(), config.restart_after(), lane, tick, value);
}

/// The complete per-sample algorithm of §III-B on one lane: statistics
/// update (with `δ̂` correction for coarse intervals), `β(I)` evaluation
/// for the interval in effect, collapse/grow decision under allowance
/// `err`.
#[inline]
pub(crate) fn step(
    config: &AdaptationConfig,
    err: f64,
    threshold: f64,
    lane: &mut Lane<'_>,
    tick: Tick,
    value: f64,
) -> Step {
    record(config, &mut lane.delta, tick, value);
    let (mu, sigma) = (*lane.delta.mean, lane.delta.variance.sqrt());
    let warmed = *lane.delta.n >= u64::from(config.warmup_samples().max(2));
    let interval = &mut *lane.interval;
    let beta = if warmed {
        misdetection_bound_with(config.bound(), value, threshold, mu, sigma, *interval)
    } else {
        // Until statistics warm up, claim nothing: a vacuous bound keeps
        // the monitor at the default interval.
        1.0
    };

    let default = Interval::DEFAULT.get();
    let max = config.max_interval().get();
    let ok = &mut *lane.consecutive_ok;
    let mut collapsed = false;
    let mut grew = false;
    if err <= 0.0 {
        // Degenerate allowance: periodic sampling at the default rate.
        *interval = default;
        *ok = 0;
    } else if beta > err {
        if warmed || *interval > default {
            collapsed = *interval > default;
            *interval = default;
        }
        *ok = 0;
    } else if beta <= config.grow_threshold(err) {
        *ok += 1;
        if *ok >= config.patience() && *interval < max {
            *interval = interval.saturating_add(1).min(max);
            *ok = 0;
            grew = true;
        }
    } else {
        *ok = 0;
    }

    let next_interval = Interval::new_clamped(*interval);
    Step {
        observation: Observation {
            violation: value > threshold,
            beta,
            next_interval,
            next_sample_tick: tick + u64::from(next_interval),
            collapsed,
            grew,
        },
        mu,
        sigma,
        warmed,
    }
}

/// The monitor-level adaptive sampler (Figure 2 of the paper).
///
/// Drives *when to sample next* for a single monitored metric with a fixed
/// threshold. The caller owns the sampling loop: it invokes
/// [`observe`](AdaptiveSampler::observe) with each sampled value and
/// schedules the following sample at
/// [`Observation::next_sample_tick`].
///
/// The error allowance is mutable at run time
/// ([`set_error_allowance`](AdaptiveSampler::set_error_allowance)) because
/// the task-level coordination scheme of §IV reallocates allowance across
/// monitors while the task runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSampler {
    config: AdaptationConfig,
    threshold: f64,
    err: f64,
    tracker: DeltaTracker,
    /// Sampling interval in effect, in ticks (≥ 1).
    interval: u32,
    consecutive_ok: u32,
    /// Running sums for the coordinator's updating-period averages (§IV-B).
    period_beta_grown_sum: f64,
    period_beta_current_sum: f64,
    period_reduction_sum: f64,
    period_observations: u32,
    total_samples: u64,
}

impl AdaptiveSampler {
    /// Creates a sampler for a metric with violation condition
    /// `value > threshold`, starting (per the paper) at the default
    /// interval.
    pub fn new(config: AdaptationConfig, threshold: f64) -> Self {
        AdaptiveSampler {
            config,
            threshold,
            err: config.error_allowance(),
            tracker: DeltaTracker::with_restart_after(config.restart_after()),
            interval: Interval::DEFAULT.get(),
            consecutive_ok: 0,
            period_beta_grown_sum: 0.0,
            period_beta_current_sum: 0.0,
            period_reduction_sum: 0.0,
            period_observations: 0,
            total_samples: 0,
        }
    }

    /// The violation threshold this sampler monitors against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Replaces the violation threshold (used when the coordinator adjusts
    /// local thresholds). Keeps statistics: the δ distribution is a
    /// property of the data, not of the threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// The error allowance currently in effect.
    pub fn error_allowance(&self) -> f64 {
        self.err
    }

    /// Updates the error allowance (task-level coordination, §IV-B),
    /// clamped into `[0, 1]`. A non-finite allowance falls back to the
    /// configured one: every comparison of the rule is false against a
    /// NaN, which would leave a grown interval unable to collapse.
    ///
    /// Shrinking the allowance below the current `β(I)` causes a collapse
    /// at the next observation, not immediately — matching the paper, where
    /// adaptation decisions happen only at sampling times.
    pub fn set_error_allowance(&mut self, err: f64) {
        self.err = if err.is_finite() {
            err.clamp(0.0, 1.0)
        } else {
            self.config.error_allowance()
        };
    }

    /// The sampling interval currently in effect.
    pub fn interval(&self) -> Interval {
        Interval::new_clamped(self.interval)
    }

    /// The adaptation configuration.
    pub fn config(&self) -> &AdaptationConfig {
        &self.config
    }

    /// Total number of sampling operations processed so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// The δ statistics as they stand (mainly for diagnostics/tests): the
    /// moments of whichever estimator the configuration selects.
    pub fn stats(&self) -> OnlineStats {
        *self.tracker.stats()
    }

    /// Processes the result of one sampling operation performed at `tick`
    /// and returns the adaptation outcome, including when to sample next:
    /// one §III-B `step`, then the §IV-B updating-period aggregates.
    pub fn observe(&mut self, tick: Tick, value: f64) -> Observation {
        self.total_samples += 1;
        let mut lane = Lane {
            delta: self.tracker.lane(),
            interval: &mut self.interval,
            consecutive_ok: &mut self.consecutive_ok,
        };
        let Step {
            observation,
            mu,
            sigma,
            warmed,
        } = step(
            &self.config,
            self.err,
            self.threshold,
            &mut lane,
            tick,
            value,
        );

        // Maintain the updating-period aggregates used by the task-level
        // coordinator (§IV-B): the average β at the current and the grown
        // interval, and the average potential cost reduction.
        let beta_grown = if warmed {
            misdetection_bound_with(
                self.config.bound(),
                value,
                self.threshold,
                mu,
                sigma,
                self.interval.saturating_add(1),
            )
        } else {
            1.0
        };
        self.period_beta_current_sum += observation.beta.min(1.0);
        self.period_beta_grown_sum += beta_grown.min(1.0);
        self.period_reduction_sum += 1.0 - 1.0 / f64::from(self.interval + 1);
        self.period_observations += 1;
        observation
    }

    /// Records a value obtained by a *forced* sample (e.g. a global poll
    /// initiated by the coordinator) without running the adaptation rule.
    ///
    /// The value still feeds the δ statistics so that forced samples
    /// improve rather than distort the model.
    pub fn observe_forced(&mut self, tick: Tick, value: f64) {
        self.total_samples += 1;
        record(&self.config, &mut self.tracker.lane(), tick, value);
    }

    /// Drains the updating-period aggregates collected since the previous
    /// call, returning the coordinator-facing summary (§IV-B).
    pub fn drain_period_report(&mut self) -> PeriodReport {
        let n = self.period_observations.max(1);
        let report = PeriodReport {
            observations: self.period_observations,
            avg_beta_current: self.period_beta_current_sum / f64::from(n),
            avg_beta_grown: self.period_beta_grown_sum / f64::from(n),
            avg_potential_reduction: self.period_reduction_sum / f64::from(n),
            interval: self.interval(),
            at_max_interval: self.interval() >= self.config.max_interval(),
        };
        self.period_beta_current_sum = 0.0;
        self.period_beta_grown_sum = 0.0;
        self.period_reduction_sum = 0.0;
        self.period_observations = 0;
        report
    }

    /// Captures the §III-B controller state for checkpointing: the
    /// configuration, thresholds, δ statistics, interval and growth
    /// progress. The §IV-B updating-period aggregates are deliberately
    /// excluded — see [`crate::snapshot`] for the rationale.
    pub fn to_snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot {
            config: self.config,
            threshold: self.threshold,
            err: self.err,
            tracker: self.tracker.to_snapshot(),
            interval: self.interval,
            consecutive_ok: self.consecutive_ok,
            total_samples: self.total_samples,
        }
    }

    /// Rebuilds a sampler from a snapshot.
    ///
    /// Every field is sanitized so that a corrupted checkpoint can cost
    /// accuracy but never panic or wedge the controller: the
    /// configuration invariants are re-imposed, non-finite floats are
    /// replaced, and the restored interval is clamped back under the
    /// configured maximum. The updating-period aggregates restart at
    /// zero — a restore begins a fresh §IV-B period.
    pub fn from_snapshot(snapshot: &SamplerSnapshot) -> Self {
        let config = snapshot.config.sanitized();
        let mut sampler = AdaptiveSampler::new(config, finite_or_zero(snapshot.threshold));
        sampler.set_error_allowance(snapshot.err);
        sampler.tracker = DeltaTracker::from_snapshot(&snapshot.tracker);
        sampler.interval = snapshot.interval.clamp(1, config.max_interval().get());
        // The counter rises past the patience while the interval sits at
        // its maximum; cap it only far away, where a hostile value could
        // overflow subsequent increments.
        sampler.consecutive_ok = snapshot.consecutive_ok.min(u32::MAX / 2);
        sampler.total_samples = snapshot.total_samples;
        sampler
    }

    /// A copy of what [`observe`](Self::observe) and
    /// [`observe_forced`](Self::observe_forced) can change.
    pub fn tick_state(&self) -> SamplerTickState {
        SamplerTickState {
            tracker: self.tracker,
            interval: self.interval,
            consecutive_ok: self.consecutive_ok,
            period_beta_grown_sum: self.period_beta_grown_sum,
            period_beta_current_sum: self.period_beta_current_sum,
            period_reduction_sum: self.period_reduction_sum,
            period_observations: self.period_observations,
            total_samples: self.total_samples,
        }
    }

    /// Puts back what [`tick_state`](Self::tick_state) copied; the
    /// configuration, threshold and allowance stay as they are.
    pub fn restore_tick_state(&mut self, state: &SamplerTickState) {
        self.tracker = state.tracker;
        self.interval = state.interval;
        self.consecutive_ok = state.consecutive_ok;
        self.period_beta_grown_sum = state.period_beta_grown_sum;
        self.period_beta_current_sum = state.period_beta_current_sum;
        self.period_reduction_sum = state.period_reduction_sum;
        self.period_observations = state.period_observations;
        self.total_samples = state.total_samples;
    }

    /// Resets the sampler to its initial state (default interval, fresh
    /// statistics). The error allowance is preserved.
    pub fn reset(&mut self) {
        self.tracker.reset();
        self.interval = Interval::DEFAULT.get();
        self.consecutive_ok = 0;
        self.period_beta_current_sum = 0.0;
        self.period_beta_grown_sum = 0.0;
        self.period_reduction_sum = 0.0;
        self.period_observations = 0;
    }
}

/// What a sampled value can change in an [`AdaptiveSampler`] — the δ
/// statistics, the interval and its growth progress, the §IV-B period
/// sums and the sample count — and nothing set by its owner: no
/// configuration, threshold or allowance. A caller that steps a sampler
/// ahead and may have to undo it keeps this instead of a clone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerTickState {
    tracker: DeltaTracker,
    interval: u32,
    consecutive_ok: u32,
    period_beta_grown_sum: f64,
    period_beta_current_sum: f64,
    period_reduction_sum: f64,
    period_observations: u32,
    total_samples: u64,
}

/// Per-updating-period averages a monitor reports to its coordinator
/// (the `r_i` / `e_i` inputs of §IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodReport {
    /// Number of samples that contributed to the averages.
    pub observations: u32,
    /// Average `β(I)` at the interval in effect.
    pub avg_beta_current: f64,
    /// Average `β(I+1)` — the bound the monitor would face after growing.
    pub avg_beta_grown: f64,
    /// Average potential cost reduction `r_i = 1 − 1/(I+1)`
    /// (paper-literal form; see [`crate::allocation::YieldMode`]).
    pub avg_potential_reduction: f64,
    /// Interval in effect at the end of the period.
    pub interval: Interval,
    /// Whether the monitor sits at its maximum interval `I_m` (no further
    /// growth is possible, so extra allowance buys nothing).
    pub at_max_interval: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> AdaptationConfig {
        AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    /// Drives the sampler over a constant stream far below the threshold.
    fn run_flat(sampler: &mut AdaptiveSampler, n: usize) -> Vec<Observation> {
        let mut out = Vec::new();
        let mut tick = 0u64;
        for _ in 0..n {
            let obs = sampler.observe(tick, 10.0);
            tick = obs.next_sample_tick;
            out.push(obs);
        }
        out
    }

    #[test]
    fn builder_validates_ranges() {
        assert!(AdaptationConfig::builder()
            .error_allowance(-0.1)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .error_allowance(1.5)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .slack_ratio(1.0)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .slack_ratio(-0.2)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder().patience(0).build().is_err());
        assert!(AdaptationConfig::builder()
            .error_allowance(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn starts_at_default_interval() {
        let sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn grows_on_stable_quiet_stream() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        let obs = run_flat(&mut sampler, 50);
        assert!(
            sampler.interval() > Interval::DEFAULT,
            "quiet stream should grow the interval"
        );
        assert!(obs.iter().any(|o| o.grew));
        // Growth is additive: interval increments by exactly 1 per growth.
        let mut prev = 1u32;
        for o in &obs {
            let cur = o.next_interval.get();
            assert!(cur == prev || cur == prev + 1 || cur == 1);
            prev = cur;
        }
    }

    #[test]
    fn never_exceeds_max_interval() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 500);
        assert!(sampler.interval() <= sampler.config().max_interval());
        assert_eq!(sampler.interval(), sampler.config().max_interval());
    }

    #[test]
    fn collapses_to_default_on_risky_bound() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 100);
        assert!(sampler.interval() > Interval::DEFAULT);
        // A value at the threshold makes the Chebyshev bound vacuous
        // (headroom <= 0), forcing an immediate collapse.
        let obs = sampler.observe(10_000, 100.0);
        assert!(obs.collapsed);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    /// A tick state taken, stepped past and put back leaves the sampler
    /// as it was, observations forced or not; the allowance set in the
    /// meantime is the owner's and stays.
    #[test]
    fn a_restored_tick_state_undoes_every_observation() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 20);
        let (kept, before) = (sampler.tick_state(), sampler.clone());
        sampler.observe(200, 90.0);
        sampler.observe_forced(201, 40.0);
        sampler.set_error_allowance(0.2);
        assert_ne!(sampler.tick_state(), kept);
        sampler.restore_tick_state(&kept);
        assert_eq!(sampler.error_allowance(), 0.2);
        sampler.set_error_allowance(before.error_allowance());
        assert_eq!(sampler, before);
        assert!(std::mem::size_of::<SamplerTickState>() < std::mem::size_of::<AdaptiveSampler>());
    }

    #[test]
    fn growth_requires_consecutive_patience() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(5)
            .warmup_samples(2)
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 100.0);
        // Warm the statistics with a quiet stream, but interleave a
        // near-threshold value to keep breaking the consecutive counter.
        let mut tick = 0u64;
        for i in 0..40 {
            let value = if i % 4 == 3 { 95.0 } else { 10.0 };
            let obs = sampler.observe(tick, value);
            tick = obs.next_sample_tick;
        }
        assert_eq!(
            sampler.interval(),
            Interval::DEFAULT,
            "interrupted streaks must not grow"
        );
    }

    #[test]
    fn zero_allowance_degrades_to_periodic() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.0)
            .max_interval(8)
            .patience(1)
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 1e12);
        let obs = run_flat(&mut sampler, 100);
        assert!(obs.iter().all(|o| o.next_interval == Interval::DEFAULT));
    }

    #[test]
    fn violation_detection_is_threshold_exceedance() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 50.0);
        assert!(
            !sampler.observe(0, 50.0).violation,
            "equality is not a violation"
        );
        assert!(sampler.observe(1, 50.1).violation);
    }

    #[test]
    fn allowance_update_takes_effect_on_next_observation() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 100);
        let grown = sampler.interval();
        assert!(grown > Interval::DEFAULT);
        sampler.set_error_allowance(0.0);
        assert_eq!(sampler.interval(), grown, "no immediate collapse");
        sampler.observe(10_000, 10.0);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn non_finite_allowance_cannot_wedge_a_grown_interval_open() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        let due = run_flat(&mut sampler, 100).last().unwrap().next_sample_tick;
        assert!(sampler.interval() > Interval::DEFAULT);
        // Against a NaN allowance every comparison of the rule is false,
        // so the setter must not let one through.
        sampler.set_error_allowance(f64::NAN);
        assert_eq!(sampler.error_allowance(), 0.05);
        let obs = sampler.observe(due, 99.9);
        assert!(obs.beta > 0.05, "beta {}", obs.beta);
        assert!(obs.collapsed);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn forced_samples_feed_statistics_without_adaptation() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.observe(0, 10.0);
        let interval_before = sampler.interval();
        sampler.observe_forced(1, 11.0);
        assert_eq!(sampler.interval(), interval_before);
        assert_eq!(sampler.stats().count(), 1);
        assert_eq!(sampler.total_samples(), 2);
    }

    #[test]
    fn period_report_averages_and_resets() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 10);
        let report = sampler.drain_period_report();
        assert_eq!(report.observations, 10);
        assert!(report.avg_beta_current >= 0.0 && report.avg_beta_current <= 1.0);
        assert!(report.avg_beta_grown >= report.avg_beta_current - 1e-12);
        assert!(report.avg_potential_reduction > 0.0);
        let empty = sampler.drain_period_report();
        assert_eq!(empty.observations, 0);
    }

    #[test]
    fn reset_preserves_allowance() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.set_error_allowance(0.42);
        run_flat(&mut sampler, 100);
        sampler.reset();
        assert_eq!(sampler.interval(), Interval::DEFAULT);
        assert_eq!(sampler.error_allowance(), 0.42);
        assert_eq!(sampler.stats().count(), 0);
    }

    #[test]
    fn ewma_estimator_also_grows_and_collapses() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .stats(StatsKind::Ewma { lambda: 0.1 })
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 100.0);
        let mut tick = 0u64;
        for _ in 0..100 {
            let obs = sampler.observe(tick, 10.0);
            tick = obs.next_sample_tick;
        }
        assert!(
            sampler.interval() > Interval::DEFAULT,
            "quiet stream grows under EWMA too"
        );
        let obs = sampler.observe(tick + 1, 150.0);
        assert!(obs.violation);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn next_sample_tick_respects_interval() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        let obs = sampler.observe(7, 10.0);
        assert_eq!(obs.next_sample_tick, 7 + u64::from(obs.next_interval));
    }

    #[test]
    fn larger_allowance_grows_at_least_as_fast() {
        let mk = |err: f64| {
            AdaptationConfig::builder()
                .error_allowance(err)
                .max_interval(32)
                .patience(3)
                .warmup_samples(3)
                .build()
                .unwrap()
        };
        let mut tight = AdaptiveSampler::new(mk(0.001), 100.0);
        let mut loose = AdaptiveSampler::new(mk(0.1), 100.0);
        // A mildly noisy but quiet stream (deterministic pattern).
        let wave = |t: u64| 10.0 + ((t % 7) as f64) * 0.5;
        let mut tt = 0u64;
        for _ in 0..200 {
            let o = tight.observe(tt, wave(tt));
            tt = o.next_sample_tick;
        }
        let mut tl = 0u64;
        for _ in 0..200 {
            let o = loose.observe(tl, wave(tl));
            tl = o.next_sample_tick;
        }
        assert!(loose.interval() >= tight.interval());
    }

    /// The drift guard for the §III-B kernel: each recurrence, the `δ̂`
    /// and the collapse/grow comparisons are spelled in exactly one file
    /// of this crate, so a new layout cannot quietly grow its own copy.
    #[test]
    fn the_kernel_is_spelled_once() {
        use std::path::Path;
        // (needle, [(file whose non-test code may contain it, times)])
        let homes: [(&str, &[(&str, usize)]); 7] = [
            ("* (delta - prev_mean)", &[("stats.rs", 1)]), // Welford numerator
            ("diff * incr", &[("stats.rs", 1)]),           // EWMA variance update
            ("(tick - last_tick)", &[("stats.rs", 1)]),    // δ̂ = Δv / Δt
            ("> err", &[("adaptation.rs", 1)]),            // collapse
            ("grow_threshold(", &[("adaptation.rs", 2)]),  // definition + grow
            // Defined once (and delegated to by `misdetection_bound`);
            // called for β(I) and for §IV-B's β(I+1).
            (
                "misdetection_bound_with(",
                &[("likelihood.rs", 2), ("adaptation.rs", 2)],
            ),
            ("1.0 / (1.0 + k * k)", &[("likelihood.rs", 1)]), // Cantelli term
        ];
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("readable src dir") {
            let path = entry.expect("dir entry").path();
            let file = path.file_name().unwrap().to_str().unwrap().to_string();
            let text = std::fs::read_to_string(&path).expect("readable source");
            let code: String = text[..text.find("#[cfg(test)]").unwrap_or(text.len())]
                .lines()
                .filter(|line| !line.trim_start().starts_with("//"))
                .collect();
            for (needle, allowed) in homes {
                let expected = allowed.iter().find(|(home, _)| *home == file);
                let expected = expected.map_or(0, |(_, times)| *times);
                assert_eq!(
                    code.matches(needle).count(),
                    expected,
                    "`{needle}` in {file}"
                );
            }
        }
    }
}
