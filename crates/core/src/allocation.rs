//! Task-level error-allowance allocation across monitors (§IV-B, Figure 3).
//!
//! With local violation reporting, a missed local violation can hide a
//! global violation, and the coordinator's mis-detection rate is bounded by
//! the sum of monitor mis-detection rates: `β_c ≤ Σ β_i`. It therefore
//! suffices to distribute the task-level allowance `err` over monitors with
//! `Σ err_i ≤ err`. *How* it is distributed changes the total cost: a
//! monitor whose values sit close to its local threshold needs a lot of
//! allowance to grow its interval at all (low *yield*), while a quiet
//! monitor converts allowance into interval growth cheaply (high yield).
//!
//! Two allocation strategies are provided; the `ablation_yield` bench
//! compares them head-to-head:
//!
//! - [`AllocationStrategy::Iterative`] (default) — the paper's gradual
//!   tuning: each updating period moves one bounded quantum of allowance
//!   from the lowest-yield donor to the highest-yield recipient, with a
//!   sustain reserve so a transfer never collapses savings a donor has
//!   already banked.
//! - [`AllocationStrategy::Proportional`] — one-shot reassignment
//!   `err_i = err · y_i / Σ_j y_j` with `y_i = r_i / e_i`, exactly as the
//!   formulas are printed in §IV-B, including both variants of `r`
//!   ([`YieldMode`]) and `e` ([`AllowanceCostMode`]) and both throttles
//!   (minimum assignment `err/100`, skip when yields are near-uniform).

use serde::{Deserialize, Serialize};

use crate::adaptation::PeriodReport;
use crate::error::VolleyError;

/// Which cost-reduction numerator `r_i` the proportional yield uses.
///
/// The paper's text prints the *total* reduction at the grown interval; the
/// prose ("potential cost reduction if its interval increased by 1") also
/// admits the *marginal* reading. Both are provided; the ablation benches
/// (`ablation_yield`) compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum YieldMode {
    /// `r_i = 1 − 1/(I_i + 1)` — cost reduction relative to periodic
    /// sampling after growing (the formula as printed in §IV-B).
    #[default]
    PaperTotal,
    /// `r_i = 1/I_i − 1/(I_i + 1)` — the marginal saving of the single
    /// growth step.
    Marginal,
}

/// Which mis-detection bound feeds the proportional allowance-cost
/// denominator `e_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AllowanceCostMode {
    /// `e_i = β(I_i + 1)/(1 − γ)` — derived from the growth rule
    /// (growing requires the *grown* interval's bound to fit under the
    /// slack-scaled allowance). Default.
    #[default]
    Grown,
    /// `e_i = β(I_i)/(1 − γ)` — the formula as literally printed in the
    /// paper.
    Current,
}

/// The allocation algorithm run each updating period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AllocationStrategy {
    /// Gradual yield-driven transfers (default; the paper's "gradually
    /// tunes the assignment across monitors by moving error allowance
    /// from monitors with low cost reduction yield to those with high
    /// cost reduction yield", §IV-B): each round moves one bounded
    /// quantum of allowance from the lowest-yield donor to the
    /// highest-yield recipient. Because yields are re-measured at the
    /// monitors' *actual* operating points every round, measurement bias
    /// self-corrects and the assignment settles once yields equalize.
    #[default]
    Iterative,
    /// One-shot proportional reassignment `err_i = err · y_i / Σ_j y_j` —
    /// the formula as printed in the paper. Prone to oscillation because
    /// a starved monitor's yield looks high at its collapsed operating
    /// point; kept for the `ablation_yield` experiment.
    Proportional,
}

/// Configuration of the error-allowance allocator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationConfig {
    /// The allocation algorithm.
    pub strategy: AllocationStrategy,
    /// Numerator variant for the proportional yield.
    pub yield_mode: YieldMode,
    /// Denominator variant for the proportional yield.
    pub cost_mode: AllowanceCostMode,
    /// Minimum assignment as a fraction of the global allowance
    /// (paper: `err̲ = err/100` → 0.01), capped at the even share `1/n`
    /// so `n` floors never exceed the budget.
    pub min_fraction: f64,
    /// Skip a proportional round when `max(y)/min(y)` is below this ratio
    /// — the paper's "yields near-uniform" throttle (we read its
    /// `max{y_i/y_j} < 0.1` as a 10% spread test; see DESIGN.md §5).
    pub uniform_skip_ratio: f64,
    /// Updating period in ticks (paper: 1000·`I_d`).
    pub update_period_ticks: u64,
    /// Size of one [`AllocationStrategy::Iterative`] transfer as a
    /// fraction of the global allowance (default 0.1).
    pub transfer_fraction: f64,
    /// EWMA coefficient for smoothing per-monitor yields across updating
    /// periods before the iterative scheme acts on them (default 0.3;
    /// 1.0 disables smoothing). Period-level yield estimates are noisy —
    /// a single load episode inflates a monitor's average β by orders of
    /// magnitude — and transfers based on one period's snapshot degrade
    /// into random churn.
    pub yield_smoothing: f64,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            strategy: AllocationStrategy::default(),
            yield_mode: YieldMode::default(),
            cost_mode: AllowanceCostMode::default(),
            min_fraction: 0.01,
            uniform_skip_ratio: 1.1,
            update_period_ticks: 1000,
            transfer_fraction: 0.1,
            yield_smoothing: 0.3,
        }
    }
}

impl AllocationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] when `min_fraction` is not in
    /// `[0, 1]`, the skip ratio is below 1, or the update period is zero.
    pub fn validate(&self) -> Result<(), VolleyError> {
        if !self.min_fraction.is_finite() || !(0.0..=1.0).contains(&self.min_fraction) {
            return Err(VolleyError::invalid("min_fraction", "must lie in [0, 1]"));
        }
        if !self.uniform_skip_ratio.is_finite() || self.uniform_skip_ratio < 1.0 {
            return Err(VolleyError::invalid(
                "uniform_skip_ratio",
                "must be at least 1",
            ));
        }
        if self.update_period_ticks == 0 {
            return Err(VolleyError::invalid(
                "update_period_ticks",
                "must be positive",
            ));
        }
        if !self.transfer_fraction.is_finite() || !(0.0..=1.0).contains(&self.transfer_fraction) {
            return Err(VolleyError::invalid(
                "transfer_fraction",
                "must lie in [0, 1]",
            ));
        }
        if !self.yield_smoothing.is_finite()
            || !(0.0..=1.0).contains(&self.yield_smoothing)
            || self.yield_smoothing == 0.0
        {
            return Err(VolleyError::invalid(
                "yield_smoothing",
                "must lie in (0, 1]",
            ));
        }
        Ok(())
    }
}

/// One allocation round's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationDecision {
    /// New per-monitor allowances (`Σ ≤ err`, each ≥ the minimum).
    pub allowances: Vec<f64>,
    /// Whether the round actually changed the assignment (false when
    /// throttled or already at the fixed point).
    pub reallocated: bool,
    /// Diagnostic per-monitor yields: proportional `y_i` for
    /// [`AllocationStrategy::Proportional`], the smoothed yields for
    /// [`AllocationStrategy::Iterative`].
    pub yields: Vec<f64>,
}

/// The error-allowance allocator run by the coordinator.
///
/// ```
/// use volley_core::{AllocationConfig, ErrorAllocator};
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let allocator = ErrorAllocator::new(AllocationConfig::default(), 0.01, 4)?;
/// // Initially the allowance is divided evenly.
/// assert!(allocator.allowances().iter().all(|&a| (a - 0.0025).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorAllocator {
    config: AllocationConfig,
    global_err: f64,
    allowances: Vec<f64>,
    rounds: u64,
    reallocations: u64,
    /// EWMA-smoothed yields (log-domain) for the iterative scheme.
    smoothed_yields: Vec<f64>,
}

impl ErrorAllocator {
    /// Creates an allocator for `monitors` monitors sharing the global
    /// allowance `global_err`, starting from the even division (Figure 3:
    /// "the coordinator first divides err evenly across all monitors").
    ///
    /// # Errors
    ///
    /// Returns an error for zero monitors, an out-of-range `global_err`,
    /// or an invalid configuration.
    pub fn new(
        config: AllocationConfig,
        global_err: f64,
        monitors: usize,
    ) -> Result<Self, VolleyError> {
        config.validate()?;
        if monitors == 0 {
            return Err(VolleyError::EmptyTask);
        }
        if !global_err.is_finite() || !(0.0..=1.0).contains(&global_err) {
            return Err(VolleyError::invalid("global_err", "must lie in [0, 1]"));
        }
        let even = global_err / monitors as f64;
        Ok(ErrorAllocator {
            config,
            global_err,
            allowances: vec![even; monitors],
            rounds: 0,
            reallocations: 0,
            smoothed_yields: Vec::new(),
        })
    }

    /// The current per-monitor allowances.
    pub fn allowances(&self) -> &[f64] {
        &self.allowances
    }

    /// Number of update rounds processed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of rounds that actually changed the assignment.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// The allocator configuration.
    pub fn config(&self) -> &AllocationConfig {
        &self.config
    }

    /// Adopts a checkpointed assignment, as read back from disk. It must
    /// be one this allocator could have produced: an entry per monitor,
    /// each finite and non-negative, `Σ ≤ err` (to rounding). Anything
    /// else is refused — the even split is installed and `false`
    /// returned. Smoothed yields start over either way.
    pub fn restore(&mut self, allowances: &[f64]) -> bool {
        let valid = allowances.len() == self.allowances.len()
            && allowances.iter().all(|a| a.is_finite() && *a >= 0.0)
            && allowances.iter().sum::<f64>() <= self.global_err + 1e-12;
        if valid {
            self.allowances.copy_from_slice(allowances);
        } else {
            let even = self.global_err / self.allowances.len() as f64;
            self.allowances.fill(even);
        }
        self.smoothed_yields.clear();
        valid
    }

    /// Computes the proportional yield `y_i` for one monitor's period
    /// report under the configured modes, with `slack_ratio` = the
    /// adaptation `γ` (§IV-B).
    pub fn yield_for(&self, report: &PeriodReport, slack_ratio: f64) -> f64 {
        let interval = f64::from(report.interval.get());
        let r = match self.config.yield_mode {
            YieldMode::PaperTotal => 1.0 - 1.0 / (interval + 1.0),
            YieldMode::Marginal => 1.0 / interval - 1.0 / (interval + 1.0),
        };
        let beta = match self.config.cost_mode {
            AllowanceCostMode::Grown => report.avg_beta_grown,
            AllowanceCostMode::Current => report.avg_beta_current,
        };
        let e = (beta / (1.0 - slack_ratio)).max(f64::MIN_POSITIVE);
        r / e
    }

    /// Runs one updating-period round under the configured strategy.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::ValueCountMismatch`] when the report count
    /// does not match the monitor count.
    pub fn update(
        &mut self,
        reports: &[PeriodReport],
        slack_ratio: f64,
    ) -> Result<AllocationDecision, VolleyError> {
        if reports.len() != self.allowances.len() {
            return Err(VolleyError::ValueCountMismatch {
                got: reports.len(),
                expected: self.allowances.len(),
            });
        }
        self.rounds += 1;
        if self.allowances.len() < 2 {
            return Ok(AllocationDecision {
                allowances: self.allowances.clone(),
                reallocated: false,
                yields: vec![0.0; self.allowances.len()],
            });
        }
        let (new_allowances, yields, skipped) = match self.config.strategy {
            AllocationStrategy::Iterative => {
                // Smooth raw yields across rounds (log-domain EWMA): a
                // single episode distorts one period's averages by orders
                // of magnitude, and acting on snapshots degrades into
                // churn.
                let raw: Vec<f64> = reports
                    .iter()
                    .map(|r| {
                        if r.at_max_interval {
                            0.0
                        } else {
                            self.yield_for(r, slack_ratio)
                        }
                    })
                    .collect();
                let alpha = self.config.yield_smoothing;
                if self.smoothed_yields.len() != raw.len() {
                    self.smoothed_yields = raw.iter().map(|y| (y + 1e-300).ln()).collect();
                } else {
                    for (s, y) in self.smoothed_yields.iter_mut().zip(&raw) {
                        *s = alpha * (y + 1e-300).ln() + (1.0 - alpha) * *s;
                    }
                }
                let smoothed: Vec<f64> = self.smoothed_yields.iter().map(|s| s.exp()).collect();
                self.compute_iterative(reports, slack_ratio, &smoothed)
            }
            AllocationStrategy::Proportional => self.compute_proportional(reports, slack_ratio),
        };
        if skipped {
            return Ok(AllocationDecision {
                allowances: self.allowances.clone(),
                reallocated: false,
                yields,
            });
        }
        let changed = new_allowances
            .iter()
            .zip(&self.allowances)
            .any(|(a, b)| (a - b).abs() > 1e-12);
        if changed {
            self.reallocations += 1;
            self.allowances = new_allowances;
        }
        Ok(AllocationDecision {
            allowances: self.allowances.clone(),
            reallocated: changed,
            yields,
        })
    }

    /// The minimum assignment `err · min_fraction`, capped at the even
    /// share `err/n` so the floors of all `n` monitors fit the budget.
    fn floor(&self) -> f64 {
        let even_fraction = 1.0 / self.allowances.len() as f64;
        self.global_err * self.config.min_fraction.min(even_fraction)
    }

    /// Gradual yield-driven transfer (see [`AllocationStrategy::Iterative`]).
    ///
    /// Moves at most one quantum per round from the lowest-yield monitor
    /// holding more than the floor to the highest-yield monitor that can
    /// still use allowance. A monitor at its maximum interval, or whose
    /// growth cost exceeds the whole budget, has yield 0 (it cannot
    /// convert allowance into savings). Donors above the default interval
    /// keep a sustain reserve `β(I_i)/(1−γ)` so a transfer never forces a
    /// collapse of banked savings.
    fn compute_iterative(
        &self,
        reports: &[PeriodReport],
        slack_ratio: f64,
        yields: &[f64],
    ) -> (Vec<f64>, Vec<f64>, bool) {
        let slack = (1.0 - slack_ratio).max(f64::MIN_POSITIVE);
        let floor = self.floor();
        let yields = yields.to_vec();

        // Recipient: highest yield. Donor: lowest yield among monitors
        // holding more than the floor.
        let recipient = match yields
            .iter()
            .enumerate()
            .filter(|(_, y)| **y > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            Some((i, _)) => i,
            None => return (self.allowances.clone(), yields, true),
        };
        let donor = match yields
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != recipient && self.allowances[*i] > floor + 1e-15)
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            Some((i, _)) => i,
            None => return (self.allowances.clone(), yields, true),
        };
        // Throttle: skip when the yield spread is already near-uniform.
        if yields[donor] > 0.0 && yields[recipient] / yields[donor] < self.config.uniform_skip_ratio
        {
            return (self.allowances.clone(), yields, true);
        }
        // Sustain reserve: a donor holding a grown interval keeps enough
        // allowance that its current interval survives the transfer.
        let reserve = if reports[donor].interval > crate::Interval::DEFAULT {
            (reports[donor].avg_beta_current / slack).min(self.global_err)
        } else {
            0.0
        };
        let donor_floor = floor.max(reserve);
        let movable = (self.allowances[donor] - donor_floor).max(0.0);
        let quantum = (self.global_err * self.config.transfer_fraction).min(movable);
        if quantum <= 0.0 {
            return (self.allowances.clone(), yields, true);
        }
        let mut new_allowances = self.allowances.clone();
        new_allowances[donor] -= quantum;
        new_allowances[recipient] += quantum;
        (new_allowances, yields, false)
    }

    /// The paper-literal proportional rule with both throttles. Returns
    /// `(allowances, yields, skipped)`.
    fn compute_proportional(
        &self,
        reports: &[PeriodReport],
        slack_ratio: f64,
    ) -> (Vec<f64>, Vec<f64>, bool) {
        let yields: Vec<f64> = reports
            .iter()
            .map(|r| self.yield_for(r, slack_ratio))
            .collect();
        let max_y = yields.iter().cloned().fold(f64::MIN, f64::max);
        let min_y = yields.iter().cloned().fold(f64::MAX, f64::min);
        let near_uniform = min_y > 0.0 && max_y / min_y < self.config.uniform_skip_ratio;
        let total_yield: f64 = yields.iter().sum();
        if near_uniform || !total_yield.is_finite() || total_yield <= 0.0 {
            return (self.allowances.clone(), yields, true);
        }
        let n = self.allowances.len() as f64;
        let floor = self.floor();
        let distributable = (self.global_err - floor * n).max(0.0);
        let allowances: Vec<f64> = yields
            .iter()
            .map(|y| floor + distributable * (y / total_yield))
            .collect();
        (allowances, yields, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Interval;

    fn report(interval: u32, beta_grown: f64) -> PeriodReport {
        PeriodReport {
            observations: 100,
            avg_beta_current: beta_grown / 2.0,
            avg_beta_grown: beta_grown,
            avg_potential_reduction: 1.0 - 1.0 / f64::from(interval + 1),
            interval: Interval::new_clamped(interval),
            at_max_interval: false,
        }
    }

    fn proportional_config() -> AllocationConfig {
        AllocationConfig {
            strategy: AllocationStrategy::Proportional,
            ..AllocationConfig::default()
        }
    }

    #[test]
    fn starts_even() {
        let a = ErrorAllocator::new(AllocationConfig::default(), 0.02, 4).unwrap();
        for &x in a.allowances() {
            assert!((x - 0.005).abs() < 1e-15);
        }
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(ErrorAllocator::new(AllocationConfig::default(), 0.01, 0).is_err());
        assert!(ErrorAllocator::new(AllocationConfig::default(), -0.1, 2).is_err());
        assert!(ErrorAllocator::new(AllocationConfig::default(), 1.5, 2).is_err());
        let bad = AllocationConfig {
            min_fraction: 2.0,
            ..AllocationConfig::default()
        };
        assert!(ErrorAllocator::new(bad, 0.01, 2).is_err());
        let bad = AllocationConfig {
            uniform_skip_ratio: 0.5,
            ..AllocationConfig::default()
        };
        assert!(ErrorAllocator::new(bad, 0.01, 2).is_err());
        let bad = AllocationConfig {
            update_period_ticks: 0,
            ..AllocationConfig::default()
        };
        assert!(ErrorAllocator::new(bad, 0.01, 2).is_err());
    }

    #[test]
    fn proportional_high_yield_monitor_gains_allowance() {
        let mut a = ErrorAllocator::new(proportional_config(), 0.01, 2).unwrap();
        let reports = [report(4, 0.001), report(1, 0.9)];
        let d = a.update(&reports, 0.2).unwrap();
        assert!(d.reallocated);
        assert!(a.allowances()[0] > a.allowances()[1]);
    }

    #[test]
    fn proportional_sum_never_exceeds_global() {
        let mut a = ErrorAllocator::new(proportional_config(), 0.01, 5).unwrap();
        let reports: Vec<PeriodReport> = (0..5)
            .map(|i| report(i + 1, 0.001 * f64::from(i + 1)))
            .collect();
        for _ in 0..20 {
            a.update(&reports, 0.2).unwrap();
            let sum: f64 = a.allowances().iter().sum();
            assert!(sum <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn proportional_near_uniform_yields_skip_reallocation() {
        let mut a = ErrorAllocator::new(proportional_config(), 0.01, 3).unwrap();
        let reports = [report(2, 0.01), report(2, 0.0101), report(2, 0.0099)];
        let d = a.update(&reports, 0.2).unwrap();
        assert!(!d.reallocated);
        assert_eq!(a.reallocations(), 0);
        assert_eq!(a.rounds(), 1);
    }

    #[test]
    fn single_monitor_never_reallocates() {
        for config in [AllocationConfig::default(), proportional_config()] {
            let mut a = ErrorAllocator::new(config, 0.01, 1).unwrap();
            let d = a.update(&[report(3, 0.1)], 0.2).unwrap();
            assert!(!d.reallocated);
            assert_eq!(a.allowances(), &[0.01]);
        }
    }

    #[test]
    fn mismatched_reports_error() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.01, 2).unwrap();
        assert!(matches!(
            a.update(&[report(1, 0.1)], 0.2),
            Err(VolleyError::ValueCountMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn yield_modes_differ() {
        let a = ErrorAllocator::new(proportional_config(), 0.01, 2).unwrap();
        let marginal_cfg = AllocationConfig {
            yield_mode: YieldMode::Marginal,
            ..proportional_config()
        };
        let b = ErrorAllocator::new(marginal_cfg, 0.01, 2).unwrap();
        let r = report(4, 0.01);
        let y_total = a.yield_for(&r, 0.2);
        let y_marginal = b.yield_for(&r, 0.2);
        // Total reduction (0.8) far exceeds marginal (1/4 − 1/5 = 0.05).
        assert!(y_total > y_marginal);
    }

    #[test]
    fn cost_modes_differ() {
        let grown = ErrorAllocator::new(proportional_config(), 0.01, 2).unwrap();
        let current_cfg = AllocationConfig {
            cost_mode: AllowanceCostMode::Current,
            ..proportional_config()
        };
        let current = ErrorAllocator::new(current_cfg, 0.01, 2).unwrap();
        let r = report(4, 0.02); // avg_beta_current = 0.01
        assert!(current.yield_for(&r, 0.2) > grown.yield_for(&r, 0.2));
    }

    #[test]
    fn iterative_moves_one_quantum_toward_high_yield() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.01, 3).unwrap();
        // Monitor 0 cheap to grow, monitor 2 hopeless (β too large).
        let reports = [report(2, 0.0001), report(2, 0.001), report(1, 0.9)];
        let d = a.update(&reports, 0.2).unwrap();
        assert!(d.reallocated);
        let quantum = 0.01 * a.config().transfer_fraction;
        let even = 0.01 / 3.0;
        assert!(
            (a.allowances()[0] - (even + quantum)).abs() < 1e-12,
            "{:?}",
            a.allowances()
        );
        assert!((a.allowances()[2] - (even - quantum)).abs() < 1e-12);
        assert!(
            (a.allowances()[1] - even).abs() < 1e-15,
            "bystander untouched"
        );
    }

    #[test]
    fn iterative_conserves_total_allowance() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.02, 4).unwrap();
        let reports = [
            report(2, 0.0001),
            report(2, 0.001),
            report(1, 0.9),
            report(3, 0.0005),
        ];
        for _ in 0..50 {
            a.update(&reports, 0.2).unwrap();
            let sum: f64 = a.allowances().iter().sum();
            assert!((sum - 0.02).abs() < 1e-12);
            let floor = 0.02 * a.config().min_fraction;
            for &x in a.allowances() {
                assert!(x >= floor - 1e-12);
            }
        }
    }

    #[test]
    fn iterative_stops_draining_at_floor() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.01, 2).unwrap();
        let reports = [report(2, 0.0001), report(1, 0.9)];
        for _ in 0..100 {
            a.update(&reports, 0.2).unwrap();
        }
        let floor = 0.01 * a.config().min_fraction;
        assert!(
            (a.allowances()[1] - floor).abs() < 1e-12,
            "{:?}",
            a.allowances()
        );
        assert!((a.allowances()[0] - (0.01 - floor)).abs() < 1e-12);
    }

    #[test]
    fn iterative_skips_when_yields_uniform() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.01, 3).unwrap();
        let reports = [report(2, 0.001), report(2, 0.00101), report(2, 0.00099)];
        let d = a.update(&reports, 0.2).unwrap();
        assert!(!d.reallocated);
    }

    #[test]
    fn iterative_donor_keeps_sustain_reserve() {
        let mut a = ErrorAllocator::new(AllocationConfig::default(), 0.01, 2).unwrap();
        // Donor holds interval 4 and needs avg β(4)/(1−γ) to keep it;
        // recipient's yield is higher (cheaper growth).
        let mut donor = report(4, 0.004);
        donor.avg_beta_current = 0.003; // sustain need = 0.00375
        let recipient = report(2, 0.00001);
        let reports = [recipient, donor];
        for _ in 0..100 {
            a.update(&reports, 0.2).unwrap();
        }
        assert!(
            a.allowances()[1] >= 0.003 / 0.8 - 1e-12,
            "donor dropped below its sustain reserve: {:?}",
            a.allowances()
        );
    }
}
