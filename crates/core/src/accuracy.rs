//! Ground-truth cost/accuracy accounting (§III-A, §V).
//!
//! The paper measures accuracy *relative to periodic sampling at the
//! default interval* `I_d`: the error allowance `err` is "an acceptable
//! probability of mis-detecting violations (compared with periodical
//! sampling using `I_d`)". Accordingly, this module defines ground truth
//! as the set of ticks at which a periodic-`I_d` sampler would raise a
//! state alert, and scores a dynamic scheme by the fraction of those ticks
//! it fails to observe.

use serde::{Deserialize, Serialize};

use crate::time::Tick;

/// The set of violation ticks a periodic default-interval sampler would
/// detect — the accuracy baseline.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    violation_ticks: Vec<Tick>,
    total_ticks: u64,
}

impl GroundTruth {
    /// Scans a full-resolution single-metric trace (one value per tick)
    /// and records every tick where `value > threshold`.
    pub fn from_trace(trace: &[f64], threshold: f64) -> Self {
        let violation_ticks = trace
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > threshold)
            .map(|(t, _)| t as Tick)
            .collect();
        GroundTruth {
            violation_ticks,
            total_ticks: trace.len() as u64,
        }
    }

    /// Scans per-monitor full-resolution traces of a distributed task and
    /// records every tick where the aggregate `Σ v_i` exceeds the global
    /// threshold.
    ///
    /// All traces must have equal length; extra ticks in longer traces are
    /// ignored.
    pub fn from_aggregate_traces(traces: &[Vec<f64>], global_threshold: f64) -> Self {
        let len = traces.iter().map(|t| t.len()).min().unwrap_or(0);
        let mut violation_ticks = Vec::new();
        for tick in 0..len {
            let sum: f64 = traces.iter().map(|t| t[tick]).sum();
            if sum > global_threshold {
                violation_ticks.push(tick as Tick);
            }
        }
        GroundTruth {
            violation_ticks,
            total_ticks: len as u64,
        }
    }

    /// The ticks at which violations occur.
    pub fn violation_ticks(&self) -> &[Tick] {
        &self.violation_ticks
    }

    /// Number of violation ticks.
    pub fn violation_count(&self) -> usize {
        self.violation_ticks.len()
    }

    /// Total trace length in ticks.
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Groups consecutive violation ticks into *events* and returns their
    /// `(start, end)` tick ranges (inclusive). A DDoS ramp that keeps the
    /// value above the threshold for 12 windows is one event, not twelve
    /// — the unit an operator actually counts alerts in.
    pub fn violation_events(&self) -> Vec<(Tick, Tick)> {
        let mut events = Vec::new();
        let mut current: Option<(Tick, Tick)> = None;
        for &t in &self.violation_ticks {
            current = match current {
                Some((start, end)) if t == end + 1 => Some((start, t)),
                Some(done) => {
                    events.push(done);
                    Some((t, t))
                }
                None => Some((t, t)),
            };
        }
        if let Some(done) = current {
            events.push(done);
        }
        events
    }

    /// The violation selectivity actually realized by the trace (fraction
    /// of violating ticks), `0` for an empty trace.
    pub fn selectivity(&self) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            self.violation_count() as f64 / self.total_ticks as f64
        }
    }
}

/// Log of what a monitoring scheme actually did: which ticks it sampled
/// (or globally polled) and which ticks raised alerts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectionLog {
    sampled_ticks: Vec<Tick>,
    alert_ticks: Vec<Tick>,
    sampling_ops: u64,
}

impl DetectionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DetectionLog::default()
    }

    /// Records that the scheme evaluated the (global) state at `tick`,
    /// spending `ops` sampling operations, optionally raising an alert.
    pub fn record(&mut self, tick: Tick, ops: u32, alerted: bool) {
        if ops > 0 {
            // Keep the tick list deduplicated and sorted (callers advance
            // tick monotonically).
            if self.sampled_ticks.last() != Some(&tick) {
                self.sampled_ticks.push(tick);
            }
            self.sampling_ops += u64::from(ops);
        }
        if alerted {
            self.alert_ticks.push(tick);
        }
    }

    /// Ticks at which the state was evaluated.
    pub fn sampled_ticks(&self) -> &[Tick] {
        &self.sampled_ticks
    }

    /// Ticks at which alerts were raised.
    pub fn alert_ticks(&self) -> &[Tick] {
        &self.alert_ticks
    }

    /// Total sampling operations spent.
    pub fn sampling_ops(&self) -> u64 {
        self.sampling_ops
    }

    /// Event-level detection: the fraction of ground-truth violation
    /// *events* during which the scheme sampled at least once. An event
    /// caught mid-ramp still counts as detected — the operator got the
    /// alert — even though its earliest ticks were missed.
    pub fn score_events(&self, truth: &GroundTruth) -> (usize, usize) {
        let sampled: std::collections::HashSet<Tick> = self.sampled_ticks.iter().copied().collect();
        let events = truth.violation_events();
        let detected = events
            .iter()
            .filter(|(start, end)| (*start..=*end).any(|t| sampled.contains(&t)))
            .count();
        (events.len(), detected)
    }

    /// Scores this log against the ground truth, with
    /// `baseline_ops` = the number of sampling operations periodic
    /// default-interval sampling would have spent.
    pub fn score(&self, truth: &GroundTruth, baseline_ops: u64) -> AccuracyReport {
        let sampled: std::collections::HashSet<Tick> = self.sampled_ticks.iter().copied().collect();
        let mut detected = 0usize;
        for t in truth.violation_ticks() {
            if sampled.contains(t) {
                detected += 1;
            }
        }
        let total = truth.violation_count();
        AccuracyReport {
            violations: total,
            detected,
            missed: total - detected,
            sampling_ops: self.sampling_ops,
            baseline_ops,
        }
    }
}

/// Cost and accuracy of a monitoring scheme relative to the periodic
/// default-interval baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Ground-truth violations (ticks a periodic-`I_d` sampler alerts on).
    pub violations: usize,
    /// Violations the scheme observed.
    pub detected: usize,
    /// Violations the scheme missed.
    pub missed: usize,
    /// Sampling operations the scheme spent.
    pub sampling_ops: u64,
    /// Sampling operations the periodic baseline would spend.
    pub baseline_ops: u64,
}

impl AccuracyReport {
    /// The mis-detection rate: missed violations over total violations
    /// (`0` when the trace contains no violations).
    pub fn misdetection_rate(&self) -> f64 {
        if self.violations == 0 {
            0.0
        } else {
            self.missed as f64 / self.violations as f64
        }
    }

    /// The cost ratio versus the periodic baseline (`≤ 1` is a saving).
    pub fn cost_ratio(&self) -> f64 {
        if self.baseline_ops == 0 {
            1.0
        } else {
            self.sampling_ops as f64 / self.baseline_ops as f64
        }
    }

    /// The fraction of baseline sampling cost saved (`1 − cost_ratio`).
    pub fn savings(&self) -> f64 {
        1.0 - self.cost_ratio()
    }

    /// Merges two reports (e.g. across tasks of the same family).
    #[must_use]
    pub fn merged(&self, other: &AccuracyReport) -> AccuracyReport {
        AccuracyReport {
            violations: self.violations + other.violations,
            detected: self.detected + other.detected,
            missed: self.missed + other.missed,
            sampling_ops: self.sampling_ops + other.sampling_ops,
            baseline_ops: self.baseline_ops + other.baseline_ops,
        }
    }
}

/// Runs a single-monitor sampling policy over a full-resolution trace and
/// returns its accuracy report — the workhorse of the Figure 5/7
/// experiments.
///
/// The policy sees `trace[t]` only at ticks it chose to sample; ground
/// truth is every tick with `trace[t] > threshold`.
pub fn evaluate_policy(policy: &mut dyn crate::SamplingPolicy, trace: &[f64]) -> AccuracyReport {
    let truth = GroundTruth::from_trace(trace, policy.threshold());
    sample_log(trace, |tick, value| policy.observe(tick, value)).score(&truth, trace.len() as u64)
}

/// Drives `observe` over `trace` exactly as a monitor would — called
/// only at the ticks the previous observation scheduled — and returns
/// the log of what was sampled and flagged.
pub fn sample_log(
    trace: &[f64],
    mut observe: impl FnMut(Tick, f64) -> crate::Observation,
) -> DetectionLog {
    let mut log = DetectionLog::new();
    let mut next_tick: Tick = 0;
    for (t, &value) in trace.iter().enumerate() {
        let tick = t as Tick;
        if tick >= next_tick {
            let obs = observe(tick, value);
            log.record(tick, 1, obs.violation);
            next_tick = obs.next_sample_tick;
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptationConfig, AdaptiveSampler, Interval, PeriodicSampler};

    #[test]
    fn ground_truth_finds_violations() {
        let trace = [1.0, 5.0, 2.0, 6.0, 6.5];
        let truth = GroundTruth::from_trace(&trace, 4.0);
        assert_eq!(truth.violation_ticks(), &[1, 3, 4]);
        assert_eq!(truth.violation_count(), 3);
        assert_eq!(truth.total_ticks(), 5);
        assert!((truth.selectivity() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn aggregate_ground_truth() {
        let traces = vec![vec![1.0, 4.0, 1.0], vec![1.0, 4.0, 1.0]];
        let truth = GroundTruth::from_aggregate_traces(&traces, 5.0);
        assert_eq!(truth.violation_ticks(), &[1]);
    }

    #[test]
    fn aggregate_truth_handles_unequal_lengths() {
        let traces = vec![vec![10.0, 10.0, 10.0], vec![10.0]];
        let truth = GroundTruth::from_aggregate_traces(&traces, 5.0);
        assert_eq!(truth.total_ticks(), 1);
    }

    #[test]
    fn empty_truth_has_zero_selectivity() {
        let truth = GroundTruth::from_trace(&[], 1.0);
        assert_eq!(truth.selectivity(), 0.0);
        assert_eq!(truth.violation_count(), 0);
    }

    #[test]
    fn events_group_consecutive_ticks() {
        let mut trace = vec![0.0; 30];
        for t in [3usize, 4, 5, 10, 20, 21] {
            trace[t] = 9.0;
        }
        let truth = GroundTruth::from_trace(&trace, 5.0);
        assert_eq!(truth.violation_events(), vec![(3, 5), (10, 10), (20, 21)]);
        assert!(GroundTruth::from_trace(&[], 1.0)
            .violation_events()
            .is_empty());
    }

    #[test]
    fn event_scoring_counts_mid_event_catches() {
        let mut trace = vec![0.0; 30];
        trace[10..16].fill(9.0); // one 6-tick event
        let truth = GroundTruth::from_trace(&trace, 5.0);
        let mut log = DetectionLog::new();
        // The scheme only sampled tick 13 — mid-event.
        log.record(13, 1, true);
        let (events, detected) = log.score_events(&truth);
        assert_eq!((events, detected), (1, 1));
        // Tick-level scoring still records the missed early ticks.
        let report = log.score(&truth, 30);
        assert_eq!(report.detected, 1);
        assert_eq!(report.missed, 5);
    }

    #[test]
    fn event_scoring_misses_unsampled_events() {
        let mut trace = vec![0.0; 30];
        trace[5] = 9.0;
        trace[25] = 9.0;
        let truth = GroundTruth::from_trace(&trace, 5.0);
        let mut log = DetectionLog::new();
        log.record(5, 1, true);
        log.record(20, 1, false);
        let (events, detected) = log.score_events(&truth);
        assert_eq!((events, detected), (2, 1));
    }

    #[test]
    fn log_deduplicates_ticks_and_counts_ops() {
        let mut log = DetectionLog::new();
        log.record(3, 2, false);
        log.record(3, 1, true);
        log.record(5, 1, false);
        assert_eq!(log.sampled_ticks(), &[3, 5]);
        assert_eq!(log.sampling_ops(), 4);
        assert_eq!(log.alert_ticks(), &[3]);
    }

    #[test]
    fn zero_ops_record_does_not_mark_sampled() {
        let mut log = DetectionLog::new();
        log.record(1, 0, false);
        assert!(log.sampled_ticks().is_empty());
    }

    #[test]
    fn periodic_baseline_detects_everything() {
        let trace: Vec<f64> = (0..200)
            .map(|t| if t % 50 == 49 { 10.0 } else { 0.0 })
            .collect();
        let mut policy = PeriodicSampler::new(Interval::DEFAULT, 5.0);
        let report = evaluate_policy(&mut policy, &trace);
        assert_eq!(report.misdetection_rate(), 0.0);
        assert_eq!(report.cost_ratio(), 1.0);
        assert_eq!(report.violations, 4);
    }

    #[test]
    fn coarse_periodic_misses_violations() {
        // Violations at ticks 10 and 25; a 4-tick periodic sampler
        // (sampling 0, 4, 8, 12, ...) misses both.
        let mut trace = vec![0.0; 40];
        trace[10] = 10.0;
        trace[25] = 10.0;
        let mut policy = PeriodicSampler::new(Interval::new(4).unwrap(), 5.0);
        let report = evaluate_policy(&mut policy, &trace);
        assert_eq!(report.missed, 2);
        assert_eq!(report.misdetection_rate(), 1.0);
        assert!(report.cost_ratio() < 0.3);
    }

    #[test]
    fn adaptive_policy_saves_cost_on_quiet_trace() {
        let trace: Vec<f64> = (0..5000).map(|t| 10.0 + ((t % 13) as f64) * 0.1).collect();
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(16)
            .patience(5)
            .warmup_samples(5)
            .build()
            .unwrap();
        let mut policy = AdaptiveSampler::new(cfg, 100.0);
        let report = evaluate_policy(&mut policy, &trace);
        assert_eq!(report.violations, 0);
        assert!(
            report.savings() > 0.4,
            "savings {} too small",
            report.savings()
        );
    }

    #[test]
    fn report_merging_adds_fields() {
        let a = AccuracyReport {
            violations: 4,
            detected: 3,
            missed: 1,
            sampling_ops: 10,
            baseline_ops: 20,
        };
        let b = AccuracyReport {
            violations: 6,
            detected: 6,
            missed: 0,
            sampling_ops: 5,
            baseline_ops: 20,
        };
        let m = a.merged(&b);
        assert_eq!(m.violations, 10);
        assert_eq!(m.missed, 1);
        assert!((m.misdetection_rate() - 0.1).abs() < 1e-12);
        assert!((m.cost_ratio() - 15.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_cost_ratio_is_one() {
        let r = AccuracyReport {
            violations: 0,
            detected: 0,
            missed: 0,
            sampling_ops: 0,
            baseline_ops: 0,
        };
        assert_eq!(r.cost_ratio(), 1.0);
        assert_eq!(r.misdetection_rate(), 0.0);
    }
}
