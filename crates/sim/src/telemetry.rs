//! Per-server telemetry: CPU utilization windows and operation counters.
//!
//! Figure 6 reports the *distribution* of Dom0 CPU utilization over
//! servers and time as box plots. [`ServerTelemetry`] accumulates Dom0
//! busy time into fixed windows and converts it to utilization samples.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// One utilization measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationWindow {
    /// Window start time.
    pub start: SimTime,
    /// CPU utilization in `[0, 1]` (busy time over window length, capped
    /// at 1 — a saturated Dom0 cannot exceed one core here, matching the
    /// paper's per-core percentage reporting).
    pub utilization: f64,
}

/// Accumulates one server's Dom0 busy time and sampling counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerTelemetry {
    window: SimDuration,
    /// Busy seconds per window index.
    busy: Vec<f64>,
    /// Sampling operations charged per window index.
    #[serde(default)]
    ops: Vec<u64>,
}

impl ServerTelemetry {
    /// Creates a recorder with the given utilization window length.
    ///
    /// A zero window is clamped to one microsecond.
    pub fn new(window: SimDuration) -> Self {
        let window = if window == SimDuration::ZERO {
            SimDuration::from_micros(1)
        } else {
            window
        };
        ServerTelemetry {
            window,
            busy: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Total sampling operations recorded (sum over all windows).
    pub fn sampling_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Charges one sampling operation of the given busy `cost` starting at
    /// `time`.
    ///
    /// The busy time lands entirely in the window containing `time`
    /// (sampling operations are far shorter than windows).
    pub fn charge_sample(&mut self, time: SimTime, cost: SimDuration) {
        let idx = (time.as_micros() / self.window.as_micros()) as usize;
        if self.busy.len() <= idx {
            self.busy.resize(idx + 1, 0.0);
        }
        // Resized separately: a deserialized recorder from before the
        // per-window split arrives with `ops` empty but `busy` populated.
        if self.ops.len() <= idx {
            self.ops.resize(idx + 1, 0);
        }
        self.busy[idx] += cost.as_secs_f64();
        self.ops[idx] += 1;
    }

    /// Folds another recorder's windows into this one (element-wise
    /// sums) — how the sharded engine combines per-shard recorders for
    /// a server charged from more than one shard. Window lengths must
    /// match.
    ///
    /// # Panics
    ///
    /// Panics when the window lengths differ.
    pub fn merge_from(&mut self, other: &ServerTelemetry) {
        assert_eq!(
            self.window, other.window,
            "cannot merge recorders with different windows"
        );
        if self.busy.len() < other.busy.len() {
            self.busy.resize(other.busy.len(), 0.0);
        }
        if self.ops.len() < other.ops.len() {
            self.ops.resize(other.ops.len(), 0);
        }
        for (into, from) in self.busy.iter_mut().zip(&other.busy) {
            *into += from;
        }
        for (into, from) in self.ops.iter_mut().zip(&other.ops) {
            *into += from;
        }
    }

    /// Produces the utilization series up to `horizon`, with zero-valued
    /// windows where the server was idle.
    pub fn utilization_series(&self, horizon: SimTime) -> Vec<UtilizationWindow> {
        let window_secs = self.window.as_secs_f64();
        let windows = (horizon.as_micros() / self.window.as_micros()) as usize;
        (0..windows.max(self.busy.len()))
            .map(|idx| UtilizationWindow {
                start: SimTime::from_micros(idx as u64 * self.window.as_micros()),
                utilization: (self.busy.get(idx).copied().unwrap_or(0.0) / window_secs).min(1.0),
            })
            .collect()
    }

    /// The raw utilization values (convenience for summarizing).
    pub fn utilization_values(&self, horizon: SimTime) -> Vec<f64> {
        self.utilization_series(horizon)
            .into_iter()
            .map(|w| w.utilization)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn busy_time_lands_in_correct_window() {
        let mut t = ServerTelemetry::new(secs(15.0));
        t.charge_sample(SimTime::from_secs_f64(1.0), secs(3.0));
        t.charge_sample(SimTime::from_secs_f64(16.0), secs(7.5));
        let series = t.utilization_series(SimTime::from_secs_f64(30.0));
        assert_eq!(series.len(), 2);
        assert!((series[0].utilization - 0.2).abs() < 1e-9);
        assert!((series[1].utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_windows_are_zero() {
        let mut t = ServerTelemetry::new(secs(10.0));
        t.charge_sample(SimTime::from_secs_f64(25.0), secs(1.0));
        let series = t.utilization_series(SimTime::from_secs_f64(40.0));
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].utilization, 0.0);
        assert_eq!(series[1].utilization, 0.0);
        assert!(series[2].utilization > 0.0);
        assert_eq!(series[3].utilization, 0.0);
    }

    #[test]
    fn utilization_caps_at_one() {
        let mut t = ServerTelemetry::new(secs(1.0));
        t.charge_sample(SimTime::ZERO, secs(5.0));
        let series = t.utilization_series(SimTime::from_secs_f64(1.0));
        assert_eq!(series[0].utilization, 1.0);
    }

    #[test]
    fn counts_sampling_ops() {
        let mut t = ServerTelemetry::new(secs(1.0));
        for i in 0..7 {
            t.charge_sample(SimTime::from_secs_f64(f64::from(i)), secs(0.01));
        }
        assert_eq!(t.sampling_ops(), 7);
    }

    #[test]
    fn multiple_charges_accumulate() {
        let mut t = ServerTelemetry::new(secs(10.0));
        for _ in 0..4 {
            t.charge_sample(SimTime::from_secs_f64(2.0), secs(1.0));
        }
        let v = t.utilization_values(SimTime::from_secs_f64(10.0));
        assert!((v[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_clamped() {
        let t = ServerTelemetry::new(SimDuration::ZERO);
        assert_eq!(t.window(), SimDuration::from_micros(1));
    }

    #[test]
    fn merge_from_sums_busy_and_ops() {
        let mut a = ServerTelemetry::new(secs(10.0));
        let mut b = ServerTelemetry::new(secs(10.0));
        a.charge_sample(SimTime::from_secs_f64(1.0), secs(2.0));
        b.charge_sample(SimTime::from_secs_f64(2.0), secs(1.0));
        b.charge_sample(SimTime::from_secs_f64(25.0), secs(5.0));
        a.merge_from(&b);
        let horizon = SimTime::from_secs_f64(30.0);
        let values = a.utilization_values(horizon);
        assert!((values[0] - 0.3).abs() < 1e-9);
        assert!((values[2] - 0.5).abs() < 1e-9);
        assert_eq!(a.sampling_ops(), 3);
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn merge_from_rejects_mismatched_windows() {
        let mut a = ServerTelemetry::new(secs(10.0));
        a.merge_from(&ServerTelemetry::new(secs(5.0)));
    }

    #[test]
    fn window_starts_align() {
        let mut t = ServerTelemetry::new(secs(5.0));
        t.charge_sample(SimTime::from_secs_f64(12.0), secs(0.5));
        let series = t.utilization_series(SimTime::from_secs_f64(15.0));
        assert_eq!(series[2].start, SimTime::from_secs_f64(10.0));
    }
}
