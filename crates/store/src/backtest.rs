//! Offline backtesting: replay a recorded range through a candidate
//! [`TaskSpec`] and compare against what production actually did.
//!
//! The recorded `Sample`/`PollSample` series are treated as ground
//! truth. A recording made at `error_allowance = 0` samples every
//! monitor every tick, so the step-hold reconstruction *is* the true
//! signal and a same-config replay must reproduce the recorded alert
//! set exactly — the determinism gate `volley backtest --verify`
//! enforces. Candidate configs then trade that exactness for cost: the
//! replay reports the paper's Fig. 5 axes (sampling-cost ratio and
//! missed/extra alerts) against the recorded baseline.
//!
//! Replays reuse the deterministic sim clock: each tick advances a
//! fixed [`SimDuration`] window (default 15 s, the paper's monitoring
//! window), so reported elapsed time is simulated, reproducible, and
//! independent of wall-clock.

use std::collections::BTreeMap;
use std::io;

use serde::Serialize;
use volley_core::{DistributedTask, TaskSpec, Tick, VolleyError};
use volley_sim::{SimDuration, SimTime};

use crate::record::{RecordKind, TASK_WIDE};
use crate::store::{ScanRange, Store, TaskMeta};

/// Default simulated span of one tick: the paper's 15-second monitoring
/// window.
pub const DEFAULT_TICK_WINDOW: SimDuration = SimDuration::from_micros(15_000_000);

/// A recorded range loaded for replay: per-monitor step-hold series plus
/// the production alert set and sampling cost.
#[derive(Debug, Clone)]
pub struct Backtest {
    series: Vec<BTreeMap<Tick, f64>>,
    recorded_alerts: Vec<Tick>,
    recorded_samples: u64,
    from: Tick,
    to: Tick,
    window: SimDuration,
}

/// What a replay did, compared against the recording.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplayOutcome {
    /// The candidate config's error allowance.
    pub error_allowance: f64,
    /// Ticks replayed.
    pub ticks: u64,
    /// Samples the candidate config paid for.
    pub samples: u64,
    /// Candidate sampling-cost ratio versus the periodic baseline.
    pub cost_ratio: f64,
    /// Cost ratio the recording paid over the same range.
    pub recorded_cost_ratio: f64,
    /// `cost_ratio - recorded_cost_ratio` (negative = candidate cheaper).
    pub cost_delta: f64,
    /// Ticks the replay alerted on.
    pub alert_ticks: Vec<Tick>,
    /// Recorded alerts the replay also raised.
    pub matched_alerts: usize,
    /// Recorded alerts the replay missed (mis-detections).
    pub missed_alerts: Vec<Tick>,
    /// Replay alerts the recording never raised.
    pub extra_alerts: Vec<Tick>,
    /// Whether the replay reproduced the recorded alert set exactly.
    pub exact_match: bool,
    /// Simulated time the replayed range spans.
    pub sim_elapsed: SimDuration,
}

impl Backtest {
    /// Loads task `task`'s records in `range` from the store. Returns
    /// `None` when the range holds no samples. The caller's `task` and
    /// tick bounds compose with any filters already on `range`; kind and
    /// monitor filters are overridden (a backtest needs all of them).
    pub fn load(store: &Store, task: u32, range: &ScanRange) -> io::Result<Option<Backtest>> {
        let range = ScanRange {
            task: Some(task),
            monitor: None,
            kind: None,
            ..*range
        };
        let mut series: Vec<BTreeMap<Tick, f64>> = Vec::new();
        let mut recorded_alerts = Vec::new();
        let mut recorded_samples = 0u64;
        let mut from = Tick::MAX;
        let mut to = 0;
        for record in store.scan(&range)? {
            match record.kind {
                RecordKind::Sample | RecordKind::PollSample if record.monitor != TASK_WIDE => {
                    let slot = record.monitor as usize;
                    if slot >= series.len() {
                        series.resize_with(slot + 1, BTreeMap::new);
                    }
                    series[slot].insert(record.tick, record.value);
                    recorded_samples += 1;
                    from = from.min(record.tick);
                    to = to.max(record.tick);
                }
                RecordKind::Alert => recorded_alerts.push(record.tick),
                _ => {}
            }
        }
        if recorded_samples == 0 {
            return Ok(None);
        }
        recorded_alerts.sort_unstable();
        recorded_alerts.dedup();
        // Alerts outside the sampled span can't be reproduced from the
        // data at hand; keep the comparison honest by clipping.
        recorded_alerts.retain(|&t| t >= from && t <= to);
        Ok(Some(Backtest {
            series,
            recorded_alerts,
            recorded_samples,
            from,
            to,
            window: DEFAULT_TICK_WINDOW,
        }))
    }

    /// Monitors in the recording.
    pub fn monitors(&self) -> usize {
        self.series.len()
    }

    /// Ticks in the replayed range (inclusive bounds).
    pub fn ticks(&self) -> u64 {
        self.to - self.from + 1
    }

    /// The production alert ticks inside the range.
    pub fn recorded_alert_ticks(&self) -> &[Tick] {
        &self.recorded_alerts
    }

    /// Samples the recording paid for inside the range.
    pub fn recorded_samples(&self) -> u64 {
        self.recorded_samples
    }

    /// The recording's sampling-cost ratio versus the periodic baseline.
    pub fn recorded_cost_ratio(&self) -> f64 {
        let baseline = self.ticks() * self.series.len() as u64;
        if baseline == 0 {
            1.0
        } else {
            self.recorded_samples as f64 / baseline as f64
        }
    }

    /// A spec candidate built from recorded metadata with one knob
    /// swapped: the error allowance. `None` keeps the recorded value
    /// (the determinism candidate).
    pub fn candidate_spec(
        meta: &TaskMeta,
        error_allowance: Option<f64>,
    ) -> Result<TaskSpec, VolleyError> {
        TaskSpec::builder(meta.global_threshold)
            .monitors(meta.monitors)
            .error_allowance(error_allowance.unwrap_or(meta.error_allowance))
            .build()
    }

    /// Replays the range through `spec` on the sim clock.
    ///
    /// # Errors
    ///
    /// [`VolleyError::ValueCountMismatch`] when `spec` has a different
    /// monitor count than the recording; otherwise propagates task
    /// construction errors.
    pub fn replay(&self, spec: &TaskSpec) -> Result<ReplayOutcome, VolleyError> {
        let mut task = DistributedTask::new(spec)?;
        if task.monitor_count() != self.series.len() {
            return Err(VolleyError::ValueCountMismatch {
                got: task.monitor_count(),
                expected: self.series.len(),
            });
        }
        // Step-hold reconstruction: each monitor's value holds at its
        // most recent sample; before the first sample it backfills from
        // it (at error allowance 0 every tick is sampled, so backfill
        // never actually engages there).
        let mut values: Vec<f64> = self
            .series
            .iter()
            .map(|s| s.values().next().copied().unwrap_or(0.0))
            .collect();
        let mut clock = SimTime::ZERO;
        let mut alert_ticks = Vec::new();
        for tick in self.from..=self.to {
            for (slot, series) in self.series.iter().enumerate() {
                if let Some(&v) = series.get(&tick) {
                    values[slot] = v;
                }
            }
            let outcome = task.step(tick, &values)?;
            if outcome.alerted() {
                alert_ticks.push(tick);
            }
            clock += self.window;
        }
        let matched = alert_ticks
            .iter()
            .filter(|t| self.recorded_alerts.binary_search(t).is_ok())
            .count();
        let missed_alerts: Vec<Tick> = self
            .recorded_alerts
            .iter()
            .filter(|t| !alert_ticks.contains(t))
            .copied()
            .collect();
        let extra_alerts: Vec<Tick> = alert_ticks
            .iter()
            .filter(|t| self.recorded_alerts.binary_search(t).is_err())
            .copied()
            .collect();
        let recorded_cost_ratio = self.recorded_cost_ratio();
        let cost_ratio = task.cost_ratio();
        let exact_match = missed_alerts.is_empty() && extra_alerts.is_empty();
        Ok(ReplayOutcome {
            error_allowance: spec.adaptation().error_allowance(),
            ticks: self.ticks(),
            samples: task.total_samples(),
            cost_ratio,
            recorded_cost_ratio,
            cost_delta: cost_ratio - recorded_cost_ratio,
            alert_ticks,
            matched_alerts: matched,
            missed_alerts,
            extra_alerts,
            exact_match,
            sim_elapsed: clock.duration_since(SimTime::ZERO),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use std::path::PathBuf;

    const MONITORS: usize = 4;
    const TICKS: u64 = 150;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("volley-backtest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The CLI's bursty workload: quiet baseline with synchronized
    /// bursts every 50 ticks that push the aggregate over threshold.
    fn bursty(monitor: usize, tick: u64) -> f64 {
        let local = 100.0;
        let wobble = ((tick * (3 + monitor as u64)) % 7) as f64;
        if tick % 50 == 49 {
            local * 1.4 + wobble
        } else {
            local * 0.2 + wobble
        }
    }

    /// Record a fault-free err=0 production run: every value sampled
    /// every tick, alerts from a reference DistributedTask.
    fn record_production(dir: &PathBuf) -> (Store, TaskMeta) {
        let meta = TaskMeta {
            monitors: MONITORS,
            global_threshold: 100.0 * MONITORS as f64,
            error_allowance: 0.0,
            ticks: TICKS,
            seed: 7,
        };
        let spec = Backtest::candidate_spec(&meta, None).unwrap();
        let mut reference = DistributedTask::new(&spec).unwrap();
        let mut store = Store::open(dir).unwrap().with_flush_limits(64, 40);
        for tick in 0..TICKS {
            let values: Vec<f64> = (0..MONITORS).map(|m| bursty(m, tick)).collect();
            for (m, &v) in values.iter().enumerate() {
                store
                    .append(Record {
                        task: 0,
                        monitor: m as u32,
                        kind: RecordKind::Sample,
                        tick,
                        value: v,
                    })
                    .unwrap();
            }
            if reference.step(tick, &values).unwrap().alerted() {
                store
                    .append(Record {
                        task: 0,
                        monitor: TASK_WIDE,
                        kind: RecordKind::Alert,
                        tick,
                        value: 1.0,
                    })
                    .unwrap();
            }
        }
        store.flush().unwrap();
        store.write_meta(&meta).unwrap();
        (store, meta)
    }

    #[test]
    fn same_config_replay_is_exact() {
        let dir = temp_dir("exact");
        let (store, meta) = record_production(&dir);
        let bt = Backtest::load(&store, 0, &ScanRange::all())
            .unwrap()
            .unwrap();
        assert_eq!(bt.monitors(), MONITORS);
        assert_eq!(bt.ticks(), TICKS);
        assert_eq!(bt.recorded_alert_ticks(), &[49, 99, 149]);
        assert!((bt.recorded_cost_ratio() - 1.0).abs() < 1e-12);
        let spec = Backtest::candidate_spec(&meta, None).unwrap();
        let outcome = bt.replay(&spec).unwrap();
        assert!(outcome.exact_match, "{outcome:?}");
        assert_eq!(outcome.alert_ticks, vec![49, 99, 149]);
        assert_eq!(outcome.matched_alerts, 3);
        assert!((outcome.cost_delta).abs() < 1e-12);
        assert_eq!(
            outcome.sim_elapsed,
            DEFAULT_TICK_WINDOW.saturating_mul(TICKS)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn looser_allowance_trades_cost_for_detection() {
        let dir = temp_dir("tradeoff");
        let (store, meta) = record_production(&dir);
        let bt = Backtest::load(&store, 0, &ScanRange::all())
            .unwrap()
            .unwrap();
        let candidate = Backtest::candidate_spec(&meta, Some(0.05)).unwrap();
        let outcome = bt.replay(&candidate).unwrap();
        assert!(
            outcome.cost_ratio < 1.0,
            "adaptive sampling must be cheaper: {outcome:?}"
        );
        assert!(outcome.cost_delta < 0.0);
        // The delta report stays coherent even if detection degrades.
        assert_eq!(
            outcome.matched_alerts + outcome.missed_alerts.len(),
            bt.recorded_alert_ticks().len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tick_range_clips_the_replay() {
        let dir = temp_dir("clip");
        let (store, meta) = record_production(&dir);
        let bt = Backtest::load(&store, 0, &ScanRange::all().from(60).to(120))
            .unwrap()
            .unwrap();
        assert_eq!(bt.ticks(), 61);
        assert_eq!(bt.recorded_alert_ticks(), &[99]);
        let spec = Backtest::candidate_spec(&meta, None).unwrap();
        let outcome = bt.replay(&spec).unwrap();
        // Replays of a clipped range still detect the burst inside it.
        assert!(outcome.alert_ticks.contains(&99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_range_loads_none() {
        let dir = temp_dir("empty");
        let (store, _) = record_production(&dir);
        assert!(Backtest::load(&store, 9, &ScanRange::all())
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
