//! `correlation_matrix_v1`: top-K pairwise violation correlation.
//!
//! The offline half of the paper's §II.B multi-task scheme: given a
//! store holding many tasks' recorded [`Alert`] histories, find the task
//! pairs whose violations cascade — a *leader* task whose alerts
//! precede a *follower* task's within a small lag window — and rank
//! them by necessity confidence `P(leader alerted within lag |
//! follower alerts)`. The top pairs are exactly the candidates for the
//! online gating plan (`MultiTaskRunner`): followers whose violations
//! are near-certainly preceded by a leader's can be paced coarsely
//! while that leader is calm.
//!
//! # Bounds
//!
//! The job never materializes the `tasks × tasks` matrix. Its state is
//!
//! - one capped alert-tick list per recorded task
//!   ([`CorrelationMatrixConfig::max_alerts_per_task`], surplus counted,
//!   not stored), and
//! - one K-bounded min-heap of the best pairs seen so far,
//!
//! so memory is `O(tasks · cap + K)` while IO is the framework's single
//! streaming pass. [`finish`](crate::Job::finish) sorts each list (a
//! task's alerts may span several series) and scores each ordered pair
//! once with [`preceded_within`], the two-pointer merge the online
//! `CorrelationDetector` counts with too — `O(tasks² · cap)` time, no
//! per-pair allocation beyond the heap.
//!
//! [`Alert`]: RecordKind::Alert

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

use serde::Serialize;
use volley_core::correlation::preceded_within;
use volley_core::Tick;
use volley_store::{Record, RecordKind, ScanRange};

use crate::Job;

/// Configuration for [`CorrelationMatrixJob`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CorrelationMatrixConfig {
    /// Best pairs to keep (the heap bound).
    pub top_k: usize,
    /// How many ticks before a follower alert a leader alert may land
    /// and still count as preceding it (`0` = same tick only).
    pub lag_window: u32,
    /// Minimum follower alerts for a pair to qualify — confidence over
    /// one or two alerts is noise.
    pub min_support: u64,
    /// First tick considered (inclusive).
    pub from: Tick,
    /// Last tick considered (inclusive).
    pub to: Tick,
    /// Alert ticks retained per task; history beyond the cap is counted
    /// ([`CorrelationMatrix::truncated_tasks`]) but not correlated.
    pub max_alerts_per_task: usize,
}

impl Default for CorrelationMatrixConfig {
    fn default() -> Self {
        CorrelationMatrixConfig {
            top_k: 10,
            lag_window: 2,
            min_support: 3,
            from: 0,
            to: Tick::MAX,
            max_alerts_per_task: 65_536,
        }
    }
}

/// One ranked pair of the output: `leader`'s alerts precede
/// `follower`'s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CorrelatedPair {
    /// The task whose alerts come first.
    pub leader: u32,
    /// The task whose alerts follow within the lag window.
    pub follower: u32,
    /// `P(leader alerted within lag | follower alerts)` — the §II.B
    /// necessity confidence, over the retained history.
    pub confidence: f64,
    /// Follower alerts considered (the confidence denominator).
    pub support: u64,
    /// Follower alerts with a leader alert inside the lag window (the
    /// numerator).
    pub joint: u64,
    /// Leader alerts considered.
    pub leader_alerts: u64,
}

impl CorrelatedPair {
    /// Rank order: confidence, then joint count, then smaller task ids —
    /// total and deterministic (confidence is never NaN).
    fn rank_key(&self) -> (u64, u64, Reverse<u32>, Reverse<u32>) {
        // Confidence is in [0, 1]; IEEE bit patterns of non-negative
        // floats order like the floats themselves.
        (
            self.confidence.to_bits(),
            self.joint,
            Reverse(self.leader),
            Reverse(self.follower),
        )
    }
}

/// Heap entry ordered by [`CorrelatedPair::rank_key`] alone.
#[derive(Debug)]
struct Ranked(CorrelatedPair);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.0.rank_key() == other.0.rank_key()
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_key().cmp(&other.0.rank_key())
    }
}

/// The job's output: the top-K cascade pairs plus coverage accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CorrelationMatrix {
    /// Tasks with at least one alert in range.
    pub tasks: u32,
    /// Alert records in range across all tasks.
    pub alerts: u64,
    /// Tasks whose alert history overflowed the per-task cap — their
    /// pairs were scored on the retained prefix only.
    pub truncated_tasks: u32,
    /// Ordered pairs that met the support floor (the matrix's sparse
    /// size; at most `top_k` of these are returned).
    pub qualifying_pairs: u64,
    /// The best pairs, rank order (best first).
    pub pairs: Vec<CorrelatedPair>,
}

/// Per-task fold state: the capped alert tick list, in scan order until
/// [`finish`](crate::Job::finish) sorts it.
#[derive(Debug, Default)]
struct TaskAlerts {
    ticks: Vec<Tick>,
    total: u64,
}

/// The `correlation_matrix_v1` job. See the [module docs](self).
#[derive(Debug)]
pub struct CorrelationMatrixJob {
    config: CorrelationMatrixConfig,
    /// Keyed by task id; `BTreeMap` keeps pair enumeration (and thus
    /// tie-breaking) in deterministic task order.
    tasks: BTreeMap<u32, TaskAlerts>,
}

impl CorrelationMatrixJob {
    /// Creates the job. Zero `top_k` / `max_alerts_per_task` are clamped
    /// to 1, a zero support floor to 1.
    pub fn new(config: CorrelationMatrixConfig) -> Self {
        CorrelationMatrixJob {
            config: CorrelationMatrixConfig {
                top_k: config.top_k.max(1),
                min_support: config.min_support.max(1),
                max_alerts_per_task: config.max_alerts_per_task.max(1),
                ..config
            },
            tasks: BTreeMap::new(),
        }
    }

    /// The (normalized) configuration the job runs under.
    pub fn config(&self) -> &CorrelationMatrixConfig {
        &self.config
    }
}

impl Job for CorrelationMatrixJob {
    type Output = CorrelationMatrix;

    fn name(&self) -> &'static str {
        "correlation_matrix_v1"
    }

    fn range(&self) -> ScanRange {
        ScanRange::all()
            .kind(RecordKind::Alert)
            .from(self.config.from)
            .to(self.config.to)
    }

    fn observe(&mut self, record: &Record) {
        debug_assert_eq!(record.kind, RecordKind::Alert);
        let task = self.tasks.entry(record.task).or_default();
        task.total += 1;
        if task.ticks.len() < self.config.max_alerts_per_task {
            task.ticks.push(record.tick);
        }
    }

    fn finish(mut self) -> CorrelationMatrix {
        let mut alerts = 0;
        let mut truncated_tasks = 0;
        for task in self.tasks.values_mut() {
            // Scans are tick-ascending only within a series: a task whose
            // alerts span several monitors arrives as several runs.
            task.ticks.sort_unstable();
            alerts += task.total;
            if task.total > task.ticks.len() as u64 {
                truncated_tasks += 1;
            }
        }
        let mut qualifying_pairs = 0;
        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::new();
        for (&leader, leader_alerts) in &self.tasks {
            for (&follower, follower_alerts) in &self.tasks {
                if leader == follower {
                    continue;
                }
                let support = follower_alerts.ticks.len() as u64;
                if support < self.config.min_support {
                    continue;
                }
                let joint = preceded_within(
                    &leader_alerts.ticks,
                    &follower_alerts.ticks,
                    u64::from(self.config.lag_window),
                );
                qualifying_pairs += 1;
                let pair = CorrelatedPair {
                    leader,
                    follower,
                    confidence: joint as f64 / support as f64,
                    support,
                    joint,
                    leader_alerts: leader_alerts.ticks.len() as u64,
                };
                // K-bounded min-heap: push, then drop the worst.
                heap.push(Reverse(Ranked(pair)));
                if heap.len() > self.config.top_k {
                    heap.pop();
                }
            }
        }
        let mut pairs: Vec<CorrelatedPair> = heap.into_iter().map(|Reverse(Ranked(p))| p).collect();
        pairs.sort_by_key(|pair| Reverse(pair.rank_key()));
        CorrelationMatrix {
            tasks: self.tasks.len() as u32,
            alerts,
            truncated_tasks,
            qualifying_pairs,
            pairs,
        }
    }
}
