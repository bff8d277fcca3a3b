//! Property tests of the §II.B correlation detector and plan generator:
//! the lag window's boundary is exact (a leader alert `lag` ticks back
//! counts, `lag + 1` does not), plans stay two-level — leaders are never
//! themselves gated — under arbitrary violation histories and cost
//! vectors, and the necessity-confidence estimate moves the right way
//! when evidence arrives: confirming observations never lower it,
//! refuting observations never raise it. The online detector and the
//! offline `correlation_matrix_v1` job score any history alike, to the
//! bit.

use std::collections::BTreeMap;

use proptest::prelude::*;

use volley::analyze::{CorrelationMatrixConfig, CorrelationMatrixJob, Job};
use volley::core::correlation::{CorrelationConfig, CorrelationDetector};
use volley::core::task::TaskId;
use volley::store::{Record, RecordKind};

fn ids(n: u64) -> Vec<TaskId> {
    (0..n).map(TaskId).collect()
}

/// A detector trusting single observations, so boundary cases are
/// visible without bulk support.
fn config(lag_window: u32) -> CorrelationConfig {
    CorrelationConfig {
        min_support: 1,
        lag_window,
        ..CorrelationConfig::default()
    }
}

/// Decodes one generated row of per-task activity bits.
fn row_of(bits: &[u32]) -> Vec<bool> {
    bits.iter().map(|&b| b == 1).collect()
}

proptest! {
    /// The lag window boundary is inclusive and exact: with the leader
    /// firing `delta` ticks before each follower violation, necessity
    /// confidence is 1 when `delta ≤ lag_window` and 0 when it exceeds
    /// it — for every (lag, delta) combination, at every period.
    #[test]
    fn lag_window_boundary_is_exact(
        lag in 0u32..12,
        delta in 0u64..24,
        repeats in 3u64..20,
    ) {
        // Periods long enough that the previous cycle's leader pulse can
        // never fall inside the current follower's window.
        let period = delta + u64::from(lag) + 2;
        let mut det = CorrelationDetector::new(config(lag), ids(2));
        for k in 0..repeats {
            let base = k * period;
            if delta == 0 {
                // Simultaneous activity: recency updates first, so the
                // same-tick leader pulse is inside the window.
                det.observe(base, &[true, true]);
            } else {
                det.observe(base, &[true, false]);
                det.observe(base + delta, &[false, true]);
            }
        }
        let confidence = det
            .necessity_confidence(TaskId(0), TaskId(1))
            .expect("every cycle adds follower support");
        if delta <= u64::from(lag) {
            prop_assert_eq!(confidence, 1.0, "delta {} within lag {}", delta, lag);
        } else {
            prop_assert_eq!(confidence, 0.0, "delta {} beyond lag {}", delta, lag);
        }
    }

    /// Under arbitrary violation histories (and arbitrary thresholds),
    /// derived plans are two-level: no task is both a leader and a gated
    /// follower, and every gate clears the configured confidence floor.
    #[test]
    fn leaders_are_never_gated(
        tasks in 2usize..6,
        history in prop::collection::vec(prop::collection::vec(0u32..2, 6..7), 10..120),
        min_confidence in 0.05f64..1.0,
        lag in 0u32..5,
    ) {
        let cfg = CorrelationConfig {
            min_confidence,
            min_support: 1,
            lag_window: lag,
            ..CorrelationConfig::default()
        };
        let mut det = CorrelationDetector::new(cfg, ids(tasks as u64));
        for (tick, bits) in history.iter().enumerate() {
            det.observe(tick as u64, &row_of(&bits[..tasks]));
        }
        let plan = det.plan();
        for (follower, gate) in plan.iter() {
            prop_assert!(
                plan.gate(gate.leader).is_none(),
                "leader {} of follower {} is itself gated",
                gate.leader,
                follower
            );
            prop_assert!(gate.leader != *follower, "self-gating");
            prop_assert!(
                gate.confidence >= min_confidence,
                "gate confidence {} below floor {}",
                gate.confidence,
                min_confidence
            );
        }
    }

    /// The two-level guarantee also holds for cost-aware plans, whatever
    /// the cost vector — including NaN, zero and short vectors, which
    /// fall back to unit costs.
    #[test]
    fn cost_aware_plans_stay_two_level(
        history in prop::collection::vec(prop::collection::vec(0u32..2, 4..5), 10..80),
        raw_costs in prop::collection::vec((0u8..3, 1u32..10_000), 0..6),
    ) {
        let cfg = CorrelationConfig {
            min_confidence: 0.5,
            min_support: 1,
            ..CorrelationConfig::default()
        };
        let mut det = CorrelationDetector::new(cfg, ids(4));
        for (tick, bits) in history.iter().enumerate() {
            det.observe(tick as u64, &row_of(bits));
        }
        let costs: Vec<f64> = raw_costs
            .iter()
            .map(|&(kind, magnitude)| match kind {
                0 => f64::NAN,
                1 => 0.0,
                _ => f64::from(magnitude) / 100.0,
            })
            .collect();
        let plan = det.plan_with_costs(&costs);
        for (_, gate) in plan.iter() {
            prop_assert!(plan.gate(gate.leader).is_none());
        }
    }

    /// Confidence is monotone in the evidence: starting from an
    /// arbitrary history, appending a *confirming* observation (leader
    /// active alongside the follower violation) never lowers the
    /// estimate, and appending a *refuting* one (follower violates with
    /// the leader long quiet) never raises it.
    #[test]
    fn confidence_is_monotone_in_support(
        history in prop::collection::vec((0u32..2, 0u32..2), 1..150),
        lag in 0u32..6,
        confirm in 0u32..2,
    ) {
        let confirm = confirm == 1;
        let mut det = CorrelationDetector::new(config(lag), ids(2));
        for (tick, &(leader, follower)) in history.iter().enumerate() {
            det.observe(tick as u64, &[leader == 1, follower == 1]);
        }
        let before = det.necessity_confidence(TaskId(0), TaskId(1));
        // Far enough past the history that no old leader pulse lingers
        // inside the lag window of the appended tick.
        let next = history.len() as u64 + u64::from(lag) + 1;
        det.observe(next, &[confirm, true]);
        let after = det
            .necessity_confidence(TaskId(0), TaskId(1))
            .expect("the appended violation provides support");
        if let Some(before) = before {
            if confirm {
                prop_assert!(
                    after >= before,
                    "confirming evidence lowered confidence {} -> {}",
                    before,
                    after
                );
            } else {
                prop_assert!(
                    after <= before,
                    "refuting evidence raised confidence {} -> {}",
                    before,
                    after
                );
            }
        } else if confirm {
            prop_assert_eq!(after, 1.0, "first evidence is confirming");
        } else {
            prop_assert_eq!(after, 0.0, "first evidence is refuting");
        }
    }

    /// The online detector and the offline job are one estimator: fed
    /// the same activity history (the detector tick by tick, the job as
    /// alert records in scan order), they qualify the same ordered pairs
    /// and give each the same confidence, bit for bit, over the same
    /// follower support. Pairs whose leader never fired are the
    /// detector's alone: the job only knows tasks that alerted.
    #[test]
    fn online_and_offline_confidences_agree(
        tasks in 2usize..6,
        steps in prop::collection::vec((1u64..4, 0u32..32), 1..300),
        lag in 0u32..6,
    ) {
        let mut det = CorrelationDetector::new(config(lag), ids(tasks as u64));
        let mut active: Vec<Vec<u64>> = vec![Vec::new(); tasks];
        let mut tick = 0;
        for &(gap, mask) in &steps {
            let row: Vec<bool> = (0..tasks).map(|t| mask >> t & 1 == 1).collect();
            det.observe(tick, &row);
            for (ticks, _) in active.iter_mut().zip(&row).filter(|(_, &on)| on) {
                ticks.push(tick);
            }
            tick += gap;
        }
        let mut job = CorrelationMatrixJob::new(CorrelationMatrixConfig {
            top_k: tasks * tasks,
            lag_window: lag,
            min_support: 1,
            max_alerts_per_task: steps.len(),
            ..CorrelationMatrixConfig::default()
        });
        for (task, ticks) in active.iter().enumerate() {
            for &tick in ticks {
                job.observe(&Record {
                    task: task as u32,
                    monitor: 0,
                    kind: RecordKind::Alert,
                    tick,
                    value: 1.0,
                });
            }
        }
        let matrix = job.finish();

        let mut online = BTreeMap::new();
        for (leader, leader_ticks) in active.iter().enumerate() {
            let lead = TaskId(leader as u64);
            prop_assert_eq!(det.necessity_confidence(lead, lead), None);
            if leader_ticks.is_empty() {
                continue;
            }
            for follower in (0..tasks).filter(|&f| f != leader) {
                if let Some(c) = det.necessity_confidence(lead, TaskId(follower as u64)) {
                    online.insert((leader as u32, follower as u32), c.to_bits());
                }
            }
        }
        let mut offline = BTreeMap::new();
        for pair in &matrix.pairs {
            prop_assert_eq!(pair.support, active[pair.follower as usize].len() as u64);
            offline.insert((pair.leader, pair.follower), pair.confidence.to_bits());
        }
        prop_assert_eq!(matrix.qualifying_pairs, matrix.pairs.len() as u64);
        prop_assert_eq!(online, offline);
    }
}
