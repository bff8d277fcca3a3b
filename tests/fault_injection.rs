//! Integration: the runtime survives crashed and stalled monitors
//! without hanging, keeps raising every ground-truth alert in degraded
//! mode, and reproduces identical reports for identical fault plans.

use volley::core::task::{MonitorId, TaskSpec};
use volley::{DistributedTask, TaskRunner};
use volley_runtime::{FaultPath, FaultPlan};

const MONITORS: usize = 5;
const TICKS: usize = 200;
/// Every 50th tick all monitors spike together: an unambiguous
/// ground-truth alert (Σ = 1.4·T > T with every local threshold beaten).
const BURST_EVERY: usize = 50;

/// Error allowance 0 keeps every monitor at the default interval, so the
/// fault-free alert schedule is exact: one alert per burst tick.
fn spec() -> TaskSpec {
    TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.0)
        .max_interval(8)
        .patience(3)
        .build()
        .unwrap()
}

fn traces() -> Vec<Vec<f64>> {
    let local = 100.0;
    (0..MONITORS)
        .map(|m| {
            (0..TICKS)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    if t % BURST_EVERY == BURST_EVERY - 1 {
                        local * 1.4 + wobble
                    } else {
                        local * 0.2 + wobble
                    }
                })
                .collect()
        })
        .collect()
}

fn ground_truth_alerts(spec: &TaskSpec, traces: &[Vec<f64>]) -> Vec<u64> {
    let mut reference = DistributedTask::new(spec).unwrap();
    let mut truth = Vec::new();
    for tick in 0..TICKS as u64 {
        let values: Vec<f64> = traces.iter().map(|tr| tr[tick as usize]).collect();
        if reference.step(tick, &values).unwrap().alerted() {
            truth.push(tick);
        }
    }
    truth
}

#[test]
fn crash_and_stall_mid_run_still_raise_every_alert() {
    let spec = spec();
    let traces = traces();
    let truth = ground_truth_alerts(&spec, &traces);
    assert_eq!(truth.len(), TICKS / BURST_EVERY, "bursts alert fault-free");

    // Monitor 1 crashes at tick 40 (restarted by the supervisor); monitor
    // 3 stalls for 50 ticks from tick 20 (quarantined, then replaced).
    let plan = FaultPlan::new(42)
        .with_crash(MonitorId(1), 40)
        .with_stall(MonitorId(3), 20, 50);
    let report = TaskRunner::new(&spec)
        .unwrap()
        .with_fault_plan(plan)
        .with_quarantine_after(2)
        .run(&traces)
        .unwrap();

    assert_eq!(
        report.ticks, TICKS as u64,
        "the run must not hang or truncate"
    );
    for t in &truth {
        assert!(
            report.alert_ticks.contains(t),
            "ground-truth alert at tick {t} missing; raised {:?}",
            report.alert_ticks
        );
    }
    // Both faulty monitors were quarantined, restarted and recovered.
    assert_eq!(report.quarantines, 2);
    assert_eq!(report.restarts, 2);
    assert_eq!(report.recoveries, 2);
    // Every dead round is accounted for (2 missed deadlines per fault
    // before quarantine, plus quarantined rounds until the restart lands).
    assert!(
        report.missed_tick_reports >= 4,
        "missed {} tick reports",
        report.missed_tick_reports
    );
}

#[test]
fn same_fault_plan_reproduces_identical_reports() {
    let spec = spec();
    // The first 80 ticks: the crash at 30 and the stall at 60 land inside.
    let traces: Vec<Vec<f64>> = traces().into_iter().map(|t| t[..80].to_vec()).collect();
    let plan = FaultPlan::new(20130708)
        .with_drop_rate(FaultPath::ViolationReport, 0.25)
        .with_drop_rate(FaultPath::PollReply, 0.25)
        .with_duplication_rate(0.2)
        .with_delay_rate(0.05)
        .with_crash(MonitorId(2), 30)
        .with_stall(MonitorId(0), 60, 10);
    let run = || {
        TaskRunner::new(&spec)
            .unwrap()
            .with_fault_plan(plan.clone())
            .with_quarantine_after(2)
            .run(&traces)
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fault plans must be deterministic");
    // The plan actually bites: at least the crash and the stall show up
    // (delays may add more quarantine/restart cycles, identically in both
    // runs).
    assert!(first.quarantines >= 2, "quarantines {}", first.quarantines);
    assert_eq!(first.restarts, first.quarantines);
    assert_eq!(first.recoveries, first.quarantines);
    assert_eq!(first.ticks, 80);
}

#[test]
fn unsupervised_stall_degrades_but_completes() {
    let spec = spec();
    let traces = traces();
    let truth = ground_truth_alerts(&spec, &traces);
    // The stalled monitor never comes back without the supervisor, so the
    // whole tail of the run is degraded — yet every alert still fires:
    // the missing monitor is counted at its local threshold, and the four
    // live monitors alone carry the burst over the global threshold.
    let report = TaskRunner::new(&spec)
        .unwrap()
        .with_fault_plan(FaultPlan::new(7).with_stall(MonitorId(4), 10, u64::MAX))
        .with_quarantine_after(2)
        .with_supervision(false)
        .run(&traces)
        .unwrap();
    assert_eq!(report.ticks, TICKS as u64);
    assert_eq!(report.restarts, 0);
    for t in &truth {
        assert!(
            report.alert_ticks.contains(t),
            "ground-truth alert at tick {t} missing; raised {:?}",
            report.alert_ticks
        );
    }
    assert!(
        report.degraded_alerts >= 3,
        "late bursts aggregate degraded"
    );
    assert!(report.missed_tick_reports as usize >= TICKS - 20);
}
