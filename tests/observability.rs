//! Integration: the observability subsystem end to end — instrumented
//! runtime, periodic snapshot dumps in both exposition formats, and the
//! flagship *Volley watching Volley* loop: a watchdog (one core adaptive
//! sampler) alerting when injected faults spike the runtime's own tick
//! latency.

use std::time::Duration;

use volley::core::task::{MonitorId, TaskSpec};
use volley::obs::{latest_snapshot, names, parse_prometheus, Obs};
use volley::{TaskRunner, VolleyError};
use volley_runtime::FaultPlan;

const MONITORS: usize = 3;
const TICKS: usize = 40;
/// The tick where the injected faults land.
const FAULT_TICK: u64 = 10;
/// Collection deadline: a stalled monitor holds the coordinator (and so
/// the runner's tick) for this long — well past the watchdog threshold.
const DEADLINE: Duration = Duration::from_millis(250);
/// Watchdog threshold on the runner tick-latency gauge, microseconds.
/// Healthy ticks on this workload run in the tens of microseconds; the
/// stalled tick must wait out the 250 ms deadline.
const WATCHDOG_THRESHOLD_US: f64 = 100_000.0;

fn spec() -> TaskSpec {
    TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.0)
        .build()
        .unwrap()
}

/// Quiet traces: no state alerts, so everything the watchdog sees comes
/// from the injected faults, not the workload.
fn traces() -> Vec<Vec<f64>> {
    (0..MONITORS)
        .map(|m| {
            (0..TICKS)
                .map(|t| 20.0 + ((t * (3 + m)) % 7) as f64)
                .collect()
        })
        .collect()
}

/// The flagship loop: a coordinator crash plus a monitor stall at the
/// same tick force the post-failover coordinator to wait out the full
/// collection deadline, spiking the runner's tick latency. The watchdog
/// — one core `AdaptiveSampler` reading each tick's latency in the drive
/// loop — must alert on that spike, and on nothing else.
#[test]
fn self_monitor_alerts_on_injected_coordinator_stall() {
    let plan = FaultPlan::new(7)
        .with_coordinator_crash(FAULT_TICK)
        .with_stall(MonitorId(1), FAULT_TICK, 2);
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_fault_plan(plan)
        .with_tick_deadline(DEADLINE)
        .with_standby(true)
        .with_self_monitor(WATCHDOG_THRESHOLD_US, 0.0)
        .run(&traces())
        .unwrap();

    assert_eq!(report.ticks, TICKS as u64, "the run must complete");
    assert_eq!(report.coordinator_failovers, 1);
    assert_eq!(report.alerts, 0, "quiet workload: no state alerts");
    // Eager watchdog (err = 0): one snapshot read per tick.
    assert_eq!(report.self_monitor_samples, TICKS as u64);
    assert!(
        report.self_monitor_alerts >= 1,
        "watchdog must flag the stalled tick: {report:?}"
    );
    assert!(
        report
            .self_monitor_alert_ticks
            .iter()
            .all(|&t| (FAULT_TICK..FAULT_TICK + 4).contains(&t)),
        "alerts must cluster on the injected fault, got {:?}",
        report.self_monitor_alert_ticks
    );
}

/// Without faults the watchdog stays silent — the spike detection above
/// is signal, not noise.
#[test]
fn self_monitor_quiet_on_healthy_run() {
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_self_monitor(WATCHDOG_THRESHOLD_US, 0.0)
        .run(&traces())
        .unwrap();
    assert_eq!(report.ticks, TICKS as u64);
    assert_eq!(
        report.self_monitor_alerts, 0,
        "healthy ticks are far below the threshold: {:?}",
        report.self_monitor_alert_ticks
    );
}

/// A watchdog that cannot be built fails the run before its first tick:
/// a non-finite threshold and an out-of-range allowance are both refused.
#[test]
fn self_monitor_refuses_invalid_arming() {
    let run = |threshold_us: f64, err: f64| {
        TaskRunner::new(&spec())
            .unwrap()
            .with_self_monitor(threshold_us, err)
            .run(&traces())
    };
    assert!(matches!(
        run(f64::NAN, 0.0),
        Err(VolleyError::NonFiniteValue {
            parameter: "threshold"
        })
    ));
    assert!(matches!(
        run(250_000.0, 1.5),
        Err(VolleyError::InvalidConfig { .. })
    ));
}

/// `--obs-dir` dumps parse back in both exposition formats, and the
/// instrumented counters agree with the runtime's own report.
#[test]
fn obs_dir_emits_parseable_snapshots() {
    let dir = std::env::temp_dir().join("volley-obs-integration");
    let _ = std::fs::remove_dir_all(&dir);

    let obs = Obs::new(true);
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_obs(obs.clone())
        .with_obs_dir(&dir, 10)
        .run(&traces())
        .unwrap();
    assert_eq!(report.ticks, TICKS as u64);

    // JSON side: schema-checked decode, counters match the report.
    let (path, snapshot) = latest_snapshot(&dir)
        .expect("snapshot dir readable")
        .expect("at least one snapshot dumped");
    assert_eq!(
        snapshot.counters[names::RUNNER_TICKS_TOTAL],
        report.ticks,
        "registry and report must agree"
    );
    assert_eq!(
        snapshot.counters[names::RUNNER_SAMPLES_TOTAL],
        report.total_samples
    );

    // Prometheus side: the sibling .prom file parses and carries the
    // same series.
    let prom = std::fs::read_to_string(path.with_extension("prom")).unwrap();
    let samples = parse_prometheus(&prom).expect("valid exposition text");
    let ticks_sample = samples
        .iter()
        .find(|s| s.name == names::RUNNER_TICKS_TOTAL)
        .expect("runner tick counter exposed");
    assert_eq!(ticks_sample.value, report.ticks as f64);
    assert!(
        samples
            .iter()
            .any(|s| s.name == format!("{}_count", names::COORDINATOR_TICK_NS)),
        "histograms expose summary series"
    );

    // Span log: the teardown dump wrote a chrome-trace document naming
    // the hot-path spans.
    let spans = std::fs::read_to_string(dir.join("spans.json")).unwrap();
    for span in ["coordinator_tick", "monitor_sample", "runner_tick"] {
        assert!(spans.contains(span), "span {span} missing from trace");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
