//! Integration: the observability subsystem end to end — instrumented
//! runtime, periodic snapshots recorded into the run's store and read
//! back whole, and the *Volley watching Volley* watchdog (one core
//! adaptive sampler on the runtime's own tick latency) kept quiet on a
//! healthy run. Its alerting
//! on a slow tick is checked where a tick can be held up on purpose:
//! `session::tests::the_watchdog_alerts_on_a_slow_tick_and_only_there`
//! in the runtime crate.

use volley::core::task::TaskSpec;
use volley::obs::{names, parse_prometheus, Obs};
use volley::store::{SampleRecorder, Store};
use volley::{TaskRunner, VolleyError};

const MONITORS: usize = 3;
const TICKS: usize = 40;
/// Watchdog threshold on the runner tick-latency gauge, microseconds.
/// Healthy ticks on this workload run in the tens of microseconds.
const WATCHDOG_THRESHOLD_US: f64 = 100_000.0;

fn spec() -> TaskSpec {
    TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.0)
        .build()
        .unwrap()
}

/// Quiet traces: no state alerts.
fn traces() -> Vec<Vec<f64>> {
    (0..MONITORS)
        .map(|m| {
            (0..TICKS)
                .map(|t| 20.0 + ((t * (3 + m)) % 7) as f64)
                .collect()
        })
        .collect()
}

/// Without faults the watchdog stays silent: the slow-tick alerts it
/// raises elsewhere are signal, not noise.
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

/// Snapshots recorded into the store read back whole: the newest one
/// carries the instrumented counters the runtime's own report states,
/// and it renders Prometheus text that parses back.
#[test]
fn store_records_parseable_snapshots() {
    let dir = std::env::temp_dir().join(format!("volley-obs-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let obs = Obs::new(true);
    let recorder = SampleRecorder::new(Store::open(&dir).unwrap());
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_obs(obs.clone())
        .with_recorder(recorder)
        .with_snapshot_every(10)
        .run(&traces())
        .unwrap();
    assert_eq!(report.ticks, TICKS as u64);

    // The newest snapshot is the run-end one; its counters match the
    // report.
    let snapshot = Store::open(&dir)
        .unwrap()
        .latest_snapshot(0)
        .expect("store readable")
        .expect("snapshots recorded");
    assert_eq!(snapshot.tick, TICKS as u64);
    assert_eq!(
        snapshot.counters[names::RUNNER_TICKS_TOTAL],
        report.ticks,
        "registry and report must agree"
    );
    assert_eq!(
        snapshot.counters[names::RUNNER_SAMPLES_TOTAL],
        report.total_samples
    );

    // Prometheus side: the text parses and carries the same series.
    let samples = parse_prometheus(&snapshot.to_prometheus()).expect("valid exposition text");
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

    // Span log: the chrome-trace document names the hot-path spans.
    let spans = obs.spans().to_chrome_trace();
    for span in ["coordinator_tick", "monitor_sample", "runner_tick"] {
        assert!(spans.contains(span), "span {span} missing from trace");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
