//! Integration: the message-passing runtime agrees exactly with the
//! step-driven reference implementation, degrades predictably under
//! injected message loss, and refuses what its wire cannot carry.

use std::time::Duration;
use volley::core::coordinator::CoordinationScheme;
use volley::core::task::TaskSpec;

use volley::{DistributedTask, TaskRunner, VolleyError};
use volley_runtime::{FaultPath, FaultPlan, NetAddr, NetCoordinator};

/// Deterministic pseudo-random traces (no external RNG needed).
fn traces(monitors: usize, ticks: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..monitors)
        .map(|m| {
            let mut state = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(m as u64);
            (0..ticks)
                .map(|t| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (state >> 33) as f64 / (1u64 << 31) as f64; // 0..4
                    let base = 20.0 + 5.0 * (m as f64) + noise * 5.0;
                    // Periodic surges per monitor.
                    if t % (500 + m * 37) > (480 + m * 37) {
                        base + 120.0
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect()
}

fn spec(monitors: usize, global: f64, err: f64) -> TaskSpec {
    TaskSpec::builder(global)
        .monitors(monitors)
        .error_allowance(err)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec")
}

fn reference_run(spec: &TaskSpec, traces: &[Vec<f64>]) -> (Vec<u64>, u64) {
    let mut task = DistributedTask::new(spec).expect("valid task");
    let ticks = traces[0].len();
    let mut alerts = Vec::new();
    let mut samples = 0u64;
    let mut values = vec![0.0; traces.len()];
    for tick in 0..ticks as u64 {
        for (m, tr) in traces.iter().enumerate() {
            values[m] = tr[tick as usize];
        }
        let out = task.step(tick, &values).expect("step");
        samples += u64::from(out.total_samples());
        if out.alerted() {
            alerts.push(tick);
        }
    }
    (alerts, samples)
}

#[test]
fn exact_parity_across_seeds_and_sizes() {
    let even = |monitors: usize| spec(monitors, 60.0 * monitors as f64, 0.02);
    // Uneven local thresholds carried by the spec itself (a proportional
    // split), as a deployment with per-monitor selectivity builds it.
    let weighted = TaskSpec::builder(240.0)
        .threshold_split(volley::core::ThresholdSplit::Proportional)
        .threshold_weights(vec![1.0, 2.0, 3.0, 2.0])
        .error_allowance(0.02)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec");
    for (spec, seed) in [(even(2), 1u64), (even(3), 2), (even(5), 3), (weighted, 4)] {
        let monitors = spec.monitors().len();
        let traces = traces(monitors, 1200, seed);
        let (ref_alerts, ref_samples) = reference_run(&spec, &traces);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .run(&traces)
            .expect("run succeeds");
        assert_eq!(
            report.alert_ticks, ref_alerts,
            "alerts (m={monitors}, seed={seed})"
        );
        assert_eq!(
            report.total_samples, ref_samples,
            "samples (m={monitors}, seed={seed})"
        );
    }
}

#[test]
fn parity_holds_for_even_scheme() {
    let monitors = 3;
    let traces = traces(monitors, 800, 11);
    let spec = spec(monitors, 200.0, 0.02);
    let mut reference = DistributedTask::with_scheme(
        &spec,
        CoordinationScheme::Even,
        volley::core::allocation::AllocationConfig::default(),
    )
    .expect("valid task");
    let mut ref_samples = 0u64;
    let mut values = vec![0.0; monitors];
    for tick in 0..800u64 {
        for (m, tr) in traces.iter().enumerate() {
            values[m] = tr[tick as usize];
        }
        ref_samples += u64::from(reference.step(tick, &values).expect("step").total_samples());
    }
    let report = TaskRunner::new(&spec)
        .expect("valid runner")
        .with_scheme(CoordinationScheme::Even)
        .run(&traces)
        .expect("run succeeds");
    assert_eq!(report.total_samples, ref_samples);
}

#[test]
fn message_loss_loses_alerts_monotonically() {
    let monitors = 2;
    let traces = traces(monitors, 1500, 4);
    let spec = spec(monitors, 100.0, 0.0); // periodic: maximal alert count
    let mut previous_alerts = u64::MAX;
    for (loss, seed) in [(0.0, 1u64), (0.5, 1), (1.0, 1)] {
        let run = || {
            TaskRunner::new(&spec)
                .expect("valid runner")
                .with_fault_plan(
                    FaultPlan::new(seed).with_drop_rate(FaultPath::ViolationReport, loss),
                )
                .run(&traces)
                .expect("run succeeds")
        };
        let report = run();
        if loss == 0.5 {
            // Drop decisions are a pure function of (seed, monitor, tick),
            // not of which monitor's report reaches the coordinator first.
            assert_eq!(report, run(), "partial loss must be reproducible");
        }
        assert!(
            report.alerts <= previous_alerts,
            "alerts should not increase with loss ({loss}: {} vs {previous_alerts})",
            report.alerts
        );
        previous_alerts = report.alerts;
        if loss == 0.0 {
            assert!(report.alerts > 0, "lossless run should alert");
        }
        if loss == 1.0 {
            assert_eq!(report.alerts, 0, "total loss cannot alert");
            assert_eq!(report.polls, 0);
        }
    }
}

#[test]
fn runtime_handles_many_monitors() {
    let monitors = 16;
    let traces = traces(monitors, 400, 9);
    let spec = spec(monitors, 50.0 * monitors as f64, 0.05);
    let report = TaskRunner::new(&spec)
        .expect("valid runner")
        .run(&traces)
        .expect("run succeeds");
    assert_eq!(report.ticks, 400);
    assert!(report.total_samples > 0);
}

/// What the wire cannot carry, no plane carries. A `NaN` or infinite
/// trace value would be a value in process but a malformed `Tick` line
/// behind a socket — there the agent drops the connection and re-dials —
/// so the two planes would report differently. Both refuse it instead,
/// the same way and before any tick: the networked coordinator before
/// its fleet assembles, so no agent needs to dial. A value past the
/// shortest trace is never sent, and is no reason to refuse.
#[test]
fn a_non_finite_trace_value_fails_both_planes_before_any_tick() {
    let monitors = 6;
    let spec = TaskSpec::builder(100.0 * monitors as f64)
        .monitors(monitors)
        .error_allowance(0.01)
        .build()
        .expect("valid spec");
    // Quiet at ~20 % of the local threshold, a burst every 50 ticks.
    let finite: Vec<Vec<f64>> = (0..monitors)
        .map(|m| {
            (0..150)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    wobble + if t % 50 == 49 { 140.0 } else { 20.0 }
                })
                .collect()
        })
        .collect();
    let refused = |err: VolleyError| {
        assert!(
            matches!(
                err,
                VolleyError::NonFiniteValue {
                    parameter: "traces"
                }
            ),
            "{err:?}"
        );
    };
    for (monitor, tick, value) in [
        (1, 49, f64::NAN),
        (4, 99, f64::INFINITY),
        (0, 0, f64::NEG_INFINITY),
    ] {
        let mut traces = finite.clone();
        traces[monitor][tick] = value;
        let runner = TaskRunner::new(&spec).expect("valid runner");
        refused(runner.run(&traces).unwrap_err());
        let coordinator = NetCoordinator::bind(spec.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
            .expect("loopback bind")
            .with_wait_timeout(Duration::from_secs(60));
        refused(coordinator.run(&traces).unwrap_err());
    }
    let mut longer = finite;
    longer[3].push(f64::NAN);
    let report = TaskRunner::new(&spec)
        .expect("valid runner")
        .run(&longer)
        .expect("the NaN is never sent");
    assert_eq!(report.alert_ticks, [49, 99, 149]);
}
