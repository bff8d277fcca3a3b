//! Integration: the message-passing runtime agrees exactly with the
//! step-driven reference implementation, degrades predictably under
//! injected message loss, and refuses what its wire cannot carry.

use std::time::Duration;
use volley::core::coordinator::CoordinationScheme;
use volley::core::task::{MonitorId, TaskSpec};

use volley::{DistributedTask, GroundTruth, TaskRunner, VolleyError};
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

/// Ticks per sweep seed: past two updating periods (1 000 ticks each),
/// so every seed holds two reallocation rounds.
const SWEEP_TICKS: usize = 2500;

/// SplitMix64 of `seed` at stream position `k`: every derived input is
/// its own pure function of the seed.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The task `seed` derives: 2–7 monitors, one of five error
/// allowances, a maximum interval of 4, 8 or 16 and a global threshold
/// of 45–75 per monitor.
fn sweep_spec(seed: u64) -> TaskSpec {
    let pick = |k: u64, n: u64| (mix(seed, k) % n) as usize;
    let monitors = 2 + pick(0, 6);
    let err = [0.005, 0.01, 0.02, 0.05, 0.1][pick(1, 5)];
    let max_interval = [4, 8, 16][pick(2, 3)];
    let per_monitor = 45 + pick(3, 31);
    TaskSpec::builder((per_monitor * monitors) as f64)
        .monitors(monitors)
        .error_allowance(err)
        .max_interval(max_interval)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec")
}

/// The fault plan `seed` derives: drops on both lossy paths, delays,
/// duplicates, one monitor crash, one stall and one partition, each at a
/// seeded monitor and tick.
fn sweep_plan(seed: u64, monitors: usize) -> FaultPlan {
    let monitor = |k: u64| MonitorId((mix(seed, k) % monitors as u64) as u32);
    let tick = |k: u64, from: u64| from + mix(seed, k) % 500;
    let cut = tick(9, 1600);
    FaultPlan::new(seed)
        .with_drop_rate(FaultPath::ViolationReport, 0.1)
        .with_drop_rate(FaultPath::PollReply, 0.1)
        .with_delay_rate(0.02)
        .with_duplication_rate(0.02)
        .with_crash(monitor(4), tick(5, 200))
        .with_stall(monitor(6), tick(7, 900), 40)
        .with_partition(&[monitor(8)], cut, cut + 10)
}

/// Holds the in-process run of `spec` over `traces` to the reference:
/// the same alerts and samples as `DistributedTask::step`, and every
/// alert a ground-truth violation. Returns how many alerts it compared.
fn check_parity(spec: &TaskSpec, traces: &[Vec<f64>]) -> Result<usize, String> {
    let (ref_alerts, ref_samples) = reference_run(spec, traces);
    let report = TaskRunner::new(spec)
        .and_then(|runner| runner.run(traces))
        .map_err(|e| format!("run failed: {e}"))?;
    let alerts = &report.alert_ticks;
    if *alerts != ref_alerts {
        let at = alerts.iter().zip(&ref_alerts).take_while(|(a, b)| a == b);
        let at = at.count();
        return Err(format!(
            "alert #{at} at {:?}, reference at {:?} ({} vs {} alerts)",
            alerts.get(at),
            ref_alerts.get(at),
            alerts.len(),
            ref_alerts.len()
        ));
    }
    if report.total_samples != ref_samples {
        return Err(format!(
            "samples {} != reference {ref_samples}",
            report.total_samples
        ));
    }
    let truth = GroundTruth::from_aggregate_traces(traces, spec.global_threshold());
    let violations = truth.violation_ticks();
    if let Some(tick) = alerts.iter().find(|t| !violations.contains(t)) {
        return Err(format!("alert at {tick} without a violation"));
    }
    Ok(ref_alerts.len())
}

/// One seed of the sweep: its fault-free run matches the reference, and
/// its supervised faulted run completes and reruns identically.
fn sweep_seed(seed: u64) -> Result<usize, String> {
    let spec = sweep_spec(seed);
    let monitors = spec.monitors().len();
    let traces = traces(monitors, SWEEP_TICKS, seed);
    let compared = check_parity(&spec, &traces)?;
    let faulted = || {
        TaskRunner::new(&spec)
            .map(|runner| runner.with_fault_plan(sweep_plan(seed, monitors)))
            .and_then(|runner| runner.run(&traces))
            .map_err(|e| format!("faulted run failed: {e}"))
    };
    let first = faulted()?;
    if first.ticks != SWEEP_TICKS as u64 || first.quarantines != first.restarts {
        return Err(format!("faulted run: {first:?}"));
    }
    if faulted()? != first {
        return Err("the faulted rerun differs".into());
    }
    Ok(compared)
}

/// Sweeps `seeds`, failing with a one-line `seed=<n>` repro at the first
/// seed that breaks.
fn sweep(seeds: std::ops::Range<u64>) {
    let mut compared = 0;
    for seed in seeds {
        match sweep_seed(seed) {
            Ok(alerts) => compared += alerts,
            Err(what) => panic!("seed={seed}: {what}"),
        }
    }
    assert!(compared > 0, "no seed alerted");
}

/// The in-process half of whole-system simulation testing: 64 seeded
/// tasks, plus uneven local thresholds carried by the spec itself (a
/// proportional split), as a deployment with per-monitor selectivity
/// builds it.
#[test]
fn exact_parity_across_seeds_and_sizes() {
    let weighted = TaskSpec::builder(240.0)
        .threshold_split(volley::core::ThresholdSplit::Proportional)
        .threshold_weights(vec![1.0, 2.0, 3.0, 2.0])
        .error_allowance(0.02)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec");
    if let Err(what) = check_parity(&weighted, &traces(4, 1200, 4)) {
        panic!("weighted: {what}");
    }
    sweep(0..64);
}

#[test]
#[ignore = "500 seeds; CI runs it in release"]
fn exact_parity_across_500_seeds() {
    sweep(0..500);
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
