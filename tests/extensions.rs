//! Integration: the beyond-the-paper extensions — windowed aggregates,
//! correlation detection and planning and a fleet of tasks — working
//! together across crates.

use volley::core::correlation::{CorrelationConfig, CorrelationDetector};
use volley::core::task::{TaskId, TaskSpec};
use volley::core::window::{SlidingWindow, WindowedSampler};
use volley::{AdaptationConfig, AdaptiveSampler, SystemMetricsGenerator};
use volley_runtime::TaskRunner;
use volley_traces::netflow::{AttackSpec, NetflowConfig};
use volley_traces::ResponseTimeModel;

fn adaptation(err: f64) -> AdaptationConfig {
    AdaptationConfig::builder()
        .error_allowance(err)
        .max_interval(16)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid adaptation")
}

#[test]
fn windowed_monitoring_is_cheaper_than_raw_on_real_metrics() {
    let trace = SystemMetricsGenerator::new(12).trace(0, 0, 8000);
    let raw_threshold = volley::selectivity_threshold(&trace, 1.0).expect("valid");
    // Ground-truth windowed series for the windowed threshold.
    let mut w = SlidingWindow::new(30).expect("valid");
    let series: Vec<f64> = trace
        .iter()
        .enumerate()
        .map(|(t, &v)| {
            w.push(t as u64, v);
            w.mean()
        })
        .collect();
    let win_threshold = volley::selectivity_threshold(&series, 1.0).expect("valid");

    let mut raw = AdaptiveSampler::new(adaptation(0.01), raw_threshold);
    let mut windowed =
        WindowedSampler::new(adaptation(0.01), win_threshold, 30).expect("valid window");
    let mut raw_samples = 0u64;
    let mut win_samples = 0u64;
    let mut tr = 0u64;
    while (tr as usize) < trace.len() {
        let obs = raw.observe(tr, trace[tr as usize]);
        raw_samples += 1;
        tr = obs.next_sample_tick;
    }
    let mut tw = 0u64;
    while (tw as usize) < trace.len() {
        let obs = windowed.observe(tw, trace[tw as usize]);
        win_samples += 1;
        tw = obs.next_sample_tick;
    }
    assert!(
        win_samples < raw_samples,
        "windowed {win_samples} should undercut raw {raw_samples}"
    );
}

#[test]
fn correlation_pipeline_end_to_end() {
    // Build correlated streams from the actual generators: attacks drive
    // ρ, ρ drives response time through the queueing model.
    let ticks = 8000usize;
    let mut config = NetflowConfig::builder()
        .seed(2)
        .vms(1)
        .scan_burst_probability(0.0);
    let mut start = 300u64;
    while (start as usize) < ticks {
        config = config.attack(AttackSpec {
            vm: 0,
            start_tick: start,
            duration_ticks: 90,
            peak_asymmetry: 2500.0,
        });
        start += 800;
    }
    let rho = config.build().generate_vm(0, ticks).rho;
    let latency = ResponseTimeModel::new(20.0, 3200.0).series(&rho, 7);
    let rho_threshold = volley::selectivity_threshold(&rho, 2.0).expect("valid");
    let lat_threshold = volley::selectivity_threshold(&latency, 8.0).expect("valid");

    // Learn.
    let mut detector = CorrelationDetector::new(
        CorrelationConfig {
            lag_window: 4,
            ..CorrelationConfig::default()
        },
        vec![TaskId(0), TaskId(1)],
    );
    let train = ticks / 2;
    for t in 0..train {
        detector.observe(
            t as u64,
            &[latency[t] > lat_threshold, rho[t] > rho_threshold],
        );
    }
    let plan = detector.plan();
    assert!(
        plan.gate(TaskId(1)).is_some(),
        "DDoS task should be gated on latency"
    );
}

#[test]
fn fleet_runs_mixed_workloads() {
    let netflow = NetflowConfig::builder()
        .seed(8)
        .vms(4)
        .build()
        .generate(600);
    let traces: Vec<Vec<f64>> = netflow.into_iter().map(|t| t.rho).collect();
    let thresholds: Vec<f64> = traces
        .iter()
        .map(|t| volley::selectivity_threshold(t, 1.0).expect("valid"))
        .collect();
    let task = |spec: TaskSpec, traces: Vec<Vec<f64>>| {
        TaskRunner::new(&spec)
            .expect("valid runner")
            .run(&traces)
            .expect("task run succeeds")
    };
    let reports = [
        task(
            TaskSpec::builder(thresholds[0] + thresholds[1])
                .monitors(2)
                .error_allowance(0.02)
                .max_interval(8)
                .patience(5)
                .build()
                .expect("valid spec"),
            traces[0..2].to_vec(),
        ),
        task(
            TaskSpec::builder(thresholds[2] + thresholds[3])
                .monitors(2)
                .error_allowance(0.02)
                .max_interval(8)
                .patience(5)
                .build()
                .expect("valid spec"),
            traces[2..4].to_vec(),
        ),
    ];
    // Periodic sampling: every tick on each task's two monitors.
    let baseline: u64 = reports.iter().map(|r| r.ticks * 2).sum();
    let samples: u64 = reports.iter().map(|r| r.total_samples).sum();
    assert_eq!(baseline, 4 * 600);
    assert!(samples < baseline, "the fleet samples below periodic");
}
