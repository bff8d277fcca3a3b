//! E9 (extension): multi-task state-correlation based monitoring (§II-B).
//!
//! Scenario from the paper's motivating example: DDoS attacks inflate a
//! VM's traffic difference ρ *and* its request response time — elevated
//! response time is (approximately) a necessary condition of an effective
//! attack. The correlation detector learns that relation from a training
//! window, gates the expensive DDoS task on the cheap response-time task,
//! and the harness reports the cost/accuracy effect on an evaluation
//! window.
//!
//! Writes `reproduction/correlation.txt` and
//! `reproduction/correlation.json` (the shared schema-6 envelope);
//! `--out <dir>` redirects both. For the fleet-scale version of this
//! experiment on the sharded engine, see the `multitask` binary.

use serde::Serialize;
use volley_bench::params::{BenchArgs, OUT, QUICK, SEED, TICKS};
use volley_core::accuracy::{DetectionLog, GroundTruth};
use volley_core::correlation::{CorrelationConfig, CorrelationDetector};
use volley_core::task::TaskId;
use volley_core::Interval;
use volley_traces::netflow::{AttackSpec, NetflowConfig};
use volley_traces::DiurnalPattern;

#[derive(Serialize)]
struct CorrelationBenchReport {
    ticks: usize,
    train_ticks: usize,
    seed: u64,
    lag_window: u32,
    /// Learned `P(response-time high | DDoS violation)`.
    confidence: f64,
    follower_gated: bool,
    gated_interval: u32,
    /// Periodic follower cost over the evaluation window (the baseline).
    periodic_samples: u64,
    gated_samples: u64,
    gated_misdetection_rate: f64,
    gated_cost_ratio: f64,
}

/// Builds the correlated pair of traces: (response time, traffic
/// difference ρ) under recurring attacks.
fn build_traces(ticks: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut config = NetflowConfig::builder()
        .seed(seed)
        .vms(1)
        .scan_burst_probability(0.0)
        .diurnal(DiurnalPattern::new((ticks as u64).min(5760), 0.3));
    // Recurring attacks throughout the run.
    let mut start = 400u64;
    while (start as usize) < ticks {
        config = config.attack(AttackSpec {
            vm: 0,
            start_tick: start,
            duration_ticks: 80,
            peak_asymmetry: 2500.0,
        });
        start += 900;
    }
    let rho = config.build().generate_vm(0, ticks).rho;
    // Response time tracks attack load through an M/M/1-style model:
    // attack asymmetry pushes utilization toward the knee and latency up.
    let response = volley_traces::ResponseTimeModel::new(20.0, 3200.0).series(&rho, seed ^ 1);
    (response, rho)
}

fn main() {
    let BenchArgs { params, out, .. } =
        BenchArgs::from_env("correlation", &[QUICK, TICKS, SEED, OUT]);
    let ticks = params.ticks.max(4000);
    eprintln!("correlation: ticks={ticks}");
    let (response, rho) = build_traces(ticks, params.seed);
    let train = ticks / 2;

    let rho_threshold = volley_core::selectivity_threshold(&rho, 2.0).expect("valid trace");
    let resp_threshold = volley_core::selectivity_threshold(&response, 8.0).expect("valid trace");

    // Train the detector on the first half.
    let leader = TaskId(0); // response time (cheap to sample)
    let follower = TaskId(1); // DDoS ρ (expensive deep packet inspection)
    let config = CorrelationConfig {
        lag_window: 4,
        ..CorrelationConfig::default()
    };
    let mut detector = CorrelationDetector::new(config, vec![leader, follower]);
    for t in 0..train {
        detector.observe(
            t as u64,
            &[response[t] > resp_threshold, rho[t] > rho_threshold],
        );
    }
    let confidence = detector
        .necessity_confidence(leader, follower)
        .unwrap_or(0.0);
    let plan = detector.plan();

    // Evaluate on the second half: the follower samples at the gated
    // interval while the leader (sampled every tick — it is cheap) is
    // quiet, and at the default interval once the leader fires.
    let eval_rho = &rho[train..];
    let eval_resp = &response[train..];
    let truth = GroundTruth::from_trace(eval_rho, rho_threshold);
    let mut gated_log = DetectionLog::new();
    let mut next_sample = 0u64;
    for (t, &value) in eval_rho.iter().enumerate() {
        let tick = t as u64;
        if tick >= next_sample {
            gated_log.record(tick, 1, value > rho_threshold);
            let leader_active = eval_resp[t] > resp_threshold;
            let interval = plan.interval_for(follower, leader_active, Interval::DEFAULT);
            next_sample = tick + u64::from(interval);
        }
    }
    let gated = gated_log.score(&truth, eval_rho.len() as u64);

    let report = CorrelationBenchReport {
        ticks,
        train_ticks: train,
        seed: params.seed,
        lag_window: config.lag_window,
        confidence,
        follower_gated: plan.gate(follower).is_some(),
        gated_interval: plan.gate(follower).map_or(0, |g| g.gated_interval.get()),
        periodic_samples: eval_rho.len() as u64,
        gated_samples: gated.sampling_ops,
        gated_misdetection_rate: gated.misdetection_rate(),
        gated_cost_ratio: gated.cost_ratio(),
    };

    let mut text = String::from("# State-correlation monitoring\n");
    text.push_str(&format!(
        "learned: P(response-time high | DDoS violation) = {confidence:.3}; follower gated: {}\n",
        report.follower_gated
    ));
    // Baseline: periodic sampling of the follower at the default interval.
    text.push_str(&format!(
        "periodic follower:   samples={:<7} miss-rate=0.000\n",
        report.periodic_samples
    ));
    text.push_str(&format!(
        "correlation-gated:   samples={:<7} miss-rate={:.3} cost-ratio={:.3}\n",
        report.gated_samples, report.gated_misdetection_rate, report.gated_cost_ratio
    ));
    text.push_str(
        "\nShape to observe: the gated task cuts most sampling cost while its\n\
         necessary-condition leader keeps the miss rate near zero.\n",
    );
    print!("{text}");

    std::fs::create_dir_all(&out).expect("create output dir");
    std::fs::write(out.join("correlation.txt"), &text).expect("write txt");
    std::fs::write(
        out.join("correlation.json"),
        volley_serve::envelope("correlation", &report),
    )
    .expect("write json");
}
