//! Multi-task correlation suppression cost/accuracy curve (§II.B).
//!
//! Runs the [`DdosCascadeScenario`] — one cheap response-time leader and
//! one expensive traffic-asymmetry follower per VM, attacks driving both
//! — across a sweep of error allowances, each point twice: the plain
//! adaptive baseline (`gated = false`) and the correlation-gated run.
//! The difference prices the multi-task scheme: how many follower
//! samples the learned leader gate saves on top of per-task adaptation,
//! and what mis-detection it costs.
//!
//! Writes `reproduction/multitask.txt` and `reproduction/multitask.json`
//! (the shared schema-6 envelope). Exits non-zero — in smoke *and* full
//! mode — if any gated point mis-detects above its allowance, fails to
//! gate any VM, or fails to save follower samples over its ungated twin.
//!
//! [`DdosCascadeScenario`]: volley_sim::DdosCascadeScenario

use serde::Serialize;
use volley_bench::params::{BenchArgs, OUT, SMOKE};
use volley_sim::{ClusterConfig, DdosCascadeConfig, DdosCascadeScenario};

/// Allowances swept; each produces a gated/ungated pair of runs.
const ALLOWANCES: [f64; 3] = [0.02, 0.05, 0.10];

/// One arm (gated or ungated) of a sweep point.
#[derive(Serialize)]
struct ArmReport {
    follower_samples: u64,
    leader_samples: u64,
    cost_ratio: f64,
    misdetection_rate: f64,
    gated_vms: u32,
    mean_confidence: f64,
}

/// One error-allowance point of the curve.
#[derive(Serialize)]
struct SweepPoint {
    error_allowance: f64,
    ungated: ArmReport,
    gated: ArmReport,
    /// Follower samples the gate saved relative to the ungated twin.
    savings_ratio: f64,
    /// Mis-detection the gate added on top of per-task adaptation.
    misdetection_delta: f64,
}

#[derive(Serialize)]
struct MultitaskBenchReport {
    smoke: bool,
    vms: u32,
    ticks: usize,
    train_ticks: usize,
    lag_window: u32,
    points: Vec<SweepPoint>,
}

fn arm(report: &volley_sim::CascadeReport) -> ArmReport {
    ArmReport {
        follower_samples: report.follower_samples,
        leader_samples: report.leader_samples,
        cost_ratio: report.cost_ratio(),
        misdetection_rate: report.misdetection_rate(),
        gated_vms: report.gated_vms,
        mean_confidence: report.mean_confidence,
    }
}

fn main() {
    let BenchArgs { smoke, out, .. } = BenchArgs::from_env("multitask", &[SMOKE, OUT]);
    let base = if smoke {
        DdosCascadeConfig {
            cluster: ClusterConfig::new(2, 4, 1),
            ticks: 2400,
            train_ticks: 1200,
            attack_period: 600,
            ..DdosCascadeConfig::default()
        }
    } else {
        DdosCascadeConfig {
            cluster: ClusterConfig::new(8, 10, 2),
            ticks: 6000,
            train_ticks: 3000,
            ..DdosCascadeConfig::default()
        }
    };
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    let vms = base.cluster.total_vms();
    eprintln!(
        "multitask: smoke={smoke}, {vms} VM pairs x {} ticks (train {}), {threads} threads",
        base.ticks, base.train_ticks
    );

    let mut failures = Vec::new();
    let mut points = Vec::new();
    for allowance in ALLOWANCES {
        let config = DdosCascadeConfig {
            error_allowance: allowance,
            ..base.clone()
        };
        let ungated = DdosCascadeScenario::from_config(DdosCascadeConfig {
            gated: false,
            ..config.clone()
        })
        .run_parallel(threads);
        let gated = DdosCascadeScenario::from_config(DdosCascadeConfig {
            gated: true,
            ..config
        })
        .run_parallel(threads);

        if gated.gated_vms == 0 {
            failures.push(format!("err={allowance}: training qualified no gates"));
        }
        if gated.follower_samples >= ungated.follower_samples {
            failures.push(format!(
                "err={allowance}: gated follower samples {} did not beat ungated {}",
                gated.follower_samples, ungated.follower_samples
            ));
        }
        if gated.misdetection_rate() > allowance {
            failures.push(format!(
                "err={allowance}: gated mis-detection {:.4} above the allowance",
                gated.misdetection_rate()
            ));
        }

        points.push(SweepPoint {
            error_allowance: allowance,
            savings_ratio: 1.0 - gated.follower_samples as f64 / ungated.follower_samples as f64,
            misdetection_delta: gated.misdetection_rate() - ungated.misdetection_rate(),
            ungated: arm(&ungated),
            gated: arm(&gated),
        });
    }

    let report = MultitaskBenchReport {
        smoke,
        vms,
        ticks: base.ticks,
        train_ticks: base.train_ticks,
        lag_window: base.correlation.lag_window,
        points,
    };

    let mut text = format!(
        "multi-task suppression curve (DDoS cascade, {vms} VM pairs, {} ticks, {} training)\n\
         {:>6}  {:>9} {:>9} {:>8}  {:>9} {:>9} {:>8}  {:>7} {:>6}\n",
        report.ticks,
        report.train_ticks,
        "err",
        "ungated",
        "gated",
        "saved",
        "miss(un)",
        "miss(gt)",
        "delta",
        "gates",
        "conf",
    );
    for p in &report.points {
        text.push_str(&format!(
            "{:>6.2}  {:>9} {:>9} {:>7.1}%  {:>9.4} {:>9.4} {:>8.4}  {:>5}/{:<3} {:>6.3}\n",
            p.error_allowance,
            p.ungated.follower_samples,
            p.gated.follower_samples,
            p.savings_ratio * 100.0,
            p.ungated.misdetection_rate,
            p.gated.misdetection_rate,
            p.misdetection_delta,
            p.gated.gated_vms,
            report.vms,
            p.gated.mean_confidence,
        ));
    }
    print!("{text}");

    std::fs::create_dir_all(&out).expect("create output dir");
    std::fs::write(out.join("multitask.txt"), &text).expect("write txt");
    std::fs::write(
        out.join("multitask.json"),
        volley_serve::envelope("multitask", &report),
    )
    .expect("write json");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    eprintln!("multi-task suppression bounds hold");
}
