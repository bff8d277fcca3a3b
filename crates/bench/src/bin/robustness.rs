//! Robustness sweep: message loss versus alert detection.
//!
//! Runs the live runtime over a bursty workload with known
//! ground-truth alerts while a deterministic [`FaultPlan`] drops a
//! growing fraction of both monitor→coordinator reply paths
//! (violation reports and poll replies), and measures how many
//! ground-truth alerts the degraded runtime still raises. Lost
//! violation reports suppress polls outright; lost poll replies force
//! degraded aggregation (the missing monitor counted at its local
//! threshold), which errs toward alerting — the curve quantifies both
//! effects.
//!
//! Writes `reproduction/robustness.txt` and
//! `reproduction/robustness.json` (drop rate → detection rate plus
//! supporting counters) and prints the table. Accepts `--quick`,
//! `--ticks`, `--seed`, `--max-interval` and `--out <dir>`.

use std::time::Duration;

use volley_bench::params::{BenchArgs, MAX_INTERVAL, OUT, QUICK, SEED, TICKS};
use volley_bench::report::Matrix;
use volley_core::task::TaskSpec;
use volley_core::DistributedTask;
use volley_runtime::{FaultPath, FaultPlan, TaskRunner};

const MONITORS: usize = 5;
const DROP_RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8];
/// Burst period: every `BURST_EVERY`-th tick all monitors spike together,
/// producing one unambiguous ground-truth alert.
const BURST_EVERY: usize = 97;

fn main() {
    let BenchArgs {
        params,
        out: dir,
        quick,
        ..
    } = BenchArgs::from_env("robustness", &[QUICK, TICKS, SEED, MAX_INTERVAL, OUT]);
    let ticks = if quick { 600 } else { params.ticks.min(2000) };
    eprintln!("robustness: {params:?}, {MONITORS} monitors, {ticks} ticks");

    // Even threshold split: local threshold T_i = T / n. Bursts push every
    // monitor to 1.4 T_i, so each burst is both a local violation on every
    // monitor and a global one (Σ = 1.4 T > T).
    let global = 100.0 * MONITORS as f64;
    let local = global / MONITORS as f64;
    let spec = TaskSpec::builder(global)
        .monitors(MONITORS)
        .error_allowance(0.01)
        .max_interval(params.max_interval)
        .patience(params.patience)
        .build()
        .expect("valid spec");
    let traces: Vec<Vec<f64>> = (0..MONITORS)
        .map(|m| {
            (0..ticks)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 11) as f64;
                    if t % BURST_EVERY == BURST_EVERY - 1 {
                        local * 1.4 + wobble
                    } else {
                        local * 0.3 + wobble
                    }
                })
                .collect()
        })
        .collect();

    // Ground truth from the fault-free reference implementation.
    let mut reference = DistributedTask::new(&spec).expect("valid task");
    let mut truth = Vec::new();
    let mut values = vec![0.0; MONITORS];
    for tick in 0..ticks as u64 {
        for (m, trace) in traces.iter().enumerate() {
            values[m] = trace[tick as usize];
        }
        if reference.step(tick, &values).expect("step").alerted() {
            truth.push(tick);
        }
    }
    assert!(
        !truth.is_empty(),
        "workload must produce ground-truth alerts"
    );

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for rate in DROP_RATES {
        let plan = FaultPlan::new(params.seed)
            .with_drop_rate(FaultPath::ViolationReport, rate)
            .with_drop_rate(FaultPath::PollReply, rate);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_fault_plan(plan)
            .with_tick_deadline(Duration::from_millis(50))
            .run(&traces)
            .expect("run completes despite faults");
        let detected = report
            .alert_ticks
            .iter()
            .filter(|t| truth.contains(t))
            .count();
        let false_alerts = report.alert_ticks.len() - detected;
        rows.push(format!("{rate}"));
        cells.push(vec![
            detected as f64 / truth.len() as f64,
            false_alerts as f64,
            report.polls as f64,
            report.degraded_polls as f64,
            report.missed_tick_reports as f64,
        ]);
    }

    let matrix = Matrix::new(
        format!(
            "Message loss vs alert detection ({MONITORS} monitors, {ticks} ticks, {} ground-truth alerts)",
            truth.len()
        ),
        "drop-rate",
        rows,
        vec![
            "detected".into(),
            "false".into(),
            "polls".into(),
            "degraded".into(),
            "missed".into(),
        ],
        cells,
    );
    print!("{}", matrix.render());

    // Sanity: a lossless network must detect every ground-truth alert.
    assert_eq!(matrix.values[0][0], 1.0, "lossless run detects all alerts");

    std::fs::create_dir_all(&dir).expect("output directory is creatable");
    std::fs::write(dir.join("robustness.txt"), matrix.render()).expect("write txt");
    std::fs::write(dir.join("robustness.json"), matrix.to_json()).expect("write json");
    println!("wrote {}", dir.join("robustness.{txt,json}").display());
}
