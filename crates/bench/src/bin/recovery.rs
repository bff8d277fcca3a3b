//! Crash-recovery cost: checkpointed failover versus the paper's
//! conservative default-interval restart.
//!
//! Kills the coordinator halfway through a quiet-heavy workload (after
//! the samplers have grown their intervals) and fails over to a warm
//! standby, once per checkpoint cadence plus once with no WAL at all —
//! the conservative baseline that resets every sampler to `I_d`. Two
//! sustained bursts after the crash measure post-recovery detection.
//! The claim under test: restoring checkpointed adaptation state keeps
//! post-recovery detection at the no-fault level while sampling strictly
//! less than the conservative restart, and the residual cost of recovery
//! shrinks as checkpoints get more frequent.
//!
//! Writes `reproduction/recovery.txt` and `reproduction/recovery.json`
//! and prints the table. Accepts `--quick`, `--ticks`, `--seed` and
//! `--out <dir>`.

use std::time::Duration;

use volley_bench::params::{BenchArgs, OUT, QUICK, SEED, TICKS};
use volley_bench::report::Matrix;
use volley_core::task::TaskSpec;
use volley_runtime::{FaultPlan, RuntimeReport, TaskRunner};

const MONITORS: usize = 4;
const BURST_LEN: u64 = 12;
const CHECKPOINT_INTERVALS: [u64; 3] = [10, 25, 50];

/// Both bursts land after the mid-run crash, so they measure
/// *post-recovery* detection; the quiet lead-in is what lets the
/// samplers grow the intervals whose survival is being priced.
fn burst_windows(ticks: u64) -> [(u64, u64); 2] {
    [
        (ticks * 13 / 20, ticks * 13 / 20 + BURST_LEN),
        (ticks * 17 / 20, ticks * 17 / 20 + BURST_LEN),
    ]
}

fn detection_rate(report: &RuntimeReport, windows: &[(u64, u64)]) -> f64 {
    let detected = windows
        .iter()
        .filter(|(s, e)| report.alert_ticks.iter().any(|t| t >= s && t < e))
        .count();
    detected as f64 / windows.len() as f64
}

fn main() {
    let BenchArgs {
        params,
        out: dir,
        quick,
        ..
    } = BenchArgs::from_env("recovery", &[QUICK, TICKS, SEED, OUT]);
    let ticks = if quick {
        400
    } else {
        params.ticks.clamp(400, 2000) as u64
    };
    let crash = ticks / 2;
    eprintln!("recovery: {params:?}, {MONITORS} monitors, {ticks} ticks, crash at {crash}");

    let global = 100.0 * MONITORS as f64;
    let local = global / MONITORS as f64;
    let spec = TaskSpec::builder(global)
        .monitors(MONITORS)
        .error_allowance(0.05)
        .max_interval(8)
        .patience(3)
        .warmup_samples(3)
        .build()
        .expect("valid spec");
    let windows = burst_windows(ticks);
    let traces: Vec<Vec<f64>> = (0..MONITORS as u64)
        .map(|m| {
            (0..ticks)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64 * 0.1;
                    if windows.iter().any(|&(s, e)| (s..e).contains(&t)) {
                        local * 1.4 + wobble
                    } else {
                        local * 0.2 + wobble
                    }
                })
                .collect()
        })
        .collect();

    let wal_dir = std::env::temp_dir().join("volley-recovery-bench");
    std::fs::create_dir_all(&wal_dir).expect("wal directory is creatable");

    let run = |wal: Option<u64>, crashed: bool| -> RuntimeReport {
        let mut plan = FaultPlan::new(params.seed);
        if crashed {
            plan = plan.with_coordinator_crash(crash);
        }
        let mut runner = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_fault_plan(plan)
            .with_tick_deadline(Duration::from_millis(50))
            .with_standby(true);
        if let Some(every) = wal {
            let path = wal_dir.join(format!("recovery-{}-{every}.wal", std::process::id()));
            runner = runner.with_wal(path, every);
        }
        runner.run(&traces).expect("run completes despite faults")
    };

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut push = |name: &str, report: &RuntimeReport| {
        rows.push(name.to_string());
        cells.push(vec![
            detection_rate(report, &windows),
            report.total_samples as f64,
            report.cost_ratio(MONITORS),
            report.coordinator_failovers as f64,
            report.checkpoint_restores as f64,
        ]);
    };

    let no_fault = run(None, false);
    push("no-fault", &no_fault);
    let conservative = run(None, true);
    push("conservative", &conservative);
    let mut checkpointed = Vec::new();
    for every in CHECKPOINT_INTERVALS {
        let report = run(Some(every), true);
        push(&format!("ckpt-{every}"), &report);
        checkpointed.push(report);
    }

    let matrix = Matrix::new(
        format!(
            "Crash recovery: checkpointed vs conservative restart \
             ({MONITORS} monitors, {ticks} ticks, crash at {crash})"
        ),
        "recovery",
        rows,
        vec![
            "detect".into(),
            "samples".into(),
            "cost".into(),
            "failovers".into(),
            "restores".into(),
        ],
        cells,
    );
    print!("{}", matrix.render());

    // Acceptance: post-recovery detection within 2% of the no-fault run,
    // and every checkpointed failover strictly cheaper than the
    // conservative I_d restart.
    let reference = detection_rate(&no_fault, &windows);
    assert!(
        detection_rate(&conservative, &windows) >= reference * 0.98,
        "conservative restart loses detection"
    );
    for (every, report) in CHECKPOINT_INTERVALS.iter().zip(&checkpointed) {
        assert!(
            detection_rate(report, &windows) >= reference * 0.98,
            "ckpt-{every} loses detection"
        );
        assert!(
            report.total_samples < conservative.total_samples,
            "ckpt-{every} samples {} not below conservative {}",
            report.total_samples,
            conservative.total_samples
        );
    }

    std::fs::create_dir_all(&dir).expect("output directory is creatable");
    std::fs::write(dir.join("recovery.txt"), matrix.render()).expect("write txt");
    std::fs::write(dir.join("recovery.json"), matrix.to_json()).expect("write json");
    println!("wrote {}", dir.join("recovery.{txt,json}").display());
}
