//! Renderers of the extension rows of [`crate::tables::TABLES`]: the
//! experiments this reproduction adds to the paper's evaluation, two of
//! them on the live runtime. Each function builds one report that two
//! rows render (text and JSON) and asserts its experiment's acceptance
//! gate, so `reproduce` enforces the gates at full size and the row test
//! at test size.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;
use volley_core::task::TaskSpec;
use volley_core::DistributedTask;
use volley_runtime::{FaultPath, FaultPlan, RuntimeReport, TaskRunner};
use volley_sim::{CascadeReport, ClusterConfig, DdosCascadeConfig, DdosCascadeScenario};

use crate::params::SweepParams;
use crate::report::Matrix;

/// Message loss vs alert detection: the live runtime over a bursty
/// workload with known ground-truth alerts while a deterministic
/// [`FaultPlan`] drops a growing fraction of both monitor→coordinator
/// reply paths (violation reports and poll replies). Lost violation
/// reports suppress polls outright; lost poll replies force degraded
/// aggregation (the missing monitor counted at its local threshold),
/// which errs toward alerting — the curve quantifies both effects.
///
/// # Panics
///
/// Unless the lossless run detects every ground-truth alert.
pub fn robustness(p: &SweepParams) -> Matrix {
    const MONITORS: usize = 5;
    const DROP_RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8];
    /// Every `BURST_EVERY`-th tick all monitors spike together,
    /// producing one unambiguous ground-truth alert.
    const BURST_EVERY: usize = 97;
    let ticks = p.ticks.min(2000);

    // Even threshold split: local threshold T_i = T / n. Bursts push every
    // monitor to 1.4 T_i, so each burst is both a local violation on every
    // monitor and a global one (Σ = 1.4 T > T).
    let global = 100.0 * MONITORS as f64;
    let local = global / MONITORS as f64;
    let spec = TaskSpec::builder(global)
        .monitors(MONITORS)
        .error_allowance(0.01)
        .max_interval(p.max_interval)
        .patience(p.patience)
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
        let plan = FaultPlan::new(p.seed)
            .with_drop_rate(FaultPath::ViolationReport, rate)
            .with_drop_rate(FaultPath::PollReply, rate);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_fault_plan(plan)
            .run(&traces)
            .expect("run completes despite faults");
        let detected = report
            .alert_ticks
            .iter()
            .filter(|t| truth.contains(t))
            .count();
        rows.push(format!("{rate}"));
        cells.push(vec![
            detected as f64 / truth.len() as f64,
            (report.alert_ticks.len() - detected) as f64,
            report.polls as f64,
            report.degraded_polls as f64,
            report.missed_tick_reports as f64,
        ]);
    }
    assert_eq!(cells[0][0], 1.0, "lossless run detects all alerts");

    Matrix::new(
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
    )
}

/// Crash-recovery cost: the coordinator is killed halfway through a
/// quiet-heavy workload (after the samplers have grown their intervals)
/// and fails over to a warm standby, once per checkpoint cadence plus
/// once with no WAL at all — the conservative baseline that resets every
/// sampler to `I_d`. Two sustained bursts after the crash measure
/// post-recovery detection. The WALs live in a fresh temp directory that
/// is removed before this returns.
///
/// # Panics
///
/// Unless every restart keeps detection within 2% of the no-fault run
/// and every checkpointed failover samples strictly less than the
/// conservative restart.
pub fn recovery(p: &SweepParams) -> Matrix {
    const MONITORS: usize = 4;
    const BURST_LEN: u64 = 12;
    const CHECKPOINT_INTERVALS: [u64; 3] = [10, 25, 50];
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let ticks = p.ticks.clamp(400, 2000) as u64;
    let crash = ticks / 2;

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
    // Both bursts land after the crash; the quiet lead-in is what lets
    // the samplers grow the intervals whose survival is being priced.
    let windows = [13, 17].map(|at| (ticks * at / 20, ticks * at / 20 + BURST_LEN));
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
    let detection = |report: &RuntimeReport| {
        let detected = windows
            .iter()
            .filter(|(s, e)| report.alert_ticks.iter().any(|t| t >= s && t < e))
            .count();
        detected as f64 / windows.len() as f64
    };

    let wal_dir = std::env::temp_dir().join(format!(
        "volley-recovery-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&wal_dir).expect("wal directory is creatable");
    let run = |wal: Option<u64>, crashed: bool| -> RuntimeReport {
        let mut plan = FaultPlan::new(p.seed);
        if crashed {
            plan = plan.with_coordinator_crash(crash);
        }
        let mut runner = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_fault_plan(plan)
            .with_standby(true);
        if let Some(every) = wal {
            runner = runner.with_wal(wal_dir.join(format!("ckpt-{every}.wal")), every);
        }
        runner.run(&traces).expect("run completes despite faults")
    };
    let no_fault = run(None, false);
    let conservative = run(None, true);
    let checkpointed = CHECKPOINT_INTERVALS.map(|every| run(Some(every), true));
    std::fs::remove_dir_all(&wal_dir).expect("wal directory is removable");

    let reference = detection(&no_fault);
    assert!(
        detection(&conservative) >= reference * 0.98,
        "conservative restart loses detection"
    );
    for (every, report) in CHECKPOINT_INTERVALS.iter().zip(&checkpointed) {
        assert!(
            detection(report) >= reference * 0.98,
            "ckpt-{every} loses detection"
        );
        assert!(
            report.total_samples < conservative.total_samples,
            "ckpt-{every} samples {} not below conservative {}",
            report.total_samples,
            conservative.total_samples
        );
    }

    let mut rows = vec!["no-fault".to_string(), "conservative".to_string()];
    rows.extend(CHECKPOINT_INTERVALS.map(|every| format!("ckpt-{every}")));
    let cells = [&no_fault, &conservative]
        .into_iter()
        .chain(&checkpointed)
        .map(|report| {
            vec![
                detection(report),
                report.total_samples as f64,
                report.cost_ratio(MONITORS),
                report.coordinator_failovers as f64,
                report.checkpoint_restores as f64,
            ]
        })
        .collect();
    Matrix::new(
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
    )
}

/// The [`correlation`] experiment's outcome (the `correlation_json`
/// row's report).
#[derive(Debug, Serialize)]
pub struct CorrelationBenchReport {
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

impl CorrelationBenchReport {
    /// The text table.
    pub fn render(&self) -> String {
        format!(
            "# State-correlation monitoring\n\
             learned: P(response-time high | DDoS violation) = {:.3}; follower gated: {}\n\
             periodic follower:   samples={:<7} miss-rate=0.000\n\
             correlation-gated:   samples={:<7} miss-rate={:.3} cost-ratio={:.3}\n\
             \nShape to observe: the gated task cuts most sampling cost while its\n\
             necessary-condition leader keeps the miss rate near zero.\n",
            self.confidence,
            self.follower_gated,
            self.periodic_samples,
            self.gated_samples,
            self.gated_misdetection_rate,
            self.gated_cost_ratio
        )
    }
}

/// E9, multi-task state-correlation based monitoring (§II-B), on the
/// paper's motivating example: DDoS attacks inflate a VM's traffic
/// difference ρ *and* its request response time, so elevated response
/// time is (approximately) a necessary condition of an effective attack.
/// A one-VM [`DdosCascadeScenario`] learns that relation on the first
/// half of the run and gates the expensive DDoS task on the cheap
/// response-time task; the second half prices the gate against
/// periodic sampling.
pub fn correlation(p: &SweepParams) -> CorrelationBenchReport {
    let ticks = p.ticks.max(4000);
    let config = DdosCascadeConfig {
        cluster: ClusterConfig::new(1, 1, 1),
        ticks,
        train_ticks: ticks / 2,
        seed: p.seed,
        ..DdosCascadeConfig::default()
    };
    let report = DdosCascadeScenario::from_config(config.clone()).run(1);
    let follower_gated = report.gated_vms > 0;
    CorrelationBenchReport {
        ticks: config.ticks,
        train_ticks: config.train_ticks,
        seed: config.seed,
        lag_window: config.correlation.lag_window,
        confidence: report.mean_confidence,
        follower_gated,
        gated_interval: if follower_gated {
            config.correlation.gated_interval.get()
        } else {
            0
        },
        periodic_samples: report.eval_ticks,
        gated_samples: report.follower_samples,
        gated_misdetection_rate: report.misdetection_rate(),
        gated_cost_ratio: report.cost_ratio(),
    }
}

/// One arm (gated or ungated) of a [`multitask`] sweep point.
#[derive(Debug, Serialize)]
struct ArmReport {
    follower_samples: u64,
    leader_samples: u64,
    cost_ratio: f64,
    misdetection_rate: f64,
    gated_vms: u32,
    mean_confidence: f64,
}

fn arm(report: &CascadeReport) -> ArmReport {
    ArmReport {
        follower_samples: report.follower_samples,
        leader_samples: report.leader_samples,
        cost_ratio: report.cost_ratio(),
        misdetection_rate: report.misdetection_rate(),
        gated_vms: report.gated_vms,
        mean_confidence: report.mean_confidence,
    }
}

/// One error-allowance point of the [`multitask`] curve.
#[derive(Debug, Serialize)]
struct SweepPoint {
    error_allowance: f64,
    ungated: ArmReport,
    gated: ArmReport,
    /// Follower samples the gate saved relative to the ungated twin.
    savings_ratio: f64,
    /// Mis-detection the gate added on top of per-task adaptation.
    misdetection_delta: f64,
}

/// The [`multitask`] curve (the `multitask_json` row's report).
#[derive(Debug, Serialize)]
pub struct MultitaskBenchReport {
    smoke: bool,
    vms: u32,
    ticks: usize,
    train_ticks: usize,
    lag_window: u32,
    points: Vec<SweepPoint>,
}

impl MultitaskBenchReport {
    /// The text table.
    pub fn render(&self) -> String {
        let mut text = format!(
            "multi-task suppression curve (DDoS cascade, {} VM pairs, {} ticks, {} training)\n",
            self.vms, self.ticks, self.train_ticks,
        );
        text.push_str(
            "   err    ungated     gated    saved   miss(un)  miss(gt)    delta    gates   conf\n",
        );
        for p in &self.points {
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
                self.vms,
                p.gated.mean_confidence,
            ));
        }
        text
    }
}

/// The multi-task correlation-suppression cost/accuracy curve (§II.B) at
/// fleet scale: the [`DdosCascadeScenario`] — one cheap response-time
/// leader and one expensive traffic-asymmetry follower per VM, attacks
/// driving both — across a sweep of error allowances, each point twice:
/// the plain adaptive baseline and the correlation-gated run. The full
/// profile runs 8 × 10 × 2 VMs over 6 000 ticks, anything smaller a
/// 2 × 4 × 1 smoke fleet over 2 400. Results do not depend on the
/// thread count.
///
/// # Panics
///
/// Unless at every allowance training gates at least one VM, the gate
/// saves follower samples over its ungated twin, and gated mis-detection
/// stays within the allowance.
pub fn multitask(p: &SweepParams) -> MultitaskBenchReport {
    let smoke = p.ticks < SweepParams::full().ticks;
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
    let points = [0.02, 0.05, 0.10]
        .into_iter()
        .map(|allowance| {
            let run = |gated| {
                DdosCascadeScenario::from_config(DdosCascadeConfig {
                    error_allowance: allowance,
                    gated,
                    ..base.clone()
                })
                .run(threads)
            };
            let (ungated, gated) = (run(false), run(true));
            assert!(
                gated.gated_vms > 0,
                "err={allowance}: training qualified no gates"
            );
            assert!(
                gated.follower_samples < ungated.follower_samples,
                "err={allowance}: gated follower samples {} did not beat ungated {}",
                gated.follower_samples,
                ungated.follower_samples
            );
            assert!(
                gated.misdetection_rate() <= allowance,
                "err={allowance}: gated mis-detection {:.4} above the allowance",
                gated.misdetection_rate()
            );
            SweepPoint {
                error_allowance: allowance,
                savings_ratio: 1.0
                    - gated.follower_samples as f64 / ungated.follower_samples as f64,
                misdetection_delta: gated.misdetection_rate() - ungated.misdetection_rate(),
                ungated: arm(&ungated),
                gated: arm(&gated),
            }
        })
        .collect();
    MultitaskBenchReport {
        smoke,
        vms: base.cluster.total_vms(),
        ticks: base.ticks,
        train_ticks: base.train_ticks,
        lag_window: base.correlation.lag_window,
        points,
    }
}
