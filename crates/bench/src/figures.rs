//! Renderers of the figure rows of [`crate::tables::TABLES`]: Figures
//! 1, 2, 6 and 8 and the distributed-task simulator table. (Figures 5
//! and 7 are [`crate::experiments::err_k_matrix`].)

use volley_core::accuracy::{sample_log, GroundTruth};
use volley_core::allocation::AllocationConfig;
use volley_core::coordinator::CoordinationScheme;
use volley_core::task::TaskSpec;
use volley_core::{
    AdaptationConfig, AdaptiveSampler, DistributedTask, Interval, PeriodicSampler, SamplingPolicy,
};
use volley_sim::{
    ClusterConfig, DistributedScenario, DistributedScenarioConfig, Scenario, ScenarioConfig,
};
use volley_traces::netflow::{AttackSpec, NetflowConfig};
use volley_traces::zipf::zipf_weights;
use volley_traces::DiurnalPattern;

use crate::params::SweepParams;

/// The illustration figures' fixed controller: `err` 1%, `I_m` 8, `p` 10.
fn illustration_adaptation() -> AdaptationConfig {
    AdaptationConfig::builder()
        .error_allowance(0.01)
        .max_interval(8)
        .patience(10)
        .build()
        .expect("valid adaptation config")
}

/// Figure 1: periodic fast (A), periodic slow (B) and Volley (C) on a
/// single-VM DDoS trace with one pronounced SYN-flood ramp near the end.
/// A fixed illustration; the size knobs do not apply.
pub fn fig1(_: &SweepParams) -> String {
    let ticks = 2000;
    let config = NetflowConfig::builder()
        .seed(7)
        .vms(1)
        .scan_burst_probability(0.002)
        .diurnal(DiurnalPattern::new(2000, 0.4))
        .attack(AttackSpec {
            vm: 0,
            start_tick: 1700,
            duration_ticks: 120,
            peak_asymmetry: 3000.0,
        })
        .build();
    let trace = config.generate_vm(0, ticks).rho;
    let threshold = volley_core::selectivity_threshold(&trace, 1.0).expect("valid trace");
    let truth = GroundTruth::from_trace(&trace, threshold);
    let mut out = format!(
        "# Motivating example: threshold {threshold:.1} (k=1%), {ticks} windows of 15s\n\n"
    );
    let slow = Interval::new(8).expect("non-zero");
    let schemes: [(&str, Box<dyn SamplingPolicy>); 3] = [
        (
            "A (periodic, fast)",
            Box::new(PeriodicSampler::new(Interval::DEFAULT, threshold)),
        ),
        (
            "B (periodic, slow)",
            Box::new(PeriodicSampler::new(slow, threshold)),
        ),
        (
            "C (Volley, dynamic)",
            Box::new(AdaptiveSampler::new(illustration_adaptation(), threshold)),
        ),
    ];
    for (name, mut policy) in schemes {
        let log = sample_log(&trace, |tick, value| policy.observe(tick, value));
        let report = log.score(&truth, trace.len() as u64);
        let (events, caught) = log.score_events(&truth);
        out += &format!(
            "{name:<22} samples={:<6} cost-ratio={:<8.3} ticks={}/{} events={caught}/{events} miss-rate={:.3}\n",
            report.sampling_ops,
            report.cost_ratio(),
            report.detected,
            report.violations,
            report.misdetection_rate()
        );
    }
    out += "\nShape to observe: A detects everything at cost 1.0; B is cheap but\n\
            misses ramp violations; C detects like A at a fraction of the cost.\n";
    out
}

/// Figure 2: a time-indexed trace of one monitor — sampled value, bound
/// `β(I)` and the interval in effect — through a calm phase and an
/// attack ramp. A fixed illustration; the size knobs do not apply.
pub fn fig2(_: &SweepParams) -> String {
    let ticks = 400usize;
    let config = NetflowConfig::builder()
        .seed(11)
        .scan_burst_probability(0.0)
        .diurnal(DiurnalPattern::flat())
        .attack(AttackSpec {
            vm: 0,
            start_tick: 300,
            duration_ticks: 60,
            peak_asymmetry: 1200.0,
        })
        .build();
    let trace = config.generate_vm(0, ticks).rho;
    let threshold = volley_core::selectivity_threshold(&trace, 5.0).expect("valid trace");
    let mut sampler = AdaptiveSampler::new(illustration_adaptation(), threshold);

    let mut out = format!(
        "# Violation-likelihood based adaptation (threshold {threshold:.0}, err 1%)\n\
         {:>6}{:>10}{:>12}{:>10}  event\n",
        "tick", "value", "beta(I)", "interval"
    );
    let mut tick = 0u64;
    while (tick as usize) < ticks {
        let value = trace[tick as usize];
        let obs = sampler.observe(tick, value);
        let event = if obs.violation {
            "VIOLATION"
        } else if obs.collapsed {
            "collapse -> Id"
        } else if obs.grew {
            "grow +1"
        } else {
            ""
        };
        if !event.is_empty() || tick.is_multiple_of(40) {
            out += &format!(
                "{tick:>6}{value:>10.0}{:>12.5}{:>10}  {event}\n",
                obs.beta.min(1.0),
                obs.next_interval.to_string()
            );
        }
        tick = obs.next_sample_tick;
    }
    out += "\nShape to observe: the interval ratchets 1Id -> 8Id during the calm\n\
            phase and collapses back the moment the attack ramp drives beta over err.\n";
    out
}

/// The paper's 20 × 40 testbed, or `small` when `--quick` shrank the
/// task knob: quick runs shrink the cluster, not the physics.
fn cluster(params: &SweepParams, small: ClusterConfig) -> ClusterConfig {
    if params.tasks <= SweepParams::quick().tasks {
        small
    } else {
        ClusterConfig::paper()
    }
}

/// Figure 6: five-number summary of Dom0 CPU utilization over all
/// (server, window) samples of a simulated network-monitoring run, per
/// error allowance.
pub fn fig6(params: &SweepParams) -> String {
    let cluster = cluster(params, ClusterConfig::new(4, 40, 2));
    let mut out = format!(
        "# Dom0 CPU utilization distribution vs error allowance (network monitoring)\n\
         {:<8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>9}{:>12}\n",
        "err", "min%", "q1%", "med%", "q3%", "max%", "mean%", "miss-rate"
    );
    for err in [0.0, 0.002, 0.004, 0.008, 0.016, 0.032] {
        let report = Scenario::from_config(ScenarioConfig {
            cluster,
            error_allowance: err,
            selectivity_percent: 1.0,
            ticks: params.ticks,
            seed: params.seed,
            max_interval: params.max_interval,
            patience: params.patience,
            ..ScenarioConfig::default()
        })
        .run(1);
        let cpu = report.cpu.expect("utilization samples exist");
        out += &format!(
            "{:<8}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>9.1}{:>12.4}\n",
            err,
            cpu.min * 100.0,
            cpu.q1 * 100.0,
            cpu.median * 100.0,
            cpu.q3 * 100.0,
            cpu.max * 100.0,
            cpu.mean * 100.0,
            report.accuracy.misdetection_rate(),
        );
    }
    out
}

/// Monitors per distributed task in the skewed setup.
const MONITORS: usize = 10;
/// Aggregate local violation rate budget (fraction of ticks, summed over
/// monitors).
const TOTAL_VIOLATION_RATE: f64 = 0.01;

/// One ρ trace per monitor of the skewed setup; `scan_bursts` overrides
/// the generator's scan-burst probability.
pub(crate) fn skew_traces(params: &SweepParams, scan_bursts: Option<f64>) -> Vec<Vec<f64>> {
    let mut config = NetflowConfig::builder()
        .seed(params.seed)
        .vms(MONITORS)
        .diurnal(DiurnalPattern::new((params.ticks as u64).min(5760), 0.4));
    if let Some(p) = scan_bursts {
        config = config.scan_burst_probability(p);
    }
    let traffic = config.build().generate(params.ticks);
    traffic.into_iter().map(|t| t.rho).collect()
}

/// Sampling ratio of one ten-monitor task whose local violation rates
/// follow a Zipf(`skew`) split of [`TOTAL_VIOLATION_RATE`]: monitor
/// `i`'s threshold is the `(100 − 100·r_i)`-th percentile of its own
/// trace, the global threshold their sum.
pub(crate) fn skewed_cost(
    scheme: CoordinationScheme,
    allocation: AllocationConfig,
    skew: f64,
    traces: &[Vec<f64>],
    params: &SweepParams,
) -> f64 {
    let weights = zipf_weights(MONITORS, skew);
    let thresholds: Vec<f64> = traces
        .iter()
        .zip(&weights)
        .map(|(trace, w)| {
            let rate = (TOTAL_VIOLATION_RATE * w * MONITORS as f64).min(0.5);
            volley_core::selectivity_threshold(trace, rate * 100.0).expect("valid selectivity")
        })
        .collect();
    let spec = TaskSpec::builder(thresholds.iter().sum())
        .monitors(MONITORS)
        .error_allowance(0.05)
        .max_interval(params.max_interval)
        .patience(params.patience)
        .build()
        .expect("valid spec");
    let mut task = DistributedTask::with_scheme(&spec, scheme, allocation).expect("valid task");
    for (i, threshold) in thresholds.iter().enumerate() {
        task.set_local_threshold(i, *threshold)
            .expect("monitor exists");
    }
    let mut values = vec![0.0; MONITORS];
    for tick in 0..traces[0].len() {
        for (value, trace) in values.iter_mut().zip(traces) {
            *value = trace[tick];
        }
        task.step(tick as u64, &values)
            .expect("value count matches");
    }
    task.cost_ratio()
}

/// Figure 8: the iterative allowance tuning scheme (`adapt`) versus the
/// static even split (`even`) as local violation rates skew from
/// uniform toward Zipf.
pub fn fig8(params: &SweepParams) -> String {
    let traces = skew_traces(params, Some(0.001));
    let allocation = AllocationConfig {
        update_period_ticks: 500,
        uniform_skip_ratio: 3.0,
        ..AllocationConfig::default()
    };
    let mut out = format!(
        "# Distributed coordination: sampling ratio vs local-violation-rate skew\n\
         {:<10}{:>12}{:>12}\n",
        "skewness", "even", "adapt"
    );
    for skew in [0.0, 0.5, 1.0, 1.5, 2.0] {
        let [even, adapt] = [CoordinationScheme::Even, CoordinationScheme::Adaptive]
            .map(|scheme| skewed_cost(scheme, allocation, skew, &traces, params));
        out += &format!("{skew:<10}{even:>12.4}{adapt:>12.4}\n");
    }
    out
}

/// E12: multi-VM tasks on the datacenter simulator — local adaptive
/// sampling, local violations and poll-forced samples all charged
/// against simulated Dom0 CPU, per allowance and coordination scheme.
pub fn distributed_sim(params: &SweepParams) -> String {
    let cluster = cluster(params, ClusterConfig::new(4, 20, 2));
    let mut out = format!(
        "# Distributed tasks (5 VMs each) on the simulator\n\
         {:<8}{:<10}{:>12}{:>10}{:>10}{:>12}{:>12}\n",
        "err", "scheme", "cost-ratio", "polls", "alerts", "Dom0 mean%", "miss-rate"
    );
    for err in [0.0, 0.01, 0.05] {
        for (name, scheme) in [
            ("even", CoordinationScheme::Even),
            ("adapt", CoordinationScheme::Adaptive),
        ] {
            let report = DistributedScenario::from_config(DistributedScenarioConfig {
                cluster,
                task_size: 5,
                error_allowance: err,
                ticks: params.ticks.min(3000),
                seed: params.seed,
                max_interval: params.max_interval,
                patience: params.patience,
                scheme,
            })
            .run(1);
            let cpu = report.cpu.as_ref().expect("cpu recorded");
            out += &format!(
                "{:<8}{:<10}{:>12.4}{:>10}{:>10}{:>11.1}%{:>12.4}\n",
                err,
                name,
                report.cost_ratio(),
                report.global_polls,
                report.alerts,
                cpu.mean * 100.0,
                report.accuracy.misdetection_rate()
            );
        }
    }
    out
}
