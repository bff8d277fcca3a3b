//! Renderers of the ablation rows of [`crate::tables::TABLES`]. Every
//! single-sampler ablation is [`run_adaptive`] / [`run_cell`] at `k` = 1%,
//! `err` = 1% with one knob of the controller varied.

use volley_core::accuracy::{sample_log, AccuracyReport, GroundTruth};
use volley_core::allocation::{AllocationConfig, AllocationStrategy, AllowanceCostMode, YieldMode};
use volley_core::coordinator::CoordinationScheme;
use volley_core::stats::DeltaTracker;
use volley_core::window::{SlidingWindow, WindowedSampler};
use volley_core::{
    misdetection_bound, AdaptiveSampler, BoundKind, Interval, PeriodicSampler, ReactiveSampler,
    SamplingPolicy, StatsKind,
};
use volley_traces::TraceFamily;

use crate::experiments::{merge_over, run_adaptive, run_cell};
use crate::figures::{skew_traces, skewed_cost};
use crate::params::SweepParams;
use crate::workloads::WorkloadSet;

/// One `family  variant  cost-ratio  miss-rate` line; `width` is the
/// variant column's.
fn cost_miss_row(family: TraceFamily, variant: &str, width: usize, r: &AccuracyReport) -> String {
    format!(
        "{:<14}{variant:<width$}{:>12.4}{:>12.4}\n",
        family.name(),
        r.cost_ratio(),
        r.misdetection_rate()
    )
}

/// Header matching [`cost_miss_row`].
fn cost_miss_header(title: &str, variant: &str, width: usize) -> String {
    format!(
        "# {title}\n{:<14}{variant:<width$}{:>12}{:>12}\n",
        "family", "cost-ratio", "miss-rate"
    )
}

/// A named policy constructor: threshold → boxed policy.
type PolicyFactory = Box<dyn Fn(f64) -> Box<dyn SamplingPolicy>>;

/// A4: `periodic-1` (the accuracy baseline), `periodic-4` (a coarser
/// hand-picked interval), `reactive` (double-on-quiet / reset-on-violation,
/// no likelihood estimation) and `volley` on identical workloads.
pub fn baselines(params: &SweepParams) -> String {
    let params = *params;
    let adaptation = params.adaptation(0.01).build().expect("valid adaptation");
    let policies: [(&str, PolicyFactory); 4] = [
        (
            "periodic-1",
            Box::new(|t| Box::new(PeriodicSampler::new(Interval::DEFAULT, t))),
        ),
        (
            "periodic-4",
            Box::new(|t| Box::new(PeriodicSampler::new(Interval::new(4).expect("non-zero"), t))),
        ),
        (
            "reactive",
            Box::new(move |t| {
                let cap = Interval::new_clamped(params.max_interval);
                Box::new(ReactiveSampler::new(t, cap, 5))
            }),
        ),
        (
            "volley",
            Box::new(move |t| Box::new(AdaptiveSampler::new(adaptation, t))),
        ),
    ];
    let mut out = cost_miss_header(
        "Baseline comparison (k=1%, err=1% where applicable)",
        "policy",
        14,
    );
    for family in TraceFamily::ALL {
        let workload = WorkloadSet::generate(family, &params);
        for (name, make) in &policies {
            out += &cost_miss_row(family, name, 14, &run_cell(&workload, 1.0, make));
        }
    }
    out
}

/// A3: the *predicted* bound `β(I)` (averaged over samples) against the
/// *empirical* frequency of a violation within the next `I` ticks, then
/// the full adaptation under the Chebyshev and the Gaussian tail bound.
pub fn bound(params: &SweepParams) -> String {
    let mut out = format!(
        "# Chebyshev β(I) bound vs empirical violation frequency (k=1%)\n\
         {:<14}{:<4}{:>14}{:>14}{:>10}\n",
        "family", "I", "mean-bound", "empirical", "ratio"
    );
    let workloads = TraceFamily::ALL.map(|family| WorkloadSet::generate(family, params));
    for (family, workload) in TraceFamily::ALL.iter().zip(&workloads) {
        for interval in [1u32, 2, 4, 8] {
            let (mut bound_sum, mut hits, mut n) = (0.0, 0u64, 0u64);
            for trace in workload.traces() {
                let threshold =
                    volley_core::selectivity_threshold(trace, 1.0).expect("valid trace");
                let mut tracker = DeltaTracker::new();
                for (t, &v) in trace.iter().enumerate() {
                    tracker.record(t as u64, v);
                    let stats = tracker.stats();
                    if stats.count() < 5 {
                        continue;
                    }
                    bound_sum +=
                        misdetection_bound(v, threshold, stats.mean(), stats.std_dev(), interval);
                    // Empirical: does any of the next `interval` ticks
                    // violate?
                    let end = (t + 1 + interval as usize).min(trace.len());
                    hits += u64::from(trace[t + 1..end].iter().any(|x| *x > threshold));
                    n += 1;
                }
            }
            let mean_bound = bound_sum / n.max(1) as f64;
            let empirical = hits as f64 / n.max(1) as f64;
            let ratio = if empirical > 0.0 {
                mean_bound / empirical
            } else {
                f64::INFINITY
            };
            out += &format!(
                "{:<14}{interval:<4}{mean_bound:>14.4}{empirical:>14.4}{ratio:>10.1}\n",
                family.name()
            );
        }
    }
    out += "\nratio > 1 everywhere: the bound is safe (conservative) on every family.\n\n";

    // The Gaussian variant assumes δ is normal — tighter bounds, longer
    // intervals, cheaper monitoring — but the assumption is false on
    // these traces (episodes make δ heavy-tailed), so its misses exceed
    // the Chebyshev run's.
    out += &cost_miss_header(
        "Adaptation under each tail bound (k=1%, err=1%)",
        "bound",
        12,
    );
    for (family, workload) in TraceFamily::ALL.iter().zip(&workloads) {
        for (name, kind) in [
            ("chebyshev", BoundKind::Chebyshev),
            ("gaussian", BoundKind::Gaussian),
        ] {
            let adaptation = params.adaptation(0.01).bound(kind).build().expect("valid");
            let report = run_adaptive(workload, 1.0, adaptation);
            out += &cost_miss_row(*family, name, 12, &report);
        }
    }
    out
}

/// A1: slack ratio `γ` × patience `p` around the paper's `γ = 0.2,
/// p = 20`, on the system workload.
pub fn gamma_p(params: &SweepParams) -> String {
    let workload = WorkloadSet::generate(TraceFamily::System, params);
    let mut out = format!(
        "# Ablation: slack ratio γ and patience p (system tasks, err=0.01, k=1%)\n\
         {:<8}{:<6}{:>12}{:>12}\n",
        "gamma", "p", "cost-ratio", "miss-rate"
    );
    for gamma in [0.0, 0.1, 0.2, 0.4, 0.8] {
        for patience in [1u32, 5, 20, 50] {
            let adaptation = params
                .adaptation(0.01)
                .slack_ratio(gamma)
                .patience(patience)
                .build()
                .expect("valid adaptation config");
            let r = run_adaptive(&workload, 1.0, adaptation);
            out += &format!(
                "{gamma:<8}{patience:<6}{:>12.4}{:>12.4}\n",
                r.cost_ratio(),
                r.misdetection_rate()
            );
        }
    }
    out
}

/// A7: the paper's windowed-restart δ estimator (forget everything every
/// 1000 samples) versus exponentially-forgetting (EWMA) estimation.
pub fn stats(params: &SweepParams) -> String {
    let estimators = [
        ("windowed-1000", StatsKind::WindowedRestart),
        ("ewma-0.01", StatsKind::Ewma { lambda: 0.01 }),
        ("ewma-0.05", StatsKind::Ewma { lambda: 0.05 }),
        ("ewma-0.2", StatsKind::Ewma { lambda: 0.2 }),
    ];
    let mut out = cost_miss_header(
        "δ-statistics estimator ablation (k=1%, err=1%)",
        "estimator",
        18,
    );
    for family in TraceFamily::ALL {
        let workload = WorkloadSet::generate(family, params);
        for (name, kind) in estimators {
            let adaptation = params.adaptation(0.01).stats(kind).build().expect("valid");
            let report = run_adaptive(&workload, 1.0, adaptation);
            out += &cost_miss_row(family, name, 18, &report);
        }
    }
    out
}

/// Width in ticks of A5's sliding window.
const WINDOW: u64 = 20;

/// A5: the raw condition `v > Q(v, 100−k)` versus the §VII windowed one
/// `mean_W(v) > Q(mean_W(v), 100−k)`, each scored against its own ground
/// truth.
pub fn window(params: &SweepParams) -> String {
    let adaptation = params.adaptation(0.01).build().expect("valid adaptation");
    let mut out = cost_miss_header(
        &format!("Windowed-mean monitoring vs raw (k=1%, err=1%, window {WINDOW} ticks)"),
        "form",
        10,
    );
    for family in TraceFamily::ALL {
        let workload = WorkloadSet::generate(family, params);
        let raw = run_adaptive(&workload, 1.0, adaptation);
        let windowed = merge_over(&workload, |trace| {
            let mut window = SlidingWindow::new(WINDOW).expect("valid width");
            let series: Vec<f64> = trace
                .iter()
                .enumerate()
                .map(|(t, &v)| {
                    window.push(t as u64, v);
                    window.mean()
                })
                .collect();
            let threshold = volley_core::selectivity_threshold(&series, 1.0).expect("valid");
            let mut sampler =
                WindowedSampler::new(adaptation, threshold, WINDOW).expect("valid window");
            sample_log(trace, |tick, value| sampler.observe(tick, value)).score(
                &GroundTruth::from_trace(&series, threshold),
                trace.len() as u64,
            )
        });
        out += &cost_miss_row(family, "raw", 10, &raw);
        out += &cost_miss_row(family, "windowed", 10, &windowed);
    }
    out
}

/// A2: Figure 8's skewed setup under every allocation strategy × yield
/// formula (`r_i` paper-total vs marginal) × allowance-cost formula
/// (`e_i` at the grown vs the current interval).
pub fn yield_variants(params: &SweepParams) -> String {
    let traces = skew_traces(params, None);
    let mut out = format!(
        "# Ablation: allocation strategy × yield formula variants (skewed fig8 setup)\n\
         {:<14}{:<14}{:<10}{:>10}{:>10}{:>10}\n",
        "strategy", "yield", "cost", "skew=0", "skew=1", "skew=2"
    );
    for (sname, strategy) in [
        ("iterative", AllocationStrategy::Iterative),
        ("proportional", AllocationStrategy::Proportional),
    ] {
        for (yname, yield_mode) in [
            ("paper-total", YieldMode::PaperTotal),
            ("marginal", YieldMode::Marginal),
        ] {
            for (cname, cost_mode) in [
                ("grown", AllowanceCostMode::Grown),
                ("current", AllowanceCostMode::Current),
            ] {
                let allocation = AllocationConfig {
                    strategy,
                    yield_mode,
                    cost_mode,
                    update_period_ticks: 500,
                    ..AllocationConfig::default()
                };
                let [r0, r1, r2] = [0.0, 1.0, 2.0].map(|skew| {
                    skewed_cost(
                        CoordinationScheme::Adaptive,
                        allocation,
                        skew,
                        &traces,
                        params,
                    )
                });
                out +=
                    &format!("{sname:<14}{yname:<14}{cname:<10}{r0:>10.4}{r1:>10.4}{r2:>10.4}\n");
            }
        }
    }
    out
}
