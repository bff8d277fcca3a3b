//! The shared evaluation machinery: the one "score every task of a
//! workload and merge" fold, and the `err × k` matrix behind Figures 5
//! and 7.

use volley_core::accuracy::{evaluate_policy, AccuracyReport};
use volley_core::{AdaptationConfig, AdaptiveSampler, SamplingPolicy};
use volley_traces::TraceFamily;

use crate::params::{SweepParams, ERR_SWEEP, SELECTIVITY_SWEEP};
use crate::report::Matrix;
use crate::workloads::WorkloadSet;

/// Scores every task trace of `workload` with `score` and merges the
/// per-task reports into the family-wide one.
pub fn merge_over(
    workload: &WorkloadSet,
    score: impl FnMut(&Vec<f64>) -> AccuracyReport,
) -> AccuracyReport {
    workload
        .traces()
        .iter()
        .map(score)
        .reduce(|merged, report| merged.merged(&report))
        .expect("workload sets are non-empty")
}

/// Runs one cell: every task gets its own `selectivity`-derived
/// threshold and a fresh policy from `make`; reports are merged.
pub fn run_cell(
    workload: &WorkloadSet,
    selectivity: f64,
    make: impl Fn(f64) -> Box<dyn SamplingPolicy>,
) -> AccuracyReport {
    merge_over(workload, |trace| {
        let threshold = volley_core::selectivity_threshold(trace, selectivity)
            .expect("non-empty trace, valid selectivity");
        evaluate_policy(make(threshold).as_mut(), trace)
    })
}

/// [`run_cell`] with Volley's adaptive sampler under `adaptation`.
pub fn run_adaptive(
    workload: &WorkloadSet,
    selectivity: f64,
    adaptation: AdaptationConfig,
) -> AccuracyReport {
    run_cell(workload, selectivity, |threshold| {
        Box::new(AdaptiveSampler::new(adaptation, threshold))
    })
}

/// What an `err × k` matrix cell shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Sampling operations relative to the periodic baseline (Figure 5).
    SamplingRatio,
    /// Missed violations over all violations (Figure 7).
    Misdetection,
}

/// The one generator behind `fig5a/b/c`, their JSON twins and `fig7`:
/// rows = [`ERR_SWEEP`], columns = [`SELECTIVITY_SWEEP`], cells =
/// `metric` of the adaptive sampler over `family`'s workload.
pub fn err_k_matrix(family: TraceFamily, metric: Metric, params: &SweepParams) -> Matrix {
    let workload = WorkloadSet::generate(family, params);
    let values = ERR_SWEEP
        .iter()
        .map(|&err| {
            let adaptation = params.adaptation(err).build().expect("valid sweep cell");
            SELECTIVITY_SWEEP
                .iter()
                .map(|&k| {
                    let report = run_adaptive(&workload, k, adaptation);
                    match metric {
                        Metric::SamplingRatio => report.cost_ratio(),
                        Metric::Misdetection => report.misdetection_rate(),
                    }
                })
                .collect()
        })
        .collect();
    let what = match metric {
        Metric::SamplingRatio => "sampling ratio vs periodic baseline",
        Metric::Misdetection => "actual mis-detection rate",
    };
    Matrix::new(
        format!("{} monitoring: {what}", family.name()),
        "err",
        ERR_SWEEP.iter().map(|e| format!("{e}")).collect(),
        SELECTIVITY_SWEEP
            .iter()
            .map(|k| format!("k={k}%"))
            .collect(),
        values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            ticks: 1200,
            tasks: 4,
            patience: 5,
            ..SweepParams::quick()
        }
    }

    fn cell(workload: &WorkloadSet, err: f64, k: f64) -> AccuracyReport {
        run_adaptive(workload, k, quick().adaptation(err).build().unwrap())
    }

    #[test]
    fn zero_allowance_cell_is_periodic() {
        let w = WorkloadSet::generate(TraceFamily::System, &quick());
        let report = cell(&w, 0.0, 1.0);
        assert!((report.cost_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(report.misdetection_rate(), 0.0);
    }

    #[test]
    fn larger_allowance_never_costs_more() {
        let w = WorkloadSet::generate(TraceFamily::Network, &quick());
        let (tight, loose) = (cell(&w, 0.002, 1.0), cell(&w, 0.032, 1.0));
        assert!(
            loose.cost_ratio() <= tight.cost_ratio() + 0.02,
            "loose {} vs tight {}",
            loose.cost_ratio(),
            tight.cost_ratio()
        );
    }

    #[test]
    fn adaptation_saves_cost_on_every_family() {
        for family in TraceFamily::ALL {
            let w = WorkloadSet::generate(family, &quick());
            let ratio = cell(&w, 0.016, 0.4).cost_ratio();
            assert!(ratio < 0.9, "{}: ratio {ratio}", family.name());
        }
    }

    #[test]
    fn matrices_have_sweep_shape() {
        for metric in [Metric::SamplingRatio, Metric::Misdetection] {
            let m = err_k_matrix(TraceFamily::System, metric, &quick());
            assert_eq!((m.rows.len(), m.cols.len()), (5, 7));
            assert!(m.values.iter().flatten().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}
