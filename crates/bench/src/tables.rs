//! The paper's evaluation as data: every file under `reproduction/` is
//! one row of [`TABLES`], rendered by the one `reproduce` binary. Adding
//! a figure means adding a row.

use volley_serve::envelope;
use volley_traces::TraceFamily::{Application, Network, System};

use crate::experiments::{err_k_matrix, Metric};
use crate::params::SweepParams;
use crate::{ablations, extensions, figures};

/// One deterministic table of the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// File stem: the table is written to `<out>/<name>.txt`.
    pub name: &'static str,
    /// The paper item (or DESIGN.md ablation) the table reproduces.
    pub paper_item: &'static str,
    /// The shape the output is expected to show.
    pub shape: &'static str,
    /// Renders the table, byte for byte, from the size knobs alone.
    pub render: fn(&SweepParams) -> String,
}

/// Every table `reproduce` writes, in the order it writes them.
pub const TABLES: &[Table] = &[
    Table {
        name: "fig1",
        paper_item: "Figure 1",
        shape: "periodic-fast detects everything at cost 1.0; periodic-slow is cheap but misses \
                the ramp; Volley detects like the former at a fraction of the cost",
        render: figures::fig1,
    },
    Table {
        name: "fig2",
        paper_item: "Figure 2",
        shape: "β falls while the value sits far under the threshold and the interval ratchets \
                1Id → 8Id; the attack ramp drives β over err and the interval collapses to Id",
        render: figures::fig2,
    },
    Table {
        name: "fig5a",
        paper_item: "Figure 5(a)",
        shape: "network monitoring: 40–90% cost reduction; larger allowances and smaller k \
                (higher thresholds) both reduce cost",
        render: |p| err_k_matrix(Network, Metric::SamplingRatio, p).render(),
    },
    Table {
        name: "fig5a_json",
        paper_item: "Figure 5(a)",
        shape: "fig5a as JSON",
        render: |p| err_k_matrix(Network, Metric::SamplingRatio, p).to_json(),
    },
    Table {
        name: "fig5b",
        paper_item: "Figure 5(b)",
        shape: "system monitoring: clear savings, smaller than the network case because system \
                metric values change more between samples",
        render: |p| err_k_matrix(System, Metric::SamplingRatio, p).render(),
    },
    Table {
        name: "fig5b_json",
        paper_item: "Figure 5(b)",
        shape: "fig5b as JSON",
        render: |p| err_k_matrix(System, Metric::SamplingRatio, p).to_json(),
    },
    Table {
        name: "fig5c",
        paper_item: "Figure 5(c)",
        shape: "application monitoring: high savings thanks to bursty, diurnal web accesses \
                (large intervals off-peak)",
        render: |p| err_k_matrix(Application, Metric::SamplingRatio, p).render(),
    },
    Table {
        name: "fig5c_json",
        paper_item: "Figure 5(c)",
        shape: "fig5c as JSON",
        render: |p| err_k_matrix(Application, Metric::SamplingRatio, p).to_json(),
    },
    Table {
        name: "fig6",
        paper_item: "Figure 6",
        shape: "box plots start at 20–34% Dom0 CPU for err = 0 (periodic sampling) and drop by \
                at least half, down to ~5%, with increasing allowance",
        render: figures::fig6,
    },
    Table {
        name: "fig7",
        paper_item: "Figure 7",
        shape: "measured mis-detection stays below (or close to) each row's err; the smallest k \
                shows larger rates (few alerts, and Volley prefers low frequencies there)",
        render: |p| err_k_matrix(System, Metric::Misdetection, p).render(),
    },
    Table {
        name: "fig8",
        paper_item: "Figure 8",
        shape: "at skew 0 both schemes perform alike; the paper has `even` degrade with skew \
                while `adapt` holds. On our episodic traces skewed violation rates do not skew \
                quiet-regime yields, so `adapt` tracks `even` (see EXPERIMENTS.md)",
        render: figures::fig8,
    },
    Table {
        name: "ablation_baselines",
        paper_item: "A4 (is the likelihood estimate needed?)",
        shape: "the reactive scheme often matches Volley's cost but its miss rate lands wherever \
                the burst structure puts it; Volley keeps misses at the allowance scale",
        render: ablations::baselines,
    },
    Table {
        name: "ablation_bound",
        paper_item: "A3 (§III-A bound tightness)",
        shape: "ratio > 1 everywhere: the Chebyshev bound is conservative; the Gaussian bound \
                is cheaper but misses more (δ is heavy-tailed)",
        render: ablations::bound,
    },
    Table {
        name: "ablation_gamma_p",
        paper_item: "A1 (§III-B slack ratio and patience)",
        shape: "smaller γ/p grow intervals more eagerly (lower cost, higher miss risk); the \
                paper's γ = 0.2, p = 20 sits on the flat part of the accuracy curve",
        render: ablations::gamma_p,
    },
    Table {
        name: "ablation_stats",
        paper_item: "A7 (δ-statistics estimator)",
        shape: "faster forgetting reacts to regime shifts sooner (fewer stale-σ misses) but \
                with noisier estimates (earlier collapses, higher cost)",
        render: ablations::stats,
    },
    Table {
        name: "ablation_window",
        paper_item: "A5 (§VII windowed aggregates)",
        shape: "windowed conditions are cheaper to monitor at equal allowance (smoother δ) and \
                equally safe",
        render: ablations::window,
    },
    Table {
        name: "ablation_yield",
        paper_item: "A2 (§IV-B yield and allowance-cost formulas)",
        shape: "all strategy × formula variants land within noise of each other on the skewed \
                Figure 8 setup",
        render: ablations::yield_variants,
    },
    Table {
        name: "distributed_sim",
        paper_item: "E12 (distributed tasks on the simulator)",
        shape: "cost ratio and Dom0 CPU fall as err grows under both schemes; err = 0 never \
                misses",
        render: figures::distributed_sim,
    },
    Table {
        name: "robustness",
        paper_item: "E8 (live runtime under message loss)",
        shape: "a lossless network detects every ground-truth alert; detection falls as drops \
                grow, while lost poll replies degrade polls toward alerting",
        render: |p| extensions::robustness(p).render(),
    },
    Table {
        name: "robustness_json",
        paper_item: "E8 (live runtime under message loss)",
        shape: "robustness as JSON",
        render: |p| extensions::robustness(p).to_json(),
    },
    Table {
        name: "recovery",
        paper_item: "E8 (coordinator failover)",
        shape: "every restart keeps post-crash detection at the no-fault level; checkpointed \
                failover samples strictly less than the conservative I_d restart",
        render: |p| extensions::recovery(p).render(),
    },
    Table {
        name: "recovery_json",
        paper_item: "E8 (coordinator failover)",
        shape: "recovery as JSON",
        render: |p| extensions::recovery(p).to_json(),
    },
    Table {
        name: "multitask",
        paper_item: "E9 (§II.B multi-task suppression at fleet scale)",
        shape: "the leader gate saves follower samples at every allowance, most at the \
                smallest, with gated mis-detection within the allowance",
        render: |p| extensions::multitask(p).render(),
    },
    Table {
        name: "multitask_json",
        paper_item: "E9 (§II.B multi-task suppression at fleet scale)",
        shape: "multitask as the versioned report envelope",
        render: |p| envelope("multitask", &extensions::multitask(p)),
    },
    Table {
        name: "correlation",
        paper_item: "E9 (§II.B state correlation on one VM)",
        shape: "the gated follower cuts most sampling cost while its necessary-condition \
                leader keeps the miss rate near zero",
        render: |p| extensions::correlation(p).render(),
    },
    Table {
        name: "correlation_json",
        paper_item: "E9 (§II.B state correlation on one VM)",
        shape: "correlation as the versioned report envelope",
        render: |p| envelope("correlation", &extensions::correlation(p)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_reproduction_files_and_rows_agree() {
        let names: BTreeSet<&str> = TABLES.iter().map(|t| t.name).collect();
        assert_eq!(names.len(), TABLES.len(), "row names are unique");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reproduction");
        for name in &names {
            assert!(dir.join(format!("{name}.txt")).is_file(), "{name}.txt");
        }
        for entry in std::fs::read_dir(&dir).expect("reproduction/ exists") {
            let path = entry.expect("readable entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
            assert!(
                names.contains(stem),
                "{} belongs to no row of TABLES",
                path.display()
            );
        }
    }

    #[test]
    fn every_row_renders_and_ends_in_exactly_one_newline() {
        let params = SweepParams {
            ticks: 600,
            tasks: 4,
            ..SweepParams::quick()
        };
        for table in TABLES {
            assert!(
                !table.paper_item.is_empty() && !table.shape.is_empty(),
                "{}",
                table.name
            );
            let text = (table.render)(&params);
            assert!(!text.trim().is_empty(), "{} rendered nothing", table.name);
            // A `Matrix::to_json` row ends in a bare `}`, an envelope row
            // in `}\n`; every other row in one newline.
            let tail_ok = if table.name.ends_with("_json") {
                text.trim_end_matches('\n').ends_with('}')
            } else {
                text.ends_with('\n')
            };
            assert!(
                tail_ok && !text.ends_with("\n\n"),
                "{} ends in {:?}",
                table.name,
                &text[text.len().saturating_sub(4)..]
            );
        }
    }
}
