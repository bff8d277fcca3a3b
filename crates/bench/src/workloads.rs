//! Canonical per-figure workloads: one trace set per monitoring family.

use serde::{Deserialize, Serialize};

use volley_traces::http::HttpWorkloadConfig;
use volley_traces::netflow::NetflowConfig;
use volley_traces::sysmetrics::SystemMetricsGenerator;
use volley_traces::{DiurnalPattern, TraceFamily};

use crate::params::SweepParams;

/// A set of per-task monitored-value traces for one family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSet {
    family: TraceFamily,
    traces: Vec<Vec<f64>>,
}

impl WorkloadSet {
    /// Generates the canonical workload of `family` under `params`: one
    /// trace per task, `params.ticks` values each.
    pub fn generate(family: TraceFamily, params: &SweepParams) -> Self {
        let traces = match family {
            TraceFamily::Network => {
                // One ρ series per VM; the diurnal period is scaled so a
                // run always covers at least one full day/night cycle.
                let config = NetflowConfig::builder()
                    .seed(params.seed)
                    .vms(params.tasks)
                    .diurnal(DiurnalPattern::new((params.ticks as u64).min(5760), 0.4))
                    .build();
                config
                    .generate(params.ticks)
                    .into_iter()
                    .map(|t| t.rho)
                    .collect()
            }
            TraceFamily::System => {
                // One metric per task, cycling through the 66-metric
                // catalog across VMs.
                let gen = SystemMetricsGenerator::new(params.seed)
                    .with_diurnal_period((params.ticks as u64).min(17_280));
                (0..params.tasks)
                    .map(|i| gen.trace(i / 66, i % 66, params.ticks))
                    .collect()
            }
            TraceFamily::Application => {
                // One object-access-rate series per task. The aggregate
                // request rate scales with the object count so every
                // object carries WorldCup-scale traffic (the paper's
                // trace has >1 billion requests over 30 servers).
                let config = HttpWorkloadConfig::builder()
                    .seed(params.seed)
                    .objects(params.tasks)
                    .requests_per_tick(1000.0 * params.tasks as f64)
                    .flash_crowd_magnitude(2000.0)
                    .diurnal(DiurnalPattern::new((params.ticks as u64).min(86_400), 0.6))
                    .flash_crowd_duration((params.ticks as u64 / 20).max(10))
                    .build();
                let workload = config.generate(params.ticks);
                (0..params.tasks)
                    .map(|o| workload.object_rate(o).to_vec())
                    .collect()
            }
        };
        WorkloadSet { family, traces }
    }

    /// The family this set belongs to.
    pub fn family(&self) -> TraceFamily {
        self.family
    }

    /// The per-task traces.
    pub fn traces(&self) -> &[Vec<f64>] {
        &self.traces
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty (never true for generated sets).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepParams {
        SweepParams {
            ticks: 300,
            tasks: 4,
            ..SweepParams::quick()
        }
    }

    #[test]
    fn generates_requested_shape() {
        for family in TraceFamily::ALL {
            let set = WorkloadSet::generate(family, &quick());
            assert_eq!(set.len(), 4, "{}", family.name());
            assert!(set.traces().iter().all(|t| t.len() == 300));
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WorkloadSet::generate(TraceFamily::System, &quick());
        let b = WorkloadSet::generate(TraceFamily::System, &quick());
        assert_eq!(a, b);
        let mut other = quick();
        other.seed += 1;
        let c = WorkloadSet::generate(TraceFamily::System, &other);
        assert_ne!(a, c);
    }

    #[test]
    fn traces_contain_finite_values() {
        for family in TraceFamily::ALL {
            let set = WorkloadSet::generate(family, &quick());
            assert!(set.traces().iter().flatten().all(|v| v.is_finite()));
        }
    }
}
