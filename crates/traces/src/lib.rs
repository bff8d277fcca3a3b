//! # volley-traces
//!
//! Synthetic workload and trace generators standing in for the three
//! real-world datasets of the Volley paper's evaluation (§V-A):
//!
//! - [`netflow`] — Internet2-netflow-style datacenter traffic mapped onto
//!   VMs, with SYN/SYN-ACK flagging and injectable SYN-flood (DDoS)
//!   attacks; produces the per-VM traffic-difference series
//!   `ρ_v = P_i(v) − P_o(v)` that network-level monitoring tasks watch.
//! - [`sysmetrics`] — a 66-metric catalog of OS-level performance series
//!   (CPU, memory, vmstat, disk, network) modelled as mean-reverting AR(1)
//!   processes with diurnal drift and occasional spikes, standing in for
//!   the ICAC'09 production performance dataset.
//! - [`http`] — WorldCup'98-style web workloads: Zipf object popularity,
//!   diurnal request arrival with flash crowds; produces per-object access
//!   rates for application-level monitoring tasks.
//!
//! [`TraceFamily`] names the three and their default sampling intervals.
//!
//! Support modules: [`zipf`] (the skewed distribution of Figure 8),
//! [`diurnal`] (day-cycle shaping), [`latency`] (load → response-time
//! modelling, and the planted DDoS leader/follower pair, for correlated
//! tasks), and [`timeseries`] (quantiles and
//! summary statistics used by the experiment harness).
//!
//! All generators are fully deterministic given a seed, so every
//! experiment in the repository is reproducible bit-for-bit.
//!
//! ```
//! use volley_traces::netflow::{NetflowConfig, AttackSpec};
//!
//! let config = NetflowConfig::builder()
//!     .seed(42)
//!     .vms(4)
//!     .attack(AttackSpec { vm: 2, start_tick: 100, duration_ticks: 20, peak_asymmetry: 500.0 })
//!     .build();
//! let traffic = config.generate(200);
//! assert_eq!(traffic.len(), 4);
//! // The attacked VM shows a much larger traffic difference mid-attack.
//! assert!(traffic[2].rho[110] > traffic[0].rho[110]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diurnal;
pub mod http;
pub mod latency;
pub mod netflow;
pub mod sysmetrics;
pub mod timeseries;
pub mod zipf;

pub use diurnal::DiurnalPattern;
pub use http::{HttpWorkload, HttpWorkloadConfig};
pub use latency::{PlantedPair, ResponseTimeModel};
pub use netflow::{AttackSpec, NetflowConfig, VmTraffic};
pub use sysmetrics::{MetricClass, MetricSpec, SystemMetricsGenerator, METRIC_CATALOG};
pub use timeseries::SeriesSummary;
pub use zipf::Zipf;

use serde::{Deserialize, Serialize};

/// The three monitoring families of the evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceFamily {
    /// DDoS traffic-difference monitoring (15-second windows).
    Network,
    /// OS metric monitoring (5-second samples).
    System,
    /// Per-object access-rate monitoring (1-second samples).
    Application,
}

impl TraceFamily {
    /// Every family, in the order tables list them.
    pub const ALL: [TraceFamily; 3] = [
        TraceFamily::Network,
        TraceFamily::System,
        TraceFamily::Application,
    ];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TraceFamily::Network => "network",
            TraceFamily::System => "system",
            TraceFamily::Application => "application",
        }
    }

    /// The family's default sampling interval in seconds (§V-A).
    pub fn default_interval_secs(self) -> f64 {
        match self {
            TraceFamily::Network => 15.0,
            TraceFamily::System => 5.0,
            TraceFamily::Application => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_metadata() {
        assert_eq!(TraceFamily::Network.default_interval_secs(), 15.0);
        assert_eq!(TraceFamily::System.default_interval_secs(), 5.0);
        assert_eq!(TraceFamily::Application.default_interval_secs(), 1.0);
        assert_eq!(TraceFamily::Application.name(), "application");
    }
}
