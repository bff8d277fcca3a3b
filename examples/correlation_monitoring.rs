//! Multi-task state correlation (§II-B): gate an expensive monitoring
//! task on a cheap correlated one.
//!
//! Response-time growth is a necessary condition of an effective DDoS
//! attack, so the expensive deep-packet-inspection task only needs high
//! frequency while response time is elevated. The example runs the DDoS
//! cascade on one VM twice: the plain adaptive follower, then the same
//! follower gated on the response-time leader the detector learned from
//! the first half of the run.
//!
//! Run with: `cargo run --example correlation_monitoring`

use volley::sim::{ClusterConfig, DdosCascadeConfig, DdosCascadeScenario};

const TICKS: usize = 12_000;

fn main() {
    let run = |gated| {
        DdosCascadeScenario::from_config(DdosCascadeConfig {
            cluster: ClusterConfig::new(1, 1, 1),
            ticks: TICKS,
            train_ticks: TICKS / 2,
            seed: 3,
            gated,
            ..DdosCascadeConfig::default()
        })
        .run(1)
    };
    let (ungated, gated) = (run(false), run(true));
    println!(
        "learned P(response time high | DDoS violation) = {:.3}; follower gated: {}",
        gated.mean_confidence,
        gated.gated_vms > 0
    );
    println!("evaluation window: {} ticks", gated.eval_ticks);
    for (name, report) in [("adaptive", &ungated), ("gated", &gated)] {
        println!(
            "{name:>9}: {:>5} DDoS samples ({:.1}% of periodic), {}/{} violations caught",
            report.follower_samples,
            100.0 * report.cost_ratio(),
            report.accuracy.detected,
            report.accuracy.violations
        );
    }
}
