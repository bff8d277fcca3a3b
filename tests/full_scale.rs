//! Full-testbed-scale runs (ignored by default; run with
//! `cargo test --release -- --ignored`).

use volley::sim::{ClusterConfig, Scenario, ScenarioConfig};

/// The paper's complete deployment: 800 VMs over a full day of 15-second
/// windows (4.6M potential sampling events), in one simulator run.
#[test]
#[ignore = "full scale: ~minutes in debug, seconds in release"]
fn paper_testbed_full_day() {
    let config = ScenarioConfig {
        cluster: ClusterConfig::paper(),
        error_allowance: 0.01,
        selectivity_percent: 1.0,
        ticks: 5760,
        seed: 20130708,
        ..ScenarioConfig::default()
    };
    let report = Scenario::from_config(config).run(1);
    let cpu = report.cpu.as_ref().expect("utilization recorded");
    // The periodic-sampling calibration band and the adaptive savings
    // must both hold at full scale.
    assert!(
        report.cost_ratio() < 0.9,
        "cost ratio {}",
        report.cost_ratio()
    );
    assert!(cpu.mean < 0.27, "mean Dom0 utilization {}", cpu.mean);
    assert!(
        report.accuracy.misdetection_rate() <= 0.01,
        "miss rate {} above allowance",
        report.accuracy.misdetection_rate()
    );
    // 800 VMs × 5760 windows of utilization samples were recorded.
    assert_eq!(report.cpu_values.len(), 20 * 5760);
}
