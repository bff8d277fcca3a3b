//! SLA / throughput monitoring for autoscaling, on the message-passing
//! runtime.
//!
//! An EC2-style autoscaler adds web-server instances when the monitored
//! aggregate request throughput exceeds a provisioning threshold (§V-A,
//! application-level monitoring). Here three servers share a web
//! application; each runs a real monitor actor (via
//! [`volley::TaskRunner`]) that samples its local request rate
//! adaptively, and the coordinator raises the scale-up alert when the
//! aggregate crosses the threshold.
//!
//! Run with: `cargo run --example sla_monitoring`

use volley::prelude::*;

const SERVERS: usize = 3;
const TICKS: usize = 6000; // 1-second samples

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-server request rates: a shared diurnal cycle with flash crowds;
    // each server sees one popular object's traffic.
    let workload = HttpWorkloadConfig::builder()
        .seed(11)
        .objects(SERVERS)
        .zipf_exponent(0.3) // load balancer keeps servers roughly even
        .requests_per_tick(3000.0)
        .diurnal(DiurnalPattern::new(TICKS as u64, 0.5))
        .flash_crowd_probability(8e-4)
        .flash_crowd_magnitude(2500.0)
        .flash_crowd_duration(300)
        .build()
        .generate(TICKS);
    let traces: Vec<Vec<f64>> = (0..SERVERS)
        .map(|s| workload.object_rate(s).to_vec())
        .collect();

    // Scale up when the aggregate throughput exceeds its 98th percentile.
    let aggregate: Vec<f64> = (0..TICKS)
        .map(|t| traces.iter().map(|tr| tr[t]).sum())
        .collect();
    let threshold = selectivity_threshold(&aggregate, 2.0)?;

    let spec = TaskSpec::builder(threshold)
        .monitors(SERVERS)
        .error_allowance(0.02)
        .max_interval(16)
        .build()?;

    // Steps the monitors and the coordinator on this thread; blocks
    // until the trace is exhausted.
    let report = TaskRunner::new(&spec)?.run(&traces)?;

    println!("scale-up threshold: {threshold:.0} requests/s (aggregate)");
    println!("ticks processed:    {}", report.ticks);
    println!(
        "scale-up alerts:    {} at {:?}",
        report.alerts, report.alert_ticks
    );
    println!("global polls:       {}", report.polls);
    println!(
        "sampling cost:      {:.1}% of periodic ({} ops)",
        100.0 * report.cost_ratio(SERVERS),
        report.total_samples
    );
    Ok(())
}
