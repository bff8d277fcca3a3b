//! Quickstart: adaptive sampling of a single metric stream.
//!
//! Monitors a synthetic CPU-utilization stream against a fixed threshold
//! with a 1% mis-detection allowance, and prints how much sampling cost
//! Volley saved compared to periodic sampling — the crate's core loop in
//! ~40 lines.
//!
//! Run with: `cargo run --example quickstart`

use volley::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A day of 5-second CPU samples on one VM (17280 ticks).
    let generator = SystemMetricsGenerator::new(42);
    let trace = generator.trace(0, 0, 17_280); // VM 0, metric "cpu_user"

    // Alert when CPU exceeds the 99th percentile of its own history
    // (selectivity k = 1%, as in the paper's evaluation).
    let threshold = selectivity_threshold(&trace, 1.0)?;

    // Volley controller: at most 1% of alerts may be missed relative to
    // periodic 5-second sampling.
    let config = AdaptationConfig::builder()
        .error_allowance(0.01)
        .max_interval(16)
        .build()?;
    let mut sampler = AdaptiveSampler::new(config, threshold);

    let mut samples = 0u64;
    let mut alerts = 0u64;
    let mut tick = 0u64;
    while (tick as usize) < trace.len() {
        // In a real deployment this is where the expensive sampling
        // operation happens (tcpdump, log analysis, metered API call).
        let value = trace[tick as usize];
        let outcome = sampler.observe(tick, value);
        samples += 1;
        if outcome.violation {
            alerts += 1;
            println!(
                "state alert at t = {}s (value {value:.1} > {threshold:.1})",
                tick * 5
            );
        }
        // Volley tells us when to sample next.
        tick = outcome.next_sample_tick;
    }

    let baseline = trace.len() as u64;
    println!("\nsamples taken:    {samples} (periodic baseline: {baseline})");
    println!(
        "cost saved:       {:.1}%",
        100.0 * (1.0 - samples as f64 / baseline as f64)
    );
    println!("alerts raised:    {alerts}");
    println!("final interval:   {}", sampler.interval());
    Ok(())
}
