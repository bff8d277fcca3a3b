//! Windowed-aggregate monitoring (the paper's §VII future-work item).
//!
//! An alert on "mean CPU over the last 5 minutes above its 99th
//! percentile" is far friendlier to likelihood-based sampling than the
//! raw per-sample condition: the windowed mean moves slowly, so the δ
//! statistics are tight and the interval grows further at the same
//! accuracy target. This example monitors the same stream both ways and
//! prints the cost difference.
//!
//! Run with: `cargo run --release --example windowed_monitoring`

use volley::core::window::WindowedSampler;
use volley::{AdaptationConfig, AdaptiveSampler, SystemMetricsGenerator};

const TICKS: usize = 17_280; // a day of 5-second samples
const WINDOW: u64 = 60; // 5 minutes

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = SystemMetricsGenerator::new(33).trace(0, 0, TICKS); // cpu_user

    // Ground-truth windowed mean for the threshold.
    let mut window = volley::core::window::SlidingWindow::new(WINDOW)?;
    let windowed: Vec<f64> = trace
        .iter()
        .enumerate()
        .map(|(t, &v)| {
            window.push(t as u64, v);
            window.mean()
        })
        .collect();
    let raw_threshold = volley::selectivity_threshold(&trace, 1.0)?;
    let mean_threshold = volley::selectivity_threshold(&windowed, 1.0)?;

    let config = AdaptationConfig::builder()
        .error_allowance(0.01)
        .max_interval(32)
        .build()?;

    // Raw per-sample monitoring.
    let mut raw = AdaptiveSampler::new(config, raw_threshold);
    let mut raw_samples = 0u64;
    let mut tick = 0u64;
    while (tick as usize) < TICKS {
        let obs = raw.observe(tick, trace[tick as usize]);
        raw_samples += 1;
        tick = obs.next_sample_tick;
    }

    // Windowed-mean monitoring of the same stream.
    let mut windowed_sampler = WindowedSampler::new(config, mean_threshold, WINDOW)?;
    let mut win_samples = 0u64;
    let mut win_alerts = 0u64;
    tick = 0;
    while (tick as usize) < TICKS {
        let obs = windowed_sampler.observe(tick, trace[tick as usize]);
        win_samples += 1;
        if obs.violation {
            win_alerts += 1;
        }
        tick = obs.next_sample_tick;
    }

    println!("stream:                 cpu_user, {TICKS} ticks (1 day @ 5s)");
    println!("raw condition:          value > {raw_threshold:.1}");
    println!("windowed condition:     mean(5min) > {mean_threshold:.1}");
    println!();
    println!(
        "raw monitoring:         {raw_samples} samples ({:.1}% of periodic)",
        100.0 * raw_samples as f64 / TICKS as f64
    );
    println!(
        "windowed monitoring:    {win_samples} samples ({:.1}% of periodic), {win_alerts} alert samples",
        100.0 * win_samples as f64 / TICKS as f64
    );
    println!(
        "\nThe windowed aggregate changes slowly, so Volley sustains intervals up to {}.",
        windowed_sampler.sampler().interval()
    );
    Ok(())
}
