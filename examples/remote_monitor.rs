//! A monitor served over a real TCP socket — the paper's deployment
//! shape (monitors in each server's Dom0, coordinators elsewhere) run in
//! miniature: the "Dom0" side is a one-monitor agent
//! ([`volley_runtime::run_agent`]) dialing a loopback socket; the
//! coordinator side ([`volley_runtime::NetCoordinator`]) drives ticks,
//! receives local violation reports and issues global polls, all over
//! the wire protocol — with the agent's reconnect, frame caps and
//! backpressure handling included.
//!
//! Run with: `cargo run --example remote_monitor`

use volley::core::task::TaskSpec;
use volley::NetflowConfig;
use volley_runtime::transport::TransportConfig;
use volley_runtime::{run_agent, AgentConfig, BackoffConfig, NetAddr, NetCoordinator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = NetflowConfig::builder()
        .seed(21)
        .build()
        .generate_vm(0, 1200)
        .rho;
    let threshold = volley::selectivity_threshold(&trace, 1.0)?;
    let spec = TaskSpec::builder(threshold)
        .monitors(1)
        .error_allowance(0.02)
        .max_interval(8)
        .patience(5)
        .build()?;

    // --- Coordinator side: bind a loopback port. ---
    let coordinator = NetCoordinator::bind(spec.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))?;
    let addr = coordinator
        .local_addr()
        .ok_or("TCP listener has an address")?;

    // --- "Dom0" side: one agent hosting the task's only monitor. ---
    let agent = std::thread::spawn(move || {
        eprintln!("monitor: dialing coordinator at {addr}");
        run_agent(&AgentConfig {
            agent: 0,
            addr: NetAddr::Tcp(addr.to_string()),
            spec,
            monitors: 0..1,
            transport: TransportConfig::default(),
            backoff: BackoffConfig::default(),
        })
    });

    // --- Drive every tick over the wire. ---
    let ticks = trace.len();
    let outcome = coordinator.run(&[trace])?;
    let served = agent.join().expect("agent thread exits")?;
    let report = outcome.report;

    if let Some(tick) = report.alert_ticks.first() {
        println!("first global violation at tick {tick}");
    }
    println!("ticks driven:      {ticks}");
    println!(
        "samples over TCP:  {} ({:.1}% of periodic)",
        report.scheduled_samples,
        100.0 * report.scheduled_samples as f64 / ticks as f64
    );
    println!(
        "local violations:  {} (each answered by a global poll)",
        report.local_violation_reports
    );
    println!(
        "frames on the wire: {} in, {} out, {} sent by the agent",
        outcome.net.frames_in, outcome.net.frames_out, served.frames_sent
    );
    Ok(())
}
