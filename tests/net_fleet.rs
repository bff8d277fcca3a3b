//! End-to-end socket fleet tests: a real `NetCoordinator` stepping real
//! `run_agent` connections over localhost TCP and Unix sockets, checked
//! for bit-for-bit report parity against the in-process `TaskRunner` and
//! for robustness under reconnect storms and stalled peers.

use std::thread::{self, JoinHandle};
use std::time::Duration;

use volley_core::task::TaskSpec;
use volley_runtime::net::{
    run_agent, AgentConfig, AgentReport, BackoffConfig, NetAddr, NetCoordinator, NetFaultPlan,
    NetRunOutcome,
};
use volley_runtime::transport::TransportConfig;
use volley_runtime::TaskRunner;

/// The CLI's bursty workload: quiet at ~20% of the local threshold with
/// a violation burst every 50 ticks.
fn bursty_traces(n: usize, ticks: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|m| {
            (0..ticks)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    if t % 50 == 49 {
                        140.0 + wobble
                    } else {
                        20.0 + wobble
                    }
                })
                .collect()
        })
        .collect()
}

fn spec(n: usize, err: f64) -> TaskSpec {
    TaskSpec::builder(100.0 * n as f64)
        .monitors(n)
        .error_allowance(err)
        .build()
        .unwrap()
}

/// Spawns `agents` threads splitting `n` monitors evenly, each capping
/// its frames at `transport`'s size.
fn spawn_agents(
    addr: &NetAddr,
    task: &TaskSpec,
    n: u32,
    agents: u32,
    transport: TransportConfig,
) -> Vec<JoinHandle<AgentReport>> {
    let per = n.div_ceil(agents);
    (0..agents)
        .map(|a| {
            let config = AgentConfig {
                agent: a,
                addr: addr.clone(),
                spec: task.clone(),
                monitors: (a * per)..((a + 1) * per).min(n),
                transport,
                backoff: BackoffConfig {
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(200),
                    max_retries_per_outage: 100,
                },
            };
            thread::spawn(move || run_agent(&config).expect("agent runs to completion"))
        })
        .collect()
}

fn net_run(
    coordinator: NetCoordinator,
    addr: &NetAddr,
    task: &TaskSpec,
    traces: &[Vec<f64>],
    n: u32,
    agents: u32,
) -> (NetRunOutcome, Vec<AgentReport>) {
    let transport = TransportConfig::default();
    let handles = spawn_agents(addr, task, n, agents, transport);
    let outcome = coordinator.run(traces).expect("net run succeeds");
    let reports = handles
        .into_iter()
        .map(|h| h.join().expect("agent thread joins"))
        .collect();
    (outcome, reports)
}

/// One fleet size of the TCP parity bar: `monitors` actors multiplexed
/// over `agents` localhost connections, both ends capping lines at
/// `transport`'s frame size, must report bit-for-bit what the in-process
/// `TaskRunner` reports on the same workload. The networked side gets a
/// generous deadline — at 10k monitors a debug build on a loaded host
/// may not hear every agent inside the default window, and a miss would
/// (correctly) break parity by counting monitors degraded.
fn tcp_parity(
    monitors: usize,
    agents: u32,
    ticks: usize,
    transport: TransportConfig,
) -> NetRunOutcome {
    let task = spec(monitors, 0.01);
    let traces = bursty_traces(monitors, ticks);
    let baseline = TaskRunner::new(&task)
        .unwrap()
        .run(&traces)
        .expect("in-process run succeeds");

    let coordinator = NetCoordinator::bind(task.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
        .unwrap()
        .with_wait_timeout(Duration::from_secs(60))
        .with_tick_deadline(Duration::from_secs(10))
        .with_transport(transport);
    let addr = NetAddr::Tcp(coordinator.local_addr().unwrap().to_string());
    let handles = spawn_agents(&addr, &task, monitors as u32, agents, transport);
    let outcome = coordinator.run(&traces).expect("net run succeeds");
    let reports: Vec<AgentReport> = handles
        .into_iter()
        .map(|h| h.join().expect("agent thread joins"))
        .collect();

    assert_eq!(
        outcome.report, baseline,
        "networked report must be bit-for-bit identical to the in-process runner"
    );
    assert!(baseline.alerts > 0, "bursty workload must alert");
    assert_eq!(outcome.net.reconnects, 0, "no reconnects in a clean run");
    assert_eq!(outcome.net.malformed_frames, 0);
    let sent: u64 = reports.iter().map(|r| r.frames_sent).sum();
    assert_eq!(sent, outcome.net.frames_in, "every agent line arrived");
    outcome
}

#[test]
fn tcp_fleet_matches_in_process_runner_bit_for_bit() {
    tcp_parity(24, 6, 150, TransportConfig::default());
}

/// The batching edge: with a frame cap far below a tick's run on both
/// ends, every run of tick data and of poll replies splits across
/// several lines (the hello, one line that must fit, keeps an agent's
/// run of one-byte tick reports under the cap) — and the report is
/// still the in-process one, bit for bit, with no line refused by either
/// reader.
#[test]
fn tcp_fleet_under_a_tiny_frame_cap_splits_runs_and_keeps_parity() {
    let tiny = TransportConfig {
        max_frame_size: 256,
        ..TransportConfig::default()
    };
    let whole = tcp_parity(96, 2, 100, TransportConfig::default());
    let split = tcp_parity(96, 2, 100, tiny);
    // 48 monitors an agent: a whole run is one line per agent and phase,
    // a split one at least two.
    assert!(whole.net.frames_out < 3 * 2 * 100, "{:?}", whole.net);
    let extra = split.net.frames_out - whole.net.frames_out;
    assert!(extra >= 2 * 100, "{:?} vs {:?}", split.net, whole.net);
    assert!(split.net.frames_in > whole.net.frames_in, "{:?}", split.net);
}

/// The acceptance bar of the networked deployment: a 10k-monitor fleet
/// over 250 connections. The in-process baseline steps its 10 000
/// monitors on this thread, so the case takes 3–4 s in release (the
/// networked half dominates; it took ≈ 27 s on 10 000 monitor threads)
/// — but over 10 s in the debug profile tier-1 runs, more than a
/// default case may take, so it stays out of the default run. CI's
/// `net-smoke` runs it with `--ignored`.
#[test]
#[ignore = "12–13 s in the debug profile (≈ 3 s in release); run in release with --ignored"]
fn tcp_fleet_matches_in_process_runner_at_10k_monitors() {
    tcp_parity(10_000, 250, 60, TransportConfig::default());
}

/// One agent hosting more monitors than a connection's queue cap (1 024
/// frames): a tick's run of 1 100 frames passes the cap, so the send
/// flushes and stages the rest in pieces — the peer reads promptly, so
/// nothing is dropped, the report is the in-process one bit for bit, and
/// the agent receives its Shutdown.
#[test]
fn one_agent_hosting_more_monitors_than_the_queue_cap_keeps_parity() {
    let outcome = tcp_parity(1_100, 1, 60, TransportConfig::default());
    assert_eq!(outcome.net.backpressure_drops, 0, "{:?}", outcome.net);
    assert!(outcome.net.max_queue_depth <= 1_024, "{:?}", outcome.net);
}

#[cfg(unix)]
#[test]
fn unix_socket_fleet_matches_in_process_runner() {
    let n = 6usize;
    let task = spec(n, 0.01);
    let traces = bursty_traces(n, 60);
    let baseline = TaskRunner::new(&task).unwrap().run(&traces).unwrap();

    let path = std::env::temp_dir().join(format!("volley-net-test-{}.sock", std::process::id()));
    let addr = NetAddr::Unix(path.clone());
    let coordinator = NetCoordinator::bind(task.clone(), &addr)
        .unwrap()
        .with_wait_timeout(Duration::from_secs(10));
    let (outcome, _) = net_run(coordinator, &addr, &task, &traces, n as u32, 2);

    assert_eq!(outcome.report, baseline);
    assert!(!path.exists(), "socket file is unlinked after the run");
}

#[test]
fn reconnect_storm_misses_no_planted_violations() {
    let n = 12usize;
    let task = spec(n, 0.01);
    let traces = bursty_traces(n, 150);
    let baseline = TaskRunner::new(&task).unwrap().run(&traces).unwrap();
    assert!(baseline.alerts > 0, "bursty workload must alert");

    // Storms at ticks 20, 41, 62, ... — never on a burst tick (49, 99,
    // 149), so every planted violation must still be detected.
    let coordinator = NetCoordinator::bind(task.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
        .unwrap()
        .with_wait_timeout(Duration::from_secs(10))
        .with_tick_deadline(Duration::from_millis(250))
        .with_faults(NetFaultPlan::new(7).with_storm(21, 0.5));
    let addr = NetAddr::Tcp(coordinator.local_addr().unwrap().to_string());
    let (outcome, reports) = net_run(coordinator, &addr, &task, &traces, n as u32, 6);

    assert_eq!(
        outcome.report.alert_ticks, baseline.alert_ticks,
        "storms on quiet ticks must not add or suppress alerts"
    );
    assert!(
        outcome.net.kicked > 0,
        "the storm plan must sever connections"
    );
    let agent_reconnects: u64 = reports.iter().map(|r| r.reconnects).sum();
    assert!(agent_reconnects > 0, "severed agents must have re-dialed");
    assert!(
        outcome.net.reconnects > 0,
        "the coordinator must have absorbed re-hellos"
    );
}

/// A storm kick is part of the tick's own schedule — the victims'
/// sockets are closed on the driver's thread before that tick's frames
/// are routed — so which reports a storm costs does not depend on who
/// wins a race: the same plan yields the same report, run after run.
#[test]
fn reconnect_storms_reproduce_their_report_exactly() {
    let n = 12usize;
    let task = spec(n, 0.01);
    let traces = bursty_traces(n, 70);
    let storm_run = || {
        let coordinator = NetCoordinator::bind(task.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
            .unwrap()
            .with_wait_timeout(Duration::from_secs(10))
            .with_tick_deadline(Duration::from_millis(250))
            .with_faults(NetFaultPlan::new(42).with_storm(21, 0.3));
        let addr = NetAddr::Tcp(coordinator.local_addr().unwrap().to_string());
        net_run(coordinator, &addr, &task, &traces, n as u32, 6).0
    };
    let first = storm_run();
    assert!(first.net.kicked > 0 && first.report.missed_tick_reports > 0);
    for rerun in 1..3 {
        assert_eq!(storm_run().report, first.report, "rerun {rerun}");
    }
}

/// Storms over agents hosting runs of six: a severed agent's monitors
/// are dead to the sends of the tick it is kicked at, cutting the tick's
/// one send into runs around them, and its monitors' replies rejoin
/// their runs after the re-dial — and the report still repeats exactly.
#[test]
fn storms_that_break_runs_reproduce_their_report_exactly() {
    let n = 24usize;
    let task = spec(n, 0.01);
    let traces = bursty_traces(n, 70);
    let storm_run = || {
        let coordinator = NetCoordinator::bind(task.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
            .unwrap()
            .with_wait_timeout(Duration::from_secs(10))
            .with_tick_deadline(Duration::from_millis(250))
            .with_faults(NetFaultPlan::new(42).with_storm(13, 0.5));
        let addr = NetAddr::Tcp(coordinator.local_addr().unwrap().to_string());
        net_run(coordinator, &addr, &task, &traces, n as u32, 4).0
    };
    let first = storm_run();
    assert!(
        first.net.kicked > 0 && first.net.unrouted_drops > 0,
        "{:?}",
        first.net
    );
    assert!(first.report.missed_tick_reports > 0);
    for rerun in 1..3 {
        assert_eq!(storm_run().report, first.report, "rerun {rerun}");
    }
}

#[test]
fn stalled_peer_is_flow_controlled_then_degraded() {
    use std::io::Write;

    let n = 2usize;
    let task = spec(n, 0.0);
    // Quiet traces: this test is about liveness, not alerts.
    let traces = vec![vec![10.0; 40], vec![10.0; 40]];

    let coordinator = NetCoordinator::bind(task.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
        .unwrap()
        .with_wait_timeout(Duration::from_secs(10))
        .with_tick_deadline(Duration::from_millis(100))
        .with_quarantine_after(2)
        .with_queue_cap(2)
        .with_idle_timeout(Duration::from_millis(700));
    let local = coordinator.local_addr().unwrap();
    let addr = NetAddr::Tcp(local.to_string());

    // A well-behaved agent hosting monitor 0.
    let agent_handle = {
        let config = AgentConfig {
            agent: 0,
            addr: addr.clone(),
            spec: task.clone(),
            monitors: 0..1,
            transport: TransportConfig::default(),
            backoff: BackoffConfig::default(),
        };
        thread::spawn(move || run_agent(&config).expect("agent runs to completion"))
    };
    // A hostile peer claiming monitor 1: sends its hello, then never
    // reads — the idle timeout must reap the half-open socket, after
    // which monitor 1's frames drop unrouted, and monitor 1 must be
    // quarantined and counted at its local threshold.
    thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(local).expect("fake peer dials");
        let hello = volley_runtime::net::AgentHello {
            agent: 1,
            first: 1,
            count: 1,
            epoch: 0,
        };
        sock.write_all(&volley_runtime::message::encode(&hello))
            .expect("hello written");
        thread::sleep(Duration::from_secs(20)); // never reads, never closes
    });

    let outcome = coordinator.run(&traces).expect("net run succeeds");
    agent_handle.join().expect("agent joins");

    assert_eq!(
        outcome.report.ticks, 40,
        "the run completes despite the stall"
    );
    assert!(
        outcome.net.unrouted_drops > 0,
        "frames for the reaped peer must be dropped, not buffered: {:?}",
        outcome.net
    );
    assert!(
        outcome.net.idle_closed >= 1,
        "the half-open connection must be reaped: {:?}",
        outcome.net
    );
    assert!(
        outcome.report.quarantines >= 1,
        "monitor 1 must be quarantined: {:?}",
        outcome.report
    );
    assert_eq!(
        outcome.report.missed_tick_reports, 40,
        "monitor 1 is missing every tick"
    );
}
