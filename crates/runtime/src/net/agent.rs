//! The agent process: hosts a slice of monitors behind one socket.
//!
//! An agent owns a contiguous range of the task's monitors and speaks
//! the [`super::wire`] protocol to the coordinator: it dials, sends an
//! [`AgentHello`](super::wire::AgentHello), then loops decoding
//! [`ServerFrame`](super::wire::ServerFrame) lines, feeding each control
//! frame a line carries to its [`SlotTable`] — the table an in-process
//! task session steps itself, which is what makes report parity
//! possible — and answering each line with its replies as one send
//! ([`encode_replies`]): a run of tick reports or poll replies is one
//! line.
//!
//! Robustness lives here too: when the connection dies (coordinator
//! restart, injected storm, plain TCP reset) the agent re-dials with
//! jittered exponential backoff and re-handshakes — the hello carries
//! the hosted monitor set, and a `Revived` frame per live monitor tells
//! the coordinator's quarantine machinery to await them again (it
//! answers with each monitor's ledger allowance). Jitter is
//! a deterministic hash of `(agent, attempt)`, so a storm of N agents
//! de-synchronizes without any of them sharing state.

use std::io::{Read, Write};
use std::ops::Range;
use std::thread;
use std::time::Duration;

use serde::Serialize;

use volley_core::task::TaskSpec;
use volley_core::VolleyError;

use crate::message::{decode_line, encode_into, MonitorFrame, MonitorToCoordinator};
use crate::monitor::{MonitorSlot, SlotTable};
use crate::session::monitor_actor;
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::faults::mix;
use super::server::NetAddr;
use super::wire::{encode_replies, AgentHello, ServerFrame};

/// Reconnect backoff policy: exponential from `base` to `cap`, with
/// deterministic per-agent jitter in `[0.5, 1.0]` of the nominal delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First-retry delay.
    pub base: Duration,
    /// Ceiling for the exponential delay (pre-jitter).
    pub cap: Duration,
    /// Consecutive failed dials tolerated per outage before giving up.
    pub max_retries_per_outage: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            max_retries_per_outage: 40,
        }
    }
}

/// Everything an agent process needs to run its monitor slice.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Fleet-unique agent id (jitter seed and fault-injection target).
    pub agent: u32,
    /// Where the coordinator listens.
    pub addr: NetAddr,
    /// The full task spec — must be identical to the coordinator's, so
    /// that sampler construction matches the in-process runner exactly.
    pub spec: TaskSpec,
    /// The slice of `spec` monitors this agent hosts (end-exclusive
    /// indexes into [`TaskSpec::monitors`]).
    pub monitors: Range<u32>,
    /// Frame cap and socket timeouts.
    pub transport: TransportConfig,
    /// Reconnect policy.
    pub backoff: BackoffConfig,
}

/// What an agent did over its lifetime, for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct AgentReport {
    /// The agent id.
    pub agent: u32,
    /// Monitors hosted.
    pub monitors: u32,
    /// Lines written to the coordinator after each hello: a
    /// [`ReplyBatch`](super::wire::ReplyBatch) counts once, as does each
    /// reply that travels alone.
    pub frames_sent: u64,
    /// [`ServerFrame`](super::wire::ServerFrame) lines decoded off the
    /// socket, however many monitors each carried.
    pub frames_received: u64,
    /// Successful re-dials after losing an established connection.
    pub reconnects: u64,
}

/// Runs an agent to completion: connects, serves its monitors until
/// every one of them has been shut down by the coordinator, reconnecting
/// through connection loss along the way.
///
/// # Errors
///
/// [`VolleyError::InvalidConfig`] when the monitor range is out of
/// bounds or empty, or when an outage outlasts
/// [`BackoffConfig::max_retries_per_outage`].
pub fn run_agent(config: &AgentConfig) -> Result<AgentReport, VolleyError> {
    let n = config.spec.monitors().len();
    if config.monitors.start >= config.monitors.end || config.monitors.end as usize > n {
        return Err(VolleyError::InvalidConfig {
            parameter: "net",
            reason: format!(
                "agent {} monitor range {:?} out of bounds for {n} monitors",
                config.agent, config.monitors
            ),
        });
    }

    // The hosted actors come from the session's recipe, so a fault-free
    // networked run is sample-for-sample identical to an in-process one.
    let actors = config
        .monitors
        .clone()
        .map(|m| monitor_actor(&config.spec, m as usize));
    let slots = actors.map(MonitorSlot::new).collect();
    let mut table = SlotTable::new(config.monitors.start, slots);

    let mut report = AgentReport {
        agent: config.agent,
        monitors: config.monitors.end - config.monitors.start,
        ..AgentReport::default()
    };
    let mut ever_connected = false;
    let mut attempt_total: u64 = 0;

    'outer: loop {
        // --- dial, with jittered exponential backoff per outage ---
        let mut socket = {
            let mut retries = 0u32;
            loop {
                match config.addr.connect() {
                    Ok(sock) => break sock,
                    Err(err) => {
                        retries += 1;
                        attempt_total += 1;
                        if retries > config.backoff.max_retries_per_outage {
                            return Err(VolleyError::InvalidConfig {
                                parameter: "net",
                                reason: format!(
                                    "agent {}: gave up dialing {} after {retries} attempts: {err}",
                                    config.agent, config.addr
                                ),
                            });
                        }
                        thread::sleep(backoff_delay(
                            &config.backoff,
                            config.agent,
                            attempt_total,
                            retries,
                        ));
                    }
                }
            }
        };
        socket
            .set_read_timeout(config.transport.read_timeout)
            .and_then(|()| socket.set_write_timeout(config.transport.write_timeout))
            .map_err(|e| net_err(config.agent, "configuring socket", &e))?;
        if ever_connected {
            report.reconnects += 1;
        }
        ever_connected = true;

        // --- handshake: hello + Revived per live monitor ---
        let actors = || table.slots().iter().map(MonitorSlot::actor);
        let hello = AgentHello {
            agent: config.agent,
            monitors: actors().map(|actor| actor.id().0).collect(),
            epoch: actors().map(|actor| actor.epoch()).max().unwrap_or(0),
        };
        // One write buffer per connection: frames are encoded in place
        // and leave in batches.
        let mut wbuf: Vec<u8> = Vec::new();
        encode_into(&hello, &mut wbuf);
        let mut revived = 0u64;
        for slot in table.slots().iter().filter(|slot| slot.alive()) {
            let actor = slot.actor();
            let notice = MonitorFrame {
                epoch: actor.epoch(),
                msg: MonitorToCoordinator::Revived {
                    monitor: actor.id(),
                },
            };
            encode_into(&notice, &mut wbuf);
            revived += 1;
        }
        if socket.write_all(&wbuf).is_err() {
            continue 'outer; // dial again; the listener may not be up yet
        }
        report.frames_sent += revived;
        wbuf.clear();

        // --- serve until shutdown or disconnect ---
        let mut frames = FrameBuffer::new(config.transport.max_frame_size);
        let mut chunk = [0u8; 16 * 1024];
        let mut replies = Vec::new();
        loop {
            // Drain every complete frame before touching the socket again.
            loop {
                // Decoded where it lies in the read buffer: no copy.
                let line = match frames.next_line() {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    // Oversized/garbled server frame: drop the connection
                    // and re-handshake on a clean buffer.
                    Err(_) => continue 'outer,
                };
                let frame: ServerFrame = match decode_line(line) {
                    Ok(frame) => frame,
                    Err(_) => continue 'outer,
                };
                report.frames_received += 1;
                frame.expand(config.monitors.clone(), |to, control| {
                    table.deliver(to, control, &mut |reply| replies.push(reply));
                });
                // The one place a monitor's reply becomes bytes: the
                // replies to one line leave as one send.
                let max_frame = config.transport.max_frame_size;
                report.frames_sent += encode_replies(&replies, max_frame, &mut wbuf);
                replies.clear();
            }
            if !wbuf.is_empty() {
                if socket.write_all(&wbuf).is_err() {
                    continue 'outer;
                }
                wbuf.clear();
            }
            if table.finished() {
                return Ok(report); // every monitor shut down cleanly
            }
            match socket.read(&mut chunk) {
                Ok(0) => continue 'outer, // peer closed: reconnect
                Ok(k) => frames.extend(&chunk[..k]),
                Err(err) => match err.kind() {
                    std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::Interrupted => {}
                    _ => continue 'outer,
                },
            }
        }
    }
}

/// Exponential backoff with deterministic jitter in `[0.5, 1.0]`.
fn backoff_delay(cfg: &BackoffConfig, agent: u32, attempt_total: u64, retries: u32) -> Duration {
    let exp = retries.saturating_sub(1).min(20);
    let nominal = cfg.base.saturating_mul(1u32 << exp.min(16)).min(cfg.cap);
    let h = mix(u64::from(agent) << 32 ^ attempt_total ^ 0x5bd1_e995);
    let jitter = 0.5 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    nominal.mul_f64(jitter)
}

fn net_err(agent: u32, action: &str, err: &std::io::Error) -> VolleyError {
    VolleyError::InvalidConfig {
        parameter: "net",
        reason: format!("agent {agent}: {action}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            max_retries_per_outage: 10,
        };
        let d1 = backoff_delay(&cfg, 0, 1, 1);
        let d5 = backoff_delay(&cfg, 0, 5, 5);
        assert!(d1 >= Duration::from_millis(5) && d1 <= Duration::from_millis(10));
        // 10ms * 2^4 = 160ms nominal, jittered down to >= 80ms.
        assert!(d5 >= Duration::from_millis(80) && d5 <= Duration::from_millis(200));
        let d9 = backoff_delay(&cfg, 0, 9, 9);
        assert!(d9 <= Duration::from_millis(200), "cap respected: {d9:?}");
    }

    #[test]
    fn jitter_differs_across_agents() {
        let cfg = BackoffConfig::default();
        let delays: Vec<Duration> = (0..8).map(|a| backoff_delay(&cfg, a, 3, 3)).collect();
        let distinct: std::collections::HashSet<Duration> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "agents must not thundering-herd: {delays:?}"
        );
    }

    /// The agent's edge, byte for byte: what the hosted slots answer one
    /// line with, as values, leaves the socket as exactly
    /// `encode_replies` of those values — the only place a monitor's
    /// reply is ever encoded: a run of tick reports or of poll replies
    /// as one line, a snapshot as one line per monitor.
    #[test]
    fn the_agent_writes_exactly_the_encoding_of_each_reply_frame() {
        use crate::message::{ControlFrame, CoordinatorToMonitor, TickData};
        use crate::net::{ctl_line, encode_controls, welcome_line};
        use std::io::{BufRead, BufReader};

        let spec = TaskSpec::builder(300.0)
            .monitors(3)
            .error_allowance(0.01)
            .build()
            .unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let config = AgentConfig {
            agent: 0,
            addr: NetAddr::Tcp(listener.local_addr().unwrap().to_string()),
            spec: spec.clone(),
            monitors: 1..3,
            transport: TransportConfig::default(),
            backoff: BackoffConfig::default(),
        };
        let agent = thread::spawn(move || run_agent(&config).unwrap());
        let (mut socket, _) = listener.accept().unwrap();
        let mut lines = BufReader::new(socket.try_clone().unwrap());
        let mut read_line = || {
            let mut line = Vec::new();
            lines.read_until(b'\n', &mut line).unwrap();
            line
        };
        assert!(
            read_line().starts_with(b"{\"agent\":0,"),
            "the hello comes first"
        );
        for monitor in 1..3 {
            let notice = MonitorToCoordinator::Revived {
                monitor: volley_core::task::MonitorId(monitor),
            };
            assert_eq!(read_line()[..], MonitorFrame::seal(0, notice)[..]);
        }

        // The twins of the hosted actors answer the same frames by hand.
        let mut twins = [monitor_actor(&spec, 1), monitor_actor(&spec, 2)];
        socket.write_all(&welcome_line(0)).unwrap();
        let sends = [
            [70.0, 80.0].map(|value| CoordinatorToMonitor::Tick(TickData { tick: 0, value })),
            [CoordinatorToMonitor::Poll { tick: 0 }; 2],
            [CoordinatorToMonitor::RequestSnapshot; 2],
        ];
        let mut sent = 2;
        for msgs in sends {
            let stamped = msgs.map(|msg| ControlFrame { epoch: 0, msg });
            let frames: Vec<(u32, ControlFrame)> = (1..).zip(stamped).collect();
            let mut wire = Vec::new();
            assert_eq!(
                encode_controls(&frames, usize::MAX, &mut wire),
                1,
                "one line"
            );
            socket.write_all(&wire).unwrap();
            let replies: Vec<MonitorFrame> = twins
                .iter_mut()
                .zip(&frames)
                .filter_map(|(twin, &(_, frame))| twin.handle_frame(frame).0)
                .collect();
            let mut expected = Vec::new();
            let lines = encode_replies(&replies, usize::MAX, &mut expected);
            let mut read = Vec::new();
            for _ in 0..lines {
                read.extend(read_line());
            }
            assert_eq!(read, expected, "{msgs:?}");
            sent += lines;
        }
        let stop = ControlFrame::seal(0, CoordinatorToMonitor::Shutdown);
        socket.write_all(&ctl_line(1, &stop)).unwrap();
        // A fan-out past the hosted range reaches only hosted monitors.
        let fan = ServerFrame::Fan {
            first: 2,
            count: u32::MAX,
            frame: ControlFrame {
                epoch: 0,
                msg: CoordinatorToMonitor::Shutdown,
            },
        };
        socket.write_all(&crate::message::encode(&fan)).unwrap();
        let report = agent.join().unwrap();
        assert_eq!(
            sent, 6,
            "the Revived notices, a batch for each run, a snapshot each"
        );
        assert_eq!(report.frames_sent, sent);
        assert_eq!(report.frames_received, 6);
    }

    #[test]
    fn bad_monitor_range_is_rejected() {
        let spec = TaskSpec::builder(100.0)
            .monitors(2)
            .error_allowance(0.01)
            .build()
            .unwrap();
        let config = AgentConfig {
            agent: 0,
            addr: NetAddr::Tcp("127.0.0.1:1".into()),
            spec,
            monitors: 0..5,
            transport: TransportConfig::default(),
            backoff: BackoffConfig::default(),
        };
        assert!(matches!(
            run_agent(&config),
            Err(VolleyError::InvalidConfig {
                parameter: "net",
                ..
            })
        ));
    }
}
