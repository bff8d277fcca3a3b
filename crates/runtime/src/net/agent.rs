//! The agent: hosts a contiguous range of the task's monitors behind one
//! socket. Its side of the protocol is an [`AgentMachine`] — bytes in,
//! bytes out, no clock, no socket — and [`run_agent`] is the thin
//! blocking driver that owns the socket and waits through the wall
//! [`Clock`]. Connected, the machine emits the [`AgentHello`] and a
//! `Revived` frame per live monitor; it hands each [`ServerFrame`] line's
//! frames to its [`SlotTable`] — the table an in-process session steps,
//! hence report parity — and answers the line as one send
//! ([`encode_replies`]), and says goodbye (an empty line) once its last
//! monitor is shut down; closed, it names the next dial's delay: none
//! after a welcomed session, else a jittered exponential backoff (a hash
//! of `(agent, attempt)`, so a storm's agents de-synchronize) counted
//! toward [`BackoffConfig::max_retries_per_outage`].

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;
use std::time::Duration;

use serde::Serialize;

use volley_core::task::TaskSpec;
use volley_core::VolleyError;

use crate::message::{decode_line, encode_into, MonitorFrame, MonitorToCoordinator};
use crate::monitor::{MonitorActor, MonitorSlot, SlotTable};
use crate::session::monitor_actor;
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::faults::mix;
use super::server::{NetAddr, Socket};
use super::wire::{encode_replies, AgentHello, ServerFrame};
use super::{Clock, WallClock};

/// Reconnect backoff policy: exponential from `base` to `cap`, with
/// deterministic per-agent jitter in `[0.5, 1.0]` of the nominal delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First-retry delay.
    pub base: Duration,
    /// Ceiling for the exponential delay (pre-jitter).
    pub cap: Duration,
    /// Consecutive failed dials tolerated per outage before giving up; a
    /// connection that closes before its welcome counts as one.
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
    /// Frame cap and write timeout.
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
    /// Reply lines written to the coordinator (no hello or goodbye): a
    /// [`ReplyBatch`](super::wire::ReplyBatch) counts once, as does each
    /// reply that travels alone.
    pub frames_sent: u64,
    /// [`ServerFrame`] lines decoded off the socket, however many
    /// monitors each carried.
    pub frames_received: u64,
    /// Sessions welcomed after an earlier welcomed one was lost.
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
    let mut machine = AgentMachine::new(config)?;
    let (mut clock, write_timeout) = (WallClock, config.transport.write_timeout);
    loop {
        let session = config.addr.connect(write_timeout);
        let lost = match session.and_then(|mut socket| serve(&mut machine, &mut socket)) {
            Ok(()) => return Ok(machine.report), // every monitor shut down
            Err(lost) => lost,
        };
        let delay = machine.closed(&lost)?;
        clock.wait_until(clock.now() + delay, None);
    }
}

/// Serves one connection — the handshake, then one read, every complete
/// line it finishes, one write — until every hosted monitor is shut
/// down, or the connection is lost.
fn serve(machine: &mut AgentMachine, socket: &mut Socket) -> std::io::Result<()> {
    // One write buffer: the machine encodes into it in place.
    let (mut chunk, mut out) = ([0u8; 16 * 1024], Vec::new());
    machine.connected(&mut out);
    loop {
        let sent = socket.write_all(&out);
        out.clear();
        if machine.finished() {
            return Ok(()); // the goodbye is best-effort
        }
        sent?;
        let k = match socket.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Err(err) if err.kind() == ErrorKind::Interrupted => 0,
            read => read?,
        };
        if !machine.on_bytes(&chunk[..k], &mut out) {
            return Err(ErrorKind::InvalidData.into());
        }
    }
}

/// The agent's side of the protocol, sans IO: the hosted slot table, the
/// read buffer and the report; bytes and connection events in, bytes and
/// dial delays out.
pub(crate) struct AgentMachine {
    hosted: Range<u32>,
    max_frame: usize,
    backoff: BackoffConfig,
    table: SlotTable,
    frames: FrameBuffer,
    /// The replies to the line being answered, as values.
    replies: Vec<MonitorFrame>,
    pub(crate) report: AgentReport,
    /// Whether the current connection, and whether any, was welcomed.
    welcomed: (bool, bool),
    /// Failed dials in this outage, and in the agent's life.
    retries: u32,
    attempts: u64,
}

impl AgentMachine {
    /// The machine of `config`'s agent, its monitors built by the
    /// session's recipe: a fault-free run samples as one in process does.
    pub(crate) fn new(config: &AgentConfig) -> Result<Self, VolleyError> {
        let (n, hosted) = (config.spec.monitors().len(), config.monitors.clone());
        if hosted.is_empty() || hosted.end as usize > n {
            let agent = config.agent;
            return Err(invalid(format!(
                "agent {agent} monitor range {hosted:?} out of bounds for {n} monitors"
            )));
        }
        let actors = hosted
            .clone()
            .map(|m| monitor_actor(&config.spec, m as usize));
        let max_frame = config.transport.max_frame_size;
        Ok(AgentMachine {
            table: SlotTable::new(hosted.start, actors.map(MonitorSlot::new).collect()),
            frames: FrameBuffer::new(max_frame),
            replies: Vec::new(),
            report: AgentReport {
                agent: config.agent,
                monitors: hosted.len() as u32,
                ..AgentReport::default()
            },
            hosted,
            max_frame,
            backoff: config.backoff,
            welcomed: (false, false),
            retries: 0,
            attempts: 0,
        })
    }

    /// A connection is up: appends the hello and a `Revived` frame per
    /// live monitor to `out`.
    pub(crate) fn connected(&mut self, out: &mut Vec<u8>) {
        self.frames = FrameBuffer::new(self.max_frame);
        let actors = self.table.slots().iter().map(MonitorSlot::actor);
        let hello = AgentHello {
            agent: self.report.agent,
            first: self.hosted.start,
            count: self.hosted.len() as u32,
            epoch: actors.map(MonitorActor::epoch).max().unwrap_or(0),
        };
        encode_into(&hello, out);
        for slot in self.table.slots().iter().filter(|slot| slot.alive()) {
            let (epoch, monitor) = (slot.actor().epoch(), slot.actor().id());
            let msg = MonitorToCoordinator::Revived { monitor };
            encode_into(&MonitorFrame { epoch, msg }, out);
            self.report.frames_sent += 1;
        }
    }

    /// Bytes arrived: each line they complete is decoded where it lies,
    /// its frames delivered to the hosted slots and its replies appended
    /// to `out` as one send — and, once the last hosted monitor is shut
    /// down, the goodbye the coordinator's teardown waits for: an empty
    /// line. `false` for an oversized or garbled line: the connection
    /// must go, to re-handshake on a clean buffer.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> bool {
        let finished = self.finished();
        self.frames.extend(bytes);
        loop {
            let frame = match self.frames.next_line() {
                Ok(Some(line)) => match decode_line::<ServerFrame>(line) {
                    Ok(frame) => frame,
                    Err(_) => return false,
                },
                Ok(None) if !finished && self.table.finished() => {
                    out.push(b'\n');
                    return true;
                }
                Ok(None) => return true,
                Err(_) => return false,
            };
            self.report.frames_received += 1;
            if matches!(frame, ServerFrame::Welcome { .. }) && !self.welcomed.0 {
                self.report.reconnects += u64::from(self.welcomed.1);
                (self.welcomed, self.retries) = ((true, true), 0);
            }
            let (table, replies) = (&mut self.table, &mut self.replies);
            frame.expand(self.hosted.clone(), |to, control| {
                table.deliver(to, control, &mut |reply| replies.push(reply));
            });
            // The one place a monitor's reply becomes bytes.
            self.report.frames_sent += encode_replies(replies, self.max_frame, out);
            replies.clear();
        }
    }

    /// Whether every hosted monitor has been shut down.
    pub(crate) fn finished(&self) -> bool {
        self.table.finished()
    }

    /// The connection closed, or a dial failed (`cause`): the wait before
    /// the next dial — none after a welcomed session, a backoff step
    /// otherwise — or the give-up error once the outage's budget is spent.
    pub(crate) fn closed(&mut self, cause: &dyn fmt::Display) -> Result<Duration, VolleyError> {
        if std::mem::take(&mut self.welcomed.0) {
            return Ok(Duration::ZERO);
        }
        (self.retries, self.attempts) = (self.retries + 1, self.attempts + 1);
        let (agent, retries) = (self.report.agent, self.retries);
        if retries > self.backoff.max_retries_per_outage {
            return Err(invalid(format!(
                "agent {agent}: gave up after {retries} failed dials: {cause}"
            )));
        }
        Ok(backoff_delay(&self.backoff, agent, self.attempts, retries))
    }
}

/// A `net` configuration error.
fn invalid(reason: String) -> VolleyError {
    VolleyError::InvalidConfig {
        parameter: "net",
        reason,
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

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;
    use crate::net::welcome_line;

    fn machine(monitors: Range<u32>, backoff: BackoffConfig) -> AgentMachine {
        let spec = TaskSpec::builder(100.0 * f64::from(monitors.end))
            .monitors(monitors.end as usize)
            .error_allowance(0.01)
            .build()
            .unwrap();
        let config = AgentConfig {
            agent: 3,
            addr: NetAddr::Tcp("127.0.0.1:1".into()),
            spec,
            monitors,
            transport: TransportConfig::default(),
            backoff,
        };
        AgentMachine::new(&config).unwrap()
    }

    /// A peer that accepts and closes before its welcome, every time: each
    /// close is a failed dial of one outage — jittered delays that grow
    /// to the cap, then the give-up error — never an immediate re-dial.
    #[test]
    fn a_peer_that_closes_before_the_welcome_backs_off_then_gives_up() {
        let backoff = BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            max_retries_per_outage: 8,
        };
        let mut agent = machine(0..2, backoff);
        let mut delays = Vec::new();
        let gave_up = loop {
            let mut out = Vec::new();
            agent.connected(&mut out);
            assert!(out.starts_with(b"{\"agent\":3,"), "the hello leads");
            match agent.closed(&"closed before the welcome") {
                Ok(delay) => delays.push(delay),
                Err(err) => break err,
            }
        };
        assert_eq!(delays.len(), 8, "{delays:?}");
        for (retry, delay) in (1..).zip(&delays) {
            let nominal = (backoff.base * (1 << (retry - 1))).min(backoff.cap);
            assert!(
                *delay >= nominal / 2 && *delay <= nominal,
                "{retry}: {delay:?}"
            );
        }
        assert!(delays[7] > delays[0] * 4, "growing: {delays:?}");
        assert!(gave_up.to_string().contains("gave up after 9 failed dials"));

        // A welcome ends the outage: the loss of a welcomed session
        // re-dials at once, and the next outage has the whole budget.
        let mut agent = machine(0..2, backoff);
        let mut out = Vec::new();
        for session in 0..3 {
            for _ in 0..8 {
                assert!(agent.closed(&"refused").unwrap() > Duration::ZERO);
            }
            agent.connected(&mut out);
            assert!(agent.on_bytes(&welcome_line(0), &mut out));
            assert_eq!(agent.closed(&"kicked"), Ok(Duration::ZERO), "{session}");
        }
        assert_eq!(agent.report.reconnects, 2, "welcomed after a lost one");
    }

    /// The hello names the hosted range, not its members: its line stays
    /// short whatever the range's size — a 13 000-monitor agent's hello
    /// fits any frame cap a one-monitor agent's does.
    #[test]
    fn a_hello_line_does_not_grow_with_the_range() {
        let hello = |monitors: Range<u32>| {
            let mut agent = machine(monitors, BackoffConfig::default());
            let mut out = Vec::new();
            agent.connected(&mut out);
            let end = out.iter().position(|&b| b == b'\n').unwrap();
            out.truncate(end + 1);
            out
        };
        let one = hello(10_000..10_001);
        let all = hello(10_000..13_000);
        assert_eq!(all.len() - one.len(), 3, "the count's digits only");
        assert!(all.len() < 64, "{} bytes", all.len());
        let back: AgentHello = decode_line(&all).unwrap();
        assert_eq!((back.first, back.count), (10_000, 3_000));
    }

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
        use crate::net::{ctl_line, encode_controls};
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
        assert_eq!(
            read_line(),
            b"\n",
            "the goodbye, once every monitor is shut down"
        );
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
