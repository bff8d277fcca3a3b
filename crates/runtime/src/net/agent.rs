//! The agent: hosts a contiguous range of the task's monitors behind one
//! socket. Its side of the protocol is an [`AgentMachine`] — bytes in,
//! bytes out, no clock, no socket — and [`run_agent`] is the thin
//! blocking driver that owns the socket and waits through the wall
//! [`Clock`]. Connected, the machine emits the [`AgentHello`] and a
//! `Revived` frame per live monitor; it hands each [`ServerFrame`] line's
//! frames to its [`SlotTable`] — the table an in-process session steps,
//! hence report parity — and answers the line as one send (batched as
//! [`encode_replies`](super::encode_replies) batches), and says goodbye
//! (an empty line) once its last monitor is shut down; closed, it names
//! the next dial's delay: none after a welcomed session, else a jittered
//! exponential backoff (a hash of `(agent, attempt)`, so a storm's agents
//! de-synchronize) counted toward
//! [`BackoffConfig::max_retries_per_outage`].
//!
//! Tick data arrives in [`ServerFrame::Window`] lines only, one tick's
//! as a window of one; a `Ctl` or `Fan` line carrying a tick is refused.
//! A window line grants its run of monitors a window of ticks: the
//! machine keeps each monitor's state at the window's start and the
//! window's values, steps the run row by row until a row on which one of
//! them violated (or the window's end) and answers with one
//! [`ReplyBatch::Window`](super::ReplyBatch::Window) line. A later line
//! that names an earlier tick — a poll of a tick the monitor stepped
//! past, the next window starting before it got to — rewinds the monitor
//! first: back to its window-start state, then forward through the kept
//! values to that tick (`DESIGN.md` §8).
//!
//! A poll inside a window arrives with the next window, which names the
//! ticks whose values the machine kept from the last one (`held`): it
//! shifts those to the front of what it keeps, reads the rest off the
//! line and keeps each monitor's state anew — the poll's forced sample
//! in it — so a second poll rewinds to the new window's start. A line
//! naming values the machine does not hold, as on a fresh connection,
//! is refused.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;
use std::time::Duration;

use serde::Serialize;

use volley_core::hash::splitmix64;
use volley_core::task::TaskSpec;
use volley_core::time::Tick;
use volley_core::VolleyError;

use crate::message::{
    decode_line, encode_into, ControlFrame, CoordinatorToMonitor, MonitorFrame,
    MonitorToCoordinator, TickData,
};
use crate::monitor::{MonitorActor, MonitorSlot, SlotTable, TickState};
use crate::session::monitor_actor;
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::server::{NetAddr, Socket};
use super::wire::{window_tag, AgentHello, ReplyWriter, ServerFrame, WindowLine, MAX_WINDOW};
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

/// What a rewind needs of one hosted monitor: its state at the start of
/// the last window it stepped into, that window's epoch, first tick and
/// values, how many of its ticks it has stepped (0: none to undo) — and
/// how many values it holds that the coordinator knows of: the window's,
/// none once the connection they came on is gone.
#[derive(Debug)]
struct Held {
    state: TickState,
    epoch: u64,
    start: Tick,
    stepped: u32,
    len: u32,
    values: [f64; MAX_WINDOW],
}

impl Held {
    /// Rewinds the monitor `held` holds for — hosted at `at`, monitor id
    /// `to` — to its state before tick `before`, if it stepped past it
    /// in its window: the window-start state, then the window's ticks up
    /// to `before`, their replies dropped (the coordinator has them).
    /// Returns whether it did.
    fn rewind(&mut self, table: &mut SlotTable, (at, to): (usize, u32), before: Tick) -> bool {
        let end = self.start + u64::from(self.stepped);
        if before < self.start || before >= end {
            return false;
        }
        table.actor_mut(at).restore_tick_state(&self.state);
        let rows = (before - self.start) as usize;
        for (tick, &value) in (self.start..).zip(&self.values[..rows]) {
            let msg = CoordinatorToMonitor::Tick(TickData { tick, value });
            let frame = ControlFrame {
                epoch: self.epoch,
                msg,
            };
            table.deliver(to, frame, &mut |_| {});
        }
        self.stepped = rows as u32;
        true
    }
}

/// The agent's side of the protocol, sans IO: the hosted slot table, the
/// read buffer, the rewind state and the report; bytes and connection
/// events in, bytes and dial delays out.
pub(crate) struct AgentMachine {
    hosted: Range<u32>,
    max_frame: usize,
    backoff: BackoffConfig,
    table: SlotTable,
    frames: FrameBuffer,
    /// Per hosted monitor, in id order; allocated with the machine.
    held: Vec<Held>,
    /// The rows of the window reply being written.
    flags: Vec<u8>,
    /// Encodes the replies to the line being answered.
    replies: ReplyWriter,
    /// What a window line opens with.
    window_tag: Vec<u8>,
    /// Monitors rewound so far.
    pub(crate) rewinds: u64,
    /// Values a window line carried that one before it had carried on
    /// the same connection.
    pub(crate) resent: u64,
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
        let table = SlotTable::new(hosted.start, actors.map(MonitorSlot::new).collect());
        let held = table.slots().iter().map(|slot| Held {
            state: slot.actor().tick_state(),
            epoch: 0,
            start: 0,
            stepped: 0,
            len: 0,
            values: [0.0; MAX_WINDOW],
        });
        let max_frame = config.transport.max_frame_size;
        Ok(AgentMachine {
            held: held.collect(),
            flags: Vec::with_capacity(MAX_WINDOW * hosted.len()),
            table,
            frames: FrameBuffer::new(max_frame),
            replies: ReplyWriter::new(max_frame),
            window_tag: window_tag(),
            rewinds: 0,
            resent: 0,
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

    /// A connection is up: appends the hello and the live monitors'
    /// `Revived` notices to `out`, a line per run.
    pub(crate) fn connected(&mut self, out: &mut Vec<u8>) {
        self.frames = FrameBuffer::new(self.max_frame);
        // The new connection was sent nothing yet: its first window
        // carries every value.
        for kept in &mut self.held {
            kept.len = 0;
        }
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
            self.replies.push(&MonitorFrame { epoch, msg }, out);
        }
        self.report.frames_sent += self.replies.finish(out);
    }

    /// Bytes arrived: each line they complete is decoded where it lies,
    /// its frames delivered to the hosted slots (a window stepped, a
    /// monitor rewound where the line names a tick it stepped past) and
    /// its replies appended to `out` as one send — and, once the last
    /// hosted monitor is shut down, the goodbye the coordinator's
    /// teardown waits for: an empty line. `false` for an oversized or
    /// garbled line, or tick data outside a window line: the connection
    /// must go, to re-handshake on a clean buffer.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> bool {
        let finished = self.finished();
        self.frames.extend(bytes);
        loop {
            let line = match self.frames.next_line() {
                Ok(Some(line)) => line,
                Ok(None) if !finished && self.table.finished() => {
                    out.push(b'\n');
                    return true;
                }
                Ok(None) => return true,
                Err(_) => return false,
            };
            let mut hosts = Hosts {
                hosted: self.hosted.clone(),
                table: &mut self.table,
                held: &mut self.held,
                replies: &mut self.replies,
                rewinds: &mut self.rewinds,
                resent: &mut self.resent,
            };
            if line.starts_with(&self.window_tag) {
                // A window's values are read where they lie in the line,
                // its held ones where they lie in the rewind state.
                let stepped = WindowLine::parse(line)
                    .is_some_and(|window| hosts.step_window(&window, &mut self.flags, out));
                if !stepped {
                    return false;
                }
            } else {
                let Ok(frame) = decode_line::<ServerFrame>(line) else {
                    return false;
                };
                if carries_ticks(&frame) {
                    return false;
                }
                if matches!(frame, ServerFrame::Welcome { .. }) && !self.welcomed.0 {
                    self.report.reconnects += u64::from(self.welcomed.1);
                    (self.welcomed, self.retries) = ((true, true), 0);
                }
                hosts.deliver(frame, out);
            }
            self.report.frames_received += 1;
            // The one place a monitor's reply becomes bytes.
            self.report.frames_sent += self.replies.finish(out);
        }
    }

    /// Whether every hosted monitor has been shut down.
    pub(crate) fn finished(&self) -> bool {
        self.table.finished()
    }

    /// The hosted monitors' sampler states, allowance and sample count
    /// included, in id order.
    #[cfg(test)]
    pub(crate) fn states(&self) -> impl Iterator<Item = volley_core::SamplerSnapshot> + '_ {
        let slots = self.table.slots().iter();
        slots.map(|slot| slot.actor().sampler().to_snapshot())
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

/// The hosted monitors as a line reaches them: the slots, their rewind
/// state and the writer their replies go to.
struct Hosts<'a> {
    hosted: Range<u32>,
    table: &'a mut SlotTable,
    held: &'a mut [Held],
    replies: &'a mut ReplyWriter,
    rewinds: &'a mut u64,
    resent: &'a mut u64,
}

impl Hosts<'_> {
    /// Hands each frame of a line to its hosted slot — rewinding the
    /// monitor first when the frame polls a tick it stepped past in a
    /// window — and its replies to the writer.
    fn deliver(&mut self, frame: ServerFrame, out: &mut Vec<u8>) {
        let Hosts {
            hosted,
            table,
            held,
            replies,
            rewinds,
            ..
        } = self;
        frame.expand(hosted.clone(), |to, control| {
            let at = (to - hosted.start) as usize;
            if let CoordinatorToMonitor::Poll { tick } = control.msg {
                let before = tick.saturating_add(1);
                **rewinds += u64::from(held[at].rewind(table, (at, to), before));
            }
            table.deliver(to, control, &mut |reply| replies.push(&reply, out));
        });
    }

    /// Steps the hosted part of `window`'s run, keeping each monitor's
    /// window-start state and values first — the held ones shifted to
    /// the front of what it kept, the carried ones read off the line —
    /// and answers with one window reply: the rows, `flags`, up to the
    /// first on which one of them violated. `false`, and nothing stepped,
    /// when a monitor does not hold the values the line says it does.
    fn step_window(
        &mut self,
        window: &WindowLine<'_>,
        flags: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> bool {
        let (first, tick, epoch) = (window.first, window.tick, window.epoch);
        let run_end = (u64::from(first) + window.count as u64).min(u64::from(self.hosted.end));
        let (lo, hi) = (first.max(self.hosted.start), run_end as u32);
        if lo >= hi {
            return true;
        }
        let Hosts {
            hosted,
            table,
            held,
            replies,
            rewinds,
            resent,
        } = self;
        let (rows, kept_rows) = (window.len as usize, window.held as usize);
        let range = (lo - hosted.start) as usize..(hi - hosted.start) as usize;
        let holds = |kept: &Held| {
            tick >= kept.start && tick - kept.start + kept_rows as u64 <= u64::from(kept.len)
        };
        if kept_rows > 0 && !held[range].iter().all(holds) {
            return false;
        }
        for to in lo..hi {
            let at = (to - hosted.start) as usize;
            **rewinds += u64::from(held[at].rewind(table, (at, to), tick));
            let kept = &mut held[at];
            let carried = tick + kept_rows as u64..tick + rows as u64;
            let had = kept.start..kept.start + u64::from(kept.len);
            **resent += carried
                .end
                .min(had.end)
                .saturating_sub(carried.start.max(had.start));
            if kept_rows > 0 {
                let from = (tick - kept.start) as usize;
                kept.values.copy_within(from..from + kept_rows, 0);
            }
            kept.state = table.slots()[at].actor().tick_state();
            (kept.epoch, kept.start, kept.stepped) = (epoch, tick, 0);
            kept.len = rows as u32;
            for (row, slot) in kept.values[..rows].iter_mut().enumerate().skip(kept_rows) {
                *slot = window.value(row, (to - first) as usize);
            }
        }
        flags.clear();
        let mut reply_epoch = None;
        for row in 0..rows {
            let mut violated = false;
            let at_tick = tick + row as u64;
            for to in lo..hi {
                let at = (to - hosted.start) as usize;
                let value = held[at].values[row];
                let msg = CoordinatorToMonitor::Tick(TickData {
                    tick: at_tick,
                    value,
                });
                let mut done = None;
                table.deliver(to, ControlFrame { epoch, msg }, &mut |reply| {
                    if let Some((_, _, flags)) = reply.msg.report() {
                        done = Some((reply.epoch, flags));
                    }
                });
                held[at].stepped += 1;
                let digit = match done {
                    Some((at_epoch, digit)) if *reply_epoch.get_or_insert(at_epoch) == at_epoch => {
                        violated |= digit & 2 != 0;
                        digit
                    }
                    _ => 8,
                };
                flags.push(digit);
            }
            if violated {
                break;
            }
        }
        let run = (lo, hi - lo);
        replies.window((reply_epoch.unwrap_or(epoch), tick), run, flags, out);
        true
    }
}

/// Whether `frame`, a line the window reader did not take, carries tick
/// data: a `Ctl` or `Fan` line of a tick, or a window in another
/// spelling than the writer's. The coordinator writes none: a monitor
/// steps its ticks in windows only, where its rewind state is kept.
fn carries_ticks(frame: &ServerFrame) -> bool {
    match frame {
        ServerFrame::Ctl { frame, .. } | ServerFrame::Fan { frame, .. } => {
            matches!(frame.msg, CoordinatorToMonitor::Tick(_))
        }
        ServerFrame::Window { .. } => true,
        ServerFrame::Welcome { .. } => false,
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
    let h = splitmix64(u64::from(agent) << 32 ^ attempt_total ^ 0x5bd1_e995);
    let jitter = 0.5 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    nominal.mul_f64(jitter)
}

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;
    use crate::net::{encode_replies, welcome_line};

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
    /// line with, as values, leaves the socket as exactly its encoding —
    /// a tick's data, a window of one, as one window reply; a run of poll
    /// replies as one line (`encode_replies`), a snapshot as one line per
    /// monitor — and a `Ctl` line carrying a tick is refused.
    #[test]
    fn the_agent_writes_exactly_the_encoding_of_each_reply_frame() {
        use crate::message::{ControlFrame, CoordinatorToMonitor, TickData};
        use crate::net::wire::{write_data, write_fan};
        use crate::net::{ctl_line, ReplyBatch};
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
        let notices = crate::message::encode(&ReplyBatch::Revived {
            epoch: 0,
            first: 1,
            count: 2,
        });
        assert_eq!(read_line()[..], notices[..], "the run's notices, one line");

        // The twins of the hosted actors answer the same frames by hand.
        let mut twins = [monitor_actor(&spec, 1), monitor_actor(&spec, 2)];
        socket.write_all(&welcome_line(0)).unwrap();
        let value = |to: u32, _| [0.0, 70.0, 80.0][to as usize];
        let mut wire = Vec::new();
        assert_eq!(
            write_data(0, (0..1, 0), (1..3, &value), usize::MAX, &mut wire),
            1
        );
        socket.write_all(&wire).unwrap();
        let mut flags = Vec::new();
        for (to, twin) in (1..).zip(&mut twins) {
            let msg = CoordinatorToMonitor::Tick(TickData {
                tick: 0,
                value: value(to, 0),
            });
            let done = twin.handle_frame(ControlFrame { epoch: 0, msg }).0;
            let report = done.and_then(|reply| reply.msg.report());
            let (_, _, bits) = report.expect("a tick is answered with its report");
            flags.push(bits);
        }
        let reports = crate::message::encode(&ReplyBatch::Window {
            epoch: 0,
            tick: 0,
            first: 1,
            count: 2,
            flags: crate::net::DigitColumn(flags),
        });
        assert_eq!(read_line()[..], reports[..], "one window reply");
        let mut sent = 2;
        let sends = [
            CoordinatorToMonitor::Poll { tick: 0 },
            CoordinatorToMonitor::RequestSnapshot,
        ];
        for msg in sends {
            let frame = ControlFrame { epoch: 0, msg };
            let mut wire = Vec::new();
            assert_eq!(write_fan((1, 2), frame, usize::MAX, &mut wire), 1);
            socket.write_all(&wire).unwrap();
            let replies: Vec<MonitorFrame> = twins
                .iter_mut()
                .filter_map(|twin| twin.handle_frame(frame).0)
                .collect();
            let mut expected = Vec::new();
            let lines = encode_replies(&replies, usize::MAX, &mut expected);
            let mut read = Vec::new();
            for _ in 0..lines {
                read.extend(read_line());
            }
            assert_eq!(read, expected, "{msg:?}");
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
            sent, 5,
            "the Revived notices, the window reply, a batch of poll replies, a snapshot each"
        );
        assert_eq!(report.frames_sent, sent);
        assert_eq!(report.frames_received, 6);

        // Tick data outside a window line is refused, whatever carries it.
        let tick = ControlFrame::seal(
            0,
            CoordinatorToMonitor::Tick(TickData {
                tick: 0,
                value: 1.0,
            }),
        );
        let fan = ServerFrame::Fan {
            first: 0,
            count: 2,
            frame: ControlFrame {
                epoch: 0,
                msg: CoordinatorToMonitor::Tick(TickData {
                    tick: 0,
                    value: 1.0,
                }),
            },
        };
        for line in [ctl_line(0, &tick), crate::message::encode(&fan)] {
            let mut agent = machine(0..2, BackoffConfig::default());
            let mut out = Vec::new();
            agent.connected(&mut out);
            assert!(agent.on_bytes(&welcome_line(0), &mut out));
            assert!(!agent.on_bytes(&line, &mut out), "{line:?}");
            let samples = agent.states().map(|state| state.total_samples);
            assert_eq!(samples.sum::<u64>(), 0, "no monitor stepped");
        }
    }

    /// A window granted along with a poll names the ticks whose values
    /// the agent kept from the window before: it steps them from what it
    /// kept and answers as it would had the line carried them. It refuses
    /// a line naming values it does not hold — on a fresh connection it
    /// holds none the coordinator knows of.
    #[test]
    fn held_values_step_as_if_carried_and_missing_ones_are_refused() {
        use crate::message::{encode, ControlFrame, CoordinatorToMonitor};
        use crate::net::wire::write_data;

        let value = |to: u32, tick: Tick| 20.0 + f64::from(to) + (tick % 3) as f64;
        let window = |ticks: Range<Tick>, held| {
            let mut line = Vec::new();
            write_data(0, (ticks, held), (0..2, &value), usize::MAX, &mut line);
            line
        };
        let poll = ControlFrame {
            epoch: 0,
            msg: CoordinatorToMonitor::Poll { tick: 1 },
        };
        let poll = encode(&ServerFrame::Fan {
            first: 0,
            count: 2,
            frame: poll,
        });
        let welcomed = || {
            let mut agent = machine(0..2, BackoffConfig::default());
            let mut out = Vec::new();
            agent.connected(&mut out);
            assert!(agent.on_bytes(&welcome_line(0), &mut out));
            agent
        };
        let mut answers = Vec::new();
        for held in [0, 2] {
            let (mut agent, mut out) = (welcomed(), Vec::new());
            assert!(agent.on_bytes(&window(0..4, 0), &mut out));
            let line = [&poll[..], &window(2..6, held)].concat();
            assert!(agent.on_bytes(&line, &mut out));
            assert_eq!((agent.rewinds, agent.resent), (2, 4 - 2 * held));
            answers.push(out);
        }
        assert_eq!(answers[0], answers[1], "held values step as carried ones");

        let (mut agent, mut out) = (welcomed(), Vec::new());
        assert!(!agent.on_bytes(&window(2..6, 2), &mut out), "none held");
        let mut agent = welcomed();
        assert!(agent.on_bytes(&window(0..4, 0), &mut out));
        agent.connected(&mut out);
        assert!(agent.on_bytes(&welcome_line(0), &mut out));
        assert!(!agent.on_bytes(&window(2..6, 2), &mut out), "a re-dial");
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
