//! The networked coordinator: one remote-plane task session — driven by
//! the loop [`crate::runner::TaskRunner`] runs in-process — whose monitor
//! plane is every agent socket, multiplexed by one `poll(2)` reactor
//! ([`volley_serve::reactor`]) on the thread that calls
//! [`NetCoordinator::run`]. The session's [`SocketPlane`] (listener,
//! reactor, and a [`reactor::Table`](volley_serve::reactor::Table) over
//! this module's line-frame [`Protocol`]) is stepped, never served:
//!
//! - **outbound**: a send routes `(monitor, frame)` values by id and
//!   encodes each run for consecutive monitors behind one connection as
//!   one [`ServerFrame`](super::ServerFrame) line, split under the frame
//!   cap, into that connection's write batch, written before it returns;
//! - **inbound**: when the coordinator machine has nothing left to do,
//!   the session turns the table — `poll` until the armed deadline,
//!   accept, read, [`FrameBuffer`] reassembly, flush, reap — until agent
//!   lines are in the inbox, and hands them to the machine as one
//!   payload: the machine cannot tell the transport changed, so parity
//!   with the in-process runner holds by construction;
//! - **between ticks** the drive loop's hook turns the same table for
//!   fleet assembly, pacing, storm kicks and the teardown drain, which
//!   lasts until every agent has said goodbye.
//!
//! Every deadline is read off the plane's [`Clock`], and every wait is a
//! `poll` it times out: at the deadline or the next idle reap on the wall
//! clock; at once on the sweep's virtual clock, whose wait steps its
//! agents instead.
//!
//! Robustness: a connection holds at most the queue cap of monitor
//! frames accepted and not yet written ([`NetCoordinator::with_queue_cap`];
//! a line counts as the frames it carries). A send that finds the queue
//! full flushes it first, so a peer that reads loses nothing; what the
//! kernel will not take is dropped, counted as backpressure, and its
//! monitor falls to the quarantine path. Silent sockets are reaped after
//! the idle timeout; a storm ([`NetFaultPlan`](super::faults::NetFaultPlan))
//! closes its victims' sockets before that tick's frames are routed.

use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Serialize;

use volley_core::task::TaskSpec;
use volley_core::time::Tick;
use volley_core::VolleyError;
use volley_obs::{names, Counter, Gauge, Obs};
use volley_serve::reactor::{Conn, Fd, Pollable, Protocol, Reactor, Table};
use volley_serve::ServePublisher;

use crate::message::{decode_line, ControlFrame, TickSummary};
use crate::runner::{RuntimeReport, TaskRunner};
use crate::session::{self, Hook, Task, TaskSession};
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::faults::NetFaultPlan;
use super::wire::{control_runs, welcome_line, AgentHello};
use super::{Clock, WallClock};

/// Default bound on how long the coordinator lets one collection phase
/// wait for its agents' replies. Generous next to the microseconds a
/// healthy round trip needs, so deadline misses indicate real failures,
/// not scheduling jitter.
pub const DEFAULT_TICK_DEADLINE: Duration = Duration::from_secs(1);

/// Where the coordinator listens (and agents dial).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    /// A TCP host:port, e.g. `127.0.0.1:7707`.
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            NetAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

impl NetAddr {
    /// Dials the address (blocking connect), bounding the socket's
    /// writes by `write_timeout`.
    pub(crate) fn connect(&self, write_timeout: Option<Duration>) -> std::io::Result<Socket> {
        match self {
            NetAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_write_timeout(write_timeout)?;
                Ok(Socket::Tcp(stream))
            }
            #[cfg(unix)]
            NetAddr::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_write_timeout(write_timeout)?;
                Ok(Socket::Unix(stream))
            }
        }
    }
}

/// A connected stream, TCP or Unix.
#[derive(Debug)]
pub(crate) enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

#[cfg(unix)]
impl AsRawFd for Socket {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Socket::Tcp(s) => s.as_raw_fd(),
            Socket::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Socket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Socket::Unix(s) => s.flush(),
        }
    }
}

/// The bound listener, TCP or Unix.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &NetAddr) -> std::io::Result<Listener> {
        match addr {
            NetAddr::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
            #[cfg(unix)]
            NetAddr::Unix(path) => {
                // A previous run's socket file would fail the bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener, path.clone()))
            }
        }
    }

    /// One pending connection as a nonblocking socket — TCP ones with
    /// Nagle off, like the dialing side: a tick's second small write
    /// batch must not wait for the agent's ACK of the first.
    fn accept(&self) -> std::io::Result<Socket> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                Ok(Socket::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Socket::Unix(stream))
            }
        }
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }
}

#[cfg(unix)]
impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Socket-layer totals for one networked run. The `frames_*` counters
/// count wire lines, however many monitors a line carries; the drops and
/// `max_queue_depth` count monitor frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct NetStats {
    /// Connections accepted (first dials and re-dials).
    pub connections_accepted: u64,
    /// Hellos from an agent id already seen — i.e. reconnects absorbed.
    pub reconnects: u64,
    /// Agent lines (hellos and goodbyes excluded) forwarded to the
    /// coordinator: a reply batch counts once.
    pub frames_in: u64,
    /// Lines handed to a connection's write batch, welcomes included: a
    /// run of monitors' frames counts once.
    pub frames_out: u64,
    /// Hellos that failed to parse and lines over the frame cap (the
    /// connection is dropped); a malformed line after the hello is
    /// skipped by the coordinator machine, not counted here.
    pub malformed_frames: u64,
    /// Outbound monitor frames the kernel would not take from a full queue.
    pub backpressure_drops: u64,
    /// Outbound monitor frames dropped because no live connection hosted
    /// the destination monitor.
    pub unrouted_drops: u64,
    /// Connections force-closed by the fault plan (reconnect storms).
    pub kicked: u64,
    /// Connections closed for exceeding the idle timeout (half-open
    /// peer protection).
    pub idle_closed: u64,
    /// High-water mark of any single connection's outbound queue, in
    /// monitor frames.
    pub max_queue_depth: u64,
}

/// Result of a networked run: the runner-compatible report plus
/// socket-layer statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRunOutcome {
    /// Aggregates identical in meaning (and, fault-free, in value) to
    /// [`crate::runner::TaskRunner::run`]'s report.
    pub report: RuntimeReport,
    /// Socket-layer totals.
    pub net: NetStats,
}

/// What the plane knows about one agent connection beyond its socket.
struct AgentConn {
    frames: FrameBuffer,
    /// The agent and the monitors its hello registered; `None` until a
    /// valid hello arrives.
    hello: Option<(u32, Range<usize>)>,
}

/// A socket-serving coordinator bound to a listener and ready to run.
#[derive(Debug)]
pub struct NetCoordinator {
    /// The task's configuration: spec, obs hub, deadlines, publisher —
    /// no supervisor, since a remote monitor restarts itself.
    runner: TaskRunner,
    /// The bound listener and the (still empty) connection table.
    pub(super) plane: SocketPlane,
    /// Pause before each tick (default zero: back to back).
    tick_interval: Duration,
    wait_timeout: Duration,
    faults: NetFaultPlan,
}

impl NetCoordinator {
    /// Binds the listener; agents may start dialing immediately (their
    /// hellos are absorbed once [`run`](Self::run) turns the table).
    ///
    /// # Errors
    ///
    /// [`VolleyError::EmptyTask`] for a spec without monitors,
    /// [`VolleyError::InvalidConfig`] when the bind fails.
    pub fn bind(spec: TaskSpec, addr: &NetAddr) -> Result<Self, VolleyError> {
        let runner = TaskRunner::new(&spec)?.with_supervision(false);
        let plane = SocketPlane::bind(addr, spec.monitors().len()).map_err(|e| {
            VolleyError::InvalidConfig {
                parameter: "net",
                reason: format!("bind {addr}: {e}"),
            }
        })?;
        Ok(NetCoordinator {
            runner,
            plane,
            tick_interval: Duration::ZERO,
            wait_timeout: Duration::from_secs(30),
            faults: NetFaultPlan::new(0),
        })
    }

    /// The bound TCP address (for port-0 binds in tests); `None` for
    /// Unix listeners.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.plane.local_addr()
    }

    /// Sets how long one collection phase of the coordinator waits for
    /// monitor replies before it closes without them (default
    /// [`DEFAULT_TICK_DEADLINE`]).
    pub fn with_tick_deadline(mut self, deadline: Duration) -> Self {
        self.plane.tick_deadline = deadline;
        self
    }

    /// Sets consecutive missed deadlines before quarantine.
    pub fn with_quarantine_after(mut self, misses: u32) -> Self {
        self.runner = self.runner.with_quarantine_after(misses.max(1));
        self
    }

    /// Caps the monitor frames a connection holds accepted and not yet
    /// written — a line counts as the frames it carries. Overflow drops
    /// the frames over the cap (counted) and lets deadline machinery
    /// degrade the peer.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.plane.lines.queue_cap = cap.max(1);
        self
    }

    /// Closes connections silent for this long (half-open protection).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.plane.table = Table::new(timeout);
        self
    }

    /// Inserts a pause before each tick (default zero); the sockets are
    /// served while it lasts.
    pub fn with_tick_interval(mut self, interval: Duration) -> Self {
        self.tick_interval = interval;
        self
    }

    /// How long to wait for the full fleet to register before failing.
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Frame-size cap: the longest line the coordinator reads, and the
    /// longest it writes unless the line carries a single frame (its
    /// sockets never block: the write timeout is the agents').
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.plane.lines.max_frame = transport.max_frame_size;
        self
    }

    /// Installs a socket-level fault plan (reconnect storms).
    pub fn with_faults(mut self, faults: NetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an observability hub for net gauges/counters and the
    /// coordinator's own metrics.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.runner = self.runner.with_obs(obs.clone());
        self
    }

    /// Attaches a live serving-plane publisher: alert events and the
    /// current tick flow into its bounded ring without ever blocking
    /// the tick loop.
    #[must_use]
    pub fn with_serve_publisher(mut self, publisher: ServePublisher) -> Self {
        self.runner = self.runner.with_serve_publisher(publisher);
        self
    }

    /// Runs the task over the fleet: waits for every monitor to be
    /// claimed by a connected agent, drives `traces` tick by tick, and
    /// shuts the fleet down. Spawns nothing: sockets and coordinator are
    /// stepped on the calling thread, by the same drive loop
    /// [`TaskRunner::run`] uses, with the socket plane's turn as its hook.
    ///
    /// # Errors
    ///
    /// [`VolleyError::ValueCountMismatch`] when `traces` does not have
    /// one trace per monitor and [`VolleyError::NonFiniteValue`] for a
    /// `NaN` or infinite value, both before the fleet assembles;
    /// [`VolleyError::InvalidConfig`] when the fleet fails to assemble in
    /// time.
    pub fn run(self, traces: &[Vec<f64>]) -> Result<NetRunOutcome, VolleyError> {
        let registry = self.runner.obs.registry();
        let mut turn = SocketTurn {
            obs: &self.runner.obs,
            faults: &self.faults,
            monitors: traces.len(),
            wait_timeout: self.wait_timeout,
            tick_interval: self.tick_interval,
            conn_gauge: registry.gauge(names::NET_CONNECTIONS),
            queue_gauge: registry.gauge(names::NET_QUEUE_DEPTH),
            reconnects_total: registry.counter(names::NET_RECONNECTS_TOTAL),
            stalls_total: registry.counter(names::NET_BACKPRESSURE_STALLS_TOTAL),
            counted: (0, 0),
            net: NetStats::default(),
        };
        let task = Task::new(&self.runner, traces, Some(self.plane));
        let mut reports = session::drive(vec![task], Some(&mut turn))?;
        let report = reports.pop().expect("one task, one report");
        Ok(NetRunOutcome {
            report,
            net: turn.net,
        })
    }
}

/// The socket plane's turn, as the drive loop's hook: the fleet
/// assembled before tick 0, storm kicks and pacing before each tick, the
/// net gauges after it, and the teardown drain on every exit.
struct SocketTurn<'a> {
    obs: &'a Obs,
    faults: &'a NetFaultPlan,
    monitors: usize,
    wait_timeout: Duration,
    tick_interval: Duration,
    conn_gauge: Gauge,
    queue_gauge: Gauge,
    reconnects_total: Counter,
    stalls_total: Counter,
    /// Reconnects and backpressure drops already added to the counters.
    counted: (u64, u64),
    /// The plane's totals, read at teardown.
    net: NetStats,
}

impl Hook for SocketTurn<'_> {
    /// Fleet assembly: every monitor must be claimed before tick 0, or
    /// the first deadline would instantly degrade the stragglers.
    fn start(&mut self, _: u64, sessions: &mut [TaskSession<'_>]) -> Result<(), VolleyError> {
        let plane = sessions[0].remote();
        let assemble_by = plane.clock.now() + self.wait_timeout;
        if plane.turn_until(assemble_by, |lines| lines.seen.iter().all(|&seen| seen)) {
            return Ok(());
        }
        let seen = plane.lines.seen.iter().filter(|&&seen| seen).count();
        Err(VolleyError::InvalidConfig {
            parameter: "net",
            reason: format!(
                "fleet incomplete: {seen}/{} monitors registered within {:?}",
                self.monitors, self.wait_timeout
            ),
        })
    }

    /// No supervision here: agents restart themselves; the coordinator
    /// only re-admits.
    fn before_step(&mut self, tick: Tick, _: usize, session: &mut TaskSession<'_>) {
        let plane = session.remote();
        if self.faults.storm_at(tick) {
            plane.kick(|agent| self.faults.severs(tick, agent));
        }
        if self.tick_interval > Duration::ZERO {
            // Pacing: nothing ends this wait early, but a re-dialling
            // agent's hello is absorbed during it.
            let until = plane.clock.now() + self.tick_interval;
            plane.turn_until(until, |_| false);
        }
    }

    fn after_step(&mut self, _: Tick, _: usize, _: &TickSummary, session: &mut TaskSession<'_>) {
        if self.obs.enabled() {
            let open = session.remote().table.conns().iter().flatten().count();
            let lines = &session.remote().lines;
            self.conn_gauge.set(open as f64);
            self.queue_gauge.set(lines.stats.max_queue_depth as f64);
            let (reconnects, stalls) = self.counted;
            self.reconnects_total
                .add(lines.stats.reconnects - reconnects);
            self.stalls_total
                .add(lines.stats.backpressure_drops - stalls);
            self.counted = (lines.stats.reconnects, lines.stats.backpressure_drops);
        }
    }

    /// Resends Shutdown every 50 ms, for at most 5 s, until every claimed
    /// monitor's agent has said goodbye (one whose link dropped with the
    /// Shutdown re-dials for another); the totals are read before the
    /// session's own parting copy.
    fn stop(&mut self, sessions: &mut [TaskSession<'_>]) {
        let Some(session) = sessions.first_mut() else {
            return;
        };
        let drain_by = session.remote().clock.now() + Duration::from_secs(5);
        while !session.remote().lines.drained() && session.remote().clock.now() < drain_by {
            session.broadcast_shutdown();
            let plane = session.remote();
            let resend_at = (plane.clock.now() + Duration::from_millis(50)).min(drain_by);
            plane.turn_until(resend_at, LineFrames::drained);
        }
        self.net = session.remote().stats();
    }
}

/// The socket plane of a networked session: the listener, the reactor
/// and the connection table, stepped on the driver's thread — by the
/// session while a tick runs, by [`NetCoordinator`]'s hook between ticks.
pub(crate) struct SocketPlane {
    reactor: Reactor,
    table: Table<LineFrames>,
    lines: LineFrames,
    /// How long one collection phase waits for replies.
    pub(crate) tick_deadline: Duration,
    /// When the phase waiting now gives up: [`arm`](Self::arm)ed as its
    /// requests leave.
    armed: Instant,
    /// Every time read and wait of the plane and of its hook.
    pub(super) clock: Box<dyn Clock>,
}

impl fmt::Debug for SocketPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketPlane")
            .field("listener", &self.lines.listener)
            .field("stats", &self.lines.stats)
            .finish_non_exhaustive()
    }
}

impl SocketPlane {
    /// Binds a plane for `monitors` monitors on the wall clock, at the
    /// defaults [`NetCoordinator`]'s builders override: a 1 024-frame
    /// queue cap, a 30 s idle reap, the default frame cap and tick deadline.
    pub(crate) fn bind(addr: &NetAddr, monitors: usize) -> std::io::Result<Self> {
        Ok(SocketPlane {
            tick_deadline: DEFAULT_TICK_DEADLINE,
            armed: WallClock.now(),
            clock: Box::new(WallClock),
            reactor: Reactor::new()?,
            table: Table::new(Duration::from_secs(30)),
            lines: LineFrames {
                listener: Listener::bind(addr)?,
                route: vec![None; monitors],
                seen: vec![false; monitors],
                shut: vec![false; monitors],
                agents: HashSet::new(),
                inbox: Vec::new(),
                queue_cap: 1024,
                max_frame: TransportConfig::default().max_frame_size,
                stats: NetStats::default(),
            },
        })
    }

    /// The bound TCP address; `None` for Unix listeners.
    pub(crate) fn local_addr(&self) -> Option<SocketAddr> {
        self.lines.listener.local_addr()
    }

    /// Socket-layer totals so far.
    pub(crate) fn stats(&self) -> NetStats {
        self.lines.stats
    }

    /// One pass over the connection table, waiting at most `cap` for a
    /// socket to become ready.
    fn turn(&mut self, cap: Duration) {
        self.table
            .step(&mut self.reactor, &mut self.lines, Some(cap));
    }

    /// Turns the table until `done` holds or `deadline` passes — with one
    /// last pass at the deadline, so what the kernel already holds is
    /// never mistaken for silence; returns whether `done` held.
    fn turn_until(&mut self, deadline: Instant, done: impl Fn(&LineFrames) -> bool) -> bool {
        loop {
            if done(&self.lines) {
                return true;
            }
            let last = self.clock.now() >= deadline;
            let (table, reactor, lines) = (&mut self.table, &mut self.reactor, &mut self.lines);
            let mut turn = |cap| {
                table.step(reactor, lines, Some(cap));
            };
            self.clock.wait_until(deadline, Some(&mut turn));
            if last {
                return done(&self.lines);
            }
        }
    }

    /// Sends `frames` in order: each run of them for consecutive
    /// monitors behind one connection ([`control_runs`]) is encoded into
    /// that connection's write batch in pieces under the queue cap — a
    /// full queue is flushed first, and only what the kernel will not
    /// take is dropped — and every batch leaves before this returns.
    pub(crate) fn send(&mut self, frames: impl IntoIterator<Item = (u32, ControlFrame)>) {
        let (conns, lines) = (self.table.conns(), &mut self.lines);
        let (route, stats) = (&lines.route, &mut lines.stats);
        let (queue_cap, max_frame) = (lines.queue_cap, lines.max_frame);
        let routed = frames.into_iter().map(|(to, frame)| {
            let slot = route.get(to as usize).copied().flatten();
            (slot, to, frame)
        });
        control_runs(routed, |slot, run| {
            let Some(conn) = slot
                .and_then(|slot| conns[slot].as_mut())
                .filter(|conn| conn.is_open())
            else {
                stats.unrouted_drops += run.len() as u64;
                return;
            };
            let mut staged = 0;
            while staged < run.len() {
                if conn.queued() >= queue_cap {
                    conn.flush();
                }
                let take = (run.len() - staged).min(queue_cap.saturating_sub(conn.queued()));
                if take == 0 {
                    break; // the kernel takes no more
                }
                let part = staged..staged + take;
                conn.stage(take, |batch| {
                    stats.frames_out += run.write(part, max_frame, batch)
                });
                staged += take;
                stats.max_queue_depth = stats.max_queue_depth.max(conn.queued() as u64);
            }
            stats.backpressure_drops += (run.len() - staged) as u64;
        });
        for conn in conns.iter_mut().flatten() {
            if conn.pending_bytes() > 0 {
                conn.flush();
            }
        }
    }

    /// Starts the collection deadline: one tick deadline from now.
    pub(crate) fn arm(&mut self) {
        self.armed = self.clock.now() + self.tick_deadline;
    }

    /// Turns the table until monitor frames have arrived or the
    /// [`arm`](Self::arm)ed deadline passes; returns the inbox — every
    /// connection's complete lines, one newline-delimited payload — for
    /// the caller to read and clear (empty: the deadline passed).
    pub(crate) fn collect(&mut self) -> &mut Vec<u8> {
        self.turn_until(self.armed, |lines| !lines.inbox.is_empty());
        &mut self.lines.inbox
    }

    /// Severs every connection of the agents `severs` picks, here and
    /// now: their sockets are closed when this returns.
    fn kick(&mut self, severs: impl Fn(u32) -> bool) {
        for conn in self.table.conns().iter_mut().flatten() {
            let agent = conn.state.hello.as_ref().map(|(agent, _)| *agent);
            if conn.is_open() && agent.is_some_and(&severs) {
                conn.close_now();
                self.lines.stats.kicked += 1;
            }
        }
        self.turn(Duration::ZERO);
    }
}

/// The agent plane as the connection table sees it: newline-framed
/// [`super::wire`] messages, routed by monitor id.
struct LineFrames {
    listener: Listener,
    /// Monitor id → table slot of the connection hosting it.
    route: Vec<Option<usize>>,
    /// Per monitor: whether an agent has ever claimed it (fleet
    /// assembly waits for all), and whether its agent said goodbye (the
    /// teardown drain waits for every claimed one's).
    seen: Vec<bool>,
    shut: Vec<bool>,
    /// Agent ids with at least one hello: another one is a reconnect.
    agents: HashSet<u32>,
    /// Agent lines read and not yet handed to the coordinator machine,
    /// verbatim.
    inbox: Vec<u8>,
    queue_cap: usize,
    max_frame: usize,
    stats: NetStats,
}

impl LineFrames {
    /// Whether every claimed monitor's agent has said goodbye.
    fn drained(&self) -> bool {
        self.shut == self.seen
    }

    /// Registers a connection's first line: the agent and its range.
    fn hello(&mut self, slot: usize, conn: &mut Conn<Self>, line: &[u8]) {
        let Ok(hello) = decode_line::<AgentHello>(line) else {
            self.stats.malformed_frames += 1;
            conn.close_now();
            return;
        };
        let end = u64::from(hello.first) + u64::from(hello.count);
        let end = end.min(self.route.len() as u64) as usize;
        let monitors = (hello.first as usize).min(end)..end;
        // Later hellos win: a re-dialled agent's socket takes the routes.
        self.route[monitors.clone()].fill(Some(slot));
        self.seen[monitors.clone()].fill(true);
        conn.state.hello = Some((hello.agent, monitors));
        self.stats.reconnects += u64::from(!self.agents.insert(hello.agent));
        // The welcome bypasses the cap — it must reach even a peer whose
        // monitors are backlogged — and is the first line the agent
        // reads: no route led to this connection before its hello.
        conn.push(welcome_line(0));
        self.stats.frames_out += 1;
    }
}

impl Protocol for LineFrames {
    type Stream = Socket;
    type State = AgentConn;

    fn listener(&self) -> Fd {
        self.listener.fd()
    }

    fn accept(&mut self) -> std::io::Result<(Socket, AgentConn)> {
        let socket = self.listener.accept()?;
        self.stats.connections_accepted += 1;
        let state = AgentConn {
            frames: FrameBuffer::new(self.max_frame),
            hello: None,
        };
        Ok((socket, state))
    }

    /// Reassemble; the first line registers, an empty line says goodbye
    /// (every hosted monitor is shut down), and the rest are appended
    /// verbatim to the inbox, the payload
    /// [`CoordinatorActor::on_payload`](crate::coordinator::CoordinatorActor::on_payload)
    /// expands.
    fn on_bytes(&mut self, slot: usize, conn: &mut Conn<Self>, bytes: &[u8]) {
        conn.state.frames.extend(bytes);
        // Sized to what arrived, not doubled: the run's largest payload
        // (a reallocation round's reports) sets the heap's high-water mark.
        self.inbox.reserve_exact(conn.state.frames.pending());
        while conn.is_open() {
            match conn.state.frames.next_line() {
                Ok(Some(line)) => match &conn.state.hello {
                    Some((_, hosted)) if line == b"\n" => self.shut[hosted.clone()].fill(true),
                    Some(_) => {
                        self.inbox.extend_from_slice(line);
                        self.stats.frames_in += 1;
                    }
                    None => {
                        let line = line.to_vec();
                        self.hello(slot, conn, &line);
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    // Oversized frame: protocol violation, drop peer.
                    self.stats.malformed_frames += 1;
                    conn.close_now();
                }
            }
        }
    }

    /// Frees the connection's routes.
    fn on_close(&mut self, slot: usize, conn: Conn<Self>, idle: bool) {
        let hosted = conn.state.hello.map_or(0..0, |(_, monitors)| monitors);
        for route in &mut self.route[hosted] {
            if *route == Some(slot) {
                *route = None;
            }
        }
        self.stats.idle_closed += u64::from(idle);
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::thread;

    use super::*;
    use crate::message::{encode, CoordinatorToMonitor, TickData};
    use crate::net::{ctl_line, ServerFrame};

    fn spec(n: usize) -> TaskSpec {
        TaskSpec::builder(100.0 * n as f64)
            .monitors(n)
            .error_allowance(0.01)
            .build()
            .unwrap()
    }

    /// A plane for `monitors` monitors on a fresh loopback listener.
    fn plane(monitors: usize, queue_cap: usize) -> (SocketPlane, SocketAddr) {
        let mut plane = SocketPlane::bind(&NetAddr::Tcp("127.0.0.1:0".into()), monitors).unwrap();
        plane.lines.queue_cap = queue_cap;
        let addr = plane.local_addr().unwrap();
        (plane, addr)
    }

    fn hello(agent: u32, monitors: Range<u32>) -> bytes::Bytes {
        encode(&AgentHello {
            agent,
            first: monitors.start,
            count: monitors.len() as u32,
            epoch: 0,
        })
    }

    /// Dials `addr` as `agent` hosting `monitors` and turns `plane` until
    /// the hello is answered; the agent's end, its welcome still unread.
    fn dial(
        plane: &mut SocketPlane,
        addr: SocketAddr,
        agent: u32,
        monitors: Range<u32>,
    ) -> BufReader<TcpStream> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&hello(agent, monitors)).unwrap();
        let answered = plane.stats().frames_out;
        let by = Instant::now() + Duration::from_secs(10);
        assert!(
            plane.turn_until(by, |lines| lines.stats.frames_out > answered),
            "the hello was read"
        );
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        BufReader::new(stream)
    }

    /// The next line `peer` reads, newline included.
    fn line(peer: &mut BufReader<TcpStream>) -> Vec<u8> {
        let mut line = Vec::new();
        peer.read_until(b'\n', &mut line).unwrap();
        line
    }

    /// What the wire carries for `msg` sent to `to` at `epoch`.
    fn ctl(to: u32, epoch: u64, msg: CoordinatorToMonitor) -> Vec<u8> {
        ctl_line(to, &ControlFrame::seal(epoch, msg)).to_vec()
    }

    /// What the wire carries for `msg` sent to the `count` monitors from
    /// `first` at `epoch`, in one send.
    fn fan(first: u32, count: u32, epoch: u64, msg: CoordinatorToMonitor) -> Vec<u8> {
        let frame = ControlFrame { epoch, msg };
        encode(&ServerFrame::Fan {
            first,
            count,
            frame,
        })
        .to_vec()
    }

    #[test]
    fn accepted_tcp_connections_have_nagle_off() {
        let listener = Listener::bind(&NetAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = loop {
            match listener.accept() {
                Ok(socket) => break socket,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        let Socket::Tcp(stream) = accepted else {
            panic!("a TCP listener accepts TCP sockets");
        };
        assert!(stream.nodelay().unwrap(), "TCP_NODELAY set on accept");
    }

    /// The cap bounds what waits on a peer, not what one send carries:
    /// one send of three frames for one connection under a cap of two
    /// flushes the full queue before the third, so nothing is dropped
    /// while the kernel takes bytes, and the queue never holds more than
    /// the cap.
    #[test]
    fn bounded_queue_backpressure_and_unrouted_drops() {
        let (mut plane, addr) = plane(2, 2);
        let mut peer = dial(&mut plane, addr, 0, 0..1);
        let stop = CoordinatorToMonitor::Shutdown;
        let frame = ControlFrame {
            epoch: 0,
            msg: stop,
        };

        plane.send([(0, frame), (0, frame), (0, frame)]);
        assert_eq!(plane.stats().backpressure_drops, 0);
        assert_eq!(plane.stats().max_queue_depth, 2);
        // What was accepted left with the send: the queue is free again.
        plane.send([(0, frame)]);
        assert_eq!(plane.stats().backpressure_drops, 0);

        // Monitor 1 has no live connection: the frame is dropped and
        // counted, never buffered.
        plane.send([(1, frame)]);
        assert_eq!(plane.stats().unrouted_drops, 1);

        assert_eq!(line(&mut peer), welcome_line(0).to_vec());
        for _ in 0..4 {
            assert_eq!(line(&mut peer), ctl(0, 0, stop));
        }
        assert_eq!(plane.stats().frames_out, 5);
    }

    /// A peer that stops reading: the kernel's buffers fill, then the
    /// frames accepted and not yet written reach the cap and the rest are
    /// dropped — memory stays bounded; when the peer reads again it gets
    /// every accepted frame, in order, and the queue reopens.
    #[test]
    fn a_stalled_peer_holds_at_most_the_cap_then_catches_up() {
        const CAP: usize = 4;
        let (mut plane, addr) = plane(1, CAP);
        let mut peer = dial(&mut plane, addr, 0, 0..1);
        let msg = |tick| CoordinatorToMonitor::Tick(TickData { tick, value: 0.5 });
        let mut sent = 0u64;
        while plane.stats().backpressure_drops == 0 {
            plane.send([(
                0,
                ControlFrame {
                    epoch: 1,
                    msg: msg(sent),
                },
            )]);
            sent += 1;
            assert!(sent < 10_000_000, "the kernel never pushed back");
        }
        let conn = plane.table.conns()[0].as_ref().unwrap();
        assert_eq!(conn.queued(), CAP);
        assert!(conn.pending_bytes() > 0);
        assert_eq!(plane.stats().max_queue_depth, CAP as u64);
        let accepted = plane.stats().frames_out;
        assert_eq!(
            accepted, sent,
            "all but the dropped frame, plus the welcome"
        );

        let reader = thread::spawn(move || {
            assert_eq!(line(&mut peer), welcome_line(0).to_vec());
            for tick in 0..accepted - 1 {
                assert_eq!(line(&mut peer), ctl(0, 1, msg(tick)), "frame {tick}");
            }
            peer
        });
        while plane.table.conns()[0].as_ref().unwrap().pending_bytes() > 0 {
            plane.turn(Duration::from_millis(50));
        }
        let _peer = reader.join().unwrap();
        plane.send([(
            0,
            ControlFrame {
                epoch: 1,
                msg: msg(sent),
            },
        )]);
        assert_eq!(plane.stats().backpressure_drops, 1, "the queue reopened");
    }

    /// A stalled peer hosting four monitors under a cap of two: while the
    /// kernel takes bytes, each tick's run of four leaves whole, staged as
    /// two lines of two frames with a flush between them; once it stops,
    /// the queue holds exactly the cap — one line — and the frames over
    /// it are dropped, a later run whole. The peer, reading again, gets
    /// every accepted line, in order.
    #[test]
    fn a_stalled_peer_loses_exactly_the_frames_over_the_cap() {
        let (mut plane, addr) = plane(4, 2);
        let mut peer = dial(&mut plane, addr, 0, 0..4);
        let data = |tick| {
            (0..4u32).map(move |to| {
                let value = f64::from(to);
                let msg = CoordinatorToMonitor::Tick(TickData { tick, value });
                (to, ControlFrame { epoch: 1, msg })
            })
        };
        let mut ticks = 0u64;
        while plane.stats().backpressure_drops == 0 {
            assert_eq!(
                plane.stats().frames_out,
                2 * ticks + 1,
                "two lines a tick, and the welcome"
            );
            plane.send(data(ticks));
            ticks += 1;
            assert!(ticks < 10_000_000, "the kernel never pushed back");
        }
        let conn = plane.table.conns()[0].as_ref().unwrap();
        assert_eq!(conn.queued(), 2, "the line holding two frames");
        assert!(conn.pending_bytes() > 0);
        assert_eq!(plane.stats().max_queue_depth, 2);
        let (drops, lines) = (plane.stats().backpressure_drops, plane.stats().frames_out);
        assert_eq!(lines - 1 + drops / 2, 2 * ticks, "a line per accepted pair");
        plane.send(data(ticks));
        assert_eq!(
            plane.stats().backpressure_drops,
            drops + 4,
            "the full queue took none"
        );
        assert_eq!(plane.stats().frames_out, lines);

        let reader = thread::spawn(move || {
            assert_eq!(line(&mut peer), welcome_line(0).to_vec());
            for at in 0..lines - 1 {
                let first = 2 * (at % 2) as u32;
                let values = vec![f64::from(first), f64::from(first + 1)];
                let tick = at / 2;
                let ticks = ServerFrame::Ticks {
                    epoch: 1,
                    tick,
                    first,
                    values,
                };
                assert_eq!(line(&mut peer), encode(&ticks).to_vec(), "line {at}");
            }
        });
        while plane.table.conns()[0].as_ref().unwrap().pending_bytes() > 0 {
            plane.turn(Duration::from_millis(50));
        }
        reader.join().unwrap();
    }

    /// A re-dialling agent's new socket takes its monitors' routes over,
    /// and the first line it reads there is the welcome — ahead of every
    /// control frame routed to it. A frame for consecutive monitors in
    /// ascending order leaves as one fan-out line; out of order, as one
    /// line each.
    #[test]
    fn a_reconnected_agent_reads_its_welcome_first() {
        let (mut plane, addr) = plane(2, 8);
        let poll = |tick| CoordinatorToMonitor::Poll { tick };
        let stamped = |tick| ControlFrame {
            epoch: 3,
            msg: poll(tick),
        };
        let mut first = dial(&mut plane, addr, 7, 0..2);
        plane.send([(0, stamped(1)), (1, stamped(1))]);
        // The agent dials again while its old socket is still open.
        let mut second = dial(&mut plane, addr, 7, 0..2);
        assert_eq!(plane.stats().reconnects, 1);
        plane.send([(1, stamped(2)), (0, stamped(2))]);

        assert_eq!(line(&mut second), welcome_line(0).to_vec());
        assert_eq!(line(&mut second), ctl(1, 3, poll(2)));
        assert_eq!(line(&mut second), ctl(0, 3, poll(2)));
        assert_eq!(line(&mut first), welcome_line(0).to_vec());
        assert_eq!(line(&mut first), fan(0, 2, 3, poll(1)));
        assert_eq!(plane.stats().frames_out, 5, "two welcomes, three lines");
        first.get_ref().set_nonblocking(true).unwrap();
        let starved = first.fill_buf().unwrap_err();
        assert_eq!(starved.kind(), std::io::ErrorKind::WouldBlock);
    }

    /// A storm kick is part of the tick's own schedule: the victim's
    /// socket is closed when `kick` returns, so that tick's frames for
    /// its monitors are unrouted whatever the agent does next.
    #[test]
    fn a_kick_closes_the_victims_socket_in_place() {
        let (mut plane, addr) = plane(2, 8);
        let mut victim = dial(&mut plane, addr, 0, 0..1);
        let mut bystander = dial(&mut plane, addr, 1, 1..2);
        plane.kick(|agent| agent == 0);
        let open = plane.table.conns().iter().flatten().count();
        assert_eq!((plane.stats().kicked, open), (1, 1));
        let stop = CoordinatorToMonitor::Shutdown;
        let frame = ControlFrame {
            epoch: 0,
            msg: stop,
        };
        plane.send([(0, frame), (1, frame)]);
        assert_eq!(plane.stats().unrouted_drops, 1);
        assert_eq!(line(&mut victim), welcome_line(0).to_vec());
        assert_eq!(line(&mut victim), b"", "end of stream");
        assert_eq!(line(&mut bystander), welcome_line(0).to_vec());
        assert_eq!(line(&mut bystander), ctl(1, 0, stop));
    }

    /// Waiting for the fleet blocks in `poll`: four agents dialling 50 ms
    /// apart cost a few wake-ups each, however long the wait (the loop
    /// that slept 1 ms at a time would have woken ~200 times).
    #[test]
    fn a_coordinator_waiting_for_its_fleet_wakes_per_connection_not_per_interval() {
        let (mut plane, addr) = plane(4, 8);
        let dialing = thread::spawn(move || {
            let dial = |agent: u32| {
                thread::sleep(Duration::from_millis(50));
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&hello(agent, agent..agent + 1)).unwrap();
                stream
            };
            (0..4).map(dial).collect::<Vec<_>>()
        });
        let began = Instant::now();
        let by = began + Duration::from_secs(10);
        assert!(plane.turn_until(by, |lines| lines.seen.iter().all(|&seen| seen)));
        assert!(began.elapsed() >= Duration::from_millis(150), "it did wait");
        let wakeups = plane.reactor.waker().wakeups();
        assert!(wakeups <= 12, "woke {wakeups} times for 4 connections");
        drop(dialing.join().unwrap());
    }

    #[test]
    fn bind_on_port_zero_reports_local_addr() {
        let coordinator =
            NetCoordinator::bind(spec(2), &NetAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = coordinator.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn bind_failure_is_invalid_config() {
        let err = NetCoordinator::bind(spec(1), &NetAddr::Tcp("definitely-not-an-addr".into()))
            .unwrap_err();
        assert!(matches!(
            err,
            VolleyError::InvalidConfig {
                parameter: "net",
                ..
            }
        ));
    }

    #[test]
    fn run_without_fleet_times_out() {
        let coordinator = NetCoordinator::bind(spec(1), &NetAddr::Tcp("127.0.0.1:0".into()))
            .unwrap()
            .with_wait_timeout(Duration::from_millis(50));
        let err = coordinator.run(&[vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(
            err,
            VolleyError::InvalidConfig {
                parameter: "net",
                ..
            }
        ));
    }

    #[test]
    fn trace_count_mismatch_is_rejected() {
        let coordinator =
            NetCoordinator::bind(spec(2), &NetAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let err = coordinator.run(&[vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            VolleyError::ValueCountMismatch {
                got: 1,
                expected: 2
            }
        ));
    }
}
