//! The networked coordinator: one remote-plane task session — driven by
//! the same loop [`crate::runner::TaskRunner`] runs in-process — whose
//! monitor plane is every agent socket, multiplexed by one readiness
//! reactor ([`volley_serve::reactor`], `poll(2)`).
//!
//! ## Architecture
//!
//! One thread does everything, the one that calls
//! [`NetCoordinator::run`]. The session's [`SocketPlane`] owns the
//! listener, the reactor and the connection table
//! ([`reactor::Table`](volley_serve::reactor::Table) over this module's
//! line-frame [`Protocol`]) and is stepped, never served:
//!
//! - **outbound**: a session send hands the plane `(monitor, frame)`
//!   *values*; each is routed by monitor id to the owning connection and
//!   encoded as a [`ServerFrame::Ctl`] line straight into that
//!   connection's write batch (bounded — see below), and every batch is
//!   written before the send returns, with partial-write carry-over for
//!   a peer that does not take it whole;
//! - **inbound**: when the coordinator machine
//!   ([`crate::coordinator::CoordinatorActor`]) has nothing left to do,
//!   the session turns the table — wait in `poll` at most until the
//!   armed deadline, accept, read, [`FrameBuffer`] reassembly, flush,
//!   reap — until complete `MonitorFrame` lines are in the plane's inbox,
//!   and hands the machine all of them as one payload. The machine
//!   cannot tell the transport changed, and the report is folded by the
//!   session, which is what makes bit-for-bit parity with the in-process
//!   runner hold by construction;
//! - **between ticks** the drive loop's hook turns the same table for
//!   fleet assembly, tick pacing, storm kicks and the teardown drain.
//!   Nothing sleeps on a guess: every wait is a `poll` whose timeout is
//!   the caller's deadline or the next idle reap.
//!
//! ## Robustness policy
//!
//! - *Slow peers*: the frames a connection holds accepted and not yet
//!   written are capped ([`NetCoordinator::with_queue_cap`]). Overflow
//!   drops the frame and counts a backpressure stall — the monitor then
//!   misses its tick deadline and the existing quarantine/degraded-mode
//!   path takes over. Memory stays bounded no matter how slow a peer is.
//! - *Half-open connections*: sockets silent longer than the idle
//!   timeout are closed; a live agent re-dials and re-handshakes.
//! - *Reconnect storms*: a [`NetFaultPlan`](super::faults::NetFaultPlan)
//!   severs a fraction of agents at storm ticks — their sockets are
//!   closed in place, before that tick's frames are routed; accept +
//!   hello re-registration is O(1) per connection, so a storm is
//!   absorbed without disturbing other connections.

use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

use crate::message::{decode_line, encode_into, ControlFrame, TickSummary};
use crate::runner::{RuntimeReport, TaskRunner};
use crate::session::{self, Hook, Task, TaskSession};
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::faults::NetFaultPlan;
use super::wire::{AgentHello, ServerFrame};

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
    /// Dials the address (blocking connect).
    pub(crate) fn connect(&self) -> std::io::Result<Socket> {
        match self {
            NetAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Socket::Tcp(stream))
            }
            #[cfg(unix)]
            NetAddr::Unix(path) => Ok(Socket::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// A connected stream, TCP or Unix, with uniform socket-option access.
#[derive(Debug)]
pub(crate) enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Socket {
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Socket::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Socket::Unix(s) => s.set_write_timeout(dur),
        }
    }
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

/// Socket-layer totals for one networked run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct NetStats {
    /// Connections accepted (first dials and re-dials).
    pub connections_accepted: u64,
    /// Hellos from an agent id already seen — i.e. reconnects absorbed.
    pub reconnects: u64,
    /// Monitor frames forwarded to the coordinator.
    pub frames_in: u64,
    /// Server frames fully handed to a connection's write batch.
    pub frames_out: u64,
    /// Frames or hellos that failed to parse (connection dropped).
    pub malformed_frames: u64,
    /// Outbound frames dropped because a peer's queue was full.
    pub backpressure_drops: u64,
    /// Outbound frames dropped because no live connection hosted the
    /// destination monitor.
    pub unrouted_drops: u64,
    /// Connections force-closed by the fault plan (reconnect storms).
    pub kicked: u64,
    /// Connections closed for exceeding the idle timeout (half-open
    /// peer protection).
    pub idle_closed: u64,
    /// High-water mark of any single connection's outbound queue.
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
    /// `None` until a valid hello arrives.
    agent: Option<u32>,
    /// Monitors registered by this connection's hello.
    monitors: Vec<u32>,
}

/// A socket-serving coordinator bound to a listener and ready to run.
#[derive(Debug)]
pub struct NetCoordinator {
    /// The task's configuration: spec, obs hub, deadlines, publisher —
    /// no supervisor, since a remote monitor restarts itself.
    runner: TaskRunner,
    /// The bound listener and the (still empty) connection table.
    plane: SocketPlane,
    /// Pause inserted before each tick — zero (default) runs ticks
    /// back-to-back; tests injecting process faults use it to widen the
    /// windows they race against.
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

    /// Caps the frames a connection holds accepted and not yet written.
    /// Overflow drops frames (counted) and lets deadline machinery
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

    /// Frame-size cap (the coordinator's sockets never block, so the
    /// timeouts do not apply to it).
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
        let assemble_by = Instant::now() + self.wait_timeout;
        if plane.turn_until(assemble_by, |lines| lines.seen_count >= self.monitors) {
            return Ok(());
        }
        Err(VolleyError::InvalidConfig {
            parameter: "net",
            reason: format!(
                "fleet incomplete: {}/{} monitors registered within {:?}",
                plane.lines.seen_count, self.monitors, self.wait_timeout
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
            plane.turn_until(Instant::now() + self.tick_interval, |_| false);
        }
    }

    fn after_step(&mut self, _: Tick, _: usize, _: &TickSummary, session: &mut TaskSession<'_>) {
        if self.obs.enabled() {
            let lines = &session.remote().lines;
            self.conn_gauge.set(lines.open as f64);
            self.queue_gauge.set(lines.stats.max_queue_depth as f64);
            let (reconnects, stalls) = self.counted;
            self.reconnects_total
                .add(lines.stats.reconnects - reconnects);
            self.stalls_total
                .add(lines.stats.backpressure_drops - stalls);
            self.counted = (lines.stats.reconnects, lines.stats.backpressure_drops);
        }
    }

    /// Resends Shutdown every 50 ms while connections remain
    /// (reconnecting agents that missed the first copy get another), for
    /// at most 5 s, returning as soon as the last agent drains off. The
    /// totals are read before the session's own parting copy.
    fn stop(&mut self, sessions: &mut [TaskSession<'_>]) {
        let Some(session) = sessions.first_mut() else {
            return;
        };
        let drain_by = Instant::now() + Duration::from_secs(5);
        while session.remote().lines.open > 0 && Instant::now() < drain_by {
            session.broadcast_shutdown();
            let resend_at = (Instant::now() + Duration::from_millis(50)).min(drain_by);
            let plane = session.remote();
            plane.turn_until(resend_at, |lines| lines.open == 0);
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
    /// Binds the listener of a plane for `monitors` monitors, at the
    /// defaults [`NetCoordinator`]'s builders override: 1 024 frames a
    /// queue, 30 s of silence before a reap, the default frame cap and
    /// tick deadline.
    pub(crate) fn bind(addr: &NetAddr, monitors: usize) -> std::io::Result<Self> {
        Ok(SocketPlane {
            tick_deadline: DEFAULT_TICK_DEADLINE,
            armed: Instant::now(),
            reactor: Reactor::new()?,
            table: Table::new(Duration::from_secs(30)),
            lines: LineFrames {
                listener: Listener::bind(addr)?,
                route: vec![None; monitors],
                seen: vec![false; monitors],
                seen_count: 0,
                agents: HashSet::new(),
                open: 0,
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
            let wait = deadline.saturating_duration_since(Instant::now());
            self.turn(wait);
            if wait.is_zero() {
                return done(&self.lines);
            }
        }
    }

    /// Sends `frames` in order: each is encoded straight into the write
    /// batch of the connection hosting its monitor — the cap enforced, a
    /// full queue dropping the frame, not the peer — and every batch
    /// leaves before this returns (what a slow peer does not take stays
    /// for the next passes).
    pub(crate) fn send(&mut self, frames: impl IntoIterator<Item = (u32, ControlFrame)>) {
        let (conns, lines) = (self.table.conns(), &mut self.lines);
        for (to, frame) in frames {
            let slot = lines.route.get(to as usize).copied().flatten();
            let Some(conn) = slot
                .and_then(|slot| conns[slot].as_mut())
                .filter(|conn| conn.is_open())
            else {
                lines.stats.unrouted_drops += 1;
                continue;
            };
            if conn.queued() >= lines.queue_cap {
                lines.stats.backpressure_drops += 1;
                continue;
            }
            conn.stage(|batch| encode_into(&ServerFrame::Ctl { to, frame }, batch));
            lines.stats.frames_out += 1;
            lines.stats.max_queue_depth = lines.stats.max_queue_depth.max(conn.queued() as u64);
        }
        for conn in conns.iter_mut().flatten() {
            if conn.pending_bytes() > 0 {
                conn.flush();
            }
        }
    }

    /// Starts the collection deadline: one tick deadline from now.
    pub(crate) fn arm(&mut self) {
        self.armed = Instant::now() + self.tick_deadline;
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
            if conn.is_open() && conn.state.agent.is_some_and(&severs) {
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
    /// Per-monitor "an agent has ever claimed this monitor" flags and
    /// how many are set, for fleet assembly.
    seen: Vec<bool>,
    seen_count: usize,
    /// Agent ids with at least one hello: another one is a reconnect.
    agents: HashSet<u32>,
    /// Live connection count (teardown waits for 0).
    open: usize,
    /// Monitor frames read and not yet handed to the coordinator
    /// machine, verbatim, one per line.
    inbox: Vec<u8>,
    queue_cap: usize,
    max_frame: usize,
    stats: NetStats,
}

impl LineFrames {
    /// Registers a connection's first line: which agent, which monitors.
    fn hello(&mut self, slot: usize, conn: &mut Conn<Self>, line: &[u8]) {
        let Ok(hello) = decode_line::<AgentHello>(line) else {
            self.stats.malformed_frames += 1;
            conn.close_now();
            return;
        };
        conn.state.agent = Some(hello.agent);
        for &monitor in &hello.monitors {
            if let Some(entry) = self.route.get_mut(monitor as usize) {
                // Later hellos win: a reconnecting agent's new socket
                // takes over its monitors' routes.
                *entry = Some(slot);
                conn.state.monitors.push(monitor);
                if !std::mem::replace(&mut self.seen[monitor as usize], true) {
                    self.seen_count += 1;
                }
            }
        }
        self.stats.reconnects += u64::from(!self.agents.insert(hello.agent));
        // The welcome bypasses the cap — it must reach even a peer whose
        // monitors are backlogged — and is the first line the agent
        // reads: no route led to this connection before its hello.
        conn.stage(|batch| encode_into(&ServerFrame::Welcome { epoch: 0 }, batch));
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
        self.open += 1;
        self.stats.connections_accepted += 1;
        let state = AgentConn {
            frames: FrameBuffer::new(self.max_frame),
            agent: None,
            monitors: Vec::new(),
        };
        Ok((socket, state))
    }

    /// Reassemble; the first line registers, the rest are raw monitor
    /// frames appended verbatim to the inbox — the newline-delimited
    /// payload format the in-process plane hands over.
    fn on_bytes(&mut self, slot: usize, conn: &mut Conn<Self>, bytes: &[u8]) {
        conn.state.frames.extend(bytes);
        // Sized to what arrived, not doubled: the run's largest payload
        // (a reallocation round's reports) sets the heap's high-water mark.
        self.inbox.reserve_exact(conn.state.frames.pending());
        while conn.is_open() {
            match conn.state.frames.next_line() {
                Ok(Some(line)) if conn.state.agent.is_some() => {
                    self.inbox.extend_from_slice(line);
                    self.stats.frames_in += 1;
                }
                Ok(Some(line)) => {
                    let line = line.to_vec();
                    self.hello(slot, conn, &line);
                }
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
        for monitor in conn.state.monitors {
            if self.route[monitor as usize] == Some(slot) {
                self.route[monitor as usize] = None;
            }
        }
        self.stats.idle_closed += u64::from(idle);
        self.open -= 1;
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::thread;

    use super::*;
    use crate::message::{encode, CoordinatorToMonitor, TickData};
    use crate::net::{ctl_line, welcome_line};

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

    fn hello(agent: u32, monitors: &[u32]) -> bytes::Bytes {
        encode(&AgentHello {
            agent,
            monitors: monitors.to_vec(),
            epoch: 0,
        })
    }

    /// Dials `addr` as `agent` hosting `monitors` and turns `plane` until
    /// the hello is answered; the agent's end, its welcome still unread.
    fn dial(
        plane: &mut SocketPlane,
        addr: SocketAddr,
        agent: u32,
        monitors: &[u32],
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

    #[test]
    fn bounded_queue_backpressure_and_unrouted_drops() {
        let (mut plane, addr) = plane(2, 2);
        let mut peer = dial(&mut plane, addr, 0, &[0]);
        let stop = CoordinatorToMonitor::Shutdown;
        let frame = ControlFrame {
            epoch: 0,
            msg: stop,
        };

        // One send, three frames for one connection: the cap takes two,
        // the third is dropped, not queued.
        plane.send([(0, frame), (0, frame), (0, frame)]);
        assert_eq!(plane.stats().backpressure_drops, 1);
        assert_eq!(plane.stats().max_queue_depth, 2);
        // What was accepted left with the send: the queue is free again.
        plane.send([(0, frame)]);
        assert_eq!(plane.stats().backpressure_drops, 1);

        // Monitor 1 has no live connection: the frame is dropped and
        // counted, never buffered.
        plane.send([(1, frame)]);
        assert_eq!(plane.stats().unrouted_drops, 1);

        assert_eq!(line(&mut peer), welcome_line(0).to_vec());
        for _ in 0..3 {
            assert_eq!(line(&mut peer), ctl(0, 0, stop));
        }
        assert_eq!(plane.stats().frames_out, 4);
    }

    /// A peer that stops reading: the kernel's buffers fill, then the
    /// frames accepted and not yet written reach the cap and the rest are
    /// dropped — memory stays bounded; when the peer reads again it gets
    /// every accepted frame, in order, and the queue reopens.
    #[test]
    fn a_stalled_peer_holds_at_most_the_cap_then_catches_up() {
        const CAP: usize = 4;
        let (mut plane, addr) = plane(1, CAP);
        let mut peer = dial(&mut plane, addr, 0, &[0]);
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

    /// A re-dialling agent's new socket takes its monitors' routes over,
    /// and the first line it reads there is the welcome — ahead of every
    /// control frame routed to it.
    #[test]
    fn a_reconnected_agent_reads_its_welcome_first() {
        let (mut plane, addr) = plane(2, 8);
        let poll = |tick| CoordinatorToMonitor::Poll { tick };
        let stamped = |tick| ControlFrame {
            epoch: 3,
            msg: poll(tick),
        };
        let mut first = dial(&mut plane, addr, 7, &[0, 1]);
        plane.send([(0, stamped(1)), (1, stamped(1))]);
        // The agent dials again while its old socket is still open.
        let mut second = dial(&mut plane, addr, 7, &[0, 1]);
        assert_eq!(plane.stats().reconnects, 1);
        plane.send([(1, stamped(2)), (0, stamped(2))]);

        assert_eq!(line(&mut second), welcome_line(0).to_vec());
        assert_eq!(line(&mut second), ctl(1, 3, poll(2)));
        assert_eq!(line(&mut second), ctl(0, 3, poll(2)));
        assert_eq!(line(&mut first), welcome_line(0).to_vec());
        assert_eq!(line(&mut first), ctl(0, 3, poll(1)));
        assert_eq!(line(&mut first), ctl(1, 3, poll(1)));
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
        let mut victim = dial(&mut plane, addr, 0, &[0]);
        let mut bystander = dial(&mut plane, addr, 1, &[1]);
        plane.kick(|agent| agent == 0);
        assert_eq!((plane.stats().kicked, plane.lines.open), (1, 1));
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
                stream.write_all(&hello(agent, &[agent])).unwrap();
                stream
            };
            (0..4).map(dial).collect::<Vec<_>>()
        });
        let began = Instant::now();
        let by = began + Duration::from_secs(10);
        assert!(plane.turn_until(by, |lines| lines.seen_count == 4));
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
