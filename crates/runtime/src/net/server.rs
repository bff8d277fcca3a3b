//! The networked coordinator: one readiness reactor
//! ([`volley_serve::reactor`], `poll(2)` + wake handle) multiplexing
//! every agent socket, beside one remote-plane task session — the same
//! tick driver [`crate::runner::TaskRunner`] runs in-process.
//!
//! ## Architecture
//!
//! Two threads cooperate:
//!
//! 1. the **event loop** ([`reactor::run`] over this module's
//!    line-frame [`Protocol`]) owns the listener and every agent socket
//!    and blocks in `poll` on them. Inbound: raw bytes → [`FrameBuffer`]
//!    reassembly → raw `MonitorFrame` lines forwarded verbatim into the
//!    session's inbox. Outbound: the session's remote plane tags each
//!    control frame `(monitor, frame)`, and the loop routes it by
//!    monitor id to the owning connection's bounded queue, spliced into [`ServerFrame::Ctl`](super::wire::ServerFrame)
//!    envelopes, and written in ~64 KiB batches with partial-write
//!    carry-over. Every such send, storm kick and the stop flag fires
//!    the reactor's waker, so nothing waits out a park; the poll timeout
//!    is only the next idle-reap deadline.
//! 2. the **driver** ([`NetCoordinator::run`]) parks until the loop
//!    reports the fleet assembled, steps the session tick by tick
//!    (storms, pacing and net gauges around each step) and tears both
//!    down. A step sends the tick and then steps the coordinator machine
//!    ([`crate::coordinator::CoordinatorActor`]) right there, pumping
//!    the inbox into it — the machine cannot tell the transport changed,
//!    and the report is folded by the session, which is what makes
//!    bit-for-bit parity with the in-process runner hold by
//!    construction.
//!
//! ## Robustness policy
//!
//! - *Slow peers*: each connection's outbound queue is capped
//!   ([`NetCoordinator::with_queue_cap`]). Overflow drops the frame and
//!   counts a backpressure stall — the monitor then misses its tick
//!   deadline and the existing quarantine/degraded-mode path takes over.
//!   Memory stays bounded no matter how slow a peer is.
//! - *Half-open connections*: sockets silent longer than the idle
//!   timeout are closed; a live agent re-dials and re-handshakes.
//! - *Reconnect storms*: a [`NetFaultPlan`](super::faults::NetFaultPlan)
//!   severs a fraction of agents at storm ticks; accept + hello
//!   re-registration is O(1) per connection, so a storm is absorbed
//!   without disturbing other connections.

use std::collections::HashSet;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;

use volley_core::task::TaskSpec;
use volley_core::VolleyError;
use volley_obs::{names, Obs};
use volley_serve::reactor::{self, Conn, Fd, Flow, Pollable, Protocol, Reactor, Waker};
use volley_serve::ServePublisher;

use crate::message::decode;
use crate::runner::RuntimeReport;
use crate::session::{run_length, MonitorPlane, SessionConfig, TaskSession};
use crate::transport::TransportConfig;

use super::codec::FrameBuffer;
use super::faults::NetFaultPlan;
use super::wire::{ctl_line, welcome_line, AgentHello};

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

/// State shared between the driver and the event loop. Neither side
/// polls the other: the driver fires `waker` after a store the loop
/// must act on, the loop unparks `driver` when `seen_count` or `open`
/// change.
#[derive(Debug)]
struct NetShared {
    waker: Waker,
    /// The thread that runs [`NetCoordinator::run`].
    driver: Thread,
    stop: AtomicBool,
    /// Per-monitor "an agent has ever claimed this monitor" flags, for
    /// fleet-assembly.
    seen: Vec<AtomicBool>,
    seen_count: AtomicUsize,
    /// Live connection count (teardown waits for 0).
    open: AtomicUsize,
    /// Agent ids with at least one hello, for fault targeting.
    agents: Mutex<HashSet<u32>>,
    /// Agent ids whose connections the event loop must sever (storms).
    kick: Mutex<Vec<u32>>,
    /// The loop's counters as of its last pass (it is their only
    /// writer and publishes a copy per pass).
    stats: Mutex<NetStats>,
}

impl NetShared {
    /// Shared state for `n` monitors, driven from the calling thread.
    fn new(n: usize, waker: Waker) -> Self {
        NetShared {
            waker,
            driver: thread::current(),
            stop: AtomicBool::new(false),
            seen: (0..n).map(|_| AtomicBool::new(false)).collect(),
            seen_count: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            agents: Mutex::new(HashSet::new()),
            kick: Mutex::new(Vec::new()),
            stats: Mutex::new(NetStats::default()),
        }
    }

    /// Tells the loop to return.
    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Has the loop sever every connection of these agents.
    fn kick(&self, victims: Vec<u32>) {
        self.kick.lock().expect("kick lock").extend(victims);
        self.waker.wake();
    }

    /// Parks the driver until `done` holds or `deadline` passes; returns
    /// whether it held. `done` may read `seen_count` and `open` only —
    /// the values whose changes unpark the driver.
    fn park_until(&self, deadline: Instant, done: impl Fn(&NetShared) -> bool) -> bool {
        while !done(self) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            thread::park_timeout(deadline - now);
        }
        true
    }

    fn stats(&self) -> NetStats {
        *self.stats.lock().expect("stats lock")
    }
}

/// What the loop knows about one agent connection beyond its socket.
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
    /// The protocol parameters: spec, obs hub, deadlines.
    session: SessionConfig,
    listener: Listener,
    reactor: Reactor,
    queue_cap: usize,
    idle_timeout: Duration,
    /// Sleep inserted before each tick — zero (default) runs ticks
    /// back-to-back; tests injecting process faults use it to widen the
    /// windows they race against.
    tick_interval: Duration,
    wait_timeout: Duration,
    transport: TransportConfig,
    faults: NetFaultPlan,
    serve: Option<ServePublisher>,
}

impl NetCoordinator {
    /// Binds the listener; agents may start dialing immediately (their
    /// hellos are absorbed once [`run`](Self::run) starts the loop).
    ///
    /// # Errors
    ///
    /// [`VolleyError::InvalidConfig`] when the bind fails.
    pub fn bind(spec: TaskSpec, addr: &NetAddr) -> Result<Self, VolleyError> {
        let bound = Listener::bind(addr).and_then(|l| Ok((l, Reactor::new()?)));
        let (listener, reactor) = bound.map_err(|e| VolleyError::InvalidConfig {
            parameter: "net",
            reason: format!("bind {addr}: {e}"),
        })?;
        Ok(NetCoordinator {
            session: SessionConfig::new(spec, Obs::new(false)),
            listener,
            reactor,
            queue_cap: 1024,
            idle_timeout: Duration::from_secs(30),
            tick_interval: Duration::ZERO,
            wait_timeout: Duration::from_secs(30),
            transport: TransportConfig::default(),
            faults: NetFaultPlan::new(0),
            serve: None,
        })
    }

    /// The bound TCP address (for port-0 binds in tests); `None` for
    /// Unix listeners.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr()
    }

    /// Sets how long one collection phase of the coordinator waits for
    /// monitor replies before it closes without them (default
    /// [`DEFAULT_TICK_DEADLINE`](crate::coordinator::DEFAULT_TICK_DEADLINE)).
    pub fn with_tick_deadline(mut self, deadline: Duration) -> Self {
        self.session.tick_deadline = deadline;
        self
    }

    /// Sets consecutive missed deadlines before quarantine.
    pub fn with_quarantine_after(mut self, misses: u32) -> Self {
        self.session.quarantine_after = misses.max(1);
        self
    }

    /// Caps each connection's outbound frame queue. Overflow drops
    /// frames (counted) and lets deadline machinery degrade the peer.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Closes connections silent for this long (half-open protection).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Inserts a sleep before each tick (default zero).
    pub fn with_tick_interval(mut self, interval: Duration) -> Self {
        self.tick_interval = interval;
        self
    }

    /// How long to wait for the full fleet to register before failing.
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Frame-size cap and socket timeouts.
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
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
        self.session.obs = obs.clone();
        self
    }

    /// Attaches a live serving-plane publisher: alert events and the
    /// current tick flow into its bounded ring without ever blocking
    /// the tick loop.
    #[must_use]
    pub fn with_serve_publisher(mut self, publisher: ServePublisher) -> Self {
        self.serve = Some(publisher);
        self
    }

    /// Runs the task over the fleet: waits for every monitor to be
    /// claimed by a connected agent, drives `traces` tick by tick, and
    /// shuts the fleet down.
    ///
    /// # Errors
    ///
    /// [`VolleyError::ValueCountMismatch`] when `traces` does not have
    /// one trace per monitor; [`VolleyError::InvalidConfig`] when the
    /// fleet fails to assemble in time; [`VolleyError::RuntimeDisconnected`]
    /// when the event loop dies mid-run.
    pub fn run(self, traces: &[Vec<f64>]) -> Result<NetRunOutcome, VolleyError> {
        let ticks = run_length(&self.session.spec, traces)?;
        let n = traces.len();
        let obs = &self.session.obs;

        // Plumbing: the session reads monitor frames the event loop
        // forwards and writes tagged control frames the event loop
        // routes; each tagged send wakes the loop.
        let mut reactor = self.reactor;
        let (to_coord, from_monitors) = unbounded::<Bytes>();
        let (net_out_tx, out_rx) = unbounded::<(u32, Bytes)>();
        let mut session = TaskSession::spawn(
            &self.session,
            MonitorPlane::Remote {
                out: net_out_tx,
                waker: reactor.waker(),
                from_monitors,
            },
            None,
        )?;

        // The event loop owns the listener, every socket, and the only
        // sender into the session's inbox.
        let shared = Arc::new(NetShared::new(n, reactor.waker()));
        let mut lines = LineFrames {
            listener: self.listener,
            shared: Arc::clone(&shared),
            out_rx,
            to_coord,
            route: vec![None; n],
            queue_cap: self.queue_cap,
            max_frame: self.transport.max_frame_size,
            stats: NetStats::default(),
        };
        let idle_timeout = self.idle_timeout;
        let loop_handle =
            thread::spawn(move || reactor::run(&mut reactor, &mut lines, idle_timeout));

        let driven = (|| -> Result<(), VolleyError> {
            // Fleet assembly: every monitor must be claimed before tick 0,
            // or the first deadline would instantly degrade the stragglers.
            let assembled = |s: &NetShared| s.seen_count.load(Ordering::Acquire) >= n;
            if !shared.park_until(Instant::now() + self.wait_timeout, assembled) {
                return Err(VolleyError::InvalidConfig {
                    parameter: "net",
                    reason: format!(
                        "fleet incomplete: {}/{n} monitors registered within {:?}",
                        shared.seen_count.load(Ordering::Acquire),
                        self.wait_timeout
                    ),
                });
            }

            let registry = obs.registry();
            let conn_gauge = registry.gauge(names::NET_CONNECTIONS);
            let queue_gauge = registry.gauge(names::NET_QUEUE_DEPTH);
            let reconnects_total = registry.counter(names::NET_RECONNECTS_TOTAL);
            let stalls_total = registry.counter(names::NET_BACKPRESSURE_STALLS_TOTAL);
            let mut obs_reconnects = 0u64;
            let mut obs_stalls = 0u64;

            for tick in 0..ticks {
                if self.faults.storm_at(tick) {
                    let victims: Vec<u32> = {
                        let agents = shared.agents.lock().expect("agents lock");
                        agents
                            .iter()
                            .copied()
                            .filter(|&a| self.faults.severs(tick, a))
                            .collect()
                    };
                    if !victims.is_empty() {
                        shared.kick(victims);
                    }
                }
                if self.tick_interval > Duration::ZERO {
                    // Pacing: nothing ends this wait early.
                    shared.park_until(Instant::now() + self.tick_interval, |_| false);
                }
                // No supervision here: agents restart themselves; the
                // coordinator only re-admits.
                let summary = session.step(tick, |i| traces[i][tick as usize])?;
                if let Some(serve) = &self.serve {
                    if summary.alerted {
                        serve.alert(summary.tick, summary.degraded);
                    }
                    serve.set_tick(tick);
                }
                if obs.enabled() {
                    let stats = shared.stats();
                    conn_gauge.set(shared.open.load(Ordering::Relaxed) as f64);
                    queue_gauge.set(stats.max_queue_depth as f64);
                    reconnects_total.add(stats.reconnects - obs_reconnects);
                    obs_reconnects = stats.reconnects;
                    stalls_total.add(stats.backpressure_drops - obs_stalls);
                    obs_stalls = stats.backpressure_drops;
                }
            }
            Ok(())
        })();

        // Teardown: resend Shutdown every 50 ms while connections remain
        // (reconnecting agents that missed the first copy get another),
        // for at most 5 s; the loop unparks us as each agent drains off.
        // Then stop the loop and finish the session.
        let drained = |s: &NetShared| s.open.load(Ordering::Acquire) == 0;
        let drain_by = Instant::now() + Duration::from_secs(5);
        while !drained(&shared) && Instant::now() < drain_by {
            session.broadcast_shutdown();
            let resend_at = Instant::now() + Duration::from_millis(50);
            shared.park_until(resend_at.min(drain_by), drained);
        }
        shared.stop();
        loop_handle.join().expect("event loop exits cleanly");
        let report = session.finish();
        driven.map(|()| NetRunOutcome {
            report,
            net: shared.stats(),
        })
    }
}

/// The agent plane as the reactor sees it: newline-framed
/// [`super::wire`] messages, routed by monitor id.
struct LineFrames {
    listener: Listener,
    shared: Arc<NetShared>,
    /// The coordinator's tagged control frames, to route.
    out_rx: Receiver<(u32, Bytes)>,
    /// The coordinator's inbox.
    to_coord: Sender<Bytes>,
    /// Monitor id → table slot of the connection hosting it.
    route: Vec<Option<usize>>,
    queue_cap: usize,
    max_frame: usize,
    stats: NetStats,
}

impl LineFrames {
    /// Routes one outbound `(monitor, frame)` into the owning
    /// connection's queue, enforcing the cap: a full queue drops the
    /// frame, not the peer.
    fn route_frame(&mut self, conns: &mut [Option<Conn<Self>>], monitor: u32, frame: &Bytes) {
        let slot = self.route.get(monitor as usize).copied().flatten();
        let Some(conn) = slot
            .and_then(|slot| conns[slot].as_mut())
            .filter(|conn| conn.is_open())
        else {
            self.stats.unrouted_drops += 1;
            return;
        };
        if conn.queued() >= self.queue_cap {
            self.stats.backpressure_drops += 1;
            return;
        }
        conn.push(ctl_line(monitor, frame));
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(conn.queued() as u64);
    }

    /// Registers a connection's first line: which agent, which monitors.
    fn hello(&mut self, slot: usize, conn: &mut Conn<Self>, line: &Bytes) {
        let shared = &self.shared;
        let Ok(hello) = decode::<AgentHello>(line) else {
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
                if !shared.seen[monitor as usize].swap(true, Ordering::AcqRel) {
                    shared.seen_count.fetch_add(1, Ordering::AcqRel);
                    shared.driver.unpark();
                }
            }
        }
        let known = !shared
            .agents
            .lock()
            .expect("agents lock")
            .insert(hello.agent);
        self.stats.reconnects += u64::from(known);
        // The welcome bypasses the cap: it must reach even a
        // briefly-backlogged reconnecting peer.
        conn.push_front(welcome_line(0));
    }
}

impl Protocol for LineFrames {
    type Stream = Socket;
    type Frame = Bytes;
    type State = AgentConn;

    fn listener(&self) -> Fd {
        self.listener.fd()
    }

    fn accept(&mut self) -> std::io::Result<(Socket, AgentConn)> {
        let socket = self.listener.accept()?;
        self.shared.open.fetch_add(1, Ordering::AcqRel);
        self.stats.connections_accepted += 1;
        let state = AgentConn {
            frames: FrameBuffer::new(self.max_frame),
            agent: None,
            monitors: Vec::new(),
        };
        Ok((socket, state))
    }

    /// Reassemble; the first line registers, the rest are raw monitor
    /// frames forwarded verbatim — every complete line of this chunk as
    /// one newline-delimited payload, the format a monitor host sends.
    fn on_bytes(&mut self, slot: usize, conn: &mut Conn<Self>, bytes: &[u8]) {
        conn.state.frames.extend(bytes);
        let mut payload: Vec<u8> = Vec::with_capacity(conn.state.frames.pending());
        let mut lines = 0u64;
        while conn.is_open() {
            match conn.state.frames.next_line() {
                Ok(Some(line)) if conn.state.agent.is_some() => {
                    payload.extend_from_slice(line);
                    lines += 1;
                }
                Ok(Some(line)) => {
                    let line = Bytes::copy_from_slice(line);
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
        // A failed send means the coordinator is gone: only during teardown.
        if lines > 0 && self.to_coord.send(Bytes::from(payload)).is_ok() {
            self.stats.frames_in += lines;
        }
    }

    /// What the driver published since the last pass: the stop flag,
    /// stormed agents to sever, coordinator traffic to route.
    fn turn(&mut self, conns: &mut [Option<Conn<Self>>]) -> Flow {
        *self.shared.stats.lock().expect("stats lock") = self.stats;
        if self.shared.stop.load(Ordering::Acquire) {
            return Flow::Stop; // the listener's drop unlinks a Unix socket path
        }
        for victim in self.shared.kick.lock().expect("kick lock").drain(..) {
            for conn in conns.iter_mut().flatten() {
                if conn.state.agent == Some(victim) && conn.is_open() {
                    conn.close_now();
                    self.stats.kicked += 1;
                }
            }
        }
        while let Ok((monitor, frame)) = self.out_rx.try_recv() {
            self.route_frame(conns, monitor, &frame);
        }
        Flow::Run
    }

    fn flushed(&mut self, frames: usize) {
        self.stats.frames_out += frames as u64;
    }

    /// Frees the connection's routes and tells the driver.
    fn on_close(&mut self, slot: usize, conn: Conn<Self>, idle: bool) {
        for monitor in conn.state.monitors {
            if self.route[monitor as usize] == Some(slot) {
                self.route[monitor as usize] = None;
            }
        }
        self.stats.idle_closed += u64::from(idle);
        self.shared.open.fetch_sub(1, Ordering::AcqRel);
        self.shared.driver.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> TaskSpec {
        TaskSpec::builder(100.0 * n as f64)
            .monitors(n)
            .error_allowance(0.01)
            .build()
            .unwrap()
    }

    /// A connected loopback pair: `(dialing side, accepted side)`.
    fn tcp_pair(listener: &Listener) -> (TcpStream, Socket) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = loop {
            match listener.accept() {
                Ok(socket) => break socket,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        (client, accepted)
    }

    /// A line-frame protocol over a fresh loopback listener, plus the
    /// far ends of its two channels.
    fn line_frames(
        monitors: usize,
        queue_cap: usize,
        waker: Waker,
    ) -> (LineFrames, Sender<(u32, Bytes)>, Receiver<Bytes>) {
        let (to_coord, from_monitors) = unbounded::<Bytes>();
        let (out_tx, out_rx) = unbounded::<(u32, Bytes)>();
        let lines = LineFrames {
            listener: Listener::bind(&NetAddr::Tcp("127.0.0.1:0".into())).unwrap(),
            shared: Arc::new(NetShared::new(monitors, waker)),
            out_rx,
            to_coord,
            route: vec![None; monitors],
            queue_cap,
            max_frame: 1024,
            stats: NetStats::default(),
        };
        (lines, out_tx, from_monitors)
    }

    #[test]
    fn accepted_tcp_connections_have_nagle_off() {
        let listener = Listener::bind(&NetAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let (_client, accepted) = tcp_pair(&listener);
        let Socket::Tcp(stream) = accepted else {
            panic!("a TCP listener accepts TCP sockets");
        };
        assert!(stream.nodelay().unwrap(), "TCP_NODELAY set on accept");
    }

    #[test]
    fn bounded_queue_backpressure_and_unrouted_drops() {
        // A real connected pair so the Conn has a live socket; no bytes
        // ever flow — this exercises the routing layer only.
        let reactor = Reactor::new().unwrap();
        let (mut lines, _out_tx, _from_monitors) = line_frames(2, 2, reactor.waker());
        let (_client, server) = tcp_pair(&lines.listener);
        let state = AgentConn {
            frames: FrameBuffer::new(1024),
            agent: Some(0),
            monitors: vec![0],
        };
        let mut conns = vec![Some(Conn::new(server, state))];
        lines.route = vec![Some(0usize), None];
        let frame = Bytes::from_static(b"{\"epoch\":0,\"msg\":\"Shutdown\"}\n");

        lines.route_frame(&mut conns, 0, &frame);
        lines.route_frame(&mut conns, 0, &frame);
        // Cap reached: the third frame must be dropped, not queued.
        lines.route_frame(&mut conns, 0, &frame);
        assert_eq!(lines.stats.backpressure_drops, 1);
        assert_eq!(lines.stats.max_queue_depth, 2);
        assert_eq!(conns[0].as_ref().unwrap().queued(), 2);

        // Monitor 1 has no live connection: the frame is dropped and
        // counted, never buffered.
        lines.route_frame(&mut conns, 1, &frame);
        assert_eq!(lines.stats.unrouted_drops, 1);
    }

    /// The loop blocks in `poll`: with no agent, no traffic and a 30 s
    /// idle horizon it must not wake at all (it woke ~300 times in
    /// 300 ms while it parked 1 ms at a time), yet `stop` ends it at once.
    #[test]
    fn an_idle_event_loop_does_not_wake() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let (mut lines, _out_tx, _from_monitors) = line_frames(1, 8, reactor.waker());
        let shared = Arc::clone(&lines.shared);
        let handle =
            thread::spawn(move || reactor::run(&mut reactor, &mut lines, Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(300));
        let wakeups = waker.wakeups();
        let stopping = Instant::now();
        shared.stop();
        handle.join().unwrap();
        assert!(wakeups <= 10, "idle loop woke {wakeups} times in 300 ms");
        assert!(
            stopping.elapsed() < Duration::from_millis(100),
            "stop interrupts the wait"
        );
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
