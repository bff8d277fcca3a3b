//! The networked coordinator: a readiness-driven nonblocking event loop
//! multiplexing every agent socket, beside one remote-plane task session
//! — the same tick driver [`crate::runner::TaskRunner`] runs in-process.
//!
//! ## Architecture
//!
//! Three threads cooperate:
//!
//! 1. the **coordinator actor** ([`crate::coordinator::CoordinatorActor`])
//!    runs unmodified — it still reads one inbound channel and writes
//!    per-monitor [`MonitorLink`](crate::link::MonitorLink)s; it cannot
//!    tell the transport changed.
//! 2. the **event loop** (this module) owns the listener and every agent
//!    socket. Inbound: raw bytes → [`FrameBuffer`] reassembly → raw
//!    `MonitorFrame` lines forwarded verbatim into the coordinator's
//!    inbox. Outbound: the coordinator's tagged link traffic is routed by
//!    monitor id to the owning connection's bounded queue, spliced into
//!    [`ServerFrame::Ctl`](super::wire::ServerFrame) envelopes, and
//!    written in ~64 KiB batches with partial-write carry-over.
//! 3. the **driver** ([`NetCoordinator::run`]) waits for the fleet to
//!    assemble, steps the session tick by tick (storms, pacing and
//!    net gauges around each step) and tears both down. The report is
//!    folded by the session, which is what makes bit-for-bit parity with
//!    the in-process runner hold by construction.
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
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use serde::Serialize;

use volley_core::task::TaskSpec;
use volley_core::VolleyError;
use volley_obs::{names, Obs};
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
    pub(crate) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Socket::Unix(s) => s.set_nonblocking(on),
        }
    }

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

    fn accept(&self) -> std::io::Result<Socket> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Socket::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Socket::Unix(s)),
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

/// State shared between the driver and the event loop.
#[derive(Debug)]
struct NetShared {
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
    connections_accepted: AtomicU64,
    reconnects: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    malformed_frames: AtomicU64,
    backpressure_drops: AtomicU64,
    unrouted_drops: AtomicU64,
    kicked: AtomicU64,
    idle_closed: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl NetShared {
    fn new(n: usize) -> Self {
        NetShared {
            stop: AtomicBool::new(false),
            seen: (0..n).map(|_| AtomicBool::new(false)).collect(),
            seen_count: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            agents: Mutex::new(HashSet::new()),
            kick: Mutex::new(Vec::new()),
            connections_accepted: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            backpressure_drops: AtomicU64::new(0),
            unrouted_drops: AtomicU64::new(0),
            kicked: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            backpressure_drops: self.backpressure_drops.load(Ordering::Relaxed),
            unrouted_drops: self.unrouted_drops.load(Ordering::Relaxed),
            kicked: self.kicked.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// One agent connection's state machine.
struct Conn {
    socket: Socket,
    frames: FrameBuffer,
    /// `None` until a valid hello arrives.
    agent: Option<u32>,
    /// Monitors registered by this connection's hello.
    monitors: Vec<u32>,
    /// Bounded outbound frame queue (capped at `queue_cap`).
    outq: std::collections::VecDeque<Bytes>,
    /// Current write batch and how much of it is already on the wire.
    wbuf: Vec<u8>,
    wpos: usize,
    last_read: Instant,
    closed: bool,
}

/// How big a write batch grows before it must drain (bytes).
const WRITE_BATCH: usize = 64 * 1024;
/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// A socket-serving coordinator bound to a listener and ready to run.
#[derive(Debug)]
pub struct NetCoordinator {
    /// The protocol parameters: spec, obs hub, deadlines.
    session: SessionConfig,
    listener: Listener,
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
        let listener = Listener::bind(addr).map_err(|e| VolleyError::InvalidConfig {
            parameter: "net",
            reason: format!("bind {addr}: {e}"),
        })?;
        Ok(NetCoordinator {
            session: SessionConfig::new(spec, Obs::new(false)),
            listener,
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

    /// Sets how long the coordinator waits for tick reports before
    /// degrading (see
    /// [`CoordinatorActor::with_tick_deadline`](crate::coordinator::CoordinatorActor::with_tick_deadline)).
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
    /// when the coordinator actor dies mid-run.
    pub fn run(self, traces: &[Vec<f64>]) -> Result<NetRunOutcome, VolleyError> {
        let ticks = run_length(&self.session.spec, traces)?;
        let n = traces.len();
        let obs = &self.session.obs;

        // Plumbing: the session's coordinator reads monitor frames the
        // event loop forwards and writes tagged control frames the event
        // loop routes.
        let (to_coord_tx, from_monitors) = unbounded::<Bytes>();
        let (net_out_tx, net_out_rx) = unbounded::<(u32, Bytes)>();
        let mut session = TaskSession::spawn(
            &self.session,
            MonitorPlane::Remote {
                out: net_out_tx,
                from_monitors,
            },
            None,
        )?;

        // The event loop owns the listener, every socket, and the only
        // sender into the coordinator's inbox.
        let shared = Arc::new(NetShared::new(n));
        let loop_shared = Arc::clone(&shared);
        let listener = self.listener;
        let queue_cap = self.queue_cap;
        let idle_timeout = self.idle_timeout;
        let max_frame = self.transport.max_frame_size;
        let loop_handle = thread::spawn(move || {
            event_loop(
                listener,
                &loop_shared,
                &net_out_rx,
                &to_coord_tx,
                queue_cap,
                idle_timeout,
                max_frame,
            );
        });

        let driven = (|| -> Result<(), VolleyError> {
            // Fleet assembly: every monitor must be claimed before tick 0,
            // or the first deadline would instantly degrade the stragglers.
            let assemble_by = Instant::now() + self.wait_timeout;
            while shared.seen_count.load(Ordering::Acquire) < n {
                if Instant::now() > assemble_by {
                    return Err(VolleyError::InvalidConfig {
                        parameter: "net",
                        reason: format!(
                            "fleet incomplete: {}/{n} monitors registered within {:?}",
                            shared.seen_count.load(Ordering::Acquire),
                            self.wait_timeout
                        ),
                    });
                }
                thread::sleep(Duration::from_millis(2));
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
                        shared.kick.lock().expect("kick lock").extend(victims);
                    }
                }
                if self.tick_interval > Duration::ZERO {
                    thread::sleep(self.tick_interval);
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

        // Teardown: keep resending Shutdown until every agent drains off
        // (reconnecting agents that missed the first copy get another),
        // then stop the loop — dropping the coordinator inbox sender —
        // and finish the session.
        let drain_by = Instant::now() + Duration::from_secs(5);
        while shared.open.load(Ordering::Acquire) > 0 && Instant::now() < drain_by {
            session.broadcast_shutdown();
            thread::sleep(Duration::from_millis(50));
        }
        shared.stop.store(true, Ordering::Release);
        loop_handle.join().expect("event loop exits cleanly");
        let report = session.finish();
        driven.map(|()| NetRunOutcome {
            report,
            net: shared.stats(),
        })
    }
}

/// Routes one outbound `(monitor, frame)` into the owning connection's
/// queue, enforcing the cap.
fn route_frame(
    conns: &mut [Option<Conn>],
    route: &[Option<usize>],
    shared: &NetShared,
    queue_cap: usize,
    monitor: u32,
    frame: &Bytes,
) {
    let Some(slot) = route.get(monitor as usize).copied().flatten() else {
        shared.unrouted_drops.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let Some(conn) = conns[slot].as_mut() else {
        shared.unrouted_drops.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if conn.closed {
        shared.unrouted_drops.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if conn.outq.len() >= queue_cap {
        shared.backpressure_drops.fetch_add(1, Ordering::Relaxed);
        return;
    }
    conn.outq.push_back(ctl_line(monitor, frame));
    shared
        .max_queue_depth
        .fetch_max(conn.outq.len() as u64, Ordering::Relaxed);
}

/// The event loop: accept, read/reassemble/forward, route, batch-write,
/// enforce liveness — all nonblocking, single-threaded.
#[allow(clippy::too_many_lines)]
fn event_loop(
    listener: Listener,
    shared: &NetShared,
    net_out_rx: &Receiver<(u32, Bytes)>,
    to_coord: &Sender<Bytes>,
    queue_cap: usize,
    idle_timeout: Duration,
    max_frame: usize,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut route: Vec<Option<usize>> = vec![None; shared.seen.len()];
    let mut chunk = vec![0u8; READ_CHUNK];

    while !shared.stop.load(Ordering::Acquire) {
        let mut progress = false;

        // 1. Sever stormed agents.
        {
            let victims: Vec<u32> = shared.kick.lock().expect("kick lock").drain(..).collect();
            for victim in victims {
                for conn in conns.iter_mut().flatten() {
                    if conn.agent == Some(victim) && !conn.closed {
                        conn.closed = true;
                        shared.kicked.fetch_add(1, Ordering::Relaxed);
                        progress = true;
                    }
                }
            }
        }

        // 2. Route coordinator traffic to per-connection queues.
        while let Ok((monitor, frame)) = net_out_rx.try_recv() {
            route_frame(&mut conns, &route, shared, queue_cap, monitor, &frame);
            progress = true;
        }

        // 3. Accept new connections.
        loop {
            match listener.accept() {
                Ok(socket) => {
                    if socket.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let conn = Conn {
                        socket,
                        frames: FrameBuffer::new(max_frame),
                        agent: None,
                        monitors: Vec::new(),
                        outq: std::collections::VecDeque::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_read: Instant::now(),
                        closed: false,
                    };
                    let slot = conns.iter().position(Option::is_none);
                    match slot {
                        Some(slot) => conns[slot] = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                    shared.open.fetch_add(1, Ordering::AcqRel);
                    shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    progress = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }

        // 4. Read, reassemble, register/forward.
        let now = Instant::now();
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            if conn.closed {
                continue;
            }
            loop {
                match conn.socket.read(&mut chunk) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(k) => {
                        conn.frames.extend(&chunk[..k]);
                        conn.last_read = now;
                        progress = true;
                        if k < chunk.len() {
                            break; // kernel buffer drained
                        }
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            loop {
                let line = match conn.frames.next_frame() {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    Err(_) => {
                        // Oversized frame: protocol violation, drop peer.
                        shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                        conn.closed = true;
                        break;
                    }
                };
                if conn.agent.is_none() {
                    // First line must be the hello.
                    let Ok(hello) = decode::<AgentHello>(&line) else {
                        shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                        conn.closed = true;
                        break;
                    };
                    conn.agent = Some(hello.agent);
                    for &monitor in &hello.monitors {
                        if let Some(entry) = route.get_mut(monitor as usize) {
                            // Later hellos win: a reconnecting agent's new
                            // socket takes over its monitors' routes.
                            *entry = Some(slot);
                            conn.monitors.push(monitor);
                            if !shared.seen[monitor as usize].swap(true, Ordering::AcqRel) {
                                shared.seen_count.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    }
                    let known = {
                        let mut agents = shared.agents.lock().expect("agents lock");
                        !agents.insert(hello.agent)
                    };
                    if known {
                        shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    // The welcome bypasses the cap: it must reach even a
                    // briefly-backlogged reconnecting peer.
                    conn.outq.push_front(welcome_line(0));
                } else {
                    // Post-hello: raw monitor frames, forwarded verbatim.
                    if to_coord.send(line).is_err() {
                        // Coordinator gone: only during teardown.
                        break;
                    }
                    shared.frames_in.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 5. Batched writes with partial-write carry-over.
        for conn in conns.iter_mut().flatten() {
            if conn.closed {
                continue;
            }
            loop {
                if conn.wpos == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    while conn.wbuf.len() < WRITE_BATCH {
                        let Some(frame) = conn.outq.pop_front() else {
                            break;
                        };
                        conn.wbuf.extend_from_slice(&frame);
                        shared.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                    if conn.wbuf.is_empty() {
                        break; // nothing to send
                    }
                }
                match conn.socket.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(k) => {
                        conn.wpos += k;
                        progress = true;
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
        }

        // 6. Liveness: close half-open peers.
        if idle_timeout > Duration::ZERO {
            for conn in conns.iter_mut().flatten() {
                if !conn.closed && now.duration_since(conn.last_read) > idle_timeout {
                    conn.closed = true;
                    shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 7. Reap closed connections and their routes.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let reap = entry.as_ref().is_some_and(|c| c.closed);
            if reap {
                let conn = entry.take().expect("checked");
                for monitor in conn.monitors {
                    if route[monitor as usize] == Some(slot) {
                        route[monitor as usize] = None;
                    }
                }
                shared.open.fetch_sub(1, Ordering::AcqRel);
                progress = true;
            }
        }

        // 8. Idle: park briefly on the outbound channel instead of
        // spinning; a routed frame wakes the loop immediately.
        if !progress {
            match net_out_rx.recv_timeout(Duration::from_millis(1)) {
                Ok((monitor, frame)) => {
                    route_frame(&mut conns, &route, shared, queue_cap, monitor, &frame);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    // Listener drop unlinks a Unix socket path.
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

    #[test]
    fn bounded_queue_backpressure_and_unrouted_drops() {
        use std::collections::VecDeque;

        // A real connected pair so the Conn has a live socket; no bytes
        // ever flow — this exercises the routing layer only.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let shared = NetShared::new(2);
        let mut conns = vec![Some(Conn {
            socket: Socket::Tcp(server),
            frames: FrameBuffer::new(1024),
            agent: Some(0),
            monitors: vec![0],
            outq: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_read: Instant::now(),
            closed: false,
        })];
        let route = vec![Some(0usize), None];
        let frame = Bytes::from_static(b"{\"epoch\":0,\"msg\":\"Shutdown\"}\n");

        route_frame(&mut conns, &route, &shared, 2, 0, &frame);
        route_frame(&mut conns, &route, &shared, 2, 0, &frame);
        // Cap reached: the third frame must be dropped, not queued.
        route_frame(&mut conns, &route, &shared, 2, 0, &frame);
        assert_eq!(shared.stats().backpressure_drops, 1);
        assert_eq!(shared.stats().max_queue_depth, 2);
        assert_eq!(conns[0].as_ref().unwrap().outq.len(), 2);

        // Monitor 1 has no live connection: the frame is dropped and
        // counted, never buffered.
        route_frame(&mut conns, &route, &shared, 2, 1, &frame);
        assert_eq!(shared.stats().unrouted_drops, 1);
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
