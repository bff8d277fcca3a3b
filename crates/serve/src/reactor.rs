//! The one readiness reactor under both socket planes
//! (`runtime::net::server`'s agents and [`crate::server`]'s HTTP).
//!
//! Three layers, bottom up:
//!
//! - [`Reactor::wait`]: block until one of a set of descriptors is
//!   ready, a [`Waker`] fires, or a deadline passes — `poll(2)` through
//!   the thin shim in `sys` on Unix; elsewhere a bounded sleep that
//!   reports everything ready (the loops' sockets are nonblocking, so a
//!   false "ready" costs one `WouldBlock`).
//! - [`Waker`]: how other threads interrupt the wait. Protocol: a
//!   producer publishes its item (channel send, flag store), then
//!   **sets the flag → writes one byte** only if it found the flag
//!   clear; the reactor **drains the byte → clears the flag**, and only
//!   then does the loop drain the producers' channels. An item published
//!   before the clear is seen by that drain; one published after finds
//!   the flag clear and writes a fresh byte. So no wakeup is lost, the
//!   socket pair never holds more than one byte, and a 256-frame
//!   broadcast costs a wake per loop pass it spans, not 256.
//! - [`Table`]: the connection table both planes used to spell by hand
//!   — slot reuse, read-chunk → [`Protocol::on_bytes`], one write batch
//!   per connection that frames are appended (or encoded straight) into
//!   and that leaves with partial-write carry-over, close-after-write,
//!   idle reaping — parameterised by [`Protocol`] (line frames for
//!   agents, HTTP for the serving plane) and stepped one pass at a time
//!   by [`Table::step`]. The agent plane's owner steps it on its own
//!   thread, between the frames it stages; [`run`] is the loop over the
//!   same step for a plane served on a thread of its own (HTTP). Caps
//!   stay protocol policy: the net plane drops a *frame* at a full
//!   queue, the HTTP plane drops the *client*.
//!
//! A step blocks on {listener, every socket for read, sockets with
//! pending bytes for write, the waker}; its timeout is the caller's cap
//! or the next idle-reap deadline, whichever is sooner. An idle loop
//! does not wake.

use std::io::{self, ErrorKind, Read, Write};
#[cfg(unix)]
use std::os::unix::{io::AsRawFd, net::UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// The portable fallback's park: what both loops slept before `poll`.
const FALLBACK_PARK: Duration = Duration::from_millis(1);

/// The workspace's only FFI: `poll(2)`.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`, identical on every Unix.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// Waits up to `timeout_ms` (negative: forever) for an event on
    /// `fds`, filling each `revents`.
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<()> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs laid out as `struct pollfd`; the kernel reads and
        // writes exactly `fds.len()` of them and keeps no pointer past
        // the call. Descriptors need not be open: a closed or negative
        // one is reported in `revents` / skipped, never dereferenced.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

/// A raw descriptor as `poll` takes it; negative ones are skipped.
pub type Fd = i32;

/// Something the reactor can wait on.
pub trait Pollable {
    /// The descriptor to poll.
    fn fd(&self) -> Fd;
}

#[cfg(unix)]
impl<T: AsRawFd> Pollable for T {
    fn fd(&self) -> Fd {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> Pollable for T {
    fn fd(&self) -> Fd {
        -1 // the fallback wait never looks at it
    }
}

/// One descriptor and what to wait for on it.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// The descriptor (negative: a placeholder that is never ready).
    pub fd: Fd,
    /// Wake when readable (or closed, or failed).
    pub read: bool,
    /// Wake when writable. Register only while bytes are pending: an
    /// idle socket is always writable and would spin the loop.
    pub write: bool,
}

/// What [`Reactor::wait`] found on one [`Interest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ready {
    /// Readable, at end of stream, or failed — a read will not block.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

#[derive(Debug)]
struct WakerInner {
    /// A wake is already on its way to the reactor.
    armed: AtomicBool,
    /// Times the owning reactor returned from a wait.
    wakeups: AtomicU64,
    #[cfg(unix)]
    tx: UnixStream,
}

/// Interrupts the owning [`Reactor`]'s wait from any thread. Cheap to
/// clone; wakes coalesce until the reactor has taken one.
#[derive(Debug, Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Makes the reactor's current (or next) wait return. Call *after*
    /// publishing whatever the loop should find.
    pub fn wake(&self) {
        // SeqCst on both sides of the flag: the producer's publish must
        // be visible to the drain that follows the reactor's clear.
        if !self.inner.armed.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            let _ = (&self.inner.tx).write(&[1]); // full or closed: a byte is pending or nobody waits
        }
    }

    /// How many times the owning reactor has returned from a wait — the
    /// loops' idle cost, read by tests and diagnostics.
    pub fn wakeups(&self) -> u64 {
        self.inner.wakeups.load(Ordering::Relaxed)
    }
}

/// The readiness wait plus the receiving end of its [`Waker`]s.
#[derive(Debug)]
pub struct Reactor {
    waker: Waker,
    #[cfg(unix)]
    rx: UnixStream,
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl Reactor {
    /// Creates a reactor and its wake channel.
    ///
    /// # Errors
    ///
    /// Propagates the socket-pair failure (descriptor exhaustion).
    pub fn new() -> io::Result<Reactor> {
        #[cfg(unix)]
        let (tx, rx) = UnixStream::pair()?;
        #[cfg(unix)]
        for end in [&tx, &rx] {
            end.set_nonblocking(true)?;
        }
        let inner = Arc::new(WakerInner {
            armed: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            #[cfg(unix)]
            tx,
        });
        Ok(Reactor {
            waker: Waker { inner },
            #[cfg(unix)]
            rx,
            #[cfg(unix)]
            fds: Vec::new(),
        })
    }

    /// A handle that interrupts this reactor's waits.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Blocks until an interest is ready, a [`Waker`] fires or `timeout`
    /// passes (`None`: no deadline), then fills `ready` with one entry
    /// per interest. A wake is consumed here, flag cleared — the caller
    /// drains its producers *after* this returns.
    pub fn wait(
        &mut self,
        interests: &[Interest],
        timeout: Option<Duration>,
        ready: &mut Vec<Ready>,
    ) {
        ready.clear();
        if !self.poll(interests, timeout, ready) {
            // No usable poll: the bounded sleep both loops used to idle
            // on, then let the caller try every socket.
            std::thread::sleep(timeout.map_or(FALLBACK_PARK, |t| t.min(FALLBACK_PARK)));
            ready.resize(
                interests.len(),
                Ready {
                    read: true,
                    write: true,
                },
            );
            self.disarm();
        }
        self.waker.inner.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(unix))]
    fn poll(&mut self, _: &[Interest], _: Option<Duration>, _: &mut Vec<Ready>) -> bool {
        false
    }

    /// The real wait; `false` when `poll` itself failed.
    #[cfg(unix)]
    fn poll(
        &mut self,
        interests: &[Interest],
        timeout: Option<Duration>,
        ready: &mut Vec<Ready>,
    ) -> bool {
        let pollfd = |fd, read: bool, write: bool| sys::PollFd {
            fd,
            events: (i16::from(read) * sys::POLLIN) | (i16::from(write) * sys::POLLOUT),
            revents: 0,
        };
        self.fds.clear();
        self.fds.push(pollfd(self.rx.as_raw_fd(), true, false));
        self.fds
            .extend(interests.iter().map(|i| pollfd(i.fd, i.read, i.write)));
        // Rounded up, so a sub-millisecond remainder is waited out
        // instead of spun on.
        let timeout_ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        match sys::poll_fds(&mut self.fds, timeout_ms) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                ready.resize(interests.len(), Ready::default());
                return true;
            }
            Err(_) => return false,
        }
        // Hang-up, error and invalid-descriptor bits count as readable:
        // the read that follows reports them and closes the connection.
        ready.extend(self.fds[1..].iter().map(|p| Ready {
            read: p.revents & !sys::POLLOUT != 0,
            write: p.revents & sys::POLLOUT != 0,
        }));
        if self.fds[0].revents != 0 {
            self.disarm();
        }
        true
    }

    /// Takes the pending wake: drain the byte, then clear the flag.
    fn disarm(&mut self) {
        // One read: a byte is written only by whoever found the flag
        // clear, so the pair never holds more than one.
        #[cfg(unix)]
        let _ = (&self.rx).read(&mut [0u8; 8]);
        self.waker.inner.armed.store(false, Ordering::SeqCst);
    }
}

/// What the loop does after a protocol turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Run,
    /// Stop accepting and reading; keep writing while any client makes
    /// progress, then return (a stalled client does not pin shutdown).
    Drain,
    /// Return now.
    Stop,
}

/// What a plane plugs into a [`Table`]: its listener, its
/// per-connection state and what bytes mean.
pub trait Protocol: Sized {
    /// The accepted stream type.
    type Stream: Read + Write + Pollable;
    /// Per-connection protocol state (reassembly buffer, identity).
    type State;

    /// The listening descriptor.
    fn listener(&self) -> Fd;

    /// Accepts one pending connection, already nonblocking;
    /// `WouldBlock` when none is left.
    ///
    /// # Errors
    ///
    /// Any accept or socket-option failure; the loop retries on the
    /// next pass.
    fn accept(&mut self) -> io::Result<(Self::Stream, Self::State)>;

    /// `bytes` arrived on `conn` (table slot `slot`).
    fn on_bytes(&mut self, slot: usize, conn: &mut Conn<Self>, bytes: &[u8]);

    /// Runs once per pass, after reads and before writes. A plane served
    /// by [`run`] on a thread of its own drains here the channels and
    /// flags other threads publish to (each publish fires the
    /// [`Waker`]), queues what they produced and enforces its caps; a
    /// plane whose owner steps the table itself acts between steps and
    /// keeps this default.
    fn turn(&mut self, _conns: &mut [Option<Conn<Self>>]) -> Flow {
        Flow::Run
    }

    /// Whether `conn` is exempt from idle reaping right now.
    fn idle_exempt(&self, _conn: &Conn<Self>) -> bool {
        false
    }

    /// `conn` left the table (`idle`: reaped for silence).
    fn on_close(&mut self, slot: usize, conn: Conn<Self>, idle: bool);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    Open,
    AfterWrite,
    Now,
}

/// One connection slot: the stream, the protocol's state and the write
/// batch — every frame accepted and not yet on the wire, back to back.
pub struct Conn<P: Protocol> {
    stream: P::Stream,
    /// The protocol's per-connection state.
    pub state: P::State,
    /// The write batch and how much of it is already on the wire.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Frames in `wbuf`.
    frames: usize,
    last_read: Instant,
    close: Close,
}

impl<P: Protocol> Conn<P> {
    /// A fresh connection with nothing queued.
    pub fn new(stream: P::Stream, state: P::State) -> Self {
        Conn {
            stream,
            state,
            wbuf: Vec::new(),
            wpos: 0,
            frames: 0,
            last_read: Instant::now(),
            close: Close::Open,
        }
    }

    /// Queues one frame behind everything already queued.
    pub fn push(&mut self, frame: impl AsRef<[u8]>) {
        self.stage(1, |batch| batch.extend_from_slice(frame.as_ref()));
    }

    /// Queues what `encode` appends to the write batch, counted as
    /// `frames` frames — for senders that encode in place instead of
    /// building a frame first, and whose bytes may carry many frames.
    pub fn stage(&mut self, frames: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.wbuf);
        self.frames += frames;
    }

    /// Frames accepted and not yet written, as [`stage`](Self::stage)
    /// counted them; a frame leaves the count once the batch it travels
    /// in is on the wire.
    pub fn queued(&self) -> usize {
        self.frames
    }

    /// Bytes accepted but not yet on the wire.
    pub fn pending_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the connection still reads and accepts frames.
    pub fn is_open(&self) -> bool {
        self.close == Close::Open
    }

    /// Stops reading; closes once everything queued is written.
    pub fn close_after_write(&mut self) {
        if self.close == Close::Open {
            self.close = Close::AfterWrite;
        }
    }

    /// Closes at the end of the pass (the next one, when called between
    /// steps), dropping what is queued.
    pub fn close_now(&mut self) {
        self.close = Close::Now;
    }

    /// Reads until the kernel buffer drains, handing each chunk to the
    /// protocol; whether any byte arrived.
    fn fill(&mut self, proto: &mut P, slot: usize, chunk: &mut [u8], now: Instant) -> bool {
        let mut progress = false;
        while self.is_open() {
            match self.stream.read(chunk) {
                Ok(0) => self.close_now(),
                Ok(k) => {
                    self.last_read = now;
                    progress = true;
                    proto.on_bytes(slot, self, &chunk[..k]);
                    if k < chunk.len() {
                        break; // kernel buffer drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.close_now(),
            }
        }
        progress
    }

    /// Writes the batch until it is gone or the socket would block — one
    /// `write` when the kernel takes it whole; whether any byte left. A
    /// [`Table::step`] flushes every backlogged connection; an owner that
    /// stages frames between steps calls this to send them at once.
    pub fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.close != Close::Now && self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => self.close_now(),
                Ok(k) => {
                    self.wpos += k;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.close_now(),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            (self.wpos, self.frames) = (0, 0);
        } else if self.wpos > self.wbuf.len() / 2 {
            // A backlogged peer: drop the written half, so the batch is
            // bounded by what pends, not by the connection's lifetime.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        progress
    }
}

/// The connection table of one listener: slot reuse, the read chunk and
/// the poll set, stepped one pass at a time.
pub struct Table<P: Protocol> {
    conns: Vec<Option<Conn<P>>>,
    interests: Vec<Interest>,
    ready: Vec<Ready>,
    chunk: Vec<u8>,
    idle_timeout: Duration,
    flow: Flow,
}

impl<P: Protocol> Table<P> {
    /// An empty table reaping connections silent for longer than
    /// `idle_timeout` (zero disables reaping).
    pub fn new(idle_timeout: Duration) -> Self {
        Table {
            conns: Vec::new(),
            interests: Vec::new(),
            ready: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
            idle_timeout,
            flow: Flow::Run,
        }
    }

    /// The slots, for an owner that queues, flushes or closes between
    /// steps. A closed connection keeps its slot until the next step.
    pub fn conns(&mut self) -> &mut [Option<Conn<P>>] {
        &mut self.conns
    }

    /// One pass: wait (at most `cap`, and never past the next idle reap)
    /// on the listener, every open socket for read and backlogged
    /// sockets for write → accept → read → [`Protocol::turn`] → flush →
    /// reap. Returns whether to step again: `false` once a turn said
    /// [`Flow::Stop`] or a [`Flow::Drain`] ran dry.
    pub fn step(&mut self, reactor: &mut Reactor, proto: &mut P, cap: Option<Duration>) -> bool {
        let running = self.flow == Flow::Run;
        let idle_timeout = self.idle_timeout;
        let reaps =
            |proto: &P, conn: &Conn<P>| idle_timeout > Duration::ZERO && !proto.idle_exempt(conn);
        // A connection closed since the last step is reaped by this one,
        // not by whichever one the wait happens to end for.
        let mut closing = false;
        let mut reap_at: Option<Instant> = None;
        self.interests.clear();
        self.interests.push(Interest {
            fd: proto.listener(),
            read: running,
            write: false,
        });
        for entry in &self.conns {
            // An empty slot keeps its index: `poll` skips negative fds.
            let mut interest = Interest {
                fd: -1,
                read: false,
                write: false,
            };
            if let Some(conn) = entry {
                interest = Interest {
                    fd: conn.stream.fd(),
                    read: conn.is_open(),
                    write: conn.pending_bytes() > 0,
                };
                closing |= conn.close == Close::Now;
                if reaps(proto, conn) {
                    let at = conn.last_read + idle_timeout;
                    reap_at = Some(reap_at.map_or(at, |first| first.min(at)));
                }
            }
            self.interests.push(interest);
        }
        let timeout = if running && !closing {
            let reap_in = reap_at.map(|at| at.saturating_duration_since(Instant::now()));
            [cap, reap_in].into_iter().flatten().min()
        } else {
            Some(Duration::ZERO)
        };
        reactor.wait(&self.interests, timeout, &mut self.ready);
        let now = Instant::now();
        let mut progress = false;

        if running && self.ready[0].read {
            // Anything but a fresh connection (no more pending, or a
            // failure) ends the batch; the listener stays registered.
            while let Ok((stream, state)) = proto.accept() {
                let conn = Some(Conn::new(stream, state));
                match self.conns.iter().position(Option::is_none) {
                    Some(slot) => self.conns[slot] = conn,
                    None => self.conns.push(conn),
                }
            }
        }
        for (slot, entry) in self.conns.iter_mut().enumerate() {
            if let Some(conn) = entry {
                if self.ready.get(slot + 1).is_some_and(|r| r.read) {
                    progress |= conn.fill(proto, slot, &mut self.chunk, now);
                }
            }
        }
        self.flow = proto.turn(&mut self.conns);
        if self.flow == Flow::Stop {
            return false;
        }
        for (slot, entry) in self.conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            if conn.pending_bytes() > 0 {
                progress |= conn.flush();
            }
            let idle = conn.is_open()
                && reaps(proto, conn)
                && now.duration_since(conn.last_read) > idle_timeout;
            let done = match conn.close {
                Close::Open => idle,
                Close::AfterWrite => conn.pending_bytes() == 0,
                Close::Now => true,
            };
            if done {
                proto.on_close(slot, entry.take().expect("checked above"), idle);
            }
        }
        self.flow == Flow::Run || (progress && self.conns.iter().any(Option::is_some))
    }
}

/// Serves `proto` on `reactor` — a [`Table`] stepped with no cap on its
/// wait — until a [`Protocol::turn`] says [`Flow::Stop`] or a
/// [`Flow::Drain`] runs dry. Connections silent for longer than
/// `idle_timeout` are reaped (zero disables reaping).
pub fn run<P: Protocol>(reactor: &mut Reactor, proto: &mut P, idle_timeout: Duration) {
    let mut table = Table::new(idle_timeout);
    while table.step(reactor, proto, None) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::path::Path;
    use std::sync::mpsc;
    use std::thread;

    const LONG: Option<Duration> = Some(Duration::from_secs(10));

    fn listener() -> TcpListener {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        listener
    }

    fn read_interest(source: &impl Pollable) -> Interest {
        Interest {
            fd: source.fd(),
            read: true,
            write: false,
        }
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_long_wait() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let (go, gone) = mpsc::channel::<()>();
        let sender = thread::spawn(move || {
            gone.recv().unwrap();
            let woke_at = Instant::now();
            waker.wake();
            woke_at
        });
        go.send(()).unwrap();
        reactor.wait(&[], LONG, &mut Vec::new());
        let returned = Instant::now();
        let woke_at = sender.join().unwrap();
        assert!(returned.saturating_duration_since(woke_at) < Duration::from_millis(50));
        // The wake was consumed: the next wait runs into its deadline.
        let began = Instant::now();
        reactor.wait(&[], Some(Duration::from_millis(30)), &mut Vec::new());
        assert!(began.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn a_pending_accept_and_a_readable_socket_each_end_the_wait() {
        let mut reactor = Reactor::new().unwrap();
        let listener = listener();
        let addr = listener.local_addr().unwrap();
        let (go, gone) = mpsc::channel::<()>();
        let client = thread::spawn(move || {
            gone.recv().unwrap();
            let mut stream = TcpStream::connect(addr).unwrap();
            gone.recv().unwrap();
            stream.write_all(b"x").unwrap();
            stream
        });
        let mut ready = Vec::new();
        let began = Instant::now();
        go.send(()).unwrap();
        reactor.wait(&[read_interest(&listener)], LONG, &mut ready);
        assert!(ready[0].read, "a pending accept is readable");
        let (accepted, _) = listener.accept().unwrap();

        go.send(()).unwrap();
        let interests = [read_interest(&listener), read_interest(&accepted)];
        reactor.wait(&interests, LONG, &mut ready);
        assert_eq!((ready[0].read, ready[1].read), (false, true));
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "neither wait timed out"
        );
        drop(client.join().unwrap());
    }

    #[test]
    fn an_idle_socket_is_writable_only_to_those_who_ask() {
        let mut reactor = Reactor::new().unwrap();
        let listener = listener();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        let mut ready = Vec::new();
        let mut interest = read_interest(&accepted);
        let began = Instant::now();
        reactor.wait(&[interest], Some(Duration::from_millis(50)), &mut ready);
        assert_eq!(ready[0], Ready::default());
        assert!(
            began.elapsed() >= Duration::from_millis(50),
            "waited it out"
        );
        interest.write = true;
        reactor.wait(&[interest], LONG, &mut ready);
        assert!(ready[0].write);
    }

    /// Senders race the loop's drain-byte → clear-flag → drain-channel
    /// sequence from four threads. A lost wakeup parks the loop for its
    /// whole 10 s timeout.
    #[test]
    fn no_wakeup_is_lost_under_racing_senders() {
        const SENDERS: u64 = 4;
        const EACH: u64 = 10_000;
        let mut reactor = Reactor::new().unwrap();
        let (tx, rx) = mpsc::channel::<u64>();
        let began = Instant::now();
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let (tx, waker) = (tx.clone(), reactor.waker());
                thread::spawn(move || {
                    for i in 0..EACH {
                        tx.send(s * EACH + i).unwrap();
                        waker.wake();
                    }
                })
            })
            .collect();
        let (mut sum, mut received) = (0u64, 0u64);
        while received < SENDERS * EACH {
            reactor.wait(&[], LONG, &mut Vec::new());
            for item in rx.try_iter() {
                sum += item;
                received += 1;
            }
        }
        senders.into_iter().for_each(|s| s.join().unwrap());
        let n = SENDERS * EACH;
        assert_eq!(sum, n * (n - 1) / 2, "every item delivered exactly once");
        assert!(
            began.elapsed() < Duration::from_secs(2),
            "no wait timed out"
        );
    }

    /// Echoes every chunk back; stops when told to.
    struct Echo {
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        closed: mpsc::Sender<bool>,
    }

    impl Protocol for Echo {
        type Stream = TcpStream;
        type State = ();

        fn listener(&self) -> Fd {
            self.listener.fd()
        }

        fn accept(&mut self) -> io::Result<(TcpStream, ())> {
            let (stream, _) = self.listener.accept()?;
            stream.set_nonblocking(true)?;
            Ok((stream, ()))
        }

        fn on_bytes(&mut self, _slot: usize, conn: &mut Conn<Self>, bytes: &[u8]) {
            conn.push(bytes);
        }

        fn turn(&mut self, _conns: &mut [Option<Conn<Self>>]) -> Flow {
            if self.stop.load(Ordering::Acquire) {
                Flow::Stop
            } else {
                Flow::Run
            }
        }

        fn on_close(&mut self, _slot: usize, _conn: Conn<Self>, idle: bool) {
            let _ = self.closed.send(idle);
        }
    }

    /// An echo protocol nobody has told to stop, and where its closes
    /// are reported.
    fn echo() -> (Echo, mpsc::Receiver<bool>) {
        let (closed, closes) = mpsc::channel();
        let echo = Echo {
            listener: listener(),
            stop: Arc::new(AtomicBool::new(false)),
            closed,
        };
        (echo, closes)
    }

    /// An echo loop on its own thread: `(address, waker, stop, closes, join)`.
    #[allow(clippy::type_complexity)]
    fn echo_loop(
        idle_timeout: Duration,
    ) -> (
        std::net::SocketAddr,
        Waker,
        Arc<AtomicBool>,
        mpsc::Receiver<bool>,
        thread::JoinHandle<()>,
    ) {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let (mut echo, closes) = echo();
        let stop = Arc::clone(&echo.stop);
        let addr = echo.listener.local_addr().unwrap();
        let join = thread::spawn(move || run(&mut reactor, &mut echo, idle_timeout));
        (addr, waker, stop, closes, join)
    }

    #[test]
    fn the_loop_echoes_carries_partial_writes_over_and_then_sleeps() {
        let (addr, waker, stop, _closes, join) = echo_loop(Duration::from_secs(30));
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"ping").unwrap();
        let mut pong = [0u8; 4];
        client.read_exact(&mut pong).unwrap();
        assert_eq!(&pong, b"ping");

        // 4 MiB the client does not read until all of it is sent: the
        // echo backs up past any socket buffer, the loop carries partial
        // writes over and keeps write interest only while bytes pend.
        let sent: Vec<u8> = (0..4 << 20).map(|i| (i % 251) as u8).collect();
        let mut writer = client.try_clone().unwrap();
        let payload = sent.clone();
        let writing = thread::spawn(move || writer.write_all(&payload).unwrap());
        let mut echoed = vec![0u8; sent.len()];
        writing.join().unwrap();
        client.read_exact(&mut echoed).unwrap();
        assert!(echoed == sent, "the echo arrives intact and in order");

        // Drained: the connected, always-writable socket must not spin.
        let before = waker.wakeups();
        thread::sleep(Duration::from_millis(200));
        let spun = waker.wakeups() - before;
        assert!(spun <= 5, "idle loop woke {spun} times in 200 ms");

        stop.store(true, Ordering::Release);
        waker.wake();
        join.join().unwrap();
    }

    #[test]
    fn silent_connections_are_reaped_on_the_idle_deadline() {
        let (addr, waker, stop, closes, join) = echo_loop(Duration::from_millis(60));
        let mut client = TcpStream::connect(addr).unwrap();
        let began = Instant::now();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0, "the server hung up");
        assert!(began.elapsed() >= Duration::from_millis(60));
        assert!(closes.recv().unwrap(), "closed as idle");
        // The deadline is a poll timeout, not a polling cadence.
        assert!(waker.wakeups() <= 10, "woke {} times", waker.wakeups());
        stop.store(true, Ordering::Release);
        waker.wake();
        join.join().unwrap();
    }

    /// The step's wait: a cap is waited out — rounded up to the
    /// millisecond, never cut short — in one wait; without a cap it ends
    /// at the next idle reap; and a connection its owner closed between
    /// steps is reaped at once, whatever the wait could have been.
    #[test]
    fn a_step_waits_for_its_cap_or_else_the_next_reap() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let (mut echo, closes) = echo();
        let mut table = Table::new(Duration::from_millis(80));
        let cap = Duration::from_micros(20_300);
        let began = Instant::now();
        assert!(table.step(&mut reactor, &mut echo, Some(cap)));
        assert!(
            began.elapsed() >= cap,
            "woke {:?} early",
            cap - began.elapsed()
        );
        assert_eq!(waker.wakeups(), 1, "one wait, not a polling cadence");

        let addr = echo.listener.local_addr().unwrap();
        let _silent = TcpStream::connect(addr).unwrap();
        assert!(table.step(&mut reactor, &mut echo, None), "the accept");
        let accepted = Instant::now();
        let idle = loop {
            assert!(table.step(&mut reactor, &mut echo, None));
            if let Ok(idle) = closes.try_recv() {
                break idle;
            }
        };
        assert!(idle, "closed as idle");
        assert!(accepted.elapsed() >= Duration::from_millis(70));
        assert!(waker.wakeups() <= 5, "a deadline, not a cadence");

        let _kicked = TcpStream::connect(addr).unwrap();
        let mut uncapped = Table::new(Duration::ZERO);
        assert!(uncapped.step(&mut reactor, &mut echo, None), "the accept");
        uncapped.conns()[0].as_mut().unwrap().close_now();
        assert!(uncapped.step(&mut reactor, &mut echo, None));
        assert!(!closes.try_recv().unwrap(), "closed, and not for silence");
    }

    /// A stream that takes every write whole and keeps them apart.
    #[derive(Default)]
    struct Sink {
        writes: Vec<Vec<u8>>,
    }

    impl Read for Sink {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[cfg(unix)]
    impl AsRawFd for Sink {
        fn as_raw_fd(&self) -> Fd {
            -1
        }
    }

    /// A plane of sinks: nothing to accept, nothing to read.
    struct Sinks;

    impl Protocol for Sinks {
        type Stream = Sink;
        type State = ();

        fn listener(&self) -> Fd {
            -1
        }

        fn accept(&mut self) -> io::Result<(Sink, ())> {
            Err(ErrorKind::WouldBlock.into())
        }

        fn on_bytes(&mut self, _slot: usize, _conn: &mut Conn<Self>, _bytes: &[u8]) {}

        fn on_close(&mut self, _slot: usize, _conn: Conn<Self>, _idle: bool) {}
    }

    /// Frames pushed whole and frames encoded in place share one batch,
    /// leave back to back in one `write`, and stop counting as queued; a
    /// staged line counts as the frames its sender says it carries.
    #[test]
    fn staged_frames_leave_in_order_in_one_write() {
        let mut conn: Conn<Sinks> = Conn::new(Sink::default(), ());
        conn.push(b"one\n");
        conn.stage(3, |batch| batch.extend_from_slice(b"two\n"));
        conn.push("three\n");
        assert_eq!((conn.queued(), conn.pending_bytes()), (5, 14));
        assert!(conn.flush(), "bytes left");
        assert_eq!(conn.stream.writes, [b"one\ntwo\nthree\n".to_vec()]);
        assert_eq!((conn.queued(), conn.pending_bytes()), (0, 0));
        assert!(!conn.flush(), "nothing left to write");
        assert_eq!(conn.stream.writes.len(), 1);
    }

    /// Non-test source of one file: everything before its test module.
    fn non_test_source(path: &Path) -> String {
        let text = std::fs::read_to_string(path).expect("readable source");
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text[..end].to_string()
    }

    /// Every `.rs` file under `dir`, skipping build output, the frozen
    /// `benchmark/` crate and dot-directories.
    fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "benchmark") {
                    rust_files(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }

    /// The drift guard: both socket planes wait in this reactor — neither
    /// parks on a sleep or a timed channel receive — over one connection
    /// table ([`run`] is the loop over the step the agent plane's owner
    /// calls; accept, read, write and reap are spelled once), and the
    /// workspace's one FFI site stays one.
    #[test]
    fn both_planes_step_one_table_and_ffi_stays_in_one_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, entry) in [
            ("crates/runtime/src/net/server.rs", ".step("),
            ("crates/serve/src/server.rs", "reactor::run("),
        ] {
            let source = non_test_source(&root.join(file));
            for park in ["thread::sleep", "recv_timeout("] {
                assert!(!source.contains(park), "{file} parks on `{park}`");
            }
            assert!(source.contains(entry), "{file} left the reactor");
        }
        let table = non_test_source(&root.join("crates/serve/src/reactor.rs"));
        let run = &table[table.find("pub fn run<").expect("`run` exists")..];
        assert!(run.contains("table.step("), "`run` grew its own loop body");
        for once in [
            "proto.accept()",
            "stream.read(",
            "stream.write(",
            "proto.on_close(",
        ] {
            assert_eq!(table.matches(once).count(), 1, "`{once}` is spelled once");
        }
        let mut files = Vec::new();
        rust_files(&root, &mut files);
        let ffi: Vec<_> = files
            .iter()
            .filter(|f| std::fs::read_to_string(f).unwrap().contains("extern \"C\""))
            .collect();
        assert_eq!(ffi.len(), 1, "FFI outside reactor.rs: {ffi:?}");
        assert!(ffi[0].ends_with("crates/serve/src/reactor.rs"));
    }
}
