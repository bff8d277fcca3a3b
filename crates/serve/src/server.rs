//! The listener, event loop and endpoint dispatch.
//!
//! Same shape as `runtime::net::server`: one nonblocking
//! readiness-driven loop over a slot-reused connection table, bounded
//! per-connection buffers in both directions, batched writes, idle
//! reaping, and slow clients dropped instead of waited on. The loop
//! runs on its own thread; the runtime's only contact is the
//! [`ServePublisher`] handed back in the [`ServerHandle`].

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Serialize;
use volley_obs::{names, Obs};
use volley_store::{QueryParams, RecordKind, Store};

use crate::events::{EventRing, ServePublisher, DEFAULT_STREAM_BUFFER};
use crate::http::{self, HttpError, Request, RequestParser, DEFAULT_MAX_REQUEST_BYTES};
use crate::wire;

/// Most bytes written to one connection per loop pass (batched writes,
/// same constant family as the net layer).
const WRITE_BATCH: usize = 64 * 1024;

/// Read chunk size per pass.
const READ_CHUNK: usize = 16 * 1024;

/// Default cap on one page of query results.
pub const DEFAULT_PAGE_LIMIT: usize = 4096;

/// Default bound on one connection's outbound buffer; a subscriber
/// that falls further behind than this is a slow client and is
/// dropped, like a net peer overflowing its frame queue.
const DEFAULT_WRITE_CAP: usize = 256 * 1024;

/// Default idle reap horizon for non-streaming connections.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:9464` (`:0` picks a free port).
    pub addr: String,
    /// Store directory served by `/api/v1/query` (`None` disables the
    /// endpoint with `503`). The string is echoed verbatim in query
    /// reports, so spell it the way `volley store query` would.
    pub store_dir: Option<String>,
    /// Cap on one request head, terminator included.
    pub max_request_bytes: usize,
    /// Idle reap horizon for non-streaming connections.
    pub idle_timeout: Duration,
    /// Broadcast ring capacity, in events.
    pub stream_buffer: usize,
    /// Hard cap on one page of query results (`limit` is clamped).
    pub page_limit: usize,
    /// Bound on one connection's outbound buffer before it is dropped
    /// as a slow client.
    pub write_cap: usize,
}

impl ServeConfig {
    /// A configuration with defaults, listening on `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            store_dir: None,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            stream_buffer: DEFAULT_STREAM_BUFFER,
            page_limit: DEFAULT_PAGE_LIMIT,
            write_cap: DEFAULT_WRITE_CAP,
        }
    }

    /// Serves `/api/v1/query` from `dir`.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<String>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }
}

/// Counters the event loop accumulates and returns at shutdown.
#[derive(Debug, Default, Clone, Serialize)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// `/metrics` scrapes served.
    pub metrics_requests: u64,
    /// `/api/v1/query` pages served.
    pub query_requests: u64,
    /// `/api/v1/alerts/stream` subscriptions opened.
    pub stream_requests: u64,
    /// Requests for unknown paths or non-GET methods.
    pub other_requests: u64,
    /// Malformed or oversized requests rejected.
    pub bad_requests: u64,
    /// Stream events subscribers missed to ring overflow.
    pub stream_lag_drops: u64,
    /// Connections dropped for draining slower than their write cap.
    pub slow_client_drops: u64,
}

/// Obs instruments the loop records into (pre-resolved handles; the
/// registry lookup is the cold path).
struct Instruments {
    connections: volley_obs::Gauge,
    metrics_requests: volley_obs::Counter,
    query_requests: volley_obs::Counter,
    stream_requests: volley_obs::Counter,
    other_requests: volley_obs::Counter,
    bad_requests: volley_obs::Counter,
    stream_lag_drops: volley_obs::Counter,
    slow_client_drops: volley_obs::Counter,
    request_ns: volley_obs::Histogram,
}

impl Instruments {
    fn new(obs: &Obs) -> Self {
        let registry = obs.registry();
        Instruments {
            connections: registry.gauge(names::SERVE_CONNECTIONS),
            metrics_requests: registry.counter(names::SERVE_REQUESTS_METRICS_TOTAL),
            query_requests: registry.counter(names::SERVE_REQUESTS_QUERY_TOTAL),
            stream_requests: registry.counter(names::SERVE_REQUESTS_STREAM_TOTAL),
            other_requests: registry.counter(names::SERVE_REQUESTS_OTHER_TOTAL),
            bad_requests: registry.counter(names::SERVE_BAD_REQUESTS_TOTAL),
            stream_lag_drops: registry.counter(names::SERVE_STREAM_LAG_DROPS_TOTAL),
            slow_client_drops: registry.counter(names::SERVE_SLOW_CLIENT_DROPS_TOTAL),
            request_ns: registry.histogram(names::SERVE_REQUEST_NS),
        }
    }
}

/// One connection slot.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Outbound bytes not yet written; `out[written..]` is pending.
    out: Vec<u8>,
    written: usize,
    /// Whether this connection holds an open alert stream.
    streaming: bool,
    /// Next ring sequence this subscriber wants.
    stream_cursor: u64,
    /// Close once the outbound buffer drains.
    close_after_write: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, max_request_bytes: usize) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(max_request_bytes),
            out: Vec::new(),
            written: 0,
            streaming: false,
            stream_cursor: 0,
            close_after_write: false,
            last_activity: Instant::now(),
        }
    }

    fn queue(&mut self, bytes: &[u8]) {
        // Compact the written prefix before growing, same bound as the
        // parser buffer: pending data, not connection lifetime.
        if self.written > 0 {
            self.out.drain(..self.written);
            self.written = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.written
    }
}

/// The embedded HTTP server.
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the event loop. The bind happens
    /// on the caller's thread so address errors surface immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServeConfig, obs: &Obs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let ring = EventRing::new(config.stream_buffer);
        let publisher = ServePublisher::new(ring);
        let stop = Arc::new(AtomicBool::new(false));
        let loop_publisher = publisher.clone();
        let loop_stop = Arc::clone(&stop);
        let loop_obs = obs.clone();
        let join = thread::Builder::new()
            .name("volley-serve".to_string())
            .spawn(move || event_loop(listener, config, loop_obs, loop_publisher, loop_stop))
            .expect("spawning the serve thread never fails");
        Ok(ServerHandle {
            local_addr,
            publisher,
            stop,
            join: Some(join),
        })
    }
}

/// Handle to a running server: the publisher to feed, the bound
/// address, and shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    publisher: ServePublisher,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<ServeStats>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The publisher feeding this server's stream and `/metrics` tick.
    pub fn publisher(&self) -> ServePublisher {
        self.publisher.clone()
    }

    /// Stops the event loop: open streams get their final chunk,
    /// buffers drain best-effort, and the loop's stats come back.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop.store(true, Ordering::Relaxed);
        match self.join.take() {
            Some(join) => join.join().unwrap_or_default(),
            None => ServeStats::default(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The readiness-driven loop: accept, read/parse/dispatch, pump
/// streams, write in batches, reap, park 1ms when nothing progressed.
fn event_loop(
    listener: TcpListener,
    config: ServeConfig,
    obs: Obs,
    publisher: ServePublisher,
    stop: Arc<AtomicBool>,
) -> ServeStats {
    let instruments = Instruments::new(&obs);
    let mut stats = ServeStats::default();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut read_buf = [0u8; READ_CHUNK];
    let mut stopping = false;
    loop {
        let mut progress = false;

        if !stopping && stop.load(Ordering::Relaxed) {
            // Graceful: terminate open streams, then drain what's
            // buffered below and exit.
            stopping = true;
            for conn in conns.iter_mut().flatten() {
                if conn.streaming {
                    let (_, _, lines) = publisher.ring().collect_since(conn.stream_cursor);
                    for line in &lines {
                        let mut payload = line.as_bytes().to_vec();
                        payload.push(b'\n');
                        conn.queue(&http::chunk(&payload));
                    }
                    conn.queue(&http::final_chunk());
                }
                conn.close_after_write = true;
            }
        }

        // Accept phase.
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        stats.connections += 1;
                        let conn = Conn::new(stream, config.max_request_bytes);
                        match conns.iter().position(Option::is_none) {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        for slot in conns.iter_mut() {
            let Some(conn) = slot.as_mut() else { continue };
            let mut drop_conn = false;

            // Read + parse + dispatch phase.
            if !conn.close_after_write {
                loop {
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            drop_conn = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.last_activity = Instant::now();
                            conn.parser.extend(&read_buf[..n]);
                            loop {
                                match conn.parser.next_request() {
                                    Ok(Some(request)) => {
                                        let started = Instant::now();
                                        dispatch(
                                            &request,
                                            conn,
                                            &config,
                                            &obs,
                                            &publisher,
                                            &instruments,
                                            &mut stats,
                                        );
                                        instruments
                                            .request_ns
                                            .record(started.elapsed().as_nanos() as u64);
                                    }
                                    Ok(None) => break,
                                    Err(error) => {
                                        stats.bad_requests += 1;
                                        instruments.bad_requests.inc();
                                        let body = format!("{error}\n");
                                        let status = match error {
                                            HttpError::HeadTooLarge { .. } => {
                                                (431, "Request Header Fields Too Large")
                                            }
                                            _ => (400, "Bad Request"),
                                        };
                                        conn.queue(&http::response(
                                            status.0,
                                            status.1,
                                            "text/plain; charset=utf-8",
                                            body.as_bytes(),
                                        ));
                                        conn.close_after_write = true;
                                        break;
                                    }
                                }
                            }
                            if conn.close_after_write {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            drop_conn = true;
                            break;
                        }
                    }
                }
            }

            // Stream pump phase: frame any events published since the
            // subscriber's cursor.
            if !drop_conn && conn.streaming && !stopping {
                let (next, lagged, lines) = publisher.ring().collect_since(conn.stream_cursor);
                if lagged > 0 {
                    stats.stream_lag_drops += lagged;
                    instruments.stream_lag_drops.add(lagged);
                }
                if !lines.is_empty() {
                    progress = true;
                    conn.last_activity = Instant::now();
                    for line in &lines {
                        let mut payload = line.as_bytes().to_vec();
                        payload.push(b'\n');
                        conn.queue(&http::chunk(&payload));
                    }
                }
                conn.stream_cursor = next;
            }

            // A client that lets its outbound buffer blow the cap is
            // slow; cut it loose rather than buffer unboundedly.
            if !drop_conn && conn.pending_out() > config.write_cap {
                stats.slow_client_drops += 1;
                instruments.slow_client_drops.inc();
                drop_conn = true;
            }

            // Write phase, batched.
            if !drop_conn && conn.pending_out() > 0 {
                let mut budget = WRITE_BATCH;
                while budget > 0 && conn.pending_out() > 0 {
                    let end = (conn.written + budget.min(conn.pending_out())).min(conn.out.len());
                    match conn.stream.write(&conn.out[conn.written..end]) {
                        Ok(0) => {
                            drop_conn = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.written += n;
                            budget = budget.saturating_sub(n);
                            conn.last_activity = Instant::now();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            drop_conn = true;
                            break;
                        }
                    }
                }
                if conn.pending_out() == 0 {
                    conn.out.clear();
                    conn.written = 0;
                }
            }

            // Close/reap phase.
            if !drop_conn && conn.close_after_write && conn.pending_out() == 0 {
                drop_conn = true;
            }
            if !drop_conn
                && !conn.streaming
                && conn.pending_out() == 0
                && conn.last_activity.elapsed() > config.idle_timeout
            {
                drop_conn = true;
            }
            if drop_conn {
                *slot = None;
            }
        }

        let open = conns.iter().filter(|slot| slot.is_some()).count();
        instruments.connections.set(open as f64);
        if stopping && (open == 0 || !progress) {
            // Stopping: exit once buffers drained or no client is
            // making progress (a stalled client doesn't pin shutdown).
            instruments.connections.set(0.0);
            return stats;
        }
        if !progress {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Routes one parsed request, queuing the response (or the stream
/// head) on the connection.
fn dispatch(
    request: &Request,
    conn: &mut Conn,
    config: &ServeConfig,
    obs: &Obs,
    publisher: &ServePublisher,
    instruments: &Instruments,
    stats: &mut ServeStats,
) {
    if request.close {
        conn.close_after_write = true;
    }
    if request.method != "GET" {
        stats.other_requests += 1;
        instruments.other_requests.inc();
        conn.queue(&http::response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            b"only GET is served\n",
        ));
        return;
    }
    match request.path.as_str() {
        "/metrics" => {
            stats.metrics_requests += 1;
            instruments.metrics_requests.inc();
            let body = obs.snapshot(publisher.tick()).to_prometheus();
            conn.queue(&http::response(
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            ));
        }
        "/api/v1/query" => {
            stats.query_requests += 1;
            instruments.query_requests.inc();
            let response = query_endpoint(request, config);
            conn.queue(&response);
        }
        "/api/v1/alerts/stream" => {
            stats.stream_requests += 1;
            instruments.stream_requests.inc();
            conn.queue(&http::chunked_head(200, "OK", "application/x-ndjson"));
            conn.streaming = true;
            // Cursor 0: replay whatever history the ring retains, so
            // alerts raised before this subscriber arrived still show.
            conn.stream_cursor = 0;
        }
        _ => {
            stats.other_requests += 1;
            instruments.other_requests.inc();
            conn.queue(&http::response(
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                b"unknown path\n",
            ));
        }
    }
}

/// Parses one `u64`-ish query parameter.
fn parse_param<T: std::str::FromStr>(request: &Request, name: &str) -> Result<Option<T>, String> {
    match request.param(name) {
        None | Some("") => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("bad {name} `{raw}`")),
    }
}

/// Builds the `/api/v1/query` response: params → [`QueryParams`] →
/// shared query module → shared envelope. Byte-identical to
/// `volley store query --report-json` for the same range.
fn query_endpoint(request: &Request, config: &ServeConfig) -> Vec<u8> {
    let Some(dir) = config.store_dir.as_deref() else {
        return http::response(
            503,
            "Service Unavailable",
            "text/plain; charset=utf-8",
            b"no store attached to this server\n",
        );
    };
    let bad = |reason: String| {
        http::response(
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            format!("{reason}\n").as_bytes(),
        )
    };
    let kind = match request.param("kind") {
        None | Some("") => None,
        Some(raw) => match RecordKind::parse(raw) {
            Some(kind) => Some(kind),
            None => return bad(format!("bad kind `{raw}`")),
        },
    };
    let params = QueryParams {
        task: match parse_param(request, "task") {
            Ok(v) => v,
            Err(e) => return bad(e),
        },
        monitor: match parse_param(request, "monitor") {
            Ok(v) => v,
            Err(e) => return bad(e),
        },
        kind,
        from: match parse_param(request, "from") {
            Ok(v) => v.unwrap_or(0),
            Err(e) => return bad(e),
        },
        to: match parse_param(request, "to") {
            Ok(v) => v.unwrap_or(u64::MAX),
            Err(e) => return bad(e),
        },
        limit: match parse_param::<usize>(request, "limit") {
            Ok(v) => Some(v.unwrap_or(config.page_limit).min(config.page_limit)),
            Err(e) => return bad(e),
        },
        cursor: match parse_param(request, "cursor") {
            Ok(v) => v.unwrap_or(0),
            Err(e) => return bad(e),
        },
    };
    let store = match Store::open(dir) {
        Ok(store) => store,
        Err(e) => {
            return http::response(
                503,
                "Service Unavailable",
                "text/plain; charset=utf-8",
                format!("cannot open store {dir}: {e}\n").as_bytes(),
            )
        }
    };
    match volley_store::query::run_query(&store, dir, &params) {
        Ok(report) => http::response(
            200,
            "OK",
            "application/json; charset=utf-8",
            wire::envelope("store", &report).as_bytes(),
        ),
        Err(e) => http::response(
            500,
            "Internal Server Error",
            "text/plain; charset=utf-8",
            format!("scan failed: {e}\n").as_bytes(),
        ),
    }
}
