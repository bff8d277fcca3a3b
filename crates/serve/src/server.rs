//! The listener, endpoint dispatch and stream pump: the HTTP
//! [`Protocol`] of the shared [`reactor`].
//!
//! The loop itself — connection table, readiness wait, batched writes,
//! idle reaping — is [`reactor::run`], the same one under
//! `runtime::net::server`. This module says what HTTP bytes mean, caps
//! a connection's outbound buffer (a slow client is dropped, not waited
//! on) and pumps the alert stream. The loop runs on its own thread and
//! blocks in `poll` while nothing happens; a request, a stream publish
//! (while a subscriber is attached) or [`ServerHandle::shutdown`] wakes
//! it. The runtime's only contact is the [`ServePublisher`] handed back
//! in the [`ServerHandle`].

use std::io;
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
use crate::reactor::{self, Conn, Fd, Flow, Pollable, Protocol, Reactor, Waker};
use crate::wire;

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

/// Per-connection HTTP state.
struct HttpConn {
    parser: RequestParser,
    /// Whether this connection holds an open alert stream.
    streaming: bool,
    /// Next ring sequence this subscriber wants.
    stream_cursor: u64,
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
        let mut reactor = Reactor::new()?;
        let waker = reactor.waker();
        let ring = EventRing::new(config.stream_buffer);
        ring.attach_waker(waker.clone());
        let publisher = ServePublisher::new(ring);
        let stop = Arc::new(AtomicBool::new(false));
        let mut http = Http {
            listener,
            instruments: Instruments::new(obs),
            obs: obs.clone(),
            publisher: publisher.clone(),
            stop: Arc::clone(&stop),
            stopping: false,
            open: 0,
            stats: ServeStats::default(),
            config,
        };
        let join = thread::Builder::new()
            .name("volley-serve".to_string())
            .spawn(move || {
                let idle_timeout = http.config.idle_timeout;
                reactor::run(&mut reactor, &mut http, idle_timeout);
                http.instruments.connections.set(0.0);
                http.stats
            })
            .expect("spawning the serve thread never fails");
        Ok(ServerHandle {
            local_addr,
            publisher,
            stop,
            waker,
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
    waker: Waker,
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
        self.stop_loop().unwrap_or_default()
    }

    /// Raises the stop flag, wakes the loop and joins it.
    fn stop_loop(&mut self) -> Option<ServeStats> {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        self.join.take()?.join().ok()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_loop();
    }
}

/// The HTTP plane as the reactor sees it: the listener, the endpoint
/// dispatch and the stream pump. Runs on the `volley-serve` thread.
struct Http {
    listener: TcpListener,
    config: ServeConfig,
    obs: Obs,
    publisher: ServePublisher,
    stop: Arc<AtomicBool>,
    /// The stop flag has been acted on: streams ended, buffers draining.
    stopping: bool,
    open: usize,
    instruments: Instruments,
    stats: ServeStats,
}

impl Protocol for Http {
    type Stream = TcpStream;
    type State = HttpConn;

    fn listener(&self) -> Fd {
        self.listener.fd()
    }

    fn accept(&mut self) -> io::Result<(TcpStream, HttpConn)> {
        let (stream, _peer) = self.listener.accept()?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        self.stats.connections += 1;
        self.open += 1;
        self.instruments.connections.set(self.open as f64);
        let state = HttpConn {
            parser: RequestParser::new(self.config.max_request_bytes),
            streaming: false,
            stream_cursor: 0,
        };
        Ok((stream, state))
    }

    fn on_bytes(&mut self, _slot: usize, conn: &mut Conn<Self>, bytes: &[u8]) {
        conn.state.parser.extend(bytes);
        loop {
            match conn.state.parser.next_request() {
                Ok(Some(request)) => {
                    let started = Instant::now();
                    self.dispatch(&request, conn);
                    self.instruments
                        .request_ns
                        .record(started.elapsed().as_nanos() as u64);
                }
                Ok(None) => break,
                Err(error) => {
                    self.stats.bad_requests += 1;
                    self.instruments.bad_requests.inc();
                    let (code, reason) = match error {
                        HttpError::HeadTooLarge { .. } => (431, "Request Header Fields Too Large"),
                        _ => (400, "Bad Request"),
                    };
                    conn.push(http::response(
                        code,
                        reason,
                        "text/plain; charset=utf-8",
                        format!("{error}\n").as_bytes(),
                    ));
                    conn.close_after_write();
                    break;
                }
            }
        }
    }

    /// Stream pump, slow-client cap and the stop flag. A publish wakes
    /// the loop only while a subscriber streams; shutdown always does.
    fn turn(&mut self, conns: &mut [Option<Conn<Self>>]) -> Flow {
        if self.stopping {
            return Flow::Drain;
        }
        // Graceful stop: open streams get what is left plus their final
        // chunk, then everything buffered drains and the loop exits.
        self.stopping = self.stop.load(Ordering::Acquire);
        for conn in conns.iter_mut().flatten() {
            if conn.state.streaming {
                // Frame any events published since the subscriber's cursor.
                let (next, lagged, lines) = self
                    .publisher
                    .ring()
                    .collect_since(conn.state.stream_cursor);
                self.stats.stream_lag_drops += lagged;
                self.instruments.stream_lag_drops.add(lagged);
                for line in &lines {
                    conn.push(http::chunk(format!("{line}\n").as_bytes()));
                }
                conn.state.stream_cursor = next;
                if self.stopping {
                    conn.push(http::final_chunk());
                }
            }
            if self.stopping {
                conn.close_after_write();
            } else if conn.pending_bytes() > self.config.write_cap {
                // A client that lets its outbound buffer blow the cap is
                // slow; cut it loose rather than buffer unboundedly.
                self.stats.slow_client_drops += 1;
                self.instruments.slow_client_drops.inc();
                conn.close_now();
            }
        }
        if self.stopping {
            Flow::Drain
        } else {
            Flow::Run
        }
    }

    fn idle_exempt(&self, conn: &Conn<Self>) -> bool {
        conn.state.streaming || conn.pending_bytes() > 0
    }

    fn on_close(&mut self, _slot: usize, conn: Conn<Self>, _idle: bool) {
        if conn.state.streaming {
            self.publisher.ring().subscribers_changed(-1);
        }
        self.open -= 1;
        self.instruments.connections.set(self.open as f64);
    }
}

impl Http {
    /// Routes one parsed request, queuing the response (or the stream
    /// head) on the connection.
    fn dispatch(&mut self, request: &Request, conn: &mut Conn<Self>) {
        let (stats, instruments) = (&mut self.stats, &self.instruments);
        if request.close {
            conn.close_after_write();
        }
        if request.method != "GET" {
            stats.other_requests += 1;
            instruments.other_requests.inc();
            conn.push(http::response(
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
                let body = self.obs.snapshot(self.publisher.tick()).to_prometheus();
                conn.push(http::response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.as_bytes(),
                ));
            }
            "/api/v1/query" => {
                stats.query_requests += 1;
                instruments.query_requests.inc();
                conn.push(query_endpoint(request, &self.config));
            }
            "/api/v1/alerts/stream" => {
                stats.stream_requests += 1;
                instruments.stream_requests.inc();
                conn.push(http::chunked_head(200, "OK", "application/x-ndjson"));
                if !conn.state.streaming {
                    self.publisher.ring().subscribers_changed(1);
                }
                conn.state.streaming = true;
                // Cursor 0: replay whatever history the ring retains, so
                // alerts raised before this subscriber arrived still show.
                conn.state.stream_cursor = 0;
            }
            _ => {
                stats.other_requests += 1;
                instruments.other_requests.inc();
                conn.push(http::response(
                    404,
                    "Not Found",
                    "text/plain; charset=utf-8",
                    b"unknown path\n",
                ));
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// The loop blocks in `poll`: an idle server does not wake (it woke
    /// ~300 times in 300 ms while it slept 1 ms at a time), yet shutdown
    /// interrupts the wait at once.
    #[test]
    fn an_idle_server_does_not_wake() {
        let handle = Server::start(ServeConfig::new("127.0.0.1:0"), &Obs::new(false)).unwrap();
        thread::sleep(Duration::from_millis(300));
        let wakeups = handle.waker.wakeups();
        let stopping = Instant::now();
        handle.shutdown();
        assert!(wakeups <= 10, "idle server woke {wakeups} times in 300 ms");
        assert!(stopping.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn publishes_wake_the_loop_only_while_a_subscriber_streams() {
        let handle = Server::start(ServeConfig::new("127.0.0.1:0"), &Obs::new(false)).unwrap();
        let publisher = handle.publisher();
        for tick in 0..50 {
            publisher.alert(0, tick, false);
        }
        thread::sleep(Duration::from_millis(50));
        assert!(handle.waker.wakeups() <= 2, "nobody listens: no wake");

        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .write_all(b"GET /api/v1/alerts/stream HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut lines = BufReader::new(stream).lines().map(Result::unwrap);
        // The subscriber replays history, then gets a live event pushed
        // by the publish's wake (no request of its own follows).
        assert!(lines.any(|l| l.contains(r#""tick":49"#)));
        publisher.alert(0, 777, true);
        assert!(lines.any(|l| l.contains(r#""tick":777"#)));
        let stats = handle.shutdown();
        assert_eq!(stats.stream_requests, 1);
    }
}
