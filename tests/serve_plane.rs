//! Integration: the embedded HTTP serving plane end to end — a live
//! fleet scraped over `/metrics`, the range-query API sharing one
//! resolution/rendering module with `volley store query`, streaming
//! alert subscriptions fed mid-run, and protocol rejections over a real
//! socket.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use volley::core::correlation::CorrelationConfig;
use volley::core::task::TaskSpec;
use volley::obs::{names, parse_prometheus, Obs};
use volley::runtime::{MultiTask, MultiTaskConfig, MultiTaskRunner};
use volley::serve::{envelope, ServeConfig, Server, ServerHandle};
use volley::store::query::{run_query, QueryParams};
use volley::store::Store;
use volley::{SampleRecorder, TaskRunner};

const MONITORS: usize = 3;
const TICKS: usize = 40;
/// Ticks where the traces breach the task threshold and raise alerts.
const ALERT_FROM: usize = 20;
const ALERT_TO: usize = 25;

fn spec() -> TaskSpec {
    TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.0)
        .build()
        .unwrap()
}

/// Quiet traces with a violation burst in `[ALERT_FROM, ALERT_TO)`:
/// every monitor reports far above its share, so the aggregate breaches
/// the threshold and the coordinator raises state alerts mid-run.
fn traces() -> Vec<Vec<f64>> {
    (0..MONITORS)
        .map(|m| {
            (0..TICKS)
                .map(|t| {
                    if (ALERT_FROM..ALERT_TO).contains(&t) {
                        200.0
                    } else {
                        20.0 + ((t * (3 + m)) % 7) as f64
                    }
                })
                .collect()
        })
        .collect()
}

/// One HTTP exchange over a real socket: sends a `Connection: close`
/// GET and reads to EOF, returning the raw response text.
fn http_get(handle: &ServerHandle, target: &str) -> String {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("utf8 response")
}

/// Splits a response into (status line, body past the blank line).
fn split_response(response: &str) -> (&str, &str) {
    let status = response.split("\r\n").next().unwrap_or("");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("");
    (status, body)
}

/// A live fleet is scrapable while its registry is hot: `/metrics`
/// exposes the runner counters with the values the run reported, and
/// the serving plane's own instruments show up in the same registry.
#[test]
fn metrics_scrape_reflects_live_fleet() {
    let obs = Obs::new(true);
    let handle = Server::start(ServeConfig::new("127.0.0.1:0"), &obs).expect("bind");
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_obs(obs.clone())
        .with_serve_publisher(handle.publisher())
        .run(&traces())
        .unwrap();
    assert_eq!(report.ticks, TICKS as u64);
    assert!(report.alerts >= 1, "the burst must alert: {report:?}");

    let (status, body) = {
        let response = http_get(&handle, "/metrics");
        let (status, body) = split_response(&response);
        (status.to_string(), body.to_string())
    };
    assert_eq!(status, "HTTP/1.1 200 OK");
    let samples = parse_prometheus(&body).expect("valid exposition text");
    let ticks = samples
        .iter()
        .find(|s| s.name == names::RUNNER_TICKS_TOTAL)
        .expect("runner tick counter exposed");
    assert_eq!(ticks.value, report.ticks as f64);

    // The serving plane instruments itself: the scrape above is visible
    // in the next scrape, through the same registry.
    let (_, second) = {
        let response = http_get(&handle, "/metrics");
        let (status, body) = split_response(&response);
        (status.to_string(), body.to_string())
    };
    let scrapes = parse_prometheus(&second)
        .expect("valid exposition text")
        .into_iter()
        .find(|s| s.name == names::SERVE_REQUESTS_METRICS_TOTAL)
        .expect("serve scrape counter exposed");
    assert!(scrapes.value >= 1.0);

    let stats = handle.shutdown();
    assert_eq!(stats.metrics_requests, 2);
    assert_eq!(stats.bad_requests, 0);
}

/// The HTTP query endpoint and the shared query module agree
/// byte-for-byte on every page of a recorded run — the same guarantee
/// `volley store query --report-json` gives, since all three sit on one
/// resolution/rendering path.
#[test]
fn query_endpoint_pages_match_shared_module() {
    let dir = std::env::temp_dir().join(format!("volley-serve-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_recorder(SampleRecorder::new(store))
        .run(&traces())
        .unwrap();
    assert!(report.alerts >= 1, "recorded run must carry alerts");

    let dir_label = dir.to_string_lossy().into_owned();
    let config = ServeConfig::new("127.0.0.1:0").with_store_dir(&dir_label);
    let handle = Server::start(config, &Obs::disabled()).expect("bind");

    // Walk the cursor chain: every HTTP page must be byte-identical to
    // the shared module's envelope for the same parameters.
    let store = Store::open(&dir).expect("reopen store");
    let mut params = QueryParams {
        limit: Some(4),
        ..QueryParams::default()
    };
    let mut pages = 0;
    loop {
        let expected = run_query(&store, &dir_label, &params).expect("query");
        let response = http_get(
            &handle,
            &format!("/api/v1/query?limit=4&cursor={}", params.cursor),
        );
        let (status, body) = split_response(&response);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(
            body,
            envelope("store", &expected),
            "HTTP page at cursor {} must match the shared module",
            params.cursor
        );
        pages += 1;
        match expected.next_cursor {
            Some(cursor) => params.cursor = cursor,
            None => break,
        }
    }
    assert!(pages >= 2, "a recorded run spans multiple 4-row pages");

    // Filters ride the same path: an alert-only range returns exactly
    // the run's alerts.
    let alert_params = QueryParams {
        kind: Some(volley::store::RecordKind::Alert),
        limit: Some(4096),
        ..QueryParams::default()
    };
    let expected = run_query(&store, &dir_label, &alert_params).expect("query");
    assert_eq!(expected.matched, report.alerts);
    let response = http_get(&handle, "/api/v1/query?kind=alert&limit=4096");
    let (_, body) = split_response(&response);
    assert_eq!(body, envelope("store", &expected));

    let stats = handle.shutdown();
    assert_eq!(stats.query_requests, (pages + 1) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens an alert-stream subscription on `handle` and returns the
/// socket with the response head read: the head proves the reactor has
/// opened the subscription, which a short run could otherwise outpace
/// to `shutdown` before the reactor has even parsed the request.
fn subscribe(handle: &ServerHandle) -> (TcpStream, Vec<u8>) {
    let mut subscriber = TcpStream::connect(handle.local_addr()).expect("connect");
    subscriber
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    subscriber
        .write_all(b"GET /api/v1/alerts/stream HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("subscribe");
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        subscriber.read_exact(&mut byte).expect("stream head");
        raw.push(byte[0]);
    }
    (subscriber, raw)
}

/// A subscriber that connects before the run sees every alert the fleet
/// raises mid-run on its open stream, then the terminating chunk at
/// shutdown.
#[test]
fn alert_stream_delivers_mid_run_alerts() {
    let obs = Obs::new(true);
    let handle = Server::start(ServeConfig::new("127.0.0.1:0"), &obs).expect("bind");

    // Subscribe before the run starts; the socket stays open while the
    // fleet ticks and drains only at shutdown.
    let (mut subscriber, mut raw) = subscribe(&handle);

    let report = TaskRunner::new(&spec())
        .unwrap()
        .with_obs(obs.clone())
        .with_serve_publisher(handle.publisher())
        .run(&traces())
        .unwrap();
    assert!(report.alerts >= 1, "the burst must alert: {report:?}");

    handle.publisher().run_end(report.ticks);
    let stats = handle.shutdown();
    assert_eq!(stats.stream_requests, 1);
    assert_eq!(stats.stream_lag_drops, 0);

    subscriber.read_to_end(&mut raw).expect("drain stream");
    let text = String::from_utf8(raw).expect("utf8 stream");
    assert!(
        text.contains("Transfer-Encoding: chunked"),
        "stream must be chunked: {text:?}"
    );
    let alerts = text.matches("\"event\":\"alert\"").count();
    assert_eq!(
        alerts as u64, report.alerts,
        "every alert the run raised must reach the open stream: {text:?}"
    );
    assert!(
        text.contains("\"event\":\"run_end\""),
        "shutdown must deliver the run-end marker: {text:?}"
    );
    assert!(
        text.ends_with("0\r\n\r\n"),
        "stream must terminate with the final chunk: {text:?}"
    );
}

/// A multi-task run publishes through the loop a single task does: over
/// a 3-task cascade (a leader, its follower, a quiet bystander) every
/// alert line names the task it fired in, the lines per task equal that
/// task's `alerts`, and exactly one `run_end` follows them.
#[test]
fn a_multi_task_stream_carries_each_tasks_alerts() {
    let obs = Obs::new(true);
    let handle = Server::start(ServeConfig::new("127.0.0.1:0"), &obs).expect("bind");
    let (mut subscriber, mut raw) = subscribe(&handle);

    let spec = TaskSpec::builder(100.0)
        .monitors(1)
        .error_allowance(0.05)
        .max_interval(4)
        .patience(2)
        .warmup_samples(2)
        .build()
        .unwrap();
    // Violating (200 > 100) on `offset..offset + 8` of every 40 ticks.
    let burst = |offset: u64| -> Vec<Vec<f64>> {
        let hot = |t: u64| (offset..offset + 8).contains(&(t % 40));
        vec![(0..400).map(|t| if hot(t) { 200.0 } else { 5.0 }).collect()]
    };
    let tasks = [
        MultiTask::new(spec.clone(), burst(10)),
        MultiTask::new(spec.clone(), burst(12)),
        MultiTask::new(spec, vec![vec![5.0; 400]]),
    ];
    let config = MultiTaskConfig {
        correlation: CorrelationConfig {
            min_confidence: 0.8,
            min_support: 5,
            ..CorrelationConfig::default()
        },
        train_ticks: 200,
    };
    let outcome = MultiTaskRunner::new(config)
        .unwrap()
        .with_obs(obs.clone())
        .with_serve_publisher(handle.publisher())
        .run(&tasks)
        .unwrap();
    assert_eq!(outcome.gates.len(), 1, "the follower is gated");
    handle.publisher().run_end(outcome.ticks);
    let stats = handle.shutdown();
    assert_eq!(stats.stream_lag_drops, 0);

    subscriber.read_to_end(&mut raw).expect("drain stream");
    let text = String::from_utf8(raw).expect("utf8 stream");
    for (task, report) in outcome.reports.iter().enumerate() {
        let line = format!("\"event\":\"alert\",\"task\":{task},");
        assert_eq!(
            text.matches(&line).count() as u64,
            report.alerts,
            "task {task}"
        );
    }
    assert!(outcome.reports[0].alerts > 0 && outcome.reports[2].alerts == 0);
    let all_alerts: u64 = outcome.reports.iter().map(|r| r.alerts).sum();
    assert_eq!(
        text.matches("\"event\":\"alert\"").count() as u64,
        all_alerts
    );
    assert_eq!(text.matches("\"event\":\"run_end\"").count(), 1);
    assert!(text.rfind("\"event\":\"alert\"") < text.find("\"event\":\"run_end\""));
}

/// Protocol hygiene over a real socket: unknown paths 404, non-GET
/// methods 405, malformed heads 400, oversized heads 431 — and the
/// loop keeps serving afterwards.
#[test]
fn protocol_rejections_do_not_wedge_the_loop() {
    let obs = Obs::new(true);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.max_request_bytes = 512;
    let handle = Server::start(config, &obs).expect("bind");

    let response = http_get(&handle, "/nope");
    assert!(response.starts_with("HTTP/1.1 404 Not Found"));

    // Non-GET: rejected per-request, connection stays usable.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(String::from_utf8(raw)
        .unwrap()
        .starts_with("HTTP/1.1 405 Method Not Allowed"));

    // Malformed head: 400 and the connection is closed.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(String::from_utf8(raw)
        .unwrap()
        .starts_with("HTTP/1.1 400 Bad Request"));

    // Oversized head: the cap trips before any terminator arrives.
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[b'A'; 600]).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(String::from_utf8(raw)
        .unwrap()
        .starts_with("HTTP/1.1 431 Request Header Fields Too Large"));

    // The loop survived all of it: a normal scrape still works.
    let response = http_get(&handle, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"));

    let stats = handle.shutdown();
    assert_eq!(stats.bad_requests, 2);
    assert_eq!(stats.other_requests, 2);
    assert_eq!(stats.metrics_requests, 1);
}
