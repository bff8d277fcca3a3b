//! Byte-parity between the two query surfaces: `volley store query
//! --report-json` and HTTP `GET /api/v1/query` must produce identical bytes
//! for the same store, range and page — both sit on
//! `volley_store::query` plus the shared versioned envelope, and this
//! test pins that they cannot drift.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use volley_store::{Record, RecordKind, Store};

/// Seeds a store with a deterministic mix of record kinds.
fn seed_store(dir: &std::path::Path) {
    let mut store = Store::open(dir).expect("open store");
    for tick in 0..12u64 {
        store
            .append(Record {
                task: 0,
                monitor: (tick % 3) as u32,
                kind: RecordKind::Sample,
                tick,
                value: 20.0 + tick as f64,
            })
            .expect("append sample");
        if tick % 4 == 0 {
            store
                .append(Record {
                    task: 0,
                    monitor: volley_store::TASK_WIDE,
                    kind: RecordKind::Alert,
                    tick,
                    value: 1.0,
                })
                .expect("append alert");
        }
    }
    store.flush().expect("flush");
}

/// Captures `volley store query` stdout for the given extra arguments.
fn cli_query(dir: &str, json: bool, extra: &[&str]) -> Vec<u8> {
    let mut argv = vec!["store".to_string(), "query".to_string()];
    argv.push("--store-dir".to_string());
    argv.push(dir.to_string());
    argv.extend(extra.iter().map(|s| s.to_string()));
    if json {
        argv.push("--report-json".to_string());
    }
    let command = volley_cli::Command::parse(argv).expect("valid command line");
    let mut out = Vec::new();
    volley_cli::run(command, &mut out).expect("query succeeds");
    out
}

/// One `Connection: close` GET against a running server.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let status = String::from_utf8_lossy(&raw[..split])
        .split("\r\n")
        .next()
        .unwrap_or("")
        .to_string();
    (status, raw[split + 4..].to_vec())
}

#[test]
fn http_query_bytes_equal_cli_json_output() {
    let dir = std::env::temp_dir().join(format!("volley-serve-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    seed_store(&dir);
    // The dir label is echoed verbatim in reports: spell it identically
    // on both surfaces.
    let label = dir.to_string_lossy().into_owned();

    let config = volley_serve::ServeConfig::new("127.0.0.1:0").with_store_dir(&label);
    let handle = volley_serve::Server::start(config, &volley_obs::Obs::disabled()).expect("bind");
    let addr = handle.local_addr();

    // Unfiltered pages, a filtered range, a kind filter, and a cursor
    // resuming mid-range: each pair must agree byte-for-byte.
    let cases: &[(&[&str], &str)] = &[
        (&[], "/api/v1/query"),
        (&["--limit", "5"], "/api/v1/query?limit=5"),
        (
            &["--limit", "5", "--cursor", "5"],
            "/api/v1/query?limit=5&cursor=5",
        ),
        (
            &["--from", "3", "--to", "9", "--monitor", "1"],
            "/api/v1/query?from=3&to=9&monitor=1",
        ),
        (
            &["--kind", "alert", "--task", "0"],
            "/api/v1/query?kind=alert&task=0",
        ),
    ];
    for (cli_extra, http_target) in cases {
        let cli = cli_query(&label, true, cli_extra);
        let (status, http) = http_get(addr, http_target);
        assert_eq!(status, "HTTP/1.1 200 OK", "case {http_target}");
        assert_eq!(
            String::from_utf8_lossy(&http),
            String::from_utf8_lossy(&cli),
            "HTTP and CLI bytes must agree for {http_target}"
        );
        assert_eq!(http, cli, "byte-level parity for {http_target}");
    }

    // Both surfaces advertise the same schema version in the envelope.
    let cli = cli_query(&label, true, &[]);
    assert!(String::from_utf8_lossy(&cli).contains(&format!(
        "\"schema\": {}",
        volley_cli::commands::REPORT_SCHEMA_VERSION
    )));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_http_parameters_are_rejected_not_served() {
    let dir = std::env::temp_dir().join(format!("volley-serve-api-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    seed_store(&dir);
    let label = dir.to_string_lossy().into_owned();
    let config = volley_serve::ServeConfig::new("127.0.0.1:0").with_store_dir(&label);
    let handle = volley_serve::Server::start(config, &volley_obs::Obs::disabled()).expect("bind");
    let addr = handle.local_addr();

    for target in [
        "/api/v1/query?task=notanumber",
        "/api/v1/query?kind=bogus",
        "/api/v1/query?from=-1",
    ] {
        let (status, _) = http_get(addr, target);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "case {target}");
    }

    // A server with no store attached declines queries instead of
    // guessing a directory.
    let bare = volley_serve::Server::start(
        volley_serve::ServeConfig::new("127.0.0.1:0"),
        &volley_obs::Obs::disabled(),
    )
    .expect("bind");
    let (status, _) = http_get(bare.local_addr(), "/api/v1/query");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable");

    bare.shutdown();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
