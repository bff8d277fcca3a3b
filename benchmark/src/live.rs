//! The two live workloads: `live-net` and `live-durable`.
//!
//! Both drive the same coordinator/monitor protocol; they differ in the
//! transport under it and in what hangs off it.
//!
//! * `live-net` — a `NetCoordinator` on loopback TCP with 2 agent
//!   threads × 128 monitors, **no** WAL, store, serve or obs. Closed
//!   loop (the coordinator's own lock-step tick). `runtime.net`, the
//!   frame codec and the coordinator do all the work; the durable
//!   layers do none. Both codec cost and the event loop's 1 ms idle
//!   park are visible here.
//! * `live-durable` — an in-process `TaskRunner` (channels, one thread
//!   per monitor) with 32 monitors, a WAL synced every 64 records, a
//!   store recorder, enabled obs, and a serving plane that an
//!   **open-loop** client hits every 25 ms (alternating `/metrics` and
//!   `/api/v1/query`) while one subscriber holds the alert stream.
//!   Writes beside reads; `runtime.net` does no work.
//!
//! A round runs the *same* traces from fresh state, so every round of a
//! run must return the same alerts and the same sample counts — which
//! is itself an oracle — and the cost and detection ratios do not
//! depend on how many rounds fit in the budget.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use volley_core::task::TaskSpec;
use volley_core::{DistributedTask, GroundTruth, Tick};
use volley_obs::Obs;
use volley_runtime::net::{
    run_agent, AgentConfig, BackoffConfig, NetAddr, NetCoordinator, NetStats,
};
use volley_runtime::transport::TransportConfig;
use volley_runtime::{RuntimeReport, TaskRunner, Wal, WalSyncPolicy};
use volley_serve::{ServeConfig, ServeStats, Server};
use volley_store::{RecordKind, SampleRecorder, ScanRange, Store};

use crate::harness::{self, RunConfig, Stopwatch, TempDir};
use crate::inputs::{self, LiveShape, LIVE_LOCAL_THRESHOLD};
use crate::proc;
use crate::report::Outcome;
use crate::spans::{SpanId, Tracer, NO_PARENT};
use crate::stats::{self, RoundTime};

/// Task-level error allowance of both live workloads.
const ERR: f64 = 0.05;
/// Fleet-correlated burst every 100 ticks: an 8-tick ramp, 3 at the
/// peak, 4 back down.
const BURSTS: LiveShape = LiveShape {
    burst_every: 100,
    rise: 8,
    hold: 3,
};
/// Open-loop client period and the latency past which a request counts
/// as failed: forty periods, a backlog no scheduling hiccup explains.
const REQUEST_PERIOD: Duration = Duration::from_millis(25);
const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// WAL snapshot cadence and group-fsync size.
const WAL_EVERY: u64 = 64;

fn task_spec(monitors: usize) -> TaskSpec {
    TaskSpec::builder(LIVE_LOCAL_THRESHOLD * monitors as f64)
        .monitors(monitors)
        .error_allowance(ERR)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid task spec")
}

/// What the step-driven reference implementation does with the traces:
/// the differential oracle of every live round.
struct Reference {
    alert_ticks: Vec<Tick>,
    total_samples: u64,
    /// Ground-truth violation ticks (periodic sampling at `I_d`).
    truth: Vec<Tick>,
}

impl Reference {
    fn run(spec: &TaskSpec, traces: &[Vec<f64>]) -> Reference {
        let mut task = DistributedTask::new(spec).expect("valid task");
        let ticks = traces.iter().map(Vec::len).min().unwrap_or(0);
        let mut values = vec![0.0; traces.len()];
        let mut alert_ticks = Vec::new();
        let mut total_samples = 0u64;
        for tick in 0..ticks {
            for (value, trace) in values.iter_mut().zip(traces) {
                *value = trace[tick];
            }
            let step = task
                .step(tick as Tick, &values)
                .expect("one value per monitor");
            total_samples += u64::from(step.total_samples());
            if step.alerted() {
                alert_ticks.push(tick as Tick);
            }
        }
        let truth = GroundTruth::from_aggregate_traces(traces, spec.global_threshold());
        Reference {
            alert_ticks,
            total_samples,
            truth: truth.violation_ticks().to_vec(),
        }
    }

    /// Share of ground-truth violation ticks that raised an alert.
    fn detection_rate(&self, alert_ticks: &[Tick]) -> f64 {
        let detected = self
            .truth
            .iter()
            .filter(|t| alert_ticks.binary_search(t).is_ok())
            .count();
        detected as f64 / self.truth.len().max(1) as f64
    }

    /// Checks one round's report against the reference; returns the
    /// operations that count as failed.
    fn check(&self, report: &RuntimeReport, outcome: &mut Outcome, what: &str) -> u64 {
        outcome.check(report.alert_ticks == self.alert_ticks, || {
            format!(
                "{what}: {} alerts, reference has {}",
                report.alert_ticks.len(),
                self.alert_ticks.len()
            )
        });
        outcome.check(report.total_samples == self.total_samples, || {
            format!(
                "{what}: {} samples, reference has {}",
                report.total_samples, self.total_samples
            )
        });
        outcome.check(report.quarantines == 0, || {
            format!("{what}: {} quarantines", report.quarantines)
        });
        report.missed_tick_reports + report.degraded_polls
    }
}

// ---------------------------------------------------------------------
// live-net
// ---------------------------------------------------------------------

const NET_AGENTS: u32 = 2;

struct NetRound {
    time: RoundTime,
    report: RuntimeReport,
    net: NetStats,
    agent_reconnects: u64,
}

/// One full `bind → run(traces) → join`.
fn net_round(spec: &TaskSpec, traces: &[Vec<f64>], tracer: &Tracer, round: u32) -> NetRound {
    let monitors = spec.monitors().len() as u32;
    let stopwatch = Stopwatch::start();
    let root = tracer.open("live.round", NO_PARENT, round);
    let bind = tracer.open("net.bind", root, round);
    let coordinator = NetCoordinator::bind(spec.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
        .expect("loopback bind succeeds")
        .with_wait_timeout(Duration::from_secs(60));
    tracer.close(bind);
    let addr = NetAddr::Tcp(
        coordinator
            .local_addr()
            .expect("a TCP listener")
            .to_string(),
    );
    let per_agent = monitors.div_ceil(NET_AGENTS);
    let (run, agents) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..NET_AGENTS)
            .map(|agent| {
                let config = AgentConfig {
                    agent,
                    addr: addr.clone(),
                    spec: spec.clone(),
                    monitors: (agent * per_agent)..((agent + 1) * per_agent).min(monitors),
                    transport: TransportConfig::default(),
                    backoff: BackoffConfig::default(),
                };
                scope.spawn(move || {
                    let span = tracer.open("net.run_agent", root, round);
                    let report = run_agent(&config).expect("agent completes");
                    tracer.close(span);
                    report
                })
            })
            .collect();
        let span = tracer.open("net.coordinator_run", root, round);
        let run = coordinator.run(traces).expect("networked run succeeds");
        tracer.close(span);
        let agents: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("agent thread does not panic"))
            .collect();
        (run, agents)
    });
    tracer.close(root);
    NetRound {
        time: stopwatch.stop(),
        report: run.report,
        net: run.net,
        agent_reconnects: agents.iter().map(|a| a.reconnects).sum(),
    }
}

pub fn run_net(config: &RunConfig) -> Outcome {
    let monitors = 256;
    let ticks = if config.smoke { 100 } else { 400 };
    let spec = task_spec(monitors);
    let tracer = harness::new_tracer();
    let traces = inputs::live_traces(config.seed, monitors, ticks, BURSTS);
    let mut outcome = Outcome {
        input_digest: inputs::traces_digest(&traces).0,
        ..Outcome::default()
    };
    let reference = Reference::run(&spec, &traces);
    let warm = net_round(&spec, &traces, &tracer, 0);
    reference.check(&warm.report, &mut outcome, "warm-up round");
    let setup_s = config.started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut last = warm;
    let rounds = harness::run_rounds(config, &tracer, |round, tracer| {
        let result = net_round(&spec, &traces, tracer, round + 1);
        failed += reference.check(&result.report, &mut outcome, "timed round")
            + result.net.backpressure_drops
            + result.net.unrouted_drops;
        last = result;
        last.time
    });

    let windows = (monitors * ticks) as u64;
    outcome.rounds = rounds.count();
    outcome.attempted = windows * u64::from(rounds.count());
    outcome.failed = failed;
    rounds.report_end_to_end(
        &mut outcome,
        setup_s,
        windows,
        last.report.cost_ratio(monitors),
        reference.detection_rate(&last.report.alert_ticks),
    );
    if !config.trace {
        return outcome;
    }

    let m = &mut outcome.metrics;
    m.set("runtime.tick_us", rounds.round_s() * 1e6 / ticks as f64);
    m.set(
        "runtime.frames_per_tick",
        (last.net.frames_in + last.net.frames_out) as f64 / ticks as f64,
    );
    m.set("net.frames_in", last.net.frames_in as f64);
    m.set("net.frames_out", last.net.frames_out as f64);
    m.set("net.max_queue_depth", last.net.max_queue_depth as f64);
    m.set("net.backpressure_drops", last.net.backpressure_drops as f64);
    m.set(
        "net.reconnects",
        (last.net.reconnects + last.agent_reconnects) as f64,
    );
    rounds.report_traced_pass(&mut outcome, &tracer, windows, setup_s);
    outcome
}

// ---------------------------------------------------------------------
// live-durable
// ---------------------------------------------------------------------

/// One request of the open-loop client.
#[derive(Debug, Clone, Copy)]
struct RequestSample {
    query: bool,
    /// Completion time minus the time the request was *due*.
    latency_s: f64,
    /// How late the generator sent it.
    late_s: f64,
    ok: bool,
}

/// One GET on a keep-alive connection; returns whether the answer was
/// a 200.
pub fn http_get(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
) -> std::io::Result<bool> {
    writer.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    read_response(reader)
}

/// Reads one keep-alive HTTP/1.1 response; returns whether it was a 200.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<bool> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let ok = line.starts_with("HTTP/1.1 200");
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    // The store caps a page at 64 rows here; a megabyte is far beyond
    // any response this client asks for.
    let mut body = vec![0u8; length.min(1 << 20)];
    reader.read_exact(&mut body)?;
    Ok(ok)
}

/// The open-loop client: one keep-alive connection, one request every
/// [`REQUEST_PERIOD`] alternating `/metrics` and a paged query, each
/// timed from when it was due.
fn open_loop_client(
    addr: SocketAddr,
    stop: &AtomicBool,
    tracer: &Tracer,
    parent: SpanId,
    round: u32,
) -> Vec<RequestSample> {
    let mut samples = Vec::new();
    let Ok(stream) = TcpStream::connect(addr) else {
        return samples;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut writer = stream.try_clone().expect("a TCP stream clones");
    let mut reader = BufReader::new(stream);
    let began = Instant::now();
    let mut cursor = 0u64;
    for k in 0u32.. {
        let due = began + REQUEST_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let query = k % 2 == 1;
        let target = if query {
            cursor = (cursor + 64) % 4096;
            format!("/api/v1/query?limit=64&cursor={cursor}")
        } else {
            "/metrics".to_string()
        };
        let sent = Instant::now();
        let span_start = tracer.now_ns();
        let ok = http_get(&mut writer, &mut reader, &target).unwrap_or(false);
        tracer.record(
            if query {
                "serve.query"
            } else {
                "serve.metrics"
            },
            span_start,
            parent,
            round,
        );
        samples.push(RequestSample {
            query,
            latency_s: due.elapsed().as_secs_f64(),
            late_s: sent.duration_since(due).as_secs_f64(),
            ok,
        });
        if !ok {
            break; // the connection is in an unknown state
        }
    }
    samples
}

/// Holds the alert stream open to its end; returns (alerts, run-ends).
fn stream_subscriber(addr: SocketAddr) -> (u64, u64) {
    let read = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.write_all(b"GET /api/v1/alerts/stream HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        Ok(String::from_utf8_lossy(&raw).into_owned())
    };
    let text = read().unwrap_or_default();
    (
        text.matches("\"event\":\"alert\"").count() as u64,
        text.matches("\"event\":\"run_end\"").count() as u64,
    )
}

struct DurableRound {
    time: RoundTime,
    report: RuntimeReport,
    requests: Vec<RequestSample>,
    serve: ServeStats,
    ctx_switches: u64,
    wal_bytes: u64,
    wal_replay_s: f64,
    store_segments: u64,
    store_bytes: u64,
    store_records: u64,
    analyze_s: f64,
    /// Failed operations outside the report: bad or slow requests,
    /// stream lag, recorder I/O errors.
    failed: u64,
}

/// One `TaskRunner::run` into a fresh temp dir, with the serving plane
/// up and the open-loop client and the stream subscriber attached.
fn durable_round(
    spec: &TaskSpec,
    traces: &[Vec<f64>],
    obs_enabled: bool,
    tracer: &Tracer,
    round: u32,
    outcome: &mut Outcome,
) -> DurableRound {
    let dir = TempDir::new(&format!("round{round}"));
    let store_dir = dir.path().join("store");
    let wal_path = dir.path().join("coordinator.wal");
    let root = tracer.open("live.round", NO_PARENT, round);

    let span = tracer.open("store.open", root, round);
    let recorder = SampleRecorder::new(Store::open(&store_dir).expect("open store"));
    tracer.close(span);
    let obs = Obs::new(obs_enabled);
    let span = tracer.open("serve.start", root, round);
    let serve_config =
        ServeConfig::new("127.0.0.1:0").with_store_dir(store_dir.to_string_lossy().into_owned());
    let handle = Server::start(serve_config, &obs).expect("loopback bind succeeds");
    tracer.close(span);
    let addr = handle.local_addr();
    let runner = TaskRunner::new(spec)
        .expect("valid runner")
        .with_wal(&wal_path, WAL_EVERY)
        .with_wal_sync(WalSyncPolicy::EveryN(WAL_EVERY))
        .with_recorder(recorder.clone())
        .with_obs(obs.clone())
        .with_serve_publisher(handle.publisher());

    let stop = AtomicBool::new(false);
    let publisher = handle.publisher();
    let (time, report, requests, ctx_switches, serve, (stream_alerts, stream_run_ends)) =
        std::thread::scope(|scope| {
            let subscriber = scope.spawn(move || stream_subscriber(addr));
            let client = scope.spawn(|| open_loop_client(addr, &stop, tracer, root, round));
            let ctx_before = proc::context_switches();
            let span = tracer.open("runtime.runner_run", root, round);
            let stopwatch = Stopwatch::start();
            let report = runner.run(traces).expect("in-process run succeeds");
            let time = stopwatch.stop();
            tracer.close(span);
            let ctx_switches = proc::context_switches().saturating_sub(ctx_before);
            publisher.run_end(report.ticks);
            stop.store(true, Ordering::Relaxed);
            let requests = client.join().expect("client thread does not panic");
            // Shutting the server down is what ends the subscriber's
            // stream, so it happens before that thread is joined.
            let span = tracer.open("serve.shutdown", root, round);
            let serve = handle.shutdown();
            tracer.close(span);
            let stream = subscriber.join().expect("subscriber thread does not panic");
            (time, report, requests, ctx_switches, serve, stream)
        });

    // Durability oracles, outside the timed region.
    let span = tracer.open("wal.replay", root, round);
    let replay_started = Instant::now();
    let replay = Wal::replay(&wal_path).expect("the WAL is readable");
    let wal_replay_s = replay_started.elapsed().as_secs_f64();
    tracer.close(span);
    let last_tick = replay
        .tail
        .last()
        .map(|o| o.tick)
        .or(replay.snapshot.as_ref().map(|s| s.tick));
    outcome.check(
        last_tick == Some(report.ticks - 1) && !replay.truncated,
        || {
            format!(
                "WAL replay ends at {last_tick:?}, run at {}",
                report.ticks - 1
            )
        },
    );
    let span = tracer.open("store.scan", root, round);
    let (mut samples, mut polls, mut alerts, mut records) = (0u64, 0u64, 0u64, 0u64);
    recorder.with_store(|store| {
        for record in store
            .scan(&ScanRange::all())
            .expect("the store is readable")
        {
            records += 1;
            match record.kind {
                RecordKind::Sample => samples += 1,
                RecordKind::PollSample => polls += 1,
                RecordKind::Alert => alerts += 1,
                _ => {}
            }
        }
    });
    tracer.close(span);
    outcome.check(
        (samples, polls, alerts) == (report.scheduled_samples, report.poll_samples, report.alerts),
        || {
            format!(
                "store holds {samples} samples / {polls} polls / {alerts} alerts, report acked {} / {} / {}",
                report.scheduled_samples, report.poll_samples, report.alerts
            )
        },
    );
    outcome.check(
        (stream_alerts, stream_run_ends) == (report.alerts, 1),
        || {
            format!(
                "stream saw {stream_alerts} alerts and {stream_run_ends} run_end, run raised {}",
                report.alerts
            )
        },
    );
    let span = tracer.open("analyze.correlate", root, round);
    let analyze_started = Instant::now();
    recorder.with_store(|store| crate::layers::correlate(store));
    let analyze_s = analyze_started.elapsed().as_secs_f64();
    tracer.close(span);
    tracer.close(root);

    let segments = recorder
        .with_store(|store| store.segments())
        .unwrap_or_default();
    let store_bytes = segments
        .iter()
        .filter_map(|(_, path)| std::fs::metadata(path).ok())
        .map(|meta| meta.len())
        .sum();
    let not_ok = requests.iter().filter(|r| !r.ok).count() as u64;
    let over_limit = requests
        .iter()
        .filter(|r| r.ok && r.latency_s > LATENCY_LIMIT.as_secs_f64())
        .count() as u64;
    let failed = not_ok + over_limit + serve.stream_lag_drops + recorder.io_errors();
    if failed > 0 {
        eprintln!(
            "live-durable round {round}: {not_ok} requests not 200, {over_limit} over {LATENCY_LIMIT:?}, \
             {} stream lag drops, {} recorder I/O errors",
            serve.stream_lag_drops,
            recorder.io_errors()
        );
    }
    DurableRound {
        time,
        failed,
        report,
        requests,
        serve,
        ctx_switches,
        wal_bytes: std::fs::metadata(&wal_path).map_or(0, |meta| meta.len()),
        wal_replay_s,
        store_segments: segments.len() as u64,
        store_bytes,
        store_records: records,
        analyze_s,
    }
}

pub fn run_durable(config: &RunConfig) -> Outcome {
    let monitors = 32;
    let ticks = if config.smoke { 300 } else { 1_500 };
    let spec = task_spec(monitors);
    let tracer = harness::new_tracer();
    let traces = inputs::live_traces(config.seed, monitors, ticks, BURSTS);
    let mut outcome = Outcome {
        input_digest: inputs::traces_digest(&traces).0,
        ..Outcome::default()
    };
    let reference = Reference::run(&spec, &traces);
    let warm = durable_round(&spec, &traces, true, &tracer, 0, &mut outcome);
    reference.check(&warm.report, &mut outcome, "warm-up round");
    let setup_s = config.started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut requests: Vec<RequestSample> = Vec::new();
    let mut last = warm;
    let rounds = harness::run_rounds(config, &tracer, |round, tracer| {
        let result = durable_round(&spec, &traces, true, tracer, round + 1, &mut outcome);
        failed += reference.check(&result.report, &mut outcome, "timed round") + result.failed;
        requests.extend_from_slice(&result.requests);
        last = result;
        last.time
    });

    let windows = (monitors * ticks) as u64;
    outcome.rounds = rounds.count();
    outcome.attempted = windows * u64::from(rounds.count()) + requests.len() as u64;
    outcome.failed = failed;
    rounds.report_end_to_end(
        &mut outcome,
        setup_s,
        windows,
        last.report.cost_ratio(monitors),
        reference.detection_rate(&last.report.alert_ticks),
    );
    if !config.trace {
        return outcome;
    }

    let report = &last.report;
    let m = &mut outcome.metrics;
    m.set("runtime.tick_us", rounds.round_s() * 1e6 / ticks as f64);
    // Tick + TickDone per monitor per tick, Poll + PollReply per monitor
    // per global poll (computed from the report: channels count nothing).
    m.set(
        "runtime.frames_per_tick",
        (2 * monitors as u64 * (report.ticks + report.polls)) as f64 / ticks as f64,
    );
    m.set("wal.replay_ms", last.wal_replay_s * 1e3);
    m.set("wal.bytes_per_tick", last.wal_bytes as f64 / ticks as f64);
    m.set("store.segments", last.store_segments as f64);
    m.set(
        "store.bytes_per_record",
        last.store_bytes as f64 / last.store_records.max(1) as f64,
    );
    m.set(
        "analyze.correlate_mrec_per_s",
        last.store_records as f64 / 1e6 / last.analyze_s.max(1e-9),
    );
    // Milliseconds of one field over all requests or one kind of them.
    let ms = |query: Option<bool>, field: fn(&RequestSample) -> f64| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| query.is_none_or(|q| r.query == q))
            .map(|r| field(r) * 1e3)
            .collect()
    };
    let all = ms(None, |r| r.latency_s);
    m.set("serve.http_p50_ms", stats::percentile(&all, 50.0));
    m.set("serve.http_p99_ms", stats::percentile(&all, 99.0));
    m.set("serve.http_max_ms", stats::percentile(&all, 100.0));
    let metrics_ms = ms(Some(false), |r| r.latency_s);
    m.set("serve.metrics_p50_ms", stats::percentile(&metrics_ms, 50.0));
    let query_ms = ms(Some(true), |r| r.latency_s);
    m.set("serve.query_p50_ms", stats::percentile(&query_ms, 50.0));
    let late_ms = ms(None, |r| r.late_s);
    m.set(
        "serve.generator_late_p99_ms",
        stats::percentile(&late_ms, 99.0),
    );
    m.set("serve.requests", requests.len() as f64);
    m.set(
        "serve.over_limit",
        requests
            .iter()
            .filter(|r| r.latency_s > LATENCY_LIMIT.as_secs_f64())
            .count() as f64,
    );
    m.set("serve.stream_lag_drops", last.serve.stream_lag_drops as f64);
    m.set("serve.connections", last.serve.connections as f64);
    m.set(
        "proc.ctx_switches_per_tick",
        last.ctx_switches as f64 / ticks as f64,
    );
    // One extra round with obs off: what enabled instrumentation costs
    // the whole tick, not just the sample path.
    let dark = durable_round(&spec, &traces, false, &tracer, 0, &mut outcome);
    let (lit_s, dark_s) = (rounds.round_s(), dark.time.wall_s);
    outcome
        .metrics
        .set("obs.enabled_overhead_share", (lit_s - dark_s) / lit_s);
    rounds.report_traced_pass(&mut outcome, &tracer, windows, setup_s);
    outcome
}
