//! The isolated layer pass: each layer's public functions timed alone,
//! at fixed counts, from outside. Together with the in-situ counters of
//! the traced rounds this is the per-layer ledger: the layer pass says
//! what one call costs, the traced pass says how many calls a tick
//! makes, and [`derive_shares`] multiplies the two.
//!
//! Every figure is the median of [`REPS`] repetitions of a fixed batch.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use volley_analyze::{run_job, CorrelationMatrixConfig, CorrelationMatrixJob};
use volley_core::allocation::{AllocationConfig, ErrorAllocator};
use volley_core::task::MonitorId;
use volley_core::{AdaptiveSampler, SamplerBank};
use volley_obs::Obs;
use volley_runtime::message::{
    self, ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickData,
};
use volley_runtime::net::{ctl_line, FrameBuffer};
use volley_runtime::{
    CoordinatorSnapshot, MonitorActor, TickOutcome, Wal, WalRecord, WalSyncPolicy,
};
use volley_serve::{RequestParser, ServeConfig, Server, DEFAULT_MAX_REQUEST_BYTES};
use volley_store::{Record, RecordKind, ScanRange, Store};
use volley_traces::SystemMetricsGenerator;

use crate::harness::{RunConfig, TempDir};
use crate::inputs::{FleetMetric, FLEET_THRESHOLD};
use crate::report::{Metrics, Outcome};
use crate::sim::adaptation;
use crate::stats;

const REPS: usize = 5;

/// Median nanoseconds per operation over [`REPS`] runs of `batch`,
/// which performs `ops` operations each time it is called.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            batch();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples)
}

/// `core`: the SoA bank against the scalar sampler on one stream (they
/// must agree in every decision), and one allocator round.
fn core(seed: u64, scale: u64, m: &mut Metrics, outcome: &mut Outcome) {
    let monitors = 2_048usize;
    let ticks = 50 * scale;
    let metric = FleetMetric::new(seed);
    let config = adaptation();
    let ops = monitors as u64 * ticks;

    let mut bank_digest = 0u64;
    m.set(
        "core.bank_observe_ns",
        ns_per_op(ops, || {
            let mut bank = SamplerBank::with_capacity(config, monitors);
            for _ in 0..monitors {
                bank.push(FLEET_THRESHOLD);
            }
            bank_digest = 0;
            for tick in 0..ticks {
                for i in 0..monitors {
                    let o = bank.observe(i, tick, metric.value(i as u64, tick));
                    bank_digest = bank_digest
                        .wrapping_mul(31)
                        .wrapping_add(o.next_sample_tick ^ u64::from(o.violation));
                }
            }
        }),
    );
    let mut scalar_digest = 0u64;
    m.set(
        "core.scalar_observe_ns",
        ns_per_op(ops, || {
            let mut samplers: Vec<AdaptiveSampler> = (0..monitors)
                .map(|_| AdaptiveSampler::new(config, FLEET_THRESHOLD))
                .collect();
            scalar_digest = 0;
            for tick in 0..ticks {
                for (i, sampler) in samplers.iter_mut().enumerate() {
                    let o = sampler.observe(tick, metric.value(i as u64, tick));
                    scalar_digest = scalar_digest
                        .wrapping_mul(31)
                        .wrapping_add(o.next_sample_tick ^ u64::from(o.violation));
                }
            }
        }),
    );
    outcome.check(bank_digest == scalar_digest, || {
        format!("bank and scalar sampler disagree: {bank_digest:#x} vs {scalar_digest:#x}")
    });

    let fleet = 256usize;
    let reports: Vec<_> = (0..fleet)
        .map(|i| {
            let mut sampler = AdaptiveSampler::new(config, FLEET_THRESHOLD);
            for tick in 0..64 {
                sampler.observe(tick, metric.value(i as u64, tick));
            }
            sampler.drain_period_report()
        })
        .collect();
    let rounds = 50 * scale;
    m.set(
        "core.allocator_update_us",
        ns_per_op(rounds, || {
            let mut allocator = ErrorAllocator::new(AllocationConfig::default(), 0.05, fleet)
                .expect("valid allocator");
            for _ in 0..rounds {
                std::hint::black_box(
                    allocator
                        .update(&reports, 0.2)
                        .expect("one report per monitor"),
                );
            }
        }) / 1e3,
    );
}

/// `runtime` codec and monitor actor, `runtime.net` frame reassembly.
fn runtime(scale: u64, m: &mut Metrics) {
    let n = 5_000 * scale;
    let done = MonitorFrame {
        epoch: 0,
        msg: MonitorToCoordinator::TickDone {
            monitor: MonitorId(17),
            tick: 123_456,
            sampled: true,
            violation: false,
            suppressed: false,
        },
    };
    m.set(
        "runtime.encode_ns",
        ns_per_op(n, || {
            for _ in 0..n {
                std::hint::black_box(message::encode(std::hint::black_box(&done)));
            }
        }),
    );
    let wire = message::encode(&done);
    m.set(
        "runtime.decode_ns",
        ns_per_op(n, || {
            for _ in 0..n {
                let frame: MonitorFrame =
                    message::decode(std::hint::black_box(&wire)).expect("decodes");
                std::hint::black_box(frame);
            }
        }),
    );
    let tick = |t: u64| {
        CoordinatorToMonitor::Tick(TickData {
            tick: t,
            value: 20.0 + (t % 7) as f64,
        })
    };
    m.set(
        "runtime.seal_ns",
        ns_per_op(n, || {
            for t in 0..n {
                std::hint::black_box(ControlFrame::seal(0, tick(t)));
            }
        }),
    );
    m.set(
        "runtime.monitor_handle_ns",
        ns_per_op(n, || {
            let mut actor =
                MonitorActor::new(MonitorId(0), AdaptiveSampler::new(adaptation(), 100.0));
            for t in 0..n {
                std::hint::black_box(actor.handle_frame(ControlFrame {
                    epoch: 0,
                    msg: tick(t),
                }));
            }
        }),
    );

    // 64 frames per read, the shape of a coordinator-side socket read.
    let control = ControlFrame::seal(0, tick(99));
    let chunk: Vec<u8> = (0..64).flat_map(|_| wire.iter().copied()).collect();
    let reads = n / 64;
    m.set(
        "net.framebuffer_ns",
        ns_per_op(reads * 64, || {
            let mut buffer = FrameBuffer::new(64 * 1024);
            for _ in 0..reads {
                buffer.extend(&chunk);
                while let Ok(Some(frame)) = buffer.next_frame() {
                    std::hint::black_box(frame);
                }
            }
        }),
    );
    m.set(
        "net.ctl_line_ns",
        ns_per_op(n, || {
            for to in 0..n {
                std::hint::black_box(ctl_line(to as u32, &control));
            }
        }),
    );
}

/// `wal`: append cost under each sync policy, snapshot and replay.
fn wal(dir: &Path, scale: u64, m: &mut Metrics) {
    let n = 1_000 * scale;
    let record = |t: u64| {
        WalRecord::Tick(TickOutcome {
            epoch: 0,
            tick: t,
            polled: t.is_multiple_of(10),
            alerted: false,
            local_violations: 0,
        })
    };
    let policies = [
        ("wal.append_ns.never", WalSyncPolicy::Never),
        ("wal.append_ns.every64", WalSyncPolicy::EveryN(64)),
        ("wal.append_ns.on_snapshot", WalSyncPolicy::OnSnapshot),
    ];
    let path = dir.join("layer.wal");
    for (name, policy) in policies {
        m.set(
            name,
            ns_per_op(n, || {
                let mut wal = Wal::create(&path)
                    .expect("create WAL")
                    .with_sync_policy(policy);
                for t in 0..n {
                    wal.append(&record(t)).expect("append succeeds");
                }
            }),
        );
    }
    let snapshot = CoordinatorSnapshot {
        epoch: 0,
        tick: n,
        next_update_tick: n + 100,
        allowances: vec![0.05 / 32.0; 32],
        samplers: (0..32)
            .map(|_| Some(AdaptiveSampler::new(adaptation(), 100.0).to_snapshot()))
            .collect(),
        multitask: None,
    };
    let snapshots = 10 * scale;
    m.set(
        "wal.snapshot_ms",
        ns_per_op(snapshots, || {
            let mut wal = Wal::create(&path).expect("create WAL");
            for _ in 0..snapshots {
                wal.append_snapshot(&snapshot).expect("snapshot succeeds");
            }
        }) / 1e6,
    );
    {
        let mut wal = Wal::create(&path)
            .expect("create WAL")
            .with_sync_policy(WalSyncPolicy::Never);
        for t in 0..n {
            wal.append(&record(t)).expect("append succeeds");
        }
    }
    m.set(
        "wal.replay_ms",
        ns_per_op(1, || {
            std::hint::black_box(Wal::replay(&path).expect("the WAL is readable"));
        }) / 1e6,
    );
}

/// `store`: append, flush and scan; leaves a populated store in `dir`
/// for the idle-server probe and the analysis job.
fn store(dir: &Path, m: &mut Metrics) {
    let segment = 8_000u64; // just under the default 8 192-record flush limit
    let segments = 4; // fixed: the idle query probe's latency is the scan of these
    let record = |i: u64| Record {
        task: 0,
        monitor: (i % 32) as u32,
        kind: if i.is_multiple_of(97) {
            RecordKind::Alert
        } else {
            RecordKind::Sample
        },
        tick: i / 32,
        value: 20.0 + (i % 13) as f64 * 0.25,
    };
    let mut append_ns = Vec::new();
    let mut flush_ms = Vec::new();
    let mut store = Store::open(dir)
        .expect("open store")
        .with_flush_limits(usize::MAX, u64::MAX);
    for s in 0..segments {
        let started = Instant::now();
        for i in 0..segment {
            store
                .append(record(s * segment + i))
                .expect("append succeeds");
        }
        append_ns.push(started.elapsed().as_nanos() as f64 / segment as f64);
        let started = Instant::now();
        store.flush().expect("flush succeeds");
        flush_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    m.set("store.append_ns", stats::median(&append_ns));
    m.set("store.flush_ms", stats::median(&flush_ms));
    let records = segments * segment;
    m.set(
        "store.scan_mrec_per_s",
        1e3 / ns_per_op(records, || {
            let count = store
                .scan(&ScanRange::all())
                .expect("the store is readable")
                .count();
            assert_eq!(count as u64, records, "every appended record scans back");
        }),
    );
    let files = store.segments().expect("segments list");
    let bytes: u64 = files
        .iter()
        .filter_map(|(_, p)| std::fs::metadata(p).ok())
        .map(|md| md.len())
        .sum();
    m.set("store.bytes_per_record", bytes as f64 / records as f64);
    let started = Instant::now();
    correlate(&store);
    m.set(
        "analyze.correlate_mrec_per_s",
        records as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9),
    );
}

/// Runs the top-K correlation job over `store` (one streaming pass).
pub fn correlate(store: &Store) {
    let job = CorrelationMatrixJob::new(CorrelationMatrixConfig::default());
    std::hint::black_box(run_job(store, job).expect("the store is readable"));
}

/// `serve` and `obs`: request parsing, counter cost, exposition, and
/// the same two requests the live workload sends against a server with
/// **no fleet running** — which isolates the event loop's 1 ms park
/// from CPU contention.
fn serve_and_obs(store_dir: &Path, scale: u64, m: &mut Metrics) {
    let n = 5_000 * scale;
    let head = b"GET /api/v1/query?limit=64&cursor=128 HTTP/1.1\r\nHost: bench\r\n\r\n";
    m.set(
        "serve.parse_ns",
        ns_per_op(n, || {
            let mut parser = RequestParser::new(DEFAULT_MAX_REQUEST_BYTES);
            for _ in 0..n {
                parser.extend(head);
                std::hint::black_box(parser.next_request().expect("well-formed request"));
            }
        }),
    );

    let incs = 200_000 * scale;
    for (name, enabled) in [
        ("obs.counter_inc_ns.disabled", false),
        ("obs.counter_inc_ns.enabled", true),
    ] {
        let obs = Obs::new(enabled);
        let counter = obs.registry().counter("benchmark_layer_pass_total");
        m.set(
            name,
            ns_per_op(incs, || {
                for _ in 0..incs {
                    counter.inc();
                }
            }),
        );
    }
    let obs = Obs::new(true);
    for i in 0..24 {
        obs.registry()
            .counter(&format!("benchmark_counter_{i}_total"))
            .add(i);
        obs.registry()
            .gauge(&format!("benchmark_gauge_{i}"))
            .set(i as f64);
        let histogram = obs
            .registry()
            .histogram(&format!("benchmark_histogram_{i}_ns"));
        for v in 0..64 {
            histogram.record(v * 1_000);
        }
    }
    let renders = 20 * scale;
    m.set(
        "obs.render_ms",
        ns_per_op(renders, || {
            for tick in 0..renders {
                std::hint::black_box(obs.snapshot(tick).to_prometheus());
            }
        }) / 1e6,
    );

    let config =
        ServeConfig::new("127.0.0.1:0").with_store_dir(store_dir.to_string_lossy().into_owned());
    let handle = Server::start(config, &obs).expect("loopback bind succeeds");
    let idle = |target: &str| -> f64 {
        let Ok(stream) = TcpStream::connect(handle.local_addr()) else {
            return 0.0;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut writer = stream.try_clone().expect("a TCP stream clones");
        let mut reader = BufReader::new(stream);
        let samples: Vec<f64> = (0..4 * scale)
            .filter_map(|_| {
                let started = Instant::now();
                crate::live::http_get(&mut writer, &mut reader, target)
                    .ok()
                    .filter(|&ok| ok)
                    .map(|_| started.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        stats::median(&samples)
    };
    m.set("serve.metrics_idle_ms", idle("/metrics"));
    m.set(
        "serve.query_idle_ms",
        idle("/api/v1/query?limit=64&cursor=128"),
    );
    handle.shutdown();
}

/// `traces`: generation rate of the system-metric series the live
/// inputs are built from.
fn traces(seed: u64, scale: u64, m: &mut Metrics) {
    let generator = SystemMetricsGenerator::new(seed);
    let (vms, ticks) = (8usize, (5_000 * scale) as usize);
    let values = (vms * ticks) as u64;
    m.set(
        "traces.gen_mvalues_per_s",
        1e3 / ns_per_op(values, || {
            for vm in 0..vms {
                std::hint::black_box(generator.trace(vm, vm, ticks));
            }
        }),
    );
}

/// Runs the whole layer pass. Oracle failures (the bank/scalar parity
/// check) land in `outcome`.
pub fn run(config: &RunConfig, outcome: &mut Outcome) -> Metrics {
    // Smoke runs a tenth of each batch: enough to exercise every call.
    let scale = if config.smoke { 1 } else { 10 };
    let scratch = TempDir::new("layers");
    let store_dir = scratch.path().join("store");
    let mut m = Metrics::default();
    core(config.seed, scale, &mut m, outcome);
    runtime(scale, &mut m);
    wal(scratch.path(), scale, &mut m);
    store(&store_dir, &mut m);
    serve_and_obs(&store_dir, scale, &mut m);
    traces(config.seed, scale, &mut m);
    m
}

/// Multiplies per-call costs by per-tick counts: what share of a
/// networked tick the codec accounts for, and what is left over as
/// waiting (the loop's park, syscalls, scheduling). CPU time summed
/// over threads against wall time, so a rough attribution, clamped to
/// `[0, 1]`.
pub fn derive_shares(m: &mut Metrics) {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let tick_ns = get("runtime.tick_us") * 1e3;
    // Only a run whose frames crossed sockets has a codec share.
    if tick_ns <= 0.0 || get("net.frames_in") <= 0.0 {
        return;
    }
    let frames = get("runtime.frames_per_tick");
    // Every frame is encoded once, reassembled once and decoded once;
    // the outbound half is also spliced into a `Ctl` envelope.
    let per_frame = get("runtime.encode_ns")
        + get("runtime.decode_ns")
        + get("net.framebuffer_ns")
        + 0.5 * get("net.ctl_line_ns");
    let codec = (frames * per_frame / tick_ns).clamp(0.0, 1.0);
    // One `handle_frame` per monitor per tick (half the frames are the
    // coordinator's `Tick`s).
    let monitors = (frames * 0.5 * get("runtime.monitor_handle_ns") / tick_ns).clamp(0.0, 1.0);
    m.set("net.codec_share", codec);
    m.set("net.wait_share", (1.0 - codec - monitors).clamp(0.0, 1.0));
}
