//! The two simulation workloads: `sim-fleet` and `sim-xshard`.
//!
//! Both drive one [`SamplerBank`] per shard on the [`ShardedEngine`]
//! with the same per-VM sampler work; they differ in what surrounds it.
//!
//! * `sim-fleet` — 200 000 VMs, one epoch for the whole horizon
//!   (`EngineConfig::message_free`): the bank does almost all the work
//!   and the engine's barrier almost none. A sampler-kernel change must
//!   show here; a barrier change must not. The bank's arrays are far
//!   larger than the last-level cache, so layout matters.
//! * `sim-xshard` — 8 000 VMs in many small shards, one epoch per
//!   window, and every shard sends a few `u64` messages per epoch: the
//!   same `core` call, used so that lane swaps, barriers and the event
//!   queue dominate. Shows engine gains — and shows a bank "batching"
//!   gain that costs small banks.
//!
//! Timed rounds run on **one** worker thread: two threads on a shared
//! 2-core host measured the neighbours (57–64 M vm-windows/s, 11 %).

use std::sync::atomic::{AtomicU64, Ordering};

use volley_core::{AdaptationConfig, SamplerBank};
use volley_sim::{
    ClusterConfig, EngineConfig, EngineStats, EpochCtx, ShardId, ShardPlan, ShardWorker,
    ShardedEngine, SimDuration, SimTime,
};

use crate::alloc;
use crate::harness::{self, RunConfig, Stopwatch};
use crate::inputs::{Digest, FleetMetric, FLEET_THRESHOLD};
use crate::report::Outcome;
use crate::spans::{SpanId, Tracer};
use crate::stats::RoundTime;

/// The paper's default network-monitoring window.
const WINDOW_MICROS: u64 = 15_000_000;
/// Steady state is assumed from this window on: event-queue capacity,
/// lane spares and scratch pools have stabilised.
const PROBE_START_WINDOW: u64 = 16;
/// Top bit marks a message as a violation report (echoed by shard 0);
/// everything else is a neighbour note (never answered).
const REPORT_TAG: u64 = 1 << 63;

/// Sizes of one sim workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    servers: u32,
    vms_per_server: u32,
    servers_per_shard: u32,
    windows: u64,
    /// One epoch per window with cross-shard messages (`sim-xshard`),
    /// or a single message-free epoch (`sim-fleet`).
    messages: bool,
}

impl Shape {
    fn of(workload: &str, smoke: bool) -> Shape {
        match workload {
            // 5 000 servers × 40 = 200 000 VMs in 1 000 shards.
            "sim-fleet" => Shape {
                servers: if smoke { 250 } else { 5_000 },
                vms_per_server: 40,
                servers_per_shard: 5,
                windows: 300,
                messages: false,
            },
            // 500 servers × 16 = 8 000 VMs in 500 shards of 16: small
            // banks, 250 000 lanes to sweep at every barrier.
            "sim-xshard" => Shape {
                servers: 500,
                vms_per_server: 16,
                servers_per_shard: 1,
                windows: if smoke { 100 } else { 2_000 },
                messages: true,
            },
            other => unreachable!("{other} is not a sim workload"),
        }
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig::new(self.servers, self.vms_per_server, self.servers_per_shard)
    }

    fn vm_windows(&self) -> u64 {
        u64::from(self.servers) * u64::from(self.vms_per_server) * self.windows
    }
}

pub fn adaptation() -> AdaptationConfig {
    AdaptationConfig::builder()
        .error_allowance(0.01)
        .max_interval(8)
        .patience(5)
        .build()
        .expect("valid adaptation config")
}

/// Allocation-counter readings at the first handled probe-start window
/// and the first handled final window (first writer wins).
struct AllocProbe {
    start: AtomicU64,
    end: AtomicU64,
}

impl AllocProbe {
    fn new() -> AllocProbe {
        AllocProbe {
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(u64::MAX),
        }
    }

    fn mark(&self, window: u64, windows: u64) {
        let slot = if window == PROBE_START_WINDOW {
            &self.start
        } else if window + 1 == windows {
            &self.end
        } else {
            return;
        };
        let _ = slot.compare_exchange(
            u64::MAX,
            alloc::allocs(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Heap allocations between the two marks; `None` if a mark was
    /// never reached (horizon shorter than the probe window).
    fn steady_allocs(&self) -> Option<u64> {
        let (start, end) = (
            self.start.load(Ordering::Relaxed),
            self.end.load(Ordering::Relaxed),
        );
        (start != u64::MAX && end != u64::MAX).then(|| end.saturating_sub(start))
    }
}

/// What every shard of one round shares.
struct RoundEnv<'a> {
    metric: &'a FleetMetric,
    tracer: &'a Tracer,
    probe: AllocProbe,
    /// The round's `sim.engine_run` span.
    parent: SpanId,
    round: u32,
    shape: Shape,
    /// Reference mode: also evaluate every `(vm, window)` for ground
    /// truth and cross-check each alert against it.
    verify: bool,
}

/// One shard: a bank of monitors and each monitor's next due window, in
/// parallel arrays walked contiguously every window.
struct Slice<'a> {
    env: &'a RoundEnv<'a>,
    first_vm: u64,
    bank: SamplerBank,
    next_due: Vec<u64>,
    ops: u64,
    alerts: u64,
    digest: u64,
    msgs_in: u64,
    /// Reference mode only.
    truth_violations: u64,
    false_alerts: u64,
}

impl ShardWorker for Slice<'_> {
    type Event = u64; // window index
    type Msg = u64;

    fn handle(&mut self, ctx: &mut EpochCtx<'_, u64, u64>, time: SimTime, window: u64) {
        let env = self.env;
        let started = if env.tracer.enabled() {
            env.tracer.now_ns()
        } else {
            0
        };
        env.probe.mark(window, env.shape.windows);
        let mut violations = 0u64;
        for i in 0..self.bank.len() {
            let vm = self.first_vm + i as u64;
            if env.verify && env.metric.value(vm, window) > FLEET_THRESHOLD {
                self.truth_violations += 1;
            }
            if self.next_due[i] > window {
                continue;
            }
            let value = env.metric.value(vm, window);
            let outcome = self.bank.observe(i, window, value);
            self.ops += 1;
            if outcome.violation {
                violations += 1;
                if env.verify && value <= FLEET_THRESHOLD {
                    self.false_alerts += 1;
                }
            }
            self.digest = self
                .digest
                .wrapping_mul(0x0000_0100_0000_01B3)
                .wrapping_add(outcome.next_sample_tick ^ ((i as u64) << 40));
            self.next_due[i] = outcome.next_sample_tick.max(window + 1);
        }
        self.alerts += violations;
        if env.shape.messages {
            // Local-violation report to shard 0 (which echoes it), and a
            // note to the next shard: a deterministic handful per epoch.
            ctx.send(ShardId(0), REPORT_TAG | (window << 16) | violations);
            ctx.send(
                ShardId((ctx.shard().0 + 1) % ctx.shard_count()),
                self.digest & !REPORT_TAG,
            );
        }
        if window + 1 < env.shape.windows {
            ctx.schedule(time + SimDuration::from_micros(WINDOW_MICROS), window + 1);
        }
        env.tracer
            .record("core.handle", started, env.parent, env.round);
    }

    fn on_message(&mut self, ctx: &mut EpochCtx<'_, u64, u64>, from: ShardId, msg: u64) {
        self.msgs_in += 1;
        self.digest = self
            .digest
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(msg ^ u64::from(from.0));
        if ctx.shard().0 == 0 && msg & REPORT_TAG != 0 {
            ctx.send(from, msg & !REPORT_TAG);
        }
    }
}

/// Result of one engine run.
#[derive(Debug, Clone, Copy)]
struct SimRound {
    time: RoundTime,
    ops: u64,
    alerts: u64,
    /// Shard digests (decisions and messages) folded in shard order.
    digest: Digest,
    stats: EngineStats,
    steady_allocs: Option<u64>,
    truth_violations: u64,
    false_alerts: u64,
}

fn one_round(
    shape: Shape,
    metric: &FleetMetric,
    tracer: &Tracer,
    round: u32,
    threads: usize,
    verify: bool,
) -> SimRound {
    let plan = ShardPlan::by_coordinator_group(shape.cluster());
    let horizon = SimTime::from_micros(shape.windows * WINDOW_MICROS);
    let engine = ShardedEngine::new(if shape.messages {
        EngineConfig {
            threads,
            epoch: SimDuration::from_micros(WINDOW_MICROS),
            horizon,
        }
    } else {
        EngineConfig::message_free(threads, horizon)
    });
    let config = adaptation();
    let stopwatch = Stopwatch::start();
    let parent = tracer.open("sim.engine_run", crate::spans::NO_PARENT, round);
    let env = RoundEnv {
        metric,
        tracer,
        probe: AllocProbe::new(),
        parent,
        round,
        shape,
        verify,
    };
    let (slices, stats) = engine.run(
        &plan,
        0, // the samplers draw no engine randomness; the metric carries the seed
        |shard, ctx| {
            let build_started = if tracer.enabled() { tracer.now_ns() } else { 0 };
            let first_vm = plan.vms_of(shard).next().expect("every shard owns a VM").0;
            let count = plan.vms_of(shard).count();
            ctx.schedule(SimTime::ZERO, 0);
            let mut bank = SamplerBank::with_capacity(config, count);
            for _ in 0..count {
                bank.push(FLEET_THRESHOLD);
            }
            let slice = Slice {
                env: &env,
                first_vm: u64::from(first_vm),
                bank,
                next_due: vec![0; count],
                ops: 0,
                alerts: 0,
                digest: 0,
                msgs_in: 0,
                truth_violations: 0,
                false_alerts: 0,
            };
            tracer.record("sim.build", build_started, parent, round);
            slice
        },
        None,
    );
    tracer.close(parent);
    let time = stopwatch.stop();
    let mut digest = Digest::default();
    for slice in &slices {
        digest.push(slice.digest);
        digest.push(slice.msgs_in);
    }
    SimRound {
        time,
        ops: slices.iter().map(|s| s.ops).sum(),
        alerts: slices.iter().map(|s| s.alerts).sum(),
        digest,
        stats,
        steady_allocs: env.probe.steady_allocs(),
        truth_violations: slices.iter().map(|s| s.truth_violations).sum(),
        false_alerts: slices.iter().map(|s| s.false_alerts).sum(),
    }
}

/// Runs `sim-fleet` or `sim-xshard`.
pub fn run(workload: &str, config: &RunConfig) -> Outcome {
    let shape = Shape::of(workload, config.smoke);
    let vms = u64::from(shape.servers) * u64::from(shape.vms_per_server);
    let metric = FleetMetric::new(config.seed);
    let tracer = harness::new_tracer();
    let mut outcome = Outcome {
        input_digest: metric.digest(64, 64).0,
        ..Outcome::default()
    };

    // Set-up: the reference-oracle run (two threads, ground truth on)
    // and the warm-up round (one thread, as timed). Their digests must
    // agree: results never depend on the thread count.
    let reference = one_round(shape, &metric, &tracer, 0, 2, true);
    let warm = one_round(shape, &metric, &tracer, 0, 1, false);
    let same =
        |a: &SimRound, b: &SimRound| (a.ops, a.alerts, a.digest) == (b.ops, b.alerts, b.digest);
    outcome.check(same(&reference, &warm), || {
        format!(
            "threads 1 and 2 disagree: {} ops / {} alerts / {:?} vs {} / {} / {:?}",
            warm.ops, warm.alerts, warm.digest, reference.ops, reference.alerts, reference.digest
        )
    });
    outcome.check(reference.false_alerts == 0, || {
        format!("{} alerts outside the ground truth", reference.false_alerts)
    });
    outcome.check(reference.alerts <= reference.truth_violations, || {
        format!(
            "{} alerts > {} true violations",
            reference.alerts, reference.truth_violations
        )
    });
    let setup_s = config.started.elapsed().as_secs_f64();
    // Before any traced round: the span buffer must not count as the
    // fleet's memory.
    let fleet_heap_bytes = alloc::peak_bytes();

    let mut last = warm;
    let mut diverged = 0u64;
    let rounds = harness::run_rounds(config, &tracer, |round, tracer| {
        let result = one_round(shape, &metric, tracer, round + 1, 1, false);
        if !same(&result, &reference) {
            diverged += 1;
        }
        last = result;
        result.time
    });
    outcome.check(diverged == 0, || {
        format!("{diverged} timed rounds diverged from the reference")
    });
    outcome.check(last.steady_allocs == Some(0), || {
        format!(
            "steady-state windows allocated: {:?} (want Some(0))",
            last.steady_allocs
        )
    });

    let vm_windows = shape.vm_windows();
    outcome.rounds = rounds.count();
    outcome.attempted = vm_windows * u64::from(rounds.count());
    outcome.failed = vm_windows * diverged;
    rounds.report_end_to_end(
        &mut outcome,
        setup_s,
        vm_windows,
        reference.ops as f64 / vm_windows as f64,
        reference.alerts as f64 / reference.truth_violations.max(1) as f64,
    );
    if !config.trace {
        return outcome;
    }

    // Traced pass: shares from the spans, counters from `EngineStats`.
    let m = &mut outcome.metrics;
    let run = rounds.self_time("sim.engine_run");
    let share = |ns: u64| ns as f64 / run.total_ns.max(1) as f64;
    m.set(
        "core.handle_share",
        share(rounds.self_time("core.handle").total_ns),
    );
    m.set(
        "sim.build_share",
        share(rounds.self_time("sim.build").total_ns),
    );
    m.set("sim.engine_self_share", share(run.self_ns));
    m.set("core.due_share", reference.ops as f64 / vm_windows as f64);
    let epochs = last.stats.epochs.max(1);
    m.set("sim.epoch_us", rounds.round_s() * 1e6 / epochs as f64);
    m.set("sim.epochs", last.stats.epochs as f64);
    m.set("sim.lane_swaps", last.stats.lane_swaps as f64);
    m.set("sim.msgs_routed", last.stats.merges as f64);
    m.set("sim.arena_reuses", last.stats.arena_reuses as f64);
    m.set("sim.steals", last.stats.steals as f64);
    m.set("sim.steady_allocs", last.steady_allocs.unwrap_or(0) as f64);
    m.set("sim.bytes_per_vm", fleet_heap_bytes as f64 / vms as f64);
    // Ungated: recorded for the multi-core roadmap item. On a shared
    // 2-core host this mostly measures the neighbours.
    let two = one_round(shape, &metric, &tracer, 0, 2, false);
    m.set("sim.speedup_2t", rounds.round_s() / two.time.wall_s);
    rounds.report_traced_pass(&mut outcome, &tracer, vm_windows, setup_s);
    outcome
}
