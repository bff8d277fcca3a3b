//! Cross-thread determinism of the sharded simulation engine and of a
//! fleet of isolated runtime tasks: for a fixed seed, results are
//! bit-identical no matter how many worker threads execute them. Thread
//! count may only change wall-clock time, never a single reported
//! number.

use volley::prelude::*;
use volley::runtime::{FaultPath, FaultPlan};
use volley::sim::{EngineConfig, ShardedEngine};
use volley_core::task::MonitorId;

const SEEDS: [u64; 3] = [1, 2, 3];
const THREADS: [usize; 3] = [1, 2, 8];

fn small_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        cluster: ClusterConfig::new(4, 6, 1),
        ticks: 200,
        seed,
        ..ScenarioConfig::default()
    }
}

fn family_scenario(family: TraceFamily, seed: u64) -> Scenario {
    Scenario::from_config(ScenarioConfig {
        family,
        ..small_config(seed)
    })
}

/// Allowance 0.01 rather than the scenario's default 0.05: the goldens
/// were captured at 0.01.
fn distributed_scenario(seed: u64) -> DistributedScenario {
    DistributedScenario::from_config(DistributedScenarioConfig {
        cluster: ClusterConfig::new(4, 4, 1),
        ticks: 150,
        seed,
        error_allowance: 0.01,
        ..DistributedScenarioConfig::default()
    })
}

#[test]
fn network_scenario_identical_across_thread_counts() {
    for seed in SEEDS {
        let scenario = Scenario::from_config(small_config(seed));
        let baseline = scenario.run(1);
        for threads in THREADS {
            let report = scenario.run(threads);
            assert_eq!(
                report, baseline,
                "network scenario diverged at seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn system_and_application_scenarios_identical_across_thread_counts() {
    let system = family_scenario(TraceFamily::System, 2);
    let application = family_scenario(TraceFamily::Application, 2);
    let system_baseline = system.run(1);
    let application_baseline = application.run(1);
    for threads in THREADS {
        assert_eq!(
            system.run(threads),
            system_baseline,
            "system scenario diverged at {threads} threads"
        );
        assert_eq!(
            application.run(threads),
            application_baseline,
            "application scenario diverged at {threads} threads"
        );
    }
}

#[test]
fn distributed_scenario_identical_across_thread_counts() {
    for seed in SEEDS {
        // Task size 5 over 4-VM shards: tasks straddle shard boundaries,
        // exercising the cross-shard telemetry merge.
        let scenario = distributed_scenario(seed);
        let baseline = scenario.run(1);
        for threads in THREADS {
            let report = scenario.run(threads);
            assert_eq!(
                report, baseline,
                "distributed scenario diverged at seed {seed}, {threads} threads"
            );
        }
    }
}

/// The engine's per-shard RNG streams are a function of (seed, shard)
/// alone: a worker that consumes randomness while exchanging cross-shard
/// messages still converges to the same state on every thread count.
#[test]
fn engine_rng_streams_identical_across_thread_counts() {
    struct Mixer {
        acc: u64,
    }
    impl volley::sim::ShardWorker for Mixer {
        type Event = u32;
        type Msg = u64;
        fn handle(
            &mut self,
            ctx: &mut volley::sim::EpochCtx<'_, Self::Event, Self::Msg>,
            time: SimTime,
            event: Self::Event,
        ) {
            use rand::Rng;
            let draw: u64 = ctx.rng().gen();
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(draw ^ u64::from(event));
            let shards = 4u32;
            let next = ShardId((ctx.shard().0 + 1) % shards);
            ctx.send(next, self.acc);
            if event < 40 {
                ctx.schedule(time + SimDuration::from_micros(10), event + 1);
            }
        }
        fn on_message(
            &mut self,
            _ctx: &mut volley::sim::EpochCtx<'_, Self::Event, Self::Msg>,
            from: ShardId,
            msg: Self::Msg,
        ) {
            self.acc = self.acc.wrapping_add(msg.rotate_left(from.0));
        }
    }

    let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(8, 2, 2));
    assert_eq!(plan.shard_count(), 4);
    for seed in SEEDS {
        let mut baseline: Option<Vec<u64>> = None;
        for threads in THREADS {
            let engine = ShardedEngine::new(EngineConfig {
                threads,
                epoch: SimDuration::from_micros(50),
                horizon: SimTime::from_micros(500),
            });
            let (workers, _) = engine.run(
                &plan,
                seed,
                |_, ctx| {
                    ctx.schedule(SimTime::ZERO, 0u32);
                    Mixer { acc: seed }
                },
                None,
            );
            let accs: Vec<u64> = workers.iter().map(|w| w.acc).collect();
            match &baseline {
                None => baseline = Some(accs),
                Some(expected) => assert_eq!(
                    &accs, expected,
                    "engine RNG diverged at seed {seed}, {threads} threads"
                ),
            }
        }
    }
}

/// A fleet of independent tasks: each a configured runner plus its
/// per-monitor traces.
type Fleet = Vec<(TaskRunner, Vec<Vec<f64>>)>;

/// Fleet-wide totals, folded in submission order.
#[derive(Debug, PartialEq)]
struct FleetSummary {
    tasks: usize,
    total_samples: u64,
    baseline_samples: u64,
    alerts: u64,
    polls: u64,
}

/// Runs the fleet's tasks with `TaskRunner::run`, split into contiguous
/// batches over `threads` scoped threads, and folds the reports in
/// submission order.
fn run_fleet(fleet: &Fleet, threads: usize) -> (Vec<RuntimeReport>, FleetSummary) {
    let batch = fleet.len().div_ceil(threads).max(1);
    let reports: Vec<RuntimeReport> = std::thread::scope(|scope| {
        let workers: Vec<_> = fleet
            .chunks(batch)
            .map(|tasks| {
                scope.spawn(move || {
                    let run = |(runner, traces): &(TaskRunner, Vec<Vec<f64>>)| {
                        runner.run(traces).expect("task run succeeds")
                    };
                    tasks.iter().map(run).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("worker thread"))
            .collect()
    });
    let summary = FleetSummary {
        tasks: reports.len(),
        total_samples: reports.iter().map(|r| r.total_samples).sum(),
        baseline_samples: reports
            .iter()
            .zip(fleet)
            .map(|(r, (_, traces))| r.ticks * traces.len() as u64)
            .sum(),
        alerts: reports.iter().map(|r| r.alerts).sum(),
        polls: reports.iter().map(|r| r.polls).sum(),
    };
    (reports, summary)
}

fn fleet_tasks(seed: u64, faults: bool) -> Fleet {
    let workload = HttpWorkloadConfig::builder()
        .seed(seed)
        .objects(9)
        .requests_per_tick(900.0)
        .build()
        .generate(120);
    (0..3)
        .map(|task| {
            let traces: Vec<Vec<f64>> = (0..3)
                .map(|m| workload.object_rate(task * 3 + m).to_vec())
                .collect();
            let threshold: f64 = traces
                .iter()
                .map(|t| selectivity_threshold(t, 5.0).unwrap())
                .sum();
            let spec = TaskSpec::builder(threshold)
                .monitors(3)
                .error_allowance(0.02)
                .max_interval(8)
                .build()
                .expect("valid spec");
            let runner = TaskRunner::new(&spec).expect("valid runner");
            let runner = if faults {
                // Tick-indexed faults and a seeded drop plan: deterministic
                // regardless of scheduling, unlike wall-clock stalls.
                let plan = FaultPlan::new(seed)
                    .with_drop_rate(FaultPath::ViolationReport, 0.2)
                    .with_duplication_rate(0.1)
                    .with_crash(MonitorId(1), 60);
                runner.with_fault_plan(plan)
            } else {
                runner
            };
            (runner, traces)
        })
        .collect()
}

#[test]
fn fleet_runner_identical_across_thread_caps() {
    for seed in SEEDS {
        let (baseline_reports, baseline_summary) = run_fleet(&fleet_tasks(seed, false), 1);
        for threads in THREADS {
            let (reports, summary) = run_fleet(&fleet_tasks(seed, false), threads);
            assert_eq!(
                reports, baseline_reports,
                "fleet reports diverged at seed {seed}, cap {threads}"
            );
            assert_eq!(
                summary, baseline_summary,
                "fleet summary diverged at seed {seed}, cap {threads}"
            );
        }
    }
}

#[test]
fn fleet_runner_identical_across_thread_caps_under_faults() {
    for seed in SEEDS {
        let (baseline_reports, baseline_summary) = run_fleet(&fleet_tasks(seed, true), 1);
        // Faults actually fired: the crashed monitor was quarantined.
        assert!(
            baseline_reports.iter().all(|r| r.quarantines >= 1),
            "expected the injected crash to register"
        );
        for threads in THREADS {
            let (reports, summary) = run_fleet(&fleet_tasks(seed, true), threads);
            assert_eq!(
                reports, baseline_reports,
                "faulted fleet reports diverged at seed {seed}, cap {threads}"
            );
            assert_eq!(
                summary, baseline_summary,
                "faulted fleet summary diverged at seed {seed}, cap {threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Old-engine golden pins.
//
// The digests below were captured from the previous serial
// collect-route-sort engine immediately before the lane-based rewrite
// landed, by hashing the `Debug` form of each report with FNV-1a 64.
// They pin the cut-over: the new engine must reproduce the old engine's
// output byte-for-byte, at every thread count, fault plan included.
// ---------------------------------------------------------------------------

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn network_scenario_matches_pre_rewrite_goldens() {
    const GOLDEN: [(u64, u64); 3] = [
        (1, 0xad22247ad9454af3),
        (2, 0x80f435f28533dd94),
        (3, 0x71e19e010bf98071),
    ];
    for (seed, expected) in GOLDEN {
        for threads in THREADS {
            let report = Scenario::from_config(small_config(seed)).run(threads);
            assert_eq!(
                fnv1a(&format!("{report:?}")),
                expected,
                "network scenario drifted from the pre-rewrite engine at seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn system_and_application_scenarios_match_pre_rewrite_goldens() {
    for threads in THREADS {
        let system = family_scenario(TraceFamily::System, 2).run(threads);
        assert_eq!(
            fnv1a(&format!("{system:?}")),
            0xc28d5b03614ecfdf,
            "system scenario drifted from the pre-rewrite engine at {threads} threads"
        );
        let application = family_scenario(TraceFamily::Application, 2).run(threads);
        assert_eq!(
            fnv1a(&format!("{application:?}")),
            0x6d60381d2b2892c2,
            "application scenario drifted from the pre-rewrite engine at {threads} threads"
        );
    }
}

#[test]
fn distributed_scenario_matches_pre_rewrite_goldens() {
    const GOLDEN: [(u64, u64); 3] = [
        (1, 0xf4d196cbf2c15a07),
        (2, 0xe20744ba97266abd),
        (3, 0x9ad280293478747f),
    ];
    for (seed, expected) in GOLDEN {
        for threads in THREADS {
            let report = distributed_scenario(seed).run(threads);
            assert_eq!(
                fnv1a(&format!("{report:?}")),
                expected,
                "distributed scenario drifted from the pre-rewrite engine at seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn fleet_runner_matches_pre_rewrite_goldens() {
    const GOLDEN_CLEAN: [(u64, u64); 3] = [
        (1, 0x1c71bb50c002a22c),
        (2, 0x6dd252597a6c5e0f),
        (3, 0x549fa96f02508311),
    ];
    const GOLDEN_FAULTED: [(u64, u64); 3] = [
        (1, 0x25402d9b54de4bb4),
        (2, 0x4dc7ad687bd5cf37),
        (3, 0x36dfe98fd9eb14bf),
    ];
    for (goldens, faults) in [(GOLDEN_CLEAN, false), (GOLDEN_FAULTED, true)] {
        for (seed, expected) in goldens {
            for threads in THREADS {
                let (reports, summary) = run_fleet(&fleet_tasks(seed, faults), threads);
                // Fleet tasks never gate, so the multi-task section is
                // always absent; masking it keeps the digests comparable
                // to the reports captured before `RuntimeReport` grew
                // the field.
                let repr = format!("{:?}", (reports, summary)).replace(", multitask: None", "");
                assert_eq!(
                    fnv1a(&repr),
                    expected,
                    "fleet (faults: {faults}) drifted from the pre-rewrite engine at seed {seed}, {threads} threads"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane delivery order == the old engine's sorted-merge order.
//
// The old barrier tagged every message with a per-source sequence number,
// gathered all (dst, src, seq) triples, and sorted each destination's
// inbox by (src, seq). The outbox barrier skips the sort: it walks
// sources in ascending order and pushes each source's messages onto
// their destinations' inboxes in send order, which is the same total
// order by construction. This property test drives arbitrary send
// patterns through the engine — 64 shards, three epochs, plus
// self-sends, a descending fan-out and a destination first sent to in a
// later epoch — checks the delivered order against the sort-based
// definition, and checks the engine's counters against theirs.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

const LANE_SHARDS: u32 = 64;
const LANE_EPOCHS: usize = 3;

#[derive(Debug, Default)]
struct LaneProbe {
    /// Per epoch, the (dst, payload) pairs to emit from this shard, in
    /// order.
    sends: Vec<Vec<(u32, u64)>>,
    /// (src, payload) pairs in the order the barrier delivered them.
    received: Vec<(u32, u64)>,
}

impl volley::sim::ShardWorker for LaneProbe {
    /// The epoch whose sends to emit.
    type Event = usize;
    type Msg = u64;
    fn handle(
        &mut self,
        ctx: &mut volley::sim::EpochCtx<'_, Self::Event, Self::Msg>,
        _time: SimTime,
        epoch: Self::Event,
    ) {
        for &(dst, payload) in &self.sends[epoch] {
            ctx.send(ShardId(dst), payload);
        }
    }
    fn on_message(
        &mut self,
        _ctx: &mut volley::sim::EpochCtx<'_, Self::Event, Self::Msg>,
        from: ShardId,
        msg: Self::Msg,
    ) {
        self.received.push((from.0, msg));
    }
}

proptest! {
    #[test]
    fn lane_delivery_order_equals_sorted_merge_order(
        random in prop::collection::vec(
            (0usize..LANE_EPOCHS, 0u32..LANE_SHARDS - 2, 0u32..LANE_SHARDS, 0u16..512),
            0..192,
        ),
    ) {
        // The last two shards send only what is scripted here, so every
        // case holds the three patterns whatever the random part drew.
        let mut sends = random;
        for epoch in 0..LANE_EPOCHS {
            // Descending fan-out to every shard, itself included.
            sends.extend((0..LANE_SHARDS).rev().map(|dst| (epoch, LANE_SHARDS - 1, dst, 0)));
        }
        // Destination 5 is first sent to in the last epoch, between two
        // lanes this shard has used before, and out of order.
        let late = LANE_SHARDS - 2;
        sends.extend([(0, late, 3, 1), (0, late, 9, 2)]);
        sends.extend([(2, late, 9, 3), (2, late, 5, 4), (2, late, 3, 5), (2, late, 5, 6)]);

        // Old-engine definition: per destination and epoch, sort by
        // (src, per-src send sequence). Payloads carry (src, seq) so the
        // expectation is computable without touching engine internals.
        let shards = LANE_SHARDS as usize;
        let mut per_shard_sends = vec![vec![Vec::new(); LANE_EPOCHS]; shards];
        let mut delivered = vec![vec![Vec::new(); shards]; LANE_EPOCHS];
        for (i, &(epoch, src, dst, tag)) in sends.iter().enumerate() {
            let payload = (u64::from(src) << 48) | (u64::from(tag) << 24) | i as u64;
            per_shard_sends[src as usize][epoch].push((dst, payload));
            delivered[epoch][dst as usize].push((src, payload));
        }
        let mut expected: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shards];
        for epoch in &mut delivered {
            for (dst, inbox) in epoch.iter_mut().enumerate() {
                // Stable sort by source: within a source, send order is
                // kept, exactly what the old per-source sequence numbers
                // encoded.
                inbox.sort_by_key(|&(src, _)| src);
                expected[dst].append(inbox);
            }
        }
        let lanes: std::collections::BTreeSet<(usize, u32, u32)> =
            sends.iter().map(|&(epoch, src, dst, _)| (epoch, src, dst)).collect();

        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(LANE_SHARDS, 1, 1));
        assert_eq!(plan.shard_count(), LANE_SHARDS);
        let mut baseline: Option<Vec<Vec<(u32, u64)>>> = None;
        for threads in [1usize, 4] {
            let engine = ShardedEngine::new(EngineConfig {
                threads,
                epoch: SimDuration::from_micros(50),
                horizon: SimTime::from_micros(50 * LANE_EPOCHS as u64),
            });
            let (workers, stats) = engine.run(
                &plan,
                7,
                |shard, ctx| {
                    for epoch in 0..LANE_EPOCHS {
                        ctx.schedule(SimTime::from_micros(50 * epoch as u64 + 10), epoch);
                    }
                    LaneProbe {
                        sends: per_shard_sends[shard.0 as usize].clone(),
                        received: Vec::new(),
                    }
                },
                None,
            );
            // The counters against their definitions: every send is one
            // delivery, and a lane swap is one (epoch, src, dst) triple.
            prop_assert_eq!(stats.merges, sends.len() as u64);
            prop_assert_eq!(stats.lane_swaps, lanes.len() as u64);
            prop_assert_eq!(stats.undelivered, 0);
            let received: Vec<Vec<(u32, u64)>> =
                workers.into_iter().map(|w| w.received).collect();
            prop_assert_eq!(&received, &expected, "lane order != sorted-merge order at {} threads", threads);
            match &baseline {
                None => baseline = Some(received),
                Some(b) => prop_assert_eq!(&received, b),
            }
        }
    }
}
