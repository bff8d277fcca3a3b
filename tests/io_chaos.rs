//! Integration: storage faults degrade persistence, never detection.
//!
//! A mid-run ENOSPC storm (and a separate random-fault soak) hammers
//! every durability plane at once — the coordinator WAL and the sample
//! store — while the distributed runtime keeps monitoring. The alert schedule must come out bit-identical to a
//! fault-free run at the same seed, the degradation section of the
//! report must show the circuit breakers tripping and re-arming, and
//! recording must resume after the storm clears.
//!
//! Below the runtime, the WAL and the store are driven directly: every
//! sync policy replays every acknowledged record, a benign `FaultFs` is
//! indistinguishable from `StdFs`, and a sustained 20% error plan trips
//! the breakers without costing an acknowledged record.

use std::sync::Arc;

use volley::core::task::TaskSpec;
use volley::core::vfs::{CircuitBreaker, FaultFs, IoFaultPlan, StdFs, Vfs};
use volley::obs::{names, Obs};
use volley::runtime::checkpoint::{
    AppendOutcome, CoordinatorSnapshot, TickOutcome, Wal, WalRecord,
};
use volley::store::{Record, RecordKind, SampleRecorder, ScanRange, Store, TaskMeta};
use volley::TaskRunner;
use volley_runtime::{FaultPlan, WalSyncPolicy};

const MONITORS: usize = 5;
const TICKS: usize = 200;
const BURST_EVERY: usize = 50;

/// Error allowance 0 keeps every monitor at the default interval, so the
/// fault-free alert schedule is exact: one alert per burst tick.
fn spec() -> TaskSpec {
    TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.0)
        .max_interval(8)
        .patience(3)
        .build()
        .unwrap()
}

/// Quiet at ~20% of the local threshold; every 50th tick all monitors
/// spike together for an unambiguous ground-truth alert.
fn traces() -> Vec<Vec<f64>> {
    let local = 100.0;
    (0..MONITORS)
        .map(|m| {
            (0..TICKS)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    if t % BURST_EVERY == BURST_EVERY - 1 {
                        local * 1.4 + wobble
                    } else {
                        local * 0.2 + wobble
                    }
                })
                .collect()
        })
        .collect()
}

/// A scratch directory unique to this test binary invocation.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("volley-io-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta() -> TaskMeta {
    TaskMeta {
        monitors: MONITORS,
        global_threshold: 100.0 * MONITORS as f64,
        error_allowance: 0.0,
        ticks: TICKS as u64,
        seed: 7,
    }
}

/// Builds the runner every scenario shares: a checkpoint WAL.
fn runner(spec: &TaskSpec, dir: &std::path::Path, tag: &str) -> TaskRunner {
    TaskRunner::new(spec)
        .unwrap()
        .with_quarantine_after(3)
        .with_wal(dir.join(format!("{tag}.wal")), 20)
        .with_wal_sync(WalSyncPolicy::EveryN(8))
}

#[test]
fn enospc_storm_leaves_alerts_bit_identical_and_rearms() {
    let spec = spec();
    let traces = traces();
    let dir = scratch("enospc");

    // Fault-free baseline with the same sinks attached.
    let clean_store = Store::open(dir.join("store-clean")).unwrap();
    clean_store.write_meta(&meta()).unwrap();
    let clean_recorder = SampleRecorder::new(clean_store);
    let clean = runner(&spec, &dir, "clean")
        .with_recorder(clean_recorder.clone())
        .run(&traces)
        .unwrap();
    clean_recorder.flush();
    assert_eq!(clean.alerts, (TICKS / BURST_EVERY) as u64);
    assert!(!clean.degradation.any(), "no faults, no degradation");

    // Same seed, plus an ENOSPC storm covering ticks 60..120 on every
    // durability plane: the WAL through the runner's fault plan, the
    // sample store through a fault-wrapped VFS (the same split the CLI
    // uses).
    let io = IoFaultPlan::new(7).with_enospc_window(60, 60);
    let store_dir = dir.join("store-faulted");
    // Seal small segments often so the storm is felt within its window,
    // and probe on a short backoff so the re-arm lands well before the
    // run ends.
    let store = Store::open_on(Arc::new(FaultFs::new(io.clone())), &store_dir)
        .unwrap()
        .with_flush_limits(32, 16)
        .with_breaker(CircuitBreaker::with_backoff(2, 2, 8));
    store.write_meta(&meta()).unwrap();
    let recorder = SampleRecorder::new(store);
    let report = runner(&spec, &dir, "faulted")
        .with_fault_plan(FaultPlan::new(7).with_io_faults(io))
        .with_recorder(recorder.clone())
        .run(&traces)
        .unwrap();
    recorder.flush();

    // Detection is untouched: the alert schedule is bit-identical.
    assert_eq!(report.alert_ticks, clean.alert_ticks);
    assert_eq!(report.ticks, clean.ticks);

    // The storm was felt: breakers tripped, samples were shed, WAL
    // writes failed — and everything re-armed once space came back.
    let d = &report.degradation;
    assert!(d.any(), "degradation section must record the storm");
    assert!(d.wal_write_failures > 0, "WAL felt the storm: {d:?}");
    assert!(d.wal_trips >= 1 && d.wal_rearms >= 1, "WAL re-armed: {d:?}");
    assert!(d.store_shed_samples > 0, "store went lossy: {d:?}");
    assert!(
        d.store_trips >= 1 && d.store_rearms >= 1,
        "store re-armed: {d:?}"
    );
    assert!(!d.wal_degraded_at_end, "storm cleared: {d:?}");
    assert!(!d.store_degraded_at_end, "storm cleared: {d:?}");
    assert!(d.io_faults_injected > 0);

    // Recording resumed after the re-arm: post-storm ticks are on disk.
    let recovered = Store::open(&store_dir).unwrap();
    let last_tick = recovered
        .scan(&ScanRange::all())
        .unwrap()
        .map(|r| r.tick)
        .max()
        .expect("post-storm segments exist");
    assert!(
        last_tick >= 150,
        "recording resumed after the storm (last tick {last_tick})"
    );
}

/// The report counts every sink's injected faults — the WAL's and the
/// recorder's store's — and the published
/// `volley_io_faults_injected_total` agrees with it. The WAL runs on the
/// runner's own filesystem, so its share is read off a twin run whose
/// store sits on a plain filesystem: each sink's fault decisions depend
/// on its own operations only.
#[test]
fn io_fault_count_covers_every_sink_and_matches_its_counter() {
    let spec = spec();
    let traces = traces();
    let dir = scratch("fault-count");
    let io = IoFaultPlan::new(13)
        .with_error_rate(0.25)
        .with_sync_errors(0.25);
    let run = |tag: &str, vfs: Arc<dyn Vfs>| {
        let store = Store::open_on(vfs, dir.join(format!("store-{tag}")))
            .unwrap()
            .with_flush_limits(32, 16);
        let obs = Obs::new(true);
        let report = runner(&spec, &dir, tag)
            .with_fault_plan(FaultPlan::new(13).with_io_faults(io.clone()))
            .with_recorder(SampleRecorder::new(store))
            .with_obs(obs.clone())
            .run(&traces)
            .unwrap();
        let counters = obs.registry().snapshot(0).counters;
        (
            report,
            counters.get(names::IO_FAULTS_INJECTED_TOTAL).copied(),
        )
    };
    let store_fs = Arc::new(FaultFs::new(io.clone()));
    let (faulted, counter) = run("faulted", Arc::clone(&store_fs) as Arc<dyn Vfs>);
    let (twin, _) = run("twin", Arc::new(StdFs));

    let store_faults = store_fs.injected_faults();
    let runner_faults = twin.degradation.io_faults_injected;
    assert!(store_faults > 0, "the plan injected store faults");
    assert!(runner_faults > 0, "the plan injected WAL faults");
    assert_eq!(faulted.alert_ticks, twin.alert_ticks);
    assert_eq!(
        faulted.degradation.io_faults_injected,
        runner_faults + store_faults,
        "{:?}",
        faulted.degradation
    );
    assert_eq!(counter, Some(faulted.degradation.io_faults_injected));
}

#[test]
fn random_fault_soak_never_perturbs_detection() {
    let spec = spec();
    let traces = traces();
    let dir = scratch("soak");

    let clean = runner(&spec, &dir, "clean").run(&traces).unwrap();
    assert_eq!(clean.alerts, (TICKS / BURST_EVERY) as u64);

    // Torn, short, errored and unsynced writes at aggressive rates on
    // the WAL for the whole run.
    let io = IoFaultPlan::new(21)
        .with_error_rate(0.3)
        .with_short_writes(0.2)
        .with_torn_writes(0.2)
        .with_sync_errors(0.3);
    let report = runner(&spec, &dir, "faulted")
        .with_fault_plan(FaultPlan::new(21).with_io_faults(io))
        .run(&traces)
        .unwrap();

    assert_eq!(report.alert_ticks, clean.alert_ticks);
    assert!(report.degradation.io_faults_injected > 0);
}

/// A standby whose fresh log takes a torn write on its seed snapshot
/// keeps that log: the snapshot waits in the log's ring, the next
/// appends drain it to disk, and a second coordinator crash restores
/// every monitor from it instead of restarting them conservatively.
#[test]
fn a_torn_seed_write_keeps_the_successor_log() {
    let spec = spec();
    let traces = traces();
    let dir = scratch("torn-seed");
    let io = IoFaultPlan::new(1)
        .with_torn_writes(0.2)
        .with_short_writes(0.2);
    // Every log starts on a filesystem of its own: under this plan a
    // fresh log's seed write is torn.
    let seed = CoordinatorSnapshot {
        epoch: 0,
        tick: 40,
        next_update_tick: 50,
        allowances: Vec::new(),
        samplers: Vec::new(),
        multitask: None,
    };
    let probe = Wal::compact_to_on(
        Arc::new(FaultFs::new(io.clone())),
        dir.join("probe.wal"),
        Some(&seed),
    )
    .expect("creating the log succeeds");
    assert_eq!(probe.health().write_failures, 1, "the seed write is torn");
    assert_eq!(probe.health().buffered, 1, "the ring holds the seed");

    let plan = FaultPlan::new(1)
        .with_io_faults(io)
        .with_coordinator_crash(60)
        .with_coordinator_crash(100);
    let report = runner(&spec, &dir, "torn-seed")
        .with_standby(true)
        .with_fault_plan(plan)
        .run(&traces)
        .unwrap();
    assert_eq!(report.coordinator_failovers, 2);
    assert_eq!(
        (report.checkpoint_restores, report.conservative_restarts),
        (2 * MONITORS as u64, 0),
        "both failovers restore every monitor from a checkpoint"
    );
}

/// Appends tick records `0..records` to a fresh WAL at `path` through
/// `vfs` under `policy`; returns the ticks acknowledged
/// [`AppendOutcome::Persisted`] and how often the WAL's breaker tripped.
fn drive_wal(
    vfs: Arc<dyn Vfs>,
    path: &std::path::Path,
    policy: WalSyncPolicy,
    records: u64,
) -> (Vec<u64>, u64) {
    let mut wal = Wal::create_on(vfs, path).unwrap().with_sync_policy(policy);
    let acknowledged = (0..records)
        .filter(|&tick| matches!(wal.append(&tick_record(tick)), Ok(AppendOutcome::Persisted)))
        .collect();
    (acknowledged, wal.health().trips)
}

/// The tick record [`drive_wal`] appends at `tick`.
fn tick_record(tick: u64) -> WalRecord {
    WalRecord::Tick(TickOutcome {
        epoch: 1,
        tick,
        polled: tick.is_multiple_of(7),
        alerted: tick % 50 == 49,
        local_violations: (tick % 3) as u32,
    })
}

/// The ticks a replay of `path` restores, in log order.
fn replayed_ticks(path: &std::path::Path) -> Vec<u64> {
    let replay = Wal::replay(path).unwrap();
    assert_eq!(replay.records as usize, replay.tail.len(), "ticks only");
    replay.tail.iter().map(|o| o.tick).collect()
}

#[test]
fn every_sync_policy_and_a_benign_faultfs_replay_all_records() {
    const RECORDS: u64 = 2_000;
    let dir = scratch("policies");
    let all: Vec<u64> = (0..RECORDS).collect();
    for (name, policy) in [
        ("never", WalSyncPolicy::Never),
        ("on-snapshot", WalSyncPolicy::OnSnapshot),
        ("every-8", WalSyncPolicy::EveryN(8)),
        ("every-1", WalSyncPolicy::EveryN(1)),
    ] {
        let path = dir.join(format!("{name}.wal"));
        let (acknowledged, trips) = drive_wal(Arc::new(StdFs), &path, policy, RECORDS);
        assert_eq!(acknowledged, all, "{name}: every append acknowledged");
        assert_eq!(replayed_ticks(&path), all, "{name}: every record replays");
        assert_eq!(trips, 0, "{name}");
    }

    // All rates zero, no window: the fault layer must be a passthrough.
    let benign = FaultFs::new(IoFaultPlan::new(7));
    let injected = benign.stats();
    let path = dir.join("benign.wal");
    let (acknowledged, _) = drive_wal(Arc::new(benign), &path, WalSyncPolicy::EveryN(64), RECORDS);
    assert_eq!(injected.total(), 0, "a benign plan injects nothing");
    assert_eq!(acknowledged, all);
    assert_eq!(replayed_ticks(&path), all, "a benign FaultFs loses nothing");
}

#[test]
fn error_soak_trips_breakers_keeps_acknowledged_wal_and_seals_store() {
    const RECORDS: u64 = 2_000;
    let dir = scratch("error-soak");
    let plan = IoFaultPlan::new(21)
        .with_error_rate(0.2)
        .with_torn_writes(0.1);

    // WAL: faults cost unacknowledged records, never acknowledged ones,
    // and replay never invents or reorders.
    let wal_fs = FaultFs::new(plan.clone());
    let wal_faults = wal_fs.stats();
    let path = dir.join("soak.wal");
    let (acknowledged, trips) =
        drive_wal(Arc::new(wal_fs), &path, WalSyncPolicy::EveryN(1), RECORDS);
    assert!(wal_faults.total() > 0, "the plan injected WAL faults");
    assert!(trips >= 1, "sustained errors trip the WAL breaker");
    assert!(!acknowledged.is_empty(), "the soak is not a total outage");
    let replayed = replayed_ticks(&path);
    assert!(replayed.windows(2).all(|w| w[0] < w[1]), "{replayed:?}");
    assert!(replayed.iter().all(|t| *t < RECORDS));
    let mut cursor = replayed.iter();
    for tick in &acknowledged {
        assert!(cursor.any(|r| r == tick), "acknowledged tick {tick} lost");
    }

    // Store: the breaker trips and sheds, and what was sealed is a
    // scannable, uncorrupted subset once the filesystem heals.
    let store_fs = FaultFs::new(plan);
    let store_faults = store_fs.stats();
    let store_dir = dir.join("soak-store");
    let mut store = Store::open_on(Arc::new(store_fs), &store_dir)
        .unwrap()
        .with_flush_limits(64, u64::MAX);
    for tick in 0..RECORDS {
        let _ = store.append(Record {
            task: 0,
            monitor: 0,
            kind: RecordKind::Sample,
            tick,
            value: tick as f64,
        });
    }
    assert!(store_faults.total() > 0, "the plan injected store faults");
    assert!(
        store.health().trips >= 1,
        "sustained errors trip the store breaker"
    );
    drop(store);
    let healed = Store::open(&store_dir).unwrap();
    let sealed: Vec<Record> = healed.scan(&ScanRange::all()).unwrap().collect();
    assert!(!sealed.is_empty(), "segments sealed between faults survive");
    assert!(sealed.windows(2).all(|w| w[0].tick < w[1].tick));
    assert!(sealed
        .iter()
        .all(|r| r.tick < RECORDS && r.value == r.tick as f64));
}

/// A degraded WAL's probe writes its whole ring backlog and the new
/// record as one write, so one fault decision settles it: after an
/// ENOSPC storm leaves a long backlog, the log re-arms within a few
/// probes even while every write still fails at rate 0.2 — and the
/// drained log replays every record, in order.
#[test]
fn a_long_backlog_rearms_within_a_few_probes_under_a_steady_fault_rate() {
    const STORM_END: u64 = 70;
    const MAX_FAILED_PROBES: u64 = 6;
    let dir = scratch("backlog");
    let path = dir.join("backlog.wal");
    let plan = IoFaultPlan::new(5)
        .with_enospc_window(10, STORM_END - 10)
        .with_error_rate(0.2);
    let mut wal = Wal::create_on(Arc::new(FaultFs::new(plan)), &path)
        .unwrap()
        .with_sync_policy(WalSyncPolicy::Never);
    for tick in 0..STORM_END {
        let _ = wal.append(&tick_record(tick));
    }
    let storm = wal.health();
    assert!(storm.degraded, "the storm trips the breaker");
    assert!(storm.buffered >= 32, "a long backlog: {}", storm.buffered);

    // Every write attempted while degraded is a probe.
    let mut tick = STORM_END;
    while wal.health().degraded && tick < STORM_END + 1_000 {
        let _ = wal.append(&tick_record(tick));
        tick += 1;
    }
    let drained = wal.health();
    let failed_probes = drained.write_failures - storm.write_failures;
    assert_eq!(drained.rearms, storm.rearms + 1, "the log re-armed");
    assert!(
        failed_probes <= MAX_FAILED_PROBES,
        "{failed_probes} probes failed before one landed"
    );
    assert_eq!((drained.buffered, drained.lost), (0, 0));
    drop(wal);
    let all: Vec<u64> = (0..tick).collect();
    assert_eq!(replayed_ticks(&path), all, "the backlog drained in order");
}
