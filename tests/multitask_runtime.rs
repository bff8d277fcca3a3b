//! End-to-end tests of the live §II.B multi-task suppression on the
//! in-process runtime: a planted leader/follower cascade yields a gate
//! that saves follower samples without missing its post-training
//! alerts, ungated tasks report exactly what a solo `TaskRunner`
//! reports (both are the one drive loop), and the
//! follower-gate state survives a coordinator crash/failover — the WAL
//! checkpoint round-trips the suppression counters bit-for-bit, so a
//! standby resumes pacing where the deposed primary stopped.

use std::sync::Arc;

use volley::core::correlation::CorrelationConfig;
use volley::core::task::TaskSpec;
use volley::core::vfs::{CircuitBreaker, FaultFs, IoFaultPlan};
use volley::obs::{names, Obs};
use volley::runtime::checkpoint::Wal;
use volley::runtime::{MultiTask, MultiTaskConfig, MultiTaskRunner, TaskRunner};
use volley::{SampleRecorder, Store};

fn spec() -> TaskSpec {
    TaskSpec::builder(100.0)
        .monitors(1)
        .error_allowance(0.05)
        .max_interval(4)
        .patience(2)
        .warmup_samples(2)
        .build()
        .expect("valid spec")
}

/// Violating (200 > 100) on `offset..offset + 8` of every 40-tick
/// period, calm otherwise.
fn burst_trace(ticks: u64, offset: u64) -> Vec<f64> {
    (0..ticks)
        .map(|t| {
            if (offset..offset + 8).contains(&(t % 40)) {
                200.0
            } else {
                5.0
            }
        })
        .collect()
}

/// Leader bursts first, the follower echoes two ticks later, a
/// bystander never violates.
fn cascade(ticks: u64) -> Vec<MultiTask> {
    vec![
        MultiTask::new(spec(), vec![burst_trace(ticks, 10)]),
        MultiTask::new(spec(), vec![burst_trace(ticks, 12)]),
        MultiTask::new(spec(), vec![vec![5.0; ticks as usize]]),
    ]
}

fn config(train_ticks: u64) -> MultiTaskConfig {
    MultiTaskConfig {
        correlation: CorrelationConfig {
            min_confidence: 0.8,
            min_support: 5,
            ..CorrelationConfig::default()
        },
        train_ticks,
    }
}

/// Every task records into one store: a run-level sink, published to
/// obs once however many tasks share it, while each task's report still
/// shows the shared store's state.
#[test]
fn a_shared_store_publishes_its_counters_once() {
    let dir = std::env::temp_dir().join(format!("volley-mt-shared-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = IoFaultPlan::new(5).with_enospc_window(100, 100);
    let store = Store::open_on(Arc::new(FaultFs::new(io)), &dir)
        .unwrap()
        .with_flush_limits(8, 4)
        .with_breaker(CircuitBreaker::with_backoff(2, 2, 8));
    let recorder = SampleRecorder::new(store);
    let obs = Obs::new(true);
    let tasks = cascade(600);
    let outcome = MultiTaskRunner::new(config(200))
        .expect("valid config")
        .with_recorder(recorder.clone())
        .with_obs(obs.clone())
        .run(&tasks)
        .expect("multi-task run");

    let own = recorder.health();
    assert!(
        own.lost > 0 && own.trips >= 1 && own.rearms >= 1,
        "the storm was felt and cleared: {own:?}"
    );
    let counters = obs.registry().snapshot(0).counters;
    for (name, total) in [
        (names::STORE_SHED_SAMPLES_TOTAL, own.lost),
        (names::STORE_BREAKER_TRIPS_TOTAL, own.trips),
        (names::STORE_BREAKER_REARMS_TOTAL, own.rearms),
    ] {
        assert_eq!(
            counters.get(name),
            Some(&total),
            "{name} over {} tasks",
            tasks.len()
        );
    }
    for report in &outcome.reports {
        let d = &report.degradation;
        assert_eq!(
            (d.store_shed_samples, d.store_trips, d.store_rearms),
            (own.lost, own.trips, own.rearms)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suppression_saves_follower_samples_without_missing_alerts() {
    let ticks = 600;
    let gated = MultiTaskRunner::new(config(200))
        .expect("valid config")
        .run(&cascade(ticks))
        .expect("gated run");
    // Training at least as long as the run = the ungated baseline.
    let ungated = MultiTaskRunner::new(config(ticks))
        .expect("valid config")
        .run(&cascade(ticks))
        .expect("ungated run");

    assert_eq!(gated.gates.len(), 1, "gates: {:?}", gated.gates);
    assert_eq!((gated.gates[0].follower, gated.gates[0].leader), (1, 0));
    assert!(ungated.gates.is_empty());
    assert!(gated.suppressed_samples > 0);
    assert!(
        gated.total_samples() < ungated.total_samples(),
        "suppression must save samples ({} vs {})",
        gated.total_samples(),
        ungated.total_samples()
    );
    // The gate costs no detections: every burst the ungated follower
    // alerts on, the gated follower alerts on too.
    assert_eq!(
        gated.reports[1].alerts, ungated.reports[1].alerts,
        "snap-back must preserve the follower's alerts"
    );
    // The leader keeps full fidelity (never gated, identical sampling).
    assert!(gated.reports[0].multitask.is_none());
    assert_eq!(
        gated.reports[0].total_samples,
        ungated.reports[0].total_samples
    );
}

#[test]
fn ungated_tasks_report_exactly_what_a_solo_runner_reports() {
    // Pure observation (training as long as the run): no gate ever
    // engages, so every task must fold to the report a solo TaskRunner
    // produces on the same spec and traces — field for field, including
    // the fencing/quarantine/recovery counters.
    let ticks = 300;
    let tasks = cascade(ticks);
    let outcome = MultiTaskRunner::new(config(ticks))
        .expect("valid config")
        .run(&tasks)
        .expect("observation run");
    assert!(outcome.gates.is_empty());
    assert_eq!(outcome.reports.len(), tasks.len());
    for (index, task) in tasks.iter().enumerate() {
        let solo = TaskRunner::new(&task.spec)
            .expect("valid runner")
            .run(&task.traces)
            .expect("solo run");
        assert_eq!(outcome.reports[index], solo, "task {index}");
    }
}

#[test]
fn gate_state_survives_checkpoint_round_trip() {
    let base = std::env::temp_dir().join(format!("volley-mt-roundtrip-{}", std::process::id()));
    let primary = base.join("primary");
    std::fs::create_dir_all(&primary).expect("create wal dir");
    let outcome = MultiTaskRunner::new(config(200))
        .expect("valid config")
        .with_wal_dir(&primary, 1)
        .run(&cascade(400))
        .expect("checkpointed run");
    let section = outcome.reports[1].multitask.expect("follower gated");

    // The "crash": all that remains of the coordinator is its WAL.
    let replay = Wal::replay(primary.join("task-1.wal")).expect("replay survives");
    let snapshot = replay.snapshot.expect("snapshot persisted");
    let persisted = snapshot.multitask.expect("gate state checkpointed");
    assert_eq!(persisted.flips, section.gate_flips);
    // The final tick's suppression lands after that tick's snapshot, so
    // the persisted counter may trail by at most one monitor-tick.
    assert!(
        persisted.suppressed <= section.suppressed_samples
            && persisted.suppressed + 1 >= section.suppressed_samples,
        "persisted {} vs live {}",
        persisted.suppressed,
        section.suppressed_samples
    );

    // Failover: the standby re-persists the recovered snapshot into its
    // own WAL; replaying that must yield the identical gate state.
    let standby = base.join("standby");
    std::fs::create_dir_all(&standby).expect("create standby dir");
    let mut wal = Wal::create(standby.join("task-1.wal")).expect("standby wal");
    wal.append_snapshot(&snapshot).expect("re-checkpoint");
    drop(wal);
    let restored = Wal::replay(standby.join("task-1.wal")).expect("standby replay");
    assert_eq!(
        restored.snapshot.expect("standby snapshot").multitask,
        Some(persisted),
        "gate state must round-trip bit-for-bit"
    );
    std::fs::remove_dir_all(&base).ok();
}
