//! Integration tests of the `volley-analyze` job framework against real
//! store directories: a planted leader/follower alert cascade is
//! recovered at rank 1 however the segment boundaries fall, a job run is
//! byte-identical across repeated runs of the same directory, a task
//! whose alerts span several series scores as if they were one, and
//! corrupt or truncated segments never panic the framework — corruption
//! shrinks coverage, it never invents pairs.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use volley::analyze::{run_job, CorrelationMatrixConfig, CorrelationMatrixJob};
use volley::store::{Record, RecordKind, Store};

/// A unique on-disk scratch directory per case, so shrinking reruns
/// never collide with each other or with parallel test binaries.
fn case_dir(prefix: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{id}", std::process::id()))
}

fn alert(task: u32, tick: u64) -> Record {
    Record {
        task,
        monitor: 0,
        kind: RecordKind::Alert,
        tick,
        value: 1.0,
    }
}

/// Writes the planted cascade: task 0 (leader) alerts at tick `40k`,
/// task 1 (follower) echoes at `40k + 2`, task 2 spikes on an
/// incommensurate grid that mostly misses the leader's lag window.
/// `flush_every` controls where segment boundaries fall.
fn write_cascade(dir: &std::path::Path, cycles: u64, flush_every: usize) -> Store {
    let mut store = Store::open(dir)
        .expect("open store")
        .with_flush_limits(flush_every, u64::MAX);
    for k in 0..cycles {
        store.append(alert(0, 40 * k)).expect("append leader");
        store.append(alert(1, 40 * k + 2)).expect("append follower");
        store.append(alert(2, 17 * k + 9)).expect("append noise");
    }
    store.flush().expect("flush");
    store
}

fn job() -> CorrelationMatrixJob {
    CorrelationMatrixJob::new(CorrelationMatrixConfig {
        top_k: 5,
        lag_window: 2,
        min_support: 3,
        ..CorrelationMatrixConfig::default()
    })
}

#[test]
fn planted_pair_ranks_first_across_segment_boundaries() {
    // A flush limit incommensurate with the 3-records-per-cycle write
    // pattern scatters every cycle's alerts across segment files.
    for flush_every in [2usize, 7, 1000] {
        let dir = case_dir("volley-analyze-planted");
        let store = write_cascade(&dir, 30, flush_every);
        if flush_every < 90 {
            assert!(
                store.segments().expect("list segments").len() >= 2,
                "the small flush limit must split the history"
            );
        }
        let report = run_job(&store, job()).expect("job runs");
        assert_eq!(report.job, "correlation_matrix_v1");
        assert_eq!(report.records_scanned, 90);
        let matrix = &report.output;
        assert_eq!(matrix.tasks, 3);
        assert_eq!(matrix.alerts, 90);
        assert_eq!(matrix.truncated_tasks, 0);
        let top = matrix.pairs.first().expect("planted pair found");
        assert_eq!(
            (top.leader, top.follower),
            (0, 1),
            "flush_every={flush_every}: planted pair must rank first, got {:?}",
            matrix.pairs
        );
        assert_eq!(top.confidence, 1.0);
        assert_eq!(top.support, 30);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let dir = case_dir("volley-analyze-bytes");
    write_cascade(&dir, 25, 7);
    // Two fresh opens: nothing carried over but the directory itself.
    let run = || {
        let store = Store::open(&dir).expect("reopen store");
        let report = run_job(&store, job()).expect("job runs");
        (
            serde_json::to_string(&report.output).expect("serializable"),
            report,
        )
    };
    let (first_json, first) = run();
    let (second_json, second) = run();
    assert_eq!(first_json, second_json, "output bytes must not drift");
    assert_eq!(first, second);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_task_split_over_two_series_scores_as_one_series() {
    // Leader alerts at 1 and 10; follower alerts at 12 and 5, lag 2. Only
    // 12 has a leader alert in its window, so joint 1 of support 2. With
    // the follower's alerts under two monitors, the scan hands them over
    // as [12] then [5].
    let score = |follower_monitors: [u32; 2]| {
        let dir = case_dir("volley-analyze-series");
        let mut store = Store::open(&dir).expect("open store");
        store.append(alert(0, 1)).expect("append leader");
        store.append(alert(0, 10)).expect("append leader");
        for (monitor, tick) in follower_monitors.into_iter().zip([12, 5]) {
            store
                .append(Record {
                    monitor,
                    ..alert(1, tick)
                })
                .expect("append follower");
        }
        store.flush().expect("flush");
        let job = CorrelationMatrixJob::new(CorrelationMatrixConfig {
            lag_window: 2,
            min_support: 1,
            ..CorrelationMatrixConfig::default()
        });
        let matrix = run_job(&store, job).expect("job runs").output;
        std::fs::remove_dir_all(&dir).ok();
        matrix
    };
    let split = score([0, 5]);
    assert_eq!(split, score([0, 0]));
    let pair = split
        .pairs
        .iter()
        .find(|p| (p.leader, p.follower) == (0, 1))
        .expect("the 0 -> 1 pair qualifies");
    assert_eq!((pair.joint, pair.support), (1, 2));
    assert_eq!(pair.confidence, 0.5);
}

proptest! {
    /// Flipping any bit of any segment — or cutting a segment anywhere —
    /// never panics the framework, and whatever survives is sane: no
    /// more records than the intact history, no pair confidence outside
    /// [0, 1], support never below the configured floor.
    #[test]
    fn corrupt_segments_never_panic(
        cycles in 4u64..20,
        flush_every in 2usize..10,
        victim in 0usize..1 << 16,
        flip_byte in 0usize..1 << 16,
        flip_bit in 0u8..8,
        cut_ratio in 0.0f64..1.0,
        truncate in 0u8..2,
    ) {
        let dir = case_dir("volley-analyze-corrupt");
        let store = write_cascade(&dir, cycles, flush_every);
        let intact = run_job(&store, job()).expect("intact job runs");
        drop(store);

        let segments = Store::open(&dir).expect("reopen").segments().expect("list");
        prop_assert!(!segments.is_empty());
        let (_, path) = &segments[victim % segments.len()];
        let mut bytes = std::fs::read(path).expect("read segment");
        if truncate == 1 {
            bytes.truncate((bytes.len() as f64 * cut_ratio) as usize);
        } else if !bytes.is_empty() {
            let at = flip_byte % bytes.len();
            bytes[at] ^= 1 << flip_bit;
        }
        std::fs::write(path, &bytes).expect("write corrupted segment");

        let store = Store::open(&dir).expect("reopen survives corruption");
        let report = run_job(&store, job()).expect("corrupt content is not an IO error");
        prop_assert!(report.records_scanned <= intact.records_scanned);
        prop_assert!(report.output.alerts <= intact.output.alerts);
        for pair in &report.output.pairs {
            prop_assert!((0.0..=1.0).contains(&pair.confidence));
            prop_assert!(pair.support >= 3);
            prop_assert!(pair.joint <= pair.support);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
