//! Property tests of the durability layer: every snapshot type survives a
//! `to_snapshot`/`from_snapshot`/serialize round trip, WAL records
//! round-trip through their CRC framing, and the WAL decoder never panics
//! on truncated or bit-flipped input — corruption can at worst shrink
//! what recovery restores, never crash it. A live [`Wal`] driven through
//! a fault-injecting filesystem upholds the same contract end to end:
//! torn, short, errored and unsynced writes never panic recovery and
//! never lose a record whose append was acknowledged as persisted.
//!
//! Snapshots and WAL payloads are JSON written and read by the serde
//! stand-in's streaming path; [`differential::check`] holds it to the
//! `Value`-tree path on each of them (same bytes, and the same verdict on
//! every corruption), so logs written before the streaming path existed
//! replay unchanged.

#[path = "../vendor/serde_json/tests/differential/mod.rs"]
mod differential;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use volley::core::snapshot::{DeltaSnapshot, SamplerSnapshot, StatsSnapshot};
use volley::core::stats::{DeltaTracker, OnlineStats};
use volley::core::vfs::{CircuitBreaker, FaultFs, IoFaultPlan};
use volley::core::{AdaptationConfig, AdaptiveSampler, StatsKind};
use volley::runtime::checkpoint::{
    decode_records, encode_record, AppendOutcome, CoordinatorSnapshot, MultitaskSnapshot,
    TickOutcome, Wal, WalRecord, WalSyncPolicy,
};

/// A unique on-disk scratch directory per proptest case, so shrinking
/// reruns never collide with each other or with parallel test binaries.
fn case_dir(prefix: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{id}", std::process::id()))
}

/// A sampler grown through real observations, so its snapshot satisfies
/// every invariant the restore path round-trips exactly.
fn grown_sampler(stats: StatsKind, threshold: f64, err: f64, steps: u64) -> AdaptiveSampler {
    let cfg = AdaptationConfig::builder()
        .error_allowance(0.05)
        .max_interval(8)
        .patience(3)
        .warmup_samples(3)
        .stats(stats)
        .build()
        .unwrap();
    let mut sampler = AdaptiveSampler::new(cfg, threshold);
    sampler.set_error_allowance(err);
    let mut tick = 0u64;
    for i in 0..steps {
        let obs = sampler.observe(tick, (i % 11) as f64);
        tick = obs.next_sample_tick.max(tick + 1);
    }
    // Drain the §IV-B period aggregates: snapshots deliberately exclude
    // them, so equality after restore requires an empty period.
    sampler.drain_period_report();
    sampler
}

fn tick_record(epoch: u64, tick: u64, violations: u32) -> WalRecord {
    WalRecord::Tick(TickOutcome {
        epoch,
        tick,
        polled: violations > 0,
        alerted: violations > 2,
        local_violations: violations,
    })
}

fn snapshot_record(epoch: u64, tick: u64, samplers: Vec<Option<SamplerSnapshot>>) -> WalRecord {
    let n = samplers.len();
    WalRecord::Snapshot(CoordinatorSnapshot {
        epoch,
        tick,
        next_update_tick: tick + 100,
        allowances: vec![0.01; n],
        samplers,
        multitask: tick.is_multiple_of(2).then_some(MultitaskSnapshot {
            engaged: tick.is_multiple_of(4),
            flips: tick / 3,
            suppressed: tick,
        }),
    })
}

proptest! {
    /// `OnlineStats` → snapshot → restore is the identity.
    #[test]
    fn stats_snapshot_round_trips(
        values in prop::collection::vec(-1e6f64..1e6, 0..64),
        restart_after in 2u32..10_000,
    ) {
        let mut stats = OnlineStats::with_restart_after(restart_after);
        for v in &values {
            stats.update(*v);
        }
        let snap = stats.to_snapshot();
        prop_assert_eq!(OnlineStats::from_snapshot(&snap), stats);
        // And the snapshot itself survives serialization.
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, snap);
        differential::check(&snap);
    }

    /// `DeltaTracker` round-trips, including the cached last sample.
    #[test]
    fn delta_snapshot_round_trips(
        samples in prop::collection::vec((0u64..1_000_000, -1e6f64..1e6), 0..32),
    ) {
        let mut tracker = DeltaTracker::new();
        let mut last_tick = None;
        for (tick, value) in &samples {
            // Ticks must advance for δ̂ normalization to stay sane.
            let tick = last_tick.map_or(*tick % 1000, |t: u64| t + 1 + *tick % 1000);
            tracker.record(tick, *value);
            last_tick = Some(tick);
        }
        let snap = tracker.to_snapshot();
        prop_assert_eq!(DeltaTracker::from_snapshot(&snap), tracker);
        let json = serde_json::to_string(&snap).unwrap();
        let back: DeltaSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, snap);
        differential::check(&snap);
    }

    /// A sampler under the exponentially-forgetting estimator → snapshot →
    /// restore is the identity: its moments travel where the windowed
    /// ones do, and `λ` travels in the configuration.
    #[test]
    fn ewma_sampler_snapshot_round_trips(
        lambda in 0.001f64..1.0,
        steps in 0u64..80,
    ) {
        let sampler = grown_sampler(StatsKind::Ewma { lambda }, 100.0, 0.05, steps);
        let snap = sampler.to_snapshot();
        prop_assert_eq!(AdaptiveSampler::from_snapshot(&snap), sampler);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SamplerSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, snap);
        differential::check(&snap);
        differential::check(&snap);
    }

    /// A sampler grown through arbitrary-length real runs round-trips its
    /// full adaptation state.
    #[test]
    fn sampler_snapshot_round_trips(
        threshold in 1.0f64..1e6,
        err in 0.0f64..0.2,
        steps in 0u64..80,
    ) {
        let sampler = grown_sampler(StatsKind::WindowedRestart, threshold, err, steps);
        let snap = sampler.to_snapshot();
        prop_assert_eq!(AdaptiveSampler::from_snapshot(&snap), sampler);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SamplerSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, snap);
        differential::check(&snap);
        differential::check(&snap);
    }

    /// A well-formed WAL stream decodes back to exactly the records that
    /// were appended, with the latest snapshot winning and only the ticks
    /// behind it in the tail.
    #[test]
    fn wal_streams_round_trip(
        epoch in 0u64..1000,
        ticks_before in 0u64..8,
        ticks_after in 0u64..8,
        steps in 0u64..40,
    ) {
        let mut bytes = Vec::new();
        for t in 0..ticks_before {
            bytes.extend(encode_record(&tick_record(epoch, t, (t % 4) as u32)));
        }
        let sampler = grown_sampler(StatsKind::WindowedRestart, 100.0, 0.01, steps);
        let snap = snapshot_record(epoch, ticks_before, vec![Some(sampler.to_snapshot()), None]);
        bytes.extend(encode_record(&snap));
        for t in 0..ticks_after {
            bytes.extend(encode_record(&tick_record(epoch, ticks_before + 1 + t, 0)));
        }

        differential::check(&snap);
        differential::check(&tick_record(epoch, ticks_before, ticks_after as u32));
        // A record's payload is the plain encoding behind the frame header.
        prop_assert_eq!(&encode_record(&snap)[8..], &serde_json::to_vec(&snap).unwrap()[..]);

        let replay = decode_records(&bytes);
        prop_assert!(!replay.truncated);
        prop_assert_eq!(replay.records, ticks_before + 1 + ticks_after);
        prop_assert_eq!(replay.valid_len, bytes.len());
        let restored = replay.snapshot.expect("snapshot survives");
        prop_assert_eq!(restored.tick, ticks_before);
        prop_assert_eq!(restored.samplers[0], Some(sampler.to_snapshot()));
        prop_assert_eq!(restored.samplers[1], None);
        // Only post-snapshot ticks are newer than the checkpoint horizon.
        prop_assert_eq!(replay.tail.len() as u64, ticks_after);
    }

    /// Truncating a valid stream anywhere never panics and never
    /// *invents* records: the replay is a prefix of the full one.
    #[test]
    fn truncated_wal_never_panics(
        records in 1u64..8,
        cut_ratio in 0.0f64..1.0,
    ) {
        let mut bytes = Vec::new();
        for t in 0..records {
            bytes.extend(encode_record(&tick_record(1, t, (t % 3) as u32)));
        }
        let full = decode_records(&bytes);
        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        let replay = decode_records(&bytes[..cut]);
        prop_assert!(replay.records <= full.records);
        prop_assert!(replay.valid_len <= cut);
        if cut < bytes.len() {
            // Whole records decode; the torn tail is flagged unless the
            // cut landed exactly on a record boundary.
            prop_assert_eq!(replay.truncated, replay.valid_len < cut);
        }
    }

    /// Flipping any single bit anywhere in the stream never panics, and
    /// everything *before* the corrupted record still replays (the
    /// truncated-tail rule).
    #[test]
    fn bit_flipped_wal_never_panics(
        records in 1u64..8,
        flip_byte in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for t in 0..records {
            bytes.extend(encode_record(&tick_record(2, t, 1)));
            boundaries.push(bytes.len());
        }
        let flip_byte = flip_byte % bytes.len();
        bytes[flip_byte] ^= 1 << flip_bit;

        let replay = decode_records(&bytes);
        // Records wholly before the flipped byte are untouched; the CRC
        // guarantees nothing *after* the flip decodes as valid data.
        let intact = boundaries.iter().filter(|&&b| b <= flip_byte).count() - 1;
        prop_assert!(replay.records >= intact as u64);
        for (i, outcome) in replay.tail.iter().enumerate() {
            if i < intact {
                prop_assert_eq!(outcome.tick, i as u64);
            }
        }
    }

    /// Arbitrary garbage bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..256),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = decode_records(&bytes);
    }

    /// A live WAL driven through a fault-injecting filesystem — torn
    /// writes, short writes, clean EIO, failed fsyncs, an optional
    /// ENOSPC storm — never panics, and under a sync-every-append
    /// policy every record whose append was acknowledged
    /// [`AppendOutcome::Persisted`] survives replay in order. Faults may
    /// cost *unacknowledged* records, never acknowledged ones.
    #[test]
    fn faulted_wal_never_loses_persisted_records(
        seed in 0u64..10_000,
        error_rate in 0.0f64..0.6,
        short_rate in 0.0f64..0.6,
        torn_rate in 0.0f64..0.6,
        sync_rate in 0.0f64..0.6,
        enospc_from in 0u64..32,
        enospc_ticks in 0u64..16, // 0 = no ENOSPC storm
        records in 1u64..48,
    ) {
        let dir = case_dir("volley-prop-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faulted.wal");
        let mut plan = IoFaultPlan::new(seed)
            .with_error_rate(error_rate)
            .with_short_writes(short_rate)
            .with_torn_writes(torn_rate)
            .with_sync_errors(sync_rate);
        if enospc_ticks > 0 {
            plan = plan.with_enospc_window(enospc_from, enospc_ticks);
        }
        let mut wal = Wal::create_on(Arc::new(FaultFs::new(plan)), &path)
            .unwrap()
            .with_sync_policy(WalSyncPolicy::EveryN(1))
            .with_breaker(CircuitBreaker::with_backoff(2, 1, 4));
        let mut persisted = Vec::new();
        for t in 0..records {
            let record = tick_record(1, t, (t % 3) as u32);
            if let Ok(AppendOutcome::Persisted) = wal.append(&record) {
                persisted.push(t);
            }
        }
        drop(wal);

        // Recovery reads the real bytes the faulted writes left behind.
        let replay = Wal::replay(&path).unwrap();
        let replayed: Vec<u64> = replay.tail.iter().map(|o| o.tick).collect();
        let mut cursor = replayed.iter();
        for t in &persisted {
            prop_assert!(
                cursor.any(|r| r == t),
                "persisted tick {t} lost; replay holds {replayed:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
