//! Property tests of the sample-store segment codec: arbitrary record
//! sets — including NaN and infinite payloads — survive an
//! encode/decode round trip bit-for-bit, and the reader never panics on
//! truncated or bit-flipped segments. Corruption can at worst shrink
//! what a scan returns (the truncated-tail rule), never crash it or
//! invent records. A live [`Store`] driven through a fault-injecting
//! filesystem upholds the same contract: injected write faults never
//! panic recovery and never lose a record covered by a successful
//! flush. A scan of a damaged store returns exactly what each segment's
//! reader trusts, merged in order. One fixed-input case beside the
//! properties pins what the codec is *for*: a realistic recording
//! compresses at least 2× and scans back exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use volley::core::vfs::{CircuitBreaker, FaultFs, IoFaultPlan};
use volley::store::{encode_segment, Record, RecordKind, ScanRange, SegmentReader, Store};

/// A unique on-disk scratch directory per proptest case, so shrinking
/// reruns never collide with each other or with parallel test binaries.
fn case_dir(prefix: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{id}", std::process::id()))
}

/// Payload classes the XOR codec must carry bit-exactly; mixed into
/// every generated record set so NaN/inf coverage never depends on the
/// random bits happening to form one.
const SPECIALS: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    f64::MIN_POSITIVE / 2.0, // subnormal
    f64::MAX,
];

/// Builds a valid record set from raw generator output: ticks are the
/// element index (unique per series by construction) and values are
/// arbitrary `f64` bit patterns — with the special-value table woven in
/// — so every payload class rides through the XOR codec.
fn build_records(raw: &[(u8, u8, u64)]) -> Vec<Record> {
    raw.iter()
        .enumerate()
        .map(|(i, &(series, kind, bits))| Record {
            task: u32::from(series % 2),
            monitor: u32::from(series / 2),
            kind: RecordKind::ALL[usize::from(kind) % RecordKind::ALL.len()],
            tick: i as u64,
            value: if i % 5 == 4 {
                SPECIALS[(i / 5) % SPECIALS.len()]
            } else {
                f64::from_bits(bits)
            },
        })
        .collect()
}

/// Bit-exact record comparison (`PartialEq` would treat NaN ≠ NaN).
fn same_record(a: &Record, b: &Record) -> bool {
    a.sort_key() == b.sort_key() && a.value.to_bits() == b.value.to_bits()
}

/// The store's production shape — monotone ticks per series, AR(1)
/// system-metric values quantized to the 2⁻⁷ ≈ 0.01 grid a fixed-point
/// agent encoding ships — must seal to at most half the 16 B/record of
/// a naive tick+value row format, and a scan of the sealed store must
/// return exactly what was appended, twice over.
#[test]
fn sysmetrics_recording_compresses_2x_and_scans_back_exactly() {
    const MONITORS: usize = 4;
    const TICKS: usize = 4_000;
    const QUANT: f64 = 128.0;
    let generator = volley::traces::sysmetrics::SystemMetricsGenerator::new(20_130_708);
    let mut appended = Vec::with_capacity(MONITORS * TICKS);
    for monitor in 0..MONITORS {
        let trace = generator.trace(monitor / 66, monitor % 66, TICKS);
        appended.extend(trace.iter().enumerate().map(|(tick, v)| Record {
            task: 0,
            monitor: monitor as u32,
            kind: RecordKind::Sample,
            tick: tick as u64,
            value: (v * QUANT).round() / QUANT,
        }));
    }

    let dir = case_dir("volley-store-ratio");
    let mut store = Store::open(&dir).unwrap();
    // Tick-major, as a live fleet appends.
    for tick in 0..TICKS {
        for monitor in 0..MONITORS {
            store.append(appended[monitor * TICKS + tick]).unwrap();
        }
    }
    store.flush().unwrap();

    let stored_bytes: u64 = store
        .segments()
        .unwrap()
        .iter()
        .map(|(_, path)| std::fs::metadata(path).unwrap().len())
        .sum();
    let ratio = (appended.len() * 16) as f64 / stored_bytes as f64;
    assert!(ratio >= 2.0, "compression {ratio:.2}x below 2x");

    let scan = || -> Vec<Record> { store.scan(&ScanRange::all()).unwrap().collect() };
    let mut first = scan();
    assert_eq!(first, scan(), "two scans of the sealed store agree");
    first.sort_by_key(|r| (r.monitor, r.tick));
    assert_eq!(first, appended, "scan returns exactly what was appended");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// encode → decode is the identity on the sorted record set, for
    /// every `f64` bit pattern.
    #[test]
    fn segment_round_trips_arbitrary_values(
        raw in prop::collection::vec((0u8..4, 0u8..255, 0u64..u64::MAX), 0..300),
    ) {
        let mut records = build_records(&raw);
        let bytes = encode_segment(&records);
        let reader = SegmentReader::open(&bytes);
        prop_assert!(!reader.truncated());

        records.sort_by_key(Record::sort_key);
        let decoded = reader.records();
        prop_assert_eq!(decoded.len(), records.len());
        for (d, r) in decoded.iter().zip(&records) {
            prop_assert!(same_record(d, r), "decoded {d:?}, appended {r:?}");
        }
    }

    /// Cutting a segment anywhere never panics and never invents
    /// records: whatever survives is a prefix of the full decode.
    #[test]
    fn truncated_segment_never_panics(
        raw in prop::collection::vec((0u8..4, 0u8..255, 0u64..u64::MAX), 1..200),
        cut_ratio in 0.0f64..1.0,
    ) {
        let records = build_records(&raw);
        let bytes = encode_segment(&records);
        let full = SegmentReader::open(&bytes).records();

        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        let reader = SegmentReader::open(&bytes[..cut]);
        let decoded = reader.records();
        prop_assert!(decoded.len() <= full.len());
        for (d, r) in decoded.iter().zip(&full) {
            prop_assert!(same_record(d, r), "truncation reordered records");
        }
    }

    /// Flipping any single bit never panics, and every record that still
    /// decodes is bit-identical to one the writer appended — the CRC
    /// framing turns corruption into omission, never into wrong data.
    #[test]
    fn bit_flipped_segment_never_panics(
        raw in prop::collection::vec((0u8..4, 0u8..255, 0u64..u64::MAX), 1..200),
        flip_byte in 0usize..1 << 16,
        flip_bit in 0u8..8,
    ) {
        let records = build_records(&raw);
        let mut bytes = encode_segment(&records);
        let full = SegmentReader::open(&bytes).records();
        let flip_byte = flip_byte % bytes.len();
        bytes[flip_byte] ^= 1 << flip_bit;

        let reader = SegmentReader::open(&bytes);
        let decoded = reader.records();
        prop_assert!(decoded.len() <= full.len());
        for d in &decoded {
            prop_assert!(
                full.iter().any(|r| same_record(d, r)),
                "corruption invented record {d:?}"
            );
        }
    }

    /// A scan of a damaged store — segments with torn tails, flipped
    /// bits and indexes rebuilt from their chunks — yields exactly the
    /// records each segment's reader trusts, merged in
    /// `(task, monitor, kind, tick)` order with ties in segment order.
    #[test]
    fn scan_matches_a_merge_of_segment_readers(
        raw in prop::collection::vec((0u8..6, 0u8..3, 0u64..48, 0u64..u64::MAX), 1..400),
        damage in prop::collection::vec((0u8..4, 0u64..u64::MAX), 8..9),
        filter in (0u8..3, 0u8..4, 0u64..24, 0u64..48),
    ) {
        let dir = case_dir("volley-prop-scan");
        // Few series over few ticks, several kinds: duplicate
        // `(key, tick)` pairs within and across segments.
        let mut store = Store::open(&dir).unwrap().with_flush_limits(53, u64::MAX);
        for &(series, kind, tick, bits) in &raw {
            store.append(Record {
                task: u32::from(series % 2),
                monitor: u32::from(series / 2),
                kind: RecordKind::ALL[usize::from(kind)],
                tick,
                value: f64::from_bits(bits),
            }).unwrap();
        }
        store.flush().unwrap();
        let segments = store.segments().unwrap();
        for ((_, path), &(how, at)) in segments.iter().zip(&damage) {
            let mut bytes = std::fs::read(path).unwrap();
            let at = (at % bytes.len() as u64) as usize;
            match how {
                0 => bytes.truncate(at),                     // torn tail
                1 => bytes[at] ^= 1 << (at % 8),             // flipped bit
                2 => *bytes.last_mut().unwrap() ^= 0x10,     // bad index: rebuilt
                _ => {}
            }
            std::fs::write(path, bytes).unwrap();
        }

        let (task, kind, from, span) = filter;
        let mut range = ScanRange::all().from(from).to(from + span);
        if task < 2 {
            range = range.task(u32::from(task));
        }
        if let Some(&kind) = RecordKind::ALL.get(usize::from(kind)) {
            range = range.kind(kind);
        }
        // The reference: every segment's trusted records, in sequence
        // order, then one stable sort (ties stay in segment order).
        let mut expect: Vec<Record> = Vec::new();
        for (_, path) in &segments {
            let bytes = std::fs::read(path).unwrap();
            expect.extend(SegmentReader::open(&bytes).records().into_iter().filter(|r| range.matches(r)));
        }
        expect.sort_by_key(Record::sort_key);
        let got: Vec<Record> = store.scan(&range).unwrap().collect();
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(same_record(g, e), "scanned {g:?}, reader trusts {e:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..512),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let reader = SegmentReader::open(&bytes);
        let _ = reader.records();
        let _ = reader.record_count();
    }

    /// A live store driven through a fault-injecting filesystem — torn,
    /// short and errored segment writes, an optional ENOSPC storm —
    /// never panics, and every record covered by a successful flush is
    /// still scannable after recovery on a clean filesystem. Faults may
    /// shed unflushed records (that is the degraded mode working), never
    /// flushed ones.
    #[test]
    fn faulted_store_never_loses_flushed_records(
        seed in 0u64..10_000,
        error_rate in 0.0f64..0.6,
        short_rate in 0.0f64..0.6,
        torn_rate in 0.0f64..0.6,
        enospc_from in 0u64..64,
        enospc_ticks in 0u64..32, // 0 = no ENOSPC storm
        count in 1u64..96,
    ) {
        let dir = case_dir("volley-prop-store");
        let mut plan = IoFaultPlan::new(seed)
            .with_error_rate(error_rate)
            .with_short_writes(short_rate)
            .with_torn_writes(torn_rate);
        if enospc_ticks > 0 {
            plan = plan.with_enospc_window(enospc_from, enospc_ticks);
        }
        let mut store = Store::open_on(Arc::new(FaultFs::new(plan)), &dir)
            .unwrap()
            .with_flush_limits(8, u64::MAX)
            .with_breaker(CircuitBreaker::with_backoff(2, 1, 4));

        // `accepted` holds every record the store took into its buffer;
        // whenever the buffer empties the sealed set catches up to it.
        let mut accepted: Vec<u64> = Vec::new();
        let mut sealed = 0usize;
        for t in 0..count {
            let shed_before = store.health().lost;
            let _ = store.append(Record {
                task: 0,
                monitor: 0,
                kind: RecordKind::ALL[(t % RecordKind::ALL.len() as u64) as usize],
                tick: t,
                value: t as f64,
            });
            if store.health().lost == shed_before {
                accepted.push(t);
            }
            if store.buffered() == 0 {
                sealed = accepted.len();
            }
        }
        if store.flush().is_ok() {
            sealed = accepted.len();
        }
        drop(store);

        // Recover on the real filesystem: scanning what the faulted
        // writer left behind must yield every sealed record.
        let recovered = Store::open(&dir).unwrap();
        let ticks: Vec<u64> = recovered
            .scan(&ScanRange::all())
            .unwrap()
            .map(|r| r.tick)
            .collect();
        for t in &accepted[..sealed] {
            prop_assert!(
                ticks.contains(t),
                "flushed tick {t} lost; recovered {ticks:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
