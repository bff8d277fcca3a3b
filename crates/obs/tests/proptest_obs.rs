//! Property tests for the obs subsystem: histogram bucketing is
//! monotone and lossless in count, snapshot merging is associative and
//! commutative, and the Prometheus text exposition survives an
//! encode→parse round trip for arbitrary instrument contents. The exact
//! snapshot round trip through the store is `tests/proptest_store.rs`'s.

use proptest::prelude::*;

use volley_obs::{
    bucket_index, bucket_upper_bound, parse_prometheus, HistogramSnapshot, Registry, BUCKETS,
};

fn histogram_from(values: &[u64]) -> HistogramSnapshot {
    let registry = Registry::new(true);
    let histogram = registry.histogram("h");
    for &v in values {
        histogram.record(v);
    }
    histogram.snapshot()
}

proptest! {
    /// Bucketing is monotone: a larger value never lands in a smaller
    /// bucket, and every value fits under its bucket's upper bound.
    #[test]
    fn bucket_index_is_monotone_and_bounding(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        prop_assert!(lo <= bucket_upper_bound(bucket_index(lo)));
        prop_assert!(bucket_index(hi) < BUCKETS);
    }

    /// Recording loses no samples: count, sum, and max match the input
    /// exactly, and bucket counts total the sample count.
    #[test]
    fn histogram_is_lossless_in_count_sum_max(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let snapshot = histogram_from(&values);
        prop_assert_eq!(snapshot.count, values.len() as u64);
        prop_assert_eq!(snapshot.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snapshot.max, *values.iter().max().unwrap());
        prop_assert_eq!(snapshot.buckets.iter().sum::<u64>(), values.len() as u64);
    }

    /// Quantiles are monotone in q and bracketed by [min-bucket-bound,
    /// max].
    #[test]
    fn quantiles_are_monotone_and_bracketed(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..100),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let snapshot = histogram_from(&values);
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(snapshot.quantile(lo) <= snapshot.quantile(hi));
        prop_assert!(snapshot.quantile(1.0) == snapshot.max);
        prop_assert!(snapshot.quantile(hi) <= snapshot.max);
    }

    /// Merge is associative and commutative, so shard-, thread-, and
    /// process-level merges compose in any order.
    #[test]
    fn merge_is_associative_and_commutative(
        xs in proptest::collection::vec(0u64..1_000_000, 0..50),
        ys in proptest::collection::vec(0u64..1_000_000, 0..50),
        zs in proptest::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let (a, b, c) = (histogram_from(&xs), histogram_from(&ys), histogram_from(&zs));
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        // Merging empty is the identity.
        prop_assert_eq!(a.merged(&HistogramSnapshot::empty()), a.clone());
        // Merged count equals recording everything into one histogram.
        let mut all = xs.clone();
        all.extend(&ys);
        let combined = if all.is_empty() {
            HistogramSnapshot::empty()
        } else {
            histogram_from(&all)
        };
        prop_assert_eq!(a.merged(&b), combined);
    }

    /// A snapshot with arbitrary counters, gauges, and histogram data
    /// renders Prometheus text that parses with every series present.
    #[test]
    fn snapshot_encode_parse_round_trip(
        tick in 0u64..1_000_000,
        counts in proptest::collection::vec((0usize..8, 1u64..1_000_000), 0..12),
        gauges in proptest::collection::vec((0usize..8, -1e9f64..1e9), 0..12),
        latencies in proptest::collection::vec(0u64..10_000_000_000, 0..60),
    ) {
        let registry = Registry::new(true);
        for (slot, n) in &counts {
            registry.counter(&format!("ctr_{slot}_total")).add(*n);
        }
        for (slot, v) in &gauges {
            registry.gauge(&format!("gauge_{slot}")).set(*v);
        }
        let histogram = registry.histogram("latency_ns");
        for &v in &latencies {
            histogram.record(v);
        }
        let snapshot = registry.snapshot(tick);

        // Prometheus text: parses, and every series appears with the
        // value the snapshot holds.
        let samples = parse_prometheus(&snapshot.to_prometheus()).unwrap();
        for (name, value) in &snapshot.counters {
            let sample = samples
                .iter()
                .find(|s| &s.name == name && s.labels.is_empty());
            prop_assert!(sample.is_some(), "counter {} missing", name);
            prop_assert_eq!(sample.unwrap().value, *value as f64);
        }
        for (name, value) in &snapshot.gauges {
            let sample = samples
                .iter()
                .find(|s| &s.name == name && s.labels.is_empty())
                .unwrap();
            // f64 -> text -> f64 must be exact for values we emit via
            // Display (Rust prints round-trippable floats).
            prop_assert_eq!(sample.value, *value);
        }
        for (name, histogram) in &snapshot.histograms {
            let count = samples
                .iter()
                .find(|s| s.name == format!("{name}_count"))
                .unwrap();
            prop_assert_eq!(count.value, histogram.count as f64);
            let p99 = samples.iter().find(|s| {
                &s.name == name
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "quantile" && v == "0.99")
            });
            prop_assert!(p99.is_some(), "histogram {} missing p99", name);
        }
    }
}
