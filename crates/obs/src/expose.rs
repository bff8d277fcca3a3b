//! Exposition: snapshot types and the Prometheus-text encoder.
//!
//! A [`Snapshot`] is a point-in-time copy of every registered instrument.
//! It serializes into report JSON (schema-versioned), persists into the
//! run's store (`volley_store::Store::record_snapshot`) and renders to the
//! Prometheus text exposition format — counters as `counter`, gauges as
//! `gauge`, histograms as `summary` quantiles (p50/p90/p99 plus
//! `quantile="1"` for the exact max). [`parse_prometheus`] is a minimal
//! parser for the same format, the reference the tests use to assert the
//! output is machine-readable.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::registry::{bucket_upper_bound, BUCKETS};

/// The snapshot schema version stamped into every [`Snapshot`]. Bump
/// when the shape changes.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// A summed, mergeable view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    pub max: u64,
    /// Per-bucket counts; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot with the full bucket array.
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An upper-bound estimate of the `q`-quantile (`q` clamped to
    /// `[0, 1]`): the upper bound of the first bucket whose cumulative
    /// count reaches `q · count`, capped at the exact max. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket);
            if cumulative >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of every instrument in a [`Registry`](crate::Registry).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// [`SNAPSHOT_SCHEMA_VERSION`] at capture time.
    pub schema: u32,
    /// The runtime tick the snapshot was taken at.
    pub tick: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot at tick 0.
    pub fn empty() -> Self {
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            tick: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Renders the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# HELP volley_obs_snapshot_tick runtime tick of this snapshot\n\
             # TYPE volley_obs_snapshot_tick gauge\n\
             volley_obs_snapshot_tick {}\n",
            self.tick
        ));
        for (name, value) in &self.counters {
            let name = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, histogram) in &self.histograms {
            let name = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    histogram.quantile(q)
                ));
            }
            out.push_str(&format!("{name}{{quantile=\"1\"}} {}\n", histogram.max));
            out.push_str(&format!("{name}_sum {}\n", histogram.sum));
            out.push_str(&format!("{name}_count {}\n", histogram.count));
        }
        out
    }
}

/// Maps arbitrary names onto the Prometheus metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), replacing everything else with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// One parsed Prometheus text sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition output: comment lines are skipped,
/// every other non-blank line must be `name[{labels}] value`.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: `{line}`", lineno + 1);
        let (name_part, value_part) = line
            .rsplit_once(char::is_whitespace)
            .ok_or_else(|| bad("missing value"))?;
        let value: f64 = value_part
            .trim()
            .parse()
            .map_err(|_| bad("non-numeric value"))?;
        let name_part = name_part.trim();
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| bad("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
                    let (key, raw) = pair
                        .split_once('=')
                        .ok_or_else(|| bad("malformed label pair"))?;
                    let value = raw
                        .trim()
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| bad("unquoted label value"))?;
                    labels.push((key.trim().to_string(), value.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty() {
            return Err(bad("empty metric name"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let registry = Registry::new(true);
        registry.counter("volley_runner_ticks_total").add(7);
        registry.gauge("volley_runner_tick_latency_us").set(123.5);
        let histogram = registry.histogram("volley_coordinator_tick_ns");
        for v in [100, 200, 400, 100_000] {
            histogram.record(v);
        }
        registry.snapshot(9)
    }

    #[test]
    fn prometheus_output_parses_back() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
        };
        assert_eq!(find("volley_runner_ticks_total").value, 7.0);
        assert_eq!(find("volley_runner_tick_latency_us").value, 123.5);
        assert_eq!(find("volley_coordinator_tick_ns_count").value, 4.0);
        let p50 = samples
            .iter()
            .find(|s| {
                s.name == "volley_coordinator_tick_ns"
                    && s.labels == vec![("quantile".to_string(), "0.5".to_string())]
            })
            .unwrap();
        assert!(p50.value >= 100.0, "{}", p50.value);
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("just_a_name\n").is_err());
        assert!(parse_prometheus("name{quantile=\"0.5\" 1\n").is_err());
        assert!(parse_prometheus("name abc\n").is_err());
        assert!(parse_prometheus("# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn sanitize_maps_onto_the_prometheus_alphabet() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let snapshot = sample_snapshot();
        let histogram = &snapshot.histograms["volley_coordinator_tick_ns"];
        let mut last = 0u64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = histogram.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        assert_eq!(histogram.quantile(1.0), histogram.max);
    }
}
