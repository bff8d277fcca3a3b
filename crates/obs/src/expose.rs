//! Exposition: snapshot types, Prometheus-text and JSON encoders, and the
//! periodic snapshot writer behind `--obs-dir`.
//!
//! A [`Snapshot`] is a point-in-time copy of every registered instrument.
//! It round-trips through JSON (schema-versioned) and renders to the
//! Prometheus text exposition format — counters as `counter`, gauges as
//! `gauge`, histograms as `summary` quantiles (p50/p90/p99 plus
//! `quantile="1"` for the exact max). [`parse_prometheus`] is a minimal
//! parser for the same format, used by `volley obs` and the tests that
//! assert the output is machine-readable.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use volley_core::vfs::{CircuitBreaker, SinkHealth, StdFs, Vfs};

use crate::registry::{bucket_upper_bound, Registry, BUCKETS};
use crate::span::SpanLog;

/// The snapshot JSON schema version. Bump when the shape changes;
/// consumers should refuse versions they don't understand.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// A summed, mergeable view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// The mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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

    /// Elementwise merge (associative and commutative, so shard- and
    /// process-level merges compose in any order).
    #[must_use]
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let mut buckets = vec![0u64; len];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self
                .buckets
                .get(i)
                .copied()
                .unwrap_or(0)
                .wrapping_add(other.buckets.get(i).copied().unwrap_or(0));
        }
        HistogramSnapshot {
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }
}

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a JSON snapshot, rejecting unknown schema versions.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let snapshot: Snapshot =
            serde_json::from_str(text).map_err(|e| format!("malformed snapshot JSON: {e:?}"))?;
        if snapshot.schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported snapshot schema {} (expected {SNAPSHOT_SCHEMA_VERSION})",
                snapshot.schema
            ));
        }
        Ok(snapshot)
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

/// Writes periodic registry snapshots (and a final span trace) into a
/// directory: `obs-<tick>.json`, `obs-<tick>.prom` and `spans.json`.
///
/// File I/O goes through a [`Vfs`]; under sustained write failure a
/// [`CircuitBreaker`] trips the writer into degraded mode — snapshot
/// dumps *pause* (counted, skipped) until a deterministically backed-off
/// probe write succeeds and exposition resumes.
#[derive(Debug)]
pub struct SnapshotWriter {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    every: u64,
    next: u64,
    written: u64,
    breaker: CircuitBreaker,
    paused: u64,
}

impl SnapshotWriter {
    /// Creates the output directory and a writer dumping every `every`
    /// ticks (minimum 1).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> io::Result<Self> {
        SnapshotWriter::new_on(Arc::new(StdFs), dir, every)
    }

    /// [`SnapshotWriter::new`] on an arbitrary [`Vfs`] — the
    /// fault-injection entry point.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new_on(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>, every: u64) -> io::Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        Ok(SnapshotWriter {
            vfs,
            dir,
            every: every.max(1),
            next: 0,
            written: 0,
            breaker: CircuitBreaker::default(),
            paused: 0,
        })
    }

    /// Replaces the circuit breaker (tests tune trip threshold/backoff).
    #[must_use]
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = breaker;
        self
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshots written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// How the writer degraded: `degraded` while snapshot dumps pause,
    /// `lost` cadence dumps skipped so far, and its breaker's trips and
    /// re-arms.
    pub fn health(&self) -> SinkHealth {
        SinkHealth {
            lost: self.paused,
            ..SinkHealth::new(&self.breaker, self.vfs.as_ref())
        }
    }

    /// Dumps a snapshot if `tick` reached the cadence. Returns whether a
    /// dump happened. While degraded, due dumps are paused (counted,
    /// skipped) except for deterministic probe writes.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn maybe_write(&mut self, registry: &Registry, tick: u64) -> io::Result<bool> {
        if tick < self.next {
            return Ok(false);
        }
        self.next = tick + self.every;
        if !self.breaker.should_attempt() {
            self.paused += 1;
            return Ok(false);
        }
        self.write_now(registry, tick)?;
        Ok(true)
    }

    /// Dumps a snapshot unconditionally, feeding the circuit breaker
    /// with the outcome.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_now(&mut self, registry: &Registry, tick: u64) -> io::Result<()> {
        self.vfs.set_tick(tick);
        let snapshot = registry.snapshot(tick);
        let stem = format!("obs-{tick:08}");
        let result = self
            .vfs
            .write(
                &self.dir.join(format!("{stem}.json")),
                snapshot.to_json().as_bytes(),
            )
            .and_then(|()| {
                self.vfs.write(
                    &self.dir.join(format!("{stem}.prom")),
                    snapshot.to_prometheus().as_bytes(),
                )
            });
        match result {
            Ok(()) => {
                self.breaker.record_success();
                self.written += 1;
                Ok(())
            }
            Err(e) => {
                self.breaker.record_failure();
                Err(e)
            }
        }
    }

    /// Writes the span ring as `spans.json` (Chrome trace format).
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_spans(&self, spans: &SpanLog) -> io::Result<()> {
        self.vfs.write(
            &self.dir.join("spans.json"),
            spans.to_chrome_trace().as_bytes(),
        )
    }
}

/// Finds the newest *parseable* `obs-*.json` snapshot in `dir` (by
/// tick encoded in the file name) and parses it.
///
/// A torn or truncated snapshot — reachable when the fault-injecting
/// filesystem pauses the snapshot writer mid-dump — is skipped with a
/// warning on stderr and the next-newest candidate is tried, so one
/// bad file never hides an otherwise healthy directory. `Ok(None)`
/// means no candidate parsed.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn latest_snapshot(dir: impl AsRef<Path>) -> io::Result<Option<(PathBuf, Snapshot)>> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir.as_ref())? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("obs-") && name.ends_with(".json") {
            candidates.push(path);
        }
    }
    // Zero-padded ticks make lexicographic order numeric order.
    candidates.sort();
    for path in candidates.into_iter().rev() {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Snapshot::from_json(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(snapshot) => return Ok(Some((path, snapshot))),
            Err(reason) => {
                eprintln!(
                    "volley-obs: skipping torn snapshot {}: {reason}",
                    path.display()
                );
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn json_round_trip_preserves_the_snapshot() {
        let snapshot = sample_snapshot();
        let restored = Snapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(restored, snapshot);
    }

    #[test]
    fn unknown_schema_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.schema = 999;
        assert!(Snapshot::from_json(&snapshot.to_json()).is_err());
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

    #[test]
    fn merge_is_commutative_and_counts_add() {
        let mut a = HistogramSnapshot::empty();
        a.count = 2;
        a.sum = 10;
        a.max = 8;
        a.buckets[4] = 2;
        let mut b = HistogramSnapshot::empty();
        b.count = 1;
        b.sum = 100;
        b.max = 100;
        b.buckets[7] = 1;
        let ab = a.merged(&b);
        assert_eq!(ab, b.merged(&a));
        assert_eq!(ab.count, 3);
        assert_eq!(ab.sum, 110);
        assert_eq!(ab.max, 100);
    }

    #[test]
    fn writer_dumps_on_cadence_and_finds_latest() {
        let dir = std::env::temp_dir().join(format!("volley-obs-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::new(true);
        let counter = registry.counter("ticks");
        let mut writer = SnapshotWriter::new(&dir, 10).unwrap();
        for tick in 0..25u64 {
            counter.inc();
            writer.maybe_write(&registry, tick).unwrap();
        }
        assert_eq!(writer.written(), 3, "ticks 0, 10, 20");
        let (path, snapshot) = latest_snapshot(&dir).unwrap().expect("snapshots exist");
        assert!(path.to_string_lossy().contains("obs-00000020"));
        assert_eq!(snapshot.tick, 20);
        assert_eq!(snapshot.counters["ticks"], 21);
        // The .prom twin parses too.
        let prom = std::fs::read_to_string(path.with_extension("prom")).unwrap();
        assert!(!parse_prometheus(&prom).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_newest_snapshot_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("volley-obs-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::new(true);
        registry.counter("ticks").add(3);
        let mut writer = SnapshotWriter::new(&dir, 10).unwrap();
        writer.maybe_write(&registry, 10).unwrap();
        // A newer snapshot whose dump was cut off mid-write: truncate a
        // valid one so the JSON is syntactically torn.
        let good = std::fs::read_to_string(dir.join("obs-00000010.json")).unwrap();
        std::fs::write(dir.join("obs-00000020.json"), &good[..good.len() / 2]).unwrap();
        let (path, snapshot) = latest_snapshot(&dir)
            .unwrap()
            .expect("the older intact snapshot is still found");
        assert!(path.to_string_lossy().contains("obs-00000010"));
        assert_eq!(snapshot.tick, 10);
        // A directory of only torn snapshots reads as empty, not an error.
        std::fs::write(dir.join("obs-00000010.json"), "{").unwrap();
        assert!(latest_snapshot(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_pauses_under_enospc_and_resumes_after_rearm() {
        use volley_core::vfs::FaultFs;
        use volley_core::IoFaultPlan;

        let dir = std::env::temp_dir().join(format!("volley-obs-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = IoFaultPlan::new(7).with_enospc_window(10, 20);
        let fs = Arc::new(FaultFs::new(plan));
        let registry = Registry::new(true);
        let counter = registry.counter("ticks");
        let mut writer = SnapshotWriter::new_on(fs, &dir, 1)
            .unwrap()
            .with_breaker(CircuitBreaker::with_backoff(1, 1, 2));
        let mut io_errors = 0u64;
        for tick in 0..60u64 {
            counter.inc();
            if writer.maybe_write(&registry, tick).is_err() {
                io_errors += 1;
            }
        }
        assert!(io_errors > 0, "the storm must surface write errors");
        let health = writer.health();
        assert!(health.lost > 0, "due dumps pause while degraded");
        let (trips, rearms) = (health.trips, health.rearms);
        assert!(trips >= 1 && rearms >= 1, "trips={trips} rearms={rearms}");
        assert!(!health.degraded, "writer re-arms once the fault clears");
        // Exposition resumed: a post-storm snapshot is the latest on disk.
        let (_, snapshot) = latest_snapshot(&dir).unwrap().expect("snapshots exist");
        assert!(snapshot.tick >= 30, "latest tick {}", snapshot.tick);
        std::fs::remove_dir_all(&dir).ok();
    }
}
