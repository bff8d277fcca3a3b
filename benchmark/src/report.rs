//! Metric names, the result row, and its JSON forms.
//!
//! The two name lists here are the single source for what a run prints;
//! a unit test holds `BENCHMARK.json` to them.

use serde::{Number, Value};

use crate::proc;
use crate::spans::Span;

pub const WORKLOADS: [&str; 4] = ["sim-fleet", "sim-xshard", "live-net", "live-durable"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("monitor_windows_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
    ("sampling_cost_ratio", "ratio"),
    ("detection_rate", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload bypasses reports 0 for its in-situ counters.
pub const PER_LAYER: [(&str, &str); 75] = [
    // core
    ("core.bank_observe_ns", "ns"),
    ("core.scalar_observe_ns", "ns"),
    ("core.allocator_update_us", "us"),
    ("core.handle_share", "ratio"),
    ("core.due_share", "ratio"),
    // sim
    ("sim.engine_self_share", "ratio"),
    ("sim.build_share", "ratio"),
    ("sim.epoch_us", "us"),
    ("sim.epochs", "count"),
    ("sim.lane_swaps", "count"),
    ("sim.msgs_routed", "count"),
    ("sim.arena_reuses", "count"),
    ("sim.steals", "count"),
    ("sim.steady_allocs", "count"),
    ("sim.bytes_per_vm", "B"),
    ("sim.speedup_2t", "ratio"),
    // runtime
    ("runtime.encode_ns", "ns"),
    ("runtime.decode_ns", "ns"),
    ("runtime.seal_ns", "ns"),
    ("runtime.monitor_handle_ns", "ns"),
    ("runtime.frames_per_tick", "count"),
    ("runtime.tick_us", "us"),
    // runtime.net
    ("net.framebuffer_ns", "ns"),
    ("net.ctl_line_ns", "ns"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.max_queue_depth", "count"),
    ("net.backpressure_drops", "count"),
    ("net.reconnects", "count"),
    ("net.codec_share", "ratio"),
    ("net.wait_share", "ratio"),
    // wal
    ("wal.append_ns.never", "ns"),
    ("wal.append_ns.every64", "ns"),
    ("wal.append_ns.on_snapshot", "ns"),
    ("wal.snapshot_ms", "ms"),
    ("wal.replay_ms", "ms"),
    ("wal.bytes_per_tick", "B"),
    // store
    ("store.append_ns", "ns"),
    ("store.flush_ms", "ms"),
    ("store.bytes_per_record", "B"),
    ("store.scan_mrec_per_s", "1/s"),
    ("store.segments", "count"),
    // serve
    ("serve.parse_ns", "ns"),
    ("serve.metrics_idle_ms", "ms"),
    ("serve.query_idle_ms", "ms"),
    ("serve.http_p50_ms", "ms"),
    ("serve.http_p99_ms", "ms"),
    ("serve.http_max_ms", "ms"),
    ("serve.metrics_p50_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.over_limit", "count"),
    ("serve.stream_lag_drops", "count"),
    ("serve.connections", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    // obs
    ("obs.counter_inc_ns.disabled", "ns"),
    ("obs.counter_inc_ns.enabled", "ns"),
    ("obs.render_ms", "ms"),
    ("obs.enabled_overhead_share", "ratio"),
    // traces, analyze
    ("traces.gen_mvalues_per_s", "1/s"),
    ("analyze.correlate_mrec_per_s", "1/s"),
    // process, tracing
    ("proc.peak_rss_mb", "MB"),
    ("proc.cpu_s", "s"),
    ("proc.ctx_switches_per_tick", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    // the traced pass's own view of the end-to-end numbers
    ("trace.untraced_windows_per_s", "1/s"),
    ("trace.traced_windows_per_s", "1/s"),
    ("trace.rounds", "count"),
    ("trace.round_s", "s"),
    ("trace.steal_slope", "ratio"),
    ("trace.steal_s", "s"),
    ("trace.layer_pass_s", "s"),
    ("trace.setup_s", "s"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// An ordered bag of metrics; later `set`s of one name overwrite.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(metric) => metric.value = value,
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        for metric in other.0 {
            self.set(&metric.name, metric.value);
        }
    }
}

/// What one workload run produced, before it is shaped for output.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every oracle that failed, in words; empty means `correct`.
    pub oracle_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u32,
    /// Digest of (a fixed sample of) the generated inputs: two rows with
    /// the same workload and seed must agree on it.
    pub input_digest: u64,
    pub metrics: Metrics,
    /// Raw spans of the last traced round (dumped to `--out`).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records `what` as a failed oracle unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.oracle_failures.push(what());
        }
    }
}

/// Host and run facts every result row carries.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub loadavg_start: String,
    pub loadavg_end: String,
    /// Hypervisor steal over the run, CPU-seconds (at `start`: the
    /// counter's reading; after `finish`: the difference).
    pub steal_s: f64,
}

impl Fingerprint {
    /// Captures the start-of-run half; `loadavg_end` is filled by
    /// [`finish`](Self::finish).
    pub fn start(workload: &str, seed: u64, trace: bool, seconds: f64) -> Fingerprint {
        Fingerprint {
            workload: workload.to_string(),
            seed,
            trace,
            seconds,
            git_rev: String::new(),
            rustc: String::new(),
            nproc: proc::nproc(),
            loadavg_start: proc::loadavg(),
            loadavg_end: String::new(),
            steal_s: proc::steal_seconds(),
        }
    }

    /// Fills the facts that cost a child process, after measuring.
    pub fn finish(&mut self) {
        self.loadavg_end = proc::loadavg();
        self.steal_s = proc::steal_seconds() - self.steal_s;
        self.git_rev = proc::git_rev();
        self.rustc = proc::rustc_version();
    }
}

pub fn float(value: f64) -> Value {
    Value::Number(Number::Float(value))
}

pub fn uint(value: u64) -> Value {
    Value::Number(Number::PosInt(value))
}

pub fn string(value: &str) -> Value {
    Value::String(value.to_string())
}

/// The metrics the contract asks for, in list order, each with its
/// unit. A name the run did not measure is reported as 0.
fn shaped_metrics(outcome: &Outcome, trace: bool) -> Value {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    Value::Object(
        list.iter()
            .map(|&(name, unit)| {
                let value = outcome.metrics.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), float(value)),
                        ("unit".to_string(), string(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let value = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(outcome.oracle_failures.is_empty()),
        ),
        ("attempted".to_string(), uint(outcome.attempted.max(1))),
        ("failed".to_string(), uint(outcome.failed)),
        ("metrics".to_string(), shaped_metrics(outcome, trace)),
    ]);
    serde_json::to_string(&value).expect("a Value always serializes")
}

/// The full result row (`--out`, `suite` files): the contract fields
/// plus fingerprint, round count and oracle failures.
pub fn row(outcome: &Outcome, fp: &Fingerprint) -> Value {
    Value::Object(vec![
        ("workload".to_string(), string(&fp.workload)),
        ("seed".to_string(), uint(fp.seed)),
        ("trace".to_string(), Value::Bool(fp.trace)),
        ("seconds".to_string(), float(fp.seconds)),
        ("git_rev".to_string(), string(&fp.git_rev)),
        ("rustc".to_string(), string(&fp.rustc)),
        ("nproc".to_string(), uint(fp.nproc as u64)),
        ("loadavg_start".to_string(), string(&fp.loadavg_start)),
        ("loadavg_end".to_string(), string(&fp.loadavg_end)),
        ("steal_s".to_string(), float(fp.steal_s)),
        ("rounds".to_string(), uint(u64::from(outcome.rounds))),
        (
            "input_digest".to_string(),
            string(&format!("{:016x}", outcome.input_digest)),
        ),
        (
            "correct".to_string(),
            Value::Bool(outcome.oracle_failures.is_empty()),
        ),
        ("attempted".to_string(), uint(outcome.attempted.max(1))),
        ("failed".to_string(), uint(outcome.failed)),
        (
            "oracle_failures".to_string(),
            Value::Array(outcome.oracle_failures.iter().map(|s| string(s)).collect()),
        ),
        ("metrics".to_string(), shaped_metrics(outcome, fp.trace)),
    ])
}

/// Human-readable table of a run, printed above the contract line.
pub fn table(outcome: &Outcome, fp: &Fingerprint) -> String {
    let list: &[(&str, &str)] = if fp.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = format!(
        "volley-benchmark {} seed={} trace={} rounds={} rev={} nproc={} load {} -> {} steal {:.2}s ({})\n",
        fp.workload,
        fp.seed,
        u8::from(fp.trace),
        outcome.rounds,
        fp.git_rev,
        fp.nproc,
        fp.loadavg_start,
        fp.loadavg_end,
        fp.steal_s,
        fp.rustc,
    );
    for &(name, unit) in list {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        out.push_str(&format!("  {name:<32} {value:>18.6} {unit}\n"));
    }
    out.push_str(&format!(
        "  correct={} attempted={} failed={}\n",
        outcome.oracle_failures.is_empty(),
        outcome.attempted,
        outcome.failed
    ));
    for failure in &outcome.oracle_failures {
        out.push_str(&format!("  ORACLE FAILED: {failure}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// binary prints, with the same units.
    #[test]
    fn manifest_matches_the_name_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest: Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            manifest[key]
                .as_array()
                .expect("an array")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m.get(field)
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(names("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads", "").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let all: BTreeSet<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.set("setup_s", 1.25);
        let line = contract_line(&outcome, false);
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(value["metrics"]["setup_s"]["value"], 1.25);
        assert_eq!(value["metrics"]["setup_s"]["unit"], "s");
        assert_eq!(
            value["metrics"].as_object().unwrap().len(),
            END_TO_END.len()
        );
        assert!(!line.contains('\n'));
    }
}
