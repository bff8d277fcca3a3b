//! `suite` (many runs, one process each, into one file) and `compare`
//! (two such files against the bounds in `BENCHMARK.json`).
//!
//! Results go to standard output and to `--out` only. PR 11's binary
//! wrote `benchmark/out/result-*.json` into the source tree through a
//! manifest path baked in at build time; nothing here knows where the
//! source tree is.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::report::{self, Fingerprint, Outcome};
use crate::stats::{self, Better};
use crate::Args;

/// Raw spans kept per row: enough to draw a timeline of a round's
/// coarse structure, bounded so result files stay small.
const SPANS_PER_ROW: usize = 2_000;

fn read_rows(path: &str) -> Result<Vec<Value>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .as_array()
            .cloned()
            .ok_or_else(|| format!("{path}: not a JSON array of result rows")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Appends one result row to the JSON array in `path` (created when
/// missing).
pub fn append_row(path: &str, outcome: &Outcome, fingerprint: &Fingerprint) -> std::io::Result<()> {
    let mut rows = read_rows(path).map_err(std::io::Error::other)?;
    let mut row = report::row(outcome, fingerprint);
    if let Value::Object(fields) = &mut row {
        let spans = outcome
            .spans
            .iter()
            .take(SPANS_PER_ROW)
            .map(|s| {
                let parent = match s.parent {
                    crate::spans::NO_PARENT => Value::Null,
                    id => report::uint(u64::from(id)),
                };
                Value::Object(vec![
                    ("name".to_string(), report::string(s.name)),
                    ("start_ns".to_string(), report::uint(s.start_ns)),
                    ("end_ns".to_string(), report::uint(s.end_ns)),
                    ("parent".to_string(), parent),
                    ("round".to_string(), report::uint(u64::from(s.round))),
                ])
            })
            .collect();
        fields.push(("spans".to_string(), Value::Array(spans)));
    }
    rows.push(row);
    let text =
        serde_json::to_string_pretty(&Value::Array(rows)).expect("a Value always serializes");
    std::fs::write(path, text + "\n")
}

/// `suite`: every (repetition, seed, workload) as its own process, the
/// workloads interleaved so slow drift of the host hits all of them
/// alike.
pub fn suite(args: &Args) -> Result<ExitCode, String> {
    let out = args.get("out").ok_or("suite needs --out <file.json>")?;
    let seeds: Vec<u64> = args
        .get("seeds")
        .unwrap_or("1")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad seed `{s}`")))
        .collect::<Result<_, _>>()?;
    let workloads: Vec<&str> = match args.get("workload") {
        Some(w) if report::WORKLOADS.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload `{w}`")),
        None => report::WORKLOADS.to_vec(),
    };
    let runs: u32 = args.parsed("runs")?.unwrap_or(1);
    let seconds = args.get("seconds").unwrap_or("20");
    let trace = args.get("trace").unwrap_or("0");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failures = 0u32;
    for rep in 0..runs {
        for &seed in &seeds {
            for workload in &workloads {
                eprintln!("suite: rep {rep} seed {seed} {workload}");
                let status = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", seconds, "--trace", trace, "--out", out])
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                if !status.success() {
                    eprintln!("suite: {workload} seed {seed} exited with {status}");
                    failures += 1;
                }
            }
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Direction and bound of every metric the manifest names.
fn manifest_metrics(path: &str) -> Result<BTreeMap<String, (Better, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for metric in manifest[key]
            .as_array()
            .ok_or_else(|| format!("{path}: no `{key}` list"))?
        {
            let name = metric["name"]
                .as_str()
                .ok_or_else(|| format!("{path}: metric without a name"))?;
            let better = metric["better"]
                .as_str()
                .and_then(Better::parse)
                .ok_or_else(|| format!("{path}: `{name}` has no valid `better`"))?;
            out.insert(
                name.to_string(),
                (better, metric.get("bound").and_then(Value::as_f64)),
            );
        }
    }
    Ok(out)
}

/// `(workload, metric) → values` over the rows of one result file.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// The values of one result file, plus how many rows were not `correct`
/// or had failed operations.
fn collect(path: &str) -> Result<(Values, u32), String> {
    let mut values = Values::new();
    let mut bad = 0u32;
    for row in read_rows(path)? {
        let workload = row["workload"].as_str().unwrap_or("?").to_string();
        if row["correct"].as_bool() != Some(true) || row["failed"].as_u64() != Some(0) {
            bad += 1;
        }
        for (name, metric) in row["metrics"].as_object().into_iter().flatten() {
            if let Some(value) = metric["value"].as_f64() {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((values, bad))
}

/// `compare a.json b.json`: medians and quartiles per metric × workload,
/// `b` judged against `a` with the manifest's direction-aware bounds.
/// Exits non-zero, after the table, when a bound is breached, a metric's
/// interquartile range exceeds half its bound (`setup_s` excepted), or a
/// row was incorrect.
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a_path, b_path] = args.positional.as_slice() else {
        return Err("compare needs two result files".to_string());
    };
    let metrics = manifest_metrics(args.get("manifest").unwrap_or("BENCHMARK.json"))?;
    let (a, a_bad) = collect(a_path)?;
    let (b, b_bad) = collect(b_path)?;
    println!(
        "{:<13} {:<30} {:>3} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median a", "iqr a", "median b", "iqr b", "worse", "bound"
    );
    let mut breaches = 0u32;
    for ((workload, name), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(&(better, bound)) = metrics.get(name) else {
            continue;
        };
        let (med_a, med_b) = (stats::median(a_values), stats::median(b_values));
        let (iqr_a, iqr_b) = (stats::spread(a_values), stats::spread(b_values));
        let worse = stats::worse_by(med_a, med_b, better);
        let verdict = match bound {
            None => "",
            Some(bound) if stats::breaches(med_a, med_b, better, bound) => {
                breaches += 1;
                "BREACH"
            }
            // `setup_s` is one measurement per run; the driver gates its
            // median, not its spread.
            Some(bound) if name != "setup_s" && iqr_a.max(iqr_b) > bound / 2.0 => {
                breaches += 1;
                "NOISY"
            }
            Some(_) => "ok",
        };
        println!(
            "{workload:<13} {name:<30} {:>3} {med_a:>14.6} {:>6.2}% {med_b:>14.6} {:>6.2}% {:>+7.2}% {:>6}  {verdict}",
            a_values.len().min(b_values.len()),
            iqr_a * 100.0,
            iqr_b * 100.0,
            worse * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
        );
    }
    if a_bad + b_bad > 0 {
        println!("{a_bad} rows of {a_path} and {b_bad} rows of {b_path} were incorrect or had failed operations");
    }
    if breaches + a_bad + b_bad > 0 {
        println!("compare: {breaches} metric × workload pairs outside their bounds");
        return Ok(ExitCode::FAILURE);
    }
    println!("compare: every metric × workload pair within its bound");
    Ok(ExitCode::SUCCESS)
}
