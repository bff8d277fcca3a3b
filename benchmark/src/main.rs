//! `volley-benchmark`: four long-round workloads, end-to-end metrics
//! with fixed regression bounds, and a per-layer ledger. See README.md.
//!
//! ```text
//! volley-benchmark --workload W --seed N --seconds S --trace 0|1 [--out f.json]
//! volley-benchmark --smoke
//! volley-benchmark suite --out f.json [--seeds 1,2] [--workload w] [--runs n]
//! volley-benchmark compare a.json b.json [--manifest BENCHMARK.json]
//! ```

mod alloc;
mod harness;
mod inputs;
mod layers;
mod live;
mod proc;
mod report;
mod sim;
mod spans;
mod stats;
mod suite;

use std::process::ExitCode;
use std::time::Instant;

use harness::RunConfig;
use report::{Fingerprint, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage:
  volley-benchmark --workload <sim-fleet|sim-xshard|live-net|live-durable>
                   --seed <n> --seconds <s> --trace <0|1> [--out <file.json>]
  volley-benchmark --smoke
  volley-benchmark suite --out <file.json> [--seeds 1,2] [--workload <w>] [--runs <n>]
                   [--seconds <s>] [--trace <0|1>]
  volley-benchmark compare <a.json> <b.json> [--manifest <BENCHMARK.json>]
";

/// `--flag value` pairs and bare positionals of one invocation.
pub struct Args {
    flags: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".to_string(), String::new())),
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad --{name} `{raw}`")),
        }
    }
}

/// Runs one workload and returns its outcome (per-layer runs add the
/// isolated layer pass and the process counters).
fn run_workload(workload: &str, config: &RunConfig) -> Outcome {
    let mut outcome = match workload {
        "sim-fleet" | "sim-xshard" => sim::run(workload, config),
        "live-net" => live::run_net(config),
        "live-durable" => live::run_durable(config),
        other => unreachable!("workload `{other}` was validated"),
    };
    if config.trace {
        let began = Instant::now();
        let layer_metrics = layers::run(config, &mut outcome);
        // In-situ numbers win over the isolated pass where both exist.
        let in_situ = std::mem::take(&mut outcome.metrics);
        outcome.metrics = layer_metrics;
        outcome.metrics.extend(in_situ);
        layers::derive_shares(&mut outcome.metrics);
        outcome
            .metrics
            .set("trace.layer_pass_s", began.elapsed().as_secs_f64());
        outcome.metrics.set("proc.peak_rss_mb", proc::peak_rss_mb());
        outcome.metrics.set("proc.cpu_s", proc::cpu_seconds());
    }
    outcome
}

fn run_command(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("missing --workload")?;
    if !report::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let config = RunConfig {
        seed: args.parsed("seed")?.unwrap_or(1),
        seconds: args.parsed("seconds")?.unwrap_or(20.0),
        trace: match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (want 0 or 1)")),
        },
        smoke: false,
        started,
    };
    let mut fingerprint = Fingerprint::start(workload, config.seed, config.trace, config.seconds);
    let outcome = run_workload(workload, &config);
    fingerprint.finish();
    if let Some(path) = args.get("out") {
        suite::append_row(path, &outcome, &fingerprint)
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    print!("{}", report::table(&outcome, &fingerprint));
    println!("{}", report::contract_line(&outcome, config.trace));
    Ok(ExitCode::SUCCESS)
}

/// All four workloads at ~1/20 scale with every oracle on.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in report::WORKLOADS {
        for trace in [false, true] {
            let config = RunConfig {
                seed: 1,
                seconds: 0.0,
                trace,
                smoke: true,
                started: Instant::now(),
            };
            let outcome = run_workload(workload, &config);
            let good = outcome.oracle_failures.is_empty() && outcome.failed == 0;
            println!(
                "smoke {workload:<13} trace={} rounds={} attempted={} failed={} {}",
                u8::from(trace),
                outcome.rounds,
                outcome.attempted,
                outcome.failed,
                if good { "ok" } else { "FAILED" }
            );
            for failure in &outcome.oracle_failures {
                println!("  ORACLE FAILED: {failure}");
            }
            ok &= good;
        }
    }
    if ok {
        println!("smoke: all workloads correct");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("volley-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("suite") => suite::suite(&args),
        Some("compare") => suite::compare(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None if args.get("smoke").is_some() => Ok(smoke()),
        None => run_command(&args, started),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("volley-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
