//! Command execution. Each command writes its report to the supplied
//! writer so tests can capture output without spawning processes.

use std::fmt::Display;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use volley_core::hash::splitmix64;
use volley_core::task::{MonitorId, TaskSpec, TaskSpecBuilder};
use volley_core::{
    AdaptationConfig, AdaptiveSampler, FaultFs, GroundTruth, IoFaultPlan, VolleyError,
};
use volley_runtime::net::{
    run_agent, AgentConfig, BackoffConfig, NetAddr, NetCoordinator, NetFaultPlan, NetStats,
};
use volley_runtime::transport::TransportConfig;
use volley_runtime::{RuntimeReport, TaskRunner};
use volley_sim::{ClusterConfig, EngineStats, Scenario, ScenarioConfig};
use volley_store::{SampleRecorder, Store, TaskMeta};
use volley_traces::http::HttpWorkloadConfig;
use volley_traces::netflow::NetflowConfig;
use volley_traces::sysmetrics::SystemMetricsGenerator;

use crate::args::{usage, AnalyzeAction, Args, CliError, Command, StoreAction, TransportArgs};

/// The version of the JSON report envelope shared by every subcommand
/// and by the HTTP query endpoint. The constant (and the envelope
/// builder) live in [`volley_serve::wire`] so the two surfaces cannot
/// drift; see there for the version history.
pub use volley_serve::REPORT_SCHEMA_VERSION;

/// Writes `report` wrapped in the versioned envelope:
/// `{"schema": N, "command": "<subcommand>", "report": {…}}` — the
/// exact bytes `GET /api/v1/query` serves for the same report.
fn write_envelope<W: Write, T: Serialize>(
    out: &mut W,
    command: &'static str,
    report: T,
) -> Result<(), CliError> {
    out.write_all(volley_serve::envelope(command, &report).as_bytes())?;
    Ok(())
}

/// `report`'s JSON object followed by the keys `extras` adds to it: the
/// runtime report as one command reports it.
fn extended(report: &RuntimeReport, extras: impl Serialize) -> serde::Value {
    let mut object = report.to_value();
    if let (serde::Value::Object(fields), serde::Value::Object(more)) =
        (&mut object, extras.to_value())
    {
        fields.extend(more);
    }
    object
}

/// Executes a parsed command, writing its report to `out`.
///
/// # Errors
///
/// Propagates input, configuration and I/O errors; see [`CliError`].
pub fn run<W: Write>(command: Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        Command::Monitor(args) => monitor(&args, out),
        Command::Generate(args) => generate(&args, out),
        Command::Simulate(args) => simulate(&args, out),
        Command::Chaos(args) if args.multitask > 0 => chaos_multitask(&args, out),
        Command::Chaos(args) if args.net => chaos_net(&args, out),
        Command::Chaos(args) => chaos(&args, out),
        Command::Run(args) => run_runtime(&args, out),
        Command::Obs(args) => obs_read(&args, out),
        Command::Store(action, args) => store_cmd(action, &args, out),
        Command::Backtest(args) => backtest_cmd(&args, out),
        Command::Analyze(AnalyzeAction::Correlate, args) => analyze_cmd(&args, out),
        Command::Coordinator(args) => coordinator_cmd(&args, out),
        Command::Agent(args) => agent_cmd(&args, out),
    }
}

/// The `samples:` line every detection report shares.
fn write_samples<W: Write>(out: &mut W, samples: u64, cost_ratio: f64) -> std::io::Result<()> {
    let percent = 100.0 * cost_ratio;
    writeln!(
        out,
        "samples:          {samples} ({percent:.1}% of periodic)"
    )
}

/// The `alerts at ticks:` line: the first 20 alert ticks, if any.
fn write_alert_ticks<W: Write>(out: &mut W, alert_ticks: &[u64]) -> std::io::Result<()> {
    if alert_ticks.is_empty() {
        return Ok(());
    }
    let shown: Vec<String> = alert_ticks.iter().take(20).map(u64::to_string).collect();
    let suffix = if alert_ticks.len() > 20 { ", …" } else { "" };
    writeln!(out, "alerts at ticks:  {}{suffix}", shown.join(", "))
}

/// The `monitors` / `ticks` / `alerts` head of a fleet report.
fn write_fleet_head<W: Write>(
    out: &mut W,
    monitors: impl Display,
    report: &RuntimeReport,
) -> std::io::Result<()> {
    writeln!(out, "monitors:         {monitors}")?;
    writeln!(out, "ticks:            {}", report.ticks)?;
    writeln!(
        out,
        "alerts:           {} ({} degraded)",
        report.alerts, report.degraded_alerts
    )
}

/// The sink directories a run wrote into, as the text reports end.
fn write_sink_dirs<W: Write>(out: &mut W, args: &Args) -> std::io::Result<()> {
    if let Some(dir) = &args.common.store_dir {
        writeln!(out, "sample store:     {dir}")?;
    }
    Ok(())
}

/// The directory a reading subcommand was pointed at (the parser
/// requires the flag; a hand-built [`Args`] may still lack it).
fn required<'a>(dir: &'a Option<String>, flag: &str) -> Result<&'a str, CliError> {
    dir.as_deref()
        .ok_or_else(|| CliError::Usage(format!("{flag} is required")))
}

fn open_store(dir: &str) -> Result<Store, CliError> {
    Store::open(dir).map_err(|e| CliError::Input(format!("cannot open store {dir}: {e}")))
}

/// Records `obs`'s snapshot at `tick` into the store at `dir`: the one
/// snapshot `sim` and `coordinator`, which record nothing else, persist.
fn record_final_snapshot(dir: &str, obs: &volley_obs::Obs, tick: u64) -> Result<(), CliError> {
    let mut store = open_store(dir)?;
    store.record_snapshot(0, &obs.snapshot(tick))?;
    Ok(store.flush()?)
}

/// Parses a trace: one `value` or `tick,value` per line; `#` comments and
/// blank lines are ignored. Ticks, when present, are ignored (the line
/// index is the tick — the input is a full-resolution ground truth).
/// `NaN` and `inf` parse as floats but are refused like any other
/// non-number: no runner accepts a non-finite trace value.
fn parse_trace<R: BufRead>(reader: R) -> Result<Vec<f64>, CliError> {
    let mut values = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let field = trimmed.rsplit(',').next().unwrap_or(trimmed).trim();
        let value = field.parse::<f64>().ok().filter(|v| v.is_finite());
        let value = value.ok_or_else(|| {
            CliError::Input(format!(
                "line {}: `{trimmed}` is not a finite number",
                lineno + 1
            ))
        })?;
        values.push(value);
    }
    if values.is_empty() {
        return Err(CliError::Input("trace contains no values".to_string()));
    }
    Ok(values)
}

/// JSON report of a `monitor` run.
#[derive(Debug, Serialize)]
struct MonitorReport {
    ticks: usize,
    threshold: f64,
    condition: String,
    samples: u64,
    cost_ratio: f64,
    violations: usize,
    detected: usize,
    misdetection_rate: f64,
    alert_ticks: Vec<u64>,
}

fn monitor<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let trace = if args.input == "-" {
        parse_trace(std::io::stdin().lock())?
    } else {
        let file = std::fs::File::open(&args.input)
            .map_err(|e| CliError::Input(format!("cannot open {}: {e}", args.input)))?;
        parse_trace(std::io::BufReader::new(file))?
    };

    let threshold = match (args.threshold, args.percentile) {
        (Some(t), _) => t,
        (None, Some(k)) => {
            // `--percentile k` means "alert on the most extreme k% of
            // values" on whichever side is monitored.
            let selectivity = if args.below { 100.0 - k } else { k };
            volley_core::selectivity_threshold(&trace, selectivity.clamp(0.0, 100.0))?
        }
        (None, None) => {
            return Err(CliError::Usage(
                "monitor requires --threshold or --percentile".to_string(),
            ))
        }
    };
    let config = AdaptationConfig::builder()
        .error_allowance(args.err)
        .max_interval(args.max_interval)
        .build()?;
    if !threshold.is_finite() {
        return Err(VolleyError::NonFiniteValue {
            parameter: "threshold",
        }
        .into());
    }
    // Monitoring `v < T` is monitoring `−v > −T`: the sampler and the
    // ground truth both read the same signed trace.
    let (sign, relation) = if args.below { (-1.0, '<') } else { (1.0, '>') };
    let signed: Vec<f64> = trace.iter().map(|v| sign * v).collect();
    let mut sampler = AdaptiveSampler::new(config, sign * threshold);

    // Replay: the trace is full-resolution ground truth; the sampler sees
    // only the ticks it chose to sample.
    let mut log = volley_core::DetectionLog::new();
    let mut alert_ticks = Vec::new();
    let mut next = 0u64;
    for (t, &value) in signed.iter().enumerate() {
        let tick = t as u64;
        if tick >= next {
            let obs = sampler.observe(tick, value);
            log.record(tick, 1, obs.violation);
            if obs.violation {
                alert_ticks.push(tick);
            }
            next = obs.next_sample_tick;
        }
    }
    let truth = GroundTruth::from_trace(&signed, sign * threshold);
    let report = log.score(&truth, trace.len() as u64);

    let summary = MonitorReport {
        ticks: trace.len(),
        threshold,
        condition: format!("value {relation} {threshold}"),
        samples: report.sampling_ops,
        cost_ratio: report.cost_ratio(),
        violations: truth.violation_count(),
        detected: report.detected,
        misdetection_rate: report.misdetection_rate(),
        alert_ticks,
    };
    if args.common.report_json {
        return write_envelope(out, "monitor", &summary);
    }
    writeln!(out, "condition:        {}", &summary.condition)?;
    writeln!(out, "trace:            {} ticks", summary.ticks)?;
    write_samples(out, summary.samples, summary.cost_ratio)?;
    writeln!(
        out,
        "violations:       {} (detected {}, miss rate {:.4})",
        summary.violations, summary.detected, summary.misdetection_rate
    )?;
    write_alert_ticks(out, &summary.alert_ticks)?;
    Ok(())
}

fn generate<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let seed = args.common.seed;
    let traces: Vec<Vec<f64>> = match args.family.as_str() {
        "network" => NetflowConfig::builder()
            .seed(seed)
            .vms(args.tasks)
            .build()
            .generate(args.ticks)
            .into_iter()
            .map(|t| t.rho)
            .collect(),
        "system" => {
            let generator = SystemMetricsGenerator::new(seed);
            (0..args.tasks)
                .map(|i| generator.trace(i / 66, i % 66, args.ticks))
                .collect()
        }
        "application" => {
            let workload = HttpWorkloadConfig::builder()
                .seed(seed)
                .objects(args.tasks)
                .requests_per_tick(1000.0 * args.tasks as f64)
                .build()
                .generate(args.ticks);
            (0..args.tasks)
                .map(|o| workload.object_rate(o).to_vec())
                .collect()
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown family `{other}` (expected network, system or application)"
            )))
        }
    };
    // CSV: header then one row per tick.
    let header: Vec<String> = (0..args.tasks).map(|i| format!("task{i}")).collect();
    writeln!(out, "{}", header.join(","))?;
    for t in 0..args.ticks {
        let row: Vec<String> = traces.iter().map(|tr| format!("{}", tr[t])).collect();
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// JSON report of a `sim` run.
#[derive(Debug, Serialize)]
struct SimulateReport {
    servers: u32,
    vms: u32,
    threads: usize,
    sampling_ops: u64,
    cost_ratio: f64,
    misdetection_rate: f64,
    cpu_median: f64,
    cpu_max: f64,
    /// The sharded engine's execution counters (schema ≥ 6). `steals`
    /// and `max_queue_depth` depend on thread scheduling and must not be
    /// compared across runs; the rest is deterministic for a config.
    engine: EngineStats,
}

fn simulate<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let config = ScenarioConfig {
        cluster: ClusterConfig::new(args.servers, args.vms, 5),
        error_allowance: args.err,
        ticks: args.ticks.max(10),
        seed: args.common.seed,
        ..ScenarioConfig::default()
    };
    // The scenario trusts its config; refuse outside input before it runs.
    AdaptationConfig::builder()
        .error_allowance(args.err)
        .build()?;
    let scenario = Scenario::from_config(config);
    // The sharded engine guarantees thread-count independence, so
    // --threads only changes wall-clock time, never the report.
    let (report, engine) = if let Some(dir) = &args.common.store_dir {
        let obs = volley_obs::Obs::new(true);
        let detailed = scenario.run_detailed(args.common.threads, Some(&obs));
        record_final_snapshot(dir, &obs, args.ticks as u64)?;
        detailed
    } else {
        scenario.run_detailed(args.common.threads, None)
    };
    let cpu = report.cpu.as_ref().expect("utilization recorded");
    if args.common.report_json {
        return write_envelope(
            out,
            "sim",
            SimulateReport {
                servers: args.servers,
                vms: args.vms,
                threads: args.common.threads,
                sampling_ops: report.sampling_ops,
                cost_ratio: report.cost_ratio(),
                misdetection_rate: report.accuracy.misdetection_rate(),
                cpu_median: cpu.median,
                cpu_max: cpu.max,
                engine,
            },
        );
    }
    writeln!(
        out,
        "cluster:          {} servers x {} VMs",
        args.servers, args.vms
    )?;
    writeln!(out, "error allowance:  {}", args.err)?;
    writeln!(out, "threads:          {}", args.common.threads)?;
    writeln!(
        out,
        "sampling ops:     {} ({:.1}% of periodic)",
        report.sampling_ops,
        100.0 * report.cost_ratio()
    )?;
    writeln!(
        out,
        "Dom0 CPU:         q1 {:.1}%  median {:.1}%  q3 {:.1}%  max {:.1}%",
        cpu.q1 * 100.0,
        cpu.median * 100.0,
        cpu.q3 * 100.0,
        cpu.max * 100.0
    )?;
    writeln!(
        out,
        "miss rate:        {:.4}",
        report.accuracy.misdetection_rate()
    )?;
    writeln!(
        out,
        "engine:           {} shards, {} epochs, {} merges, {} lane swaps, {} buffer reuses",
        engine.shards, engine.epochs, engine.merges, engine.lane_swaps, engine.arena_reuses
    )?;
    write_sink_dirs(out, args)?;
    Ok(())
}

/// The synthetic bursty traces behind `run`, `chaos` and `coordinator`:
/// every 50th tick all monitors spike over their local thresholds
/// together, with a small per-monitor wobble so traces differ.
fn bursty_traces(n: usize, ticks: usize) -> Vec<Vec<f64>> {
    let local = 100.0;
    (0..n)
        .map(|m| {
            (0..ticks)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    if t % 50 == 49 {
                        local * 1.4 + wobble
                    } else {
                        local * 0.2 + wobble
                    }
                })
                .collect()
        })
        .collect()
}

/// What a run stamps into a store it records — and what `backtest`
/// needs to rebuild the production config: `--monitors` local
/// thresholds of 100 each, at error allowance `err`.
fn task_meta(args: &Args, err: f64) -> TaskMeta {
    TaskMeta {
        monitors: args.monitors,
        global_threshold: 100.0 * args.monitors as f64,
        error_allowance: err,
        ticks: args.ticks as u64,
        seed: args.common.seed,
    }
}

/// The task `meta` describes, open for further tuning.
fn task_spec(meta: &TaskMeta) -> TaskSpecBuilder {
    TaskSpec::builder(meta.global_threshold)
        .monitors(meta.monitors)
        .error_allowance(meta.error_allowance)
}

/// The single-task workload `run`, `chaos`, `chaos --net` and
/// `coordinator` all drive: [`task_spec`] over [`bursty_traces`].
struct Workload {
    spec: TaskSpec,
    traces: Vec<Vec<f64>>,
    meta: TaskMeta,
}

impl Workload {
    fn bursty(args: &Args, err: f64) -> Result<Workload, CliError> {
        let meta = task_meta(args, err);
        Ok(Workload {
            spec: task_spec(&meta).build()?,
            traces: bursty_traces(args.monitors, args.ticks),
            meta,
        })
    }
}

/// The sinks of one run — obs bundle, sample recorder, embedded HTTP
/// plane — opened from the flags in one place, attached to whichever
/// runner drives the run, and torn down in one order.
struct Sinks {
    obs: volley_obs::Obs,
    recorder: Option<SampleRecorder>,
    serve: Option<volley_serve::ServerHandle>,
    linger_ms: u64,
}

impl Sinks {
    /// Opens the sinks the flags ask for, so a bad store directory or
    /// serve address fails before the run starts. The obs bundle is
    /// enabled when `obs_on` or when `--serve-addr` needs a live
    /// registry to scrape. With `meta` and `--store-dir`, a recorder is
    /// opened and stamped; with `io_faults`, its store runs over its own
    /// fault-injecting filesystem (an op counter of its own under the same
    /// plan, so the store's writes and the runner-owned sinks' never
    /// shift each other's fault decisions) and degrades to lossy
    /// recording. The store counts its faults itself: the run's
    /// degradation report reads them through its health.
    fn open(
        args: &Args,
        obs_on: bool,
        meta: Option<&TaskMeta>,
        io_faults: Option<&IoFaultPlan>,
    ) -> Result<Sinks, CliError> {
        let obs = volley_obs::Obs::new(obs_on || args.serve.enabled());
        let store_dir = args.common.store_dir.as_deref();
        let faults = io_faults.map(|plan| FaultFs::new(plan.clone()));
        let recorder = match (store_dir, meta) {
            (Some(dir), Some(meta)) => {
                let faulted = faults.is_some();
                let store = match faults {
                    Some(fs) => Store::open_on(Arc::new(fs), dir),
                    None => Store::open(dir),
                }
                .map_err(|e| CliError::Input(format!("cannot open store {dir}: {e}")))?;
                match store.write_meta(meta) {
                    // Under injected storage faults the meta stamp is
                    // best-effort like every other persistence write: a
                    // torn or failed write degrades recording, it must
                    // not abort the run.
                    Err(_) if faulted => {}
                    stamped => stamped?,
                }
                Some(SampleRecorder::new(store))
            }
            _ => None,
        };
        let serve = match &args.serve.addr {
            Some(addr) => {
                let mut config = volley_serve::ServeConfig::new(addr.clone());
                config.store_dir = args.serve.resolve_store_dir(store_dir).map(str::to_string);
                config.max_request_bytes = args.serve.max_request_bytes;
                config.idle_timeout = Duration::from_millis(args.serve.idle_timeout_ms);
                config.stream_buffer = args.serve.stream_buffer;
                config.page_limit = args.serve.page_limit;
                let handle = volley_serve::Server::start(config, &obs)
                    .map_err(|e| CliError::Input(format!("cannot serve on {addr}: {e}")))?;
                Some(handle)
            }
            None => None,
        };
        Ok(Sinks {
            obs,
            recorder,
            serve,
            linger_ms: args.serve.linger_ms,
        })
    }

    /// A [`TaskRunner`] for `spec` wired to every open sink; a recorder
    /// also takes registry snapshots every `--obs-every` ticks (which
    /// flips the obs bundle on at run time).
    fn task_runner(&self, spec: &TaskSpec, args: &Args) -> Result<TaskRunner, CliError> {
        let mut runner = TaskRunner::new(spec)?.with_obs(self.obs.clone());
        if let Some(recorder) = &self.recorder {
            runner = runner
                .with_recorder(recorder.clone())
                .with_snapshot_every(args.obs_every);
        }
        if let Some(handle) = &self.serve {
            runner = runner.with_serve_publisher(handle.publisher());
        }
        Ok(runner)
    }

    /// A [`NetCoordinator`] for `spec` bound to `addr`, with the shared
    /// deadline / quarantine / transport flags applied and wired to the
    /// obs bundle and the HTTP plane.
    fn net_coordinator(
        &self,
        spec: TaskSpec,
        addr: &NetAddr,
        args: &Args,
    ) -> Result<NetCoordinator, CliError> {
        let mut coordinator = NetCoordinator::bind(spec, addr)?
            .with_tick_deadline(Duration::from_millis(args.deadline_ms))
            .with_quarantine_after(args.quarantine_after)
            .with_transport(transport_config(&args.transport))
            .with_obs(&self.obs);
        if let Some(handle) = &self.serve {
            coordinator = coordinator.with_serve_publisher(handle.publisher());
        }
        Ok(coordinator)
    }

    /// Ends the run: publishes `run_end`, keeps serving through
    /// `--serve-linger-ms` so clients can drain, then stops the HTTP
    /// loop. The recorder was sealed by the run's own teardown, before
    /// its report read the store's health.
    fn finish(&mut self, ticks: u64) {
        let Some(handle) = self.serve.take() else {
            return;
        };
        handle.publisher().run_end(ticks);
        if self.linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.linger_ms));
        }
        let _ = handle.shutdown();
    }
}

/// What `run` adds to its runtime report.
#[derive(Debug, Serialize)]
struct RunExtras {
    monitors: usize,
    cost_ratio: f64,
    /// Sharded-engine execution counters, when the workload ran on the
    /// simulation engine. The live runtime reports `null` here; the
    /// field exists so consumers see one shape across `sim` and `run`.
    engine: Option<EngineStats>,
    /// The final in-process registry snapshot, embedded verbatim.
    snapshot: volley_obs::Snapshot,
}

/// Runs the live runtime on the bursty workload with observability
/// enabled, optionally recording into a store (snapshots included) and
/// arming the self-monitoring watchdog.
fn run_runtime<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let n = args.monitors;
    let workload = Workload::bursty(args, args.err)?;
    let mut sinks = Sinks::open(args, true, Some(&workload.meta), None)?;
    let mut runner = sinks.task_runner(&workload.spec, args)?;
    if let Some(threshold_us) = args.self_monitor_us {
        // Zero error allowance: the watchdog inspects every tick, so a
        // single stall cannot slip between adaptive samples.
        runner = runner.with_self_monitor(threshold_us, 0.0);
    }
    let report = runner.run(&workload.traces)?;
    sinks.finish(report.ticks);

    let snapshot = sinks.obs.snapshot(report.ticks);
    if args.common.report_json {
        let extras = RunExtras {
            monitors: n,
            cost_ratio: report.cost_ratio(n),
            engine: None,
            snapshot,
        };
        return write_envelope(out, "run", extended(&report, extras));
    }
    writeln!(out, "monitors:         {n}")?;
    writeln!(out, "ticks:            {}", report.ticks)?;
    writeln!(out, "alerts:           {}", report.alerts)?;
    write_samples(out, report.total_samples, report.cost_ratio(n))?;
    if args.self_monitor_us.is_some() {
        writeln!(
            out,
            "self-monitor:     {} samples, {} alerts",
            report.self_monitor_samples, report.self_monitor_alerts
        )?;
    }
    write_snapshot_summary(&snapshot, out)?;
    write_sink_dirs(out, args)?;
    Ok(())
}

/// Renders a snapshot's counters, gauges and histogram quantiles.
fn write_snapshot_summary<W: Write>(
    snapshot: &volley_obs::Snapshot,
    out: &mut W,
) -> Result<(), CliError> {
    if !snapshot.counters.is_empty() {
        writeln!(out, "counters:")?;
        for (name, value) in &snapshot.counters {
            writeln!(out, "  {name:<42} {value}")?;
        }
    }
    if !snapshot.gauges.is_empty() {
        writeln!(out, "gauges:")?;
        for (name, value) in &snapshot.gauges {
            writeln!(out, "  {name:<42} {value:.3}")?;
        }
    }
    let recorded: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|(_, h)| !h.is_empty())
        .collect();
    if !recorded.is_empty() {
        writeln!(
            out,
            "histograms:        count      p50      p90      p99      max"
        )?;
        for (name, h) in recorded {
            writeln!(
                out,
                "  {name:<32} {:>7} {:>8} {:>8} {:>8} {:>8}",
                h.count,
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max
            )?;
        }
    }
    Ok(())
}

/// Reads back the newest snapshot a run recorded into its store.
fn obs_read<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let dir = required(&args.common.store_dir, "--store-dir")?;
    let Some(snapshot) = open_store(dir)?
        .latest_snapshot(0)
        .map_err(|e| CliError::Input(format!("cannot read {dir}: {e}")))?
    else {
        return Err(CliError::Input(format!("no obs snapshots in store {dir}")));
    };
    if args.prom {
        write!(out, "{}", snapshot.to_prometheus())?;
        return Ok(());
    }
    if args.common.report_json {
        return write_envelope(out, "obs", &snapshot);
    }
    writeln!(out, "store:            {dir}")?;
    writeln!(out, "tick:             {}", snapshot.tick)?;
    write_snapshot_summary(&snapshot, out)
}

/// What `chaos` adds to its runtime report.
#[derive(Debug, Serialize)]
struct ChaosExtras {
    monitors: usize,
    cost_ratio: f64,
}

/// One sink's line of the `chaos` degradation section.
fn write_degradation<W: Write>(
    out: &mut W,
    label: &str,
    counts: std::fmt::Arguments<'_>,
    degraded_at_end: bool,
) -> std::io::Result<()> {
    let tail = if degraded_at_end {
        " [degraded at end]"
    } else {
        ""
    };
    writeln!(out, "{label:<18}{counts}{tail}")
}

/// Runs the live runtime on the bursty workload while a
/// [`volley_runtime::FaultPlan`] built from the command-line flags drops,
/// delays and duplicates messages and crashes or stalls monitors.
fn chaos<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let n = args.monitors;
    let (report, _) = chaos_run(args)?;
    let cost_ratio = report.cost_ratio(n);
    if args.common.report_json {
        let extras = ChaosExtras {
            monitors: n,
            cost_ratio,
        };
        return write_envelope(out, "chaos", extended(&report, extras));
    }
    write_fleet_head(out, n, &report)?;
    writeln!(
        out,
        "polls:            {} ({} degraded)",
        report.polls, report.degraded_polls
    )?;
    writeln!(out, "missed reports:   {}", report.missed_tick_reports)?;
    writeln!(
        out,
        "quarantines:      {} ({} restarts, {} recoveries)",
        report.quarantines, report.restarts, report.recoveries
    )?;
    if report.coordinator_failovers > 0 || report.stale_epoch_frames > 0 {
        writeln!(
            out,
            "failovers:        {} ({} checkpoint restores, {} conservative)",
            report.coordinator_failovers, report.checkpoint_restores, report.conservative_restarts
        )?;
        writeln!(out, "stale frames:     {}", report.stale_epoch_frames)?;
    }
    write_samples(out, report.total_samples, cost_ratio)?;
    if report.degradation.any() {
        let d = &report.degradation;
        writeln!(out, "io faults:        {} injected", d.io_faults_injected)?;
        write_degradation(
            out,
            "wal degradation:",
            format_args!(
                "{} write / {} sync failures ({} trips, {} rearms, {} ring drops)",
                d.wal_write_failures,
                d.wal_sync_failures,
                d.wal_trips,
                d.wal_rearms,
                d.wal_ring_dropped
            ),
            d.wal_degraded_at_end,
        )?;
        write_degradation(
            out,
            "store shedding:",
            format_args!(
                "{} samples shed ({} trips, {} rearms)",
                d.store_shed_samples, d.store_trips, d.store_rearms
            ),
            d.store_degraded_at_end,
        )?;
    }
    write_alert_ticks(out, &report.alert_ticks)?;
    write_sink_dirs(out, args)?;
    Ok(())
}

/// The run behind [`chaos`]: its report, and its sinks once finished.
fn chaos_run(args: &Args) -> Result<(RuntimeReport, Sinks), CliError> {
    use volley_runtime::{FaultPath, FaultPlan};

    let n = args.monitors;
    // Error allowance 0 keeps every monitor at the default interval, so a
    // fault-free run alerts on exactly the burst ticks — the report's
    // alert list reads directly as "which bursts survived the faults".
    let workload = Workload::bursty(args, 0.0)?;

    // A fault for a monitor the fleet does not have would do nothing.
    let crashes = args.crashes.iter().map(|&(m, _)| ("--crash", m));
    let stalls = args.stalls.iter().map(|&(m, _, _)| ("--stall", m));
    let partitioned = args.partitions.iter().flat_map(|(lanes, _, _)| lanes);
    let partitions = partitioned.map(|&m| ("--partition", m));
    if let Some((flag, m)) = crashes
        .chain(stalls)
        .chain(partitions)
        .find(|&(_, m)| m as usize >= n)
    {
        return Err(CliError::Usage(format!(
            "{flag} names monitor {m}, but --monitors {n} numbers them 0..{n}"
        )));
    }

    let mut plan = FaultPlan::new(args.common.seed)
        .with_drop_rate(FaultPath::ViolationReport, args.drop_rate)
        .with_drop_rate(FaultPath::PollReply, args.poll_drop_rate)
        .with_duplication_rate(args.dup_rate)
        .with_delay_rate(args.delay_rate);
    for &(m, t) in &args.crashes {
        plan = plan.with_crash(MonitorId(m), t);
    }
    for &(m, t, d) in &args.stalls {
        plan = plan.with_stall(MonitorId(m), t, d);
    }
    for &t in &args.coordinator_crashes {
        plan = plan.with_coordinator_crash(t);
    }
    for (lanes, t, d) in &args.partitions {
        let lanes: Vec<MonitorId> = lanes.iter().map(|&m| MonitorId(m)).collect();
        // A partition too long to end within the tick axis never heals.
        plan = plan.with_partition(&lanes, *t, t.saturating_add(*d));
    }
    for &record in &args.wal_corruptions {
        plan = plan.with_wal_corruption(record);
    }
    let io_plan = Some(args.io.plan(args.common.seed)).filter(|plan| !plan.is_benign());
    if let Some(io_plan) = &io_plan {
        plan = plan.with_io_faults(io_plan.clone());
    }

    let mut sinks = Sinks::open(args, false, Some(&workload.meta), io_plan.as_ref())?;
    let mut runner = sinks
        .task_runner(&workload.spec, args)?
        .with_fault_plan(plan)
        .with_quarantine_after(args.quarantine_after)
        .with_supervision(!args.no_supervise)
        .with_standby(args.standby)
        .with_wal_sync(args.wal_sync);
    if let Some(dir) = &args.wal_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        runner = runner.with_wal(
            dir.join(format!("chaos-{}.wal", args.common.seed)),
            args.checkpoint_interval,
        );
    }
    let report = runner.run(&workload.traces)?;
    sinks.finish(report.ticks);
    Ok((report, sinks))
}

/// The planted cascade workload for `chaos --multitask`: task 0 (the
/// leader) violates on ticks 10..18 of every 40, task 1 (the follower)
/// echoes it two ticks later, and every further task spikes on its own
/// seeded, uncorrelated schedule (roughly 4% of ticks). All of a task's
/// monitors spike together so local violations aggregate over the
/// global threshold; the per-monitor wobble keeps traces distinct.
fn cascade_traces(tasks: usize, monitors: usize, ticks: usize, seed: u64) -> Vec<Vec<Vec<f64>>> {
    (0..tasks)
        .map(|task| {
            (0..monitors)
                .map(|m| {
                    (0..ticks)
                        .map(|t| {
                            let wobble = ((t * (3 + m)) % 7) as f64;
                            let hot = match task {
                                0 => (10..18).contains(&(t % 40)),
                                1 => (12..20).contains(&(t % 40)),
                                _ => splitmix64(seed ^ ((task as u64) << 32) ^ t as u64)
                                    .is_multiple_of(25),
                            };
                            if hot {
                                200.0 + wobble
                            } else {
                                5.0 + wobble
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The planted role of one task in the `chaos --multitask` workload.
fn planted_role(task: usize) -> &'static str {
    match task {
        0 => "leader",
        1 => "follower",
        _ => "noise",
    }
}

/// What one task's section of a `chaos --multitask` report adds to the
/// gated run's report: the ungated baseline's numbers.
#[derive(Debug, Serialize)]
struct MultitaskTaskExtras {
    task: usize,
    /// The *planted* role (what the workload encodes); the derived plan
    /// is in the report's `gates`.
    role: &'static str,
    baseline_alerts: u64,
    baseline_samples: u64,
}

/// JSON report of a `chaos --multitask` run.
#[derive(Debug, Serialize)]
struct MultitaskChaosReport {
    tasks: usize,
    monitors_per_task: usize,
    ticks: u64,
    train_ticks: u64,
    /// The derived gating plan (follower ← leader, confidence).
    gates: Vec<volley_runtime::PlanGate>,
    gate_flips: u64,
    suppressed_samples: u64,
    total_samples: u64,
    /// Samples of the identical workload run ungated (training window
    /// spanning the whole run) — the suppression savings baseline.
    baseline_samples: u64,
    /// `1 − total/baseline`: the fleet-wide sampling saved by gating.
    savings_ratio: f64,
    /// Alerts the gated run missed relative to the baseline, summed over
    /// tasks — the mis-detection cost of suppression.
    missed_alerts: u64,
    /// Per task: its gated report plus [`MultitaskTaskExtras`].
    tasks_detail: Vec<serde::Value>,
}

/// Runs `--multitask N` correlated tasks under the live multi-task
/// suppression runner ([`volley_runtime::MultiTaskRunner`]): a planted
/// leader/follower cascade plus seeded noise tasks, trained for
/// `--train-ticks`, then gated. The same workload is re-run ungated to
/// price the suppression savings and mis-detection cost. The fleet runs
/// lossless in this mode: its table carries no fault flags, only the
/// sinks.
fn chaos_multitask<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use volley_core::correlation::CorrelationConfig;
    use volley_runtime::{MultiTask, MultiTaskConfig, MultiTaskRunner};

    let monitors = args.monitors;
    let ticks = args.ticks as u64;
    let train_ticks = if args.train_ticks > 0 {
        args.train_ticks
    } else {
        ticks / 3
    };
    // Same adaptation shape as the runtime's own cascade tests: a small
    // max interval keeps the adaptive schedule fine-grained, so the
    // coarse gated interval (8) is visibly cheaper.
    let meta = task_meta(args, 0.05);
    let spec = task_spec(&meta)
        .max_interval(4)
        .patience(2)
        .warmup_samples(2)
        .build()?;
    let traces = cascade_traces(args.multitask, monitors, args.ticks, args.common.seed);
    let tasks: Vec<MultiTask> = traces
        .into_iter()
        .map(|t| MultiTask::new(spec.clone(), t))
        .collect();
    let correlation = CorrelationConfig {
        min_confidence: 0.8,
        min_support: 5,
        ..CorrelationConfig::default()
    };

    let mut sinks = Sinks::open(args, false, Some(&meta), None)?;
    let mut runner = MultiTaskRunner::new(MultiTaskConfig {
        correlation,
        train_ticks,
    })?
    .with_obs(sinks.obs.clone());
    if let Some(recorder) = &sinks.recorder {
        runner = runner
            .with_recorder(recorder.clone())
            .with_snapshot_every(args.obs_every);
    }
    if let Some(dir) = &args.wal_dir {
        std::fs::create_dir_all(dir)?;
        runner = runner.with_wal_dir(dir, args.checkpoint_interval);
    }
    if let Some(handle) = &sinks.serve {
        runner = runner.with_serve_publisher(handle.publisher());
    }
    let outcome = runner.run(&tasks)?;
    sinks.finish(outcome.ticks);

    // The savings baseline: the identical workload, never gated (a
    // training window spanning the run is pure observation).
    let baseline = MultiTaskRunner::new(MultiTaskConfig {
        correlation,
        train_ticks: ticks,
    })?
    .run(&tasks)?;

    let total_samples = outcome.total_samples();
    let baseline_samples = baseline.total_samples();
    let savings_ratio = if baseline_samples > 0 {
        1.0 - total_samples as f64 / baseline_samples as f64
    } else {
        0.0
    };
    let pairs = || outcome.reports.iter().zip(&baseline.reports);
    let missed_alerts = pairs()
        .map(|(gated, ungated)| ungated.alerts.saturating_sub(gated.alerts))
        .sum();
    let tasks_detail = pairs().enumerate().map(|(task, (gated, ungated))| {
        let extras = MultitaskTaskExtras {
            task,
            role: planted_role(task),
            baseline_alerts: ungated.alerts,
            baseline_samples: ungated.total_samples,
        };
        extended(gated, extras)
    });
    let summary = MultitaskChaosReport {
        tasks: args.multitask,
        monitors_per_task: monitors,
        ticks: outcome.ticks,
        train_ticks: outcome.train_ticks,
        gates: outcome.gates.clone(),
        gate_flips: outcome.gate_flips,
        suppressed_samples: outcome.suppressed_samples,
        total_samples,
        baseline_samples,
        savings_ratio,
        missed_alerts,
        tasks_detail: tasks_detail.collect(),
    };
    if args.common.report_json {
        return write_envelope(out, "chaos", &summary);
    }
    writeln!(
        out,
        "tasks:            {} × {} monitors",
        summary.tasks, summary.monitors_per_task
    )?;
    writeln!(
        out,
        "ticks:            {} ({} training)",
        summary.ticks, summary.train_ticks
    )?;
    writeln!(out, "gates:            {}", summary.gates.len())?;
    for gate in &summary.gates {
        writeln!(
            out,
            "  task {} ← task {}  confidence {:.3}  interval {}",
            gate.follower, gate.leader, gate.confidence, gate.gated_interval
        )?;
    }
    writeln!(
        out,
        "suppressed:       {} samples ({} gate flips)",
        summary.suppressed_samples, summary.gate_flips
    )?;
    writeln!(
        out,
        "samples:          {} vs {} ungated ({:.1}% saved)",
        summary.total_samples,
        summary.baseline_samples,
        100.0 * summary.savings_ratio
    )?;
    writeln!(out, "missed alerts:    {}", summary.missed_alerts)?;
    for (task, (gated, ungated)) in pairs().enumerate() {
        let section = gated.multitask.unwrap_or_default();
        writeln!(
            out,
            "  task {task} {:<9} alerts {}/{}  samples {}  suppressed {} over {} gated ticks",
            planted_role(task),
            gated.alerts,
            ungated.alerts,
            gated.total_samples,
            section.suppressed_samples,
            section.gated_ticks
        )?;
    }
    write_sink_dirs(out, args)?;
    Ok(())
}

/// Converts the `transport` group into the runtime's socket
/// configuration (`0` = no timeout).
fn transport_config(t: &TransportArgs) -> TransportConfig {
    let ms = |v: u64| (v > 0).then(|| Duration::from_millis(v));
    TransportConfig {
        max_frame_size: t.max_frame_bytes,
        write_timeout: ms(t.write_timeout_ms),
    }
}

/// Converts the `reconnect` group into the agent's redial policy.
fn backoff_config(t: &TransportArgs) -> BackoffConfig {
    BackoffConfig {
        base: Duration::from_millis(t.backoff_base_ms),
        cap: Duration::from_millis(t.backoff_cap_ms),
        ..BackoffConfig::default()
    }
}

/// Resolves the `--unix <path>` / TCP-address pair into a [`NetAddr`]
/// (`--unix` wins when both are given).
fn net_addr(args: &Args) -> NetAddr {
    match &args.unix {
        Some(path) => NetAddr::Unix(std::path::PathBuf::from(path)),
        None => NetAddr::Tcp(args.tcp.clone()),
    }
}

/// What `coordinator` adds to its runtime report — the same detection
/// fields as the in-process `run` report, so CI can diff them for
/// parity: the socket-layer counters.
#[derive(Debug, Serialize)]
struct CoordinatorExtras {
    monitors: usize,
    cost_ratio: f64,
    net: NetStats,
}

/// Binds the coordinator socket, waits for the agent fleet to cover
/// every monitor, then drives the bursty workload over the wire. The
/// workload, spec, and aggregation are identical to `run`, so the
/// reports must agree bit-for-bit on the detection fields.
fn coordinator_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let n = args.monitors;
    let workload = Workload::bursty(args, args.err)?;
    let addr = net_addr(args);
    // Nothing is recorded over the wire, so no recorder (no `meta`) is
    // opened: `--store-dir` gets the final snapshot only, and the HTTP
    // plane serves it.
    let store_dir = args.common.store_dir.as_deref();
    let mut sinks = Sinks::open(args, store_dir.is_some(), None, None)?;
    let coordinator = sinks
        .net_coordinator(workload.spec, &addr, args)?
        .with_queue_cap(args.queue_cap)
        .with_idle_timeout(Duration::from_millis(args.idle_timeout_ms))
        .with_wait_timeout(Duration::from_millis(args.wait_ms))
        .with_tick_interval(Duration::from_millis(args.tick_interval_ms));
    let outcome = coordinator.run(&workload.traces)?;
    if let Some(dir) = store_dir {
        record_final_snapshot(dir, &sinks.obs, outcome.report.ticks)?;
    }
    sinks.finish(outcome.report.ticks);

    let report = &outcome.report;
    let cost_ratio = report.cost_ratio(n);
    if args.common.report_json {
        let extras = CoordinatorExtras {
            monitors: n,
            cost_ratio,
            net: outcome.net,
        };
        return write_envelope(out, "coordinator", extended(report, extras));
    }
    writeln!(out, "listen:           {addr}")?;
    write_fleet_head(out, n, report)?;
    write_samples(out, report.total_samples, cost_ratio)?;
    write_quarantines(out, report)?;
    write_net_stats(&outcome.net, out)?;
    write_sink_dirs(out, args)?;
    Ok(())
}

/// The `quarantines:` line of the socket-fleet reports (nothing
/// restarts a remote monitor, so there is no restart count).
fn write_quarantines<W: Write>(out: &mut W, report: &RuntimeReport) -> std::io::Result<()> {
    writeln!(
        out,
        "quarantines:      {} ({} recoveries)",
        report.quarantines, report.recoveries
    )
}

/// Renders the socket-layer counters shared by `coordinator` and
/// `chaos --net` text reports.
fn write_net_stats<W: Write>(net: &NetStats, out: &mut W) -> std::io::Result<()> {
    writeln!(
        out,
        "connections:      {} accepted, {} reconnects, {} kicked, {} idle-closed",
        net.connections_accepted, net.reconnects, net.kicked, net.idle_closed
    )?;
    writeln!(
        out,
        "frames:           {} in, {} out ({} malformed)",
        net.frames_in, net.frames_out, net.malformed_frames
    )?;
    writeln!(
        out,
        "queues:           depth high-water {}, {} backpressure drops, {} unrouted drops",
        net.max_queue_depth, net.backpressure_drops, net.unrouted_drops
    )
}

/// Runs one agent process to completion: hosts `--monitors a..b` of the
/// fleet and serves them over the socket until the coordinator shuts
/// every one of them down.
fn agent_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let n = args.fleet_size;
    let threshold = args.threshold.unwrap_or(100.0 * n as f64);
    let spec = TaskSpec::builder(threshold)
        .monitors(n)
        .error_allowance(args.err)
        .build()?;
    let (start, end) = args.monitor_range.unwrap_or((0, n as u32));
    let config = AgentConfig {
        agent: args.agent_id,
        addr: net_addr(args),
        spec,
        monitors: start..end,
        transport: transport_config(&args.transport),
        backoff: backoff_config(&args.transport),
    };
    let report = run_agent(&config)?;
    if args.common.report_json {
        return write_envelope(out, "agent", report);
    }
    writeln!(out, "agent:            {}", report.agent)?;
    writeln!(
        out,
        "monitors:         {} ({start}..{end})",
        report.monitors
    )?;
    writeln!(
        out,
        "frames:           {} sent, {} received",
        report.frames_sent, report.frames_received
    )?;
    writeln!(out, "reconnects:       {}", report.reconnects)?;
    Ok(())
}

/// What `chaos --net` adds to its runtime report.
#[derive(Debug, Serialize)]
struct NetChaosExtras {
    monitors: usize,
    agents: usize,
    agent_reconnects: u64,
    net: NetStats,
}

/// Socket-level chaos: binds an ephemeral localhost port, splits the
/// monitors across in-process agent threads, and drives the bursty
/// workload while the storm plan severs a random fraction of agent
/// connections on a fixed cadence. Like channel-mode `chaos`, the error
/// allowance is zero so a clean run alerts on exactly the burst ticks —
/// the alert list reads as "which bursts survived the storms".
fn chaos_net<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let n = args.monitors;
    let requested = if args.net_agents == 0 {
        n
    } else {
        args.net_agents.min(n)
    };
    // `per` monitors each; the last slices may come up empty when the
    // split is uneven, so only as many agents as have monitors to host
    // are spawned (and reported).
    let per = n.div_ceil(requested);
    let agents = n.div_ceil(per);
    let workload = Workload::bursty(args, 0.0)?;

    let mut faults = NetFaultPlan::new(args.common.seed);
    if args.net_storm_every > 0 {
        faults = faults.with_storm(args.net_storm_every, args.net_storm_fraction);
    }
    let mut sinks = Sinks::open(args, false, None, None)?;
    let coordinator = sinks
        .net_coordinator(
            workload.spec.clone(),
            &NetAddr::Tcp("127.0.0.1:0".into()),
            args,
        )?
        .with_wait_timeout(Duration::from_secs(30))
        .with_faults(faults);
    let local = coordinator
        .local_addr()
        .ok_or_else(|| CliError::Input("chaos --net needs a TCP local address".to_string()))?;

    let handles: Vec<std::thread::JoinHandle<_>> = (0..agents)
        .map(|a| {
            let config = AgentConfig {
                agent: a as u32,
                addr: NetAddr::Tcp(local.to_string()),
                spec: workload.spec.clone(),
                monitors: (a * per) as u32..((a + 1) * per).min(n) as u32,
                transport: transport_config(&args.transport),
                backoff: backoff_config(&args.transport),
            };
            std::thread::spawn(move || run_agent(&config))
        })
        .collect();
    let outcome = coordinator.run(&workload.traces)?;
    let mut agent_reconnects = 0u64;
    for handle in handles {
        let report = handle
            .join()
            .map_err(|_| CliError::Input("agent thread panicked".to_string()))??;
        agent_reconnects += report.reconnects;
    }
    sinks.finish(outcome.report.ticks);

    let report = &outcome.report;
    if args.common.report_json {
        let extras = NetChaosExtras {
            monitors: n,
            agents,
            agent_reconnects,
            net: outcome.net,
        };
        return write_envelope(out, "chaos", extended(report, extras));
    }
    write_fleet_head(out, format_args!("{n} across {agents} agents"), report)?;
    writeln!(out, "missed reports:   {}", report.missed_tick_reports)?;
    write_quarantines(out, report)?;
    writeln!(out, "agent reconnects: {agent_reconnects}")?;
    write_net_stats(&outcome.net, out)?;
    write_alert_ticks(out, &report.alert_ticks)?;
    Ok(())
}

/// JSON report of `store compact`.
#[derive(Debug, Serialize)]
struct StoreCompactReport {
    dir: String,
    stats: volley_store::CompactionStats,
}

/// Inspects or maintains a recorded sample store: `query` prints matching
/// records, `compact` merges sealed segments, `export-csv` dumps rows for
/// spreadsheet post-processing.
fn store_cmd<W: Write>(action: StoreAction, args: &Args, out: &mut W) -> Result<(), CliError> {
    let dir = required(&args.common.store_dir, "--store-dir")?;
    let mut store = open_store(dir)?;
    // The same struct the HTTP query endpoint builds from its query
    // string, so the two surfaces resolve ranges identically.
    let params = volley_store::QueryParams {
        task: args.task,
        monitor: args.monitor,
        kind: args.kind,
        from: args.from,
        to: args.to.unwrap_or(u64::MAX),
        limit: args.limit,
        cursor: args.cursor,
    };
    match action {
        StoreAction::Query => {
            // Range resolution, pagination and rendering are shared
            // with `GET /api/v1/query` (see `volley_store::query`), so
            // the two surfaces are byte-identical for the same range.
            let report = volley_store::query::run_query(&store, dir, &params)?;
            if args.common.report_json {
                return write_envelope(out, "store", &report);
            }
            volley_store::query::render_text(out, &report)?;
            Ok(())
        }
        StoreAction::Compact => {
            let stats = store.compact()?;
            let report = StoreCompactReport {
                dir: dir.to_string(),
                stats,
            };
            if args.common.report_json {
                return write_envelope(out, "store", &report);
            }
            writeln!(out, "store:            {}", &report.dir)?;
            writeln!(
                out,
                "segments:         {} -> {}",
                report.stats.segments_before, report.stats.segments_after
            )?;
            writeln!(
                out,
                "bytes:            {} -> {}",
                report.stats.bytes_before, report.stats.bytes_after
            )?;
            writeln!(out, "records:          {}", report.stats.records)?;
            Ok(())
        }
        StoreAction::ExportCsv => {
            let limit = args.limit.unwrap_or(usize::MAX);
            writeln!(out, "task,monitor,kind,tick,value")?;
            for record in store.scan(&params.range())?.take(limit) {
                writeln!(
                    out,
                    "{},{},{},{},{}",
                    record.task,
                    record.monitor,
                    record.kind.as_str(),
                    record.tick,
                    record.value
                )?;
            }
            Ok(())
        }
    }
}

/// JSON report of a `backtest` invocation.
#[derive(Debug, Serialize)]
struct BacktestReport {
    dir: String,
    task: u32,
    monitors: usize,
    ticks: u64,
    recorded_error_allowance: f64,
    recorded_samples: u64,
    recorded_cost_ratio: f64,
    recorded_alert_ticks: Vec<u64>,
    verified: bool,
    /// Index 0 is always the recorded-config determinism baseline.
    outcomes: Vec<volley_store::ReplayOutcome>,
}

/// Replays a recorded range offline: first at the recorded config (the
/// determinism baseline — `--verify` turns an inexact baseline into an
/// error), then through each candidate error allowance, reporting the
/// cost and detection deltas against production.
fn backtest_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use volley_store::{Backtest, ScanRange};

    let dir = required(&args.common.store_dir, "--store-dir")?;
    let task = args.task.unwrap_or(0);
    let store = open_store(dir)?;
    let range = ScanRange::all()
        .from(args.from)
        .to(args.to.unwrap_or(u64::MAX));
    let backtest = Backtest::load(&store, task, &range)?
        .ok_or_else(|| CliError::Input(format!("no samples recorded for task {task} in {dir}")))?;
    let mut meta = match store.read_meta()? {
        Some(meta) => meta,
        None => {
            let (Some(monitors), Some(threshold)) = (args.monitors_override, args.threshold) else {
                return Err(CliError::Input(format!(
                    "{dir} has no task-meta.json; pass --monitors and --threshold"
                )));
            };
            TaskMeta {
                monitors,
                global_threshold: threshold,
                error_allowance: 0.0,
                ticks: backtest.ticks(),
                seed: 0,
            }
        }
    };
    // Explicit flags win over recorded metadata.
    if let Some(monitors) = args.monitors_override {
        meta.monitors = monitors;
    }
    if let Some(threshold) = args.threshold {
        meta.global_threshold = threshold;
    }

    let baseline = backtest.replay(&Backtest::candidate_spec(&meta, None)?)?;
    if args.verify && !baseline.exact_match {
        return Err(CliError::Input(format!(
            "determinism check failed: replay at the recorded allowance {} \
             missed alerts {:?} and raised extra alerts {:?}",
            meta.error_allowance, baseline.missed_alerts, baseline.extra_alerts
        )));
    }
    let candidates: &[f64] = if args.errs.is_empty() {
        &[0.01, 0.05]
    } else {
        &args.errs
    };
    let mut outcomes = vec![baseline];
    for &err in candidates {
        outcomes.push(backtest.replay(&Backtest::candidate_spec(&meta, Some(err))?)?);
    }

    let report = BacktestReport {
        dir: dir.to_string(),
        task,
        monitors: backtest.monitors(),
        ticks: backtest.ticks(),
        recorded_error_allowance: meta.error_allowance,
        recorded_samples: backtest.recorded_samples(),
        recorded_cost_ratio: backtest.recorded_cost_ratio(),
        recorded_alert_ticks: backtest.recorded_alert_ticks().to_vec(),
        verified: args.verify,
        outcomes,
    };
    if args.common.report_json {
        return write_envelope(out, "backtest", &report);
    }
    writeln!(out, "store:            {}", &report.dir)?;
    writeln!(
        out,
        "recorded:         task {} · {} monitors · {} ticks · err {}",
        report.task, report.monitors, report.ticks, report.recorded_error_allowance
    )?;
    writeln!(
        out,
        "recorded cost:    {} samples ({:.1}% of periodic), {} alerts",
        report.recorded_samples,
        100.0 * report.recorded_cost_ratio,
        report.recorded_alert_ticks.len()
    )?;
    writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>8} {:>7} {:>7}  exact",
        "err", "cost", "Δcost", "matched", "missed", "extra"
    )?;
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let tag = if i == 0 { " (recorded)" } else { "" };
        writeln!(
            out,
            "{:>10} {:>9.1}% {:>+9.1}% {:>8} {:>7} {:>7}  {}{tag}",
            outcome.error_allowance,
            100.0 * outcome.cost_ratio,
            100.0 * outcome.cost_delta,
            outcome.matched_alerts,
            outcome.missed_alerts.len(),
            outcome.extra_alerts.len(),
            if outcome.exact_match { "yes" } else { "no" },
        )?;
    }
    Ok(())
}

/// JSON report of an `analyze` run: the job's identity, the framework's
/// IO accounting and the job's output.
#[derive(Debug, Serialize)]
struct AnalyzeReport {
    job: String,
    dir: String,
    records_scanned: u64,
    config: volley_analyze::CorrelationMatrixConfig,
    matrix: volley_analyze::CorrelationMatrix,
}

/// Runs the `correlate` analysis job over a recorded store: one
/// streaming scan pass, bounded memory (see `volley-analyze` for the
/// contract).
fn analyze_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use volley_analyze::{run_job, CorrelationMatrixConfig, CorrelationMatrixJob};

    let dir = required(&args.common.store_dir, "--store-dir")?;
    let store = open_store(dir)?;
    let job = CorrelationMatrixJob::new(CorrelationMatrixConfig {
        top_k: args.top_k,
        lag_window: args.lag,
        min_support: args.min_support,
        from: args.from,
        to: args.to.unwrap_or(u64::MAX),
        max_alerts_per_task: args.max_alerts,
    });
    let config = *job.config();
    let finished = run_job(&store, job)?;
    let report = AnalyzeReport {
        job: finished.job,
        dir: dir.to_string(),
        records_scanned: finished.records_scanned,
        config,
        matrix: finished.output,
    };
    if args.common.report_json {
        return write_envelope(out, "analyze", &report);
    }
    writeln!(out, "job:              {}", &report.job)?;
    writeln!(out, "store:            {}", &report.dir)?;
    writeln!(out, "records scanned:  {}", report.records_scanned)?;
    writeln!(
        out,
        "tasks:            {} ({} alerts{})",
        report.matrix.tasks,
        report.matrix.alerts,
        if report.matrix.truncated_tasks > 0 {
            format!(", {} truncated", report.matrix.truncated_tasks)
        } else {
            String::new()
        }
    )?;
    writeln!(
        out,
        "qualifying pairs: {} (top {} shown, lag {}, support ≥ {})",
        report.matrix.qualifying_pairs,
        report.matrix.pairs.len(),
        report.config.lag_window,
        report.config.min_support
    )?;
    for (rank, pair) in report.matrix.pairs.iter().enumerate() {
        writeln!(
            out,
            "  #{:<3} task {} → task {}  confidence {:.3}  joint {}/{}  leader alerts {}",
            rank + 1,
            pair.leader,
            pair.follower,
            pair.confidence,
            pair.joint,
            pair.support,
            pair.leader_alerts
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::CommonArgs;
    use volley_store::RecordKind;

    /// The options `argv` parses to: the subcommand's defaults plus
    /// whatever flags the test spells out.
    fn args_of(argv: &[&str]) -> Args {
        match Command::parse(argv.iter().map(|s| s.to_string())).expect("valid command line") {
            Command::Monitor(a)
            | Command::Generate(a)
            | Command::Simulate(a)
            | Command::Chaos(a)
            | Command::Run(a)
            | Command::Obs(a)
            | Command::Store(_, a)
            | Command::Backtest(a)
            | Command::Analyze(_, a)
            | Command::Coordinator(a)
            | Command::Agent(a) => a,
            Command::Help => panic!("{argv:?} is help"),
        }
    }

    fn json_common() -> CommonArgs {
        CommonArgs {
            report_json: true,
            ..CommonArgs::default()
        }
    }

    fn run_to_string(command: Command) -> String {
        let mut buffer = Vec::new();
        run(command, &mut buffer).expect("command succeeds");
        String::from_utf8(buffer).expect("utf8 output")
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(Command::Help);
        assert!(text.contains("volley monitor"));
        assert!(text.contains("volley generate"));
    }

    #[test]
    fn parse_trace_accepts_values_and_csv() {
        let input = "# comment\n1.5\n\n2,42.0\n3,  7\n";
        let values = parse_trace(input.as_bytes()).unwrap();
        assert_eq!(values, vec![1.5, 42.0, 7.0]);
    }

    #[test]
    fn parse_trace_rejects_garbage_and_empty() {
        assert!(matches!(
            parse_trace("abc\n".as_bytes()),
            Err(CliError::Input(_))
        ));
        assert!(matches!(
            parse_trace("# only comments\n".as_bytes()),
            Err(CliError::Input(_))
        ));
    }

    #[test]
    fn monitor_refuses_non_finite_values_and_thresholds() {
        let dir = std::env::temp_dir().join("volley-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let monitor = |name: &str, trace: &str, threshold: &str| {
            let path = dir.join(name);
            std::fs::write(&path, trace).unwrap();
            let result = run(
                Command::Monitor(Args {
                    input: path.to_string_lossy().to_string(),
                    ..args_of(&["monitor", "--threshold", threshold])
                }),
                &mut Vec::new(),
            );
            let _ = std::fs::remove_file(&path);
            result
        };
        // `f64::from_str` accepts both; neither may reach the sampler.
        let trace = "1\n2\nNaN\n3\ninf\n200\n4\n";
        match monitor("nan-trace.csv", trace, "100") {
            Err(CliError::Input(msg)) => {
                assert!(msg.starts_with("line 3:"), "{msg}");
                assert!(msg.ends_with("is not a finite number"), "{msg}");
            }
            other => panic!("a NaN trace value must be refused: {other:?}"),
        }
        let trace = "1\n2\n3\ninf\n200\n4\n";
        match monitor("inf-trace.csv", trace, "100") {
            Err(CliError::Input(msg)) => assert!(msg.starts_with("line 4:"), "{msg}"),
            other => panic!("an inf trace value must be refused: {other:?}"),
        }
        assert!(matches!(
            monitor("inf-threshold.csv", "1\n2\n", "inf"),
            Err(CliError::Config(VolleyError::NonFiniteValue {
                parameter: "threshold"
            }))
        ));
    }

    #[test]
    fn generate_then_monitor_round_trip() {
        // Generate a single-task network trace to a temp file…
        let dir = std::env::temp_dir().join("volley-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let csv = run_to_string(Command::Generate(args_of(&[
            "generate", "--family", "network", "--ticks", "800", "--seed", "5",
        ])));
        // Strip the header for monitor's single-column input.
        let body: String = csv.lines().skip(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, body).unwrap();
        // …then monitor it.
        let text = run_to_string(Command::Monitor(Args {
            input: path.to_string_lossy().to_string(),
            err: 0.02,
            max_interval: 8,
            ..args_of(&["monitor", "--percentile", "1"])
        }));
        assert!(text.contains("condition:"), "{text}");
        assert!(text.contains("samples:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn monitor_json_is_parseable() {
        let dir = std::env::temp_dir().join("volley-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("json-trace.csv");
        std::fs::write(&path, "1\n2\n3\n100\n2\n1\n").unwrap();
        let text = run_to_string(Command::Monitor(Args {
            input: path.to_string_lossy().to_string(),
            err: 0.0,
            max_interval: 4,
            common: json_common(),
            ..args_of(&["monitor", "--threshold", "50"])
        }));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "monitor");
        assert_eq!(parsed["report"]["violations"], 1);
        assert_eq!(parsed["report"]["detected"], 1);
        assert_eq!(parsed["report"]["misdetection_rate"], 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn monitor_below_condition() {
        let dir = std::env::temp_dir().join("volley-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("below-trace.csv");
        std::fs::write(&path, "100\n100\n100\n5\n100\n").unwrap();
        let text = run_to_string(Command::Monitor(Args {
            input: path.to_string_lossy().to_string(),
            err: 0.0,
            max_interval: 4,
            below: true,
            common: json_common(),
            ..args_of(&["monitor", "--threshold", "50"])
        }));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["report"]["violations"], 1);
        assert_eq!(parsed["report"]["detected"], 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generate_rejects_unknown_family() {
        let mut buffer = Vec::new();
        let result = run(
            Command::Generate(args_of(&[
                "generate", "--family", "weather", "--ticks", "10",
            ])),
            &mut buffer,
        );
        assert!(matches!(result, Err(CliError::Usage(_))));
    }

    /// A small, fast `chaos` run in the mode `mode` selects (`&[]`,
    /// `&["--net"]` or `&["--multitask", "3"]`), reporting JSON.
    fn chaos_args(mode: &[&str]) -> Args {
        let argv: Vec<&str> = ["chaos"].iter().chain(mode).copied().collect();
        Args {
            monitors: 2,
            ticks: 100,
            common: CommonArgs {
                seed: 7,
                ..json_common()
            },
            ..args_of(&argv)
        }
    }

    #[test]
    fn chaos_with_crash_reports_the_recovery() {
        let mut args = chaos_args(&[]);
        args.crashes.push((1, 10));
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "chaos");
        let report = &parsed["report"];
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["quarantines"], 1);
        assert_eq!(report["restarts"], 1);
        assert_eq!(report["recoveries"], 1);
        // Bursts at ticks 49 and 99 still alert despite the crash.
        assert_eq!(report["alerts"], 2);
    }

    #[test]
    fn chaos_rejects_a_fault_for_a_monitor_outside_the_fleet() {
        for (flag, spec) in [
            ("--crash", "99@5"),
            ("--stall", "99@5+3"),
            ("--partition", "9@5+3"),
        ] {
            let mut argv = vec!["chaos", "--monitors", "5", flag, spec];
            if flag == "--partition" {
                argv.extend(["--partition", "1,4@2+3"]);
            }
            match run(Command::Chaos(args_of(&argv)), &mut Vec::new()) {
                Err(CliError::Usage(message)) => {
                    assert!(message.contains(flag), "{flag}: {message}");
                }
                other => panic!("{flag} {spec}: expected a usage error, got {other:?}"),
            }
        }
    }

    /// A partition whose end lies past the tick axis never heals: it
    /// must neither overflow nor wrap around to nothing.
    #[test]
    fn chaos_saturates_a_partition_that_never_heals() {
        let mut args = chaos_args(&[]);
        args.partitions.push((vec![1], 5, u64::MAX));
        args.no_supervise = true;
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let report = &parsed["report"];
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["quarantines"], 1);
        assert_eq!(report["missed_tick_reports"], 95, "silent from tick 5 on");
    }

    #[test]
    fn chaos_with_coordinator_crash_fails_over_and_restores() {
        let dir = std::env::temp_dir().join("volley-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut args = chaos_args(&[]);
        args.coordinator_crashes.push(60);
        args.standby = true;
        args.wal_dir = Some(dir.to_string_lossy().to_string());
        args.checkpoint_interval = 10;
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        let report = &parsed["report"];
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["coordinator_failovers"], 1);
        assert_eq!(report["checkpoint_restores"], 2);
        assert_eq!(report["conservative_restarts"], 0);
        // Bursts at 49 and 99 straddle the crash; both still alert.
        assert_eq!(report["alerts"], 2);
        let _ = std::fs::remove_file(dir.join("chaos-7.wal"));
    }

    #[test]
    fn chaos_io_faults_keep_alerts_and_report_degradation() {
        let base = std::env::temp_dir().join("volley-cli-io-chaos");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        let clean = run_to_string(Command::Chaos(chaos_args(&[])));
        let clean: serde_json::Value = serde_json::from_str(&clean).unwrap();

        let mut args = chaos_args(&[]);
        args.wal_dir = Some(base.join("wal").to_string_lossy().to_string());
        args.checkpoint_interval = 10;
        args.common.store_dir = Some(base.join("store").to_string_lossy().to_string());
        args.io.enospc = Some((30, 30));
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        let report = &parsed["report"];
        // Storage faults never perturb detection: alerts are bit-identical.
        assert_eq!(report["alert_ticks"], clean["report"]["alert_ticks"]);
        let d = &report["degradation"];
        assert!(d["io_faults_injected"].as_u64().unwrap() > 0);
        // The ENOSPC window closed at tick 60; every breaker re-armed.
        assert_eq!(d["store_degraded_at_end"], false);
        assert_eq!(d["wal_degraded_at_end"], false);
        // The store sealed after the window, so the final snapshot landed
        // in it, and its counter is the report's.
        let store = Store::open(base.join("store")).unwrap();
        let last = store.latest_snapshot(0).unwrap().expect("snapshots landed");
        assert_eq!(last.tick, 100, "the final snapshot landed");
        assert_eq!(
            last.counters
                .get(volley_obs::names::IO_FAULTS_INJECTED_TOTAL),
            Some(&d["io_faults_injected"].as_u64().unwrap()),
            "the final snapshot's counter is the report's"
        );

        // Every fsync fails: the store's meta stamp and segment seals take
        // faults, and the report counts them.
        let faults_with = |store: bool| {
            let mut args = chaos_args(&[]);
            let tag = if store { "with-store" } else { "without-store" };
            let dir = |sink: &str| {
                Some(
                    base.join(format!("{sink}-{tag}"))
                        .to_string_lossy()
                        .to_string(),
                )
            };
            args.wal_dir = dir("wal");
            args.checkpoint_interval = 10;
            if store {
                args.common.store_dir = dir("store");
            }
            args.io.sync_error_rate = 1.0;
            let text = run_to_string(Command::Chaos(args));
            let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            parsed["report"]["degradation"]["io_faults_injected"]
                .as_u64()
                .unwrap()
        };
        assert!(
            faults_with(true) > faults_with(false),
            "the store's own faults count"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    /// Nothing touches the store once the report has read its health:
    /// with every fsync failing, each seal attempt — the run's last one
    /// included — is a fault, and the report counts all of them.
    #[test]
    fn chaos_report_counts_the_stores_last_flush() {
        let dir =
            std::env::temp_dir().join(format!("volley-cli-last-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = chaos_args(&[]);
        args.common.store_dir = Some(dir.to_string_lossy().to_string());
        args.io.sync_error_rate = 1.0;
        let (report, sinks) = chaos_run(&args).unwrap();
        let store = sinks.recorder.as_ref().expect("a store").health();
        // No WAL: every injected fault is the store's, the final
        // snapshot's seal included.
        assert!(store.faults_injected > 0);
        assert_eq!(report.degradation.io_faults_injected, store.faults_injected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_partition_across_failover_rejects_stale_frames() {
        let mut args = chaos_args(&[]);
        args.coordinator_crashes.push(40);
        args.standby = true;
        args.partitions.push((vec![1], 35, 15));
        // No supervisor: a restart would hand the partitioned monitor the
        // new epoch out-of-band. Keeping the original actor alive forces
        // it through the stale-frame → epoch-repair → recovery path.
        args.no_supervise = true;
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let report = &parsed["report"];
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["coordinator_failovers"], 1);
        // The partitioned monitor missed the epoch bump: its post-heal
        // frames carry the dead coordinator's epoch and are fenced out
        // until the epoch-repair handshake readmits it.
        assert!(
            report["stale_epoch_frames"].as_u64().unwrap() >= 1,
            "{text}"
        );
        // Epoch repair readmits it: the run ends with a recovery.
        assert!(report["recoveries"].as_u64().unwrap() >= 1, "{text}");
    }

    #[test]
    fn chaos_text_report_lists_counters() {
        let mut args = chaos_args(&[]);
        args.common.report_json = false;
        let text = run_to_string(Command::Chaos(args));
        assert!(text.contains("quarantines:"), "{text}");
        assert!(text.contains("alerts at ticks:  49, 99"), "{text}");
    }

    fn run_args() -> Args {
        Args {
            monitors: 2,
            ticks: 100,
            err: 0.0,
            obs_every: 25,
            common: json_common(),
            ..args_of(&["run"])
        }
    }

    #[test]
    fn run_reports_and_dumps_parseable_snapshots() {
        let dir = std::env::temp_dir().join("volley-cli-test-obs-run");
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = run_args();
        args.common.store_dir = Some(dir.to_string_lossy().to_string());
        let text = run_to_string(Command::Run(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "run");
        let report = &parsed["report"];
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["alerts"], 2);
        // The embedded snapshot carries the runner's counters.
        assert_eq!(
            report["snapshot"]["counters"]["volley_runner_ticks_total"],
            100
        );

        // The store's newest snapshot is the final one, and its
        // Prometheus text parses back through the bundled parser.
        let store = Store::open(&dir).unwrap();
        let snapshot = store.latest_snapshot(0).unwrap().expect("snapshots");
        assert_eq!(snapshot.tick, 100);
        assert!(snapshot.counters.contains_key("volley_runner_ticks_total"));
        let samples = volley_obs::parse_prometheus(&snapshot.to_prometheus()).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "volley_runner_ticks_total"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_command_reads_back_the_latest_snapshot() {
        let dir = std::env::temp_dir().join("volley-cli-test-obs-read");
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = run_args();
        args.common.store_dir = Some(dir.to_string_lossy().to_string());
        let _ = run_to_string(Command::Run(args));

        let obs_args = args_of(&["obs", "--store-dir", &dir.to_string_lossy()]);
        let text = run_to_string(Command::Obs(obs_args.clone()));
        assert!(text.contains("volley_runner_ticks_total"), "{text}");
        assert!(text.contains("histograms:"), "{text}");

        // --report-json wraps the snapshot in the versioned envelope.
        let mut json_args = obs_args.clone();
        json_args.common.report_json = true;
        let json = run_to_string(Command::Obs(json_args));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "obs");
        assert!(parsed["report"]["counters"]
            .as_object()
            .unwrap()
            .iter()
            .any(|(name, _)| name == "volley_runner_ticks_total"));

        let prom = run_to_string(Command::Obs(Args {
            prom: true,
            ..obs_args
        }));
        assert!(volley_obs::parse_prometheus(&prom)
            .unwrap()
            .iter()
            .any(|s| s.name == "volley_runner_tick_latency_ns_count"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A multi-task chaos run records registry snapshots at the
    /// `--obs-every` cadence like `run` and `chaos`, so `obs` reads its
    /// store: the last at run end, with every task's ticks counted.
    #[test]
    fn obs_command_reads_a_multi_task_store() {
        let dir = std::env::temp_dir().join("volley-cli-test-obs-multitask");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().to_string();
        let args = args_of(&[
            "chaos",
            "--multitask",
            "2",
            "--ticks",
            "60",
            "--obs-every",
            "20",
            "--store-dir",
            &dir_arg,
        ]);
        let _ = run_to_string(Command::Chaos(args));
        let text = run_to_string(Command::Obs(args_of(&["obs", "--store-dir", &dir_arg])));
        assert!(text.contains("volley_runner_ticks_total"), "{text}");
        let store = Store::open(&dir).unwrap();
        let snapshot = store.latest_snapshot(0).unwrap().expect("snapshots");
        assert_eq!(snapshot.tick, 60, "the run-end snapshot");
        assert_eq!(snapshot.counters["volley_runner_ticks_total"], 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_command_errors_on_empty_dir() {
        let dir = std::env::temp_dir().join("volley-cli-test-obs-empty");
        let _ = std::fs::remove_dir_all(&dir);
        let mut buffer = Vec::new();
        let result = run(
            Command::Obs(args_of(&["obs", "--store-dir", &dir.to_string_lossy()])),
            &mut buffer,
        );
        assert!(matches!(result, Err(CliError::Input(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_self_monitor_samples_every_tick_when_eager() {
        let mut args = run_args();
        args.self_monitor_us = Some(60_000_000.0); // absurd threshold: no alerts
        let text = run_to_string(Command::Run(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["report"]["self_monitor_samples"], 100);
        assert_eq!(parsed["report"]["self_monitor_alerts"], 0);
    }

    #[test]
    fn generate_emits_correct_shape() {
        let csv = run_to_string(Command::Generate(args_of(&[
            "generate", "--family", "system", "--ticks", "50", "--tasks", "3", "--seed", "1",
        ])));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 51); // header + 50 rows
        assert_eq!(lines[0], "task0,task1,task2");
        assert_eq!(lines[1].split(',').count(), 3);
    }

    #[test]
    fn simulate_reports_cpu() {
        let text = run_to_string(Command::Simulate(Args {
            servers: 1,
            vms: 4,
            err: 0.0,
            ticks: 100,
            ..args_of(&["sim"])
        }));
        assert!(text.contains("Dom0 CPU"));
        assert!(text.contains("miss rate"));
    }

    #[test]
    fn simulate_refuses_an_invalid_allowance() {
        for err in [2.0, f64::NAN] {
            let mut buffer = Vec::new();
            let result = run(
                Command::Simulate(Args {
                    err,
                    ticks: 20,
                    ..args_of(&["sim", "--servers", "1", "--vms", "2"])
                }),
                &mut buffer,
            );
            assert!(
                matches!(result, Err(CliError::Config(_))),
                "err {err}: {result:?}"
            );
        }
    }

    #[test]
    fn simulate_json_is_thread_count_independent() {
        let report_with = |threads: usize| {
            let text = run_to_string(Command::Simulate(Args {
                servers: 2,
                vms: 8,
                ticks: 120,
                common: CommonArgs {
                    seed: 5,
                    threads,
                    ..json_common()
                },
                ..args_of(&["sim"])
            }));
            let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
            assert_eq!(parsed["command"], "sim");
            // `threads` is the one field that legitimately differs.
            let report: Vec<(String, serde_json::Value)> = parsed["report"]
                .as_object()
                .unwrap()
                .iter()
                .filter(|(name, _)| name != "threads")
                .cloned()
                .collect();
            report
        };
        assert_eq!(report_with(1), report_with(4));
    }

    /// `store <action> --store-dir dir --report-json` (`export-csv`
    /// has no JSON form).
    fn store_command(dir: &str, action: &str, edit: impl FnOnce(&mut Args)) -> Command {
        let mut argv = vec!["store", action, "--store-dir", dir];
        if action != "export-csv" {
            argv.push("--report-json");
        }
        match Command::parse(argv.iter().map(|s| s.to_string())).expect("valid") {
            Command::Store(action, mut args) => {
                edit(&mut args);
                Command::Store(action, args)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn backtest_args(dir: &str) -> Args {
        args_of(&["backtest", "--store-dir", dir, "--report-json"])
    }

    #[test]
    fn chaos_recording_backtests_exactly_and_queries_deterministically() {
        let dir = std::env::temp_dir().join("volley-cli-test-store-chaos");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_string_lossy().to_string();

        let mut args = chaos_args(&[]);
        args.common.store_dir = Some(dir.clone());
        let chaos_text = run_to_string(Command::Chaos(args));
        let chaos_report: serde_json::Value = serde_json::from_str(&chaos_text).unwrap();
        assert_eq!(chaos_report["report"]["alerts"], 2);

        // Same-config replay reproduces the recorded alert set exactly
        // (--verify would error otherwise), and the default candidates
        // report their cost/accuracy deltas.
        let mut bt = backtest_args(&dir);
        bt.verify = true;
        let text = run_to_string(Command::Backtest(bt));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "backtest");
        let report = &parsed["report"];
        assert_eq!(report["monitors"], 2);
        assert_eq!(report["ticks"], 100);
        assert_eq!(report["recorded_error_allowance"], 0.0);
        let recorded_ticks: Vec<u64> = report["recorded_alert_ticks"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        assert_eq!(recorded_ticks, vec![49, 99], "{text}");
        let outcomes = report["outcomes"].as_array().unwrap();
        assert_eq!(outcomes.len(), 3, "baseline + two default candidates");
        assert_eq!(outcomes[0]["exact_match"], true, "{text}");
        assert_eq!(outcomes[0]["cost_delta"], 0.0);
        // Looser candidates cost less; the report carries their deltas.
        for outcome in &outcomes[1..] {
            assert!(outcome["cost_ratio"].as_f64().unwrap() < 1.0, "{text}");
        }

        // Two scans of the same store are byte-identical.
        let query = || run_to_string(store_command(&dir, "query", |_| {}));
        let first = query();
        assert_eq!(first, query(), "scan determinism");
        let parsed: serde_json::Value = serde_json::from_str(&first).unwrap();
        assert_eq!(parsed["command"], "store");
        assert!(parsed["report"]["matched"].as_u64().unwrap() > 200);

        // The alert filter narrows to the two burst ticks.
        let only_alerts = |args: &mut Args| args.kind = Some(RecordKind::Alert);
        let alert_text = run_to_string(store_command(&dir, "query", only_alerts));
        let parsed: serde_json::Value = serde_json::from_str(&alert_text).unwrap();
        assert_eq!(parsed["report"]["matched"], 2, "{alert_text}");
        assert_eq!(parsed["report"]["records"][0]["tick"], 49);
        assert_eq!(parsed["report"]["records"][1]["tick"], 99);

        // CSV export round-trips through the same filters.
        let csv = run_to_string(store_command(&dir, "export-csv", only_alerts));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "task,monitor,kind,tick,value");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("alert,49,"), "{csv}");

        // Compaction merges segments without changing query results.
        let compact = run_to_string(store_command(&dir, "compact", |_| {}));
        let parsed: serde_json::Value = serde_json::from_str(&compact).unwrap();
        assert_eq!(parsed["report"]["stats"]["segments_after"], 1, "{compact}");
        assert_eq!(first, query(), "compaction preserves scans");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multitask_chaos_feeds_analyze_correlate() {
        let dir = std::env::temp_dir().join("volley-cli-test-multitask");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_string_lossy().to_string();

        // A 3-task planted cascade: the runner learns the 1 ← 0 gate and
        // suppresses follower sampling while the leader is calm.
        let mut args = chaos_args(&["--multitask", "3"]);
        args.ticks = 600;
        args.train_ticks = 200;
        args.common.store_dir = Some(dir.clone());
        let text = run_to_string(Command::Chaos(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
        assert_eq!(parsed["command"], "chaos");
        let report = &parsed["report"];
        assert_eq!(report["tasks"], 3);
        assert_eq!(report["train_ticks"], 200);
        let gates = report["gates"].as_array().unwrap();
        assert_eq!(gates.len(), 1, "{text}");
        assert_eq!(gates[0]["leader"], 0);
        assert_eq!(gates[0]["follower"], 1);
        assert!(report["suppressed_samples"].as_u64().unwrap() > 0, "{text}");
        assert!(report["savings_ratio"].as_f64().unwrap() > 0.0, "{text}");
        // Suppression may not cost detections on the planted cascade.
        assert_eq!(report["missed_alerts"], 0, "{text}");

        // The offline job recovers the planted pair at rank 1 from the
        // recorded alerts alone.
        let correlate = args_of(&["analyze", "correlate", "--store-dir", &dir]);
        let analyze = || {
            run_to_string(Command::Analyze(
                AnalyzeAction::Correlate,
                Args {
                    common: CommonArgs {
                        report_json: true,
                        ..correlate.common.clone()
                    },
                    ..correlate.clone()
                },
            ))
        };
        let first = analyze();
        assert_eq!(first, analyze(), "analysis determinism");
        let parsed: serde_json::Value = serde_json::from_str(&first).unwrap();
        assert_eq!(parsed["command"], "analyze");
        let report = &parsed["report"];
        assert_eq!(report["job"], "correlation_matrix_v1");
        assert!(report["records_scanned"].as_u64().unwrap() > 0);
        let pairs = report["matrix"]["pairs"].as_array().unwrap();
        assert!(!pairs.is_empty(), "{first}");
        assert_eq!(pairs[0]["leader"], 0, "{first}");
        assert_eq!(pairs[0]["follower"], 1, "{first}");
        assert!(pairs[0]["confidence"].as_f64().unwrap() > 0.9, "{first}");

        // Text mode renders the same ranking.
        let rendered = run_to_string(Command::Analyze(AnalyzeAction::Correlate, correlate));
        assert!(rendered.contains("correlation_matrix_v1"), "{rendered}");
        assert!(rendered.contains("task 0 → task 1"), "{rendered}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_records_store_and_snapshot_series() {
        let dir = std::env::temp_dir().join("volley-cli-test-store-run");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_string_lossy().to_string();

        let mut args = run_args();
        args.common.store_dir = Some(dir.clone());
        let text = run_to_string(Command::Run(args));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let total_samples = parsed["report"]["total_samples"].as_u64().unwrap();

        // The recorded sample count matches the runtime report.
        let count_of = |kind: RecordKind| -> serde_json::Value {
            let command = store_command(&dir, "query", |args| {
                args.limit = Some(0);
                args.kind = Some(kind);
            });
            serde_json::from_str(&run_to_string(command)).unwrap()
        };
        let sampled = count_of(RecordKind::Sample);
        let polled = count_of(RecordKind::PollSample);
        assert_eq!(
            sampled["report"]["matched"].as_u64().unwrap()
                + polled["report"]["matched"].as_u64().unwrap(),
            total_samples
        );

        // The final obs snapshot landed in the store as counter series.
        let counters = store_command(&dir, "query", |a| a.kind = Some(RecordKind::Counter));
        let parsed: serde_json::Value = serde_json::from_str(&run_to_string(counters)).unwrap();
        assert!(
            parsed["report"]["matched"].as_u64().unwrap() > 0,
            "snapshot counters recorded"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_net_runs_over_real_sockets() {
        // (monitors, --net-agents, agents actually spawned): an even
        // split, then the uneven ones whose last slices come up empty
        // (12 monitors over 5 agents is 3+3+3+3+0) and once failed the
        // finished run with "monitor range 12..12 out of bounds".
        for (monitors, net_agents, spawned) in [(2, 2, 2), (12, 5, 4), (7, 5, 4), (10, 6, 5)] {
            let mut args = chaos_args(&["--net"]);
            args.monitors = monitors;
            args.net_agents = net_agents;
            args.ticks = 60;
            args.deadline_ms = 2000;
            let text = run_to_string(Command::Chaos(args));
            let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            assert_eq!(parsed["schema"], REPORT_SCHEMA_VERSION);
            assert_eq!(parsed["command"], "chaos");
            let report = &parsed["report"];
            assert_eq!(report["ticks"], 60);
            // Burst at tick 49; a storm-free socket run detects it.
            assert_eq!(report["alerts"], 1, "{text}");
            assert_eq!(report["monitors"], monitors);
            assert_eq!(report["agents"], spawned, "{text}");
            assert_eq!(report["net"]["connections_accepted"], spawned, "{text}");
            assert_eq!(report["net"]["malformed_frames"], 0);
            assert!(report["net"]["frames_in"].as_u64().unwrap() > 0);
        }
    }

    #[test]
    fn coordinator_without_fleet_times_out() {
        let args = args_of(&["coordinator", "--listen", "127.0.0.1:0", "--wait-ms", "100"]);
        let mut buffer = Vec::new();
        let result = run(Command::Coordinator(args), &mut buffer);
        assert!(matches!(result, Err(CliError::Config(_))), "{result:?}");
    }

    #[test]
    fn backtest_errors_without_samples_or_meta() {
        let dir = std::env::temp_dir().join("volley-cli-test-store-empty");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_string_lossy().to_string();
        let mut buffer = Vec::new();
        let result = run(Command::Backtest(backtest_args(&dir)), &mut buffer);
        assert!(matches!(result, Err(CliError::Input(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
