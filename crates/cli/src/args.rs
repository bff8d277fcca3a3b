//! Command-line argument parsing (hand-rolled, dependency-free).
//!
//! Every flag is one [`Flag`] row — spelling, value placeholder,
//! default, help line and setter — and every subcommand is one
//! [`Subcommand`] entry of [`SUBCOMMANDS`] listing the rows its handler
//! reads. Parsing, defaults and `volley help` are all derived from that
//! table, so a flag cannot be accepted, defaulted or documented in two
//! different ways.

use std::fmt::{self, Write as _};

use volley_core::vfs::IoFaultPlan;
use volley_runtime::WalSyncPolicy;

/// Errors produced by argument parsing or command execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The command line could not be parsed.
    Usage(String),
    /// An input file could not be read or parsed.
    Input(String),
    /// A volley-core configuration error.
    Config(volley_core::VolleyError),
    /// An I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Input(msg) => write!(f, "input error: {msg}"),
            CliError::Config(err) => write!(f, "configuration error: {err}"),
            CliError::Io(err) => write!(f, "io error: {err}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Config(err) => Some(err),
            CliError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<volley_core::VolleyError> for CliError {
    fn from(err: volley_core::VolleyError) -> Self {
        CliError::Config(err)
    }
}

impl From<std::io::Error> for CliError {
    fn from(err: std::io::Error) -> Self {
        CliError::Io(err)
    }
}

/// Flags that mean the same thing on every subcommand that reads them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommonArgs {
    /// Random seed (workload, fault plan or scenario, per subcommand).
    pub seed: u64,
    /// Directory of the embedded sample store: recorded into by
    /// `run`/`chaos` (with obs snapshots on `run` and fault-mode
    /// `chaos`), given the final obs snapshot by `sim`/`coordinator`,
    /// read by `store`/`backtest`/`analyze`/`obs`.
    pub store_dir: Option<String>,
    /// Worker threads for sharded execution. Results never depend on
    /// this value — only wall-clock time does.
    pub threads: usize,
    /// Emit the versioned machine-readable JSON envelope instead of the
    /// text report.
    pub report_json: bool,
}

/// Socket and reconnect knobs of the networked subcommands (`agent`,
/// `coordinator`, `chaos --net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportArgs {
    /// Maximum accepted frame size in bytes (excluding the newline).
    pub max_frame_bytes: usize,
    /// Socket write timeout in milliseconds; `0` means none.
    pub write_timeout_ms: u64,
    /// First-retry reconnect delay in milliseconds.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling in milliseconds (pre-jitter).
    pub backoff_cap_ms: u64,
}

/// Embedded HTTP serving knobs of the long-running subcommands (`run`,
/// `chaos`, `coordinator`). The plane is off unless `--serve-addr` is
/// given.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeArgs {
    /// HTTP bind address; `None` disables the serving plane.
    pub addr: Option<String>,
    /// Store directory served by `/api/v1/query`; defaults to the run's
    /// own `--store-dir` when recording.
    pub store_dir: Option<String>,
    /// Request-head cap in bytes (431 beyond it).
    pub max_request_bytes: usize,
    /// Idle connection reap timeout in milliseconds.
    pub idle_timeout_ms: u64,
    /// Alert broadcast ring capacity in events.
    pub stream_buffer: usize,
    /// Maximum records returned per query page.
    pub page_limit: usize,
    /// How long to keep serving after the run ends, in milliseconds.
    pub linger_ms: u64,
}

impl ServeArgs {
    /// Whether the serving plane was requested at all.
    pub fn enabled(&self) -> bool {
        self.addr.is_some()
    }

    /// The one resolver for which store the query endpoint reads:
    /// `--serve-store-dir` wins, else the run's own recording directory.
    pub fn resolve_store_dir<'a>(&'a self, recording: Option<&'a str>) -> Option<&'a str> {
        self.store_dir.as_deref().or(recording)
    }
}

/// Storage-fault knobs of `chaos`. All rates are per-operation
/// probabilities decided deterministically from the run's `--seed`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IoFaultArgs {
    /// ENOSPC window as `(from_tick, duration_ticks)`; duration `0`
    /// means the disk never recovers.
    pub enospc: Option<(u64, u64)>,
    /// Probability a write fails with EIO (nothing lands).
    pub error_rate: f64,
    /// Probability a write is torn: a corrupted prefix lands, then EIO.
    pub torn_rate: f64,
    /// Probability a write is short: a clean prefix lands, then EIO.
    pub short_rate: f64,
    /// Probability an fsync reports failure after the data was written.
    pub sync_error_rate: f64,
}

impl IoFaultArgs {
    /// Whether no storage fault was requested.
    pub fn is_benign(&self) -> bool {
        *self == IoFaultArgs::default()
    }

    /// Builds the [`IoFaultPlan`] these flags describe, seeded with the
    /// run's `--seed`.
    pub fn plan(&self, seed: u64) -> IoFaultPlan {
        let mut plan = IoFaultPlan::new(seed)
            .with_error_rate(self.error_rate)
            .with_torn_writes(self.torn_rate)
            .with_short_writes(self.short_rate)
            .with_sync_errors(self.sync_error_rate);
        if let Some((from, ticks)) = self.enospc {
            plan = plan.with_enospc_window(from, ticks);
        }
        plan
    }
}

/// Every option any subcommand reads, in one parse target. A field a
/// subcommand does not read keeps its derived `Default` ("flag not
/// given"), because that subcommand's table has no row that could set
/// it; a field it does read starts from the row's own default (see
/// [`Subcommand::defaults`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// `--monitors`: fleet size (`run`, `chaos`, `coordinator`).
    pub monitors: usize,
    /// `--ticks`: trace or simulation length.
    pub ticks: usize,
    /// `--err`: error allowance of the monitored task.
    pub err: f64,
    /// `--threshold`: fixed threshold (`monitor`), global-threshold
    /// override (`agent`, `backtest`).
    pub threshold: Option<f64>,
    /// `monitor --input`: trace path (`-` for stdin).
    pub input: String,
    /// `monitor --percentile`: selectivity to derive the threshold from.
    pub percentile: Option<f64>,
    /// `monitor --max-interval`, in default-interval units.
    pub max_interval: u32,
    /// `monitor --below`: alert on `value < threshold`.
    pub below: bool,
    /// `generate --family`: `network`, `system` or `application`.
    pub family: String,
    /// `generate --tasks`: parallel tasks (CSV columns).
    pub tasks: usize,
    /// `sim --servers`: physical servers.
    pub servers: u32,
    /// `sim --vms`: VMs per server.
    pub vms: u32,
    /// `--obs-every`: obs snapshot cadence in ticks.
    pub obs_every: u64,
    /// `run --self-monitor-us`: arm the watchdog at this tick latency.
    pub self_monitor_us: Option<f64>,
    /// `chaos --multitask`: correlated tasks under the suppression
    /// runner (`0` = single-task chaos).
    pub multitask: usize,
    /// `chaos --train-ticks`: correlation training window (`0` = a
    /// third of the run).
    pub train_ticks: u64,
    /// `chaos --drop-rate`: violation-report drop probability.
    pub drop_rate: f64,
    /// `chaos --poll-drop-rate`: poll-reply drop probability.
    pub poll_drop_rate: f64,
    /// `chaos --dup-rate`: reply duplication probability.
    pub dup_rate: f64,
    /// `chaos --delay-rate`: reply delay (reorder) probability.
    pub delay_rate: f64,
    /// `chaos --crash`: scheduled crashes as `(monitor, tick)`.
    pub crashes: Vec<(u32, u64)>,
    /// `chaos --stall`: stalls as `(monitor, from_tick, duration)`.
    pub stalls: Vec<(u32, u64, u64)>,
    /// `chaos --coordinator-crash`: coordinator crash ticks.
    pub coordinator_crashes: Vec<u64>,
    /// `chaos --partition`: `(monitors, from_tick, duration)`.
    pub partitions: Vec<(Vec<u32>, u64, u64)>,
    /// `chaos --corrupt-wal-record`: append indices to corrupt.
    pub wal_corruptions: Vec<u64>,
    /// `chaos --wal-dir`: checkpoint WAL directory.
    pub wal_dir: Option<String>,
    /// `chaos --checkpoint-interval`: snapshot cadence in ticks.
    pub checkpoint_interval: u64,
    /// `chaos --wal-sync`: WAL group-fsync policy.
    pub wal_sync: WalSyncPolicy,
    /// `chaos --standby`: arm a warm standby coordinator.
    pub standby: bool,
    /// `--deadline-ms`: coordinator collection deadline.
    pub deadline_ms: u64,
    /// `--quarantine-after`: consecutive missed deadlines tolerated.
    pub quarantine_after: u32,
    /// `chaos --no-supervise`: leave quarantined monitors down.
    pub no_supervise: bool,
    /// `chaos --net`: run the fleet over real localhost sockets.
    pub net: bool,
    /// `chaos --net-agents`: agents to split the monitors across (`0` =
    /// one monitor per agent).
    pub net_agents: usize,
    /// `chaos --net-storm-every`: sever agents every this many ticks.
    pub net_storm_every: u64,
    /// `chaos --net-storm-fraction`: share of agents severed per storm.
    pub net_storm_fraction: f64,
    /// `obs --prom`: print the Prometheus exposition.
    pub prom: bool,
    /// `--task`: the task to filter (`store`) or replay (`backtest`).
    pub task: Option<u32>,
    /// `store --monitor`: restrict to one monitor.
    pub monitor: Option<u32>,
    /// `store --kind`: restrict to one record kind.
    pub kind: Option<volley_store::RecordKind>,
    /// `--from`: first tick (inclusive).
    pub from: u64,
    /// `--to`: last tick (inclusive); `None` = no upper bound.
    pub to: Option<u64>,
    /// `store --limit`: cap on printed records.
    pub limit: Option<usize>,
    /// `store query --cursor`: matched records to skip (pagination).
    pub cursor: u64,
    /// `backtest --err` (repeatable): candidate error allowances.
    pub errs: Vec<f64>,
    /// `backtest --verify`: fail unless the recorded-config replay
    /// reproduces the recorded alert set exactly.
    pub verify: bool,
    /// `backtest --monitors`: monitor-count override.
    pub monitors_override: Option<usize>,
    /// `analyze --top-k`: best pairs to report.
    pub top_k: usize,
    /// `analyze --lag`: lag window in ticks.
    pub lag: u32,
    /// `analyze --min-support`: follower alerts a pair needs.
    pub min_support: u64,
    /// `analyze --max-alerts`: alert ticks retained per task.
    pub max_alerts: usize,
    /// `coordinator --listen` / `agent --connect`: the TCP address.
    pub tcp: String,
    /// `--unix`: Unix socket path; wins over the TCP address.
    pub unix: Option<String>,
    /// `coordinator --queue-cap`: per-connection outbound queue depth.
    pub queue_cap: usize,
    /// `coordinator --idle-timeout-ms`: idle connection reap timeout.
    pub idle_timeout_ms: u64,
    /// `coordinator --wait-ms`: how long to wait for the full fleet.
    pub wait_ms: u64,
    /// `coordinator --tick-interval-ms`: delay between ticks.
    pub tick_interval_ms: u64,
    /// `agent --agent-id`: fleet-unique agent id.
    pub agent_id: u32,
    /// `agent --monitors a..b`: hosted range (end-exclusive); `None` =
    /// the whole fleet.
    pub monitor_range: Option<(u32, u32)>,
    /// `agent --fleet-size`: monitors across the whole fleet.
    pub fleet_size: usize,
    /// The shared seed / store-dir / threads / report-json rows.
    pub common: CommonArgs,
    /// The `transport` and `reconnect` groups.
    pub transport: TransportArgs,
    /// The `serve` group.
    pub serve: ServeArgs,
    /// The `storage-fault` group.
    pub io: IoFaultArgs,
}

/// What `volley store` should do with the store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Print matching records.
    Query,
    /// Merge all sealed segments into one.
    Compact,
    /// Write matching records as CSV.
    ExportCsv,
}

/// What `volley analyze` should compute over the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeAction {
    /// Top-K pairwise violation correlation (`correlation_matrix_v1`).
    Correlate,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)] // one Command per process; never stored in bulk
pub enum Command {
    /// Replay a trace through the adaptive monitor.
    Monitor(Args),
    /// Emit synthetic traces as CSV.
    Generate(Args),
    /// Run the datacenter simulator scenario.
    Simulate(Args),
    /// Run the fault-injected runtime (`--net` and `--multitask` select
    /// the socket and multi-task modes).
    Chaos(Args),
    /// Run the live runtime with observability on.
    Run(Args),
    /// Read back the latest obs snapshot from a recorded store.
    Obs(Args),
    /// Query, compact or export a recorded sample store.
    Store(StoreAction, Args),
    /// Replay recorded history through candidate configurations.
    Backtest(Args),
    /// Run an offline analysis job over a recorded store.
    Analyze(AnalyzeAction, Args),
    /// Serve a monitor fleet over a real socket.
    Coordinator(Args),
    /// Host a slice of monitors and dial the coordinator.
    Agent(Args),
    /// Print usage.
    Help,
}

/// Stores a flag's value; the error (if any) is the hint appended to
/// the one invalid-value message in [`Subcommand::parse`].
type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// One row of the flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling, e.g. `--seed`.
    pub name: &'static str,
    /// The value placeholder `volley help` shows; empty for a switch.
    pub value: &'static str,
    /// The default, as the string `volley help` shows and the setter
    /// parses; empty when the flag has none.
    pub default: &'static str,
    /// The help line.
    pub help: &'static str,
    set: Setter,
}

/// A row that takes no value, has no default and no help line yet.
const fn flag(name: &'static str, set: Setter) -> Flag {
    Flag {
        name,
        value: "",
        default: "",
        help: "",
        set,
    }
}

impl Flag {
    /// The row, taking a value shown as `<value=default>` in help.
    const fn takes(self, value: &'static str, default: &'static str) -> Flag {
        Flag {
            value,
            default,
            ..self
        }
    }

    /// The row with another default (same spelling, same setter).
    const fn default(self, default: &'static str) -> Flag {
        Flag { default, ..self }
    }

    /// The row with its (or another) help line.
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }
}

/// Rows shared by several subcommands and shown once in `volley help`.
#[derive(Debug)]
pub struct Group {
    /// Heading in `volley help`.
    pub title: &'static str,
    /// What the group configures.
    pub about: &'static str,
    /// The rows.
    pub flags: &'static [Flag],
}

/// One subcommand (or `chaos` mode, or `store`/`analyze` action): the
/// rows its handler reads, and nothing else.
#[derive(Debug)]
pub struct Subcommand {
    /// The words that select it: `run`, `store query`, `chaos --net`. A
    /// second word starting with `--` is a mode flag looked for anywhere
    /// on the command line; any other second word is a positional action.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The subcommand's own rows.
    pub flags: &'static [Flag],
    /// Shared groups it also reads.
    pub groups: &'static [&'static Group],
    /// Flags of which at least one must be given.
    pub requires: &'static [&'static str],
    build: fn(Args) -> Command,
}

fn parse_value<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| String::new())
}

/// Parses a probability, clamped to `[0, 1]`. `NaN` and `±inf` are
/// refused: no fault plan could say what they mean.
fn rate(raw: &str) -> Result<f64, String> {
    match parse_value::<f64>(raw)? {
        p if p.is_finite() => Ok(p.clamp(0.0, 1.0)),
        _ => Err(" (expected a finite probability)".to_string()),
    }
}

fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn set<T: std::str::FromStr>(slot: &mut T, raw: &str) -> Result<(), String> {
    put(slot, parse_value(raw))
}

fn opt<T: std::str::FromStr>(slot: &mut Option<T>, raw: &str) -> Result<(), String> {
    put(slot, parse_value(raw).map(Some))
}

/// Stores a number no smaller than the flag's floor.
fn floor<T: std::str::FromStr + Ord>(slot: &mut T, raw: &str, min: T) -> Result<(), String> {
    put(slot, parse_value::<T>(raw).map(|v| v.max(min)))
}

/// Turns a switch on.
fn on(slot: &mut bool) -> Result<(), String> {
    put(slot, Ok(true))
}

/// Parses a crash spec `m@t`: monitor `m` crashes at tick `t`.
fn parse_crash_spec(raw: &str) -> Result<(u32, u64), String> {
    let bad = || " (expected m@t)".to_string();
    let (m, t) = raw.split_once('@').ok_or_else(bad)?;
    Ok((m.parse().map_err(|_| bad())?, t.parse().map_err(|_| bad())?))
}

/// Parses a stall spec `m@t+d`: monitor `m` goes silent at tick `t` for
/// `d` ticks.
fn parse_stall_spec(raw: &str) -> Result<(u32, u64, u64), String> {
    let bad = || " (expected m@t+d)".to_string();
    let (m, rest) = raw.split_once('@').ok_or_else(bad)?;
    let (t, d) = rest.split_once('+').ok_or_else(bad)?;
    Ok((
        m.parse().map_err(|_| bad())?,
        t.parse().map_err(|_| bad())?,
        d.parse().map_err(|_| bad())?,
    ))
}

/// Parses a partition spec `m1,m2@t+d`: monitors `m1,m2,…` lose the
/// coordinator link at tick `t` for `d` ticks.
fn parse_partition_spec(raw: &str) -> Result<(Vec<u32>, u64, u64), String> {
    let bad = || " (expected m1,m2@t+d)".to_string();
    let (monitors, rest) = raw.split_once('@').ok_or_else(bad)?;
    let (t, d) = rest.split_once('+').ok_or_else(bad)?;
    let lanes = monitors
        .split(',')
        .map(|m| m.parse().map_err(|_| bad()))
        .collect::<Result<Vec<u32>, _>>()?;
    Ok((
        lanes,
        t.parse().map_err(|_| bad())?,
        d.parse().map_err(|_| bad())?,
    ))
}

/// Parses an ENOSPC window spec `t` or `t+d`: the disk fills at tick `t`
/// and recovers after `d` ticks (`t` alone never recovers).
fn parse_enospc_spec(raw: &str) -> Result<(u64, u64), String> {
    let bad = || " (expected t or t+d)".to_string();
    match raw.split_once('+') {
        Some((t, d)) => Ok((t.parse().map_err(|_| bad())?, d.parse().map_err(|_| bad())?)),
        None => Ok((raw.parse().map_err(|_| bad())?, 0)),
    }
}

/// Parses a monitor range `a..b` (end-exclusive, `a < b`).
fn parse_range_spec(raw: &str) -> Result<(u32, u32), String> {
    let bad = || " (expected a..b with a < b)".to_string();
    let (a, b) = raw.split_once("..").ok_or_else(bad)?;
    let (a, b): (u32, u32) = (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
    if a >= b {
        return Err(bad());
    }
    Ok((a, b))
}

fn record_kind(raw: &str) -> Result<volley_store::RecordKind, String> {
    volley_store::RecordKind::parse(raw).ok_or_else(|| {
        " (expected sample, poll, alert, interval, gauge, counter or histogram)".to_string()
    })
}

// ---- rows read by more than one subcommand -------------------------------

const SEED: Flag = flag("--seed", |a, v| set(&mut a.common.seed, v))
    .takes("n", "0")
    .help("random seed");
const STORE_DIR: Flag = flag("--store-dir", |a, v| opt(&mut a.common.store_dir, v))
    .takes("dir", "")
    .help("record samples, alerts and interval changes into the store at <dir>");
/// `--store-dir` where it names a recorded store to read.
const STORE_DIR_READ: Flag = STORE_DIR.help("the recorded store to read");
/// `--store-dir` where the run also records obs snapshots into it.
const STORE_DIR_OBS: Flag = STORE_DIR.help(
    "record samples, alerts, interval changes and obs snapshots (every --obs-every ticks) \
     into the store at <dir>",
);
const THREADS: Flag = flag("--threads", |a, v| floor(&mut a.common.threads, v, 1))
    .takes("n", "1")
    .help("worker threads (never changes results, only wall-clock time)");
const REPORT_JSON: Flag = flag("--report-json", |a, _| on(&mut a.common.report_json))
    .help("emit the versioned JSON envelope {schema, command, report}");
const MONITORS: Flag = flag("--monitors", |a, v| floor(&mut a.monitors, v, 1))
    .takes("n", "5")
    .help("number of monitors");
const TICKS: Flag = flag("--ticks", |a, v| floor(&mut a.ticks, v, 1))
    .takes("n", "200")
    .help("trace length in ticks");
const ERR: Flag = flag("--err", |a, v| set(&mut a.err, v))
    .takes("e", "0.01")
    .help("error allowance");
const THRESHOLD: Flag = flag("--threshold", |a, v| opt(&mut a.threshold, v))
    .takes("T", "")
    .help("fixed alert threshold");
const OBS_EVERY: Flag = flag("--obs-every", |a, v| floor(&mut a.obs_every, v, 1))
    .takes("n", "50")
    .help("obs snapshot cadence in ticks, into --store-dir");
const DEADLINE_MS: Flag = flag("--deadline-ms", |a, v| floor(&mut a.deadline_ms, v, 1))
    .takes("n", "50")
    .help("coordinator collection deadline in milliseconds");
const QUARANTINE_AFTER: Flag = flag("--quarantine-after", |a, v| {
    floor(&mut a.quarantine_after, v, 1)
})
.takes("n", "2")
.help("consecutive missed deadlines before quarantine");
const WAL_DIR: Flag = flag("--wal-dir", |a, v| opt(&mut a.wal_dir, v))
    .takes("dir", "")
    .help("checkpoint WALs into <dir>");
const CHECKPOINT_INTERVAL: Flag = flag("--checkpoint-interval", |a, v| {
    floor(&mut a.checkpoint_interval, v, 1)
})
.takes("n", "25")
.help("checkpoint snapshot cadence in ticks");
const UNIX: Flag = flag("--unix", |a, v| opt(&mut a.unix, v))
    .takes("path", "")
    .help("Unix socket path (wins over the TCP address)");
const TASK: Flag = flag("--task", |a, v| opt(&mut a.task, v))
    .takes("n", "")
    .help("restrict to one task");
const MONITOR: Flag = flag("--monitor", |a, v| opt(&mut a.monitor, v))
    .takes("n", "")
    .help("restrict to one monitor");
const KIND: Flag = flag("--kind", |a, v| put(&mut a.kind, record_kind(v).map(Some)))
    .takes("k", "")
    .help("restrict to one record kind: sample poll alert interval gauge counter");
const FROM: Flag = flag("--from", |a, v| set(&mut a.from, v))
    .takes("t", "0")
    .help("first tick (inclusive)");
const TO: Flag = flag("--to", |a, v| opt(&mut a.to, v))
    .takes("t", "")
    .help("last tick (inclusive; default: no upper bound)");
const LIMIT: Flag = flag("--limit", |a, v| opt(&mut a.limit, v))
    .takes("n", "")
    .help("cap on printed records");

// ---- shared groups -------------------------------------------------------

/// Socket knobs of `agent`, `coordinator` and `chaos --net`.
pub static TRANSPORT: Group = Group {
    title: "transport flags",
    about: "frame cap and agent write timeout of the fleet wire",
    flags: &[
        flag("--max-frame-bytes", |a, v| {
            floor(&mut a.transport.max_frame_bytes, v, 64)
        })
        .takes("n", "65536")
        .help("frame size cap (bytes, sans newline)"),
        flag("--write-timeout-ms", |a, v| {
            set(&mut a.transport.write_timeout_ms, v)
        })
        .takes("n", "0")
        .help("socket write timeout (0 = none)"),
    ],
};

/// Reconnect backoff of the dialing side (`agent`, `chaos --net`).
pub static RECONNECT: Group = Group {
    title: "reconnect flags",
    about: "the agent's redial backoff",
    flags: &[
        flag("--backoff-base-ms", |a, v| {
            floor(&mut a.transport.backoff_base_ms, v, 1)
        })
        .takes("n", "50")
        .help("first reconnect delay"),
        flag("--backoff-cap-ms", |a, v| {
            floor(&mut a.transport.backoff_cap_ms, v, 1)
        })
        .takes("n", "2000")
        .help("reconnect delay ceiling (pre-jitter)"),
    ],
};

/// The embedded HTTP plane of `run`, `chaos` and `coordinator`.
pub static SERVE: Group = Group {
    title: "serve flags",
    about: "embedded HTTP plane for live Prometheus scrapes (/metrics), store range \
            queries (/api/v1/query) and alert subscriptions (/api/v1/alerts/stream); \
            off unless --serve-addr is given",
    flags: &[
        flag("--serve-addr", |a, v| opt(&mut a.serve.addr, v))
            .takes("addr", "")
            .help("bind the HTTP listener (e.g. 127.0.0.1:9464)"),
        flag("--serve-store-dir", |a, v| opt(&mut a.serve.store_dir, v))
            .takes("dir", "")
            .help("store read by /api/v1/query (defaults to the run's --store-dir)"),
        flag("--serve-max-request-bytes", |a, v| {
            floor(&mut a.serve.max_request_bytes, v, 256)
        })
        .takes("n", "8192")
        .help("request-head cap (431 beyond it)"),
        flag("--serve-idle-timeout-ms", |a, v| {
            floor(&mut a.serve.idle_timeout_ms, v, 1)
        })
        .takes("n", "30000")
        .help("idle connection reap timeout"),
        flag("--serve-stream-buffer", |a, v| {
            floor(&mut a.serve.stream_buffer, v, 1)
        })
        .takes("n", "1024")
        .help("alert broadcast ring capacity (events)"),
        flag("--serve-page-limit", |a, v| {
            floor(&mut a.serve.page_limit, v, 1)
        })
        .takes("n", "4096")
        .help("max records per query page"),
        flag("--serve-linger-ms", |a, v| set(&mut a.serve.linger_ms, v))
            .takes("n", "0")
            .help("keep serving this long after the run ends"),
    ],
};

/// Storage faults under every persistence sink of `chaos`.
pub static IO_FAULTS: Group = Group {
    title: "storage-fault flags",
    about: "deterministic faults under the WAL and the sample store; detection output is \
            unaffected by design — only sampling fidelity degrades, visibly",
    flags: &[
        flag("--io-enospc-at", |a, v| {
            put(&mut a.io.enospc, parse_enospc_spec(v).map(Some))
        })
        .takes("t|t+d", "")
        .help("disk full from tick t for d ticks (bare t never recovers)"),
        flag("--io-error-rate", |a, v| put(&mut a.io.error_rate, rate(v)))
            .takes("p", "0")
            .help("per-write EIO probability"),
        flag("--io-torn-writes", |a, v| put(&mut a.io.torn_rate, rate(v)))
            .takes("p", "0")
            .help("per-write torn-write probability (corrupted prefix lands, then EIO)"),
        flag("--io-short-writes", |a, v| {
            put(&mut a.io.short_rate, rate(v))
        })
        .takes("p", "0")
        .help("per-write short-write probability (clean prefix lands, then EIO)"),
        flag("--io-sync-errors", |a, v| {
            put(&mut a.io.sync_error_rate, rate(v))
        })
        .takes("p", "0")
        .help("per-fsync failure probability"),
    ],
};

/// Every shared group, in `volley help` order.
pub static GROUPS: [&Group; 4] = [&TRANSPORT, &RECONNECT, &SERVE, &IO_FAULTS];

// ---- subcommands ---------------------------------------------------------

/// Every subcommand. Within one first word, modes selected by a flag
/// come before the plain form, so the first match wins.
pub static SUBCOMMANDS: [Subcommand; 15] = [
    Subcommand {
        name: "monitor",
        about: "replay a full-resolution trace through the adaptive monitor",
        flags: &[
            flag("--input", |a, v| set(&mut a.input, v))
                .takes("file", "-")
                .help("trace file, `-` for stdin"),
            THRESHOLD,
            flag("--percentile", |a, v| opt(&mut a.percentile, v))
                .takes("k", "")
                .help("derive the threshold: alert on the most extreme k% of values"),
            ERR,
            flag("--max-interval", |a, v| set(&mut a.max_interval, v))
                .takes("n", "16")
                .help("largest sampling interval"),
            flag("--below", |a, _| on(&mut a.below)).help("alert on value < threshold"),
            REPORT_JSON,
        ],
        groups: &[],
        requires: &["--threshold", "--percentile"],
        build: Command::Monitor,
    },
    Subcommand {
        name: "generate",
        about: "emit synthetic traces as CSV, one column per task",
        flags: &[
            flag("--family", |a, v| set(&mut a.family, v))
                .takes("name", "")
                .help("network, system or application"),
            TICKS.default("2000"),
            flag("--tasks", |a, v| floor(&mut a.tasks, v, 1))
                .takes("n", "1")
                .help("parallel tasks (columns)"),
            SEED,
        ],
        groups: &[],
        requires: &["--family"],
        build: Command::Generate,
    },
    Subcommand {
        name: "sim",
        about: "run the datacenter simulator's network-monitoring scenario",
        flags: &[
            flag("--servers", |a, v| floor(&mut a.servers, v, 1))
                .takes("n", "4")
                .help("physical servers"),
            flag("--vms", |a, v| floor(&mut a.vms, v, 1))
                .takes("n", "40")
                .help("VMs per server"),
            ERR,
            TICKS
                .default("1500")
                .help("simulation length in 15-second windows"),
            SEED,
            STORE_DIR.help("record the final obs snapshot into the store at <dir>"),
            THREADS,
            REPORT_JSON,
        ],
        groups: &[],
        requires: &[],
        build: Command::Simulate,
    },
    Subcommand {
        name: "run",
        about: "drive the live runtime on the bursty workload with observability on",
        flags: &[
            MONITORS,
            TICKS,
            ERR,
            OBS_EVERY,
            flag("--self-monitor-us", |a, v| opt(&mut a.self_monitor_us, v))
                .takes("t", "")
                .help("arm the watchdog at this tick latency (microseconds)"),
            SEED.help("stamped into the store's task metadata (the workload is fixed)"),
            STORE_DIR_OBS,
            REPORT_JSON,
        ],
        groups: &[&SERVE],
        requires: &[],
        build: Command::Run,
    },
    Subcommand {
        name: "chaos --multitask",
        about: "run <n> correlated tasks (a planted leader/follower cascade plus noise \
                tasks) under the live correlation-suppression runner",
        flags: &[
            flag("--multitask", |a, v| floor(&mut a.multitask, v, 1))
                .takes("n", "")
                .help("number of tasks"),
            flag("--train-ticks", |a, v| set(&mut a.train_ticks, v))
                .takes("t", "0")
                .help("correlation training window (0 = a third of the run)"),
            MONITORS.help("monitors per task"),
            TICKS,
            WAL_DIR,
            CHECKPOINT_INTERVAL,
            SEED,
            STORE_DIR,
            REPORT_JSON,
        ],
        groups: &[&SERVE],
        requires: &[],
        build: Command::Chaos,
    },
    Subcommand {
        name: "chaos --net",
        about: "run the fleet over real localhost sockets under reconnect storms",
        flags: &[
            flag("--net", |a, _| on(&mut a.net)).help("select this mode"),
            MONITORS,
            TICKS,
            flag("--net-agents", |a, v| set(&mut a.net_agents, v))
                .takes("n", "0")
                .help("agents to split the monitors across (0 = one monitor per agent)"),
            flag("--net-storm-every", |a, v| set(&mut a.net_storm_every, v))
                .takes("t", "0")
                .help("sever a random share of agents every t ticks (0 = off)"),
            flag("--net-storm-fraction", |a, v| {
                put(&mut a.net_storm_fraction, rate(v))
            })
            .takes("p", "0.25")
            .help("share of agents severed per storm"),
            DEADLINE_MS,
            QUARANTINE_AFTER,
            SEED,
            REPORT_JSON,
        ],
        groups: &[&TRANSPORT, &RECONNECT, &SERVE],
        requires: &[],
        build: Command::Chaos,
    },
    Subcommand {
        name: "chaos",
        about: "run the live runtime on the bursty workload under injected message, \
                crash and storage faults",
        flags: &[
            MONITORS,
            TICKS,
            flag("--drop-rate", |a, v| put(&mut a.drop_rate, rate(v)))
                .takes("p", "0")
                .help("violation-report drop probability"),
            flag("--poll-drop-rate", |a, v| {
                put(&mut a.poll_drop_rate, rate(v))
            })
            .takes("p", "0")
            .help("poll-reply drop probability"),
            flag("--dup-rate", |a, v| put(&mut a.dup_rate, rate(v)))
                .takes("p", "0")
                .help("reply duplication probability"),
            flag("--delay-rate", |a, v| put(&mut a.delay_rate, rate(v)))
                .takes("p", "0")
                .help("reply delay (reorder) probability"),
            flag("--crash", |a, v| {
                parse_crash_spec(v).map(|spec| a.crashes.push(spec))
            })
            .takes("m@t", "")
            .help("crash monitor m at tick t (repeatable)"),
            flag("--stall", |a, v| {
                parse_stall_spec(v).map(|spec| a.stalls.push(spec))
            })
            .takes("m@t+d", "")
            .help("silence monitor m at tick t for d ticks (repeatable)"),
            flag("--coordinator-crash", |a, v| {
                parse_value(v).map(|tick| a.coordinator_crashes.push(tick))
            })
            .takes("t", "")
            .help("crash the coordinator at tick t (repeatable)"),
            flag("--partition", |a, v| {
                parse_partition_spec(v).map(|spec| a.partitions.push(spec))
            })
            .takes("m1,m2@t+d", "")
            .help("cut monitors off the coordinator at tick t for d ticks (repeatable)"),
            flag("--corrupt-wal-record", |a, v| {
                parse_value(v).map(|record| a.wal_corruptions.push(record))
            })
            .takes("i", "")
            .help("corrupt the i-th WAL append (repeatable)"),
            flag("--standby", |a, _| on(&mut a.standby)).help("arm a warm standby coordinator"),
            WAL_DIR,
            CHECKPOINT_INTERVAL,
            flag("--wal-sync", |a, v| set(&mut a.wal_sync, v))
                .takes("every-N|on-snapshot|never", "on-snapshot")
                .help("WAL group-fsync policy"),
            QUARANTINE_AFTER,
            flag("--no-supervise", |a, _| on(&mut a.no_supervise))
                .help("leave quarantined monitors down"),
            OBS_EVERY,
            SEED.help("seeds the fault plan"),
            STORE_DIR_OBS,
            REPORT_JSON,
        ],
        groups: &[&IO_FAULTS, &SERVE],
        requires: &[],
        build: Command::Chaos,
    },
    Subcommand {
        name: "obs",
        about: "read back the latest obs snapshot a run recorded into its store",
        flags: &[
            STORE_DIR_READ,
            flag("--prom", |a, _| on(&mut a.prom)).help("print the Prometheus text exposition"),
            REPORT_JSON,
        ],
        groups: &[],
        requires: &["--store-dir"],
        build: Command::Obs,
    },
    Subcommand {
        name: "store query",
        about: "print the matching records of a recorded store",
        flags: &[
            STORE_DIR_READ,
            TASK,
            MONITOR,
            KIND,
            FROM,
            TO,
            LIMIT,
            flag("--cursor", |a, v| set(&mut a.cursor, v))
                .takes("n", "0")
                .help("matched records to skip (the next_cursor of the previous page)"),
            REPORT_JSON,
        ],
        groups: &[],
        requires: &["--store-dir"],
        build: |a| Command::Store(StoreAction::Query, a),
    },
    Subcommand {
        name: "store compact",
        about: "merge all sealed segments into one",
        flags: &[STORE_DIR_READ, REPORT_JSON],
        groups: &[],
        requires: &["--store-dir"],
        build: |a| Command::Store(StoreAction::Compact, a),
    },
    Subcommand {
        name: "store export-csv",
        about: "write the matching records as CSV",
        flags: &[STORE_DIR_READ, TASK, MONITOR, KIND, FROM, TO, LIMIT],
        groups: &[],
        requires: &["--store-dir"],
        build: |a| Command::Store(StoreAction::ExportCsv, a),
    },
    Subcommand {
        name: "backtest",
        about: "replay a recorded range through candidate error allowances",
        flags: &[
            STORE_DIR_READ,
            TASK.default("0").help("the recorded task to replay"),
            flag("--err", |a, v| parse_value(v).map(|err| a.errs.push(err)))
                .takes("e", "")
                .help("candidate error allowance (repeatable; default 0.01 and 0.05)"),
            FROM,
            TO,
            flag("--verify", |a, _| on(&mut a.verify))
                .help("fail unless the recorded-config replay reproduces the recorded alerts"),
            flag("--monitors", |a, v| opt(&mut a.monitors_override, v))
                .takes("n", "")
                .help("monitor count, when the store has no task-meta.json"),
            THRESHOLD.help("global threshold, when the store has no task-meta.json"),
            REPORT_JSON,
        ],
        groups: &[],
        requires: &["--store-dir"],
        build: Command::Backtest,
    },
    Subcommand {
        name: "analyze correlate",
        about: "rank the top-K lag-aware violation correlations of a recorded store",
        flags: &[
            STORE_DIR_READ,
            flag("--top-k", |a, v| set(&mut a.top_k, v))
                .takes("n", "10")
                .help("best pairs to report"),
            flag("--lag", |a, v| set(&mut a.lag, v))
                .takes("n", "2")
                .help("ticks a leader alert may precede a follower alert by"),
            flag("--min-support", |a, v| set(&mut a.min_support, v))
                .takes("n", "3")
                .help("follower alerts a pair needs"),
            FROM,
            TO,
            flag("--max-alerts", |a, v| set(&mut a.max_alerts, v))
                .takes("n", "65536")
                .help("alert ticks retained per task"),
            REPORT_JSON,
        ],
        groups: &[],
        requires: &["--store-dir"],
        build: |a| Command::Analyze(AnalyzeAction::Correlate, a),
    },
    Subcommand {
        name: "coordinator",
        about: "bind a socket, wait for the agent fleet and drive the bursty workload \
                over the wire",
        flags: &[
            MONITORS,
            TICKS,
            ERR,
            flag("--listen", |a, v| set(&mut a.tcp, v))
                .takes("addr", "127.0.0.1:7707")
                .help("TCP listen address"),
            UNIX,
            DEADLINE_MS.default("5000"),
            QUARANTINE_AFTER.default("3"),
            flag("--queue-cap", |a, v| floor(&mut a.queue_cap, v, 1))
                .takes("n", "1024")
                .help("per-connection outbound queue (frames)"),
            flag("--idle-timeout-ms", |a, v| {
                floor(&mut a.idle_timeout_ms, v, 1)
            })
            .takes("n", "30000")
            .help("idle connection reap timeout"),
            flag("--wait-ms", |a, v| floor(&mut a.wait_ms, v, 1))
                .takes("n", "30000")
                .help("how long to wait for the full fleet"),
            flag("--tick-interval-ms", |a, v| set(&mut a.tick_interval_ms, v))
                .takes("n", "0")
                .help("delay between ticks (0 = free-run)"),
            STORE_DIR.help(
                "record the final obs snapshot into the store at <dir>, which /api/v1/query \
                 reads unless --serve-store-dir is given",
            ),
            REPORT_JSON,
        ],
        groups: &[&TRANSPORT, &SERVE],
        requires: &[],
        build: Command::Coordinator,
    },
    Subcommand {
        name: "agent",
        about: "host a slice of the fleet's monitors and dial the coordinator",
        flags: &[
            flag("--connect", |a, v| set(&mut a.tcp, v))
                .takes("addr", "127.0.0.1:7707")
                .help("coordinator TCP address"),
            UNIX,
            flag("--agent-id", |a, v| set(&mut a.agent_id, v))
                .takes("n", "0")
                .help("fleet-unique agent id"),
            flag("--monitors", |a, v| {
                put(&mut a.monitor_range, parse_range_spec(v).map(Some))
            })
            .takes("a..b", "")
            .help("hosted monitor range, end-exclusive (default: the whole fleet)"),
            flag("--fleet-size", |a, v| floor(&mut a.fleet_size, v, 1))
                .takes("n", "5")
                .help("monitors across the fleet (must match the coordinator)"),
            ERR.help("error allowance (must match the coordinator)"),
            THRESHOLD.help("global threshold (default: 100 x fleet size, as the coordinator)"),
            REPORT_JSON,
        ],
        groups: &[&TRANSPORT, &RECONNECT],
        requires: &[],
        build: Command::Agent,
    },
];

impl Subcommand {
    /// The `i`-th word of [`Subcommand::name`].
    fn word(&self, i: usize) -> Option<&'static str> {
        self.name.split(' ').nth(i)
    }

    /// Every row this subcommand accepts: its own, then its groups'.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        let shared = self.groups.iter().flat_map(|group| group.flags);
        self.flags.iter().chain(shared)
    }

    /// The options of a command line that gives no flag: each row's own
    /// setter applied to its own default string.
    pub fn defaults(&self) -> Args {
        let mut args = Args::default();
        for row in self.rows().filter(|row| !row.default.is_empty()) {
            (row.set)(&mut args, row.default).expect("a row's default parses through its setter");
        }
        args
    }

    /// Parses the flags that follow the subcommand's selecting words.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a flag this subcommand does not read, a
    /// missing or malformed value, or a missing required flag.
    pub fn parse(&self, argv: &[String]) -> Result<Args, CliError> {
        let mut args = self.defaults();
        let mut given = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let Some(row) = self.rows().find(|row| row.name == word) else {
                return Err(CliError::Usage(format!(
                    "unknown flag `{word}` for `volley {}`",
                    self.name
                )));
            };
            let raw = match row.value {
                "" => "",
                _ => words
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag {word} requires a value")))?,
            };
            (row.set)(&mut args, raw).map_err(|hint| {
                CliError::Usage(format!("invalid value `{raw}` for {word}{hint}"))
            })?;
            given.push(row.name);
        }
        if !self.requires.is_empty() && !self.requires.iter().any(|name| given.contains(name)) {
            let needed = self.requires.join(" or ");
            return Err(CliError::Usage(format!("{} requires {needed}", self.name)));
        }
        if let Some((_, end)) = args.monitor_range {
            if end as usize > args.fleet_size {
                return Err(CliError::Usage(format!(
                    "monitor range end {end} exceeds --fleet-size {}",
                    args.fleet_size
                )));
            }
        }
        Ok(args)
    }
}

impl Command {
    /// Parses a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for unknown subcommands or actions
    /// and for everything [`Subcommand::parse`] rejects.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
        let argv: Vec<String> = args.into_iter().collect();
        let Some(first) = argv.first() else {
            return Ok(Command::Help);
        };
        if matches!(first.as_str(), "help" | "--help" | "-h") {
            return Ok(Command::Help);
        }
        let family = || SUBCOMMANDS.iter().filter(|sub| sub.word(0) == Some(first));
        let actions: Vec<&str> = family()
            .filter_map(|sub| sub.word(1))
            .filter(|word| !word.starts_with("--"))
            .collect();
        let (sub, rest) = if actions.is_empty() {
            let mode_given = |mode: &str| argv.iter().any(|word| word == mode);
            let sub = family()
                .find(|sub| sub.word(1).is_none_or(mode_given))
                .ok_or_else(|| CliError::Usage(format!("unknown subcommand `{first}`")))?;
            (sub, &argv[1..])
        } else {
            let expected = actions.join(", ");
            let action = argv.get(1).ok_or_else(|| {
                CliError::Usage(format!("{first} requires an action: {expected}"))
            })?;
            let sub = family()
                .find(|sub| sub.word(1) == Some(action))
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown {first} action `{action}` (expected one of: {expected})"
                    ))
                })?;
            (sub, &argv[2..])
        };
        Ok((sub.build)(sub.parse(rest)?))
    }
}

/// Renders one row as `volley help` shows it.
fn write_row(text: &mut String, row: &Flag) {
    let spec = match (row.value, row.default) {
        ("", _) => row.name.to_string(),
        (value, "") => format!("{} <{value}>", row.name),
        (value, default) => format!("{} <{value}={default}>", row.name),
    };
    let _ = writeln!(text, "    {spec:<36} {}", row.help);
}

/// The text `volley help` prints: every subcommand with every row it
/// accepts and each row's default, rendered from [`SUBCOMMANDS`].
pub fn usage() -> String {
    let mut text = String::from(
        "volley — violation-likelihood based adaptive state monitoring\n\n\
         USAGE: volley <subcommand> [flags]     (a flag's default shows as <value=default>)\n",
    );
    for sub in &SUBCOMMANDS {
        let _ = writeln!(text, "\n  volley {}\n    {}", sub.name, sub.about);
        if !sub.requires.is_empty() {
            let _ = writeln!(text, "    requires {}", sub.requires.join(" or "));
        }
        for row in sub.flags {
            write_row(&mut text, row);
        }
        for group in sub.groups {
            let _ = writeln!(text, "    [{}]", group.title);
        }
    }
    let _ = writeln!(text, "\n  volley help");
    for group in GROUPS {
        let users: Vec<&str> = SUBCOMMANDS
            .iter()
            .filter(|sub| sub.groups.iter().any(|g| std::ptr::eq(*g, group)))
            .map(|sub| sub.name)
            .collect();
        let _ = writeln!(
            text,
            "\n  [{}] on {}\n    {}",
            group.title,
            users.join(", "),
            group.about
        );
        for row in group.flags {
            write_row(&mut text, row);
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary argument vectors never panic the parser.
        #[test]
        fn parse_never_panics(args in prop::collection::vec("[ -~]{0,12}", 0..8)) {
            let _ = Command::parse(args);
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(Command::parse(args(&[])).unwrap(), Command::Help);
        assert_eq!(Command::parse(args(&["help"])).unwrap(), Command::Help);
        assert_eq!(Command::parse(args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(matches!(
            Command::parse(args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn monitor_parses_flags() {
        let cmd = Command::parse(args(&[
            "monitor",
            "--input",
            "trace.csv",
            "--percentile",
            "1.5",
            "--err",
            "0.02",
            "--max-interval",
            "8",
            "--below",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Monitor(m) => {
                assert_eq!(m.input, "trace.csv");
                assert_eq!(m.percentile, Some(1.5));
                assert_eq!(m.err, 0.02);
                assert_eq!(m.max_interval, 8);
                assert!(m.below);
                assert!(m.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn monitor_requires_a_threshold_source() {
        assert!(matches!(
            Command::parse(args(&["monitor", "--input", "x"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_requires_family_and_clamps() {
        assert!(matches!(
            Command::parse(args(&["generate"])),
            Err(CliError::Usage(_))
        ));
        let cmd = Command::parse(args(&[
            "generate", "--family", "network", "--ticks", "0", "--tasks", "0",
        ]))
        .unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.ticks, 1);
                assert_eq!(g.tasks, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simulate_has_defaults() {
        let cmd = Command::parse(args(&["sim"])).unwrap();
        match cmd {
            Command::Simulate(s) => {
                assert_eq!(s.servers, 4);
                assert_eq!(s.vms, 40);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(args(&["sim", "--servers", "0", "--vms", "0"])).unwrap() {
            Command::Simulate(s) => {
                assert_eq!(s.servers, 1, "servers floored at 1");
                assert_eq!(s.vms, 1, "VMs floored at 1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_values_rejected() {
        assert!(matches!(
            Command::parse(args(&["monitor", "--threshold", "abc"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Command::parse(args(&["sim", "--servers"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_parses_fault_flags() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--monitors",
            "3",
            "--ticks",
            "120",
            "--drop-rate",
            "0.25",
            "--crash",
            "1@40",
            "--stall",
            "2@20+50",
            "--no-supervise",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.monitors, 3);
                assert_eq!(c.ticks, 120);
                assert_eq!(c.drop_rate, 0.25);
                assert_eq!(c.crashes, vec![(1, 40)]);
                assert_eq!(c.stalls, vec![(2, 20, 50)]);
                assert!(c.no_supervise);
                assert!(c.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_defaults_and_floors() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--monitors",
            "0",
            "--quarantine-after",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.monitors, 1);
                assert_eq!(c.quarantine_after, 1);
                assert!(!c.no_supervise);
                assert!(c.crashes.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_parses_durability_flags() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--coordinator-crash",
            "80",
            "--partition",
            "0,2@30+20",
            "--standby",
            "--wal-dir",
            "/tmp/wals",
            "--checkpoint-interval",
            "0",
            "--corrupt-wal-record",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.coordinator_crashes, vec![80]);
                assert_eq!(c.partitions, vec![(vec![0, 2], 30, 20)]);
                assert!(c.standby);
                assert_eq!(c.wal_dir.as_deref(), Some("/tmp/wals"));
                assert_eq!(c.checkpoint_interval, 1, "cadence floored at 1");
                assert_eq!(c.wal_corruptions, vec![5]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_rejects_malformed_fault_specs() {
        for bad in [
            vec!["chaos", "--crash", "1"],
            vec!["chaos", "--crash", "x@9"],
            vec!["chaos", "--stall", "1@5"],
            vec!["chaos", "--stall", "1@5+y"],
            vec!["chaos", "--crash"],
            vec!["chaos", "--partition", "1@5"],
            vec!["chaos", "--partition", "@5+2"],
            vec!["chaos", "--partition", "1,x@5+2"],
            vec!["chaos", "--coordinator-crash", "x"],
        ] {
            assert!(
                matches!(Command::parse(args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn chaos_parses_io_fault_flags() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--io-enospc-at",
            "40+30",
            "--io-error-rate",
            "0.1",
            "--io-torn-writes",
            "2.0",
            "--io-short-writes",
            "0.05",
            "--io-sync-errors",
            "0.2",
            "--wal-sync",
            "every-4",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.io.enospc, Some((40, 30)));
                assert_eq!(c.io.error_rate, 0.1);
                assert_eq!(c.io.torn_rate, 1.0, "rates clamped to [0,1]");
                assert_eq!(c.io.short_rate, 0.05);
                assert_eq!(c.io.sync_error_rate, 0.2);
                assert!(!c.io.is_benign());
                assert_eq!(c.wal_sync, WalSyncPolicy::EveryN(4));
                let plan = c.io.plan(9);
                assert_eq!(plan.seed(), 9);
                assert!(plan.enospc_active(40));
                assert!(!plan.enospc_active(70), "window end is exclusive");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Bare `t` means the disk never recovers.
        match Command::parse(args(&["chaos", "--io-enospc-at", "15"])).unwrap() {
            Command::Chaos(c) => {
                assert_eq!(c.io.enospc, Some((15, 0)));
                assert!(c.io.plan(0).enospc_active(u64::MAX));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: benign faults, sync-on-snapshot.
        match Command::parse(args(&["chaos"])).unwrap() {
            Command::Chaos(c) => {
                assert!(c.io.is_benign());
                assert!(c.io.plan(3).is_benign());
                assert_eq!(c.wal_sync, WalSyncPolicy::OnSnapshot);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_rejects_malformed_io_specs() {
        for bad in [
            vec!["chaos", "--io-enospc-at"],
            vec!["chaos", "--io-enospc-at", "x"],
            vec!["chaos", "--io-enospc-at", "5+y"],
            vec!["chaos", "--io-error-rate", "abc"],
            vec!["chaos", "--wal-sync", "sometimes"],
        ] {
            assert!(
                matches!(Command::parse(args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    /// Every probability flag reads through one parser: a finite value
    /// is clamped to `[0, 1]`, and `NaN` or `±inf` is a usage error that
    /// names the flag — not a fault plan that silently injects nothing
    /// (or everything).
    #[test]
    fn every_rate_flag_refuses_non_finite_values_and_clamps_the_rest() {
        let flags = [
            "--drop-rate",
            "--poll-drop-rate",
            "--dup-rate",
            "--delay-rate",
            "--io-error-rate",
            "--io-torn-writes",
            "--io-short-writes",
            "--io-sync-errors",
            "--net-storm-fraction",
        ];
        let line = |flag: &str, value: &str| {
            let net = flag == "--net-storm-fraction";
            let mut words = vec!["chaos"];
            words.extend(net.then_some("--net"));
            words.extend([flag, value]);
            Command::parse(args(&words))
        };
        for flag in flags {
            for value in ["inf", "-inf", "NaN", "infinity"] {
                match line(flag, value) {
                    Err(CliError::Usage(message)) => {
                        assert!(message.contains(flag), "{flag} {value}: {message}");
                        assert!(message.contains("finite"), "{flag} {value}: {message}");
                    }
                    other => panic!("{flag} {value} parsed: {other:?}"),
                }
            }
            let Ok(Command::Chaos(c)) = line(flag, "1.5") else {
                panic!("{flag} 1.5 is a usage error");
            };
            let rates = [
                c.drop_rate,
                c.poll_drop_rate,
                c.dup_rate,
                c.delay_rate,
                c.io.error_rate,
                c.io.torn_rate,
                c.io.short_rate,
                c.io.sync_error_rate,
                c.net_storm_fraction,
            ];
            let at = flags.iter().position(|f| *f == flag).unwrap();
            assert_eq!(rates[at], 1.0, "{flag} clamps to [0, 1]");
        }
    }

    #[test]
    fn run_parses_obs_flags() {
        let cmd = Command::parse(args(&[
            "run",
            "--monitors",
            "3",
            "--ticks",
            "0",
            "--err",
            "0.05",
            "--store-dir",
            "/tmp/store",
            "--obs-every",
            "0",
            "--self-monitor-us",
            "250000",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.monitors, 3);
                assert_eq!(r.ticks, 1, "ticks floored at 1");
                assert_eq!(r.err, 0.05);
                assert_eq!(r.common.store_dir.as_deref(), Some("/tmp/store"));
                assert_eq!(r.obs_every, 1, "cadence floored at 1");
                assert_eq!(r.self_monitor_us, Some(250_000.0));
                assert!(r.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_has_defaults() {
        match Command::parse(args(&["run"])).unwrap() {
            Command::Run(r) => {
                assert_eq!(r.monitors, 5);
                assert_eq!(r.ticks, 200);
                assert_eq!(r.common, CommonArgs::default());
                assert_eq!(r.self_monitor_us, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chaos_parses_obs_flags() {
        match Command::parse(args(&[
            "chaos",
            "--store-dir",
            "/tmp/s",
            "--obs-every",
            "10",
        ]))
        .unwrap()
        {
            Command::Chaos(c) => {
                assert_eq!(c.common.store_dir.as_deref(), Some("/tmp/s"));
                assert_eq!(c.obs_every, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn obs_requires_dir() {
        assert!(matches!(
            Command::parse(args(&["obs"])),
            Err(CliError::Usage(_))
        ));
        match Command::parse(args(&["obs", "--store-dir", "/tmp/store", "--prom"])).unwrap() {
            Command::Obs(o) => {
                assert_eq!(o.common.store_dir.as_deref(), Some("/tmp/store"));
                assert!(o.prom);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sim_parses_shared_rows() {
        let cmd = Command::parse(args(&[
            "sim",
            "--servers",
            "2",
            "--threads",
            "8",
            "--seed",
            "11",
            "--store-dir",
            "/tmp/sim-store",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(s) => {
                assert_eq!(s.servers, 2);
                assert_eq!(s.common.threads, 8);
                assert_eq!(s.common.seed, 11);
                assert_eq!(s.common.store_dir.as_deref(), Some("/tmp/sim-store"));
                assert!(s.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_parses_actions_and_filters() {
        let cmd = Command::parse(args(&[
            "store",
            "query",
            "--store-dir",
            "/tmp/store",
            "--task",
            "1",
            "--monitor",
            "2",
            "--kind",
            "alert",
            "--from",
            "10",
            "--to",
            "99",
            "--limit",
            "5",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Store(action, s) => {
                assert_eq!(action, StoreAction::Query);
                assert_eq!(s.common.store_dir.as_deref(), Some("/tmp/store"));
                assert_eq!(s.task, Some(1));
                assert_eq!(s.monitor, Some(2));
                assert_eq!(s.kind, Some(volley_store::RecordKind::Alert));
                assert_eq!(s.from, 10);
                assert_eq!(s.to, Some(99));
                assert_eq!(s.limit, Some(5));
                assert!(s.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
        for (word, expect) in [
            ("compact", StoreAction::Compact),
            ("export-csv", StoreAction::ExportCsv),
        ] {
            match Command::parse(args(&["store", word, "--store-dir", "/a"])).unwrap() {
                Command::Store(action, s) => {
                    assert_eq!(action, expect);
                    assert_eq!(s.common.store_dir.as_deref(), Some("/a"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn store_rejects_bad_inputs() {
        for bad in [
            vec!["store"],
            vec!["store", "frob", "--store-dir", "/x"],
            vec!["store", "query"],
            vec!["store", "query", "--store-dir", "/x", "--kind", "bogus"],
        ] {
            assert!(
                matches!(Command::parse(args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn backtest_parses_candidates() {
        let cmd = Command::parse(args(&[
            "backtest",
            "--store-dir",
            "/tmp/store",
            "--task",
            "3",
            "--err",
            "0.01",
            "--err",
            "0.05",
            "--from",
            "5",
            "--verify",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Backtest(b) => {
                assert_eq!(b.common.store_dir.as_deref(), Some("/tmp/store"));
                assert_eq!(b.task, Some(3));
                assert_eq!(b.errs, vec![0.01, 0.05]);
                assert_eq!(b.from, 5);
                assert_eq!(b.to, None);
                assert!(b.verify);
                assert!(b.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            Command::parse(args(&["backtest"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_parses_correlate_flags() {
        let cmd = Command::parse(args(&[
            "analyze",
            "correlate",
            "--store-dir",
            "/tmp/store",
            "--top-k",
            "5",
            "--lag",
            "4",
            "--min-support",
            "7",
            "--from",
            "10",
            "--to",
            "900",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze(action, a) => {
                assert_eq!(action, AnalyzeAction::Correlate);
                assert_eq!(a.common.store_dir.as_deref(), Some("/tmp/store"));
                assert_eq!(a.top_k, 5);
                assert_eq!(a.lag, 4);
                assert_eq!(a.min_support, 7);
                assert_eq!(a.from, 10);
                assert_eq!(a.to, Some(900));
                assert!(a.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_rejects_bad_inputs() {
        assert!(matches!(
            Command::parse(args(&["analyze"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Command::parse(args(&["analyze", "histogram"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Command::parse(args(&["analyze", "correlate"])),
            Err(CliError::Usage(_)) // no store directory
        ));
    }

    #[test]
    fn chaos_parses_multitask_flags() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--multitask",
            "4",
            "--train-ticks",
            "150",
            "--ticks",
            "600",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.multitask, 4);
                assert_eq!(c.train_ticks, 150);
                assert_eq!(c.ticks, 600);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn coordinator_parses_net_flags() {
        let cmd = Command::parse(args(&[
            "coordinator",
            "--monitors",
            "12",
            "--ticks",
            "0",
            "--listen",
            "0.0.0.0:9000",
            "--deadline-ms",
            "250",
            "--queue-cap",
            "0",
            "--max-frame-bytes",
            "4096",
            "--write-timeout-ms",
            "500",
            "--report-json",
        ]))
        .unwrap();
        match cmd {
            Command::Coordinator(c) => {
                assert_eq!(c.monitors, 12);
                assert_eq!(c.ticks, 1, "ticks floored at 1");
                assert_eq!(c.tcp, "0.0.0.0:9000");
                assert_eq!(c.unix, None);
                assert_eq!(c.deadline_ms, 250);
                assert_eq!(c.queue_cap, 1, "queue cap floored at 1");
                assert_eq!(c.transport.max_frame_bytes, 4096);
                assert_eq!(c.transport.write_timeout_ms, 500);
                assert!(c.common.report_json);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(args(&["coordinator"])).unwrap() {
            Command::Coordinator(c) => {
                assert_eq!(c.monitors, 5);
                assert_eq!(c.tcp, "127.0.0.1:7707");
                assert_eq!(c.deadline_ms, 5000, "its own default, not chaos --net's 50");
                assert_eq!(c.transport.max_frame_bytes, 65_536);
                assert_eq!(c.transport.write_timeout_ms, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn agent_parses_range_and_transport() {
        let cmd = Command::parse(args(&[
            "agent",
            "--connect",
            "10.0.0.1:7707",
            "--agent-id",
            "3",
            "--monitors",
            "6..9",
            "--fleet-size",
            "12",
            "--err",
            "0.02",
            "--threshold",
            "1200",
            "--backoff-base-ms",
            "20",
        ]))
        .unwrap();
        match cmd {
            Command::Agent(a) => {
                assert_eq!(a.tcp, "10.0.0.1:7707");
                assert_eq!(a.agent_id, 3);
                assert_eq!(a.monitor_range, Some((6, 9)));
                assert_eq!(a.fleet_size, 12);
                assert_eq!(a.err, 0.02);
                assert_eq!(a.threshold, Some(1200.0));
                assert_eq!(a.transport.backoff_base_ms, 20);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn agent_rejects_bad_ranges() {
        for bad in [
            vec!["agent", "--monitors", "3"],
            vec!["agent", "--monitors", "3..3"],
            vec!["agent", "--monitors", "5..2"],
            vec!["agent", "--monitors", "a..b"],
            vec!["agent", "--monitors", "0..9", "--fleet-size", "4"],
        ] {
            assert!(
                matches!(Command::parse(args(&bad)), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn chaos_parses_net_flags() {
        let cmd = Command::parse(args(&[
            "chaos",
            "--net",
            "--net-agents",
            "4",
            "--net-storm-every",
            "21",
            "--net-storm-fraction",
            "1.5",
            "--write-timeout-ms",
            "100",
            "--deadline-ms",
            "30",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert!(c.net);
                assert_eq!(c.net_agents, 4);
                assert_eq!(c.net_storm_every, 21);
                assert_eq!(c.net_storm_fraction, 1.0, "fraction clamped to [0,1]");
                assert_eq!(c.transport.write_timeout_ms, 100);
                assert_eq!(c.deadline_ms, 30);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(args(&["chaos", "--net"])).unwrap() {
            Command::Chaos(c) => {
                assert_eq!(c.net_agents, 0);
                assert_eq!(c.net_storm_fraction, 0.25);
                assert_eq!(c.deadline_ms, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(args(&["chaos", "--net", "--deadline-ms", "0"])).unwrap() {
            Command::Chaos(c) => assert_eq!(c.deadline_ms, 1, "deadline floored at 1"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_parses_cursor() {
        match Command::parse(args(&[
            "store",
            "query",
            "--store-dir",
            "/tmp/s",
            "--cursor",
            "128",
        ]))
        .unwrap()
        {
            Command::Store(_, s) => assert_eq!(s.cursor, 128),
            other => panic!("unexpected {other:?}"),
        }
        match Command::parse(args(&["store", "query", "--store-dir", "/tmp/s"])).unwrap() {
            Command::Store(_, s) => assert_eq!(s.cursor, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            Command::parse(args(&[
                "store",
                "query",
                "--store-dir",
                "/s",
                "--cursor",
                "x"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    /// The table invariants that replaced the per-group drift guards:
    /// with one row per flag there is nothing left to keep in sync, only
    /// the table's own shape to check.
    #[test]
    fn the_flag_table_is_well_formed() {
        let help = usage();
        for sub in &SUBCOMMANDS {
            // Every default goes through its own setter.
            let defaults = sub.defaults();
            if let Ok(parsed) = sub.parse(&[]) {
                assert_eq!(parsed, defaults, "{}", sub.name);
            }
            let section = &help[help
                .find(&format!("\n  volley {}\n", sub.name))
                .unwrap_or_else(|| panic!("`{}` missing from volley help", sub.name))..];
            let mut seen = Vec::new();
            for row in sub.rows() {
                assert!(
                    !seen.contains(&row.name),
                    "{} twice in {}",
                    row.name,
                    sub.name
                );
                seen.push(row.name);
                assert!(
                    row.name.starts_with("--") && !row.help.is_empty(),
                    "{row:?}"
                );
                assert!(
                    row.default.is_empty() || !row.value.is_empty(),
                    "{row:?}: a switch cannot have a default"
                );
            }
            // Every own row is listed under the subcommand with its default…
            for row in sub.flags {
                let spec = match (row.value, row.default) {
                    ("", _) => format!("    {} ", row.name),
                    (value, "") => format!("    {} <{value}> ", row.name),
                    (value, default) => format!("    {} <{value}={default}> ", row.name),
                };
                let end = section[1..]
                    .find("\n\n")
                    .map_or(section.len(), |end| end + 1);
                assert!(
                    section[..end].contains(&spec),
                    "{spec:?} not under {}",
                    sub.name
                );
            }
            // …and every group it lists is one of the shared statics, which
            // help renders once with its rows.
            for group in sub.groups {
                assert!(GROUPS.iter().any(|shared| std::ptr::eq(*shared, *group)));
                assert!(help.contains(&format!("[{}] on ", group.title)));
                for row in group.flags {
                    assert!(
                        help.contains(&format!("    {} <{}=", row.name, row.value))
                            || help.contains(&format!("    {} <{}> ", row.name, row.value))
                    );
                }
            }
            for name in sub.requires {
                assert!(seen.contains(name), "{} requires unknown {name}", sub.name);
            }
        }
        // The serve rows' defaults are the serving plane's own.
        let serve = SUBCOMMANDS[3].defaults().serve;
        assert_eq!(SUBCOMMANDS[3].name, "run");
        assert_eq!(
            serve.max_request_bytes,
            volley_serve::DEFAULT_MAX_REQUEST_BYTES
        );
        assert_eq!(serve.stream_buffer, volley_serve::DEFAULT_STREAM_BUFFER);
        assert_eq!(serve.page_limit, volley_serve::DEFAULT_PAGE_LIMIT);
        assert!(!serve.enabled());
        assert_eq!(serve.resolve_store_dir(Some("/rec")), Some("/rec"));
    }

    /// A shared group parses into the same fields under every
    /// subcommand that lists it, floors included.
    #[test]
    fn shared_groups_parse_identically_everywhere() {
        let tail = [
            "--max-frame-bytes",
            "0", // floored at 64
            "--write-timeout-ms",
            "250",
            "--serve-addr",
            "127.0.0.1:9464",
            "--serve-max-request-bytes",
            "0", // floored at 256
            "--serve-linger-ms",
            "1500",
        ];
        let mut parsed = Vec::new();
        for head in [&["coordinator"][..], &["chaos", "--net"]] {
            let argv: Vec<&str> = head.iter().chain(&tail).copied().collect();
            match Command::parse(args(&argv)).unwrap() {
                Command::Coordinator(a) | Command::Chaos(a) => parsed.push((
                    a.transport.max_frame_bytes,
                    a.transport.write_timeout_ms,
                    a.serve,
                )),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(parsed[0], parsed[1]);
        let (max_frame_bytes, write_timeout_ms, serve) = &parsed[0];
        assert_eq!((*max_frame_bytes, *write_timeout_ms), (64, 250));
        assert_eq!((serve.max_request_bytes, serve.linger_ms), (256, 1500));
        assert!(serve.enabled());
        assert_eq!(serve.resolve_store_dir(Some("/rec")), Some("/rec"));
    }

    /// A flag a subcommand (or `chaos` mode) never reads is a usage
    /// error that names the flag and the mode — not a silent no-op.
    #[test]
    fn flags_a_mode_never_reads_are_usage_errors() {
        let cases: &[(&[&str], &str, &str)] = &[
            (
                &["chaos", "--net", "--store-dir", "s"],
                "--store-dir",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--wal-dir", "w"],
                "--wal-dir",
                "chaos --net",
            ),
            (&["chaos", "--standby", "--net"], "--standby", "chaos --net"),
            (
                &["chaos", "--net", "--crash", "1@10"],
                "--crash",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--stall", "1@10+5"],
                "--stall",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--partition", "1@10+5"],
                "--partition",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--drop-rate", "0.1"],
                "--drop-rate",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--io-error-rate", "0.1"],
                "--io-error-rate",
                "chaos --net",
            ),
            (
                &["chaos", "--net", "--obs-every", "10"],
                "--obs-every",
                "chaos --net",
            ),
            (
                &["chaos", "--multitask", "3", "--crash", "1@10"],
                "--crash",
                "chaos --multitask",
            ),
            (
                &["chaos", "--multitask", "3", "--drop-rate", "0.1"],
                "--drop-rate",
                "chaos --multitask",
            ),
            (
                &["chaos", "--multitask", "3", "--standby"],
                "--standby",
                "chaos --multitask",
            ),
            (
                &["chaos", "--multitask", "3", "--net"],
                "--net",
                "chaos --multitask",
            ),
            (&["chaos", "--net-agents", "2"], "--net-agents", "chaos"),
            (&["chaos", "--deadline-ms", "30"], "--deadline-ms", "chaos"),
            (&["chaos", "--train-ticks", "9"], "--train-ticks", "chaos"),
            (&["sim", "--obs-every", "5"], "--obs-every", "sim"),
            (&["run", "--threads", "2"], "--threads", "run"),
            (&["agent", "--seed", "1"], "--seed", "agent"),
            (&["agent", "--threads", "2"], "--threads", "agent"),
            (&["agent", "--store-dir", "s"], "--store-dir", "agent"),
            (&["coordinator", "--seed", "1"], "--seed", "coordinator"),
            (
                &["coordinator", "--threads", "2"],
                "--threads",
                "coordinator",
            ),
            (
                &["coordinator", "--backoff-cap-ms", "9"],
                "--backoff-cap-ms",
                "coordinator",
            ),
            (
                &["store", "compact", "--store-dir", "s", "--limit", "1"],
                "--limit",
                "store compact",
            ),
            (&["obs", "--store-dir", "s", "--seed", "1"], "--seed", "obs"),
            // The dropped legacy spellings.
            (&["run", "--json"], "--json", "run"),
            (&["obs", "--dir", "o"], "--dir", "obs"),
            (&["store", "query", "--dir", "s"], "--dir", "store query"),
        ];
        for (argv, flag, mode) in cases {
            match Command::parse(args(argv)) {
                Err(CliError::Usage(message)) => assert!(
                    message.contains(&format!("`{flag}`"))
                        && message.contains(&format!("`volley {mode}`")),
                    "{argv:?}: {message}"
                ),
                other => panic!("{argv:?} must be a usage error, got {other:?}"),
            }
        }
        assert!(matches!(
            Command::parse(args(&["simulate"])),
            Err(CliError::Usage(_))
        ));
    }

    /// The drift guard for the parse loop: each of the three usage-error
    /// templates is spelled once in the non-test half of this file, so a
    /// second parser cannot quietly grow beside the table.
    #[test]
    fn the_usage_error_templates_are_spelled_once() {
        let text = include_str!("args.rs");
        let code: String = text[..text.find("#[cfg(test)]").expect("a test module")]
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .collect();
        for template in ["requires a value", "invalid value `", "unknown flag `"] {
            assert_eq!(code.matches(template).count(), 1, "`{template}`");
        }
        assert_eq!(code.matches("match flag.as_str()").count(), 0);
    }

    #[test]
    fn errors_display() {
        let err = CliError::Usage("boom".to_string());
        assert!(err.to_string().contains("boom"));
    }
}
