//! The round loop every workload shares.
//!
//! PR 11 timed one shot of 1–20 s; a bare CPU loop on the shared host
//! varies 0.30–0.40 s from run to run, so one shot cannot hold a 10 %
//! bound. Here a run is one process = set-up + one untimed warm-up
//! round + as many timed rounds of *fixed work* as fit in `--seconds`,
//! and every timing metric is the median over rounds — of round times
//! adjusted to zero hypervisor steal (see `stats::steal_adjusted_s`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::report::Outcome;
use crate::spans::{self, SelfTime, Span, Tracer};
use crate::stats::{self, RoundTime};
use std::collections::BTreeMap;

/// Fewest timed rounds a run makes, whatever the budget.
pub const MIN_ROUNDS: usize = 3;
/// Spans one traced round may record before further ones are dropped
/// (and counted).
const SPAN_CAP: usize = 1 << 20;

/// Sizes and switches of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measurement budget: timed rounds stop once another would not fit.
    pub seconds: f64,
    /// Traced pass: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`: ~1/20 of the work, two rounds, oracles on.
    pub smoke: bool,
    /// When the process started; `setup_s` counts from here.
    pub started: Instant,
}

/// Times a region: wall clock and hypervisor steal over exactly the
/// same interval.
pub struct Stopwatch {
    started: Instant,
    steal_before_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal_before_s: crate::proc::steal_seconds(),
            started: Instant::now(),
        }
    }

    pub fn stop(&self) -> RoundTime {
        RoundTime {
            wall_s: self.started.elapsed().as_secs_f64(),
            steal_s: crate::proc::steal_seconds() - self.steal_before_s,
        }
    }
}

/// The timed rounds of a run, split by whether spans were on.
#[derive(Debug, Default)]
pub struct Rounds {
    pub untraced: Vec<RoundTime>,
    pub traced: Vec<RoundTime>,
    /// Self times summed over every traced round.
    pub self_times: BTreeMap<&'static str, SelfTime>,
    /// Raw spans of the last traced round, for the `--out` dump.
    pub last_spans: Vec<Span>,
    pub spans_recorded: u64,
}

impl Rounds {
    pub fn count(&self) -> u32 {
        (self.untraced.len() + self.traced.len()) as u32
    }

    /// Round time with tracing off, adjusted to zero steal: the
    /// end-to-end figure.
    pub fn round_s(&self) -> f64 {
        stats::steal_adjusted_s(&self.untraced)
    }

    /// Sets the five end-to-end metrics; `work` is the monitor-windows of
    /// one round, the two ratios come from the workload's reference run.
    pub fn report_end_to_end(
        &self,
        outcome: &mut Outcome,
        setup_s: f64,
        work: u64,
        sampling_cost_ratio: f64,
        detection_rate: f64,
    ) {
        let m = &mut outcome.metrics;
        m.set("setup_s", setup_s);
        m.set("monitor_windows_per_s", work as f64 / self.round_s());
        m.set("peak_heap_mb", crate::alloc::peak_bytes() as f64 / 1e6);
        m.set("sampling_cost_ratio", sampling_cost_ratio);
        m.set("detection_rate", detection_rate);
    }

    pub fn self_time(&self, name: &str) -> SelfTime {
        self.self_times.get(name).copied().unwrap_or_default()
    }

    /// The traced pass's own view of the end-to-end rate — what tracing
    /// cost, how many spans it took — and the raw spans for `--out`.
    /// `work` is the monitor-windows of one round.
    pub fn report_traced_pass(
        self,
        outcome: &mut Outcome,
        tracer: &Tracer,
        work: u64,
        setup_s: f64,
    ) {
        let m = &mut outcome.metrics;
        let untraced = work as f64 / self.round_s();
        let traced = work as f64 / stats::steal_adjusted_s(&self.traced);
        m.set("trace.untraced_windows_per_s", untraced);
        m.set("trace.traced_windows_per_s", traced);
        m.set("trace.overhead_share", (untraced - traced) / untraced);
        m.set("trace.spans", self.spans_recorded as f64);
        m.set("trace.spans_dropped", tracer.dropped() as f64);
        m.set("trace.rounds", f64::from(self.count()));
        let walls: Vec<f64> = self.untraced.iter().map(|r| r.wall_s).collect();
        m.set("trace.round_s", stats::median(&walls));
        m.set("trace.steal_slope", stats::steal_slope(&self.untraced));
        let all = self.untraced.iter().chain(&self.traced);
        m.set("trace.steal_s", all.map(|r| r.steal_s).sum());
        m.set("trace.setup_s", setup_s);
        outcome.spans = self.last_spans;
    }
}

/// A scratch directory for WALs and stores, removed when dropped so no
/// exit path leaves one behind.
///
/// It lives next to the running executable — inside the build output
/// directory, which the driver places inside its checkout and which is
/// git-ignored — because a run may read and write only inside its
/// checkout. Only when the executable's location is unknown does it
/// fall back to the system temp dir.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let base = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(Path::to_path_buf))
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!("volley-benchmark-tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn new_tracer() -> Tracer {
    Tracer::new(SPAN_CAP)
}

/// Runs timed rounds until the budget is used. `round(index, tracer)`
/// does one round of fixed work and returns its time. With
/// `config.trace` the rounds alternate untraced / traced so both see
/// the same drift; otherwise the tracer stays off.
pub fn run_rounds(
    config: &RunConfig,
    tracer: &Tracer,
    mut round: impl FnMut(u32, &Tracer) -> RoundTime,
) -> Rounds {
    let mut rounds = Rounds::default();
    let min_rounds = if config.smoke { 2 } else { MIN_ROUNDS };
    let began = Instant::now();
    let mut index = 0u32;
    loop {
        let traced = config.trace && index % 2 == 1;
        tracer.set_enabled(traced);
        let time = round(index, tracer);
        tracer.set_enabled(false);
        if traced {
            rounds.traced.push(time);
            let spans = tracer.drain();
            rounds.spans_recorded += spans.len() as u64;
            for (name, t) in spans::self_times(&spans) {
                let total = rounds.self_times.entry(name).or_default();
                total.count += t.count;
                total.total_ns += t.total_ns;
                total.self_ns += t.self_ns;
            }
            rounds.last_spans = spans;
        } else {
            rounds.untraced.push(time);
        }
        index += 1;
        let done = rounds.count() as usize;
        let walls: Vec<f64> = rounds
            .untraced
            .iter()
            .chain(&rounds.traced)
            .map(|r| r.wall_s)
            .collect();
        let typical = stats::median(&walls);
        let fits = began.elapsed().as_secs_f64() + typical <= config.seconds;
        // A traced run needs at least one round of each kind.
        let both = !config.trace || !rounds.traced.is_empty();
        if done >= min_rounds && both && (!fits || config.smoke) {
            break;
        }
    }
    let show = |rounds: &[RoundTime]| -> String {
        let each: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.3}-{:.2}", r.wall_s, r.steal_s))
            .collect();
        each.join(" ")
    };
    eprintln!(
        "rounds (wall-steal s): untraced [{}] traced [{}] -> {:.3} s at zero steal",
        show(&rounds.untraced),
        show(&rounds.traced),
        rounds.round_s()
    );
    rounds
}
