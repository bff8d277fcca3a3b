//! The socket plane's work budget: what one steady window, one paced
//! tick and one poll cost, counted by the code itself instead of timed —
//! wire lines and bytes each way, heap allocations and the report inputs
//! the coordinator machine takes (rows; a lone `TickDone` is one) per
//! window and per paced tick, the heap high-water marks of one 128-monitor agent
//! machine and of the plane, and a poll's round trips, socket writes and
//! values — on [`super::sweep`]'s virtual clock, so every count is a
//! function of the run alone.
//!
//! The runs are `live-net`'s shape: 256 monitors, two agents of 128,
//! calm traces. With no poll, a window of [`MAX_WINDOW`] ticks goes out
//! at a time, and a steady window's cost is the difference of two runs,
//! 104 and 200 ticks, over the twelve windows between them. Paced, every
//! tick is a window of one, and a tick's cost is the difference of two
//! paced runs, 40 and 72 ticks, over the 32 ticks between them. The poll
//! case plants a local violation on the third tick of the first window
//! and runs through the end of the window that follows the poll: its
//! counts are the whole run's, and it fails outright if a tick's values
//! reach one connection twice. The budgets live in `work_budget.json`
//! beside this file: a count above its budget fails and prints every
//! count against its budget. A change that lowers a count lowers its
//! budget with it; one may rise only with its reason named in
//! `CHANGES.md`.
//!
//! Allocations are charged to an [`Account`] by a counting allocator
//! (`volley_heapcount`): the world that stands in for the network
//! charges each agent's steps to the agent and wraps the plane's bind
//! and run in the plane's; what the test scaffolding allocates is
//! charged to none.

use std::collections::BTreeMap;
use std::time::Duration;

use volley_core::hash::splitmix64;
use volley_core::task::TaskSpec;
use volley_heapcount::Counting;

use super::sweep::{Ran, Scenario};
use super::MAX_WINDOW;
use crate::coordinator::REPORT_INPUTS;

#[global_allocator]
static COUNTING: Counting = Counting;

/// Who an allocation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Account {
    /// The coordinator's session: its sockets, machine and driver.
    Plane,
    /// One agent machine, by index.
    Agent(usize),
}

/// Runs `work` with its allocations charged to `account`; past the
/// counter's accounts, an agent is charged to none.
pub(super) fn charged<T>(account: Account, work: impl FnOnce() -> T) -> T {
    let slot = match account {
        Account::Plane => 0,
        Account::Agent(agent) => agent + 1,
    };
    volley_heapcount::charged(slot, work)
}

/// `live-net`'s shape for `ticks` ticks: 256 monitors split over two
/// agents, every value calm (10 to 30 against a local threshold of 60).
fn steady(ticks: usize) -> Scenario {
    let spec = TaskSpec::builder(60.0 * 256.0)
        .monitors(256)
        .error_allowance(0.05)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec");
    let noise = |m: u64, t: u64| (splitmix64(m << 32 ^ t) % 2000) as f64 / 100.0;
    let traces = (0..256u64)
        .map(|m| (0..ticks as u64).map(|t| 10.0 + noise(m, t)).collect())
        .collect();
    Scenario {
        spec,
        traces,
        split: vec![0..128, 128..256],
        storm: None,
        cuts: vec![Vec::new(); 2],
        chunks: vec![16 * 1024; 2],
        cut_on_rewind: None,
        interval: Duration::ZERO,
    }
}

/// The poll case: [`steady`] for 11 ticks with monitor 0 at 100 on tick
/// 2, which it samples — every monitor samples every tick while it warms
/// up — so the first window, `[0, 8)`, polls on its third tick, and the
/// window after the poll is `[3, 11)`.
fn poll_cut() -> Scenario {
    let mut scenario = steady(11);
    scenario.traces[0][2] = 100.0;
    scenario
}

/// One run's counts: what it did, per account — the plane, then each
/// agent — its allocations and heap high-water mark, and the report
/// inputs its coordinator machine took.
fn measure(scenario: Scenario) -> (Ran, [u64; 3], [i64; 3], u64) {
    volley_heapcount::reset();
    REPORT_INPUTS.with(|inputs| inputs.set(0));
    let ran = scenario.run(0, &[]).expect("a steady run");
    let ([plane, one, two, ..], [plane_peak, one_peak, two_peak, ..]) =
        (volley_heapcount::calls(), volley_heapcount::peaks());
    let inputs = REPORT_INPUTS.with(std::cell::Cell::get);
    (
        ran,
        [plane, one, two],
        [plane_peak, one_peak, two_peak],
        inputs,
    )
}

/// Every count of a steady window, the two high-water marks, a paced
/// tick's counts and the poll case's.
fn counts() -> BTreeMap<String, u64> {
    let (short, short_allocs, _, short_inputs) = measure(steady(104));
    let (long, long_allocs, peaks, long_inputs) = measure(steady(200));
    let windows = (200 - 104) / MAX_WINDOW as u64;
    let per_window = |long: u64, short: u64| (long - short).div_ceil(windows);
    let (short_net, long_net) = (&short.outcome.net, &long.outcome.net);
    assert_eq!(long.outcome.report.polls, 0, "a steady run polls nothing");
    let counted = [
        (
            "window.lines_out",
            per_window(long_net.frames_out, short_net.frames_out),
        ),
        (
            "window.lines_in",
            per_window(long_net.frames_in, short_net.frames_in),
        ),
        (
            "window.bytes_out",
            per_window(long.bytes[1], short.bytes[1]),
        ),
        ("window.bytes_in", per_window(long.bytes[0], short.bytes[0])),
        (
            "window.plane_allocs",
            per_window(long_allocs[0], short_allocs[0]),
        ),
        (
            "window.agent_allocs",
            per_window(long_allocs[1], short_allocs[1]),
        ),
        (
            "window.machine_inputs",
            per_window(long_inputs, short_inputs),
        ),
        ("peak.plane_bytes", peaks[0] as u64),
        ("peak.agent_bytes", peaks[1] as u64),
    ];
    let (short, short_allocs, _, short_inputs) = measure(steady(40).paced());
    let (long, long_allocs, _, long_inputs) = measure(steady(72).paced());
    assert_eq!(long.outcome.report.polls, 0, "a steady run polls nothing");
    let per_tick = |long: u64, short: u64| (long - short).div_ceil(72 - 40);
    let (short_net, long_net) = (&short.outcome.net, &long.outcome.net);
    let paced = [
        (
            "tick.lines_out",
            per_tick(long_net.frames_out, short_net.frames_out),
        ),
        (
            "tick.lines_in",
            per_tick(long_net.frames_in, short_net.frames_in),
        ),
        ("tick.bytes_out", per_tick(long.bytes[1], short.bytes[1])),
        ("tick.bytes_in", per_tick(long.bytes[0], short.bytes[0])),
        (
            "tick.plane_allocs",
            per_tick(long_allocs[0], short_allocs[0]),
        ),
        (
            "tick.agent0_allocs",
            per_tick(long_allocs[1], short_allocs[1]),
        ),
        (
            "tick.agent1_allocs",
            per_tick(long_allocs[2], short_allocs[2]),
        ),
        ("tick.machine_inputs", per_tick(long_inputs, short_inputs)),
    ];
    let poll = poll_cut().run(0, &[]).expect("a run with a poll");
    let (report, net) = (&poll.outcome.report, &poll.outcome.net);
    assert_eq!((report.polls, report.ticks), (1, 11), "one poll, 11 ticks");
    assert_eq!(poll.resent, 0, "values sent twice to one connection");
    // A value is 16 hex digits on the wire.
    let value_bytes = 16 * net.values_out / report.ticks;
    let polled = [
        ("poll.round_trips", net.round_trips),
        ("poll.writes_out", net.writes),
        ("poll.writes_in", poll.writes),
        ("poll.value_bytes_per_tick", value_bytes),
    ];
    counted
        .into_iter()
        .chain(paced)
        .chain(polled)
        .map(|(name, count)| (name.to_string(), count))
        .collect()
}

#[test]
fn a_steady_window_a_paced_tick_and_a_poll_cost_no_more_than_their_budget() {
    let counts = counts();
    assert_eq!(
        counts,
        self::counts(),
        "a count that is no function of the run"
    );
    let budgets: BTreeMap<String, u64> =
        serde_json::from_str(include_str!("work_budget.json")).expect("a map of budgets");
    assert_eq!(
        counts.keys().collect::<Vec<_>>(),
        budgets.keys().collect::<Vec<_>>(),
        "every count has a budget"
    );
    let over: Vec<String> = counts
        .iter()
        .filter(|(name, count)| *count > &budgets[*name])
        .map(|(name, count)| format!("{name}: {count} > {}", budgets[name]))
        .collect();
    let table: Vec<String> = counts
        .iter()
        .map(|(name, count)| format!("{name}: {count} (budget {})", budgets[name]))
        .collect();
    assert!(
        over.is_empty(),
        "over budget: {over:?}\n{}",
        table.join("\n")
    );
}
