//! Whole-system simulation of the networked deployment: the real
//! [`SocketPlane`] — [`NetCoordinator`]'s session, reactor and
//! connection table — against real [`AgentMachine`]s, on one thread,
//! under a virtual clock, from one `u64` seed.
//!
//! The link is a Unix socket: the plane binds its listener in the temp
//! dir and each agent dials it, so `serve::reactor` runs unchanged. The
//! plane's clock is the world: its wait steps every agent — dial when
//! due, write and read in the seed's chunk sizes, feed the machine — and
//! moves virtual time on to whatever is due next only when nothing
//! moved, then hands `poll` a zero timeout. Nothing waits on the wall
//! clock, so a seed's run is a function of the seed alone.
//!
//! The seed picks the spec, the traces and the agent split, a
//! [`NetFaultPlan`] storm, agent-side connection loss, and the chunk
//! sizes the world reads and writes in, which cut lines at arbitrary
//! bytes. The window arm plants its violations instead: on a window's
//! first and last tick, on two agents at once, and ahead of an agent
//! that must rewind — whose link the world then cuts right after the
//! rewind, under a storm. The carry arms plant polls where a window goes
//! out with one: twice inside one such window, on a window's last tick,
//! on a reallocation tick, and where the world cuts an agent's link as
//! the poll reaches it; each seed picks their noise and chunk sizes. The
//! paced arm runs the seed's own task fault-free under a tick interval,
//! so every tick is a window of one. A fault-free run is held to the
//! in-process runner: its report, and every monitor's sampler state —
//! snapshot (allowance included) and tick state (period sums included) —
//! at the end and as the data of the tick after each reallocation or
//! snapshot tick reaches it, where a monitor stepping on before the
//! round's frames would show.
//!
//! # Mutants
//!
//! A change to the windowed plane runs each of these in a throwaway copy
//! and reports the seeds of the 64 that fail:
//!
//! - the reallocation carry: `CoordinatorActor::poll_carries` without
//!   its reallocation-tick condition, so a poll on tick 1 000 carries a
//!   window (every seed);
//! - `held` off by one: `SocketPlane::stage` names one tick more held
//!   than the connection was sent (every seed: the agent refuses it);
//! - a rewind to the wrong window start: `Held::rewind` replays one tick
//!   fewer (every seed);
//! - `WindowFeed` skipping a carried tick: `feed` hands the machine
//!   nothing for a window's first tick (62 seeds);
//! - `window_reply` accepting a ragged reply (no seed: agents write
//!   none; `net::wire`'s unit tests catch it);
//! - digit 8 counted as a report by `CoordinatorActor::report_row` (no
//!   seed: agents rarely write one; `tests/proptest_messages.rs`'s row
//!   parity catches it).

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use volley_core::hash::splitmix64;
use volley_core::task::TaskSpec;
use volley_core::time::Tick;
use volley_core::{GroundTruth, SamplerSnapshot, VolleyError};

use super::agent::AgentMachine;
use super::server::Socket;
use super::work_budget::{charged, Account};
use super::{
    AgentConfig, AgentReport, BackoffConfig, Clock, NetAddr, NetCoordinator, NetFaultPlan,
    NetRunOutcome,
};
use crate::monitor::WATCHED;
use crate::runner::TaskRunner;
use crate::session::{inline_states, Watched};
use crate::transport::TransportConfig;

/// One agent of the world: its machine and its end of the link.
struct Agent {
    machine: AgentMachine,
    socket: Option<UnixStream>,
    /// Bytes the machine put out that the link has not taken yet.
    out: Vec<u8>,
    /// When to dial next; `None` while connected or done.
    dial_at: Option<Instant>,
    done: Option<Result<AgentReport, VolleyError>>,
    /// The most the world reads or writes for this agent at once.
    chunk: usize,
    /// Reads so far, and the ones at which the world cuts the link
    /// instead of handing the bytes on.
    reads: u64,
    cuts: Vec<u64>,
    /// Whether the world cuts the link once, right after a read that
    /// rewound a monitor — the poll's reply lost with it.
    cut_on_rewind: bool,
    /// Bytes the agent wrote, and read.
    bytes: [u64; 2],
    /// Sends the machine made: what `run_agent` writes at once.
    writes: u64,
}

impl Agent {
    /// One step: dial when due, else write a chunk and read a chunk;
    /// whether anything moved.
    fn step(&mut self, now: Instant, addr: &NetAddr, buf: &mut [u8]) -> bool {
        if self.done.is_some() {
            return false;
        }
        let Some(socket) = self.socket.as_mut() else {
            if self.dial_at.is_none_or(|at| at > now) {
                return false;
            }
            self.dial_at = None;
            match addr.connect(None) {
                Ok(Socket::Unix(stream)) => {
                    stream.set_nonblocking(true).expect("nonblocking");
                    self.socket = Some(stream);
                    self.machine.connected(&mut self.out);
                    self.writes += 1;
                }
                Ok(Socket::Tcp(_)) => unreachable!("the world dials a Unix socket"),
                Err(err) => self.lost(now, &err),
            }
            return true;
        };
        let mut moved = false;
        if !self.out.is_empty() {
            let len = self.out.len().min(self.chunk);
            match socket.write(&self.out[..len]) {
                Ok(k) => {
                    self.out.drain(..k);
                    self.bytes[0] += k as u64;
                    moved = true;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {}
                Err(err) => {
                    self.lost(now, &err);
                    return true;
                }
            }
        }
        if self.out.is_empty() && self.machine.finished() {
            self.socket = None;
            self.done = Some(Ok(self.machine.report));
            return true;
        }
        match socket.read(&mut buf[..self.chunk]) {
            Ok(0) => self.lost(now, &"end of stream"),
            Ok(k) => {
                self.reads += 1;
                self.bytes[1] += k as u64;
                let (rewinds, pending) = (self.machine.rewinds, self.out.len());
                if self.cuts.contains(&self.reads) {
                    self.lost(now, &"link cut");
                } else if !self.machine.on_bytes(&buf[..k], &mut self.out) {
                    // The coordinator writes none: the machine misread.
                    self.socket = None;
                    let reason = format!("a malformed line after {} reads", self.reads);
                    self.done = Some(Err(VolleyError::InvalidConfig {
                        parameter: "net",
                        reason,
                    }));
                } else if self.cut_on_rewind && self.machine.rewinds > rewinds {
                    self.cut_on_rewind = false;
                    self.lost(now, &"link cut in mid-rewind");
                } else {
                    self.writes += u64::from(self.out.len() > pending);
                }
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => return moved,
            Err(err) => self.lost(now, &err),
        }
        true
    }

    fn lost(&mut self, now: Instant, cause: &dyn fmt::Display) {
        self.socket = None;
        self.out.clear();
        if self.machine.finished() {
            // Only the goodbye was in flight: the agent is done.
            self.done = Some(Ok(self.machine.report));
            return;
        }
        match self.machine.closed(cause) {
            Ok(delay) => self.dial_at = Some(now + delay),
            Err(err) => self.done = Some(Err(err)),
        }
    }
}

struct World {
    now: Instant,
    addr: NetAddr,
    agents: Vec<Agent>,
    buf: Vec<u8>,
}

/// The plane's clock in the sweep: a handle on the world.
#[derive(Clone)]
struct VirtualClock(Arc<Mutex<World>>);

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.0.lock().expect("world").now
    }

    /// Steps every agent once; when none moved, time jumps to the next
    /// dial due or to `until`, whichever comes first.
    fn wait_until(&mut self, until: Instant, io: Option<&mut dyn FnMut(Duration)>) {
        let mut world = self.0.lock().expect("world");
        let World {
            now,
            addr,
            agents,
            buf,
        } = &mut *world;
        let mut moved = false;
        for (a, agent) in agents.iter_mut().enumerate() {
            moved |= charged(Account::Agent(a), || agent.step(*now, addr, buf));
        }
        if !moved {
            let due = agents.iter().filter_map(|agent| agent.dial_at).min();
            *now = (*now).max(due.map_or(until, |at| at.min(until)));
        }
        drop(world);
        if let Some(io) = io {
            io(Duration::ZERO);
        }
    }
}

/// Everything one seed derives.
pub(super) struct Scenario {
    pub(super) spec: TaskSpec,
    pub(super) traces: Vec<Vec<f64>>,
    /// Each agent's hosted range.
    pub(super) split: Vec<std::ops::Range<u32>>,
    pub(super) storm: Option<(u64, f64)>,
    /// Each agent's cut reads.
    pub(super) cuts: Vec<Vec<u64>>,
    pub(super) chunks: Vec<usize>,
    /// The agent whose link is cut right after its first rewind.
    pub(super) cut_on_rewind: Option<usize>,
    /// The pause before each tick (zero: back to back).
    pub(super) interval: Duration,
}

impl Scenario {
    fn of(seed: u64) -> Scenario {
        let pick = |k: u64, n: u64| splitmix64(seed ^ splitmix64(k)) % n;
        let monitors = 2 + pick(0, 11) as u32;
        let ticks = 40 + pick(1, 110) as usize;
        let spec = TaskSpec::builder(60.0 * f64::from(monitors))
            .monitors(monitors as usize)
            .error_allowance([0.0, 0.01, 0.02, 0.05][pick(2, 4) as usize])
            .max_interval([4, 8, 16][pick(3, 3) as usize])
            .patience(5)
            .warmup_samples(3)
            .build()
            .expect("valid spec");
        let period = 15 + pick(4, 40) as usize;
        let traces = (0..monitors as u64)
            .map(|m| {
                let noise = |t: usize| {
                    (splitmix64(seed ^ splitmix64(100 + m) ^ t as u64) % 1000) as f64 / 100.0
                };
                let base = 20.0 + 4.0 * m as f64;
                let surge = |t: usize| (t + 1) % period < 2 && t > 0;
                (0..ticks)
                    .map(|t| base + noise(t) + if surge(t) { 60.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let agents = 1 + pick(5, u64::from(monitors.min(4))) as u32;
        let mut ends: Vec<u32> = (1..agents)
            .map(|a| 1 + pick(10 + u64::from(a), u64::from(monitors - 1)) as u32)
            .collect();
        ends.push(monitors);
        ends.sort_unstable();
        ends.dedup();
        let split = (0..ends.len())
            .map(|a| a.checked_sub(1).map_or(0, |p| ends[p])..ends[a])
            .collect::<Vec<_>>();
        let faults = pick(6, 4);
        let storm = (faults & 1 == 1).then(|| {
            let every = 5 + pick(7, 26);
            (every, [0.25, 0.5, 1.0][pick(8, 3) as usize])
        });
        let cuts = (0..split.len() as u64)
            .map(|a| {
                let count = if faults & 2 == 2 { pick(20 + a, 3) } else { 0 };
                let reads = 3 * ticks as u64;
                (0..count)
                    .map(|c| 1 + pick(30 + 4 * a + c, reads))
                    .collect()
            })
            .collect();
        let chunks = (0..split.len() as u64)
            .map(|a| [5, 61, 700, 16 * 1024, 16 * 1024][pick(40 + a, 5) as usize])
            .collect();
        Scenario {
            spec,
            traces,
            split,
            storm,
            cuts,
            chunks,
            cut_on_rewind: None,
            interval: Duration::ZERO,
        }
    }

    /// The paced arm: this task and split, fault-free, under a tick
    /// interval — so every tick is a grant of its own, a window of one,
    /// and no poll carries a window.
    pub(super) fn paced(self) -> Scenario {
        Scenario {
            storm: None,
            cuts: vec![Vec::new(); self.split.len()],
            cut_on_rewind: None,
            interval: Duration::from_millis(1),
            ..self
        }
    }

    /// The window arm: six monitors, two to each of three agents, every
    /// one sampling every tick at 10 against a local threshold of 60, and
    /// 100s planted where a window of eight meets them — with no other
    /// poll, windows run `[0, 8)` `[1, 9)` `[9, 17)` `[10, 18)`
    /// `[18, 26)` …:
    ///
    /// - tick 0, monitor 0: a window's first tick;
    /// - tick 8, monitor 2: a window's last;
    /// - tick 9, monitor 4: the first tick of the next;
    /// - tick 17, monitors 1 and 5: two agents in the last tick;
    /// - tick 21, monitor 2: agents 0 and 2 step on to 25 and rewind;
    /// - tick 30, every monitor: a global violation, an alert.
    ///
    /// `faults` adds a storm every 13 ticks and cuts agent 0's link right
    /// after its first rewind.
    fn windows(faults: bool) -> Scenario {
        let spec = TaskSpec::builder(360.0)
            .monitors(6)
            .error_allowance(0.01)
            .max_interval(1)
            .build()
            .expect("valid spec");
        let planted: [(usize, &[usize]); 6] = [
            (0, &[0]),
            (8, &[2]),
            (9, &[4]),
            (17, &[1, 5]),
            (21, &[2]),
            (30, &[0, 1, 2, 3, 4, 5]),
        ];
        let mut traces = vec![vec![10.0; 48]; 6];
        for (tick, monitors) in planted {
            for &monitor in monitors {
                traces[monitor][tick] = 100.0;
            }
        }
        Scenario {
            spec,
            traces,
            split: vec![0..2, 2..4, 4..6],
            storm: faults.then_some((13, 0.5)),
            cuts: vec![Vec::new(); 3],
            chunks: vec![61, 16 * 1024, 700],
            cut_on_rewind: faults.then_some(0),
            interval: Duration::ZERO,
        }
    }

    /// A carry arm: six monitors, two to each of three agents, over
    /// `ticks` ticks. Monitors 0 to 3 run hot (57 to 59 against a local
    /// threshold of 60), so they sample every tick; monitors 4 and 5 run
    /// calm (10 to 12), so once warm they sample every fourth tick, and
    /// a poll forces their samples while agent 2 steps on to its
    /// window's end. 100s are planted at `planted` (tick, monitors). The
    /// seed picks the noise and the chunk sizes; with `cut`, the world
    /// cuts agent 2's link right after the read that rewound it — as the
    /// first poll reaches it.
    fn carry(seed: u64, ticks: usize, planted: &[(usize, &[usize])], cut: bool) -> Scenario {
        let pick = |k: u64, n: u64| splitmix64(seed ^ splitmix64(k)) % n;
        let spec = TaskSpec::builder(360.0)
            .monitors(6)
            .error_allowance(0.01)
            .max_interval(4)
            .patience(1)
            .warmup_samples(3)
            .build()
            .expect("valid spec");
        let mut traces: Vec<Vec<f64>> = (0..6u64)
            .map(|m| {
                let base = if m < 4 { 57.0 } else { 10.0 };
                let noise = |t: u64| pick(100 + (m << 16 | t), 201) as f64 / 100.0;
                (0..ticks as u64).map(|t| base + noise(t)).collect()
            })
            .collect();
        for &(tick, monitors) in planted {
            for &monitor in monitors {
                traces[monitor][tick] = 100.0;
            }
        }
        let chunks = (0..3).map(|a| [5, 61, 700, 16 * 1024][pick(a, 4) as usize]);
        Scenario {
            spec,
            traces,
            split: vec![0..2, 2..4, 4..6],
            storm: None,
            cuts: vec![Vec::new(); 3],
            chunks: chunks.collect(),
            cut_on_rewind: cut.then_some(2),
            interval: Duration::ZERO,
        }
    }

    /// Every carry arm under `seed`: what each plants, and its scenario.
    fn carry_arms(seed: u64) -> [(&'static str, Scenario); 4] {
        const ALL: &[usize] = &[0, 1, 2, 3, 4, 5];
        [
            // Windows [0, 8) [8, 16) [16, 24): the poll at 18 carries
            // [19, 27), inside which the polls at 21 and 23 rewind agent
            // 2 twice — the second time to the state the first left.
            (
                "two polls inside one carried window",
                Self::carry(
                    seed,
                    48,
                    &[(18, &[0]), (21, &[2]), (23, &[0]), (40, ALL)],
                    false,
                ),
            ),
            // Polls on the last tick of [0, 8) and of the [8, 16) it
            // carries: each carries the next window in full; the poll at
            // 17 carries one that holds most of its values.
            (
                "polls on a window's last tick",
                Self::carry(
                    seed,
                    48,
                    &[(7, &[1]), (15, &[3]), (17, &[0]), (40, ALL)],
                    false,
                ),
            ),
            // The first reallocation is due at tick 1 000: the poll at
            // 995 carries a window that ends there, and the poll at 1 000
            // carries none — its close gathers the period reports first.
            (
                "a poll on a reallocation tick",
                Self::carry(
                    seed,
                    1_016,
                    &[(995, &[2]), (1_000, &[0]), (1_014, ALL)],
                    false,
                ),
            ),
            // Agent 2's link is cut as the poll at 18 reaches it: it
            // re-dials and gets every value of its next window.
            (
                "a re-dial in a poll phase",
                Self::carry(seed, 48, &[(18, &[0]), (21, &[2]), (40, ALL)], true),
            ),
        ]
    }

    fn faulty(&self) -> bool {
        self.storm.is_some()
            || self.cuts.iter().any(|cuts| !cuts.is_empty())
            || self.cut_on_rewind.is_some()
    }

    /// Runs the scenario: the outcome, each agent's report, in order, the
    /// monitors the agents rewound and the bytes they wrote and read —
    /// each allocation of the plane and of every agent charged to its
    /// [`Account`].
    pub(super) fn run(&self, seed: u64, watch: &[Tick]) -> Result<Ran, String> {
        // One listener path per run, of one length: sweeps may run at
        // once, and the plane's heap must not depend on how many runs
        // came before.
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let name = format!("volley-sweep-{:07}-{run:08}.sock", std::process::id());
        let addr = NetAddr::Unix(std::env::temp_dir().join(name));
        let bind = || NetCoordinator::bind(self.spec.clone(), &addr);
        let coordinator = charged(Account::Plane, bind).map_err(|e| format!("bind: {e}"))?;
        let mut coordinator = coordinator.with_tick_interval(self.interval);
        if let Some((every, fraction)) = self.storm {
            coordinator =
                coordinator.with_faults(NetFaultPlan::new(seed).with_storm(every, fraction));
        }
        let start = Instant::now();
        let agents = self.split.iter().enumerate().map(|(a, hosted)| {
            let config = AgentConfig {
                agent: a as u32,
                addr: addr.clone(),
                spec: self.spec.clone(),
                monitors: hosted.clone(),
                transport: TransportConfig::default(),
                backoff: BackoffConfig::default(),
            };
            let machine = charged(Account::Agent(a), || AgentMachine::new(&config));
            Agent {
                machine: machine.expect("a valid range"),
                socket: None,
                out: Vec::new(),
                dial_at: Some(start),
                done: None,
                chunk: self.chunks[a],
                reads: 0,
                cuts: self.cuts[a].clone(),
                cut_on_rewind: self.cut_on_rewind == Some(a),
                bytes: [0; 2],
                writes: 0,
            }
        });
        let agents = agents.collect();
        let world = Arc::new(Mutex::new(World {
            now: start,
            addr,
            agents,
            buf: vec![0u8; 16 * 1024],
        }));
        let mut clock = VirtualClock(Arc::clone(&world));
        coordinator.plane.clock = Box::new(clock.clone());
        let monitors = self.traces.len();
        let watching = watch.iter().map(|&tick| (tick, vec![None; monitors]));
        WATCHED.set(watching.collect());
        let outcome = charged(Account::Plane, || coordinator.run(&self.traces))
            .map_err(|e| format!("run: {e}"))?;
        // Agents still out there outlive the coordinator: a dial that
        // fails until the budget is spent ends each.
        let far = start + Duration::from_secs(1 << 20);
        while world
            .lock()
            .expect("world")
            .agents
            .iter()
            .any(|a| a.done.is_none())
        {
            clock.wait_until(far, None);
        }
        let mut world = world.lock().expect("world");
        let machines = world.agents.iter().map(|a| &a.machine);
        let rewinds = machines.clone().map(|machine| machine.rewinds).sum();
        let resent = machines.clone().map(|machine| machine.resent).sum();
        let states = machines.flat_map(AgentMachine::states).collect();
        let watched = WATCHED.take();
        let writes = world.agents.iter().map(|a| a.writes).sum();
        let bytes = world.agents.iter().fold([0; 2], |[wrote, read], agent| {
            [wrote + agent.bytes[0], read + agent.bytes[1]]
        });
        let reports = world.agents.iter_mut().enumerate().map(|(a, agent)| {
            match agent.done.take().expect("settled") {
                Ok(report) => Ok(report),
                Err(err) => Err(format!("agent {a}: {err}")),
            }
        });
        let agents = reports.collect::<Result<_, _>>()?;
        Ok(Ran {
            outcome,
            agents,
            rewinds,
            resent,
            states,
            watched,
            writes,
            bytes,
        })
    }
}

/// What a scenario's run did.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Ran {
    pub(super) outcome: NetRunOutcome,
    /// Each agent's report, in order.
    pub(super) agents: Vec<AgentReport>,
    /// Monitors the agents rewound.
    pub(super) rewinds: u64,
    /// Values a window line carried that one before it had carried on
    /// the same connection.
    pub(super) resent: u64,
    /// Every hosted monitor's final sampler state, in id order.
    pub(super) states: Vec<SamplerSnapshot>,
    /// Every hosted monitor's sampler state as each watched tick's data
    /// reached it.
    pub(super) watched: Watched,
    /// Sends the agents made.
    pub(super) writes: u64,
    /// Bytes the agents wrote and read: the wire, in and out.
    pub(super) bytes: [u64; 2],
}

/// One seed, its own scenario, its paced arm and every carry arm: every
/// tick runs and every agent returns `Ok`; a fault-free run is
/// `TaskRunner`'s report bit for bit, its agents' samplers end where the
/// in-process monitors' do and took exactly the samples it counts; a run
/// with no degraded poll alerts only on ground-truth violations; a rerun
/// is identical. The paced arm grants each tick alone: a round trip per
/// tick and per poll. A carry arm's planted global violations alert,
/// faults or not.
fn sweep_seed(seed: u64) -> Result<(), String> {
    check(&Scenario::of(seed), seed)?;
    let paced = check(&Scenario::of(seed).paced(), seed).map_err(|e| format!("paced: {e}"))?;
    let (report, net) = (&paced.outcome.report, &paced.outcome.net);
    if net.round_trips != report.ticks + report.polls {
        return Err(format!(
            "paced: {} round trips over {} ticks and {} polls",
            net.round_trips, report.ticks, report.polls
        ));
    }
    for (arm, scenario) in Scenario::carry_arms(seed) {
        let ran = check(&scenario, seed).map_err(|e| format!("{arm}: {e}"))?;
        let traces = &scenario.traces;
        let everywhere = |t: &usize| traces.iter().all(|trace| trace[*t] == 100.0);
        let alerts = &ran.outcome.report.alert_ticks;
        if let Some(t) = (0..traces[0].len())
            .filter(everywhere)
            .find(|&t| !alerts.contains(&(t as u64)))
        {
            return Err(format!(
                "{arm}: the global violation planted at {t} went unseen"
            ));
        }
    }
    Ok(())
}

/// [`sweep_seed`]'s checks of `scenario` under `seed`; what its run did.
fn check(scenario: &Scenario, seed: u64) -> Result<Ran, String> {
    let in_process = |e: VolleyError| format!("in-process run: {e}");
    let runner = TaskRunner::new(&scenario.spec).map_err(in_process)?;
    let inline = match scenario.faulty() {
        false => Some(inline_states(&runner, &scenario.traces).map_err(in_process)?),
        true => None,
    };
    let watch: Vec<Tick> = inline
        .iter()
        .flat_map(|(_, w)| w.iter().map(|(t, _)| *t))
        .collect();
    let ran = scenario.run(seed, &watch)?;
    let report = &ran.outcome.report;
    if report.ticks != scenario.traces[0].len() as u64 {
        return Err(format!("{} ticks ran", report.ticks));
    }
    if let Some((states, watched)) = &inline {
        let baseline = runner.run(&scenario.traces).map_err(in_process)?;
        if *report != baseline {
            return Err(format!("{report:?} != in-process {baseline:?}"));
        }
        let at_end = (0..)
            .zip(&ran.states)
            .zip(states)
            .find(|((_, a), b)| a != b);
        if let Some(((monitor, agent), local)) = at_end {
            return Err(format!(
                "monitor {monitor} ends at {agent:?}, in process at {local:?}"
            ));
        }
        for ((tick, agents), (_, locals)) in ran.watched.iter().zip(watched) {
            let differs = (0..).zip(agents).zip(locals).find(|((_, a), b)| a != b);
            if let Some(((monitor, agent), local)) = differs {
                return Err(format!(
                    "monitor {monitor} met tick {tick}'s data at {agent:?}, in process at {local:?}"
                ));
            }
        }
        let samples: u64 = ran.states.iter().map(|state| state.total_samples).sum();
        if samples != report.total_samples {
            return Err(format!(
                "the agents sampled {samples} times, not {report:?}"
            ));
        }
    }
    if let Some((every, fraction)) = scenario
        .storm
        .filter(|_| scenario.cuts.iter().all(Vec::is_empty))
    {
        // Every storm tick's kick ran: no window went out ahead of one.
        let storms = NetFaultPlan::new(seed).with_storm(every, fraction);
        let ticks = 0..report.ticks;
        let agents = 0..scenario.split.len() as u32;
        let victims = ticks.flat_map(|t| agents.clone().filter(move |&a| storms.severs(t, a)));
        let expected = victims.count() as u64;
        if ran.outcome.net.kicked != expected {
            return Err(format!(
                "{} kicks, {expected} storm victims",
                ran.outcome.net.kicked
            ));
        }
    }
    if report.degraded_polls == 0 {
        let global = scenario.spec.global_threshold();
        let truth = GroundTruth::from_aggregate_traces(&scenario.traces, global);
        let violations = truth.violation_ticks();
        if let Some(tick) = report.alert_ticks.iter().find(|t| !violations.contains(t)) {
            return Err(format!("alert at {tick} without a violation"));
        }
    }
    if scenario.run(seed, &watch)? != ran {
        return Err("the rerun differs".into());
    }
    Ok(ran)
}

/// Sweeps `seeds`, failing with a one-line `seed=<n>` repro at the first
/// seed that breaks.
fn sweep(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        if let Err(what) = sweep_seed(seed) {
            panic!("seed={seed}: {what}");
        }
    }
}

#[test]
fn the_socket_plane_under_a_virtual_clock_holds_across_64_seeds() {
    sweep(0..64);
}

#[test]
#[ignore = "≈ 500 seeds; run in release with --ignored"]
fn the_socket_plane_under_a_virtual_clock_holds_across_500_seeds() {
    sweep(0..500);
}

/// The window arm, fault-free: every planted local violation polls at
/// its tick — on a window's first and last tick, on two agents at once —
/// the agents that stepped past tick 21 rewind to it, and the report is
/// the in-process runner's bit for bit.
#[test]
fn planted_violations_poll_at_their_ticks_and_rewind_the_agents_ahead() {
    let ran = check(&Scenario::windows(false), 7).unwrap_or_else(|e| panic!("{e}"));
    let (report, rewinds) = (&ran.outcome.report, ran.rewinds);
    assert_eq!(report.polls, 6, "one poll per planted tick");
    assert_eq!(report.alert_ticks, [30]);
    assert!(rewinds >= 4, "agents 0 and 2 rewound to tick 21: {rewinds}");
    assert_eq!(report.missed_tick_reports, 0);
}

/// The window arm under a storm every 13 ticks, with agent 0's link cut
/// right after its first rewind — the poll's reply lost: every tick
/// still runs, every agent ends, the rerun is identical, and the planted
/// global violation still alerts.
#[test]
fn a_link_cut_in_mid_rewind_under_storms_loses_no_planted_alert() {
    let Ran {
        outcome, rewinds, ..
    } = check(&Scenario::windows(true), 11).unwrap_or_else(|e| panic!("{e}"));
    assert!(rewinds > 0);
    assert!(
        outcome.report.alert_ticks.contains(&30),
        "{:?}",
        outcome.report
    );
    assert!(outcome.net.kicked > 0, "the storms kicked");
    let net = &outcome.net;
    assert_eq!(net.reconnects, net.kicked + 1, "the storms' and the cut's");
    assert_eq!(
        outcome.report.degraded_polls, 1,
        "the poll the cut answered"
    );
}

/// The seeds a 6 000-seed sweep once failed, all one way: the world cut
/// an agent's link on the read carrying the coordinator's last Shutdown,
/// and the coordinator — its last connection closed — left, so the
/// agent re-dialled a listener that was gone until its budget ran out.
/// The drain now waits for every claimed monitor's goodbye instead.
#[test]
fn a_link_cut_on_the_last_shutdown_strands_no_agent() {
    for seed in [1046, 1558, 2982, 4303] {
        sweep(seed..seed + 1);
    }
}

/// The drift guard for the clock seam: outside the wall clock's own
/// impl, no non-test code under `src/net` reads the time or sleeps — so
/// the sweep's virtual clock sees every wait the plane and the agent
/// make.
#[test]
fn the_net_module_reads_time_and_waits_only_through_its_clock() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/net");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("readable src/net") {
        let path = entry.expect("dir entry").path();
        if path.ends_with("sweep.rs") {
            continue; // test-only, like every `#[cfg(test)]` tail
        }
        let text = std::fs::read_to_string(&path).expect("readable source");
        let mut code = text[..text.find("#[cfg(test)]").unwrap_or(text.len())].to_string();
        if let Some(at) = code.find("impl Clock for WallClock") {
            let end = at + code[at..].find("\n}\n").expect("the impl closes");
            code.replace_range(at..end, "");
        }
        for read in ["Instant::now()", "sleep("] {
            assert!(!code.contains(read), "{}: {read}", path.display());
        }
        files += 1;
    }
    assert!(files >= 6, "{files} files scanned");
}
