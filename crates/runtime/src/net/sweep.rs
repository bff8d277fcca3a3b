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
//! bytes.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use volley_core::task::TaskSpec;
use volley_core::{GroundTruth, VolleyError};

use super::agent::AgentMachine;
use super::faults::mix;
use super::server::Socket;
use super::{
    AgentConfig, AgentReport, BackoffConfig, Clock, NetAddr, NetCoordinator, NetFaultPlan,
    NetRunOutcome,
};
use crate::runner::TaskRunner;
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
        for agent in agents.iter_mut() {
            moved |= agent.step(*now, addr, buf);
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
struct Scenario {
    spec: TaskSpec,
    traces: Vec<Vec<f64>>,
    /// Each agent's hosted range.
    split: Vec<std::ops::Range<u32>>,
    storm: Option<(u64, f64)>,
    /// Each agent's cut reads.
    cuts: Vec<Vec<u64>>,
    chunks: Vec<usize>,
}

impl Scenario {
    fn of(seed: u64) -> Scenario {
        let pick = |k: u64, n: u64| mix(seed ^ mix(k)) % n;
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
                let noise = |t: usize| (mix(seed ^ mix(100 + m) ^ t as u64) % 1000) as f64 / 100.0;
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
        }
    }

    fn faulty(&self) -> bool {
        self.storm.is_some() || self.cuts.iter().any(|cuts| !cuts.is_empty())
    }

    /// Runs the scenario: the outcome and each agent's report, in order.
    fn run(&self, seed: u64) -> Result<(NetRunOutcome, Vec<AgentReport>), String> {
        // One listener path per run: sweeps that share seeds may run at once.
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let name = format!("volley-sweep-{}-{seed}-{run}.sock", std::process::id());
        let addr = NetAddr::Unix(std::env::temp_dir().join(name));
        let mut coordinator =
            NetCoordinator::bind(self.spec.clone(), &addr).map_err(|e| format!("bind: {e}"))?;
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
            Agent {
                machine: AgentMachine::new(&config).expect("a valid range"),
                socket: None,
                out: Vec::new(),
                dial_at: Some(start),
                done: None,
                chunk: self.chunks[a],
                reads: 0,
                cuts: self.cuts[a].clone(),
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
        let outcome = coordinator
            .run(&self.traces)
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
        let reports = world.agents.iter_mut().enumerate().map(|(a, agent)| {
            match agent.done.take().expect("settled") {
                Ok(report) => Ok(report),
                Err(err) => Err(format!("agent {a}: {err}")),
            }
        });
        Ok((outcome, reports.collect::<Result<_, _>>()?))
    }
}

/// One seed: every tick runs and every agent returns `Ok`; a fault-free
/// run is `TaskRunner`'s report bit for bit; a run with no degraded
/// poll alerts only on ground-truth violations; a rerun is identical.
fn sweep_seed(seed: u64) -> Result<(), String> {
    let scenario = Scenario::of(seed);
    let (outcome, agents) = scenario.run(seed)?;
    let report = &outcome.report;
    if report.ticks != scenario.traces[0].len() as u64 {
        return Err(format!("{} ticks ran", report.ticks));
    }
    if !scenario.faulty() {
        let baseline = TaskRunner::new(&scenario.spec)
            .and_then(|runner| runner.run(&scenario.traces))
            .map_err(|e| format!("in-process run: {e}"))?;
        if *report != baseline {
            return Err(format!("{report:?} != in-process {baseline:?}"));
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
    if scenario.run(seed)? != (outcome, agents) {
        return Err("the rerun differs".into());
    }
    Ok(())
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
