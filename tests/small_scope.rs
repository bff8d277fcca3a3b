//! Small-scope exhaustive checking of the §IV coordinator machine.
//!
//! [`CoordinatorActor`] reads no clock and no fault plan: its only
//! inputs are frames, deadlines and refusals. So this explorer plays the
//! link itself and enumerates *every* short interleaving of a small
//! fleet of real [`MonitorActor`]s around the production machine,
//! stepped as the task session's pump steps it: send the tick's data,
//! execute the outbox, hand each batch of replies to `on_frames`, and
//! report `on_deadline` when a batch is empty.
//!
//! The choices, made depth-first:
//!
//! - each monitor's value per tick is below or above its `T_i`;
//! - each reply is delivered, lost, duplicated, or delayed by one
//!   batch;
//! - each request (poll, period report, snapshot) may be refused by its
//!   link, which the machine hears through `on_undeliverable`;
//! - in the crash scope, the primary may crash once, after a tick's
//!   reports left the monitors: its replies in flight die with it, and
//!   a successor built as the session builds one
//!   ([`CoordinatorActor::take_over`], at epoch 1 behind that tick, from
//!   the last snapshot the primary emitted) fences the fleet, re-drives
//!   the tick and is offered the old epoch's delayed frames;
//! - in a restart scope, a quarantined monitor may be restarted as the
//!   session's supervisor restarts one: a fresh actor at the even
//!   allowance share, and a `Revived` notice to the machine.
//!
//! Every scope's allocator moves a quantum at every round it runs, so
//! the ledger is skewed from the first round on. The tier-1 scope is
//! 2 monitors × 2 ticks with restarts; the CI scopes are 2 × 3 with
//! restarts and a failover, and 2 × 3 with restarts and a round at every
//! tick (which would catch a restarted monitor left at the even share).
//!
//! Whatever the machine leaves pending between two ticks — the fence,
//! the ledger entry a restarted monitor is re-admitted at — is sent
//! before the next tick's data, as the session sends it.
//!
//! Before each batch is handed over, the world is hashed canonically —
//! machine, actors, frames in flight and the explorer's expectations,
//! with monotone counters and dead per-phase answers stripped — and a
//! state reached before is not explored again. A new one is
//! checkpointed (the two actors are `Clone`), so the search branches
//! from the deepest checkpoint instead of replaying from tick 0.
//!
//! Checked after every step; a violation panics with the failing choice
//! sequence told step by step and printed as a ready-to-paste `#[test]`:
//!
//! - Σ of the ledger's allowances ≤ `err`, and every monitor holds the
//!   allowance the machine last sent it, which is the ledger's;
//! - `on_deadline` always moves the machine (some output follows);
//! - exactly one `Summary` per tick, for that tick;
//! - `polled` iff a violating `TickDone` of this tick reached the open
//!   report phase;
//! - `alerted` (and `degraded`) as a reference `Coordinator::poll` over
//!   the admitted poll replies says, with `T_i` for the missing ones;
//! - `Recovered` iff a quarantined monitor's own report of the tick was
//!   admitted, `Quarantined` iff an active one's was not;
//! - no frame from an older epoch is admitted: every one is counted
//!   stale, and none moves the tick's counts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use volley::core::allocation::AllocationConfig;
use volley::core::coordinator::{CoordinationScheme, Coordinator};
use volley::core::task::{MonitorId, TaskSpec};
use volley::core::time::Tick;
use volley::core::AdaptiveSampler;
use volley::runtime::checkpoint::CoordinatorSnapshot;
use volley::runtime::coordinator::{CoordinatorActor, MonitorRun, Output};
use volley::runtime::message::{
    ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickData, TickSummary,
};
use volley::runtime::MonitorActor;

/// The global threshold; every monitor's `T_i` is its even share.
const THRESHOLD: f64 = 100.0;
/// The task's error allowance.
const ERR: f64 = 0.02;
/// The snapshot cadence: the machine snapshots at ticks 0 and 2.
const CHECKPOINT_EVERY: u64 = 2;

/// How much of the machine's behaviour one exploration covers.
#[derive(Debug, Clone, Copy)]
struct Scope {
    monitors: usize,
    ticks: u64,
    /// Whether the primary may crash (once) and fail over.
    crash: bool,
    /// Whether a supervisor may restart a quarantined monitor.
    restart: bool,
    /// The §IV-B updating period: at 2 the machine reallocates at tick 2,
    /// so a scope of 3 ticks covers every phase; at 1 it reallocates at
    /// every tick from tick 1 on, so a round can move allowance before a
    /// monitor is quarantined and restarted.
    period: u64,
}

/// What the link does with one reply.
const FATES: [&str; 4] = ["deliver", "lose", "duplicate", "delay"];

/// The current choice sequence: replayed up to its last entry, then
/// extended with first choices.
#[derive(Default)]
struct Chooser {
    /// `(chosen, arity)` per choice point of the current path.
    path: Vec<(usize, usize)>,
    at: usize,
    /// What each choice made was, when asked to tell.
    told: Option<Vec<String>>,
}

impl Chooser {
    /// A chooser replaying `choices`, telling what each one is if
    /// asked to.
    fn replaying(choices: &[usize], telling: bool) -> Self {
        Chooser {
            path: choices.iter().map(|&c| (c, usize::MAX)).collect(),
            at: 0,
            told: telling.then(Vec::new),
        }
    }

    /// One of `arity` options, described by `what(choice)`.
    fn pick(&mut self, arity: usize, what: impl Fn(usize) -> String) -> usize {
        if self.at == self.path.len() {
            self.path.push((0, arity));
        }
        let entry = &mut self.path[self.at];
        assert!(
            entry.0 < arity,
            "choice {} is past {arity} options",
            entry.0
        );
        entry.1 = arity;
        if let Some(told) = self.told.as_mut() {
            told.push(format!("{}: {}", entry.0, what(entry.0)));
        }
        self.at += 1;
        entry.0
    }

    /// The choices made so far.
    fn made(&self) -> Vec<usize> {
        self.path[..self.at].iter().map(|c| c.0).collect()
    }

    /// Moves to the next path in depth-first order; `false` when none
    /// is left.
    fn advance(&mut self) -> bool {
        self.path.truncate(self.at);
        while let Some((chosen, arity)) = self.path.last_mut() {
            if *chosen + 1 < *arity {
                *chosen += 1;
                return true;
            }
            self.path.pop();
        }
        false
    }
}

/// The collection phase the machine's outputs so far imply.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Reports,
    Poll,
    After,
}

/// What the explorer expects of the round open for one tick, built
/// from what it fed the machine. What a closed phase leaves behind is
/// checked and folded into its verdict as soon as the phase is seen to
/// close, so that paths which differ only in how they reached a
/// verdict merge.
#[derive(Debug, Clone)]
struct Round {
    tick: Tick,
    phase: Phase,
    /// Per monitor, while the report phase is open: its report of this
    /// tick was admitted, it was quarantined when the tick began, it
    /// recovered.
    reported: Vec<bool>,
    quarantined: Vec<bool>,
    recovered: Vec<bool>,
    /// The report phase's verdict: reports missing, violations admitted.
    missing: Option<u32>,
    violations: u32,
    /// Poll replies admitted while the poll is open, then its verdict:
    /// `(alerted, degraded)` by the reference rules.
    values: Vec<Option<f64>>,
    poll: Option<(bool, bool)>,
    stale: u32,
}

/// The machine, its monitors and the link between them: everything a
/// path can change.
#[derive(Debug, Clone)]
struct Fleet {
    machine: CoordinatorActor,
    actors: Vec<MonitorActor>,
    epoch: u64,
    /// The next batch, and the batch after it.
    in_flight: Vec<MonitorFrame>,
    delayed: Vec<MonitorFrame>,
    /// Per monitor, as the machine's outputs say.
    quarantined: Vec<bool>,
    /// Per monitor, the allowance the machine last sent it.
    sent: Vec<f64>,
    crashed: bool,
    /// The last snapshot the primary emitted, while it may still crash.
    snapshot: Option<CoordinatorSnapshot>,
}

/// Where a run stands between two steps: before a tick opens, or
/// before a batch is handed to the machine in the round open.
#[derive(Debug, Clone)]
enum Resume {
    Open(Tick),
    Close(Round),
}

/// A new state on the current path, to branch from again.
struct Checkpoint {
    /// Choices made on the way to it.
    at: usize,
    fleet: Fleet,
    resume: Resume,
}

/// One run: a fleet under the explorer's choices.
struct World<'a> {
    scope: Scope,
    spec: &'a TaskSpec,
    chooser: &'a mut Chooser,
    /// The canonical states reached so far, and the new ones of this
    /// run with the choices made on the way to them.
    seen: &'a mut HashSet<u64>,
    checkpoints: &'a mut Vec<Checkpoint>,
    fleet: Fleet,
}

fn spec(monitors: usize) -> TaskSpec {
    TaskSpec::builder(THRESHOLD)
        .monitors(monitors)
        .error_allowance(ERR)
        .build()
        .expect("valid spec")
}

fn rules(spec: &TaskSpec, period: u64) -> Coordinator {
    let allocation = AllocationConfig {
        update_period_ticks: period,
        // Every round moves a quantum, even between equal yields, so the
        // ledger check sees a skewed split.
        uniform_skip_ratio: 1.0,
        ..AllocationConfig::default()
    };
    Coordinator::new(spec, CoordinationScheme::Adaptive, allocation).expect("rules")
}

/// A coordinator incarnation as the explorer configures it.
fn machine(machine: CoordinatorActor) -> CoordinatorActor {
    machine
        .with_quarantine_after(1)
        .with_checkpoint(CHECKPOINT_EVERY)
}

/// Monitor `idx` as the session starts (and restarts) one: a fresh
/// sampler at the even allowance share.
fn actor(spec: &TaskSpec, idx: usize, epoch: u64) -> MonitorActor {
    let m = &spec.monitors()[idx];
    let mut sampler = AdaptiveSampler::new(*spec.adaptation(), m.local_threshold);
    sampler.set_error_allowance(ERR / spec.monitors().len() as f64);
    MonitorActor::new(m.id, sampler).with_epoch(epoch)
}

/// The fleet before tick 0: every monitor at the even allowance share.
fn fleet(scope: Scope, spec: &TaskSpec) -> Fleet {
    let n = spec.monitors().len();
    Fleet {
        machine: machine(CoordinatorActor::new(rules(spec, scope.period), None)),
        actors: (0..n).map(|idx| actor(spec, idx, 0)).collect(),
        epoch: 0,
        in_flight: Vec::new(),
        delayed: Vec::new(),
        quarantined: vec![false; n],
        sent: vec![ERR / n as f64; n],
        crashed: false,
        snapshot: None,
    }
}

fn stamp(epoch: u64, msg: CoordinatorToMonitor) -> ControlFrame {
    ControlFrame { epoch, msg }
}

/// Whether `msg` asks its monitor for a reply the machine awaits.
fn is_request(msg: &CoordinatorToMonitor) -> bool {
    matches!(
        msg,
        CoordinatorToMonitor::Poll { .. }
            | CoordinatorToMonitor::RequestReport
            | CoordinatorToMonitor::RequestSnapshot
    )
}

impl World<'_> {
    /// Hands `frame` to monitor `to`, and its reply to the link.
    fn deliver(&mut self, to: MonitorId, frame: ControlFrame) {
        let (reply, _) = self.fleet.actors[to.0 as usize].handle_frame(frame);
        let Some(reply) = reply else { return };
        let fate = self
            .chooser
            .pick(FATES.len(), |c| format!("{} {:?}", FATES[c], reply.msg));
        match fate {
            0 => self.fleet.in_flight.push(reply),
            1 => {}
            2 => self.fleet.in_flight.extend([reply.clone(), reply]),
            _ => self.fleet.delayed.push(reply),
        }
    }

    /// Sends the tick's data. To a primary about to crash, a reply
    /// either dies with it — however the link would have carried it —
    /// or is delayed past the crash.
    fn send_data(&mut self, tick: Tick, values: &[f64], doomed: bool) {
        for (idx, &value) in values.iter().enumerate() {
            let data = CoordinatorToMonitor::Tick(TickData { tick, value });
            let frame = stamp(self.fleet.epoch, data);
            if !doomed {
                self.deliver(MonitorId(idx as u32), frame);
                continue;
            }
            let (reply, _) = self.fleet.actors[idx].handle_frame(frame);
            let reply = reply.expect("a tick is answered");
            let delayed = self
                .chooser
                .pick(2, |c| format!("{} {:?}", ["lose", "delay"][c], reply.msg));
            if delayed == 1 {
                self.fleet.delayed.push(reply);
            }
        }
    }

    /// The primary dies with the tick's replies in flight; a successor
    /// at the next epoch, built from the last snapshot it emitted, fences
    /// the fleet.
    fn fail_over(&mut self, tick: Tick) {
        let fleet = &mut self.fleet;
        fleet.crashed = true;
        fleet.in_flight = std::mem::take(&mut fleet.delayed);
        fleet.epoch += 1;
        let snapshot = fleet.snapshot.take();
        let rules = rules(self.spec, self.scope.period);
        let successor = CoordinatorActor::take_over(rules, fleet.epoch, tick, snapshot.as_ref());
        fleet.machine = machine(successor);
        fleet.quarantined.fill(false);
        self.flush();
    }

    /// Whether the primary may still crash when `tick` or a later one
    /// opens.
    fn crash_ahead(&self, tick: Tick) -> bool {
        self.scope.crash && !self.fleet.crashed && tick < self.scope.ticks
    }

    /// Sends what the machine left pending between ticks, as the session
    /// does before a tick's data: sends only, none of them a request.
    fn flush(&mut self) {
        while let Some(output) = self.fleet.machine.pop_output() {
            let Output::Send { to, msg } = output else {
                panic!("pending between ticks: {output:?}");
            };
            assert!(!is_request(&msg), "a request between ticks: {msg:?}");
            self.send(to, msg);
        }
    }

    /// Sends `msg` to each monitor in `to`, a request possibly refused by
    /// the link.
    fn send(&mut self, to: MonitorRun, msg: CoordinatorToMonitor) {
        if let CoordinatorToMonitor::SetAllowance { err } = msg {
            for monitor in to.iter() {
                self.fleet.sent[monitor.0 as usize] = err;
            }
        }
        for monitor in to.iter() {
            let refused = is_request(&msg)
                && self.chooser.pick(2, |c| {
                    let link = ["takes", "refuses"][c];
                    format!("link of {monitor:?} {link} {msg:?}")
                }) == 1;
            if refused {
                self.fleet.machine.on_undeliverable(monitor);
            } else {
                self.deliver(monitor, stamp(self.fleet.epoch, msg));
            }
        }
    }

    /// Executes one output of the round; returns the summary if it is one.
    fn execute(&mut self, round: &mut Round, output: Output) -> Option<TickSummary> {
        // Only the report phase's own outputs, and the ledger entry a
        // restart re-admits a monitor at, leave the phase as it was.
        let keeps_phase = match &output {
            Output::Recovered { .. } | Output::ArmDeadline => true,
            Output::Send { msg, .. } => matches!(msg, CoordinatorToMonitor::SetAllowance { .. }),
            _ => false,
        };
        if !keeps_phase {
            round.phase = Phase::After;
        }
        match output {
            Output::Send { to, msg } => {
                if let CoordinatorToMonitor::Poll { .. } = msg {
                    round.phase = Phase::Poll;
                }
                self.send(to, msg);
            }
            Output::Quarantined { monitor, tick, .. } => {
                let idx = monitor.0 as usize;
                assert_eq!(tick, round.tick);
                assert!(round.missing.is_none(), "quarantined after the reports");
                assert!(
                    !self.fleet.quarantined[idx],
                    "{monitor:?} quarantined twice"
                );
                self.fleet.quarantined[idx] = true;
                if self.scope.restart
                    && self.chooser.pick(2, |c| {
                        format!("supervisor {} {monitor:?}", ["leaves", "restarts"][c])
                    }) == 1
                {
                    let epoch = self.fleet.epoch;
                    self.fleet.actors[idx] = actor(self.spec, idx, epoch);
                    let revived = MonitorToCoordinator::Revived { monitor };
                    self.fleet.machine.on_frame(MonitorFrame {
                        epoch,
                        msg: revived,
                    });
                }
            }
            Output::Snapshot(snapshot) => {
                if self.crash_ahead(round.tick + 1) {
                    self.fleet.snapshot = Some(snapshot);
                }
            }
            Output::Recovered { monitor, tick } => {
                let idx = monitor.0 as usize;
                assert_eq!(tick, round.tick);
                assert_eq!(round.phase, Phase::Reports, "recovered after the reports");
                assert!(!round.recovered[idx], "{monitor:?} recovered twice");
                round.recovered[idx] = true;
                self.fleet.quarantined[idx] = false;
            }
            Output::Summary(summary) => return Some(summary),
            Output::ArmDeadline | Output::GateFlipped | Output::Tick(_) => {}
        }
        None
    }

    /// Notes what the machine must make of `batch` before it is fed.
    fn account(&self, round: &mut Round, batch: &[MonitorFrame]) {
        for frame in batch {
            if frame.epoch < self.fleet.epoch {
                round.stale += 1;
                continue;
            }
            match frame.msg {
                MonitorToCoordinator::TickDone {
                    monitor,
                    tick,
                    violation,
                    ..
                } if tick == round.tick && round.phase == Phase::Reports => {
                    let idx = monitor.0 as usize;
                    if !std::mem::replace(&mut round.reported[idx], true) {
                        round.violations += u32::from(violation);
                    }
                }
                MonitorToCoordinator::PollReply {
                    monitor,
                    tick,
                    value,
                    ..
                } if tick == round.tick && round.phase == Phase::Poll => {
                    round.values[monitor.0 as usize].get_or_insert(value);
                }
                _ => {}
            }
        }
    }

    /// Opens `tick`: each monitor's value chosen below or above `T_i`,
    /// the data sent, and — once per run in the crash scope — the
    /// primary crashed and the tick re-driven by its successor.
    fn open(&mut self, tick: Tick) -> Round {
        let n = self.scope.monitors;
        let values: Vec<f64> = (0..n)
            .map(|idx| {
                let local = self.spec.monitors()[idx].local_threshold;
                let above = self.chooser.pick(2, |c| {
                    format!("monitor {idx} {} T_i at tick {tick}", ["below", "above"][c])
                });
                [0.5, 1.5][above] * local
            })
            .collect();
        if self.scope.crash
            && !self.fleet.crashed
            && self.chooser.pick(2, |c| {
                format!("primary {} at tick {tick}", ["lives", "crashes"][c])
            }) == 1
        {
            self.send_data(tick, &values, true);
            self.fail_over(tick);
        }
        if !self.crash_ahead(tick + 1) {
            // Dead state: no successor will be built from it.
            self.fleet.snapshot = None;
        }
        self.send_data(tick, &values, false);
        Round {
            tick,
            phase: Phase::Reports,
            reported: vec![false; n],
            quarantined: self.fleet.quarantined.clone(),
            recovered: vec![false; n],
            missing: None,
            violations: 0,
            values: vec![None; n],
            poll: None,
            stale: 0,
        }
    }

    /// Drives `round` to its summary and checks it; `false` when it
    /// reached a state already explored.
    fn close(&mut self, mut round: Round) -> bool {
        let tick = round.tick;
        let summary = 'pump: {
            for _ in 0..64 {
                if !self.arrive(|| Resume::Close(round.clone())) {
                    return false;
                }
                while let Some(output) = self.fleet.machine.pop_output() {
                    if let Some(summary) = self.execute(&mut round, output) {
                        break 'pump summary;
                    }
                }
                self.close_phases(&mut round);
                let batch = std::mem::take(&mut self.fleet.in_flight);
                self.fleet.in_flight = std::mem::take(&mut self.fleet.delayed);
                if batch.is_empty() {
                    self.fleet.machine.on_deadline();
                    let moved = self.fleet.machine.pop_output();
                    let moved = moved.expect("on_deadline moved nothing");
                    if let Some(summary) = self.execute(&mut round, moved) {
                        break 'pump summary;
                    }
                } else {
                    self.account(&mut round, &batch);
                    self.fleet.machine.on_frames(batch);
                }
            }
            panic!("tick {tick} never closed");
        };
        self.flush();
        self.check(&mut round, &summary);
        true
    }

    /// Drives the ticks from `resume` to the end of the scope; `false`
    /// when it reached a state already explored.
    fn drive(&mut self, mut resume: Resume) -> bool {
        loop {
            let round = match resume {
                Resume::Open(tick) if tick == self.scope.ticks => return true,
                Resume::Open(tick) => self.open(tick),
                Resume::Close(round) => round,
            };
            let next = round.tick + 1;
            if !self.close(round) || !self.arrive(|| Resume::Open(next)) {
                return false;
            }
            resume = Resume::Open(next);
        }
    }

    /// Checks the phases the machine's outputs show closed, and folds
    /// each into its verdict.
    fn close_phases(&mut self, round: &mut Round) {
        if round.phase != Phase::Reports && round.missing.is_none() {
            for idx in 0..self.scope.monitors {
                let (was, reported) = (round.quarantined[idx], round.reported[idx]);
                assert_eq!(round.recovered[idx], was && reported, "{idx} recovered");
                let quarantined = !was && self.fleet.quarantined[idx];
                assert_eq!(quarantined, !was && !reported, "{idx} quarantined");
            }
            let reported = round.reported.iter().filter(|&&r| r).count();
            round.missing = Some((self.scope.monitors - reported) as u32);
            for flags in [
                &mut round.reported,
                &mut round.quarantined,
                &mut round.recovered,
            ] {
                flags.fill(false);
            }
        }
        if round.phase == Phase::After && round.violations > 0 && round.poll.is_none() {
            let mut rules = rules(self.spec, self.scope.period);
            let outcome = rules.poll(round.tick, round.values.iter().copied());
            round.poll = Some((outcome.global_violation, outcome.degraded));
            round.values.fill(None);
        }
    }

    /// The tick's summary against what the explorer fed the machine,
    /// and the ledger against what the monitors hold.
    fn check(&mut self, round: &mut Round, summary: &TickSummary) {
        self.close_phases(round);
        assert_eq!(summary.tick, round.tick, "the summary is for another tick");
        assert_eq!(Some(summary.missing_reports), round.missing, "missing");
        assert_eq!(summary.local_violations, round.violations, "violations");
        assert_eq!(summary.stale_epoch_frames, round.stale, "stale frames");
        assert_eq!(summary.polled, round.violations > 0, "polled");
        match round.poll {
            Some((alerted, degraded)) => {
                assert_eq!(summary.alerted, alerted, "alerted");
                assert_eq!(summary.degraded, degraded, "degraded");
            }
            None => {
                assert!(!summary.alerted, "an alert without a poll");
                let quarantined = self.fleet.quarantined.contains(&true);
                let degraded = quarantined && summary.missing_reports > 0;
                assert_eq!(summary.degraded, degraded, "degraded");
            }
        }
        let ledger = self.fleet.machine.rules().allowances();
        let total = ledger.iter().sum::<f64>();
        assert!(total <= ERR + 1e-12, "Σ err_i > err: {ledger:?}");
        assert_eq!(self.fleet.sent, ledger, "the ledger is not what was sent");
        for (actor, &sent) in self.fleet.actors.iter().zip(&self.fleet.sent) {
            let held = actor.sampler().error_allowance();
            assert_eq!(held, sent, "{:?}", actor.id());
        }
    }

    /// Whether the world, standing at `resume`, is in a state not
    /// explored before; a new one is checkpointed. Until the current
    /// path's last choice is made, the run retraces the path it branched
    /// off, whose states are all known.
    fn arrive(&mut self, resume: impl FnOnce() -> Resume) -> bool {
        if self.chooser.at < self.chooser.path.len() {
            return true;
        }
        let resume = resume();
        if !self.seen.insert(canonical_state(&self.fleet, &resume)) {
            return false;
        }
        self.checkpoints.push(Checkpoint {
            at: self.chooser.at,
            fleet: self.fleet.clone(),
            resume,
        });
        true
    }
}

/// A hash of everything the rest of the run depends on. Monotone
/// counters and the per-round sample tallies, which nothing reads back,
/// are left out, and so are the machine's per-phase answers outside
/// their phase (`seen` and `values` are reset before they are read
/// again): they only ever tell paths apart.
fn canonical_state(fleet: &Fleet, resume: &Resume) -> u64 {
    let text = format!("{fleet:?} {resume:?}");
    let mut dead = vec![
        "global_polls",
        "alerts",
        "local_violation_reports",
        "allocation_rounds",
        "rounds",
        "reallocations",
        "total_samples",
        "stale_rejections",
        "suppressed_total",
        "scheduled_samples",
        "poll_samples",
        "suppressed_samples",
    ];
    let phase = match resume {
        Resume::Close(round) => round.phase,
        Resume::Open(_) => Phase::After,
    };
    if phase != Phase::Reports {
        dead.push("seen");
    }
    if phase != Phase::Poll {
        dead.push("values");
    }
    let mut hasher = DefaultHasher::new();
    without(&text, &dead).hash(&mut hasher);
    hasher.finish()
}

/// `text`, a `Debug` rendering, without the fields named in `dead` —
/// each `name: value` entry, a bracketed value included.
fn without(text: &str, dead: &[&str]) -> String {
    let mut kept = String::with_capacity(text.len());
    let mut from = 0;
    for (colon, _) in text.match_indices(": ") {
        if colon < from {
            continue; // inside a value already cut
        }
        let name_at = text[..colon].rfind([' ', '{', '(']).map_or(0, |at| at + 1);
        if !dead.contains(&&text[name_at..colon]) {
            continue;
        }
        let mut depth = 0i32;
        let value = &text[colon + 2..];
        let end = value
            .find(|c: char| {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
                depth < 0 || depth == 0 && c == ','
            })
            .unwrap_or(value.len());
        kept.push_str(&text[from..name_at]);
        from = colon + 2 + end;
    }
    kept.push_str(&text[from..]);
    kept
}

/// Counts of one exploration.
#[derive(Debug, Default)]
struct Explored {
    /// Paths run, each to the end of the scope or to a state reached
    /// before.
    paths: u64,
    /// Distinct canonical states reached.
    states: usize,
}

/// Runs `chooser`'s current path from `start` (tick 0 without one).
fn walk(
    scope: Scope,
    spec: &TaskSpec,
    chooser: &mut Chooser,
    seen: &mut HashSet<u64>,
    checkpoints: &mut Vec<Checkpoint>,
    start: Option<(Fleet, Resume)>,
) {
    let (fleet, resume) = start.unwrap_or_else(|| (self::fleet(scope, spec), Resume::Open(0)));
    let mut world = World {
        scope,
        spec,
        chooser,
        seen,
        checkpoints,
        fleet,
    };
    world.drive(resume);
}

/// [`walk`], telling the path on a violation.
fn run(
    scope: Scope,
    spec: &TaskSpec,
    chooser: &mut Chooser,
    seen: &mut HashSet<u64>,
    checkpoints: &mut Vec<Checkpoint>,
    start: Option<(Fleet, Resume)>,
) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        walk(scope, spec, chooser, seen, checkpoints, start);
    }));
    if let Err(panic) = outcome {
        report(scope, &chooser.made());
        std::panic::resume_unwind(panic);
    }
}

/// Prints the failing sequence `choices`, told step by step, and as a
/// test to paste into this file.
fn report(scope: Scope, choices: &[usize]) {
    let mut chooser = Chooser::replaying(choices, true);
    let spec = spec(scope.monitors);
    let (mut seen, mut checkpoints) = (HashSet::new(), Vec::new());
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        walk(
            scope,
            &spec,
            &mut chooser,
            &mut seen,
            &mut checkpoints,
            None,
        );
    }));
    eprintln!("small-scope violation; the choices that led to it:");
    for told in chooser.told.iter().flatten() {
        eprintln!("  {told}");
    }
    let Scope {
        monitors,
        ticks,
        crash,
        restart,
        period,
    } = scope;
    eprintln!(
        "\n#[test]\nfn small_scope_regression() {{\n    replay(\n        \
         Scope {{ monitors: {monitors}, ticks: {ticks}, crash: {crash}, restart: {restart}, \
         period: {period} }},\n        &{choices:?},\n    );\n}}\n"
    );
}

/// Replays one choice sequence (extended with first choices): a
/// violation the explorer found, kept as a regression test.
fn replay(scope: Scope, choices: &[usize]) {
    let mut chooser = Chooser::replaying(choices, false);
    let spec = spec(scope.monitors);
    let (mut seen, mut checkpoints) = (HashSet::new(), Vec::new());
    run(
        scope,
        &spec,
        &mut chooser,
        &mut seen,
        &mut checkpoints,
        None,
    );
}

/// Explores every path of `scope`, depth-first, each branching from
/// the deepest checkpoint on the path it shares.
fn explore(scope: Scope) -> Explored {
    let spec = spec(scope.monitors);
    let mut chooser = Chooser::default();
    let mut seen = HashSet::new();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut explored = Explored::default();
    let mut start = None;
    loop {
        run(
            scope,
            &spec,
            &mut chooser,
            &mut seen,
            &mut checkpoints,
            start,
        );
        explored.paths += 1;
        if !chooser.advance() {
            break;
        }
        // The next path changes the choice at `path.len() - 1`: resume
        // from the deepest checkpoint made before it.
        let branch = chooser.path.len() - 1;
        checkpoints.retain(|checkpoint| checkpoint.at <= branch);
        start = checkpoints.last().map(|checkpoint| {
            chooser.at = checkpoint.at;
            (checkpoint.fleet.clone(), checkpoint.resume.clone())
        });
        if start.is_none() {
            chooser.at = 0;
        }
    }
    explored.states = seen.len();
    println!("{scope:?}: {explored:?}");
    explored
}

/// One path, as a failure prints it: the primary crashes on the
/// update tick with monitor 1's report held back, the successor counts
/// that report stale when it arrives, and the round still reallocates
/// on the fresh reports of both.
#[test]
fn a_report_held_across_the_failover_is_counted_stale_and_not_admitted() {
    replay(
        Scope {
            monitors: 2,
            ticks: 3,
            crash: true,
            restart: false,
            period: 2,
        },
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
    );
}

/// One path of the restart scope: tick 1's round moves a quantum from
/// monitor 0 to monitor 1, monitor 0's tick-2 report is lost, and the
/// supervisor restarts it at the even share. Held beside monitor 1's
/// larger entry, that share would sum past `err`; the machine re-admits
/// the newcomer at its ledger entry instead.
#[test]
fn a_monitor_restarted_after_a_reallocation_is_re_admitted_at_its_ledger_entry() {
    let mut choices = vec![0; 18];
    choices.extend([1, 0, 1]);
    replay(
        Scope {
            monitors: 2,
            ticks: 3,
            crash: false,
            restart: true,
            period: 1,
        },
        &choices,
    );
}

#[test]
fn every_short_interleaving_of_two_monitors_holds_the_invariants() {
    let explored = explore(Scope {
        monitors: 2,
        ticks: 2,
        crash: false,
        restart: true,
        period: 2,
    });
    assert!(explored.states > 1_000, "{explored:?}");
}

/// The CI scope: a third tick, which reallocates and snapshots, and the
/// primary's crash and failover.
#[test]
#[ignore = "CI scope: run in release with --ignored"]
fn every_interleaving_with_a_failover_holds_the_invariants() {
    let explored = explore(Scope {
        monitors: 2,
        ticks: 3,
        crash: true,
        restart: true,
        period: 2,
    });
    assert!(explored.states > 10_000, "{explored:?}");
}

/// The restart scope: the machine reallocates at every tick, so a round
/// can move allowance before a monitor is quarantined and restarted at
/// the even share; the ledger check then holds only if the machine
/// re-admits the restarted monitor at its ledger entry.
#[test]
#[ignore = "CI scope: run in release with --ignored"]
fn every_interleaving_with_a_restart_after_a_reallocation_holds_the_invariants() {
    let explored = explore(Scope {
        monitors: 2,
        ticks: 3,
        crash: false,
        restart: true,
        period: 1,
    });
    assert!(explored.states > 10_000, "{explored:?}");
}
