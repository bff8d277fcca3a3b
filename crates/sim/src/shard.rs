//! Sharded, deterministic, multi-threaded simulation execution.
//!
//! The sequential [`EventQueue`](crate::event::EventQueue) caps every
//! experiment at whatever one core can chew through; datacenter-scale
//! workloads (the paper argues Volley's value *grows* with scale, §V)
//! need the simulator itself to scale. This module partitions the
//! cluster **by coordinator group** into per-shard event queues and runs
//! the shards on a persistent pool of worker threads in **lockstep
//! epochs**:
//!
//! 1. every shard independently drains its own queue up to the epoch
//!    boundary (threads pull shards off a shared work list, so a fast
//!    thread steals shards from slower ones);
//! 2. at the barrier, the **send lanes** each shard sent on this epoch
//!    (a lane exists only for a destination that was sent to) are
//!    handed to their destination shards by pointer move — a lane is
//!    already in canonical `(source shard, send order)` form, so no
//!    collect/route/sort pass runs, no message is ever copied, and the
//!    barrier's work grows with the lanes sent on, never with shards²;
//! 3. the next epoch begins by draining the delivered lanes, source
//!    shard ascending.
//!
//! The hot path is allocation-free at steady state: lane buffers and
//! per-shard [`ScratchArena`] buffers are recycled through spare pools
//! instead of being reallocated each epoch, and the worker threads are
//! spawned once per run — an epoch boundary is two [`Barrier`]
//! rendezvous plus pointer moves, not a `thread::scope` teardown.
//!
//! Determinism is by construction, not by luck: shard state is touched
//! only by whichever thread currently holds the shard, every shard owns
//! its own seeded RNG stream derived from `(seed, shard)`, and lane
//! delivery order is fixed by `(source shard, send order)` — so results
//! are **bit-identical regardless of thread count**. The only
//! thread-count-sensitive outputs are the performance counters
//! ([`EngineStats::steals`], [`EngineStats::max_queue_depth`], epoch
//! latency), which describe the execution, not the simulation;
//! [`EngineStats::lane_swaps`] and [`EngineStats::arena_reuses`] are
//! deterministic.
//!
//! ```
//! use volley_sim::shard::{EngineConfig, EpochCtx, ShardPlan, ShardWorker, ShardedEngine};
//! use volley_sim::{ClusterConfig, SimDuration, SimTime};
//!
//! struct Counter(u64);
//! impl ShardWorker for Counter {
//!     type Event = ();
//!     type Msg = ();
//!     fn handle(&mut self, _ctx: &mut EpochCtx<'_, (), ()>, _t: SimTime, _e: ()) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(4, 2, 1));
//! let engine = ShardedEngine::new(EngineConfig {
//!     threads: 2,
//!     epoch: SimDuration::from_micros(100),
//!     horizon: SimTime::from_micros(1000),
//! });
//! let (workers, stats) = engine.run(&plan, 7, |_, ctx| {
//!     ctx.schedule(SimTime::ZERO, ());
//!     Counter(0)
//! }, None);
//! assert_eq!(workers.len(), 4);
//! assert!(workers.iter().all(|w| w.0 == 1));
//! assert_eq!(stats.shards, 4);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use volley_obs::{names, Obs};

use crate::cluster::{ClusterConfig, ServerId, VmId};
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identifier of a shard (one coordinator group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// A deterministic partition of the cluster into shards, one per
/// coordinator group: the coordinator is the natural consistency
/// boundary (its monitors exchange allowance with it, not with other
/// groups), so everything a group touches — its servers, their Dom0
/// telemetry, their VMs' samplers — lives on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    cluster: ClusterConfig,
    shards: u32,
}

impl ShardPlan {
    /// Partitions `cluster` with one shard per coordinator group.
    pub fn by_coordinator_group(cluster: ClusterConfig) -> Self {
        ShardPlan {
            cluster,
            shards: cluster.coordinator_count(),
        }
    }

    /// The partitioned cluster.
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// The shard owning `server`.
    ///
    /// # Panics
    ///
    /// Panics when `server` is outside the topology.
    pub fn shard_of_server(&self, server: ServerId) -> ShardId {
        ShardId(self.cluster.coordinator_of(server))
    }

    /// The shard owning `vm`.
    ///
    /// # Panics
    ///
    /// Panics when `vm` is outside the topology.
    pub fn shard_of_vm(&self, vm: VmId) -> ShardId {
        self.shard_of_server(self.cluster.server_of(vm))
    }

    /// The contiguous servers owned by `shard`.
    pub fn servers_of(&self, shard: ShardId) -> impl Iterator<Item = ServerId> {
        let per = self.cluster.servers_per_coordinator();
        let start = shard.0 * per;
        let end = (start + per).min(self.cluster.servers());
        (start..end).map(ServerId)
    }

    /// The contiguous VMs owned by `shard`.
    pub fn vms_of(&self, shard: ShardId) -> impl Iterator<Item = VmId> + '_ {
        self.servers_of(shard)
            .flat_map(move |server| self.cluster.vms_on(server))
    }

    /// The independent RNG stream for `shard` under `seed`. Streams are
    /// decorrelated across shards and never depend on thread count.
    pub fn rng_for(seed: u64, shard: ShardId) -> StdRng {
        // Distinct mixing constant from the per-VM trace streams so a
        // shard's engine stream never collides with a VM's trace stream.
        StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(u64::from(shard.0) + 1))
    }
}

/// Pads its contents to a cache line so adjacent shard cells and the
/// engine's shared atomics never false-share a line under contention.
#[repr(align(64))]
struct CachePadded<T>(T);

/// A pool of reusable per-shard buffers for the tick hot path.
///
/// Scenario workers that need a temporary `Vec` every event (e.g. the
/// per-tick member-value vector of a distributed aggregation task) take
/// a cleared buffer from the arena and put it back when done instead of
/// allocating; at steady state the arena makes the tick loop
/// allocation-free. Reuse is counted into
/// [`EngineStats::arena_reuses`], which is deterministic.
#[derive(Debug, Default)]
pub struct ScratchArena {
    f64_bufs: Vec<Vec<f64>>,
    reuses: u64,
}

impl ScratchArena {
    /// Takes an empty `Vec<f64>` from the pool, allocating only if the
    /// pool is dry.
    pub fn take_f64(&mut self) -> Vec<f64> {
        match self.f64_bufs.pop() {
            Some(buf) => {
                self.reuses += 1;
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool (cleared, capacity kept).
    pub fn put_f64(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.f64_bufs.push(buf);
    }
}

/// One shard's outgoing send lanes, sparse: a lane exists only for a
/// destination sent to since the last barrier, so nothing here is sized
/// by the shard count.
#[derive(Debug)]
struct SendLanes<M> {
    /// `(destination, messages in send order)`, sorted by destination.
    touched: Vec<(u32, Vec<M>)>,
    /// Empty buffers for the next first sends; the barrier tops this up
    /// with one recycled buffer per lane it takes.
    free: Vec<Vec<M>>,
    /// Total shards in the running engine (the bound `send` checks).
    shards: u32,
}

/// The per-shard execution context handed to [`ShardWorker`] callbacks:
/// the shard's own event queue, RNG stream, typed sparse send lanes, and
/// scratch arena.
#[derive(Debug)]
pub struct EpochCtx<'a, E, M> {
    shard: ShardId,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut StdRng,
    /// The lanes sent on this epoch; a send is a search plus a push.
    lanes: &'a mut SendLanes<M>,
    scratch: &'a mut ScratchArena,
}

impl<E, M> EpochCtx<'_, E, M> {
    /// The shard this context belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Total shards in the running engine.
    pub fn shard_count(&self) -> u32 {
        self.lanes.shards
    }

    /// Current simulated time on this shard's clock.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Pending local events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a local event (past times clamp to now, as on
    /// [`EventQueue::schedule`]).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }

    /// Sends `msg` to shard `dst` by pushing onto the destination's
    /// lane, opening the lane (on a recycled buffer) at its sorted
    /// position on the epoch's first send to `dst`. Lanes are handed
    /// over — batched, in canonical `(source shard, send order)` order,
    /// by pointer move — at the next epoch boundary.
    ///
    /// Known cost: opening a lane shifts the lanes after it, so a shard
    /// that fans out to *k* new destinations in descending order pays
    /// O(k²) moves of 32-byte entries per epoch; ascending fan-out
    /// appends.
    ///
    /// # Panics
    ///
    /// Panics when `dst` does not exist in the plan.
    pub fn send(&mut self, dst: ShardId, msg: M) {
        let (shard, lanes) = (self.shard, &mut *self.lanes);
        assert!(
            dst.0 < lanes.shards,
            "{shard} sent a message to nonexistent {dst}"
        );
        let at = match lanes.touched.binary_search_by_key(&dst.0, |lane| lane.0) {
            Ok(at) => at,
            Err(at) => {
                let buf = lanes.free.pop().unwrap_or_default();
                lanes.touched.insert(at, (dst.0, buf));
                at
            }
        };
        lanes.touched[at].1.push(msg);
    }

    /// This shard's own deterministic RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// This shard's scratch arena for allocation-free temporaries.
    pub fn scratch(&mut self) -> &mut ScratchArena {
        self.scratch
    }
}

/// Per-shard simulation logic driven by the engine.
pub trait ShardWorker: Send {
    /// Local event payload.
    type Event: Send;
    /// Cross-shard message payload.
    type Msg: Send;

    /// Handles one local event; may schedule further events and send
    /// cross-shard messages through `ctx`.
    fn handle(
        &mut self,
        ctx: &mut EpochCtx<'_, Self::Event, Self::Msg>,
        time: SimTime,
        event: Self::Event,
    );

    /// Receives a cross-shard message at an epoch boundary. Deliveries
    /// arrive sorted by `(source shard, send order)`. The default
    /// ignores messages.
    fn on_message(
        &mut self,
        ctx: &mut EpochCtx<'_, Self::Event, Self::Msg>,
        from: ShardId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, from, msg);
    }
}

/// Execution parameters of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads (clamped to `1..=shard count`). Thread count never
    /// changes simulation results, only wall-clock time.
    pub threads: usize,
    /// Lockstep epoch length; cross-shard messages are exchanged at
    /// multiples of this, so the epoch is the worst-case cross-shard
    /// message latency. Workloads that tolerate coarser latency should
    /// use a coarser epoch — fewer barriers, faster runs. Zero clamps
    /// to one microsecond.
    pub epoch: SimDuration,
    /// Simulation end time.
    pub horizon: SimTime,
}

impl EngineConfig {
    /// Configuration for workloads that exchange no cross-shard
    /// messages (or tolerate delivery at the horizon): one epoch spans
    /// the whole run, so the only barrier is the final one.
    pub fn message_free(threads: usize, horizon: SimTime) -> Self {
        EngineConfig {
            threads,
            epoch: SimDuration::from_micros(horizon.as_micros().max(1)),
            horizon,
        }
    }
}

/// Execution counters of one engine run.
///
/// `shards`, `epochs`, `merges`, `lane_swaps` and `arena_reuses` are
/// deterministic; `steals` and `max_queue_depth` describe the
/// particular execution (thread scheduling) and may vary run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Shards executed.
    pub shards: u32,
    /// Lockstep epochs completed (including drain rounds).
    pub epochs: u64,
    /// Shards processed by a thread other than their home thread.
    pub steals: u64,
    /// Cross-shard messages delivered at epoch boundaries.
    pub merges: u64,
    /// Largest per-shard pending-event backlog observed at an epoch end.
    pub max_queue_depth: usize,
    /// Send lanes handed over by pointer move at barriers.
    pub lane_swaps: u64,
    /// Recycled buffers (lane spares and scratch-arena hits) handed
    /// back out instead of allocating.
    pub arena_reuses: u64,
}

/// One shard's complete private state.
struct ShardCell<W: ShardWorker> {
    shard: ShardId,
    worker: Option<W>,
    queue: EventQueue<W::Event>,
    rng: StdRng,
    /// Outgoing send lanes: the destinations sent to this epoch.
    lanes: SendLanes<W::Msg>,
    /// Delivered lane buffers in canonical `(source, send order)` form.
    inbox: Vec<(ShardId, Vec<W::Msg>)>,
    /// Drained inbox buffers awaiting recycling into the spares pool.
    spent: Vec<Vec<W::Msg>>,
    scratch: ScratchArena,
}

impl<W: ShardWorker> ShardCell<W> {
    /// Runs one epoch on this shard: drain the delivered lanes (source
    /// ascending, send order within a lane), then drain local events up
    /// to `epoch_end`. Builds the worker on first touch (inside the
    /// parallel region, so per-shard setup — trace generation included —
    /// parallelizes too).
    fn run_epoch<F>(&mut self, build: &F, epoch_end: SimTime)
    where
        F: Fn(ShardId, &mut EpochCtx<'_, W::Event, W::Msg>) -> W,
    {
        let ShardCell {
            shard,
            worker,
            queue,
            rng,
            lanes,
            inbox,
            spent,
            scratch,
        } = self;
        if worker.is_none() {
            let mut ctx = EpochCtx {
                shard: *shard,
                queue,
                rng,
                lanes,
                scratch,
            };
            *worker = Some(build(*shard, &mut ctx));
        }
        let worker = worker.as_mut().expect("worker built on first epoch");
        for (from, mut buf) in inbox.drain(..) {
            for msg in buf.drain(..) {
                let mut ctx = EpochCtx {
                    shard: *shard,
                    queue,
                    rng,
                    lanes,
                    scratch,
                };
                worker.on_message(&mut ctx, from, msg);
            }
            spent.push(buf);
        }
        queue.run_until(epoch_end, |queue, time, event| {
            let mut ctx = EpochCtx {
                shard: *shard,
                queue,
                rng,
                lanes,
                scratch,
            };
            worker.handle(&mut ctx, time, event);
        });
    }
}

/// How many extra barrier rounds run at the horizon to flush messages
/// sent during the final epoch. Message chains still pending afterwards
/// are dropped (a chain that long at the horizon is a workload bug).
const MAX_DRAIN_ROUNDS: u64 = 16;

/// The sharded lockstep engine (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine {
    config: EngineConfig,
}

impl ShardedEngine {
    /// Creates an engine with the given execution parameters.
    pub fn new(config: EngineConfig) -> Self {
        ShardedEngine { config }
    }

    /// The execution parameters.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Runs every shard of `plan` to the horizon and returns the final
    /// workers (in shard order) plus execution counters.
    ///
    /// `build` constructs each shard's worker on its first epoch —
    /// called inside the parallel region, once per shard, with a context
    /// for scheduling initial events. When `obs` is given, per-epoch
    /// queue depth, epoch latency, and steal/merge counters are
    /// published through its registry.
    ///
    /// The worker pool is spawned once and parked on a [`Barrier`]
    /// between epochs; an epoch boundary costs two rendezvous plus the
    /// serial hand-off of the lanes that were sent on.
    ///
    /// # Panics
    ///
    /// Resumes a panic raised by `build` or a worker callback, at every
    /// thread count, once the pool has shut down; when several shards
    /// panic in one epoch the lowest shard's payload is the one resumed.
    pub fn run<W, F>(
        &self,
        plan: &ShardPlan,
        seed: u64,
        build: F,
        obs: Option<&Obs>,
    ) -> (Vec<W>, EngineStats)
    where
        W: ShardWorker,
        F: Fn(ShardId, &mut EpochCtx<'_, W::Event, W::Msg>) -> W + Sync,
    {
        let shard_count = plan.shard_count() as usize;
        let threads = self.config.threads.clamp(1, shard_count.max(1));
        let epoch = if self.config.epoch == SimDuration::ZERO {
            SimDuration::from_micros(1)
        } else {
            self.config.epoch
        };
        let horizon = self.config.horizon;

        let cells: Vec<CachePadded<Mutex<ShardCell<W>>>> = (0..shard_count)
            .map(|i| {
                let shard = ShardId(i as u32);
                CachePadded(Mutex::new(ShardCell {
                    shard,
                    worker: None,
                    queue: EventQueue::new(),
                    rng: ShardPlan::rng_for(seed, shard),
                    lanes: SendLanes {
                        touched: Vec::new(),
                        free: Vec::new(),
                        shards: shard_count as u32,
                    },
                    inbox: Vec::new(),
                    spent: Vec::new(),
                    scratch: ScratchArena::default(),
                }))
            })
            .collect();

        let mut stats = EngineStats {
            shards: shard_count as u32,
            ..EngineStats::default()
        };
        let steals_total = obs.map(|o| o.registry().counter(names::SIM_SHARD_STEALS_TOTAL));
        let merges_total = obs.map(|o| o.registry().counter(names::SIM_SHARD_MERGES_TOTAL));
        let epochs_total = obs.map(|o| o.registry().counter(names::SIM_EPOCHS_TOTAL));
        let epoch_latency = obs.map(|o| o.registry().histogram(names::SIM_EPOCH_LATENCY_NS));
        let queue_depth = obs.map(|o| o.registry().gauge(names::SIM_SHARD_QUEUE_DEPTH));

        let planned_epochs = horizon
            .as_micros()
            .div_ceil(epoch.as_micros().max(1))
            .max(1);

        // Shared round state for the persistent pool. The barrier's own
        // synchronization orders these stores/loads, so Relaxed suffices.
        let barrier = Barrier::new(threads);
        let done = AtomicBool::new(false);
        let epoch_end_us = AtomicU64::new(0);
        let next_shard = CachePadded(AtomicUsize::new(0));
        let steals = CachePadded(AtomicU64::new(0));
        // A worker panic, parked until every thread has left the pool.
        let failed: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

        // One pool thread's share of an epoch: claim shards off the
        // shared list until none remain. A panicking worker is caught
        // here so its thread still reaches the end-of-epoch barrier; the
        // lowest panicking shard wins, so what `run` surfaces does not
        // depend on scheduling.
        let claim_shards = |ordinal: usize, epoch_end: SimTime| {
            let mut index = 0;
            let caught = catch_unwind(AssertUnwindSafe(|| loop {
                index = next_shard.0.fetch_add(1, Ordering::Relaxed);
                if index >= shard_count {
                    break;
                }
                if index % threads != ordinal {
                    steals.0.fetch_add(1, Ordering::Relaxed);
                }
                let mut cell = cells[index].0.lock().expect("shard cell lock");
                cell.run_epoch(&build, epoch_end);
            }));
            if let Err(payload) = caught {
                let mut failed = failed.lock().expect("panic slot lock");
                if failed.as_ref().is_none_or(|(shard, _)| index < *shard) {
                    *failed = Some((index, payload));
                }
            }
        };

        // Barrier scratch, reused across epochs: recycled lane buffers
        // and the staging list for the serial swap pass.
        let mut spares: Vec<Vec<W::Msg>> = Vec::new();
        let mut staged: Vec<(u32, ShardId, Vec<W::Msg>)> = Vec::new();

        std::thread::scope(|scope| {
            for ordinal in 1..threads {
                let (barrier, done, epoch_end_us) = (&barrier, &done, &epoch_end_us);
                let claim_shards = &claim_shards;
                scope.spawn(move || loop {
                    barrier.wait();
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let epoch_end = SimTime::from_micros(epoch_end_us.load(Ordering::Relaxed));
                    claim_shards(ordinal, epoch_end);
                    barrier.wait();
                });
            }

            let mut drain_rounds = 0u64;
            let mut epoch_idx = 0u64;
            loop {
                let epoch_end = if epoch_idx < planned_epochs {
                    SimTime::from_micros(
                        epoch
                            .as_micros()
                            .saturating_mul(epoch_idx + 1)
                            .min(horizon.as_micros()),
                    )
                } else {
                    horizon
                };

                let started = Instant::now();
                epoch_end_us.store(epoch_end.as_micros(), Ordering::Relaxed);
                next_shard.0.store(0, Ordering::Relaxed);
                steals.0.store(0, Ordering::Relaxed);
                barrier.wait();
                // This thread is pool ordinal 0.
                claim_shards(0, epoch_end);
                barrier.wait();
                if failed.lock().expect("panic slot lock").is_some() {
                    // The panicking shard's lock is poisoned: release the
                    // pool without touching the cells again.
                    done.store(true, Ordering::Relaxed);
                    barrier.wait();
                    break;
                }

                stats.steals += steals.0.load(Ordering::Relaxed);
                stats.epochs += 1;

                // Barrier merge: hand every touched lane to its
                // destination by pointer move, topping the source's free
                // list up with one recycled buffer per lane taken.
                // Iterating sources in ascending order keeps each inbox
                // in canonical (source, send order) form with no sort.
                let mut depth = 0usize;
                let mut merged = 0u64;
                for (src, slot) in cells.iter().enumerate().take(shard_count) {
                    let cell = &mut *slot.0.lock().expect("shard cell lock");
                    depth = depth.max(cell.queue.len());
                    spares.append(&mut cell.spent);
                    for (dst, buf) in cell.lanes.touched.drain(..) {
                        cell.lanes.free.push(match spares.pop() {
                            Some(spare) => {
                                stats.arena_reuses += 1;
                                spare
                            }
                            None => Vec::new(),
                        });
                        merged += buf.len() as u64;
                        stats.lane_swaps += 1;
                        staged.push((dst, ShardId(src as u32), buf));
                    }
                }
                let has_pending_messages = !staged.is_empty();
                for (dst, from, buf) in staged.drain(..) {
                    cells[dst as usize]
                        .0
                        .lock()
                        .expect("shard cell lock")
                        .inbox
                        .push((from, buf));
                }
                stats.merges += merged;
                stats.max_queue_depth = stats.max_queue_depth.max(depth);

                let elapsed = started.elapsed().as_nanos() as u64;
                if let Some(h) = &epoch_latency {
                    h.record(elapsed);
                }
                if let Some(c) = &epochs_total {
                    c.inc();
                }
                if let Some(c) = &merges_total {
                    c.add(merged);
                }
                if let Some(c) = &steals_total {
                    c.add(steals.0.load(Ordering::Relaxed));
                }
                if let Some(g) = &queue_depth {
                    g.set(depth as f64);
                }

                epoch_idx += 1;
                if epoch_idx >= planned_epochs {
                    // Main timeline exhausted: run bounded drain rounds
                    // at the horizon while messages are still in flight.
                    if !has_pending_messages || drain_rounds >= MAX_DRAIN_ROUNDS {
                        done.store(true, Ordering::Relaxed);
                        barrier.wait();
                        break;
                    }
                    drain_rounds += 1;
                }
            }
        });

        if let Some((_, payload)) = failed.into_inner().expect("panic slot lock") {
            resume_unwind(payload);
        }
        let mut workers = Vec::with_capacity(shard_count);
        for cell in cells {
            let cell = cell.0.into_inner().expect("shard cell lock");
            stats.arena_reuses += cell.scratch.reuses;
            workers.push(cell.worker.expect("every shard ran at least one epoch"));
        }
        (workers, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A workload exercising everything the engine guarantees: local
    /// rescheduling, per-shard RNG draws, scratch reuse, and cross-shard
    /// ping-pong.
    struct Mixer {
        shard: ShardId,
        shards: u32,
        /// Rolling hash of everything this worker observed.
        digest: u64,
        events: u64,
        messages: u64,
    }

    impl Mixer {
        fn mix(&mut self, value: u64) {
            self.digest = self
                .digest
                .rotate_left(7)
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(value);
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct Tick(u64);

    impl ShardWorker for Mixer {
        type Event = Tick;
        type Msg = u64;

        fn handle(&mut self, ctx: &mut EpochCtx<'_, Tick, u64>, time: SimTime, event: Tick) {
            self.events += 1;
            let draw: u64 = ctx.rng().gen();
            let mut buf = ctx.scratch().take_f64();
            buf.push(draw as f64);
            self.mix(time.as_micros() ^ event.0 ^ (draw >> 32) ^ buf.len() as u64);
            ctx.scratch().put_f64(buf);
            // Send to the next shard every third event.
            if self.events.is_multiple_of(3) && self.shards > 1 {
                let dst = ShardId((self.shard.0 + 1) % self.shards);
                ctx.send(dst, self.digest);
            }
            if event.0 < 50 {
                ctx.schedule(time + SimDuration::from_micros(10), Tick(event.0 + 1));
            }
        }

        fn on_message(&mut self, _ctx: &mut EpochCtx<'_, Tick, u64>, from: ShardId, msg: u64) {
            self.messages += 1;
            self.mix(u64::from(from.0).wrapping_mul(31).wrapping_add(msg));
        }
    }

    fn run_mixer(threads: usize, seed: u64) -> (Vec<(u64, u64, u64)>, EngineStats) {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(20, 2, 5));
        let engine = ShardedEngine::new(EngineConfig {
            threads,
            epoch: SimDuration::from_micros(100),
            horizon: SimTime::from_micros(600),
        });
        let (workers, stats) = engine.run(
            &plan,
            seed,
            |shard, ctx| {
                ctx.schedule(SimTime::ZERO, Tick(0));
                Mixer {
                    shard,
                    shards: plan.shard_count(),
                    digest: 0,
                    events: 0,
                    messages: 0,
                }
            },
            None,
        );
        (
            workers
                .into_iter()
                .map(|w| (w.digest, w.events, w.messages))
                .collect(),
            stats,
        )
    }

    #[test]
    fn plan_partitions_by_coordinator_group() {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::paper());
        assert_eq!(plan.shard_count(), 4);
        // Every server and VM lands on exactly one shard, contiguously.
        let mut seen_servers = Vec::new();
        let mut seen_vms = Vec::new();
        for s in 0..plan.shard_count() {
            for server in plan.servers_of(ShardId(s)) {
                assert_eq!(plan.shard_of_server(server), ShardId(s));
                seen_servers.push(server.0);
            }
            for vm in plan.vms_of(ShardId(s)) {
                assert_eq!(plan.shard_of_vm(vm), ShardId(s));
                seen_vms.push(vm.0);
            }
        }
        assert_eq!(seen_servers, (0..20).collect::<Vec<_>>());
        assert_eq!(seen_vms, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn plan_handles_partial_last_group() {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(7, 3, 5));
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.servers_of(ShardId(0)).count(), 5);
        assert_eq!(plan.servers_of(ShardId(1)).count(), 2);
        assert_eq!(plan.vms_of(ShardId(1)).count(), 6);
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let (one, _) = run_mixer(1, 42);
        for threads in [2, 4, 8] {
            let (many, _) = run_mixer(threads, 42);
            assert_eq!(one, many, "threads={threads} diverged");
        }
    }

    #[test]
    fn deterministic_counters_match_across_thread_counts() {
        let (_, one) = run_mixer(1, 42);
        for threads in [2, 4, 8] {
            let (_, many) = run_mixer(threads, 42);
            assert_eq!(one.epochs, many.epochs, "threads={threads}");
            assert_eq!(one.merges, many.merges, "threads={threads}");
            assert_eq!(one.lane_swaps, many.lane_swaps, "threads={threads}");
            assert_eq!(one.arena_reuses, many.arena_reuses, "threads={threads}");
        }
        // Literal values of the dense-lane engine (PR 19): the sparse
        // lane set must hand off, recycle and count exactly as it did.
        assert_eq!(
            (one.epochs, one.merges, one.lane_swaps, one.arena_reuses),
            (6, 68, 20, 216)
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let (a, _) = run_mixer(2, 1);
        let (b, _) = run_mixer(2, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn messages_are_exchanged_and_counted() {
        let (workers, stats) = run_mixer(4, 9);
        let received: u64 = workers.iter().map(|(_, _, m)| m).sum();
        assert!(received > 0, "ping-pong must deliver messages");
        assert_eq!(stats.merges, received, "every merge is a delivery");
        assert!(stats.epochs >= 6, "600us horizon at 100us epochs");
    }

    #[test]
    fn single_shard_single_thread_still_runs() {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(1, 1, 1));
        let engine = ShardedEngine::new(EngineConfig {
            threads: 8,
            epoch: SimDuration::from_micros(50),
            horizon: SimTime::from_micros(200),
        });
        let (workers, stats) = engine.run(
            &plan,
            0,
            |shard, ctx| {
                ctx.schedule(SimTime::ZERO, Tick(0));
                Mixer {
                    shard,
                    shards: 1,
                    digest: 0,
                    events: 0,
                    messages: 0,
                }
            },
            None,
        );
        assert_eq!(workers.len(), 1);
        assert!(workers[0].events > 0);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.steals, 0, "one shard cannot be stolen");
    }

    #[test]
    fn zero_horizon_builds_workers_once() {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(2, 1, 1));
        let engine = ShardedEngine::new(EngineConfig {
            threads: 2,
            epoch: SimDuration::from_micros(10),
            horizon: SimTime::ZERO,
        });
        let (workers, stats) = engine.run(&plan, 0, |shard, _| shard.0, None);
        assert_eq!(workers, vec![0, 1]);
        assert_eq!(stats.epochs, 1, "at least one epoch always runs");
    }

    #[test]
    fn message_free_config_runs_one_epoch() {
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(2, 1, 1));
        let engine = ShardedEngine::new(EngineConfig::message_free(2, SimTime::from_micros(1000)));
        let (workers, stats) = engine.run(&plan, 0, |shard, _| shard.0, None);
        assert_eq!(workers, vec![0, 1]);
        assert_eq!(stats.epochs, 1, "whole horizon in a single epoch");
    }

    impl ShardWorker for u32 {
        type Event = ();
        type Msg = ();
        fn handle(&mut self, _ctx: &mut EpochCtx<'_, (), ()>, _t: SimTime, _e: ()) {}
    }

    #[test]
    fn a_20_000_shard_message_free_run_needs_no_quadratic_memory() {
        // A dense per-destination lane table would be 20 000² × 24 B =
        // 9.6 GB of empty `Vec` headers before the first event.
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(20_000, 1, 1));
        assert_eq!(plan.shard_count(), 20_000);
        let engine = ShardedEngine::new(EngineConfig::message_free(2, SimTime::from_micros(10)));
        let (workers, stats) = engine.run(&plan, 0, |shard, _| shard.0, None);
        assert!(workers.iter().copied().eq(0..20_000));
        assert_eq!((stats.epochs, stats.lane_swaps), (1, 0));
    }

    #[test]
    fn a_panicking_worker_unwinds_out_of_run_at_every_thread_count() {
        struct Stray;
        impl ShardWorker for Stray {
            type Event = ();
            type Msg = ();
            fn handle(&mut self, ctx: &mut EpochCtx<'_, (), ()>, _t: SimTime, _e: ()) {
                // Shards 1 and 3 both panic: the lowest must surface.
                if ctx.shard().0 % 2 == 1 {
                    ctx.send(ShardId(99), ());
                }
            }
        }
        for threads in [1, 2, 4] {
            // On a helper thread, so a pool that never shuts down fails
            // this test instead of hanging the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(4, 1, 1));
                let engine = ShardedEngine::new(EngineConfig {
                    threads,
                    epoch: SimDuration::from_micros(10),
                    horizon: SimTime::from_micros(100),
                });
                let outcome = catch_unwind(|| {
                    engine.run(
                        &plan,
                        0,
                        |_, ctx| {
                            ctx.schedule(SimTime::from_micros(25), ());
                            Stray
                        },
                        None,
                    );
                });
                let _ = tx.send(outcome);
            });
            let payload = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("engine hung on a worker panic at {threads} threads"))
                .expect_err("the worker's panic must propagate out of run");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("shard-1 sent a message to nonexistent shard-99"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn final_epoch_messages_flush_in_drain_rounds() {
        struct Echo {
            got: Vec<(u32, u64)>,
        }
        impl ShardWorker for Echo {
            type Event = u64;
            type Msg = u64;
            fn handle(&mut self, ctx: &mut EpochCtx<'_, u64, u64>, _t: SimTime, e: u64) {
                // Fire a message during the last (and only) epoch.
                let dst = ShardId(1 - ctx.shard().0);
                ctx.send(dst, e);
            }
            fn on_message(&mut self, _ctx: &mut EpochCtx<'_, u64, u64>, from: ShardId, msg: u64) {
                self.got.push((from.0, msg));
            }
        }
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(2, 1, 1));
        let engine = ShardedEngine::new(EngineConfig {
            threads: 1,
            epoch: SimDuration::from_micros(100),
            horizon: SimTime::from_micros(100),
        });
        let (workers, _) = engine.run(
            &plan,
            0,
            |shard, ctx| {
                ctx.schedule(SimTime::ZERO, u64::from(shard.0) + 10);
                Echo { got: Vec::new() }
            },
            None,
        );
        assert_eq!(workers[0].got, vec![(1, 11)]);
        assert_eq!(workers[1].got, vec![(0, 10)]);
    }

    #[test]
    fn obs_publishes_engine_counters() {
        let obs = Obs::new(true);
        let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(20, 2, 5));
        let engine = ShardedEngine::new(EngineConfig {
            threads: 2,
            epoch: SimDuration::from_micros(100),
            horizon: SimTime::from_micros(400),
        });
        let (_, stats) = engine.run(
            &plan,
            3,
            |shard, ctx| {
                ctx.schedule(SimTime::ZERO, Tick(0));
                Mixer {
                    shard,
                    shards: plan.shard_count(),
                    digest: 0,
                    events: 0,
                    messages: 0,
                }
            },
            Some(&obs),
        );
        let snapshot = obs.snapshot(0);
        assert_eq!(
            snapshot.counters.get(names::SIM_EPOCHS_TOTAL).copied(),
            Some(stats.epochs)
        );
        assert_eq!(
            snapshot
                .counters
                .get(names::SIM_SHARD_MERGES_TOTAL)
                .copied(),
            Some(stats.merges)
        );
        assert!(snapshot
            .counters
            .contains_key(names::SIM_SHARD_STEALS_TOTAL));
        assert!(snapshot.gauges.contains_key(names::SIM_SHARD_QUEUE_DEPTH));
        let latency = &snapshot.histograms[names::SIM_EPOCH_LATENCY_NS];
        assert_eq!(latency.count, stats.epochs);
    }
}
