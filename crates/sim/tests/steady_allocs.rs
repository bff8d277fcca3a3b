//! The sharded engine allocates nothing at steady state. Once outbox,
//! inbox and event-queue capacities have settled, an epoch of the
//! `sim-xshard` benchmark's message pattern — every shard reports to
//! shard 0, shard 0 echoes each report back, and every shard sends its
//! neighbour a note — makes no heap allocation, at one thread or two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use volley_sim::{
    ClusterConfig, EngineConfig, EpochCtx, ShardId, ShardPlan, ShardWorker, ShardedEngine,
    SimDuration, SimTime,
};

/// `alloc` + `realloc` calls on engine threads since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread runs engine code. The test harness's own
    /// threads print and bookkeep concurrently, so they are not counted.
    static ENGINE_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Counts this thread's allocations from now on.
fn enlist() {
    ENGINE_THREAD.with(|engine| engine.set(true));
}

fn count() {
    if ENGINE_THREAD.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator with a call counter in front of it.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation
        // and `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHARDS: u32 = 64;
const EPOCHS: u64 = 200;
const EPOCH_MICROS: u64 = 1_000;
/// Steady state is assumed from this epoch on.
const PROBE_START: u64 = 16;
/// Top bit marks a report (echoed by shard 0); the rest are notes.
const REPORT: u64 = 1 << 63;

/// Allocation-counter readings at the first handled probe-start epoch
/// and the first handled last epoch (first writer wins).
struct Probe {
    start: AtomicU64,
    end: AtomicU64,
}

impl Probe {
    fn mark(&self, epoch: u64) {
        let slot = match epoch {
            PROBE_START => &self.start,
            e if e + 1 == EPOCHS => &self.end,
            _ => return,
        };
        let now = ALLOCS.load(Ordering::Relaxed);
        let _ = slot.compare_exchange(u64::MAX, now, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// One shard of the `sim-xshard` message pattern, without the samplers.
struct Xshard<'a> {
    probe: &'a Probe,
    received: u64,
}

impl ShardWorker for Xshard<'_> {
    /// The epoch index.
    type Event = u64;
    type Msg = u64;

    fn handle(&mut self, ctx: &mut EpochCtx<'_, u64, u64>, time: SimTime, epoch: u64) {
        enlist();
        self.probe.mark(epoch);
        ctx.send(ShardId(0), REPORT | epoch);
        ctx.send(ShardId((ctx.shard().0 + 1) % ctx.shard_count()), epoch);
        if epoch + 1 < EPOCHS {
            ctx.schedule(time + SimDuration::from_micros(EPOCH_MICROS), epoch + 1);
        }
    }

    fn on_message(&mut self, ctx: &mut EpochCtx<'_, u64, u64>, from: ShardId, msg: u64) {
        enlist();
        self.received += 1;
        if ctx.shard().0 == 0 && msg & REPORT != 0 {
            ctx.send(from, msg & !REPORT);
        }
    }
}

#[test]
fn steady_state_epochs_allocate_nothing() {
    // This thread merges at every barrier; pool threads enlist in the
    // callbacks, which is where their shards' work happens.
    enlist();
    let plan = ShardPlan::by_coordinator_group(ClusterConfig::new(SHARDS, 1, 1));
    for threads in [1, 2] {
        let probe = Probe {
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(u64::MAX),
        };
        let engine = ShardedEngine::new(EngineConfig {
            threads,
            epoch: SimDuration::from_micros(EPOCH_MICROS),
            horizon: SimTime::from_micros(EPOCHS * EPOCH_MICROS),
        });
        let (workers, stats) = engine.run(
            &plan,
            0,
            |_, ctx| {
                ctx.schedule(SimTime::ZERO, 0);
                Xshard {
                    probe: &probe,
                    received: 0,
                }
            },
            None,
        );
        let (start, end) = (
            probe.start.load(Ordering::Relaxed),
            probe.end.load(Ordering::Relaxed),
        );
        assert!(start != u64::MAX && end != u64::MAX, "both marks reached");
        assert_eq!(
            end - start,
            0,
            "threads={threads}: epochs {PROBE_START}..{EPOCHS} allocated"
        );
        // Per epoch: a report and a note from every shard, and an echo
        // of every report; all of them delivered.
        let received: u64 = workers.iter().map(|w| w.received).sum();
        assert_eq!(received, EPOCHS * 3 * u64::from(SHARDS));
        assert_eq!((stats.merges, stats.undelivered), (received, 0));
    }
}
