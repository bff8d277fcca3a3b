//! A counting global allocator for tests that budget what code
//! allocates: the system allocator with per-thread counters in front of
//! it. A test binary installs [`Counting`] as its `#[global_allocator]`
//! and runs the work it measures inside [`charged`], naming one of
//! [`ACCOUNTS`] accounts; each account keeps its allocation calls, its
//! live bytes and their high-water mark. Work outside [`charged`] — the
//! harness, the scaffolding — is charged to none, and other threads'
//! work never reaches this thread's counters.
//!
//! It lives in a crate of its own, used by tests only, so that the
//! libraries keep forbidding `unsafe` code: implementing an allocator
//! takes some, installing one does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// How many accounts a thread keeps.
pub const ACCOUNTS: usize = 4;

thread_local! {
    /// The account this thread charges now.
    static CHARGED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per account: live bytes, their high-water mark, allocation calls.
    static LIVE: [Cell<i64>; ACCOUNTS] = const { [const { Cell::new(0) }; ACCOUNTS] };
    static PEAK: [Cell<i64>; ACCOUNTS] = const { [const { Cell::new(0) }; ACCOUNTS] };
    static CALLS: [Cell<u64>; ACCOUNTS] = const { [const { Cell::new(0) }; ACCOUNTS] };
}

/// Runs `work` with this thread's allocations charged to `account` (an
/// index below [`ACCOUNTS`]; anything else charges none), then charges
/// the account charged before again.
pub fn charged<T>(account: usize, work: impl FnOnce() -> T) -> T {
    let account = Some(account).filter(|&account| account < ACCOUNTS);
    let outer = CHARGED.with(|charged| charged.replace(account));
    let done = work();
    CHARGED.with(|charged| charged.set(outer));
    done
}

/// Zeroes this thread's counters.
pub fn reset() {
    LIVE.with(|live| live.iter().for_each(|cell| cell.set(0)));
    PEAK.with(|peak| peak.iter().for_each(|cell| cell.set(0)));
    CALLS.with(|calls| calls.iter().for_each(|cell| cell.set(0)));
}

/// Per account, the allocation calls (`alloc` and `realloc`) charged on
/// this thread since the last [`reset`].
pub fn calls() -> [u64; ACCOUNTS] {
    CALLS.with(|calls| calls.each_ref().map(Cell::get))
}

/// Per account, the high-water mark of the live bytes charged on this
/// thread since the last [`reset`] (frees count against the account
/// charged when they happen).
pub fn peaks() -> [i64; ACCOUNTS] {
    PEAK.with(|peak| peak.each_ref().map(Cell::get))
}

/// Charges `bytes` (negative: freed) and, for an allocation, one call,
/// to this thread's account, if it names one.
fn charge(bytes: i64, call: bool) {
    let _ = CHARGED.try_with(|charged| {
        let Some(account) = charged.get() else {
            return;
        };
        let _ = LIVE.try_with(|live| {
            let now = live[account].get() + bytes;
            live[account].set(now);
            let _ = PEAK.try_with(|peak| peak[account].set(peak[account].get().max(now)));
        });
        if call {
            let _ = CALLS.try_with(|calls| calls[account].set(calls[account].get() + 1));
        }
    });
}

/// The system allocator, charging every call to this thread's account.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as i64, true);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(-(layout.size() as i64), false);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation
        // and `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
