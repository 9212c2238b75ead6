//! A counting global allocator, for properties that bound what a parser
//! allocates on hostile input.
//!
//! Install it in the test binary that wants the counts:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: dhub_oracle::alloc::CountingAlloc = dhub_oracle::alloc::CountingAlloc;
//! ```
//!
//! Counts are per thread (tests run in parallel, so a global count would
//! mix them) and read through [`allocs_during`]. Work that spreads over
//! threads it spawns is read through [`process_allocs_during`] instead, in
//! a test binary that runs that one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to [`System`], counting as it goes.
pub struct CountingAlloc;

/// What the current thread (or the process) allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc` calls: one per block, however large.
    pub allocs: usize,
    /// `realloc` calls that grow a block, each of which may copy it. A
    /// shrinking one copies nothing new and is not counted (std shrinks,
    /// for one, when it turns a spawned thread's name into a C string).
    pub reallocs: usize,
    /// Bytes requested: every allocation's size plus every reallocation's
    /// growth.
    pub bytes: usize,
}

thread_local! {
    static COUNTS: Cell<Allocs> = const { Cell::new(Allocs { allocs: 0, reallocs: 0, bytes: 0 }) };
}

/// Every thread's counts at once: `allocs`, `reallocs`, `bytes`.
static PROCESS: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

fn count(allocs: usize, reallocs: usize, bytes: usize) {
    COUNTS.with(|c| {
        let now = c.get();
        c.set(Allocs {
            allocs: now.allocs + allocs,
            reallocs: now.reallocs + reallocs,
            bytes: now.bytes + bytes,
        });
    });
    for (total, n) in PROCESS.iter().zip([allocs, reallocs, bytes]) {
        total.fetch_add(n, Ordering::Relaxed);
    }
}

fn process_counts() -> Allocs {
    let [allocs, reallocs, bytes] = PROCESS.each_ref().map(|n| n.load(Ordering::Relaxed));
    Allocs { allocs, reallocs, bytes }
}

// SAFETY: every call forwards to `System` unchanged; the only additions are
// a thread-local counter with no destructor and three static atomics,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(0, 1, new_size - layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the current thread allocated while running `f`. All zero unless
/// [`CountingAlloc`] is the test binary's global allocator.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = COUNTS.with(Cell::get);
    let value = f();
    (value, since(before, COUNTS.with(Cell::get)))
}

/// What every thread of the process allocated while running `f`, the
/// threads `f` spawns included. Anything else running in the process at
/// the time is counted too, so read it in a test binary of one test.
pub fn process_allocs_during<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = process_counts();
    let value = f();
    (value, since(before, process_counts()))
}

fn since(before: Allocs, after: Allocs) -> Allocs {
    Allocs {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
        bytes: after.bytes - before.bytes,
    }
}
