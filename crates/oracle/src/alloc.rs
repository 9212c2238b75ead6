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
//! mix them) and read through [`allocs_during`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards every call to [`System`], counting as it goes.
pub struct CountingAlloc;

/// What the current thread allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// `realloc` calls that grow a block, each of which may copy it. A
    /// shrinking one copies nothing new and is not counted (std shrinks,
    /// for one, when it turns a spawned thread's name into a C string).
    pub reallocs: usize,
    /// Bytes requested: every allocation's size plus every reallocation's
    /// growth.
    pub bytes: usize,
}

thread_local! {
    static COUNTS: Cell<Allocs> = const { Cell::new(Allocs { reallocs: 0, bytes: 0 }) };
}

fn count(reallocs: usize, bytes: usize) {
    COUNTS.with(|c| {
        let now = c.get();
        c.set(Allocs { reallocs: now.reallocs + reallocs, bytes: now.bytes + bytes });
    });
}

// SAFETY: every call forwards to `System` unchanged; the only addition is
// a thread-local counter with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(1, new_size - layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the current thread allocated while running `f`. All zero unless
/// [`CountingAlloc`] is the test binary's global allocator.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = COUNTS.with(Cell::get);
    let value = f();
    let after = COUNTS.with(Cell::get);
    let used = Allocs { reallocs: after.reallocs - before.reallocs, bytes: after.bytes - before.bytes };
    (value, used)
}
