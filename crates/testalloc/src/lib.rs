//! Allocation counting for the tests that pin allocation behaviour
//! (the disabled profiler, the simulator's hot loop).
//!
//! A test binary installs [`CountingAlloc`] as its global allocator
//! and measures a region with [`measure`]:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: ms_testalloc::CountingAlloc = ms_testalloc::CountingAlloc;
//!
//! #[test]
//! fn hot_path_allocates_nothing() {
//!     let _gate = ms_testalloc::gate();
//!     let (allocs, ()) = ms_testalloc::measure(|| hot_path());
//!     assert_eq!(allocs.calls, 0);
//! }
//! ```
//!
//! The harness runs tests on parallel threads, so a process-wide count
//! would also see the allocations of sibling tests and of the harness
//! itself. Counts are therefore kept per thread: [`measure`] sees only
//! what its own thread allocates. Every test body also holds [`gate`],
//! so the allocation tests of one binary run one at a time, and a test
//! that changes process-wide state cannot overlap another's
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls (`alloc` and
/// `realloc`) and requested bytes on the calling thread.
#[derive(Debug)]
pub struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not counted
    // rather than aborting.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: delegates verbatim to the system allocator; the counters are
// plain thread-local cells with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made during one [`measure`]d region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc` plus `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

static MEASURE: Mutex<()> = Mutex::new(());

/// Serialises the tests of one binary: hold the guard for the whole
/// test body. A sibling test that panicked while holding it does not
/// poison the gate for the rest.
pub fn gate() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns what the calling thread allocated meanwhile.
/// Meaningful only in a binary whose global allocator is
/// [`CountingAlloc`].
pub fn measure<R>(f: impl FnOnce() -> R) -> (Allocs, R) {
    let now = || Allocs { calls: CALLS.with(Cell::get), bytes: BYTES.with(Cell::get) };
    let before = now();
    let out = f();
    let after = now();
    (Allocs { calls: after.calls - before.calls, bytes: after.bytes - before.bytes }, out)
}
