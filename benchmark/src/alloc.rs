//! The benchmark's global allocator: the system allocator plus, while
//! counting is on, allocation calls, the live-byte balance, and its
//! high-water mark.
//!
//! Counting is off while wall time is measured: shared counters bounce
//! one cache line between the pool's workers on every allocation, which
//! slowed two-worker runs by about a third. [`start`] switches it on
//! and zeroes every counter, so each memory sample or traced pass
//! reads its own peak; the peak is the most heap held live at once
//! above the balance at `start`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting while [`start`]ed.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(delta: i64) {
    if ON.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is relaxed counter bookkeeping, which
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Zeroes every counter and starts counting.
pub fn start() {
    CALLS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stops counting; the counters keep their values.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Allocation calls (alloc, alloc_zeroed, realloc) since [`start`].
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Highest live-byte balance since [`start`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}
