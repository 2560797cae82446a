//! A counting `#[global_allocator]`: heap calls and bytes of the traced
//! run. Off by default — the timed runs pay one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed throughout: the counters are statistics and publish no data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Counts heap calls made while `f` runs, on every thread of this
/// process; returns `f`'s result with `(calls, bytes)`.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls0, bytes0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls0,
        BYTES.load(Ordering::Relaxed) - bytes0,
    )
}
