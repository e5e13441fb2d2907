//! The process's global allocator: the system allocator, counting live
//! heap bytes and their peak.
//!
//! `VmHWM` also counts memory the C allocator keeps after a free, and how
//! much it keeps depends on the order of earlier allocations (glibc raises
//! its mmap threshold to the size of each large block freed). That made
//! peak RSS differ by up to a third between seeds that ran the same probes
//! in another order. The peak of live bytes counted here depends only on
//! what the program holds at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting live and peak heap bytes.
#[derive(Debug)]
pub struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`. They
// are updated by load-then-store rather than read-modify-write: the
// benchmark allocates from one thread, where both are exact, and a locked
// add on every allocation cost about 12% of `defense_mix`'s throughput.
// Under concurrent allocation an update could be lost, which would blur
// the statistic and nothing else.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grown(bytes: usize) {
    let live = LIVE.load(Ordering::Relaxed).wrapping_add(bytes);
    LIVE.store(live, Ordering::Relaxed);
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.store(live, Ordering::Relaxed);
    }
}

fn shrunk(bytes: usize) {
    let live = LIVE.load(Ordering::Relaxed).wrapping_sub(bytes);
    LIVE.store(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees hold; the counters
// only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grown(new_size - layout.size());
            } else {
                shrunk(layout.size() - new_size);
            }
        }
        new
    }
}

/// Peak of live heap bytes since the process started.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
