//! Peak heap of one repetition, counted by wrapping the system allocator.
//!
//! The resident set of a repetition depends on where the allocator places
//! large blocks (whether a growing buffer is remapped or copied), which
//! varies between processes by a third on the server workloads. The bytes
//! the program holds live do not, so they are what `peak_heap_mb` reports.
//!
//! Counting is off unless a [`start`]…[`stop`] window is open, and only
//! the untimed heap repetition opens one: the timed repetitions pay one
//! relaxed load and a branch per allocator call, not the counters' atomic
//! read-modify-writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Whether allocator calls are counted. Statistics only: `Relaxed`
/// publishes nothing.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`start`]. Signed: blocks
/// allocated before the window may be freed inside it.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of [`LIVE`] since [`start`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (i.e. `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Opens a counting window: from here on, allocations and frees count.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Closes the window and returns its peak heap growth in MB: the most
/// bytes the program held beyond what it held at [`start`].
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
