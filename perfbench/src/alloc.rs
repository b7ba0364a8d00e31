//! A counting wrapper around the system allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global
//! allocator, so allocation counts are read from outside the program: no
//! hook inside the simulator. Counts are deterministic for a fixed input on
//! one thread, which makes them exact per-layer evidence where timings are
//! noisy (a structure a scheme does not need, or an allocation inside the
//! reference loop, shows up as a count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation calls and requested bytes, then defers to [`System`].
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls (alloc, alloc_zeroed and realloc) and the bytes they
/// requested, cumulative since process start or over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// The process-wide counters now. Without [`CountingAlloc`] installed
    /// (as in unit tests) they stay zero.
    pub fn now() -> AllocCount {
        AllocCount {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and now.
    pub fn since(earlier: AllocCount) -> AllocCount {
        let now = AllocCount::now();
        AllocCount {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, other: AllocCount) {
        self.calls += other.calls;
        self.bytes += other.bytes;
    }
}
