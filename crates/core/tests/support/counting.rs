//! Test support: the one counting global allocator of the memory tests.
//!
//! A test binary that includes this file (`#[path = …] mod counting;`)
//! routes every allocation of every thread — pool workers and launcher
//! threads included — through [`Counting`]. It tracks the live heap bytes
//! and their high-water mark ([`live`], [`high_water`]) and, while
//! [`large_allocations`] runs, counts the allocations of at least a given
//! size by alignment class. It is test support, so no library crate
//! carries its `unsafe`.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Large-allocation counting: on, its size floor, and per class (alignment
/// wider than 1, byte buffers) the calls and their bytes.
static COUNTING: AtomicBool = AtomicBool::new(false);
static FLOOR: AtomicUsize = AtomicUsize::new(usize::MAX);
static WIDE_CALLS: AtomicUsize = AtomicUsize::new(0);
static WIDE_BYTES: AtomicUsize = AtomicUsize::new(0);
static BYTE_CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting.
pub struct Counting;

impl Counting {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Relaxed);
    }

    /// Counts an allocation of `size` bytes at `align` if large counting
    /// is on and it reaches the floor.
    fn note(size: usize, align: usize) {
        if !COUNTING.load(Relaxed) || size < FLOOR.load(Relaxed) {
            return;
        }
        let (calls, bytes) = if align == 1 {
            (&BYTE_CALLS, &BYTE_BYTES)
        } else {
            (&WIDE_CALLS, &WIDE_BYTES)
        };
        calls.fetch_add(1, Relaxed);
        bytes.fetch_add(size, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        Self::note(layout.size(), layout.align());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        Self::note(layout.size(), layout.align());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            Self::grow(new_size - layout.size());
            Self::note(new_size, layout.align());
        } else {
            Self::shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes live now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// The high-water mark of live bytes while `f` runs (counting what was
/// live when it started), and its result.
pub fn high_water<T>(f: impl FnOnce() -> T) -> (usize, T) {
    PEAK.store(live(), Relaxed);
    let out = f();
    (PEAK.load(Relaxed), out)
}

/// Allocations of at least `floor` bytes made while `f` runs, per class:
/// `[calls, bytes]` with an alignment wider than 1, then `[calls, bytes]`
/// of byte buffers; and `f`'s result.
pub fn large_allocations<T>(floor: usize, f: impl FnOnce() -> T) -> ([usize; 4], T) {
    let counters = [&WIDE_CALLS, &WIDE_BYTES, &BYTE_CALLS, &BYTE_BYTES];
    counters.iter().for_each(|c| c.store(0, Relaxed));
    FLOOR.store(floor, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (counters.map(|c| c.load(Relaxed)), out)
}

/// `bytes` in MiB, for printing.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
