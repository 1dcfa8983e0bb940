//! A step-scoped arena for large `f32` buffers.
//!
//! A training step allocates the same tensors, at the same sizes, every
//! step. Left to the allocator, each step's activations, gradients and GEMM
//! outputs are blocks of hundreds of KiB to a few MiB. glibc serves them
//! with `mmap`, or trims them back to the OS once freed, so the next step
//! takes a page fault on every 4 KiB page it writes again. This arena keeps
//! those buffers instead and hands them back at the next request of the
//! same length.
//!
//! **What it recycles.** `Vec<f32>` buffers of at least [`FLOOR`] floats:
//! [`Tensor`](crate::Tensor) storage (its constructors take from here and
//! its `Drop` gives back) and plain buffers whose owners call [`take`] and
//! [`give`] explicitly, such as the data-parallel ring's. Smaller buffers
//! are left to the allocator, which already reuses them in place.
//!
//! **Lifetime.** The arena is thread-local: a buffer is kept by, and only
//! handed out to, the thread that dropped it. It keeps a buffer only while
//! that thread is inside a [`Scope`]; the trainer opens one around each
//! whole step (forward, backward, gradient hook, clip and optimizer). A
//! buffer dropped outside every scope goes back to the allocator, so a
//! process that never trains, such as a multi-process launcher, keeps
//! nothing. A kept buffer that no request takes during the next scope is
//! released when the scope after that opens, so a size that stops being
//! used stops costing memory after one step. In builds with debug
//! assertions every kept buffer is filled with NaN, so code that reads a
//! taken buffer before writing all of it fails its fingerprints instead of
//! reading last step's values.
//!
//! **Why not tune the allocator.** `mallopt`, or glibc's
//! `MALLOC_MMAP_THRESHOLD_` / `MALLOC_TRIM_THRESHOLD_` environment
//! variables, buy most of the same gain, but they work only on glibc, apply
//! to the whole process (a launcher that never trains grew its resident set
//! by tens of MiB under them) and are one more setting to get right. The
//! arena needs neither and changes no numeric result: every buffer it hands
//! out is written in full by its taker before it is read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Buffers shorter than this many floats (128 KiB) are never kept. It is
/// glibc's default `M_MMAP_THRESHOLD`: blocks below it come from the heap
/// and are reused in place by the allocator itself, blocks above it are
/// the ones that get mapped and unmapped (or trimmed) around every step.
pub const FLOOR: usize = 32 * 1024;

/// Kept buffers of one capacity, each with the generation it was given in.
type Kept = Vec<(u64, Vec<f32>)>;

thread_local! {
    /// How many [`Scope`]s this thread is inside.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The number of outermost scopes this thread has opened.
    static GENERATION: Cell<u64> = const { Cell::new(0) };
    /// Kept buffers by capacity.
    static KEPT: RefCell<BTreeMap<usize, Kept>> = const { RefCell::new(BTreeMap::new()) };
}

/// While alive, buffers this thread drops are kept for reuse. Scopes nest;
/// only the outermost one starts a new generation. Not `Send`: a scope
/// belongs to the thread that opened it.
#[must_use = "buffers are kept only while the scope is alive"]
pub struct Scope {
    _thread: PhantomData<*const ()>,
}

/// Opens a scope on this thread. Opening an outermost scope releases every
/// kept buffer that the previous outermost scope did not take.
pub fn scope() -> Scope {
    let depth = DEPTH.with(|d| {
        d.set(d.get() + 1);
        d.get()
    });
    if depth == 1 {
        let generation = GENERATION.with(|g| {
            g.set(g.get() + 1);
            g.get()
        });
        KEPT.with(|kept| {
            let mut kept = kept.borrow_mut();
            for list in kept.values_mut() {
                list.retain(|&(given, _)| given + 1 >= generation);
            }
            kept.retain(|_, list| !list.is_empty());
        });
    }
    Scope {
        _thread: PhantomData,
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Whether this thread is inside a [`Scope`].
fn in_scope() -> bool {
    DEPTH.try_with(Cell::get).unwrap_or(0) > 0
}

/// A kept buffer of exactly `len` floats, if this thread has one.
fn reuse(len: usize) -> Option<Vec<f32>> {
    if len < FLOOR {
        return None;
    }
    KEPT.try_with(|kept| {
        let mut kept = kept.borrow_mut();
        let list = kept.get_mut(&len)?;
        let (_, v) = list.pop()?;
        if list.is_empty() {
            kept.remove(&len);
        }
        Some(v)
    })
    .ok()
    .flatten()
}

/// A buffer of `len` floats whose contents are unspecified: the taker must
/// write every element before reading any. A reused buffer holds whatever
/// its last owner left (NaN in builds with debug assertions); a fresh one
/// is zeroed.
pub fn take(len: usize) -> Vec<f32> {
    reuse(len).unwrap_or_else(|| vec![0.0; len])
}

/// A buffer of `len` zeros: a reused buffer is cleared, a fresh one comes
/// zeroed from the allocator.
pub fn zeroed(len: usize) -> Vec<f32> {
    match reuse(len) {
        Some(mut v) => {
            v.fill(0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// Hands a buffer back. It is kept if it holds at least [`FLOOR`] floats
/// and this thread is inside a [`Scope`]; otherwise it is freed.
pub fn give(mut v: Vec<f32>) {
    let cap = v.capacity();
    if cap < FLOOR || !in_scope() {
        return;
    }
    // Whole capacity, initialized: a later `take(cap)` hands out all of it.
    v.resize(cap, 0.0);
    if cfg!(debug_assertions) {
        v.fill(f32::NAN);
    }
    let generation = GENERATION.with(Cell::get);
    // During thread teardown the list may already be gone; the buffer is
    // then simply freed.
    let _ = KEPT.try_with(|kept| {
        kept.borrow_mut()
            .entry(cap)
            .or_default()
            .push((generation, v));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floats currently kept by this thread.
    fn kept_floats() -> usize {
        KEPT.with(|kept| {
            kept.borrow()
                .iter()
                .map(|(cap, list)| cap * list.len())
                .sum()
        })
    }

    /// Each test runs on its own thread, so the thread-local arena starts
    /// empty.
    #[test]
    fn nothing_is_kept_outside_a_scope() {
        give(vec![1.0; FLOOR]);
        assert_eq!(kept_floats(), 0);
    }

    #[test]
    fn small_buffers_are_never_kept() {
        let _s = scope();
        give(vec![1.0; FLOOR - 1]);
        assert_eq!(kept_floats(), 0);
    }

    #[test]
    fn a_kept_buffer_is_reused_at_its_length_only() {
        let v = vec![1.0; FLOOR];
        let ptr = v.as_ptr();
        {
            let _s = scope();
            give(v);
        }
        assert_eq!(kept_floats(), FLOOR);
        let other = take(FLOOR + 1);
        assert_ne!(other.as_ptr(), ptr);
        let again = take(FLOOR);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), FLOOR);
        assert_eq!(kept_floats(), 0);
    }

    #[test]
    fn zeroed_clears_a_reused_buffer() {
        {
            let _s = scope();
            give(vec![1.0; FLOOR]);
        }
        assert!(zeroed(FLOOR).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn kept_buffers_are_poisoned_in_debug_builds() {
        {
            let _s = scope();
            give(vec![1.0; FLOOR]);
        }
        let v = take(FLOOR);
        assert_eq!(v.iter().all(|x| x.is_nan()), cfg!(debug_assertions));
    }

    #[test]
    fn a_buffer_untaken_for_a_whole_scope_is_released() {
        {
            let _s = scope();
            give(vec![1.0; FLOOR]);
        }
        // The next scope may still take it...
        drop(scope());
        assert_eq!(kept_floats(), FLOOR);
        // ...but once that scope has passed without doing so, it goes.
        drop(scope());
        assert_eq!(kept_floats(), 0);
    }

    #[test]
    fn nested_scopes_keep_the_generation() {
        let _outer = scope();
        {
            let _inner = scope();
            give(vec![1.0; FLOOR]);
        }
        drop(scope());
        give(vec![1.0; FLOOR]);
        assert_eq!(kept_floats(), 2 * FLOOR);
    }
}
