//! A lazily-initialized, persistent worker pool for the GEMM engine.
//!
//! The dense and packed GEMM kernels used to spawn fresh OS threads per call
//! via `std::thread::scope`; at tens of microseconds per spawn — more under
//! load — that overhead was paid three times per linear layer per training
//! step. This pool spawns its workers **once**, on the first parallel
//! dispatch, and afterwards a parallel GEMM costs one queue push and a
//! condvar wake (single-digit microseconds, amortized across the job).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The pool never decides *what* a task computes — a job
//!    is a fixed list of `tasks` indices and each index owns a fixed,
//!    disjoint slice of the output. Which worker runs an index never changes
//!    the result, so outputs are bit-identical for every pool size
//!    (property-tested in `tests/pool_determinism.rs`).
//! 2. **std only.** No rayon/crossbeam: a `Mutex<VecDeque>` job board, a
//!    `Condvar` for idle workers, and atomics for in-job work distribution.
//! 3. **Callers participate.** The dispatching thread executes task indices
//!    alongside the workers, so a job can never deadlock even if every
//!    worker is busy with other jobs (including jobs dispatched from inside
//!    another job's task — the nested caller simply drains its own indices).
//!
//! Pool size is `SNIP_THREADS` (clamped to at least 1) when set, otherwise
//! [`std::thread::available_parallelism`]; it is read **once** at pool init
//! and cached — per-call `available_parallelism` syscalls were measurable on
//! the old path. Tests and tuning code can force the *task split* of a
//! region with [`with_threads`], which overrides the parallelism decision on
//! the current thread only (the worker count itself never changes after
//! init).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Cache-line alignment for GEMM scratch buffers: covers every vector width
/// we dispatch to (32-byte AVX2, 64-byte AVX-512) and keeps tiles from
/// straddling lines.
pub(crate) const SCRATCH_ALIGN: usize = 64;

/// A grow-only `f32` buffer whose storage is always [`SCRATCH_ALIGN`]-byte
/// aligned — `Vec<f32>` only guarantees 4.
///
/// The B-side tile cache and per-worker tile scratch live in these so the
/// SIMD microkernels stream k-major tile rows from aligned, cache-line-sized
/// slots. The kernels still use unaligned loads (output rows land at
/// arbitrary `j0` offsets and correctness never depends on alignment), but
/// aligned tile bases mean an 8-lane load never splits across two lines.
/// Alignment can't change results — only which micro-op the load decodes to.
///
/// Like the `prep` pattern on `Vec`, `prep` here zero-fills the requested
/// length; capacity never shrinks for the lifetime of the worker.
pub(crate) struct AlignedVec {
    ptr: NonNull<f32>,
    cap: usize,
    len: usize,
}

// SAFETY: the buffer is plain `f32` storage with unique ownership; sending
// it (or a shared reference) across threads is as safe as `Vec<f32>`.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    pub(crate) const fn new() -> Self {
        AlignedVec {
            ptr: NonNull::dangling(),
            cap: 0,
            len: 0,
        }
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f32>(), SCRATCH_ALIGN)
            .expect("scratch layout overflow")
    }

    /// Returns a zeroed slice of exactly `len` floats, growing the
    /// allocation if needed.
    pub(crate) fn prep(&mut self, len: usize) -> &mut [f32] {
        if len > self.cap {
            let new_cap = len.next_power_of_two();
            let layout = Self::layout(new_cap);
            // Grow-only scratch has no contents worth copying: drop the old
            // allocation and take a fresh zeroed one.
            unsafe { self.release() };
            let raw = unsafe { alloc_zeroed(layout) } as *mut f32;
            self.ptr = NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout));
            self.cap = new_cap;
            self.len = len;
            // Freshly zeroed; skip the fill below.
            return unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), len) };
        }
        self.len = len;
        let s = unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), len) };
        s.fill(0.0);
        s
    }

    /// The slice produced by the last [`prep`](Self::prep) call.
    pub(crate) fn as_slice(&self) -> &[f32] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Frees the current allocation (no-op when empty). Caller must not use
    /// `ptr` afterwards without reassigning it.
    unsafe fn release(&mut self) {
        if self.cap > 0 {
            dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            self.cap = 0;
            self.len = 0;
        }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        unsafe { self.release() };
    }
}

/// One parallel region: a fixed number of task indices, a lifetime-erased
/// task function, and a completion latch.
struct Job {
    /// The task body. The pointee lives on the dispatching caller's stack;
    /// the caller does not return before `done == total`, which keeps the
    /// erased reference valid for every dereference (task indices `< total`
    /// are claimed before the caller can observe completion).
    task: *const (dyn Fn(usize) + Sync),
    /// Number of task indices in the job.
    total: usize,
    /// Next unclaimed task index (may overshoot `total`; claims at or above
    /// it are no-ops).
    next: AtomicUsize,
    /// Completed-task count plus the completion signal.
    done: Mutex<usize>,
    finished: Condvar,
    /// First panic payload raised by a task, re-raised on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The dispatching thread's forced SIMD backend at submit time. Workers
    /// install it for the duration of their drain so a region under
    /// [`crate::engine::simd::with_forced_backend`] runs the same kernel
    /// tier on every thread that serves it (thread-locals don't cross the
    /// pool on their own).
    forced_backend: Option<crate::engine::simd::Backend>,
    /// Submit time against the trace epoch, captured only when telemetry
    /// collection is on; workers turn it into the `pool.queue_wait_ns`
    /// histogram when they pop a board entry.
    submitted_ns: Option<u64>,
}

// SAFETY: `task` is only dereferenced while the dispatching caller is
// blocked in `run`, and the pointee is `Sync` (shared `&` calls from many
// threads are its contract).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs task indices until none are left, then reports the
    /// count it completed. Tasks run under the submitting thread's forced
    /// SIMD backend (a no-op re-install on the caller itself).
    fn drain(&self) {
        crate::engine::simd::with_forced_raw(self.forced_backend, || self.drain_inner());
    }

    fn drain_inner(&self) {
        let mut completed = 0usize;
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.total {
                break;
            }
            // SAFETY: t < total, so the caller is still parked in `run` and
            // the task reference is live.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(t))) {
                let mut slot = self.panic.lock().expect("job panic slot poisoned");
                slot.get_or_insert(payload);
            }
            completed += 1;
        }
        if completed > 0 {
            let mut done = self.done.lock().expect("job latch poisoned");
            *done += completed;
            if *done == self.total {
                self.finished.notify_all();
            }
        }
    }
}

/// The shared job board workers block on.
struct Board {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
}

/// The process-wide pool: worker handles are detached, the board is shared.
struct Pool {
    board: Arc<Board>,
    /// Cached parallelism (callers + workers): `SNIP_THREADS` or
    /// `available_parallelism`, read once at init.
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Per-thread forced task-split width (see [`with_threads`]).
    static FORCED: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn configured_threads() -> usize {
    // Shared parse + warn-once idiom (`crate::env`): an unparsable
    // override falls back loudly — silently ignoring a typo'd value would
    // leave the operator convinced parallelism is pinned.
    snip_obs::env::read("SNIP_THREADS", "a positive integer (thread count)", |v| {
        v.parse::<usize>().ok().map(|n| n.max(1))
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let board = Arc::new(Board {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        // The caller is worker 0; spawn the rest. Workers are detached:
        // they live for the process and park on the board when idle.
        for i in 1..threads {
            let board = Arc::clone(&board);
            std::thread::Builder::new()
                .name(format!("snip-gemm-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut q = board.queue.lock().expect("job board poisoned");
                        loop {
                            if let Some(job) = q.pop_front() {
                                break job;
                            }
                            q = board.available.wait(q).expect("job board poisoned");
                        }
                    };
                    if let Some(submitted) = job.submitted_ns {
                        snip_obs::hist_record(
                            "pool.queue_wait_ns",
                            snip_obs::trace::now_ns().saturating_sub(submitted),
                        );
                    }
                    job.drain();
                })
                .expect("failed to spawn GEMM pool worker");
        }
        Pool { board, threads }
    })
}

/// The pool's parallelism: `SNIP_THREADS` if set, else
/// `available_parallelism`, cached at first use. Always at least 1.
pub fn size() -> usize {
    pool().threads
}

/// The forced task split installed by [`with_threads`] on this thread, if
/// any.
pub(crate) fn forced_threads() -> Option<usize> {
    FORCED.with(|f| f.get())
}

/// Runs `f` with every parallel region on this thread forced to split into
/// exactly `n` tasks (bypassing the work-size threshold), then restores the
/// previous setting. `n` is a *split* width, not a worker count: values
/// above the pool size still execute, with tasks queuing for free workers.
///
/// Kernel results are bit-identical for every `n` — this hook exists so
/// tests can prove that cheaply (serial vs. split runs of small problems)
/// and so callers can pin the split for benchmarking.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.max(1);
    let prev = FORCED.with(|c| c.replace(Some(n)));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Number of tasks a region of `work` units should split into: 1 below
/// `threshold`, the cached pool size above it, and the forced split width
/// inside [`with_threads`] regardless of size.
pub fn parts_for(work: usize, threshold: usize) -> usize {
    if let Some(n) = forced_threads() {
        return n;
    }
    if work < threshold {
        1
    } else {
        size()
    }
}

/// Runs `f(i, items[i])` for every item across the pool, each item moved
/// into the one task that owns it — the safe way for callers outside this
/// crate to fan disjoint `&mut` output bands out to workers. Returns when
/// every item has been processed; which worker runs an item can never
/// affect a result the item's own data determines.
pub fn for_each_owned<T: Send>(items: Vec<T>, f: impl Fn(usize, T) + Sync) {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run(slots.len(), &|i| {
        let item = slots[i]
            .lock()
            .expect("a slot is locked once, by its own task")
            .take()
            .expect("the pool runs each index exactly once");
        f(i, item);
    });
}

/// Executes `task(0..tasks)` across the pool, returning when every index
/// has completed. The calling thread participates, so progress never
/// depends on a free worker. Panics in tasks propagate to the caller after
/// the whole job has drained (the output buffer is fully released first).
pub(crate) fn run(tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    if tasks <= 1 {
        if tasks == 1 {
            task(0);
        }
        return;
    }
    let p = pool();
    // Telemetry observes only (zero-bit contract): the disabled path costs
    // this one relaxed load per parallel region.
    let obs = snip_obs::enabled();
    if obs {
        snip_obs::counter_add("pool.jobs", 1);
        snip_obs::counter_add("pool.tasks", tasks as u64);
    }
    let job = Arc::new(Job {
        task: unsafe {
            // SAFETY: erase the caller-stack lifetime; `run` blocks until
            // `done == total`, after which no worker dereferences `task`
            // (stale queue entries observe `next >= total` and drop).
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        },
        total: tasks,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        finished: Condvar::new(),
        panic: Mutex::new(None),
        forced_backend: crate::engine::simd::forced_backend(),
        submitted_ns: obs.then(snip_obs::trace::now_ns),
    });
    // One board entry per helper we could use; each popped entry drains the
    // job, so more entries than `threads - 1` would only wake workers to
    // find nothing left.
    let helpers = (tasks - 1).min(p.threads.saturating_sub(1));
    if helpers > 0 {
        let mut q = p.board.queue.lock().expect("job board poisoned");
        for _ in 0..helpers {
            q.push_back(Arc::clone(&job));
        }
        drop(q);
        for _ in 0..helpers {
            p.board.available.notify_one();
        }
    }
    job.drain();
    let mut done = job.done.lock().expect("job latch poisoned");
    while *done < tasks {
        done = job.finished.wait(done).expect("job latch poisoned");
    }
    drop(done);
    if let Some(submitted) = job.submitted_ns {
        snip_obs::hist_record(
            "pool.job_ns",
            snip_obs::trace::now_ns().saturating_sub(submitted),
        );
    }
    let payload = job.panic.lock().expect("job panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_every_index_exactly_once() {
        for tasks in [0usize, 1, 2, 3, 7, 64, 500] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            run(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} of {tasks}");
            }
        }
    }

    #[test]
    fn caller_observes_all_writes() {
        let sum = AtomicU64::new(0);
        run(257, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 257 * 256 / 2);
    }

    #[test]
    fn nested_dispatch_completes() {
        // A task that itself dispatches a parallel region must not deadlock
        // even when every worker is busy: callers drain their own indices.
        let total = AtomicU64::new(0);
        run(4, &|_| {
            run(8, &|j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        assert_eq!(forced_threads(), None);
        with_threads(3, || {
            assert_eq!(forced_threads(), Some(3));
            with_threads(1, || assert_eq!(forced_threads(), Some(1)));
            assert_eq!(forced_threads(), Some(3));
        });
        assert_eq!(forced_threads(), None);
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let result = std::panic::catch_unwind(|| {
            run(16, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let n = AtomicUsize::new(0);
        run(16, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn size_is_at_least_one() {
        assert!(size() >= 1);
    }

    #[test]
    fn aligned_vec_is_aligned_zeroed_and_reusable() {
        let mut v = AlignedVec::new();
        for len in [1usize, 7, 64, 65, 1000, 3] {
            let s = v.prep(len);
            assert_eq!(s.len(), len);
            assert_eq!(s.as_ptr() as usize % SCRATCH_ALIGN, 0);
            assert!(s.iter().all(|&x| x == 0.0), "len {len} not zeroed");
            s.fill(3.5); // dirty it so the next prep must re-zero
            assert_eq!(v.as_slice().len(), len);
        }
    }
}
