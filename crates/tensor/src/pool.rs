//! A lazily-initialized, persistent worker pool for every parallel region
//! of a training step.
//!
//! Its users are the GEMM engine (output-row bands of one product), the
//! elementwise [`Tensor`](crate::Tensor) ops (contiguous element bands of
//! one large tensor), `snip-quant`'s pack engine (runs of whole scale-group
//! rows of one large tensor), `snip-nn`'s attention (one task per
//! sequence, forward and backward), the per-parameter passes of `snip-nn`
//! and `snip-optim` (gradient zeroing, the clip norm and scale, the AdamW
//! update) and the SNIP probe's statistics ([`reduce`]). The pool spawns
//! its workers **once**, on the first parallel dispatch, and afterwards a
//! region costs one queue push and a condvar wake, amortized across the
//! job — spawning fresh threads per call cost a thread spawn each. What a
//! wake costs on a given machine is the `pool.queue_wait_ns` histogram of
//! a traced run (`SNIP_TRACE`): submit to the moment a worker picks the job
//! up.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The pool never decides *what* a task computes — a job
//!    is a fixed list of `tasks` indices and each index owns a fixed,
//!    disjoint slice of the output (or one whole reduction, whose value is
//!    returned in task order). Which worker runs an index never changes
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
//! the current thread and on the workers serving its regions, and caps the
//! threads a region runs on at that split (the worker count itself never
//! changes after init).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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
    /// The dispatching thread's forced task split at submit time (see
    /// [`with_threads`]), installed the same way so a region nested inside
    /// a task splits as it would on the caller.
    forced_split: Option<usize>,
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
        crate::engine::simd::with_forced_raw(self.forced_backend, || {
            with_split(self.forced_split, || self.drain_inner())
        });
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
                .name(format!("snip-pool-{i}"))
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
                .expect("failed to spawn pool worker");
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
/// exactly `n` tasks (bypassing the work-size threshold) and to run on at
/// most `n` threads, the caller included, then restores the previous
/// setting. Workers serving those regions inherit the setting for nested
/// regions. `n` is a *split* width, not a worker count: values above the
/// pool size still execute, with tasks queuing for free workers, and
/// `with_threads(1, …)` runs everything on the calling thread.
///
/// Kernel results are bit-identical for every `n` — this hook exists so
/// tests can prove that cheaply (serial vs. split runs of small problems)
/// and so callers can pin the split for benchmarking.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_split(Some(n.max(1)), f)
}

/// Runs `f` with this thread's forced split set to `split`, restoring the
/// previous value afterwards (also on unwind).
fn with_split<R>(split: Option<usize>, f: impl FnOnce() -> R) -> R {
    let prev = FORCED.with(|c| c.replace(split));
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
/// inside [`with_threads`] regardless of size. Callers outside this crate
/// (the pack engine of `snip-quant`) pass [`crate::PARALLEL_ELEMENTS`], so
/// every split follows one rule.
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

/// One independent scalar reduction over borrowed data.
pub type Reduction<'a> = Box<dyn FnOnce() -> f64 + Send + 'a>;

/// Evaluates every reduction across the pool, one whole reduction per task,
/// and returns their values in task order. A task runs its reduction
/// serially from start to end, so a value never depends on the split or on
/// which worker computed it; a caller that combines the values folds them
/// in task order.
pub fn reduce(tasks: Vec<Reduction<'_>>) -> Vec<f64> {
    let mut values = vec![0.0; tasks.len()];
    for_each_owned(
        values.iter_mut().zip(tasks).collect(),
        |_, (value, task)| *value = task(),
    );
    values
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
        forced_split: forced_threads(),
        submitted_ns: obs.then(snip_obs::trace::now_ns),
    });
    // One board entry per helper we could use; each popped entry drains the
    // job, so more entries than `threads - 1` would only wake workers to
    // find nothing left. A forced split also caps the threads: under
    // `with_threads(1, …)` the caller drains every task itself.
    let threads = job.forced_split.map_or(p.threads, |n| n.min(p.threads));
    let helpers = (tasks - 1).min(threads.saturating_sub(1));
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

    /// The distinct threads that ran the tasks of one 64-task region under
    /// `with_threads(n)`, each task busy long enough for idle workers to
    /// claim some.
    fn threads_serving(n: usize) -> std::collections::HashSet<std::thread::ThreadId> {
        let ids = Mutex::new(std::collections::HashSet::new());
        with_threads(n, || {
            run(64, &|_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                ids.lock().unwrap().insert(std::thread::current().id());
            })
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn a_forced_split_caps_the_threads_a_region_runs_on() {
        let caller = std::thread::current().id();
        assert_eq!(threads_serving(1), [caller].into_iter().collect());
        assert!(threads_serving(2).len() <= 2);
        // Whichever thread runs a task, a region nested in it splits (and
        // is capped) as the dispatching thread's would be.
        let seen = Mutex::new(Vec::new());
        with_threads(3, || {
            run(16, &|_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                seen.lock().unwrap().push(forced_threads());
            })
        });
        assert_eq!(seen.into_inner().unwrap(), vec![Some(3); 16]);
    }

    #[test]
    fn reduce_returns_values_in_task_order() {
        let data: Vec<f64> = (0..40).map(f64::from).collect();
        for split in [1, 2, 3, size() + 3] {
            let tasks = data
                .chunks(7)
                .map(|c| Box::new(move || c.iter().sum::<f64>()) as Reduction<'_>)
                .collect();
            let got = with_threads(split, || reduce(tasks));
            let want: Vec<f64> = data.chunks(7).map(|c| c.iter().sum()).collect();
            assert_eq!(got, want, "split {split}");
        }
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
}
