//! The process launcher holds each rank's output once.
//!
//! A worker's report streams through its stdout pipe and is decoded as it
//! arrives, so the launcher never holds a report's raw bytes beside the
//! decoded output. This binary installs a counting global allocator — live
//! heap bytes of every thread, the launcher's per-worker threads included,
//! and their high-water mark — and launches a zero-step two-rank `DpTrain`
//! whose outputs are dominated by the model parameters (hidden 256 × 2
//! blocks, FFN 1024, vocab 512: about 9 MiB per rank).
//!
//! The launch's high-water mark above what was live before it may exceed
//! the returned parameters' bytes by at most [`SLACK`]. A launcher that
//! buffered each whole report before decoding it would hold one more
//! report per rank at its peak. A second check decodes a task output that
//! declares 16 GiB of floats with none present: its count must be refused
//! before anything is allocated for it.
//!
//! Its own binary because of the allocator, and `harness = false` because
//! the launch re-executes this binary as the rank workers, which divert
//! into `worker_boot()` first thing in `main`. Prints the marks.

#[cfg(unix)]
mod checks {
    use snip_core::TrainerConfig;
    use snip_pipeline::collective::{QuantizePolicy, Wire};
    use snip_pipeline::transport::proc::{proc_data_parallel_train, TaskOutput};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Bytes the launch may hold beyond its returned parameters: 2 MiB for
    /// the losses, ledgers, `START` encodings, per-worker stage buffers,
    /// thread and process bookkeeping and allocator noise (a fifth of one
    /// rank's parameters at this shape).
    const SLACK: usize = 2 << 20;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// The system allocator, counting live bytes and their high-water mark.
    struct Counting;

    impl Counting {
        fn grow(bytes: usize) {
            let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
            PEAK.fetch_max(live, Relaxed);
        }

        fn shrink(bytes: usize) {
            LIVE.fetch_sub(bytes, Relaxed);
        }
    }

    // SAFETY: every call forwards to `System` with the caller's arguments
    // unchanged; counting touches only atomics and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::grow(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::grow(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if new_size > layout.size() {
                Self::grow(new_size - layout.size());
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

    /// The high-water mark of live bytes over `f`, above what was live
    /// when it started, and its result.
    fn peak_over<T>(f: impl FnOnce() -> T) -> (usize, T) {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let out = f();
        (PEAK.load(Relaxed) - base, out)
    }

    fn mib(bytes: usize) -> f64 {
        bytes as f64 / (1024.0 * 1024.0)
    }

    fn config(data_seed: u64) -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny();
        let m = &mut cfg.model;
        (m.vocab_size, m.hidden, m.n_layers, m.n_heads) = (512, 256, 2, 4);
        (m.ffn_hidden, m.max_seq, m.quant_group) = (1024, 64, 128);
        cfg.data_seed = data_seed;
        cfg
    }

    fn a_launch_holds_each_rank_output_once() {
        let cfgs = [config(1), config(2)];
        let (peak, run) = peak_over(|| {
            proc_data_parallel_train(&cfgs, 0, &Wire::exact(), QuantizePolicy::EveryHop, 7)
                .expect("a zero-step launch succeeds")
        });
        let params: usize = run.params.iter().map(|p| 4 * p.len()).sum();
        assert!(params > 4 * SLACK, "the fixture's parameters must dominate");
        println!(
            "launch high-water mark +{:.2} MiB; bound {:.2} (parameters {:.2} + slack {:.2})",
            mib(peak),
            mib(params + SLACK),
            mib(params),
            mib(SLACK)
        );
        assert!(
            peak <= params + SLACK,
            "the launch held {peak} B; at most {params} + {SLACK} allowed"
        );
        println!("ok - a_launch_holds_each_rank_output_once");
    }

    fn a_declared_count_is_judged_before_it_is_allocated() {
        // TaskOutput::AllReduce: tag, fingerprint, then u32::MAX floats.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let (peak, decoded) = peak_over(|| TaskOutput::decode(&bytes));
        println!("refused decode high-water mark +{peak} B");
        assert!(decoded.is_err(), "{decoded:?}");
        assert!(peak < 64 * 1024, "a refused count allocated {peak} B");
        println!("ok - a_declared_count_is_judged_before_it_is_allocated");
    }

    pub fn run_all() {
        a_launch_holds_each_rank_output_once();
        a_declared_count_is_judged_before_it_is_allocated();
    }
}

fn main() {
    #[cfg(unix)]
    {
        // Spawned rank workers re-enter here; divert them before any check.
        // In the parent this is a no-op.
        snip_pipeline::transport::proc::worker_boot();
        checks::run_all();
        println!("all launch-memory checks passed");
    }
    #[cfg(not(unix))]
    println!("process transport is unix-only; nothing to check");
}
