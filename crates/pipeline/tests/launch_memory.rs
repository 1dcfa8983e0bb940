//! The process launcher holds each rank's output once, and no copy of its input.
//!
//! A worker's report streams through its stdout pipe and is decoded as it
//! arrives, so the launcher never holds a report's raw bytes beside the
//! decoded output, and it encodes `START` from the caller's data, so it
//! holds no copy of a gradient it is asked to reduce. This binary counts
//! with the shared counting allocator (`core/tests/support/counting.rs`:
//! live heap bytes of every thread, the launcher's per-worker threads
//! included, and their high-water mark). It launches a zero-step two-rank
//! `DpTrain` whose outputs are dominated by the model parameters (hidden
//! 256 × 2 blocks, FFN 1024, vocab 512: about 9 MiB per rank), and a
//! two-rank exact all-reduce of 16 MiB per rank.
//!
//! Each launch's high-water mark above what was live before it may exceed
//! the returned outputs' bytes by at most [`SLACK`]. A launcher that
//! buffered each whole report before decoding it would hold one more
//! report per rank at its peak; one that copied each gradient into its
//! task would hold one more gradient. A third check decodes a task output
//! that declares 16 GiB of floats with none present: its count must be
//! refused before anything is allocated for it.
//!
//! Its own binary because of the allocator, and `harness = false` because
//! the launch re-executes this binary as the rank workers, which divert
//! into `worker_boot()` first thing in `main`. Prints the marks.

#[path = "../../core/tests/support/counting.rs"]
mod counting;

#[cfg(unix)]
mod checks {
    use super::counting::{high_water, live, mib};
    use snip_core::TrainerConfig;
    use snip_pipeline::collective::{QuantizePolicy, Wire};
    use snip_pipeline::transport::proc::{proc_all_reduce, proc_data_parallel_train, TaskOutput};

    /// Bytes the launch may hold beyond its returned parameters: 2 MiB for
    /// the losses, ledgers, `START` encodings, per-worker stage buffers,
    /// thread and process bookkeeping and allocator noise (a fifth of one
    /// rank's parameters at this shape).
    const SLACK: usize = 2 << 20;

    /// The high-water mark of live bytes over `f`, above what was live
    /// when it started, and its result.
    fn peak_over<T>(f: impl FnOnce() -> T) -> (usize, T) {
        let base = live();
        let (peak, out) = high_water(f);
        (peak - base, out)
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

    fn an_all_reduce_encodes_start_from_the_callers_gradients() {
        // 16 MiB of gradient per rank, owned by the caller: START is
        // encoded from the borrow, so the launch holds no copy of it
        // beside the two START encodings, which are gone before the
        // outputs arrive.
        const N: usize = 4 << 20;
        let grads: Vec<Vec<f32>> = (0..2)
            .map(|r| (0..N).map(|i| (i % 1024) as f32 * 0.5 + r as f32).collect())
            .collect();
        let (peak, (outputs, _)) = peak_over(|| {
            proc_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &[1, 2])
                .expect("an exact all-reduce succeeds")
        });
        let returned: usize = outputs
            .iter()
            .map(|o| match o {
                TaskOutput::AllReduce { data, .. } => 4 * data.len(),
                other => panic!("an all-reduce returned {other:?}"),
            })
            .sum();
        println!(
            "all-reduce high-water mark +{:.2} MiB; bound {:.2} (outputs {:.2} + slack {:.2})",
            mib(peak),
            mib(returned + SLACK),
            mib(returned),
            mib(SLACK)
        );
        assert!(
            peak <= returned + SLACK,
            "the all-reduce launch held {peak} B; at most {returned} + {SLACK} allowed"
        );
        println!("ok - an_all_reduce_encodes_start_from_the_callers_gradients");
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
        an_all_reduce_encodes_start_from_the_callers_gradients();
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
