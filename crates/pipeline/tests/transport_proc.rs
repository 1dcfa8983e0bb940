//! Loopback tests for the multi-**process** socket transport.
//!
//! These pin the PR 4 acceptance criteria: the process backend (rank
//! workers connected by Unix sockets, spawned by re-executing this very
//! binary) is bit-identical to the threaded transport *and* to the in-proc
//! ring simulator of `support` — same reduced gradients, same per-rank RNG
//! streams (checked via post-collective fingerprints), same payload byte
//! counters equal to `comm::codec_wire_bytes` for every codec, ragged
//! tails included — and both sides of every socket account identical
//! volumes. CI runs this file under `cargo test --release` as well:
//! buffering and timing bugs hide in debug.
//!
//! The file opts out of the libtest harness (`harness = false` in
//! Cargo.toml) because spawned rank workers re-enter through `main`, which
//! must divert them into `worker_boot()` before any test logic runs.

mod support;

#[cfg(unix)]
mod checks {
    use crate::support::{
        all_wires, assert_bits_equal, failure_counters_moved_by, make_grads, proc_collective,
        ring_all_reduce, ring_reduce_scatter, Collective, CollectiveResult, ProcCollective,
    };
    use snip_core::{Trainer, TrainerConfig};
    use snip_pipeline::collective::{QuantizePolicy, Wire};
    use snip_pipeline::comm::codec_wire_bytes;
    use snip_pipeline::transport::proc::{proc_data_parallel_train, run_task, ProcError, Task};
    use snip_pipeline::transport::{data_parallel_train, run_ranks, FailureClass, RankChunk};
    use snip_tensor::rng::Rng;

    /// `collective` on OS-thread ranks, in the process driver's result
    /// shape: each rank's payload and chunk, its RNG fingerprint drawn
    /// after the collective, and the merged counters.
    fn threaded_collective(
        grads: &[Vec<f32>],
        wire: &Wire,
        collective: Collective,
        policy: QuantizePolicy,
        seeds: &[u64],
    ) -> ProcCollective {
        let (outputs, stats) = run_ranks(grads.len(), None, |ep| {
            let mut rng = Rng::seed_from(seeds[ep.rank()]);
            let grad = &grads[ep.rank()];
            let chunk = match collective {
                Collective::ReduceScatter => ep.ring_reduce_scatter(grad, wire, policy, &mut rng),
                Collective::AllReduce => {
                    ep.ring_all_reduce(grad, wire, policy, &mut rng)
                        .map(|data| RankChunk {
                            lo: 0,
                            hi: data.len(),
                            data,
                        })
                }
            };
            (chunk.expect("threaded collective"), rng.next_u64())
        });
        let (chunks, rng_fingerprints): (Vec<RankChunk>, Vec<u64>) = outputs.into_iter().unzip();
        let result = CollectiveResult {
            owned: chunks.iter().map(|c| (c.lo, c.hi)).collect(),
            per_rank: chunks.into_iter().map(|c| c.data).collect(),
            bytes_on_wire: stats.total_payload_bytes(),
        };
        ProcCollective {
            result,
            rng_fingerprints,
            stats,
        }
    }

    /// Reduce-scatter under both policies and all-reduce, over worker
    /// processes == threaded == oracle, for every codec and ring size:
    /// owned chunks, reduced bits, measured bytes and RNG streams — and
    /// after an all-reduce every rank holds rank 0's bits, because each
    /// chunk is encoded once, by its owner, and forwarded unchanged.
    fn proc_collectives_match_threads_and_oracle() {
        // 57 elements: chunks of 7–29 elements, none aligned to the 32-wide
        // scale groups. 100 003 elements over two ranks: exact and BF16
        // hop frames of ≈ 200 KB and ≈ 100 KB, several 64 KiB
        // `STAGE_BYTES` buffers each.
        let shapes = (2..=5)
            .map(|world| (world, 57))
            .chain([(8, 57), (2, 100_003)]);
        let collectives = [
            (Collective::ReduceScatter, QuantizePolicy::EveryHop),
            (Collective::ReduceScatter, QuantizePolicy::FinalOnly),
            (Collective::AllReduce, QuantizePolicy::EveryHop),
        ];
        for ((world, n), wire) in shapes.flat_map(|s| all_wires().into_iter().map(move |x| (s, x)))
        {
            let grads = make_grads(world, n, 21);
            let seeds: Vec<u64> = (0..world as u64).map(|r| 0xAB ^ r).collect();
            for (collective, policy) in collectives {
                let case = format!(
                    "{} {collective:?} {policy:?} world {world} n {n}",
                    wire.label()
                );
                let proc = proc_collective(&grads, &wire, collective, policy, &seeds, None)
                    .unwrap_or_else(|e| panic!("{case}: process run: {e}"));
                let threads = threaded_collective(&grads, &wire, collective, policy, &seeds);
                let mut oracle_rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
                let oracle = match collective {
                    Collective::ReduceScatter => {
                        ring_reduce_scatter(&grads, &wire, policy, &mut oracle_rngs)
                    }
                    Collective::AllReduce => {
                        ring_all_reduce(&grads, &wire, policy, &mut oracle_rngs)
                    }
                };
                assert_eq!(proc.result.owned, oracle.owned, "{case}: owned chunks");
                assert_eq!(
                    threads.result.owned, oracle.owned,
                    "{case}: threaded chunks"
                );
                assert_eq!(
                    proc.result.bytes_on_wire, oracle.bytes_on_wire,
                    "{case}: measured vs simulated bytes"
                );
                assert_eq!(
                    proc.stats.total_payload_bytes(),
                    threads.stats.total_payload_bytes(),
                    "{case}: process vs threaded payload counters"
                );
                assert!(proc.stats.two_sided(), "{case}: two-sided");
                for (rank, ((p, t), o)) in (proc.result.per_rank.iter())
                    .zip(&threads.result.per_rank)
                    .zip(&oracle.per_rank)
                    .enumerate()
                {
                    assert_bits_equal(p, t, &format!("{case} rank {rank} (proc vs threads)"));
                    assert_bits_equal(p, o, &format!("{case} rank {rank} (proc vs oracle)"));
                    if collective == Collective::AllReduce {
                        let first = &proc.result.per_rank[0];
                        assert_bits_equal(p, first, &format!("{case} rank {rank} (vs rank 0)"));
                    }
                }
                // Same RNG streams: each rank's next draw after the
                // collective matches the oracle's.
                let oracle_fingerprints: Vec<u64> =
                    oracle_rngs.iter_mut().map(Rng::next_u64).collect();
                assert_eq!(
                    proc.rng_fingerprints, oracle_fingerprints,
                    "{case}: process RNG streams"
                );
                assert_eq!(
                    threads.rng_fingerprints, oracle_fingerprints,
                    "{case}: threaded RNG streams"
                );
            }
        }
        println!("ok - proc_collectives_match_threads_and_oracle");
    }

    /// Reduce-scatter per-link payload counters equal the analytic
    /// `codec_wire_bytes` on every ring link, on both sides of each socket.
    fn per_link_payloads_match_analytic_accounting() {
        let world = 3;
        let n = 45; // 32 + a 13-element ragged tail
        for wire in all_wires() {
            let Some(codec) = wire.codec() else { continue };
            let grads = make_grads(world, n, 31);
            let seeds: Vec<u64> = (0..world as u64).map(|r| 0xCD ^ r).collect();
            let rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
            let proc = proc_collective(
                &grads,
                &wire,
                Collective::ReduceScatter,
                QuantizePolicy::EveryHop,
                &seeds,
                None,
            )
            .expect("process reduce-scatter");
            let mut oracle_rngs = rngs.clone();
            let oracle =
                ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);
            assert_eq!(proc.result.owned, oracle.owned, "{}", wire.label());
            assert_eq!(
                proc.result.bytes_on_wire,
                oracle.bytes_on_wire,
                "{}: ring bytes",
                wire.label()
            );
            for (rank, (p, o)) in proc
                .result
                .per_rank
                .iter()
                .zip(&oracle.per_rank)
                .enumerate()
            {
                assert_bits_equal(p, o, &format!("{} rank {rank}", wire.label()));
            }
            // Each ring pass moves every chunk across one link; over the
            // whole reduce-scatter each chunk crosses world−1 links, so the
            // measured ring total is (world−1) × Σ codec_wire_bytes(chunk).
            let per_pass: u64 = proc
                .result
                .owned
                .iter()
                .map(|(lo, hi)| codec_wire_bytes(codec, 1, hi - lo, wire.bits()))
                .sum();
            for src in 0..world {
                let dst = (src + 1) % world;
                let link = proc.stats.link_payload_bytes(src, dst);
                assert_eq!(
                    link,
                    proc.stats.link_rx_payload_bytes(src, dst),
                    "{}: link {src}->{dst} counted differently by its two ends",
                    wire.label()
                );
                assert!(link > 0, "{}: ring link {src}->{dst} silent", wire.label());
            }
            let total: u64 = (0..world)
                .map(|src| proc.stats.link_payload_bytes(src, (src + 1) % world))
                .sum();
            assert_eq!(
                total,
                (world as u64 - 1) * per_pass,
                "{}: measured ring total vs analytic codec_wire_bytes",
                wire.label()
            );
        }
        println!("ok - per_link_payloads_match_analytic_accounting");
    }

    /// Data-parallel training over worker processes reproduces the threaded
    /// run bit for bit: losses, final parameters, and payload volumes. On
    /// every wire, lossy ones included, the two replicas end bit-identical.
    fn dp_train_matches_threads_bit_exactly() {
        for wire in [Wire::exact(), Wire::fp8(16), Wire::fp4(16), Wire::bf16()] {
            let mut cfgs = Vec::new();
            for rank in 0..2u64 {
                let mut cfg = TrainerConfig::tiny();
                cfg.data_seed = 100 + rank;
                cfgs.push(cfg);
            }
            let steps = 3;
            let comm_seed = 0x99;
            let proc =
                proc_data_parallel_train(&cfgs, steps, &wire, QuantizePolicy::EveryHop, comm_seed)
                    .expect("process dp train");
            let trainers: Vec<Trainer> = cfgs
                .iter()
                .map(|c| Trainer::new(c.clone()).expect("trainer"))
                .collect();
            let (trained, losses, tstats) =
                data_parallel_train(trainers, steps, &wire, QuantizePolicy::EveryHop, comm_seed);
            assert_eq!(
                proc.losses,
                losses,
                "{}: loss trajectories must be bit-identical",
                wire.label()
            );
            for (rank, (t, p)) in trained.iter().zip(&proc.params).enumerate() {
                let mut flat = Vec::new();
                let mut model = t.model.clone();
                model.visit_params_mut(&mut |param| {
                    flat.extend_from_slice(param.value().as_slice());
                });
                assert_bits_equal(
                    p,
                    &flat,
                    &format!("{} rank {rank} final params", wire.label()),
                );
            }
            assert_bits_equal(
                &proc.params[1],
                &proc.params[0],
                &format!("{} replicas", wire.label()),
            );
            assert_eq!(
                proc.stats.total_payload_bytes(),
                tstats.total_payload_bytes(),
                "{}: DP payload bytes",
                wire.label()
            );
            assert!(proc.stats.two_sided(), "{}", wire.label());
            assert!(proc.stats.total_payload_bytes() > 0, "gradients crossed");
        }
        println!("ok - dp_train_matches_threads_bit_exactly");
    }

    /// A rank that dies pre-collective aborts the whole fabric via stream
    /// close: the launcher reports the root cause, not a peer's cascade,
    /// and nothing deadlocks. The dead rank's failure is a task failure, so
    /// it moves no transport counter; its peers' cascades count exactly as
    /// the thread fabric counts them for the same tasks.
    fn dead_worker_aborts_the_fabric_with_the_root_cause() {
        let mut cfgs = vec![TrainerConfig::tiny(); 3];
        // Rank 1's config fails model validation, so its worker dies before
        // its first all-reduce; ranks 0 and 2 block on it and must be
        // released by its sockets closing.
        cfgs[1].model.n_heads = 0;
        let (wire, policy, comm_seed) = (Wire::exact(), QuantizePolicy::EveryHop, 0x11);
        let train = |cfgs: &[TrainerConfig], steps| {
            failure_counters_moved_by(|| {
                proc_data_parallel_train(cfgs, steps, &wire, policy, comm_seed)
                    .expect_err("rank 1 must fail the run")
            })
        };
        let (err, on_procs) = train(&cfgs, 2);
        match err {
            ProcError::Worker {
                rank,
                class,
                message,
            } => {
                assert_eq!(rank, 1, "root cause must be rank 1, got: {message}");
                assert_eq!(class, FailureClass::Task, "{message}");
                assert!(
                    !message.contains("mid-collective"),
                    "root cause must not be a cascade: {message}"
                );
            }
            other => panic!("expected a worker failure, got {other}"),
        }
        let tasks: Vec<Task> = cfgs
            .iter()
            .map(|cfg| Task::DpTrain {
                wire,
                policy,
                comm_seed,
                steps: 2,
                trainer: cfg.clone(),
            })
            .collect();
        let (_, on_threads) =
            failure_counters_moved_by(|| run_ranks(3, None, |ep| run_task(ep, &tasks[ep.rank()])));
        assert_eq!(
            on_procs.failures, on_threads.failures,
            "process vs thread failure counters"
        );
        assert!(
            !on_procs.failures.contains_key("transport.io_error"),
            "a task failure is not an i/o failure: {on_procs:?}"
        );

        // With no step to run, rank 1's failure is the only one.
        let (err, on_procs) = train(&cfgs[..2], 0);
        assert!(
            matches!(
                err,
                ProcError::Worker {
                    rank: 1,
                    class: FailureClass::Task,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(
            on_procs.failures.is_empty() && on_procs.frames == 0,
            "no transport counter moves: {on_procs:?}"
        );
        println!("ok - dead_worker_aborts_the_fabric_with_the_root_cause");
    }

    /// Single-rank fabrics degenerate to a no-op with silent counters.
    fn single_rank_process_fabric_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let proc = proc_collective(
            &grads,
            &Wire::fp4(8),
            Collective::ReduceScatter,
            QuantizePolicy::EveryHop,
            &[3],
            None,
        )
        .expect("single-rank run");
        assert_eq!(proc.result.bytes_on_wire, 0);
        assert_eq!(proc.stats.total_frames(), 0);
        assert_eq!(proc.result.per_rank[0], grads[0]);
        println!("ok - single_rank_process_fabric_is_a_no_op");
    }

    pub fn run_all() {
        proc_collectives_match_threads_and_oracle();
        per_link_payloads_match_analytic_accounting();
        dp_train_matches_threads_bit_exactly();
        dead_worker_aborts_the_fabric_with_the_root_cause();
        single_rank_process_fabric_is_a_no_op();
    }
}

fn main() {
    #[cfg(unix)]
    {
        // Spawned rank workers re-enter here; divert them before any test
        // logic. In the parent this is a no-op.
        snip_pipeline::transport::proc::worker_boot();
        checks::run_all();
        println!("all process-transport checks passed");
    }
    #[cfg(not(unix))]
    println!("process transport is unix-only; nothing to check");
}
