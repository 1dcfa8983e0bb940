//! Loopback tests for the multi-**process** socket transport.
//!
//! These pin the PR 4 acceptance criteria: the process backend (rank
//! workers connected by Unix sockets, spawned by re-executing this very
//! binary) is bit-identical to the threaded transport *and* to the in-proc
//! `collective` ranked oracle — same reduced gradients, same per-rank RNG
//! streams (checked via post-collective fingerprints), same payload byte
//! counters equal to `comm::codec_wire_bytes` for every codec, ragged
//! tails included — and both sides of every socket account identical
//! volumes. CI runs this file under `cargo test --release` as well:
//! buffering and timing bugs hide in debug.
//!
//! The file opts out of the libtest harness (`harness = false` in
//! Cargo.toml) because spawned rank workers re-enter through `main`, which
//! must divert them into `worker_boot()` before any test logic runs.

#[cfg(unix)]
mod checks {
    use snip_core::{Trainer, TrainerConfig};
    use snip_pipeline::collective::{
        ring_all_reduce_ranked, ring_reduce_scatter_ranked, QuantizePolicy, Wire,
    };
    use snip_pipeline::comm::codec_wire_bytes;
    use snip_pipeline::transport::proc::{
        launch, proc_all_reduce, proc_data_parallel_train, run_task, ProcCollective, ProcError,
        Task,
    };
    use snip_pipeline::transport::{data_parallel_train, run_ranks, threaded_all_reduce};
    use snip_tensor::rng::Rng;

    fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(seed);
        (0..ranks)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    /// Every wire codec under test, with a scale group (32) that does
    /// **not** divide the payload lengths used — the ragged-tail
    /// configuration.
    fn all_wires() -> Vec<Wire> {
        vec![
            Wire::exact(),
            Wire::bf16(),
            Wire::fp8(32),
            Wire::fp4(32),
            Wire::int8(32),
            Wire::mxfp4(),
            Wire::rht_fp4(32, 5),
            Wire::outlier_fp4(32, 0.02),
        ]
    }

    /// A reduce-scatter through the process driver.
    fn proc_reduce_scatter(
        grads: &[Vec<f32>],
        wire: &Wire,
        policy: QuantizePolicy,
        seeds: &[u64],
    ) -> Result<ProcCollective, ProcError> {
        let tasks = grads
            .iter()
            .zip(seeds)
            .map(|(grad, &seed)| Task::ReduceScatter {
                wire: *wire,
                policy,
                seed,
                grad: grad.clone(),
            });
        let (outputs, stats) = launch(tasks.collect(), None)?;
        Ok(ProcCollective::from_outputs(outputs, stats))
    }

    fn assert_bits_equal(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    /// All-reduce over worker processes == threaded == ranked oracle, for
    /// every codec, with ragged tails, measured bytes and RNG streams
    /// included.
    fn proc_collectives_match_threads_and_oracle() {
        // 5 ranks, 57 elements: chunks of 11–12 elements, none aligned to
        // the 32-wide scale groups.
        let world = 5;
        let n = 57;
        for wire in all_wires() {
            let grads = make_grads(world, n, 21);
            let seeds: Vec<u64> = (0..world as u64).map(|r| 0xAB ^ r).collect();
            let rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();

            let proc = proc_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &seeds)
                .expect("process all-reduce");
            let (threaded, tstats) =
                threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &rngs);
            let mut oracle_rngs = rngs.clone();
            let oracle =
                ring_all_reduce_ranked(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);

            assert_eq!(
                proc.result.bytes_on_wire,
                oracle.bytes_on_wire,
                "{}: measured vs simulated bytes",
                wire.label()
            );
            assert_eq!(
                proc.stats.total_payload_bytes(),
                tstats.total_payload_bytes(),
                "{}: process vs threaded payload counters",
                wire.label()
            );
            assert!(proc.stats.two_sided(), "{}: two-sided", wire.label());
            for (rank, ((p, t), o)) in proc
                .result
                .per_rank
                .iter()
                .zip(&threaded.per_rank)
                .zip(&oracle.per_rank)
                .enumerate()
            {
                let ctx = format!("{} rank {rank}", wire.label());
                assert_bits_equal(p, t, &format!("{ctx} (proc vs threads)"));
                assert_bits_equal(p, o, &format!("{ctx} (proc vs oracle)"));
            }
            // Same RNG streams: each rank's next draw after the collective
            // matches the oracle's.
            for (rank, (fp, mut oracle_rng)) in
                proc.rng_fingerprints.iter().zip(oracle_rngs).enumerate()
            {
                assert_eq!(
                    *fp,
                    oracle_rng.next_u64(),
                    "{}: rank {rank} RNG stream diverged",
                    wire.label()
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
            let proc = proc_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &seeds)
                .expect("process reduce-scatter");
            let mut oracle_rngs = rngs.clone();
            let oracle = ring_reduce_scatter_ranked(
                &grads,
                &wire,
                QuantizePolicy::EveryHop,
                &mut oracle_rngs,
            );
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

    /// Pipeline p2p send/recv runs unchanged over the socket backend: the
    /// same `Task`s through the process driver and, via `run_task`, through
    /// the thread driver.
    fn pipeline_p2p_matches_threads() {
        let payload: Vec<f32> = (0..41).map(|i| (i as f32 - 17.0) * 0.29).collect();
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let tasks: Vec<Task> = [7u64, 8, 9, 10]
                .iter()
                .enumerate()
                .map(|(rank, &seed)| Task::Relay {
                    wire,
                    seed,
                    // Only the head of the pipeline owns the payload.
                    payload: if rank == 0 {
                        payload.clone()
                    } else {
                        Vec::new()
                    },
                })
                .collect();
            let (proc, pstats) = launch(tasks.clone(), None).expect("process relay");
            let (threaded, tstats) = run_ranks(tasks.len(), None, |ep| {
                run_task(ep, &tasks[ep.rank()]).expect("threaded relay")
            });
            for (rank, (p, t)) in proc.iter().zip(&threaded).enumerate() {
                // Encoded outputs compare received payloads and RNG
                // fingerprints by their bits.
                assert_eq!(p.encode(), t.encode(), "{} relay rank {rank}", wire.label());
            }
            assert_eq!(
                pstats.total_payload_bytes(),
                tstats.total_payload_bytes(),
                "{}: relay payload bytes",
                wire.label()
            );
            assert!(pstats.two_sided(), "{}", wire.label());
        }
        println!("ok - pipeline_p2p_matches_threads");
    }

    /// Data-parallel training over worker processes reproduces the threaded
    /// run bit for bit: losses, final parameters, and payload volumes.
    fn dp_train_matches_threads_bit_exactly() {
        for wire in [Wire::exact(), Wire::fp8(16)] {
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
    /// and nothing deadlocks.
    fn dead_worker_aborts_the_fabric_with_the_root_cause() {
        let mut cfgs = vec![TrainerConfig::tiny(); 3];
        // Rank 1's config fails model validation, so its worker dies before
        // its first all-reduce; ranks 0 and 2 block on it and must be
        // released by its sockets closing.
        cfgs[1].model.n_heads = 0;
        let err =
            proc_data_parallel_train(&cfgs, 2, &Wire::exact(), QuantizePolicy::EveryHop, 0x11)
                .expect_err("rank 1 must fail the run");
        match err {
            ProcError::Worker { rank, message } => {
                assert_eq!(rank, 1, "root cause must be rank 1, got: {message}");
                assert!(
                    !message.contains("mid-collective"),
                    "root cause must not be a cascade: {message}"
                );
            }
            other => panic!("expected a worker failure, got {other}"),
        }
        println!("ok - dead_worker_aborts_the_fabric_with_the_root_cause");
    }

    /// Single-rank fabrics degenerate to a no-op with silent counters.
    fn single_rank_process_fabric_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let proc = proc_reduce_scatter(&grads, &Wire::fp4(8), QuantizePolicy::EveryHop, &[3])
            .expect("single-rank run");
        assert_eq!(proc.result.bytes_on_wire, 0);
        assert_eq!(proc.stats.total_frames(), 0);
        assert_eq!(proc.result.per_rank[0], grads[0]);
        println!("ok - single_rank_process_fabric_is_a_no_op");
    }

    pub fn run_all() {
        proc_collectives_match_threads_and_oracle();
        per_link_payloads_match_analytic_accounting();
        pipeline_p2p_matches_threads();
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
