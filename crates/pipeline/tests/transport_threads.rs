//! Loopback tests for the threaded multi-rank transport.
//!
//! These pin the PR 3 acceptance criteria: the threaded transport is
//! bit-identical to the in-proc `collective` simulator (same reduced
//! gradients, same per-rank RNG streams), and its measured per-link payload
//! counters equal `comm::codec_wire_bytes` exactly for every codec —
//! including ragged-tail shapes where `cols` is not divisible by the scale
//! group. CI runs this file under `cargo test --release` as well: thread
//! interleavings shift with optimization, and timing bugs hide in debug.

use snip_core::{Trainer, TrainerConfig};
use snip_pipeline::collective::{
    exact_sum, relative_error, ring_all_reduce_ranked, ring_reduce_scatter_ranked,
    CollectiveResult, QuantizePolicy, Wire,
};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::{
    data_parallel_train, run_ranks, threaded_all_reduce, TransportStats,
};
use snip_tensor::rng::Rng;

fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::seed_from(seed);
    (0..ranks)
        .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect()
}

fn rngs(ranks: usize, base: u64) -> Vec<Rng> {
    (0..ranks)
        .map(|r| Rng::seed_from(base ^ r as u64))
        .collect()
}

/// A reduce-scatter through the thread driver, in the oracle's result shape
/// (`bytes_on_wire` from the measured payload counters).
fn threaded_reduce_scatter(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &[Rng],
) -> (CollectiveResult, TransportStats) {
    let (chunks, stats) = run_ranks(grads.len(), None, |ep| {
        let mut rng = rngs[ep.rank()].clone();
        ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
            .expect("threaded reduce-scatter failed")
    });
    let result = CollectiveResult {
        owned: chunks.iter().map(|c| (c.lo, c.hi)).collect(),
        per_rank: chunks.into_iter().map(|c| c.data).collect(),
        bytes_on_wire: stats.total_payload_bytes(),
    };
    (result, stats)
}

/// Every wire codec under test, with a scale group (32) that does **not**
/// divide the payload lengths used — the ragged-tail configuration.
fn all_wires() -> Vec<Wire> {
    vec![
        Wire::bf16(),
        Wire::fp8(32),
        Wire::fp4(32),
        Wire::int8(32),
        Wire::mxfp4(),
        Wire::rht_fp4(32, 5),
        Wire::outlier_fp4(32, 0.02),
    ]
}

#[test]
fn threaded_collectives_are_bit_identical_to_the_inproc_oracle() {
    // 6 ranks, 57 elements: chunks of 9–10 elements, none aligned to the
    // 32-wide scale groups — stochastic FP4 draws and ragged tails at once.
    for wire in all_wires() {
        let grads = make_grads(6, 57, 21);
        let seeds = rngs(6, 0xAB);
        let (threaded, stats) =
            threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &seeds);
        let mut oracle_rngs = seeds.clone();
        let oracle =
            ring_all_reduce_ranked(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);
        assert_eq!(
            stats.total_payload_bytes(),
            oracle.bytes_on_wire,
            "{}: measured vs simulated bytes",
            wire.label()
        );
        for (rank, (t, o)) in threaded.per_rank.iter().zip(&oracle.per_rank).enumerate() {
            assert_eq!(t.len(), o.len(), "{}", wire.label());
            for (i, (a, b)) in t.iter().zip(o).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: rank {rank} element {i}: {a} vs {b}",
                    wire.label()
                );
            }
        }
    }
}

#[test]
fn ragged_tail_bytes_agree_across_analytic_measured_and_serialized() {
    // Satellite: for every codec, a payload whose length is not divisible
    // by the scale group must give codec_wire_bytes == transmit's measured
    // bytes == the serializer's payload length. 45 = 32 + a 13-element tail.
    let n = 45usize;
    let payload: Vec<f32> = (0..n).map(|i| (i as f32 - 20.0) * 0.37).collect();
    for wire in all_wires() {
        let codec = wire.codec().expect("lossy wire");
        let analytic = codec_wire_bytes(codec, 1, n, wire.bits());

        let mut transmitted = payload.clone();
        let measured = wire.transmit(&mut transmitted, &mut Rng::seed_from(4));
        assert_eq!(measured, analytic, "{}: transmit vs analytic", wire.label());

        // The serialized frame's payload section must be the same number.
        use snip_quant::{PackedQuantize, WIRE_HEADER_BYTES};
        use snip_tensor::Tensor;
        let t = Tensor::from_vec(1, n, payload.clone());
        match codec.pack(&t, &mut Rng::seed_from(4)) {
            Some(packed) => {
                let frame = packed.to_wire_bytes().expect("built-in format");
                assert_eq!(
                    (frame.len() - WIRE_HEADER_BYTES) as u64,
                    analytic,
                    "{}: serialized payload length vs analytic",
                    wire.label()
                );
            }
            None => {
                // BF16 is not packable; its frame is 2 bytes per element by
                // construction, already covered by the transmit check.
                assert_eq!(analytic, 2 * n as u64, "{}", wire.label());
            }
        }

        // And the threaded transport measures the same volume per link.
        let grads = make_grads(3, n, 31);
        let seeds = rngs(3, 0xCD);
        let (_, stats) = threaded_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &seeds);
        let mut oracle_rngs = seeds.clone();
        let oracle =
            ring_reduce_scatter_ranked(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);
        assert_eq!(
            stats.total_payload_bytes(),
            oracle.bytes_on_wire,
            "{}: ring bytes",
            wire.label()
        );
    }
}

#[test]
fn quantized_threaded_reduce_keeps_the_expected_error_ordering() {
    let grads = make_grads(8, 256, 7);
    let exact = exact_sum(&grads);
    let err = |wire: Wire| {
        let seeds = rngs(8, 0x11);
        let (rs, _) = threaded_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &seeds);
        relative_error(&rs, &exact)
    };
    let e_bf16 = err(Wire::bf16());
    let e_fp8 = err(Wire::fp8(32));
    let e_fp4 = err(Wire::fp4(32));
    assert!(e_bf16 < e_fp8, "bf16 {e_bf16} !< fp8 {e_fp8}");
    assert!(e_fp8 < e_fp4, "fp8 {e_fp8} !< fp4 {e_fp4}");
}

#[test]
fn many_concurrent_collectives_stay_ordered() {
    // Back-to-back collectives on the same endpoints must not cross-talk:
    // each all-reduce k over distinct data must give the sum for k.
    let world = 4;
    let rounds = 8;
    let all: Vec<Vec<Vec<f32>>> = (0..rounds)
        .map(|k| make_grads(world, 19 + k, 100 + k as u64))
        .collect();
    let (results, _) = run_ranks(world, None, |ep| {
        let mut rng = Rng::seed_from(7 ^ ep.rank() as u64);
        (0..rounds)
            .map(|k| {
                ep.ring_all_reduce(
                    &all[k][ep.rank()],
                    &Wire::exact(),
                    QuantizePolicy::EveryHop,
                    &mut rng,
                )
                .expect("all-reduce round")
            })
            .collect::<Vec<_>>()
    });
    for (k, grads) in all.iter().enumerate() {
        let exact = exact_sum(grads);
        for rank_results in &results {
            for (got, want) in rank_results[k].iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5, "round {k}");
            }
        }
    }
}

#[test]
fn data_parallel_training_over_exact_wires_matches_single_rank_bit_exactly() {
    // Two ranks fed identical data compute identical gradients; summing two
    // identical f32 gradients and halving is exact, so the DP run must
    // reproduce the single-trainer trajectory bit for bit.
    let cfg = TrainerConfig::tiny();
    let mut single = Trainer::new(cfg.clone()).unwrap();
    let solo: Vec<f64> = (0..4).map(|_| single.train_step()).collect();

    let ranks = vec![
        Trainer::new(cfg.clone()).unwrap(),
        Trainer::new(cfg).unwrap(),
    ];
    let (trainers, losses, stats) =
        data_parallel_train(ranks, 4, &Wire::exact(), QuantizePolicy::EveryHop, 0x77);
    assert_eq!(losses[0], solo, "rank 0 trajectory");
    assert_eq!(losses[1], solo, "rank 1 trajectory");
    assert_eq!(trainers[0].step_count(), 4);
    assert!(
        stats.total_payload_bytes() > 0,
        "gradients crossed the wire"
    );
}

#[test]
fn data_parallel_training_over_fp8_wires_stays_healthy() {
    // Distinct data per rank, lossy wires: the run must stay finite and
    // actually learn (losses trend down over the run).
    let mut cfgs = Vec::new();
    for rank in 0..2u64 {
        let mut cfg = TrainerConfig::tiny();
        cfg.data_seed = 100 + rank;
        cfgs.push(Trainer::new(cfg).unwrap());
    }
    let (_, losses, stats) =
        data_parallel_train(cfgs, 12, &Wire::fp8(16), QuantizePolicy::EveryHop, 0x99);
    for rank_losses in &losses {
        assert!(rank_losses.iter().all(|l| l.is_finite()));
        let head: f64 = rank_losses[..4].iter().sum();
        let tail: f64 = rank_losses[rank_losses.len() - 4..].iter().sum();
        assert!(tail < head, "loss should trend down: {head} -> {tail}");
    }
    assert!(stats.total_frames() > 0);
}
