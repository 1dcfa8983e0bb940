//! Loopback tests for the threaded multi-rank transport.
//!
//! These pin the PR 3 acceptance criteria: the threaded transport is
//! bit-identical to the in-proc ring simulator of `support` (same reduced
//! gradients, same per-rank RNG streams), and its measured per-link payload
//! counters equal `comm::codec_wire_bytes` exactly for every codec —
//! including ragged-tail shapes where `cols` is not divisible by the scale
//! group. CI runs this file under `cargo test --release` as well: thread
//! interleavings shift with optimization, and timing bugs hide in debug.

mod support;

use snip_core::{Trainer, TrainerConfig};
use snip_pipeline::collective::{QuantizePolicy, Wire};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::{
    data_parallel_train, is_cascade_error, run_ranks, threaded_all_reduce, ChaosPlan, FrameError,
    TransportError, TransportStats,
};
use snip_tensor::rng::Rng;
use std::time::{Duration, Instant};
use support::{exact_sum, relative_error, ring_all_reduce, ring_reduce_scatter, CollectiveResult};

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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn threaded_collectives_are_bit_identical_to_the_inproc_oracle() {
    // 57 elements: chunks of 9–29 elements, none aligned to the 32-wide
    // scale groups — stochastic FP4 draws and ragged tails at once. Each
    // chunk is encoded once, by its owner, so every rank holds the same
    // bits as rank 0 too.
    for world in 2..=6 {
        for wire in std::iter::once(Wire::exact()).chain(all_wires()) {
            let grads = make_grads(world, 57, 21);
            let seeds = rngs(world, 0xAB);
            let (threaded, stats) =
                threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &seeds);
            let mut oracle_rngs = seeds.clone();
            let oracle = ring_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);
            let ctx = format!("{} world {world}", wire.label());
            assert_eq!(
                stats.total_payload_bytes(),
                oracle.bytes_on_wire,
                "{ctx}: measured vs simulated bytes"
            );
            for (rank, (t, o)) in threaded.iter().zip(&oracle.per_rank).enumerate() {
                assert_eq!(bits(t), bits(o), "{ctx} rank {rank} vs oracle");
                assert_eq!(bits(t), bits(&threaded[0]), "{ctx} rank {rank} vs rank 0");
            }
        }
    }
}

#[test]
fn all_gather_draws_only_for_the_owners_one_encode() {
    // World 4, stochastic FP4: after the reduce-scatter, each rank's stream
    // advances by exactly one encode of its own chunk, whose decode it
    // keeps; the forwarded chunks cost no draw.
    let wire = Wire::fp4(8);
    let grads = make_grads(4, 70, 9);
    let seeds = rngs(4, 0x3C);
    let (outcomes, _) = run_ranks(4, None, |ep| {
        let mut rng = seeds[ep.rank()].clone();
        let chunk = ep
            .ring_reduce_scatter(&grads[ep.rank()], &wire, QuantizePolicy::EveryHop, &mut rng)
            .expect("reduce-scatter");
        let mut reference = rng.clone();
        let mut own = chunk.data.clone();
        wire.transmit(&mut own, &mut reference);
        let full = ep
            .ring_all_gather(
                &chunk,
                grads[0].len(),
                &wire,
                QuantizePolicy::EveryHop,
                &mut rng,
            )
            .expect("all-gather");
        let kept = full[chunk.lo..chunk.hi].to_vec();
        (rng.next_u64(), reference.next_u64(), kept, own)
    });
    for (rank, (after, reference, kept, own)) in outcomes.into_iter().enumerate() {
        assert_eq!(
            after, reference,
            "rank {rank}: stream moved by more than one encode"
        );
        assert_eq!(
            bits(&kept),
            bits(&own),
            "rank {rank} keeps the decode of its frame"
        );
    }
}

#[test]
fn a_chunk_of_another_length_is_a_typed_error_on_both_ranks() {
    // Ranks whose vectors differ in length (10 vs 12) must each fail with a
    // typed frame error naming the peer and both counts — not an index
    // panic on one rank and a silent partial sum on the other.
    let lens = [10usize, 12];
    let plan = ChaosPlan::none(0).with_recv_deadline(Duration::from_secs(10));
    let _telemetry = snip_obs::enabled_scope(true);
    let before = snip_obs::counter_value("transport.frame_error");
    let start = Instant::now();
    let (outcomes, _) = run_ranks(2, Some(&plan), |ep| {
        let grad = vec![1.0f32; lens[ep.rank()]];
        let mut rng = Rng::seed_from(ep.rank() as u64);
        ep.ring_all_reduce(&grad, &Wire::fp4(8), QuantizePolicy::EveryHop, &mut rng)
    });
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "within the deadline"
    );
    let mismatch = |src, expect, got| TransportError::Frame {
        src,
        error: FrameError::Elements { expect, got },
    };
    assert_eq!(outcomes[0], Err(mismatch(1, 5, 6)));
    assert_eq!(outcomes[1], Err(mismatch(0, 6, 5)));
    for outcome in &outcomes {
        let message = outcome.as_ref().expect_err("typed error").to_string();
        assert!(!is_cascade_error(&message), "a primary fault: {message}");
    }
    assert_eq!(snip_obs::counter_value("transport.frame_error") - before, 2);
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
        let oracle = ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut oracle_rngs);
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
fn data_parallel_replicas_stay_bit_identical_on_lossy_wires() {
    for wire in [Wire::fp4(16), Wire::bf16()] {
        let ranks = (0..2u64)
            .map(|rank| {
                let mut cfg = TrainerConfig::tiny();
                cfg.data_seed = 100 + rank;
                Trainer::new(cfg).unwrap()
            })
            .collect();
        let (mut trainers, _, _) =
            data_parallel_train(ranks, 3, &wire, QuantizePolicy::EveryHop, 0x51);
        let params: Vec<Vec<u32>> = trainers
            .iter_mut()
            .map(|t| {
                let mut flat = Vec::new();
                t.model
                    .visit_params_mut(&mut |p| flat.extend(bits(p.value().as_slice())));
                flat
            })
            .collect();
        assert_eq!(params[0], params[1], "{}: replicas drifted", wire.label());
    }
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
