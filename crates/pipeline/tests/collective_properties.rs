//! Property tests for the quantized ring-collective simulator (one RNG
//! stream per rank), the transports' test-support oracle.

mod support;

use proptest::prelude::*;
use snip_pipeline::collective::{chunk_bounds, QuantizePolicy, Wire};
use snip_tensor::rng::Rng;
use support::{exact_sum, relative_error, ring_all_reduce, ring_reduce_scatter};

/// One RNG stream per rank, disjoint across `seed`s.
fn rngs(ranks: usize, seed: u64) -> Vec<Rng> {
    (0..ranks)
        .map(|r| Rng::seed_from(seed << 8 | r as u64))
        .collect()
}

fn grads_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (2usize..6, 4usize..40).prop_flat_map(|(ranks, n)| {
        proptest::collection::vec(proptest::collection::vec(-8.0f32..8.0, n), ranks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunks_partition_exactly(n in 0usize..200, r in 1usize..12) {
        let bounds = chunk_bounds(n, r);
        prop_assert_eq!(bounds.len(), r);
        prop_assert_eq!(bounds[0].0, 0);
        prop_assert_eq!(bounds[r - 1].1, n);
        for w in bounds.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "gap or overlap between chunks");
        }
        // Chunk sizes differ by at most one element.
        let sizes: Vec<usize> = bounds.iter().map(|(a, b)| b - a).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn exact_wire_reduce_scatter_is_exact(grads in grads_strategy(), seed in 0u64..100) {
        let exact = exact_sum(&grads);
        let mut streams = rngs(grads.len(), seed);
        let rs = ring_reduce_scatter(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut streams);
        prop_assert!(relative_error(&rs, &exact) < 1e-5);
    }

    #[test]
    fn exact_all_reduce_gives_identical_copies(grads in grads_strategy(), seed in 0u64..100) {
        // With exact wires the broadcast is bit-deterministic, so every
        // rank ends with the same reduced vector.
        let mut streams = rngs(grads.len(), seed);
        let ar = ring_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut streams);
        for rank in &ar.per_rank[1..] {
            prop_assert_eq!(rank, &ar.per_rank[0]);
        }
    }

    #[test]
    fn quantized_all_reduce_copies_are_bit_identical(
        grads in grads_strategy(),
        seed in 0u64..100,
        kind in 0usize..8,
    ) {
        // Each chunk is encoded once, by its owner, and every rank — the
        // owner included — holds the decode of that one frame: on every
        // wire, all ranks end with the same bits.
        let wires = [
            Wire::exact(),
            Wire::bf16(),
            Wire::fp8(8),
            Wire::fp4(8),
            Wire::mxfp4(),
            Wire::rht_fp4(8, 3),
            Wire::outlier_fp4(8, 0.1),
            Wire::int8(8),
        ];
        let mut streams = rngs(grads.len(), seed);
        let ar = ring_all_reduce(&grads, &wires[kind], QuantizePolicy::EveryHop, &mut streams);
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rank in &ar.per_rank[1..] {
            prop_assert_eq!(bits(rank), bits(&ar.per_rank[0]), "{}", wires[kind].label());
        }
    }

    #[test]
    fn quantized_wire_error_bounded_by_format(grads in grads_strategy(), seed in 0u64..100) {
        // FP8 E4M3 wire with fine tiles: per-hop relative error ≤ ~6%, and
        // across R−1 ≤ 5 hops the accumulated relative error stays well
        // under 50% — a loose but meaningful sanity envelope.
        let exact = exact_sum(&grads);
        let mut streams = rngs(grads.len(), seed);
        let rs = ring_reduce_scatter(&grads, &Wire::fp8(8), QuantizePolicy::EveryHop, &mut streams);
        prop_assert!(relative_error(&rs, &exact) < 0.5);
        for chunk in &rs.per_rank {
            prop_assert!(chunk.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn bytes_scale_with_bits(grads in grads_strategy(), seed in 0u64..50) {
        let mut streams = rngs(grads.len(), seed);
        let b16 = ring_reduce_scatter(&grads, &Wire::bf16(), QuantizePolicy::EveryHop, &mut streams)
            .bytes_on_wire;
        let b8 = ring_reduce_scatter(&grads, &Wire::fp8(8), QuantizePolicy::EveryHop, &mut streams)
            .bytes_on_wire;
        // Byte-accurate fp8 wires move 1 B of codes per element plus one
        // f32 scale per 1×8 tile: between half and three-quarters of the
        // bf16 volume, plus at most one partial tile per payload.
        let payloads = (grads.len() as u64 - 1) * grads.len() as u64;
        prop_assert!(b8 <= (b16 * 3) / 4 + payloads * 4, "fp8 {b8} vs bf16 {b16}");
        prop_assert!(b8 >= b16 / 2, "fp8 {b8} vs bf16 {b16}");
    }
}
