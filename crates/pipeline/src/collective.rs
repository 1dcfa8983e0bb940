//! Wire formats for low-precision collectives.
//!
//! The paper flags *"extending low-precision support to reduce-scatter"* as
//! promising-but-challenging future work (§2.2). [`crate::comm`] accounts
//! for the bytes such a kernel would save; [`Wire`] names the codec of one
//! hop, [`QuantizePolicy`] says which hops use it, [`chunk_bounds`] splits
//! a vector over the ring, and [`crate::transport`] runs the collective.
//! Partial sums accumulate in f32 at each receiver (the realistic design —
//! accumulating *in* FP4/FP8 diverges immediately), so the open question
//! the paper points at becomes measurable: how much error do `R − 1`
//! payload quantizations inject into the reduced gradient, for which wire
//! format, and at how many ranks? The `comm_precision` experiment sweeps
//! exactly that over the transports.
//!
//! The transports' oracle is an in-proc ring simulator that lives with the
//! tests, in `tests/support/mod.rs`: all ranks in one address space, one
//! RNG stream each, every hop through [`Wire::transmit`]. The unit tests
//! below use it to pin what each wire costs in error and bytes.

use crate::transport::frame::{decode_frame, encode_frame};
use serde::{Deserialize, Serialize};
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::{Quantizer, Rounding};
use snip_tensor::rng::Rng;

/// A collective wire format: payload width plus the quantizer emulating it.
/// Every §5.2 quantization option can serve as a wire codec: the payload
/// that crosses the ring is the quantizer's canonical packed form, and its
/// byte volume is whatever that form measures. A codec packs or is the
/// BF16 quantizer (see [`Quantizer`]), so a hop ships exact f32, BF16 or
/// packed codes and nothing else; [`Wire::transmit`] is the one hop codec.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Wire {
    bits: u32,
    codec: Option<Quantizer>,
    label: &'static str,
}

impl Wire {
    /// Lossless f32 wires (the numerical reference; 32 bits on the wire).
    pub fn exact() -> Self {
        Wire {
            bits: 32,
            codec: None,
            label: "exact",
        }
    }

    fn lossy(bits: u32, label: &'static str, codec: Quantizer) -> Self {
        Wire {
            bits,
            codec: Some(codec),
            label,
        }
    }

    /// E2M1 under `1×nb` tile scaling with stochastic rounding (the paper's
    /// recipe for FP4 gradients, §6.1 — unbiasedness matters even more when
    /// payloads are summed across ranks): the base of every FP4 wire.
    fn fp4_tiles(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Stochastic,
        )
    }

    /// BF16 wires — today's default for gradient collectives.
    pub fn bf16() -> Self {
        Wire::lossy(16, "bf16", Quantizer::unscaled())
    }

    /// FP8 (E4M3) wires with `1×nb` tile scaling.
    pub fn fp8(nb: usize) -> Self {
        let codec = Quantizer::new(
            FloatFormat::e4m3(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        );
        Wire::lossy(8, "fp8", codec)
    }

    /// FP4 (E2M1) wires with `1×nb` tile scaling and stochastic rounding.
    pub fn fp4(nb: usize) -> Self {
        Wire::lossy(4, "fp4", Wire::fp4_tiles(nb))
    }

    /// MXFP4 wires: E2M1 codes under one-byte E8M0 scales per 32-block,
    /// stochastic element rounding.
    pub fn mxfp4() -> Self {
        let codec = Quantizer::mxfp4().with_rounding(Rounding::Stochastic);
        Wire::lossy(4, "mxfp4", codec)
    }

    /// RHT-rotated FP4 wires: payloads rotate, quantize at `1×nb` tiles with
    /// stochastic rounding, and the receiver inverts the rotation (the seed
    /// is shared configuration, not payload).
    pub fn rht_fp4(nb: usize, seed: u64) -> Self {
        let codec = Wire::fp4_tiles(nb).with_rht(nb.next_power_of_two(), seed);
        Wire::lossy(4, "rht-fp4", codec)
    }

    /// FP4 wires with a sparse BF16 outlier side-channel: the top
    /// `fraction` magnitudes ship at 6 B each (u32 index + BF16 value) and
    /// stop inflating the dense tile scales.
    pub fn outlier_fp4(nb: usize, fraction: f64) -> Self {
        Wire::lossy(4, "ol-fp4", Wire::fp4_tiles(nb).with_outliers(fraction))
    }

    /// INT8 wires with `1×nb` tile scaling.
    pub fn int8(nb: usize) -> Self {
        Wire::lossy(8, "int8", Quantizer::int8_tile(nb))
    }

    /// Payload width in bits (element codes only; subbyte wires also move
    /// per-tile scales, which [`Wire::transmit`] accounts for exactly).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Short name for tables.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The quantizer behind this wire (`None` for exact f32 wires).
    pub fn codec(&self) -> Option<&Quantizer> {
        self.codec.as_ref()
    }

    /// Sends a payload across one simulated hop: encodes it into the very
    /// frame a fabric moves ([`crate::transport::frame`]), decodes that
    /// frame into `payload` (only once the codec has finished, so a
    /// panicking codec leaves it as it was), and returns the frame's
    /// accounted payload bytes. The test-support ring simulator and both
    /// transports therefore share one hop codec, and their payloads and byte
    /// counters agree by construction.
    pub fn transmit(&self, payload: &mut Vec<f32>, rng: &mut Rng) -> u64 {
        let (frame, bytes) = encode_frame(self, payload, rng);
        *payload = decode_frame(&frame)
            .expect("a frame encoded in-process decodes")
            .0;
        bytes
    }
}

/// When payloads are quantized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizePolicy {
    /// Every hop's payload is quantized — the true wire-precision design
    /// whose feasibility the paper leaves open. Partial sums are re-
    /// quantized `R − 1` times.
    EveryHop,
    /// Hops run at full precision; only each rank's final owned chunk is
    /// quantized once (models "reduce in BF16, store low-precision" — the
    /// conservative bracket).
    FinalOnly,
}

/// Chunk boundaries distributing `n` elements over `r` ranks (chunk `i` is
/// `[i·n/r, (i+1)·n/r)`, remainder spread evenly).
pub fn chunk_bounds(n: usize, r: usize) -> Vec<(usize, usize)> {
    assert!(r > 0, "need at least one rank");
    (0..r).map(|i| (i * n / r, (i + 1) * n / r)).collect()
}

/// What each hop ships through: `wire` itself under
/// [`QuantizePolicy::EveryHop`], full-precision f32 otherwise.
pub(crate) fn hop_wire(wire: &Wire, policy: QuantizePolicy) -> Wire {
    match policy {
        QuantizePolicy::EveryHop => *wire,
        QuantizePolicy::FinalOnly => Wire::exact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{
        exact_sum, oracle_hop, relative_error, ring_all_reduce, ring_reduce_scatter,
    };
    use snip_quant::{PackedQuantize, Precision, TensorRole};
    use snip_tensor::Tensor;

    fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(seed);
        (0..ranks)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    /// One stream per rank, disjoint across `seed`s.
    fn rngs(ranks: usize, seed: u64) -> Vec<Rng> {
        (0..ranks)
            .map(|r| Rng::seed_from(seed << 8 | r as u64))
            .collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn exact_wire_reduce_scatter_matches_reference() {
        let grads = make_grads(4, 64, 1);
        let exact = exact_sum(&grads);
        let rs = ring_reduce_scatter(
            &grads,
            &Wire::exact(),
            QuantizePolicy::EveryHop,
            &mut rngs(4, 2),
        );
        for (r, (lo, hi)) in rs.owned.iter().enumerate() {
            for i in *lo..*hi {
                let got = rs.per_rank[r][i - lo];
                assert!(
                    (got - exact[i]).abs() < 1e-5,
                    "rank {r} pos {i}: {got} vs {}",
                    exact[i]
                );
            }
        }
        assert!(relative_error(&rs, &exact) < 1e-6);
    }

    #[test]
    fn ownership_covers_the_vector_exactly_once() {
        let grads = make_grads(5, 33, 3); // deliberately not divisible
        let rs = ring_reduce_scatter(
            &grads,
            &Wire::exact(),
            QuantizePolicy::EveryHop,
            &mut rngs(5, 4),
        );
        let mut covered = vec![0u8; 33];
        for (lo, hi) in &rs.owned {
            for c in covered.iter_mut().take(*hi).skip(*lo) {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
    }

    #[test]
    fn all_reduce_gives_every_rank_the_full_sum() {
        let grads = make_grads(4, 40, 5);
        let exact = exact_sum(&grads);
        let ar = ring_all_reduce(
            &grads,
            &Wire::exact(),
            QuantizePolicy::EveryHop,
            &mut rngs(4, 6),
        );
        assert_eq!(ar.per_rank.len(), 4);
        for rank in &ar.per_rank {
            for (got, want) in rank.iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn wire_error_ordering_fp4_fp8_bf16() {
        let grads = make_grads(8, 256, 7);
        let exact = exact_sum(&grads);
        let err = |wire: Wire| {
            let rs = ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut rngs(8, 8));
            relative_error(&rs, &exact)
        };
        let e_bf16 = err(Wire::bf16());
        let e_fp8 = err(Wire::fp8(32));
        let e_fp4 = err(Wire::fp4(32));
        assert!(e_bf16 < e_fp8, "bf16 {e_bf16} !< fp8 {e_fp8}");
        assert!(e_fp8 < e_fp4, "fp8 {e_fp8} !< fp4 {e_fp4}");
        assert!(e_bf16 < 1e-2, "bf16 wires are essentially free: {e_bf16}");
    }

    #[test]
    fn fp4_error_grows_with_ring_size() {
        let err_at = |ranks: usize| {
            let grads = make_grads(ranks, 512, 11);
            let exact = exact_sum(&grads);
            let rs = ring_reduce_scatter(
                &grads,
                &Wire::fp4(64),
                QuantizePolicy::EveryHop,
                &mut rngs(ranks, 12),
            );
            relative_error(&rs, &exact)
        };
        let e2 = err_at(2);
        let e16 = err_at(16);
        assert!(
            e16 > e2,
            "more hops, more requantization error: {e2} → {e16}"
        );
    }

    #[test]
    fn final_only_is_a_ring_size_independent_storage_floor() {
        // Quantizing only the stored result costs (to first order) the FP4
        // error of the reduced tensor, whatever the ring size.
        let err_at = |ranks: usize| {
            let grads = make_grads(ranks, 512, 13);
            let exact = exact_sum(&grads);
            let rs = ring_reduce_scatter(
                &grads,
                &Wire::fp4(32),
                QuantizePolicy::FinalOnly,
                &mut rngs(ranks, 14),
            );
            relative_error(&rs, &exact)
        };
        let (e2, e16) = (err_at(2), err_at(16));
        assert!(
            (e2 / e16).ln().abs() < 0.7,
            "floor should be ~flat in ring size: {e2} vs {e16}"
        );
    }

    #[test]
    fn every_hop_beats_the_floor_on_tiny_rings() {
        // At R = 2 only one addend is ever quantized (the receiver's own
        // contribution stays exact), so every-hop sits below the
        // quantize-the-result floor; re-quantization makes it cross the
        // floor as rings grow.
        let grads = make_grads(2, 512, 15);
        let exact = exact_sum(&grads);
        let mut streams = rngs(2, 16);
        let every = ring_reduce_scatter(
            &grads,
            &Wire::fp4(32),
            QuantizePolicy::EveryHop,
            &mut streams,
        );
        let finale = ring_reduce_scatter(
            &grads,
            &Wire::fp4(32),
            QuantizePolicy::FinalOnly,
            &mut streams,
        );
        assert!(relative_error(&every, &exact) < relative_error(&finale, &exact));
    }

    #[test]
    fn bytes_accounting_is_byte_accurate() {
        // R = 4 ranks, N = 64 elements: reduce-scatter moves (R−1)·N = 192
        // elements in 3·4 = 12 payloads of 16 elements. Each payload carries
        // its packed codes *and* its 1×16-tile scale factor (one f32), so
        // subbyte wires are charged for scales, not just element bits.
        let grads = make_grads(4, 64, 15);
        let mut streams = rngs(4, 16);
        let mut bytes = |wire: Wire, policy| {
            ring_reduce_scatter(&grads, &wire, policy, &mut streams).bytes_on_wire
        };
        assert_eq!(
            bytes(Wire::fp8(16), QuantizePolicy::EveryHop),
            12 * (16 + 4)
        ); // 1 B/elem + scale
        assert_eq!(bytes(Wire::fp4(16), QuantizePolicy::EveryHop), 12 * (8 + 4)); // 0.5 B/elem + scale
        assert_eq!(bytes(Wire::bf16(), QuantizePolicy::EveryHop), 12 * 16 * 2); // 2 B/elem, no scales
                                                                                // FinalOnly pays full f32 on the wire.
        assert_eq!(bytes(Wire::fp4(16), QuantizePolicy::FinalOnly), 3 * 64 * 4);
    }

    /// Every quantizer the tree builds packs — `pack` and
    /// `packed_wire_bytes` both `Some`, and equal in size — or is the BF16
    /// quantizer: each policy precision × operand role × group, every wire
    /// codec, and the §5.2 constructors.
    #[test]
    fn every_in_tree_quantizer_packs_or_is_bf16() {
        let roles = [
            TensorRole::Input,
            TensorRole::Weight,
            TensorRole::OutputGrad,
        ];
        let mut all: Vec<Quantizer> = Precision::ALL
            .into_iter()
            .flat_map(|p| roles.map(|role| (p, role)))
            .flat_map(|(p, role)| {
                [1, 8, 32, 128]
                    .map(|group| p.quantizer_with_group(role, group))
                    .into_iter()
                    .chain([p.quantizer_for(role)])
            })
            .collect();
        let wires = [
            Wire::exact(),
            Wire::bf16(),
            Wire::fp8(16),
            Wire::fp4(16),
            Wire::mxfp4(),
            Wire::rht_fp4(16, 3),
            Wire::outlier_fp4(16, 0.05),
            Wire::int8(16),
        ];
        all.extend(wires.iter().filter_map(|w| w.codec().copied()));
        let fp4 = Precision::Fp4.quantizer_for(TensorRole::Input);
        all.extend([
            Quantizer::int8_tile(16),
            Quantizer::mxfp4(),
            Quantizer::mxfp8(),
            fp4.with_rht(16, 1),
            fp4.with_outliers(0.1),
        ]);
        let t = Tensor::randn(3, 40, 1.0, &mut Rng::seed_from(1));
        let mut bf16 = 0;
        for q in all {
            let packed = q.pack(&t, &mut Rng::seed_from(2));
            match (packed, q.packed_wire_bytes(3, 40)) {
                (Some(p), Some(bytes)) => {
                    assert!(q.packable(), "{q:?}");
                    assert_eq!(p.wire_bytes(), bytes, "{q:?}");
                }
                (None, None) => {
                    assert_eq!(q, Quantizer::unscaled());
                    bf16 += 1;
                }
                (p, bytes) => panic!("{q:?}: pack {p:?}, wire bytes {bytes:?}"),
            }
        }
        // Each role × group of BF16, and the BF16 wire.
        assert_eq!(bf16, 3 * 5 + 1);
    }

    #[test]
    fn transmit_decodes_to_the_fake_quantized_payload() {
        // The packed wire must be numerically invisible: transmit's decode
        // equals the fake-quantization of the same payload, bit for bit.
        let mut payload: Vec<f32> = (0..48).map(|i| (i as f32 - 20.0) * 0.37).collect();
        let wire = Wire::fp4(16);
        let mut r1 = Rng::seed_from(9);
        let mut r2 = Rng::seed_from(9);
        let reference = oracle_hop(&wire, &payload, &mut r2);
        let bytes = wire.transmit(&mut payload, &mut r1);
        assert_eq!(r1, r2, "same draws");
        assert_eq!(bytes, 24 + 3 * 4);
        for (a, b) in payload.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn alternative_quantizer_wires_transmit_byte_accurately() {
        // Every §5.2 option rides the same PackedQuantize path: transmitted
        // bytes equal the codec's analytic packed volume, and the decoded
        // payload equals the dense oracle bit-for-bit.
        let n = 96usize;
        let mut base: Vec<f32> = (0..n).map(|i| (i as f32 - 40.0) * 0.21).collect();
        base[7] = 50.0; // an outlier for the split wire
        for wire in [
            Wire::mxfp4(),
            Wire::rht_fp4(32, 5),
            Wire::outlier_fp4(32, 0.02),
            Wire::int8(32),
        ] {
            let mut payload = base.clone();
            let mut r1 = Rng::seed_from(21);
            let mut r2 = Rng::seed_from(21);
            let bytes = wire.transmit(&mut payload, &mut r1);
            let reference = oracle_hop(&wire, &base, &mut r2);
            assert_eq!(r1, r2, "{}: same draws", wire.label());
            assert_eq!(
                Some(bytes),
                wire.codec().unwrap().packed_wire_bytes(1, n),
                "{}",
                wire.label()
            );
            for (a, b) in payload.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs {b}", wire.label());
            }
        }
        // MX wires are cheaper than plain FP4 wires at the same element
        // width: E8M0 block scales cost 1 B against f32 tile scales' 4 B.
        let mx = Wire::mxfp4().codec().unwrap().packed_wire_bytes(1, n);
        let fp4 = Wire::fp4(32).codec().unwrap().packed_wire_bytes(1, n);
        assert!(mx < fp4, "mx {mx:?} !< fp4 {fp4:?}");
    }

    #[test]
    fn rht_wire_reduces_error_on_outlier_heavy_gradients() {
        // The point of shipping RHT as a wire option: spike-contaminated
        // gradients quantize better after rotation, at identical bytes.
        let mut rng = Rng::seed_from(31);
        let n = 512;
        let grads: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                let mut g: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                for s in 0..4 {
                    g[s * 128 + 17] = 60.0;
                }
                g
            })
            .collect();
        let exact = exact_sum(&grads);
        let run = |wire: Wire, seed: u64| {
            ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut rngs(4, seed))
        };
        let err = |wire: Wire| relative_error(&run(wire, 32), &exact);
        let plain = err(Wire::fp4(128));
        let rht = err(Wire::rht_fp4(128, 9));
        let split = err(Wire::outlier_fp4(128, 4.0 / 512.0));
        assert!(rht < plain, "rht {rht} !< plain fp4 {plain}");
        assert!(split < plain, "outlier {split} !< plain fp4 {plain}");
        assert_eq!(
            run(Wire::fp4(128), 33).bytes_on_wire,
            run(Wire::rht_fp4(128, 9), 33).bytes_on_wire,
            "rotation must not change wire volume"
        );
    }

    #[test]
    fn ranked_stochastic_wires_draw_only_each_ranks_own_sends() {
        // Under stochastic FP4 each rank's stream advances only for its own
        // transmissions: re-running with the same per-rank seeds reproduces
        // the result exactly, and byte accounting and ownership do not
        // depend on the streams at all.
        let grads = make_grads(3, 48, 23);
        let run = |seed: u64| {
            ring_reduce_scatter(
                &grads,
                &Wire::fp4(16),
                QuantizePolicy::EveryHop,
                &mut rngs(3, seed),
            )
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a, b, "ranked runs must be deterministic");
        let other = run(5);
        assert_eq!(a.bytes_on_wire, other.bytes_on_wire);
        assert_eq!(a.owned, other.owned);
    }

    #[test]
    #[should_panic(expected = "one RNG stream per rank")]
    fn ranked_requires_one_rng_per_rank() {
        let grads = make_grads(3, 16, 27);
        let mut rngs = vec![Rng::seed_from(0); 2];
        let _ = ring_reduce_scatter(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut rngs);
    }

    #[test]
    fn transmit_leaves_payload_length_and_allocation_semantics_intact() {
        // transmit never steals the caller's buffer: the length is
        // preserved on every codec path, including the unpackable BF16 one.
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let mut payload: Vec<f32> = (0..40).map(|i| i as f32 * 0.11 - 2.0).collect();
            let mut rng = Rng::seed_from(3);
            let _ = wire.transmit(&mut payload, &mut rng);
            assert_eq!(payload.len(), 40, "{}", wire.label());
        }
    }

    #[test]
    fn single_rank_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let rs = ring_reduce_scatter(
            &grads,
            &Wire::fp4(8),
            QuantizePolicy::EveryHop,
            &mut rngs(1, 18),
        );
        assert_eq!(rs.bytes_on_wire, 0);
        assert_eq!(rs.owned, vec![(0, 16)]);
        assert_eq!(rs.per_rank[0], grads[0]);
    }

    #[test]
    fn stochastic_fp4_wire_sum_is_unbiased() {
        // Average the all-reduced value over many seeds: stochastic
        // rounding keeps the expectation at the exact sum.
        let grads = vec![vec![0.37f32; 32], vec![0.11f32; 32]];
        let exact = exact_sum(&grads);
        let trials = 400;
        let mut acc = vec![0.0f64; 32];
        for seed in 0..trials {
            let rs = ring_reduce_scatter(
                &grads,
                &Wire::fp4(32),
                QuantizePolicy::EveryHop,
                &mut rngs(2, seed),
            );
            for (r, (lo, _)) in rs.owned.iter().enumerate() {
                for (i, v) in rs.per_rank[r].iter().enumerate() {
                    acc[lo + i] += *v as f64;
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - exact[i] as f64).abs() < 0.02,
                "pos {i}: mean {mean} vs exact {}",
                exact[i]
            );
        }
    }
}
