//! Packed ↔ fake-quantization bit-equivalence for the §5.2 alternative
//! quantizers (MX, RHT, outlier split), mirroring the FP4/FP8/INT suites in
//! the crate's unit tests, plus the fused single-pass stochastic-rounding
//! pack against its two-step `encode(quantize_stochastic(..))` oracle (both
//! oracles are test support, `support/oracle.rs`).
//!
//! The contract under test is [`PackedQuantize`]'s: for every packing
//! quantizer, `pack(t, rng).dequantize()` must equal the oracle
//! `fake_quantize(t, rng')` bit for bit when both start from the same RNG
//! state, and both paths must consume
//! the same number of stochastic draws. The fused-SR suite sharpens this to
//! the packed *codes* themselves (not just their decoded values) and to the
//! exact RNG stream position.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{ElementRule, Oracle, ReferencePack};
use proptest::prelude::*;
use snip_quant::format::{ElementFormat, FloatFormat};
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{Codebook, PackedQuantize, PackedTensor, Quantizer, Rounding, WIRE_HEADER_BYTES};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

/// A `rows × cols` tensor or — three draws in eight — one of its empty
/// shapes, on which every quantizer must still agree with its oracle.
fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    (0usize..8).prop_flat_map(move |kind| {
        let (rows, cols) = EMPTY_SHAPES.get(kind).copied().unwrap_or((rows, cols));
        proptest::collection::vec(-100.0f32..100.0, rows * cols)
            .prop_map(move |v| Tensor::from_vec(rows, cols, v))
    })
}

const EMPTY_SHAPES: [(usize, usize); 3] = [(0, 7), (6, 0), (0, 0)];

const GRANULARITIES: [Granularity; 5] = [
    Granularity::Tensorwise,
    Granularity::Rowwise,
    Granularity::Columnwise,
    Granularity::Block { nb: 5 },
    Granularity::Tile { nb: 5 },
];

const ROUNDINGS: [Rounding; 2] = [Rounding::Nearest, Rounding::Stochastic];

/// Packs and fake-quantizes from identical RNG states; asserts bit-identical
/// results and identical draw consumption, and that the packed form
/// survives its wire encoding.
fn assert_packed_equivalence(q: &Quantizer, t: &Tensor, seed: u64, ctx: &str) {
    let mut rng_fake = Rng::seed_from(seed);
    let mut rng_packed = Rng::seed_from(seed);
    let fake = q.fake_quantize(t, &mut rng_fake);
    let packed = q.pack(t, &mut rng_packed).expect("packable");
    let decoded = packed.dequantize();
    assert_eq!(decoded.shape(), fake.shape(), "{ctx}");
    for (i, (x, y)) in fake.as_slice().iter().zip(decoded.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
    assert_eq!(
        rng_fake.next_u64(),
        rng_packed.next_u64(),
        "{ctx}: rng stream diverged"
    );
    let wire = packed.to_wire_bytes().expect("serializable");
    assert_eq!(
        wire.len() as u64,
        WIRE_HEADER_BYTES as u64 + packed.wire_bytes()
    );
    assert_eq!(
        PackedTensor::from_wire_bytes(&wire).expect("well-formed"),
        packed,
        "{ctx}: wire round trip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MX packed codes decode bit-identically to the MX fake path, for both
    /// element formats and both rounding modes (granularity is fixed at the
    /// spec's 1×32 blocks, including the ragged 38-column tail here).
    #[test]
    fn mx_packed_matches_oracle(t in tensor_strategy(6, 38), seed in 0u64..1_000) {
        for base in [Quantizer::mxfp4(), Quantizer::mxfp8()] {
            for rounding in ROUNDINGS {
                let q = base.with_rounding(rounding);
                assert_packed_equivalence(&q, &t, seed, &format!("mx {:?} {rounding:?}", q.format()));
            }
        }
    }

    /// RHT packed codes (rotated domain + seed) decode bit-identically to
    /// rotate → fake-quantize → rotate-back, across every inner granularity
    /// × rounding mode and a block that does not divide the width.
    #[test]
    fn rht_packed_matches_oracle(t in tensor_strategy(5, 37), seed in 0u64..1_000) {
        for g in GRANULARITIES {
            for rounding in ROUNDINGS {
                let inner = Quantizer::new(FloatFormat::e2m1(), g, rounding);
                let q = inner.with_rht(16, 7);
                assert_packed_equivalence(&q, &t, seed, &format!("rht {g} {rounding:?}"));
            }
        }
    }

    /// Outlier-split packed form (dense body + sparse BF16 list) decodes
    /// bit-identically to the fake split, across granularity × rounding ×
    /// outlier fraction.
    #[test]
    fn outlier_packed_matches_oracle(t in tensor_strategy(5, 26), seed in 0u64..1_000) {
        for g in GRANULARITIES {
            for rounding in ROUNDINGS {
                for fraction in [0.0, 0.02, 0.25] {
                    let dense = Quantizer::new(FloatFormat::e2m1(), g, rounding);
                    let q = dense.with_outliers(fraction);
                    assert_packed_equivalence(
                        &q, &t, seed, &format!("outlier {g} {rounding:?} f={fraction}"),
                    );
                }
            }
        }
    }

    /// `error_norm` — computed through the pack engine and a row-streamed
    /// decode, or a row-streamed rounding for BF16 — equals the norm of the
    /// materialised scalar oracle, `fake_quantize(t)` under nearest
    /// rounding then `distance(t)`, bit for bit: every packable float
    /// format × granularity (ragged 5-wide groups over a 7×29 tensor) ×
    /// {max-abs, RHT, outlier split} recipe, the quantizer's own rounding
    /// mode notwithstanding, plus integer widths from 2 to 8 bits, both MX
    /// formats and the BF16 quantizer.
    #[test]
    fn error_norm_matches_the_fake_quantize_oracle(t in tensor_strategy(7, 29)) {
        let mut rng = Rng::seed_from(0); // nearest rounding draws nothing
        for g in GRANULARITIES {
            for rounding in ROUNDINGS {
                for fmt in [
                    FloatFormat::e2m1(),
                    FloatFormat::e4m3(),
                    FloatFormat::e5m2(),
                    FloatFormat::e3m4(),
                ] {
                    let q = Quantizer::new(fmt, g, rounding);
                    // The plain recipe, then the same quantizer behind a
                    // rotation (a block that does not divide the width)
                    // and an outlier split.
                    for q in [q, q.with_rht(8, 7), q.with_outliers(0.02)] {
                        let want = q.with_rounding(Rounding::Nearest).fake_quantize(&t, &mut rng).distance(&t);
                        prop_assert_eq!(q.error_norm(&t).to_bits(), want.to_bits(), "{:?}", q);
                    }
                }
                for bits in [2, 4, 8] {
                    let q = Quantizer::new(IntFormat::new(bits), g, rounding);
                    let nearest = Quantizer::new(IntFormat::new(bits), g, Rounding::Nearest);
                    let want = nearest.fake_quantize(&t, &mut rng).distance(&t);
                    prop_assert_eq!(q.error_norm(&t).to_bits(), want.to_bits(), "int{} {} {:?}", bits, g, rounding);
                }
            }
        }
        let bf16 = Quantizer::unscaled();
        let want = bf16.fake_quantize(&t, &mut rng).distance(&t);
        prop_assert_eq!(bf16.error_norm(&t).to_bits(), want.to_bits(), "bf16");
        for rounding in ROUNDINGS {
            for base in [Quantizer::mxfp4(), Quantizer::mxfp8()] {
                let q = base.with_rounding(rounding);
                let want = base.fake_quantize(&t, &mut rng).distance(&t);
                prop_assert_eq!(q.error_norm(&t).to_bits(), want.to_bits(), "mx {:?} {:?}", q.format(), rounding);
            }
        }
        prop_assert_eq!(rng, Rng::seed_from(0));
    }

    /// Composed options still match: an RHT wrapper around FP8, and an
    /// outlier split over an INT4 body, under stochastic rounding.
    #[test]
    fn composed_options_match_oracle(t in tensor_strategy(4, 32), seed in 0u64..1_000) {
        let rht8 =
            Quantizer::new(FloatFormat::e4m3(), Granularity::Tile { nb: 8 }, Rounding::Stochastic)
                .with_rht(8, 3);
        assert_packed_equivalence(&rht8, &t, seed, "rht fp8 stochastic");
        let int_q = Quantizer::new(IntFormat::int4(), Granularity::Rowwise, Rounding::Stochastic);
        assert_packed_equivalence(&int_q, &t, seed, "int4 stochastic");
        // Element format and recipe are independent fields of one type, so
        // the integer grid composes with the split and the rotation too.
        assert_packed_equivalence(&int_q.with_outliers(0.05), &t, seed, "int4 outlier split");
        assert_packed_equivalence(&int_q.with_rht(8, 3), &t, seed, "rht int4");
    }

    /// The fused single-pass stochastic pack (`Quantizer::quantize_packed`
    /// under `Rounding::Stochastic`) against the test-support two-step
    /// oracle `cb.encode(quantize_stochastic(scaled, next_f32()))`: **bit-identical
    /// packed codes and scales, and the identical RNG stream position
    /// afterwards**, for every float format × granularity.
    #[test]
    fn fused_stochastic_pack_matches_two_step_oracle(
        t in tensor_strategy(7, 29),
        seed in 0u64..1_000,
    ) {
        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            for g in GRANULARITIES {
                assert_fused_sr_matches_oracle(fmt, g, &t, seed);
            }
        }
    }
}

/// Runs the fused stochastic pack and the two-step oracle from identical
/// RNG states; asserts code-for-code, scale-for-scale bit equality and the
/// same stream position after.
fn assert_fused_sr_matches_oracle(fmt: FloatFormat, g: Granularity, t: &Tensor, seed: u64) {
    let cb: &Codebook = ElementFormat::from(fmt).codebook().unwrap();
    let mut rng_fused = Rng::seed_from(seed);
    let mut rng_oracle = Rng::seed_from(seed);
    let q = Quantizer::new(fmt, g, Rounding::Stochastic);
    let fused = q
        .quantize_packed(t, &mut rng_fused)
        .expect("float formats are packable");
    let oracle = cb.pack(t, g, fmt.max_value(), &mut rng_oracle, |scaled, rng| {
        fmt.quantize_stochastic(scaled, rng.next_f32())
    });
    let ctx = format!("{fmt} {g}");
    assert_eq!(fused.shape(), oracle.shape(), "{ctx}: shape");
    assert_eq!(
        fused.packed_data(),
        oracle.packed_data(),
        "{ctx}: packed code bytes"
    );
    let (rows, cols) = t.shape();
    for r in 0..rows {
        for c in 0..cols {
            assert_eq!(fused.code(r, c), oracle.code(r, c), "{ctx}: code ({r},{c})");
        }
    }
    for (i, (a, b)) in fused.scales().iter().zip(oracle.scales()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: scale {i}");
    }
    assert_eq!(
        rng_fused.next_u64(),
        rng_oracle.next_u64(),
        "{ctx}: rng stream diverged"
    );
}

/// Empty tensors pack to the empty packed tensor — no scale groups, no
/// codes, no draws — under all five layouts, both code widths and both
/// rounding modes, exactly as the fake oracle returns the empty tensor.
/// (The strategy above also feeds empty shapes to every property; this
/// pins each combination on every run.)
#[test]
fn empty_shapes_pack_like_the_fake_oracle() {
    for (rows, cols) in EMPTY_SHAPES {
        let t = Tensor::zeros(rows, cols);
        for g in GRANULARITIES {
            for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3()] {
                for rounding in ROUNDINGS {
                    let q = Quantizer::new(fmt, g, rounding);
                    let ctx = format!("{rows}x{cols} {fmt} {g} {rounding:?}");
                    assert_packed_equivalence(&q, &t, 5, &ctx);
                    let packed = q.quantize_packed(&t, &mut Rng::seed_from(5)).unwrap();
                    assert_eq!(packed.shape(), (rows, cols), "{ctx}");
                    assert!(packed.scales().is_empty(), "{ctx}: scales");
                    assert!(packed.packed_data().is_empty(), "{ctx}: codes");
                }
                assert_fused_sr_matches_oracle(fmt, g, &t, 5);
            }
            for bits in [4, 8] {
                let q = Quantizer::new(IntFormat::new(bits), g, Rounding::Stochastic);
                assert_packed_equivalence(&q, &t, 5, &format!("{rows}x{cols} int{bits} {g}"));
            }
        }
    }
}

/// Edge inputs the fused index arithmetic must get right: signed zeros
/// (negative underflow must encode as `-0.0`'s code), NaN and infinities,
/// f32 subnormals, exact grid values and binade boundaries, midpoints,
/// values at/above saturation, and the truncated top binade of e4m3/e5m2.
/// One element pins max|t| = FPX_MAX so the tensorwise scale is exactly 1
/// and the probe values hit the format grid unscaled; the stochastic draws
/// still exercise both round directions across seeds.
#[test]
fn fused_stochastic_pack_handles_edge_inputs() {
    for fmt in [
        FloatFormat::e2m1(),
        FloatFormat::e4m3(),
        FloatFormat::e5m2(),
        FloatFormat::e3m4(),
    ] {
        let max = fmt.max_value();
        let mut probes = vec![
            max, // scale anchor: tensorwise scale = max/max = 1
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),           // smallest f32 subnormal
            f32::from_bits(0x0070_0000), // f32 subnormal with high mantissa
            fmt.min_subnormal(),
            fmt.min_subnormal() / 2.0,
            -fmt.min_subnormal() / 4.0, // rounds to ±0 → sign must fold like the oracle
            max - 1e-3 * max,
            -max,
            max * 0.99999,
        ];
        // Every grid value and every adjacent midpoint, both signs.
        let values = fmt.enumerate_non_negative();
        for w in values.windows(2) {
            probes.push(w[0]);
            probes.push(-(w[1]));
            probes.push((w[0] + w[1]) / 2.0);
            probes.push(-(w[0] + w[1]) / 2.0);
        }
        let cols = probes.len();
        let t = Tensor::from_vec(1, cols, probes);
        for seed in [0u64, 1, 7, 0xDEAD, 12345] {
            assert_fused_sr_matches_oracle(fmt, Granularity::Tensorwise, &t, seed);
        }
    }
}
