//! Cross-crate properties of the packed subbyte pipeline.
//!
//! The contract under test: for every packable format × granularity ×
//! rounding mode, quantize→pack→unpack→dequantize is **bit-identical** to
//! the fake-quantization reference path, and the packed GEMM kernels match
//! the dense GEMMs over dequantized operands with **0 ULP** of difference
//! (same decode order, same accumulation order).

#[path = "../crates/quant/tests/support/oracle.rs"]
mod oracle;

use oracle::Oracle;
use proptest::prelude::*;
use snip::quant::format::FloatFormat;
use snip::quant::granularity::Granularity;
use snip::quant::int::IntFormat;
use snip::quant::{Quantizer, Rounding};
use snip::tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip::tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip::tensor::rng::Rng;
use snip::tensor::{QOperandRef, Tensor};

const FORMATS: [fn() -> FloatFormat; 4] = [
    FloatFormat::e2m1,
    FloatFormat::e4m3,
    FloatFormat::e5m2,
    FloatFormat::e3m4,
];

fn granularity(idx: usize, nb: usize) -> Granularity {
    match idx {
        0 => Granularity::Tensorwise,
        1 => Granularity::Rowwise,
        2 => Granularity::Columnwise,
        3 => Granularity::Block { nb },
        _ => Granularity::Tile { nb },
    }
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs: {x} vs {y} (0 ULP required)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exhaustive over format × granularity × rounding: the packed pipeline
    /// reproduces fake quantization bit-for-bit, with the same RNG stream.
    #[test]
    fn pack_unpack_is_bit_identical_to_fake_quant(
        seed in 0u64..10_000,
        rows in 1usize..12,
        cols in 1usize..24,
        nb in 1usize..9,
        scale_pow in -8i32..8,
    ) {
        let mut data_rng = Rng::seed_from(seed);
        let mut t = Tensor::randn(rows, cols, 1.0, &mut data_rng);
        t.scale((scale_pow as f32).exp2());
        for fmt in FORMATS {
            let fmt = fmt();
            for g_idx in 0..5 {
                let g = granularity(g_idx, nb);
                for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                    let q = Quantizer::new(fmt, g, rounding);
                    let mut rng_fake = Rng::seed_from(seed ^ 0xABCD);
                    let mut rng_packed = Rng::seed_from(seed ^ 0xABCD);
                    let fake = q.fake_quantize(&t, &mut rng_fake);
                    let packed = q.quantize_packed(&t, &mut rng_packed)
                        .expect("subbyte formats are packable");
                    assert_bits_equal(&fake, &packed.dequantize(),
                        &format!("{fmt} {g} {rounding:?}"));
                    prop_assert_eq!(rng_fake.next_u64(), rng_packed.next_u64(),
                        "RNG streams diverged for {} {}", fmt, g);
                }
            }
        }
    }

    /// The packed GEMM trio matches the dense GEMMs over the dequantized
    /// operands with 0 ULP, for random shapes and mixed layouts.
    #[test]
    fn qgemm_trio_is_0_ulp_vs_dense(
        seed in 0u64..10_000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        nb in 1usize..9,
    ) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(m, k, 1.0, &mut rng);
        let w_nt = Tensor::randn(n, k, 1.0, &mut rng);
        let dy_tn = Tensor::randn(k, m, 1.0, &mut rng);
        let b_nn = Tensor::randn(k, n, 1.0, &mut rng);

        let qa = Quantizer::new(FloatFormat::e2m1(), Granularity::Tile { nb }, Rounding::Nearest);
        let qw = Quantizer::new(FloatFormat::e4m3(), Granularity::Block { nb }, Rounding::Nearest);

        let px = qa.quantize_packed(&x, &mut rng).unwrap();
        let pw = qw.quantize_packed(&w_nt, &mut rng).unwrap();
        let pdy = qa.quantize_packed(&dy_tn, &mut rng).unwrap();
        let pb = qw.quantize_packed(&b_nn, &mut rng).unwrap();

        let (dx, dw, ddy, db) =
            (px.dequantize(), pw.dequantize(), pdy.dequantize(), pb.dequantize());

        assert_bits_equal(
            &qgemm(QOperandRef::from(&px), QOperandRef::from(&pb)),
            &matmul(&dx, &db),
            "qgemm",
        );
        assert_bits_equal(
            &qgemm_nt(QOperandRef::from(&px), QOperandRef::from(&pw)),
            &matmul_nt(&dx, &dw),
            "qgemm_nt",
        );
        assert_bits_equal(
            &qgemm_tn(QOperandRef::from(&pdy), QOperandRef::from(&pb)),
            &matmul_tn(&ddy, &db),
            "qgemm_tn",
        );
        // Mixed packed × dense operands hold to the same contract.
        assert_bits_equal(
            &qgemm_nt(QOperandRef::from(&x), QOperandRef::from(&pw)),
            &matmul_nt(&x, &dw),
            "qgemm_nt mixed",
        );
    }

    /// Integer formats obey the same pack/unpack bit-identity.
    #[test]
    fn int_pack_unpack_is_bit_identical(
        seed in 0u64..10_000,
        rows in 1usize..10,
        cols in 1usize..20,
        nb in 1usize..7,
        bits in 2u32..9,
    ) {
        let mut data_rng = Rng::seed_from(seed);
        let t = Tensor::randn(rows, cols, 2.0, &mut data_rng);
        for g_idx in 0..5 {
            let g = granularity(g_idx, nb);
            for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                let q = Quantizer::new(IntFormat::new(bits), g, rounding);
                let mut rng_fake = Rng::seed_from(seed ^ 0x77);
                let mut rng_packed = Rng::seed_from(seed ^ 0x77);
                let fake = q.fake_quantize(&t, &mut rng_fake);
                let packed = q.quantize_packed(&t, &mut rng_packed).expect("packable");
                assert_bits_equal(&fake, &packed.dequantize(), &format!("int{bits} {g}"));
            }
        }
    }
}

/// The scaling-granularity enum moved from `snip-quant` to `snip-tensor`
/// (one definition; `Granularity` is now `GroupLayout`'s name in
/// `snip-quant`). A serialized `Quantizer` — the codec of a `Wire` inside a
/// START message — carries the `GroupLayout` tags, so what the previous
/// definition wrote must still read back equal (the tags below were
/// serialized at the commit before the move), and what is written now must
/// be those same strings. The quantizer's own literal follows the type's
/// current fields.
#[test]
fn serialized_forms_survive_the_granularity_merge() {
    const FMT: &str =
        r#"{"kind":"E2M1","exp_bits":2,"man_bits":1,"emax":2,"emin":0,"max_value":6.0}"#;
    for (g, tag) in [
        (Granularity::Tensorwise, r#""Tensorwise""#),
        (Granularity::Rowwise, r#""Rowwise""#),
        (Granularity::Columnwise, r#""Columnwise""#),
        (Granularity::Block { nb: 128 }, r#"{"Block":{"nb":128}}"#),
        (Granularity::Tile { nb: 2 }, r#"{"Tile":{"nb":2}}"#),
    ] {
        let json = format!(
            r#"{{"format":{{"Float":{FMT}}},"layout":{tag},"rounding":"Stochastic","recipe":"MaxAbs"}}"#
        );
        let q = Quantizer::new(FloatFormat::e2m1(), g, Rounding::Stochastic);
        assert_eq!(serde_json::from_str::<Quantizer>(&json).unwrap(), q, "{g}");
        assert_eq!(serde_json::to_string(&q).unwrap(), json, "{g}");
    }
}

/// A serialized `FloatFormat` spells out its fields, but the codebook is
/// keyed by `kind` alone: fields that contradict the kind would pack as one
/// format and fake-quantize as another, so they must not deserialize.
#[test]
fn float_format_fields_must_agree_with_kind() {
    for fmt in [
        FloatFormat::e2m1(),
        FloatFormat::e4m3(),
        FloatFormat::e5m2(),
        FloatFormat::e3m4(),
        FloatFormat::bf16(),
    ] {
        let json = serde_json::to_string(&fmt).unwrap();
        assert_eq!(serde_json::from_str::<FloatFormat>(&json).unwrap(), fmt);
    }
    // E2M1 by name, E4M3 by every field.
    let forged =
        r#"{"kind":"E2M1","exp_bits":4,"man_bits":3,"emax":8,"emin":-6,"max_value":448.0}"#;
    let err = serde_json::from_str::<FloatFormat>(forged).unwrap_err();
    assert!(err.to_string().contains("contradict kind E2M1"), "{err}");
    // One wrong field is enough, and it fails a `Quantizer` that holds it.
    let off_by_one =
        r#"{"kind":"E2M1","exp_bits":2,"man_bits":1,"emax":2,"emin":0,"max_value":8.0}"#;
    assert!(serde_json::from_str::<FloatFormat>(off_by_one).is_err());
    let quantizer = format!(
        r#"{{"format":{{"Float":{off_by_one}}},"layout":"Rowwise","rounding":"Nearest","recipe":"MaxAbs"}}"#
    );
    assert!(serde_json::from_str::<Quantizer>(&quantizer).is_err());
}
