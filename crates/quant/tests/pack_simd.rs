//! The pack engine's bit- and RNG-stream-identity across SIMD backends.
//!
//! Every packing `Quantizer` packs through the runtime-dispatched encode
//! kernels of `snip_tensor::encode`. Backend choice must be a pure
//! performance decision, so for every tier this process can run
//! (`simd::available_backends()`) a pack must produce the **same code
//! bytes, the same scales and the same post-call `Rng` state** as the
//! forced-scalar tier — and decode bit-for-bit to what the fake-quant
//! oracle (`Quantizer::fake_quantize`) returns from the same starting RNG state,
//! having consumed the same draws.
//!
//! CI reruns this suite under `SNIP_SIMD=0`, `SNIP_SIMD=avx2`,
//! `--no-default-features` (where the sweep degenerates to the scalar
//! tier) and `--release`.

use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{PackedQuantize, PackedTensor, Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::simd::{self, Backend};
use snip_tensor::Tensor;

const ROUNDINGS: [Rounding; 2] = [Rounding::Nearest, Rounding::Stochastic];

/// {e2m1, e4m3, e5m2, int4, int8, mxfp4, rht, outlier} under one
/// granularity and rounding (MX scales by its own fixed 1×32 tiles).
fn quantizers(g: Granularity, r: Rounding) -> [(&'static str, Quantizer); 8] {
    let float = |fmt| Quantizer::new(fmt, g, r);
    [
        ("e2m1", float(FloatFormat::e2m1())),
        ("e4m3", float(FloatFormat::e4m3())),
        ("e5m2", float(FloatFormat::e5m2())),
        ("int4", Quantizer::new(IntFormat::int4(), g, r)),
        ("int8", Quantizer::new(IntFormat::int8(), g, r)),
        ("mxfp4", Quantizer::mxfp4().with_rounding(r)),
        ("rht", float(FloatFormat::e2m1()).with_rht(8, 11)),
        ("outlier", float(FloatFormat::e2m1()).with_outliers(0.05)),
    ]
}

fn granularities(nb: usize) -> [Granularity; 5] {
    [
        Granularity::Tensorwise,
        Granularity::Rowwise,
        Granularity::Columnwise,
        Granularity::Block { nb },
        Granularity::Tile { nb },
    ]
}

fn pack_on(bk: Backend, q: &Quantizer, t: &Tensor, seed: u64) -> (PackedTensor, Rng) {
    simd::with_forced_backend(bk, || {
        let mut rng = Rng::seed_from(seed);
        let packed = q.pack(t, &mut rng).expect("packable");
        (packed, rng)
    })
}

/// Every available tier vs forced scalar (codes, scales, RNG state), and
/// the scalar tier vs the fake-quant oracle (decoded bits, RNG state).
fn assert_backends_agree(q: &Quantizer, t: &Tensor, seed: u64, ctx: &str) {
    let (reference, rng_ref) = pack_on(Backend::Scalar, q, t, seed);
    for bk in simd::available_backends() {
        let (packed, rng) = pack_on(bk, q, t, seed);
        let ctx = format!("{ctx} @ {}", bk.name());
        assert_eq!(
            packed.codes().packed_data(),
            reference.codes().packed_data(),
            "{ctx}: code bytes"
        );
        let scales = |p: &PackedTensor| -> Vec<u32> {
            p.codes().scales().iter().map(|s| s.to_bits()).collect()
        };
        assert_eq!(scales(&packed), scales(&reference), "{ctx}: scales");
        assert_eq!(rng, rng_ref, "{ctx}: rng state");
    }
    let mut rng_fake = Rng::seed_from(seed);
    let fake = q.fake_quantize(t, &mut rng_fake);
    let decoded = reference.dequantize();
    assert_eq!(decoded.shape(), fake.shape(), "{ctx}");
    for (i, (x, y)) in fake.as_slice().iter().zip(decoded.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
    assert_eq!(rng_fake, rng_ref, "{ctx}: rng state vs oracle");
}

fn assert_all_quantizers_agree(t: &Tensor, nb: usize, seed: u64) {
    let (rows, cols) = t.shape();
    for g in granularities(nb) {
        for r in ROUNDINGS {
            for (name, q) in quantizers(g, r) {
                let ctx = format!("{name} {g} {r:?} {rows}x{cols}");
                assert_backends_agree(&q, t, seed, &ctx);
            }
        }
    }
}

/// Mostly ordinary values, salted with zeros of both signs and magnitudes
/// far below / above the rest of their group (underflow to ±0 codes, one
/// element owning the group scale).
fn element() -> impl Strategy<Value = f32> {
    (0u32..16, -100.0f32..100.0).prop_map(|(class, v)| match class {
        0 => 0.0,
        1 => -0.0,
        2 => v * 1e-6,
        3 => v * 1e4,
        _ => v,
    })
}

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(element(), rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ragged matrices: odd `cols` (row tail nibbles), odd group widths
    /// (segments starting on odd columns → head nibbles), `cols` below
    /// every lane width, and groups wider than one vector.
    #[test]
    fn every_backend_packs_ragged_matrices_identically(
        t in (1usize..6, 1usize..70).prop_flat_map(|(r, c)| tensor(r, c)),
        nb in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        assert_all_quantizers_agree(&t, nb, seed);
    }

    /// `1×n` wire payloads: one long row, so tensorwise / rowwise groups
    /// span several stochastic draw chunks (at odd offsets for odd `nb`).
    #[test]
    fn every_backend_packs_wire_payloads_identically(
        t in (1usize..700).prop_flat_map(|n| tensor(1, n)),
        nb in 1usize..300,
        seed in 0u64..1_000_000,
    ) {
        assert_all_quantizers_agree(&t, nb, seed);
    }
}

/// `probes` repeated to `len` elements (every probe visits every lane
/// position of every backend), with `anchor` first so a tensorwise scale
/// is exactly `grid_max / anchor`.
fn probe_row(anchor: f32, probes: &[f32], len: usize) -> Tensor {
    let mut v = vec![anchor];
    v.extend(probes.iter().cycle().take(len - 1));
    Tensor::from_vec(1, len, v)
}

fn code_of(p: &PackedTensor, c: usize) -> u8 {
    p.codes().code(0, c)
}

#[test]
fn nan_encodes_as_zero_and_does_not_touch_the_group_scale() {
    let probes = [f32::NAN, 1.0, -3.0, f32::NAN, 0.4];
    let t = probe_row(6.0, &probes, 67);
    for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3()] {
        for r in ROUNDINGS {
            let q = Quantizer::new(fmt, Granularity::Tensorwise, r);
            assert_backends_agree(&q, &t, 3, &format!("{fmt} {r:?} NaN"));
            let (p, _) = pack_on(simd::backend_kind(), &q, &t, 3);
            let scale = fmt.max_value() / 6.0;
            assert_eq!(p.codes().scales()[0].to_bits(), (1.0 / scale).to_bits());
            for (c, v) in t.as_slice().iter().enumerate() {
                if v.is_nan() {
                    assert_eq!(code_of(&p, c), 0, "{fmt} {r:?}: NaN at {c}");
                }
            }
        }
    }
    let q = Quantizer::new(
        IntFormat::int8(),
        Granularity::Tensorwise,
        Rounding::Nearest,
    );
    assert_backends_agree(&q, &t, 3, "int8 NaN");
}

#[test]
fn infinities_saturate_and_leave_the_rest_of_the_group_unscaled() {
    // An infinite max-abs falls back to scale 1: the finite elements
    // round on the raw grid instead of being crushed to zero.
    let probes = [f32::INFINITY, 1.0, f32::NEG_INFINITY, -3.0, 0.5];
    let t = probe_row(2.0, &probes, 67);
    for r in ROUNDINGS {
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Tensorwise, r);
        assert_backends_agree(&q, &t, 5, &format!("e2m1 {r:?} Inf"));
        let (p, _) = pack_on(simd::backend_kind(), &q, &t, 5);
        assert_eq!(p.codes().scales()[0], 1.0);
        for (c, &v) in t.as_slice().iter().enumerate() {
            let want = match v {
                f32::INFINITY => 7,
                f32::NEG_INFINITY => 15,
                2.0 => 4,
                1.0 => 2,
                -3.0 => 13,
                _ => 1, // 0.5
            };
            assert_eq!(code_of(&p, c), want, "{r:?}: {v} at {c}");
        }
    }
    for q in [
        Quantizer::new(
            FloatFormat::e5m2(),
            Granularity::Tile { nb: 9 },
            Rounding::Nearest,
        ),
        Quantizer::new(
            FloatFormat::e4m3(),
            Granularity::Rowwise,
            Rounding::Stochastic,
        ),
    ] {
        assert_backends_agree(&q, &t, 5, "fp8 Inf");
    }
}

#[test]
fn signed_zeros_subnormals_and_all_zero_groups() {
    let sub = f32::from_bits(1);
    let probes = [0.0, -0.0, sub, -sub, f32::from_bits(0x0070_0000), -1e-30];
    let t = probe_row(6.0, &probes, 71);
    for r in ROUNDINGS {
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Tensorwise, r);
        assert_backends_agree(&q, &t, 9, &format!("e2m1 {r:?} zeros"));
        let (p, _) = pack_on(simd::backend_kind(), &q, &t, 9);
        for (c, &v) in t.as_slice().iter().enumerate().skip(1) {
            // ±0 collapse to +0; a negative underflow keeps its sign.
            let want = if v >= 0.0 { 0 } else { 8 };
            assert_eq!(code_of(&p, c), want, "{r:?}: {v:e} at {c}");
        }
        let int = Quantizer::new(IntFormat::int4(), Granularity::Tensorwise, r);
        assert_backends_agree(&int, &t, 9, &format!("int4 {r:?} zeros"));
    }
    // Integer grids keep the sign of an exact −0.
    let int = Quantizer::new(
        IntFormat::int4(),
        Granularity::Tensorwise,
        Rounding::Nearest,
    );
    let (p, _) = pack_on(simd::backend_kind(), &int, &t, 9);
    assert_eq!(code_of(&p, 2), 8);

    // All-zero (and all-subnormal-tiny) groups: scale falls back to 1.
    let zeros = Tensor::from_vec(2, 40, vec![0.0; 80]);
    for g in granularities(7) {
        for r in ROUNDINGS {
            for (name, q) in quantizers(g, r) {
                assert_backends_agree(&q, &zeros, 1, &format!("{name} {g} zeros"));
                let (p, _) = pack_on(simd::backend_kind(), &q, &zeros, 1);
                assert!(
                    p.codes().packed_data().iter().all(|&b| b == 0),
                    "{name} {g}"
                );
            }
        }
    }
}

#[test]
fn exact_rounding_ties_and_grid_values() {
    fn ties(nonneg: &[f32]) -> Vec<f32> {
        let mut v = Vec::new();
        for w in nonneg.windows(2) {
            let m = (w[0] + w[1]) / 2.0;
            v.extend([m, -m, w[1], -w[1]]);
            // One ulp either side of the tie.
            v.extend([
                f32::from_bits(m.to_bits() + 1),
                f32::from_bits(m.to_bits() - 1),
            ]);
        }
        v
    }
    for fmt in [
        FloatFormat::e2m1(),
        FloatFormat::e4m3(),
        FloatFormat::e5m2(),
        FloatFormat::e3m4(),
    ] {
        // The anchor pins the tensorwise scale at exactly 1.
        let probes = ties(&fmt.enumerate_non_negative());
        let t = probe_row(fmt.max_value(), &probes, probes.len() * 3 + 2);
        for r in ROUNDINGS {
            let q = Quantizer::new(fmt, Granularity::Tensorwise, r);
            for seed in [0, 1, 7] {
                assert_backends_agree(&q, &t, seed, &format!("{fmt} {r:?} ties"));
            }
        }
    }
    for bits in [2u32, 3, 4, 8] {
        let fmt = IntFormat::new(bits);
        let nonneg: Vec<f32> = (0..=fmt.qmax() as i32).map(|i| i as f32).collect();
        let probes = ties(&nonneg);
        let t = probe_row(fmt.qmax(), &probes, probes.len() * 3 + 2);
        for r in ROUNDINGS {
            let q = Quantizer::new(fmt, Granularity::Tensorwise, r);
            assert_backends_agree(&q, &t, 2, &format!("int{bits} {r:?} ties"));
        }
    }
}
