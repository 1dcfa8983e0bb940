//! The pack engine's bit- and RNG-stream-identity across SIMD backends.
//!
//! Every packing `Quantizer` packs through the runtime-dispatched encode
//! kernels of `snip_tensor::encode`. Backend choice must be a pure
//! performance decision, so for every tier this process can run
//! (`simd::available_backends()`) a pack must produce the **same code
//! bytes, the same scales and the same post-call `Rng` state** as the
//! forced-scalar tier — and decode bit-for-bit to what the dense oracle
//! (`Oracle::fake_quantize`, test support) returns from the same starting
//! RNG state, having consumed the same draws. Two more checks ride along:
//! packing `−t` gives the negated codes (the rounding is sign-symmetric),
//! and a sampled sweep of the f32 bit patterns through each grid's kernels
//! equals the element rule plus a binary-search encode. The pack engine's
//! split across the pool is held to the same standard: every forced split
//! packs what the one-run walk packs, on every tier.
//!
//! CI reruns this suite under `SNIP_SIMD=0`, `SNIP_SIMD=avx2`,
//! `--no-default-features` (where the sweep degenerates to the scalar
//! tier) and `--release`.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{ElementRule, Oracle, ReferencePack};
use proptest::prelude::*;
use snip_quant::format::{ElementFormat, FloatFormat};
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{PackedQuantize, PackedTensor, Quantizer, Rounding};
use snip_tensor::encode::{CodeGrid, Encoder};
use snip_tensor::rng::Rng;
use snip_tensor::simd::{self, Backend};
use snip_tensor::{pool, CodeWidth, Tensor};

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

/// Rounding is symmetric in the sign: packing `−t` decodes to `−pack(t)`
/// bit for bit, from the same seed, with equal scales and the same final
/// RNG state — every quantizer × granularity × rounding. A float grid has
/// no signed zero code (an exact ±0 input encodes as +0, as does an RHT
/// coordinate that cancels to 0), so there the two decodes need only both
/// be zero; an integer grid keeps every sign.
#[test]
fn negated_input_packs_to_the_negated_values() {
    let mut data = Rng::seed_from(23);
    let mut tensors = Vec::new();
    for (rows, cols) in [(3, 41), (1, 300)] {
        let mut t = Tensor::randn(rows, cols, 3.0, &mut data);
        // Zeros of both signs, underflows and a saturating infinity.
        let salt = [0.0, -0.0, 1e-9, -1e-7, f32::INFINITY];
        for (i, v) in salt.into_iter().enumerate() {
            t.as_mut_slice()[7 * i + 2] = v;
        }
        tensors.push(t.clone());
        t.as_mut_slice()[7 * 4 + 2] = 1.5; // and one tensor without ∞
        tensors.push(t);
    }
    for t in &tensors {
        let neg = t.map(|v| -v);
        let (rows, cols) = t.shape();
        for g in granularities(5) {
            for r in ROUNDINGS {
                for (name, q) in quantizers(g, r) {
                    let ctx = format!("{name} {g} {r:?} {rows}x{cols}");
                    let int_grid = matches!(q.format(), ElementFormat::Int(_));
                    for seed in [1, 2] {
                        let mut rng_pos = Rng::seed_from(seed);
                        let mut rng_neg = Rng::seed_from(seed);
                        let pos = q.pack(t, &mut rng_pos).expect("packable");
                        let negp = q.pack(&neg, &mut rng_neg).expect("packable");
                        let bits = |p: &PackedTensor| -> Vec<u32> {
                            p.codes().scales().iter().map(|s| s.to_bits()).collect()
                        };
                        assert_eq!(bits(&pos), bits(&negp), "{ctx}: scales");
                        assert_eq!(rng_pos, rng_neg, "{ctx}: rng state");
                        let (a, b) = (pos.dequantize(), negp.dequantize());
                        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                            let zeros = !int_grid && x == 0.0 && y == 0.0;
                            assert!(
                                zeros || y.to_bits() == (-x).to_bits(),
                                "{ctx} seed {seed}: element {i}: pack(t) {x:e}, pack(−t) {y:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The code grid of a format as the encode kernels take it: the float
/// formats by their mantissa bits and minimum normal exponent, an integer
/// grid as the all-subnormal case (quantum 1 up to `qmax`, signed zero).
fn code_grid(fmt: ElementFormat) -> CodeGrid {
    let cb = fmt.codebook().expect("packable");
    let top = (cb.values() - 1) as u8;
    match fmt {
        ElementFormat::Float(f) => CodeGrid::new(
            cb.width(),
            f.man_bits(),
            f.emin(),
            f.max_value(),
            top,
            false,
        ),
        ElementFormat::Int(f) => {
            let m = f.bits() - 1;
            CodeGrid::new(cb.width(), m, m as i32, f.qmax(), top, true)
        }
    }
}

/// One code per input at scale 1, unpacked from nibbles for a 4-bit grid.
fn encode_all(grid: &CodeGrid, width: CodeWidth, xs: &[f32], us: Option<&[f32]>) -> Vec<u8> {
    let enc = Encoder::current();
    match width {
        CodeWidth::U8 => {
            let mut out = vec![0u8; xs.len()];
            enc.encode_u8(grid, xs, 1.0, us, &mut out);
            out
        }
        CodeWidth::U4 => {
            let mut row = vec![0u8; xs.len().div_ceil(2)];
            enc.encode_u4(grid, xs, 1.0, us, 0, &mut row);
            (0..xs.len())
                .map(|i| (row[i / 2] >> (4 * (i % 2))) & 0xF)
                .collect()
        }
    }
}

/// A sampled slice of the exhaustive sweep: every 4099th f32 bit pattern
/// (NaNs, infinities, zeros, subnormals and every binade included), at
/// scale 1, through the E2M1, E4M3, E5M2, E3M4, INT4 and INT8 grids' encode
/// kernels, under nearest rounding and under stochastic rounding with
/// uniforms 0, 0.5 and the largest f32 below 1. Every tier equals the
/// forced-scalar row, and the scalar row equals the test-support element
/// rule followed by the binary-search encode.
#[test]
fn sampled_bit_patterns_encode_like_the_reference_on_every_tier() {
    const STRIDE: usize = 4099;
    let xs: Vec<f32> = (0..=u32::MAX).step_by(STRIDE).map(f32::from_bits).collect();
    let below_one = f32::from_bits(1.0f32.to_bits() - 1);
    let formats: [ElementFormat; 6] = [
        FloatFormat::e2m1().into(),
        FloatFormat::e4m3().into(),
        FloatFormat::e5m2().into(),
        FloatFormat::e3m4().into(),
        IntFormat::int4().into(),
        IntFormat::int8().into(),
    ];
    for fmt in formats {
        let cb = fmt.codebook().expect("packable");
        let grid = code_grid(fmt);
        for u in [None, Some(0.0), Some(0.5), Some(below_one)] {
            let us = u.map(|u| vec![u; xs.len()]);
            let run = |bk| {
                simd::with_forced_backend(bk, || encode_all(&grid, cb.width(), &xs, us.as_deref()))
            };
            let want = run(Backend::Scalar);
            for bk in simd::available_backends() {
                let got = run(bk);
                if let Some(i) = (0..xs.len()).find(|&i| got[i] != want[i]) {
                    panic!(
                        "{fmt:?} u {u:?} @ {}: {:#010x} encodes to {} (scalar {})",
                        bk.name(),
                        xs[i].to_bits(),
                        got[i],
                        want[i]
                    );
                }
            }
            for (&x, &code) in xs.iter().zip(&want) {
                let q = match u {
                    None => fmt.quantize_nearest(x),
                    Some(u) => fmt.quantize_stochastic(x, u),
                };
                let reference = cb.encode(q);
                assert!(
                    code == reference,
                    "{fmt:?} u {u:?}: {:#010x} ({x:e}) encodes to {code}, reference {reference} ({q:e})",
                    x.to_bits()
                );
            }
        }
    }
}

/// A pack's code bytes, scale bits and post-call RNG state.
type PackBits = (Vec<u8>, Vec<u32>, Rng);

fn pack_bits(q: &Quantizer, t: &Tensor, seed: u64) -> PackBits {
    let mut rng = Rng::seed_from(seed);
    let p = q.quantize_packed(t, &mut rng).expect("packable");
    let scales = p.scales().iter().map(|s| s.to_bits()).collect();
    (p.packed_data().to_vec(), scales, rng)
}

/// The pack engine splits a tensor into runs of whole scale-group rows
/// across the pool; no bit may move. For all five layouts (block and tile
/// sides 3 and 4), both roundings and both code widths, on ragged shapes
/// (rows not a multiple of the block side, odd column counts, one long
/// row), the one-run walk (`with_threads(1)`) equals the two-step reference
/// packer (`ReferencePack`: codes, scales, draws), and at splits 2, the
/// pool size and the pool size + 3 every tier packs the same code bytes,
/// scales and RNG state as the one-run walk and decodes to the dense
/// oracle's bits (`assert_backends_agree`).
#[test]
fn every_split_packs_what_the_one_run_walk_packs() {
    let mut data = Rng::seed_from(0x5B11);
    let seed = 41;
    for (rows, cols) in [(7, 37), (13, 6), (10, 129), (1, 301)] {
        let t = Tensor::randn(rows, cols, 1.0, &mut data);
        for g in granularities(3).into_iter().chain(granularities(4)) {
            for r in ROUNDINGS {
                for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3()] {
                    let q = Quantizer::new(fmt, g, r);
                    let ctx = format!("{fmt} {g} {r:?} {rows}x{cols}");
                    let serial = pool::with_threads(1, || pack_bits(&q, &t, seed));
                    let cb = ElementFormat::from(fmt).codebook().expect("packable");
                    let mut rng = Rng::seed_from(seed);
                    let reference = cb.pack(&t, g, fmt.max_value(), &mut rng, |x, rng| match r {
                        Rounding::Nearest => fmt.quantize_nearest(x),
                        Rounding::Stochastic => fmt.quantize_stochastic(x, rng.next_f32()),
                    });
                    let scales = reference.scales().iter().map(|s| s.to_bits()).collect();
                    let reference = (reference.packed_data().to_vec(), scales, rng);
                    assert!(serial == reference, "{ctx}: one run vs reference packer");
                    for split in [2, pool::size(), pool::size() + 3] {
                        let ctx = format!("{ctx} split {split}");
                        pool::with_threads(split, || {
                            for bk in simd::available_backends() {
                                let got = simd::with_forced_backend(bk, || pack_bits(&q, &t, seed));
                                assert!(got == serial, "{ctx} @ {}: split vs one run", bk.name());
                            }
                            assert_backends_agree(&q, &t, seed, &ctx);
                        });
                    }
                }
            }
        }
    }
}
