//! Backend identity: every kernel must return **bit-identical** results on
//! **every compiled backend tier** — scalar, AVX2/NEON, AVX-512 — and under
//! plain runtime dispatch. Each tier is pinned per-case with
//! [`snip_tensor::simd::with_forced_backend`] (whose `Scalar` case is what
//! `SNIP_SIMD=0` pins at startup, and whose tier caps are what
//! `SNIP_SIMD=avx2` pins, but scoped to a closure); the scalar run is the
//! reference every other tier is compared against.
//!
//! Covered here:
//!
//! * all twelve GEMM kernels (six orientations × Keep/fused-BF16), over
//!   proptest-drawn shapes that exercise every lane tail (`n % 16` for the
//!   AVX-512 masked tail, `n % 8`, `n < 8`, row-block tails `m % 4`);
//! * fused BF16 output == two-pass (`Keep` kernel then `bf16::round_slice`);
//! * the FP4 pair-table decode and the FP8/INT8 LUT decode (`dequantize`),
//!   including ragged columns around the 32-wide AVX-512 pair strip;
//! * NaN and Inf operands — non-finite *structure* must match exactly
//!   (which elements are NaN, infinity signs, signed zeros). NaN payloads
//!   alone are exempt: LLVM leaves the operand order of a scalar float
//!   multiply unspecified, so the scalar reference itself does not pin
//!   which input's payload survives.
//!
//! The sweep domain is [`simd::available_backends`], so on an AVX2-only
//! machine the AVX-512 leg simply isn't present, and without the `simd`
//! feature the suite degenerates to a scalar self-check; the backend list
//! is printed once so CI logs show which case ran.

use proptest::prelude::*;
use snip_tensor::rng::Rng;
use snip_tensor::{
    bf16, matmul, packed, simd, CodeWidth, GroupLayout, QOperandRef, QTensor, Tensor,
};

/// A 4-bit sign-magnitude codebook over {0, 0.5, …, 3.5} — same mirrored
/// layout the SIMD nibble lookup assumes (code `8 + i` = `-lut[i]`).
fn test_lut_u4() -> Vec<f32> {
    let mut lut = vec![0.0f32; 16];
    for i in 0..8 {
        lut[i] = i as f32 * 0.5;
        lut[8 + i] = -(i as f32 * 0.5);
    }
    lut
}

/// An 8-bit LUT with irregular values so gather lanes can't accidentally
/// agree: entry i is a signed, non-monotonic function of i.
fn test_lut_u8() -> Vec<f32> {
    (0..256)
        .map(|i| {
            let x = i as f32;
            (x - 128.0) * 0.03125 + (x * 0.7).sin() * 0.001
        })
        .collect()
}

fn random_qtensor(rows: usize, cols: usize, width: CodeWidth, seed: u64) -> QTensor {
    random_qtensor_in(GroupLayout::Tile { nb: 5 }, rows, cols, width, seed)
}

fn random_qtensor_in(
    layout: GroupLayout,
    rows: usize,
    cols: usize,
    width: CodeWidth,
    seed: u64,
) -> QTensor {
    let mut rng = Rng::seed_from(seed);
    let groups = layout.group_count(rows, cols);
    let scales: Vec<f32> = (0..groups).map(|_| 0.25 + rng.next_f32()).collect();
    let (lut, codes) = match width {
        CodeWidth::U4 => (test_lut_u4(), 16u64),
        CodeWidth::U8 => (test_lut_u8(), 256u64),
    };
    let mut q = QTensor::new_zeroed(rows, cols, width, lut, layout, scales);
    for r in 0..rows {
        for c in 0..cols {
            q.set_code(r, c, (rng.next_u64() % codes) as u8);
        }
    }
    q
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i}: {a:?} ({:#010x}) vs {b:?} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// Runs all twelve GEMM kernels (six orientations × Keep/BF16) plus both
/// decode widths under a forced-scalar reference run, then once per
/// non-scalar backend tier (and once under plain dispatch), asserting
/// 0-ULP equality against the reference each time.
fn check_simd_matches_scalar(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let bt = Tensor::randn(n, k, 1.0, &mut rng);
    let at = Tensor::randn(k, m, 1.0, &mut rng);
    let qa = random_qtensor(m, k, CodeWidth::U4, seed ^ 1);
    let qb = random_qtensor(k, n, CodeWidth::U4, seed ^ 2);
    let qbt = random_qtensor(n, k, CodeWidth::U4, seed ^ 3);
    let qat = random_qtensor(k, m, CodeWidth::U4, seed ^ 4);
    let q8 = random_qtensor(m, n.max(1), CodeWidth::U8, seed ^ 5);

    let run = || -> Vec<(&'static str, Tensor)> {
        vec![
            ("matmul", matmul::matmul(&a, &b)),
            ("matmul_nt", matmul::matmul_nt(&a, &bt)),
            ("matmul_tn", matmul::matmul_tn(&at, &b)),
            ("matmul_bf16", matmul::matmul_bf16(&a, &b)),
            ("matmul_nt_bf16", matmul::matmul_nt_bf16(&a, &bt)),
            ("matmul_tn_bf16", matmul::matmul_tn_bf16(&at, &b)),
            (
                "qgemm",
                packed::qgemm(QOperandRef::from(&qa), QOperandRef::from(&qb)),
            ),
            (
                "qgemm_nt",
                packed::qgemm_nt(QOperandRef::from(&qa), QOperandRef::from(&qbt)),
            ),
            (
                "qgemm_tn",
                packed::qgemm_tn(QOperandRef::from(&qat), QOperandRef::from(&qb)),
            ),
            (
                "qgemm_bf16",
                packed::qgemm_bf16(QOperandRef::from(&qa), QOperandRef::from(&qb)),
            ),
            (
                "qgemm_nt_bf16",
                packed::qgemm_nt_bf16(QOperandRef::from(&qa), QOperandRef::from(&qbt)),
            ),
            (
                "qgemm_tn_bf16",
                packed::qgemm_tn_bf16(QOperandRef::from(&qat), QOperandRef::from(&qb)),
            ),
            ("dequantize u4", qa.dequantize()),
            ("dequantize u8", q8.dequantize()),
        ]
    };

    let scalar = simd::with_forced_backend(simd::Backend::Scalar, run);
    let mut variants: Vec<(String, Vec<(&'static str, Tensor)>)> = simd::available_backends()
        .into_iter()
        .filter(|bk| *bk != simd::Backend::Scalar)
        .map(|bk| {
            (
                format!("forced {}", bk.name()),
                simd::with_forced_backend(bk, run),
            )
        })
        .collect();
    variants.push((format!("dispatched {}", simd::backend()), run()));

    for (variant, results) in &variants {
        for ((name, got), (_, want)) in results.iter().zip(&scalar) {
            assert_bits_eq(got, want, &format!("{name}, {m}x{k}x{n} ({variant})"));
        }
        // Fused BF16 must equal the two-pass form (Keep kernel, then a
        // standalone rounding sweep) on EVERY backend.
        let mut two_pass = results[0].1.clone();
        bf16::round_slice(two_pass.as_mut_slice());
        assert_bits_eq(
            &results[3].1,
            &two_pass,
            &format!("fused vs two-pass bf16, {m}x{k}x{n} ({variant})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simd_and_scalar_agree_to_the_bit(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        check_simd_matches_scalar(m, k, n, seed);
    }
}

/// Every strip and tail boundary of the tile kernel, once: one body serves
/// every tier, so the full ladder — row blocks 4/2/1 and 4+1 (`m ∈ 1..=5`),
/// every tile width and the 64 + 64 + 1 tile split (`n ∈ 1..=2·64+1`: the
/// AVX-512 64/32/16 strips and all fifteen masked tails, the AVX2/NEON
/// double and single strips and every scalar tail), `k ∈ {1, 7}`, raw and
/// fused-BF16 stores — runs on every tier against forced scalar. A fixed
/// shape list then takes all twelve kernels and both decodes through the
/// same tails.
#[test]
fn lane_tail_shapes_agree() {
    eprintln!(
        "simd backend: {} (compiled: {}, lanes: {}, available: {:?})",
        simd::backend(),
        simd::compiled(),
        simd::lane_width(),
        simd::available_backends()
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
    );
    let mut rng = Rng::seed_from(0xBEEF);
    for k in [1, 7] {
        // One operand pair per `k`, sliced per shape: `n` columns of B,
        // `m` rows of A.
        let a_full = Tensor::randn(5, k, 1.0, &mut rng);
        let bt_full = Tensor::randn(2 * 64 + 1, k, 1.0, &mut rng);
        for m in 1..=5 {
            let a = Tensor::from_vec(m, k, a_full.as_slice()[..m * k].to_vec());
            for n in 1..=2 * 64 + 1 {
                let bt = Tensor::from_vec(n, k, bt_full.as_slice()[..n * k].to_vec());
                let run = || (matmul::matmul_nt(&a, &bt), matmul::matmul_nt_bf16(&a, &bt));
                let (keep, fused) = simd::with_forced_backend(simd::Backend::Scalar, run);
                for bk in simd::available_backends() {
                    let got = simd::with_forced_backend(bk, run);
                    let what = format!("{m}x{k}x{n} ({})", bk.name());
                    assert_bits_eq(&got.0, &keep, &format!("matmul_nt {what}"));
                    assert_bits_eq(&got.1, &fused, &format!("matmul_nt_bf16 {what}"));
                }
            }
        }
    }
    for &(m, k, n) in &[
        (1, 1, 1),
        (1, 3, 7),
        (2, 5, 8),
        (3, 5, 9),
        (4, 7, 15),
        (5, 7, 16),
        (6, 9, 17),
        (7, 9, 31),
        (9, 16, 32),
        (3, 8, 33),
        (5, 10, 47),
        (11, 13, 40),
        (2, 21, 64),
        (4, 6, 71),
    ] {
        check_simd_matches_scalar(m, k, n, 0xBEEF ^ ((m * 971 + k * 31 + n) as u64));
    }
}

/// Bit equality except that two NaNs (any payload, any sign) match: the
/// payload surviving a NaN*NaN multiply is unspecified even between two
/// scalar builds, so only NaN-ness is contractual. Everything else —
/// numeric values, infinity signs, signed zeros — must be exact.
fn assert_bits_eq_modulo_nan(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if a.is_nan() && b.is_nan() {
            continue;
        }
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i}: {a:?} vs {b:?}"
        );
    }
}

/// NaN and Inf operands: every vector backend must propagate non-finite
/// values structurally as the scalar kernels do — same elements NaN, same
/// infinity and zero signs (payloads exempt, see above). Shapes include an
/// AVX-512 masked tail so disabled lanes can't leak into active ones.
#[test]
fn non_finite_operands_propagate_identically() {
    let mut rng = Rng::seed_from(77);
    for (m, k, n) in [(3, 6, 17), (5, 9, 33), (4, 7, 45)] {
        let mut a = Tensor::randn(m, k, 1.0, &mut rng);
        let mut b = Tensor::randn(k, n, 1.0, &mut rng);
        // Sprinkle NaNs with distinct payloads, infinities, and zeros.
        let specials = [
            f32::from_bits(0x7FC1_2345),
            f32::from_bits(0xFFC0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = specials[i % specials.len()];
            }
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 0 {
                *v = specials[(i + 3) % specials.len()];
            }
        }
        let run = || (matmul::matmul(&a, &b), matmul::matmul_bf16(&a, &b));
        let scalar = simd::with_forced_backend(simd::Backend::Scalar, run);
        for bk in simd::available_backends() {
            let got = simd::with_forced_backend(bk, run);
            let what = |name: &str| format!("{name} with non-finite ({})", bk.name());
            assert_bits_eq_modulo_nan(&got.0, &scalar.0, &what("matmul"));
            assert_bits_eq_modulo_nan(&got.1, &scalar.1, &what("matmul_bf16"));
        }
    }
}

/// Decode raggedness on every backend tier. Whole tensors first: scale
/// groups of five columns, so runs start on both nibble parities and end
/// short of a lane. Then — one run per row, so the vector bodies see it
/// whole — every run length `0..=2·step+1` of the widest decode step (the
/// AVX-512 pair strip, 32 elements), from an even and an odd start column,
/// for both code widths.
#[test]
fn decode_tails_agree() {
    const STEP: usize = 32;
    let mut cases: Vec<(QTensor, usize)> = Vec::new();
    for &(rows, cols) in &[(2, 3), (5, 17), (3, 37), (2, 64), (3, 65), (1, 95)] {
        for width in [CodeWidth::U4, CodeWidth::U8] {
            cases.push((random_qtensor(rows, cols, width, 0xD4 ^ (cols as u64)), 0));
        }
    }
    for len in 0..=2 * STEP + 1 {
        for start in [0, 1] {
            for width in [CodeWidth::U4, CodeWidth::U8] {
                let seed = 0xD8 ^ ((2 * len + start) as u64);
                let q = random_qtensor_in(GroupLayout::Rowwise, 2, start + len, width, seed);
                cases.push((q, start));
            }
        }
    }
    for (q, start) in &cases {
        let (rows, cols) = q.shape();
        let run = || {
            let mut out = Tensor::zeros(rows, cols - start);
            for r in 0..rows {
                q.decode_row_range_into(r, *start, cols, out.row_mut(r));
            }
            (out, q.dequantize())
        };
        let want = simd::with_forced_backend(simd::Backend::Scalar, run);
        for bk in simd::available_backends() {
            let got = simd::with_forced_backend(bk, run);
            let what = format!("{rows}x{cols} from {start} ({})", bk.name());
            assert_bits_eq(&got.0, &want.0, &format!("decode range {what}"));
            assert_bits_eq(&got.1, &want.1, &format!("dequantize {what}"));
        }
    }
}
