//! The AVX-512 backend: the 16-lane [`SimdOps`] table with `__mmask16`
//! predicates, the masked column tail of the tile kernel, single-permute
//! FP4 nibble decode and gathered FP8/INT8 decode.
//!
//! The kernels this table instantiates live in [`super::simd_ops`];
//! [`super::simd::active_kernels`] compiles them — and calls the decodes
//! below — with `avx512f` enabled, only after `is_x86_feature_detected!`
//! confirmed it. Foundation instructions suffice for everything in this
//! file — no BW/VL/DQ extensions are required.
//!
//! What 512-bit adds beyond width:
//!
//! * **A 6×64 register block.** 6 rows × 4 accumulators + 4 B loads + 1
//!   broadcast uses 29 of the 32 zmm registers — a full `NC = 64` output
//!   tile row is one such strip, each `a[kk]` broadcast feeds all 64
//!   columns, and each B load feeds six rows (the 4-row block, 21
//!   registers, now only finishes a block's last rows).
//! * **A 16-column block transpose** for the transposed operand sides:
//!   eight source-row segments of 16 floats become sixteen 8-float column
//!   runs in registers ([`SimdOps::store_transposed`]).
//! * **Masked column tails.** Where the other backends fall back to a
//!   scalar loop for the last `nb % LANES` columns, this one finishes any
//!   `1..=15`-wide tail with one `__mmask16`-guarded load/store pair —
//!   disabled lanes are never loaded or stored (AVX-512 masked loads
//!   suppress faults), enabled lanes run the identical fused multiply-add
//!   sequence.
//! * **One-permute FP4 decode.** The whole 16-entry mirrored LUT fits a
//!   single zmm register, so a nibble decode is one `vpermps` instead of
//!   AVX2's two half-table permutes plus a sign-select blend.

use super::simd::{decode_u4_pairs_scalar, decode_u8_run_scalar};
use super::simd_ops::{finish, op_rows, SimdOps};
use super::{Store, TB};
use std::arch::x86_64::*;

/// The AVX-512 (foundation) op table.
pub(super) struct Avx512;

impl SimdOps for Avx512 {
    type F = __m512;
    type I = __m512i;
    type M = __mmask16;
    const LANES: usize = 16;
    const MAX_STRIP: usize = 4;
    const MAX_ROWS: usize = 6;

    op_rows! {
        fn loadu(p: *const f32) -> __m512 = _mm512_loadu_ps(p);
        fn storeu(p: *mut f32, v: __m512) = _mm512_storeu_ps(p, v);
        fn splat(x: f32) -> __m512 = _mm512_set1_ps(x);
        fn mul(a: __m512, b: __m512) -> __m512 = _mm512_mul_ps(a, b);
        fn add(a: __m512, b: __m512) -> __m512 = _mm512_add_ps(a, b);
        fn mul_add(a: __m512, b: __m512, c: __m512) -> __m512 = _mm512_fmadd_ps(a, b, c);
        fn sub(a: __m512, b: __m512) -> __m512 = _mm512_sub_ps(a, b);
        fn bits(v: __m512) -> __m512i = _mm512_castps_si512(v);
        fn from_bits(v: __m512i) -> __m512 = _mm512_castsi512_ps(v);
        fn trunc(v: __m512) -> __m512i = _mm512_cvttps_epi32(v);
        fn to_f32(v: __m512i) -> __m512 = _mm512_cvtepi32_ps(v);

        fn splat_i(x: u32) -> __m512i = _mm512_set1_epi32(x as i32);
        fn and(a: __m512i, b: __m512i) -> __m512i = _mm512_and_si512(a, b);
        fn or(a: __m512i, b: __m512i) -> __m512i = _mm512_or_si512(a, b);
        fn add_i(a: __m512i, b: __m512i) -> __m512i = _mm512_add_epi32(a, b);
        fn sub_i(a: __m512i, b: __m512i) -> __m512i = _mm512_sub_epi32(a, b);
        fn min_i(a: __m512i, b: __m512i) -> __m512i = _mm512_min_epi32(a, b);
        fn max_i(a: __m512i, b: __m512i) -> __m512i = _mm512_max_epi32(a, b);
        fn shr(v: __m512i, n: u32) -> __m512i = _mm512_srl_epi32(v, _mm_cvtsi32_si128(n as i32));
        fn shl(v: __m512i, n: u32) -> __m512i = _mm512_sll_epi32(v, _mm_cvtsi32_si128(n as i32));
        fn max_lane(v: __m512i) -> u32 = _mm512_reduce_max_epu32(v);

        fn gt_f(a: __m512, b: __m512) -> __mmask16 = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b);
        fn gt_i(a: __m512i, b: __m512i) -> __mmask16 = _mm512_cmpgt_epi32_mask(a, b);
        fn ordered(v: __m512) -> __mmask16 = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(v, v);
        fn select(m: __mmask16, a: __m512, b: __m512) -> __m512 = _mm512_mask_blend_ps(m, b, a);
        fn keep_i(m: __mmask16, v: __m512i) -> __m512i = _mm512_maskz_mov_epi32(m, v);
        fn inc_where(v: __m512i, m: __mmask16) -> __m512i =
            _mm512_mask_add_epi32(v, m, v, _mm512_set1_epi32(1));
    }

    /// The 8×16 block transpose: the AVX2 8×8 steps within each 128-bit
    /// lane (`unpack`, then `shuffle` — lane L of `s[4h + q]` holds rows
    /// 4h..4h+4 of column 4L + q), then one two-source permute per pair
    /// of output columns joins each column's two row quads into a 256-bit
    /// half, stored on its own.
    #[inline(always)]
    unsafe fn store_transposed(rows: &[__m512; TB], dst: *mut f32, ldd: usize) {
        let mut s = [_mm512_setzero_ps(); TB];
        for h in 0..2 {
            let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|r| rows[4 * h + r]);
            let (t0, t1) = (_mm512_unpacklo_ps(r0, r1), _mm512_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm512_unpacklo_ps(r2, r3), _mm512_unpackhi_ps(r2, r3));
            s[4 * h] = _mm512_shuffle_ps::<0x44>(t0, t2);
            s[4 * h + 1] = _mm512_shuffle_ps::<0xEE>(t0, t2);
            s[4 * h + 2] = _mm512_shuffle_ps::<0x44>(t1, t3);
            s[4 * h + 3] = _mm512_shuffle_ps::<0xEE>(t1, t3);
        }
        // Lanes L, L + 1 of the rows-0..4 and rows-4..8 registers: columns
        // 4L + q (low half) and 4L + 4 + q (high half).
        let lanes01 = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7, 20, 21, 22, 23);
        let lanes23 =
            _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 12, 13, 14, 15, 28, 29, 30, 31);
        for q in 0..4 {
            for (l, idx) in [(0, lanes01), (8, lanes23)] {
                let cols = _mm512_permutex2var_ps(s[q], idx, s[4 + q]);
                let high = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(cols));
                _mm256_storeu_ps(dst.add((l + q) * ldd), _mm512_castps512_ps256(cols));
                _mm256_storeu_ps(dst.add((l + 4 + q) * ldd), _mm256_castpd_ps(high));
            }
        }
    }

    #[inline(always)]
    unsafe fn store_code_bytes(p: *mut u8, codes: __m512i) {
        _mm_storeu_si128(p as *mut __m128i, _mm512_cvtepi32_epi8(codes));
    }
    #[inline(always)]
    unsafe fn store_nibble_pairs(p: *mut u8, codes: __m512i) {
        // Each qword holds an (even, odd) element pair; shifting the qword
        // right by 28 drops the odd element's code onto bits 4..8 of the
        // even element's dword, and `vpmovqb` keeps exactly that low byte
        // of every qword.
        let paired = _mm512_or_si512(codes, _mm512_srli_epi64::<28>(codes));
        _mm_storel_epi64(p as *mut __m128i, _mm512_cvtepi64_epi8(paired));
    }

    /// The masked tail: lanes `>= nb - j` are disabled end-to-end — the
    /// masked B loads fault-suppress them and the masked store never writes
    /// them; active lanes start at +0 and run the exact strip sequence of
    /// `simd_ops::strips`.
    #[inline(always)]
    unsafe fn tile_tail<const MR: usize, const STORE: Store>(
        c: &[*mut f32; MR],
        a: &[*const f32; MR],
        k: usize,
        btile: *const f32,
        nb: usize,
        j: usize,
    ) {
        let mask: __mmask16 = (1u16 << (nb - j)) - 1;
        let mut acc = [_mm512_setzero_ps(); MR];
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm512_maskz_loadu_ps(mask, bp);
            for r in 0..MR {
                let av = _mm512_set1_ps(*a[r].add(kk));
                acc[r] = _mm512_fmadd_ps(av, b0, acc[r]);
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            _mm512_mask_storeu_ps(c[r].add(j), mask, finish::<Self, STORE>(acc[r]));
        }
    }
}

/// Vectorized 4-bit pair decode: sixteen bytes per step expand to
/// thirty-two outputs. The full 16-entry mirrored `lut` sits in one zmm
/// register, so each nibble value is a single `vpermps` — the same table
/// entries the scalar pair-table walk reads, multiplied by the same scale
/// in the same order, so results are bit-identical.
///
/// # Safety
///
/// `avx512f` must be available.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn decode_u4_pairs(
    bytes: &[u8],
    lut: &[f32],
    pair: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    assert!(lut.len() == 16 && out.len() == bytes.len() * 2);
    let tab = _mm512_loadu_ps(lut.as_ptr());
    let sv = _mm512_set1_ps(scale);
    // Interleave selectors for vpermt2ps: lane 2j reads lo_v[j] (table a),
    // lane 2j+1 reads hi_v[j] (table b, index 16 + j).
    let il_first = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    let il_second = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
    let n = bytes.len();
    let bp = bytes.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        let raw = _mm_loadu_si128(bp.add(i) as *const __m128i);
        let codes = _mm512_cvtepu8_epi32(raw);
        let lo = _mm512_and_si512(codes, _mm512_set1_epi32(0x0F));
        let hi = _mm512_srli_epi32::<4>(codes);
        let lo_v = _mm512_permutexvar_ps(lo, tab);
        let hi_v = _mm512_permutexvar_ps(hi, tab);
        // Interleave to byte order: out[2j] = low nibble, out[2j+1] = high.
        let first = _mm512_permutex2var_ps(lo_v, il_first, hi_v);
        let second = _mm512_permutex2var_ps(lo_v, il_second, hi_v);
        _mm512_storeu_ps(op.add(2 * i), _mm512_mul_ps(first, sv));
        _mm512_storeu_ps(op.add(2 * i + 16), _mm512_mul_ps(second, sv));
        i += 16;
    }
    decode_u4_pairs_scalar(&bytes[i..], lut, pair, scale, &mut out[2 * i..]);
}

/// Vectorized one-byte LUT decode (FP8/INT8): sixteen codes widen to dword
/// indices and gather from the 256-entry table, then scale — the same
/// table load and multiply as the scalar loop.
///
/// # Safety
///
/// `avx512f` must be available.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    assert!(lut.len() == 256 && out.len() == codes.len());
    let sv = _mm512_set1_ps(scale);
    let n = codes.len();
    let cp = codes.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        let raw = _mm_loadu_si128(cp.add(i) as *const __m128i);
        let idx = _mm512_cvtepu8_epi32(raw);
        let vals = _mm512_i32gather_ps::<4>(idx, lut.as_ptr());
        _mm512_storeu_ps(op.add(i), _mm512_mul_ps(vals, sv));
        i += 16;
    }
    decode_u8_run_scalar(&codes[i..], lut, scale, &mut out[i..]);
}
