//! The AVX2 backend: the 8-lane [`SimdOps`] table, the code-narrowing
//! shuffles, and the vectorized pair-table / LUT decodes.
//!
//! The kernels this table instantiates (tile update, BF16 store, abs-max,
//! encode) live in [`super::simd_ops`]; [`super::simd::active_kernels`]
//! compiles them with `avx2` and `fma` enabled (the tile update's
//! [`SimdOps::mul_add`] is `vfmadd`), only after `is_x86_feature_detected!`
//! confirmed both. The decodes below need `avx2` alone. Column tails of
//! the tile kernel take the shared scalar loop.

use super::simd::{decode_u4_pairs_scalar, decode_u8_run_scalar};
use super::simd_ops::{op_rows, SimdOps};
use super::TB;
use std::arch::x86_64::*;

/// The AVX2 op table.
pub(super) struct Avx2;

impl SimdOps for Avx2 {
    type F = __m256;
    type I = __m256i;
    /// All-ones lanes where the predicate holds.
    type M = __m256i;
    const LANES: usize = 8;
    const MAX_STRIP: usize = 2;
    /// `6 rows × 2 accumulators + 2 B loads + 1 broadcast` = 15 of the 16
    /// ymm registers.
    const MAX_ROWS: usize = 6;

    op_rows! {
        fn loadu(p: *const f32) -> __m256 = _mm256_loadu_ps(p);
        fn storeu(p: *mut f32, v: __m256) = _mm256_storeu_ps(p, v);
        fn splat(x: f32) -> __m256 = _mm256_set1_ps(x);
        fn mul(a: __m256, b: __m256) -> __m256 = _mm256_mul_ps(a, b);
        fn add(a: __m256, b: __m256) -> __m256 = _mm256_add_ps(a, b);
        fn mul_add(a: __m256, b: __m256, c: __m256) -> __m256 = _mm256_fmadd_ps(a, b, c);
        fn sub(a: __m256, b: __m256) -> __m256 = _mm256_sub_ps(a, b);
        fn bits(v: __m256) -> __m256i = _mm256_castps_si256(v);
        fn from_bits(v: __m256i) -> __m256 = _mm256_castsi256_ps(v);
        fn trunc(v: __m256) -> __m256i = _mm256_cvttps_epi32(v);
        fn to_f32(v: __m256i) -> __m256 = _mm256_cvtepi32_ps(v);

        fn splat_i(x: u32) -> __m256i = _mm256_set1_epi32(x as i32);
        fn and(a: __m256i, b: __m256i) -> __m256i = _mm256_and_si256(a, b);
        fn or(a: __m256i, b: __m256i) -> __m256i = _mm256_or_si256(a, b);
        fn add_i(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi32(a, b);
        fn sub_i(a: __m256i, b: __m256i) -> __m256i = _mm256_sub_epi32(a, b);
        fn min_i(a: __m256i, b: __m256i) -> __m256i = _mm256_min_epi32(a, b);
        fn max_i(a: __m256i, b: __m256i) -> __m256i = _mm256_max_epi32(a, b);
        fn shr(v: __m256i, n: u32) -> __m256i = _mm256_srl_epi32(v, _mm_cvtsi32_si128(n as i32));
        fn shl(v: __m256i, n: u32) -> __m256i = _mm256_sll_epi32(v, _mm_cvtsi32_si128(n as i32));

        fn gt_f(a: __m256, b: __m256) -> __m256i =
            _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(a, b));
        fn gt_i(a: __m256i, b: __m256i) -> __m256i = _mm256_cmpgt_epi32(a, b);
        fn ordered(v: __m256) -> __m256i = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
        fn select(m: __m256i, a: __m256, b: __m256) -> __m256 =
            _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
        fn keep_i(m: __m256i, v: __m256i) -> __m256i = _mm256_and_si256(m, v);
        // A holding lane is all-ones, i.e. −1.
        fn inc_where(v: __m256i, m: __m256i) -> __m256i = _mm256_sub_epi32(v, m);
    }

    #[inline(always)]
    unsafe fn max_lane(v: __m256i) -> u32 {
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().fold(0, |x, &l| x.max(l))
    }
    /// The 8×8 block transpose: pairs of rows interleave within 128-bit
    /// lanes (`unpack`), quads gather one column's four rows per lane
    /// (`shuffle`), and the two lanes of a column meet across halves
    /// (`permute2f128`).
    #[inline(always)]
    unsafe fn store_transposed(rows: &[__m256; TB], dst: *mut f32, ldd: usize) {
        let mut s = [_mm256_setzero_ps(); TB];
        for h in 0..2 {
            let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|r| rows[4 * h + r]);
            let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
            // `s[4h + q]`, lane L: rows 4h..4h+4 of column 4L + q.
            s[4 * h] = _mm256_shuffle_ps::<0x44>(t0, t2);
            s[4 * h + 1] = _mm256_shuffle_ps::<0xEE>(t0, t2);
            s[4 * h + 2] = _mm256_shuffle_ps::<0x44>(t1, t3);
            s[4 * h + 3] = _mm256_shuffle_ps::<0xEE>(t1, t3);
        }
        for q in 0..4 {
            let (lo, hi) = (s[q], s[4 + q]);
            _mm256_storeu_ps(dst.add(q * ldd), _mm256_permute2f128_ps::<0x20>(lo, hi));
            _mm256_storeu_ps(
                dst.add((4 + q) * ldd),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            );
        }
    }
    #[inline(always)]
    unsafe fn store_code_bytes(p: *mut u8, codes: __m256i) {
        // Low byte of each dword → the low dword of its 128-bit half, then
        // the two halves' dwords side by side.
        let pick = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
        let bytes = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(codes, pick), join);
        _mm_storel_epi64(p as *mut __m128i, _mm256_castsi256_si128(bytes));
    }
    #[inline(always)]
    unsafe fn store_nibble_pairs(p: *mut u8, codes: __m256i) {
        // Each qword holds an (even, odd) element pair; shifting the qword
        // right by 28 drops the odd element's code onto bits 4..8 of the
        // even element's dword.
        let paired = _mm256_or_si256(codes, _mm256_srli_epi64::<28>(codes));
        let evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let pick = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
        let dwords = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(paired, evens));
        let word = _mm_cvtsi128_si32(_mm_shuffle_epi8(dwords, pick));
        (p as *mut i32).write_unaligned(word);
    }
}

/// 16-entry nibble lookup: `vpermps` indexes modulo 8, so the table is
/// split into `lut[0..8]` / `lut[8..16]` halves looked up in parallel and
/// blended on the nibble's bit 3 (shifted into each lane's sign bit —
/// `vblendvps` selects on the sign).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nibble_lookup(idx: __m256i, lo_tab: __m256, hi_tab: __m256) -> __m256 {
    let lo = _mm256_permutevar8x32_ps(lo_tab, idx);
    let hi = _mm256_permutevar8x32_ps(hi_tab, idx);
    let sel = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(idx));
    _mm256_blendv_ps(lo, hi, sel)
}

/// Vectorized 4-bit pair decode: eight bytes per step expand to sixteen
/// outputs. Both nibble values come straight from the 16-entry `lut` via
/// in-register permutes — the same table entries the scalar pair-table
/// walk reads (the pair table *is* `lut` indexed by nibble), multiplied by
/// the same scale in the same order, so results are bit-identical.
///
/// # Safety
///
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decode_u4_pairs(
    bytes: &[u8],
    lut: &[f32],
    pair: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    assert!(lut.len() == 16 && out.len() == bytes.len() * 2);
    let lo_tab = _mm256_loadu_ps(lut.as_ptr());
    let hi_tab = _mm256_loadu_ps(lut.as_ptr().add(8));
    let sv = _mm256_set1_ps(scale);
    let n = bytes.len();
    let bp = bytes.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let raw = _mm_loadl_epi64(bp.add(i) as *const __m128i);
        let codes = _mm256_cvtepu8_epi32(raw);
        let lo = _mm256_and_si256(codes, _mm256_set1_epi32(0x0F));
        let hi = _mm256_srli_epi32::<4>(codes);
        let lo_v = nibble_lookup(lo, lo_tab, hi_tab);
        let hi_v = nibble_lookup(hi, lo_tab, hi_tab);
        // Interleave to byte order: out[2j] = low nibble, out[2j+1] = high.
        let even = _mm256_unpacklo_ps(lo_v, hi_v);
        let odd = _mm256_unpackhi_ps(lo_v, hi_v);
        let first = _mm256_permute2f128_ps::<0x20>(even, odd);
        let second = _mm256_permute2f128_ps::<0x31>(even, odd);
        _mm256_storeu_ps(op.add(2 * i), _mm256_mul_ps(first, sv));
        _mm256_storeu_ps(op.add(2 * i + 8), _mm256_mul_ps(second, sv));
        i += 8;
    }
    decode_u4_pairs_scalar(&bytes[i..], lut, pair, scale, &mut out[2 * i..]);
}

/// Vectorized one-byte LUT decode (FP8/INT8): eight codes widen to dword
/// indices and gather from the 256-entry table, then scale — the same
/// table load and multiply as the scalar loop.
///
/// # Safety
///
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    assert!(lut.len() == 256 && out.len() == codes.len());
    let sv = _mm256_set1_ps(scale);
    let n = codes.len();
    let cp = codes.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let raw = _mm_loadl_epi64(cp.add(i) as *const __m128i);
        let idx = _mm256_cvtepu8_epi32(raw);
        let vals = _mm256_i32gather_ps::<4>(lut.as_ptr(), idx);
        _mm256_storeu_ps(op.add(i), _mm256_mul_ps(vals, sv));
        i += 8;
    }
    decode_u8_run_scalar(&codes[i..], lut, scale, &mut out[i..]);
}
