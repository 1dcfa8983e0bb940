//! AVX2 microkernels: lane-parallel rank-1 tile updates, vectorized
//! pair-table / LUT decode, and the fused BF16 rounding store.
//!
//! Every function here is compiled with `#[target_feature(enable =
//! "avx2")]` and must only be called after `is_x86_feature_detected!`
//! confirmed AVX2 (the [`super::simd`] dispatcher guarantees that).
//!
//! # Why this is bit-identical to the scalar kernel
//!
//! Each vector lane owns exactly one output element. A k-step is a
//! broadcast of `a[kk]`, one `vmulps` and one `vaddps` — the same two
//! IEEE-754 operations, in the same operand order, that the scalar kernel
//! performs for that element (`acc += a * b` is a multiply then an add; on
//! x86 the packed and scalar forms round identically per lane). The one
//! thing *not* pinned is which operand's NaN payload survives when both
//! inputs are NaN — LLVM may commute the scalar multiply, so the scalar
//! reference itself leaves that unspecified (numeric values, infinities
//! and signed zeros are still exact). There is **no FMA**: a
//! fused multiply-add skips the intermediate rounding and would drift from
//! the scalar kernel by an ULP. There are **no horizontal reductions**:
//! the `k` loop stays serial inside every lane, ascending, exactly as the
//! accumulation-order contract in the engine docs requires. Lanes never
//! interact, so an 8-lane strip is just eight scalar element loops run in
//! lock-step.

use std::arch::x86_64::*;

/// Output elements per vector register.
pub(super) const LANES: usize = 8;

/// Rounds each lane to BF16 (kept in f32) — the vector form of
/// [`crate::bf16::round`]: NaN lanes pass through payload-intact, other
/// lanes add the round-to-nearest-even bias and truncate the low mantissa
/// half.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bf16_round_ps(x: __m256) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
    let rounded = _mm256_add_epi32(bits, _mm256_add_epi32(lsb, _mm256_set1_epi32(0x7FFF)));
    let rounded = _mm256_and_si256(rounded, _mm256_set1_epi32(0xFFFF_0000u32 as i32));
    // Unordered compare marks NaN lanes; keep their original bits.
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(_mm256_castsi256_ps(rounded), x, nan)
}

/// Stores a finished accumulator vector, fusing the BF16 rounding when the
/// output is a packed-precision path.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store<const ROUND: bool>(p: *mut f32, v: __m256) {
    let v = if ROUND { bf16_round_ps(v) } else { v };
    _mm256_storeu_ps(p, v);
}

/// The AVX2 tile kernel — same contract as `engine::tile_kernel`. Rows are
/// processed in register blocks of 4/2/1; columns in strips of 16, 8 and a
/// scalar tail, every strip lane owning one output element end-to-end.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tile_kernel<const ROUND: bool>(
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
    k: usize,
    ablock: &[f32],
    btile: &[f32],
) {
    debug_assert!((row0 + mb) * n <= chunk.len());
    debug_assert!(j0 + nb <= n);
    debug_assert!(mb * k <= ablock.len());
    debug_assert!(k * nb <= btile.len());
    let cbase = chunk.as_mut_ptr();
    let abase = ablock.as_ptr();
    let bbase = btile.as_ptr();
    let mut i = 0;
    while i + 4 <= mb {
        row_block::<4, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
        i += 4;
    }
    while i + 2 <= mb {
        row_block::<2, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
        i += 2;
    }
    if i < mb {
        row_block::<1, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
    }
}

/// `MR` output rows against the whole `k×nb` B tile. Two accumulator
/// registers per row in the 16-wide strips (`4 rows × 4 regs + 2 B loads +
/// 1 broadcast` fits the 16 ymm registers), one in the 8-wide strip, plain
/// f32 in the tail — all with the identical per-element operation
/// sequence.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn row_block<const MR: usize, const ROUND: bool>(
    cbase: *mut f32,
    n: usize,
    row: usize,
    j0: usize,
    arows: *const f32,
    k: usize,
    btile: *const f32,
    nb: usize,
) {
    let mut cptr = [std::ptr::null_mut::<f32>(); MR];
    let mut aptr = [std::ptr::null::<f32>(); MR];
    for r in 0..MR {
        cptr[r] = cbase.add((row + r) * n + j0);
        aptr[r] = arows.add(r * k);
    }
    let mut j = 0;
    while j + 2 * LANES <= nb {
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        for r in 0..MR {
            acc0[r] = _mm256_loadu_ps(cptr[r].add(j));
            acc1[r] = _mm256_loadu_ps(cptr[r].add(j + LANES));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(LANES));
            for r in 0..MR {
                let av = _mm256_set1_ps(*aptr[r].add(kk));
                acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
                acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            store::<ROUND>(cptr[r].add(j), acc0[r]);
            store::<ROUND>(cptr[r].add(j + LANES), acc1[r]);
        }
        j += 2 * LANES;
    }
    while j + LANES <= nb {
        let mut acc = [_mm256_setzero_ps(); MR];
        for r in 0..MR {
            acc[r] = _mm256_loadu_ps(cptr[r].add(j));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp);
            for r in 0..MR {
                let av = _mm256_set1_ps(*aptr[r].add(kk));
                acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, b0));
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            store::<ROUND>(cptr[r].add(j), acc[r]);
        }
        j += LANES;
    }
    while j < nb {
        for r in 0..MR {
            let mut acc = *cptr[r].add(j);
            let mut bp = btile.add(j);
            for kk in 0..k {
                acc += *aptr[r].add(kk) * *bp;
                bp = bp.add(nb);
            }
            *cptr[r].add(j) = if ROUND { crate::bf16::round(acc) } else { acc };
        }
        j += 1;
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
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decode_u4_pairs(bytes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 16);
    debug_assert_eq!(out.len(), bytes.len() * 2);
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
    while i < n {
        let b = *bp.add(i) as usize;
        *op.add(2 * i) = lut[b & 0x0F] * scale;
        *op.add(2 * i + 1) = lut[b >> 4] * scale;
        i += 1;
    }
}

/// Vectorized one-byte LUT decode (FP8/INT8): eight codes widen to dword
/// indices and gather from the 256-entry table, then scale — the same
/// table load and multiply as the scalar loop.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 256);
    debug_assert_eq!(out.len(), codes.len());
    let sv = _mm256_set1_ps(scale);
    let n = codes.len();
    let cp = codes.as_ptr();
    let op = out.as_mut_ptr();
    let lp = lut.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let raw = _mm_loadl_epi64(cp.add(i) as *const __m128i);
        let idx = _mm256_cvtepu8_epi32(raw);
        let vals = _mm256_i32gather_ps::<4>(lp, idx);
        _mm256_storeu_ps(op.add(i), _mm256_mul_ps(vals, sv));
        i += 8;
    }
    while i < n {
        *op.add(i) = lut[*cp.add(i) as usize] * scale;
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Encode kernels (the pack engine). Lane rules: `simd_encode` module docs.
// ---------------------------------------------------------------------

use super::simd_encode::{abs_max_bits_scalar, CodeGrid, ABS_MASK, INF_BITS, MAGIC, MAGIC_BITS};

/// 8-lane abs-max fold — see `Encoder::abs_max`. Integer max over the
/// magnitude bit patterns with NaN lanes zeroed; max is exact, so the
/// horizontal reduction at the end reassociates nothing.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn abs_max_bits(seg: &[f32], acc: u32) -> u32 {
    let abs = _mm256_set1_epi32(ABS_MASK as i32);
    let inf = _mm256_set1_epi32(INF_BITS as i32);
    let mut m = _mm256_setzero_si256();
    let n = seg.len();
    let p = seg.as_ptr();
    let mut i = 0;
    while i + LANES <= n {
        let a = _mm256_and_si256(_mm256_castps_si256(_mm256_loadu_ps(p.add(i))), abs);
        let nan = _mm256_cmpgt_epi32(a, inf);
        m = _mm256_max_epi32(m, _mm256_andnot_si256(nan, a));
        i += LANES;
    }
    let mut lanes = [0u32; LANES];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, m);
    let acc = lanes.iter().fold(acc, |x, &l| x.max(l));
    abs_max_bits_scalar(&seg[i..], acc)
}

/// Broadcast constants of one encode call.
struct EncodeConsts {
    scale: __m256,
    abs: __m256i,
    inf: __m256i,
    max_bits: __m256i,
    emin_biased: __m256i,
    /// `man_bits + 254`: minus the clamped biased exponent, this is the
    /// biased exponent of the exact factor `2^(m − e_eff)`.
    exp_base: __m256i,
    man_shift: __m128i,
    magic: __m256,
    magic_bits: __m256i,
    half: __m256i,
    /// Magnitude bit patterns above this are non-zero codes' inputs: `-1`
    /// keeps an exact zero's sign offset (`signed_zero`), `0` clears it.
    zero_floor: __m256i,
}

impl EncodeConsts {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn new(grid: &CodeGrid, scale: f32) -> EncodeConsts {
        EncodeConsts {
            scale: _mm256_set1_ps(scale),
            abs: _mm256_set1_epi32(ABS_MASK as i32),
            inf: _mm256_set1_epi32(INF_BITS as i32),
            max_bits: _mm256_set1_epi32(grid.max_bits as i32),
            emin_biased: _mm256_set1_epi32(grid.emin_biased as i32),
            exp_base: _mm256_set1_epi32((grid.man_bits + 254) as i32),
            man_shift: _mm_cvtsi32_si128(grid.man_bits as i32),
            magic: _mm256_set1_ps(MAGIC),
            magic_bits: _mm256_set1_epi32(MAGIC_BITS as i32),
            half: _mm256_set1_epi32(grid.half as i32),
            zero_floor: _mm256_set1_epi32(if grid.signed_zero { -1 } else { 0 }),
        }
    }
}

/// Eight elements → eight codes (one per dword lane): the lane-parallel
/// form of `CodeGrid::code`. `SIGN_SHIFT` moves the sign bit onto the
/// width's sign offset (28 → bit 3 for 4-bit codes, 24 → bit 7 for bytes).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn codes<const STOCH: bool, const SIGN_SHIFT: i32>(
    x: __m256,
    u: __m256,
    c: &EncodeConsts,
) -> __m256i {
    let bits = _mm256_castps_si256(_mm256_mul_ps(x, c.scale));
    let a = _mm256_and_si256(bits, c.abs);
    // Saturation: a magnitude clamped to the top value encodes as the top
    // index (NaN lanes too; they are cleared below).
    let ac = _mm256_min_epi32(a, c.max_bits);
    let e = _mm256_max_epi32(_mm256_srli_epi32::<23>(ac), c.emin_biased);
    let pow2 = _mm256_slli_epi32::<23>(_mm256_sub_epi32(c.exp_base, e));
    let r = _mm256_mul_ps(_mm256_castsi256_ps(ac), _mm256_castsi256_ps(pow2));
    let k = if STOCH {
        let ki = _mm256_cvttps_epi32(r);
        let frac = _mm256_sub_ps(r, _mm256_cvtepi32_ps(ki));
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(frac, u));
        _mm256_sub_epi32(ki, up)
    } else {
        _mm256_sub_epi32(_mm256_castps_si256(_mm256_add_ps(r, c.magic)), c.magic_bits)
    };
    let binade = _mm256_sll_epi32(_mm256_sub_epi32(e, c.emin_biased), c.man_shift);
    let neg = _mm256_and_si256(_mm256_srli_epi32::<SIGN_SHIFT>(bits), c.half);
    let code = _mm256_or_si256(_mm256_add_epi32(binade, k), neg);
    let nan = _mm256_cmpgt_epi32(a, c.inf);
    let nonzero = _mm256_cmpgt_epi32(a, c.zero_floor);
    _mm256_and_si256(code, _mm256_andnot_si256(nan, nonzero))
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_uniforms<const STOCH: bool>(u: *const f32, i: usize) -> __m256 {
    if STOCH {
        _mm256_loadu_ps(u.add(i))
    } else {
        _mm256_setzero_ps()
    }
}

/// Byte-wide encode — see `Encoder::encode_u8`.
///
/// # Safety
///
/// AVX2 must be available; `out` (and `uniforms`, if given) must be as
/// long as `seg`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn encode_u8(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: Option<&[f32]>,
    out: &mut [u8],
) {
    match uniforms {
        Some(u) => encode_u8_impl::<true>(grid, seg, scale, u, out),
        None => encode_u8_impl::<false>(grid, seg, scale, &[], out),
    }
}

#[target_feature(enable = "avx2")]
unsafe fn encode_u8_impl<const STOCH: bool>(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: &[f32],
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), seg.len());
    debug_assert!(!STOCH || uniforms.len() == seg.len());
    let c = EncodeConsts::new(grid, scale);
    // Low byte of each dword → the low dword of its 128-bit half, then the
    // two halves' dwords side by side.
    let pick = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    let n = seg.len();
    let (sp, up, op) = (seg.as_ptr(), uniforms.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + LANES <= n {
        let code = codes::<STOCH, 24>(
            _mm256_loadu_ps(sp.add(i)),
            load_uniforms::<STOCH>(up, i),
            &c,
        );
        let bytes = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(code, pick), join);
        _mm_storel_epi64(op.add(i) as *mut __m128i, _mm256_castsi256_si128(bytes));
        i += LANES;
    }
    while i < n {
        *op.add(i) = grid.code_at(*sp.add(i) * scale, STOCH.then(|| *up.add(i)));
        i += 1;
    }
}

/// 4-bit encode of whole bytes — the aligned middle of
/// `Encoder::encode_u4`: `out[j]` takes elements `2j` (low nibble) and
/// `2j + 1` (high nibble).
///
/// # Safety
///
/// AVX2 must be available; `seg` (and `uniforms`, if given) must hold
/// exactly `2 * out.len()` elements.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn encode_u4_pairs(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: Option<&[f32]>,
    out: &mut [u8],
) {
    match uniforms {
        Some(u) => encode_u4_pairs_impl::<true>(grid, seg, scale, u, out),
        None => encode_u4_pairs_impl::<false>(grid, seg, scale, &[], out),
    }
}

#[target_feature(enable = "avx2")]
unsafe fn encode_u4_pairs_impl<const STOCH: bool>(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: &[f32],
    out: &mut [u8],
) {
    debug_assert_eq!(seg.len(), 2 * out.len());
    debug_assert!(!STOCH || uniforms.len() == seg.len());
    let c = EncodeConsts::new(grid, scale);
    let evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let pick = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    let n = seg.len();
    let (sp, up, op) = (seg.as_ptr(), uniforms.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + LANES <= n {
        let code = codes::<STOCH, 28>(
            _mm256_loadu_ps(sp.add(i)),
            load_uniforms::<STOCH>(up, i),
            &c,
        );
        // In-register nibble pairing: each qword holds an (even, odd)
        // element pair; shifting the qword right by 28 drops the odd
        // element's code onto bits 4..8 of the even element's dword.
        let paired = _mm256_or_si256(code, _mm256_srli_epi64::<28>(code));
        let dwords = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(paired, evens));
        let word = _mm_cvtsi128_si32(_mm_shuffle_epi8(dwords, pick));
        (op.add(i / 2) as *mut i32).write_unaligned(word);
        i += LANES;
    }
    while i < n {
        let lo = grid.code_at(*sp.add(i) * scale, STOCH.then(|| *up.add(i)));
        let hi = grid.code_at(*sp.add(i + 1) * scale, STOCH.then(|| *up.add(i + 1)));
        *op.add(i / 2) = lo | (hi << 4);
        i += 2;
    }
}
