//! AVX-512 microkernels: 16-lane rank-1 tile updates with masked column
//! tails, single-permute FP4 nibble decode, gathered FP8/INT8 decode, and
//! the fused BF16 rounding store.
//!
//! Every function here is compiled with `#[target_feature(enable =
//! "avx512f")]` and must only be called after `is_x86_feature_detected!`
//! confirmed `avx512f` (the [`super::simd`] dispatcher guarantees that).
//! Foundation instructions suffice for everything in this file — no
//! BW/VL/DQ extensions are required.
//!
//! # Why this is bit-identical to the scalar (and AVX2) kernel
//!
//! Same discipline as `simd_x86`, twice as wide: each vector lane owns
//! exactly one output element, and a k-step is a broadcast of `a[kk]`, one
//! `vmulps` and one `vaddps` — the same two IEEE-754 operations, in the
//! same operand order, that the scalar kernel performs for that element.
//! **No FMA** (it skips the intermediate rounding), **no horizontal
//! reductions** (the `k` loop stays serial inside every lane, ascending).
//! Only NaN payloads are exempt, exactly as for the scalar reference.
//!
//! What 512-bit adds beyond width:
//!
//! * **Masked column tails.** Where the AVX2 kernel falls back to a scalar
//!   loop for the last `nb % 8` columns, this kernel finishes any
//!   `1..=15`-wide tail with one `__mmask16`-guarded load/store pair —
//!   disabled lanes are never loaded or stored (AVX-512 masked loads
//!   suppress faults), enabled lanes run the identical mul/add sequence.
//! * **One-permute FP4 decode.** The whole 16-entry mirrored LUT fits a
//!   single zmm register, so a nibble decode is one `vpermps` instead of
//!   AVX2's two half-table permutes plus a sign-select blend.

use std::arch::x86_64::*;

/// Output elements per vector register.
pub(super) const LANES: usize = 16;

/// Rounds each lane to BF16 (kept in f32) — the vector form of
/// [`crate::bf16::round`]: NaN lanes pass through payload-intact, other
/// lanes add the round-to-nearest-even bias and truncate the low mantissa
/// half.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn bf16_round_ps(x: __m512) -> __m512 {
    let bits = _mm512_castps_si512(x);
    let lsb = _mm512_and_si512(_mm512_srli_epi32::<16>(bits), _mm512_set1_epi32(1));
    let rounded = _mm512_add_epi32(bits, _mm512_add_epi32(lsb, _mm512_set1_epi32(0x7FFF)));
    let rounded = _mm512_and_si512(rounded, _mm512_set1_epi32(0xFFFF_0000u32 as i32));
    // Unordered compare marks NaN lanes; keep their original bits.
    let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
    _mm512_mask_blend_ps(nan, _mm512_castsi512_ps(rounded), x)
}

/// Stores a finished accumulator vector, fusing the BF16 rounding when the
/// output is a packed-precision path.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn store<const ROUND: bool>(p: *mut f32, v: __m512) {
    let v = if ROUND { bf16_round_ps(v) } else { v };
    _mm512_storeu_ps(p, v);
}

/// The AVX-512 tile kernel — same contract as `engine::tile_kernel`. Rows
/// are processed in register blocks of 4/2/1; columns in strips of 32, 16
/// and one masked tail, every active lane owning one output element
/// end-to-end.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
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

/// `MR` output rows against the whole `k×nb` B tile. Four accumulator
/// registers per row in the 64-wide strips (4 rows × 4 regs + 4 B loads +
/// 1 broadcast uses 21 of the 32 zmm registers — a full `NC = 64` output
/// tile is one such strip, and each `a[kk]` broadcast feeds all 64
/// columns), then two per row in the 32-wide strip, one in the 16-wide
/// strip, and a `__mmask16`-guarded strip for the final `nb % 16` columns
/// — all with the identical per-element operation sequence.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
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
    while j + 4 * LANES <= nb {
        let mut acc = [[_mm512_setzero_ps(); 4]; MR];
        for r in 0..MR {
            for (s, a) in acc[r].iter_mut().enumerate() {
                *a = _mm512_loadu_ps(cptr[r].add(j + s * LANES));
            }
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let mut b = [_mm512_setzero_ps(); 4];
            for (s, bv) in b.iter_mut().enumerate() {
                *bv = _mm512_loadu_ps(bp.add(s * LANES));
            }
            for r in 0..MR {
                let av = _mm512_set1_ps(*aptr[r].add(kk));
                for s in 0..4 {
                    acc[r][s] = _mm512_add_ps(acc[r][s], _mm512_mul_ps(av, b[s]));
                }
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            for (s, a) in acc[r].iter().enumerate() {
                store::<ROUND>(cptr[r].add(j + s * LANES), *a);
            }
        }
        j += 4 * LANES;
    }
    while j + 2 * LANES <= nb {
        let mut acc0 = [_mm512_setzero_ps(); MR];
        let mut acc1 = [_mm512_setzero_ps(); MR];
        for r in 0..MR {
            acc0[r] = _mm512_loadu_ps(cptr[r].add(j));
            acc1[r] = _mm512_loadu_ps(cptr[r].add(j + LANES));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(LANES));
            for r in 0..MR {
                let av = _mm512_set1_ps(*aptr[r].add(kk));
                acc0[r] = _mm512_add_ps(acc0[r], _mm512_mul_ps(av, b0));
                acc1[r] = _mm512_add_ps(acc1[r], _mm512_mul_ps(av, b1));
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
        let mut acc = [_mm512_setzero_ps(); MR];
        for r in 0..MR {
            acc[r] = _mm512_loadu_ps(cptr[r].add(j));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(bp);
            for r in 0..MR {
                let av = _mm512_set1_ps(*aptr[r].add(kk));
                acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            store::<ROUND>(cptr[r].add(j), acc[r]);
        }
        j += LANES;
    }
    if j < nb {
        // Masked tail: lanes `>= nb - j` are disabled end-to-end — the
        // masked loads fault-suppress them and the masked store never
        // writes them; active lanes run the exact strip sequence above.
        let mask: __mmask16 = (1u16 << (nb - j)) - 1;
        let mut acc = [_mm512_setzero_ps(); MR];
        for r in 0..MR {
            acc[r] = _mm512_maskz_loadu_ps(mask, cptr[r].add(j));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = _mm512_maskz_loadu_ps(mask, bp);
            for r in 0..MR {
                let av = _mm512_set1_ps(*aptr[r].add(kk));
                acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            let v = if ROUND { bf16_round_ps(acc[r]) } else { acc[r] };
            _mm512_mask_storeu_ps(cptr[r].add(j), mask, v);
        }
    }
}

/// Vectorized 4-bit pair decode: sixteen bytes per step expand to
/// thirty-two outputs. The full 16-entry mirrored `lut` sits in one zmm
/// register, so each nibble value is a single `vpermps` — the same table
/// entries the scalar pair-table walk reads, multiplied by the same scale
/// in the same order, so results are bit-identical.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn decode_u4_pairs(bytes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 16);
    debug_assert_eq!(out.len(), bytes.len() * 2);
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
        _mm512_storeu_ps(op.add(2 * i + LANES), _mm512_mul_ps(second, sv));
        i += 16;
    }
    while i < n {
        let b = *bp.add(i) as usize;
        *op.add(2 * i) = lut[b & 0x0F] * scale;
        *op.add(2 * i + 1) = lut[b >> 4] * scale;
        i += 1;
    }
}

/// Vectorized one-byte LUT decode (FP8/INT8): sixteen codes widen to dword
/// indices and gather from the 256-entry table, then scale — the same
/// table load and multiply as the scalar loop.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 256);
    debug_assert_eq!(out.len(), codes.len());
    let sv = _mm512_set1_ps(scale);
    let n = codes.len();
    let cp = codes.as_ptr();
    let op = out.as_mut_ptr();
    let lp = lut.as_ptr();
    let mut i = 0;
    while i + 16 <= n {
        let raw = _mm_loadu_si128(cp.add(i) as *const __m128i);
        let idx = _mm512_cvtepu8_epi32(raw);
        let vals = _mm512_i32gather_ps::<4>(idx, lp);
        _mm512_storeu_ps(op.add(i), _mm512_mul_ps(vals, sv));
        i += 16;
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

/// 16-lane abs-max fold — see `Encoder::abs_max`. Integer max over the
/// magnitude bit patterns with NaN lanes zeroed; max is exact, so the
/// horizontal reduction at the end reassociates nothing.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn abs_max_bits(seg: &[f32], acc: u32) -> u32 {
    let abs = _mm512_set1_epi32(ABS_MASK as i32);
    let inf = _mm512_set1_epi32(INF_BITS as i32);
    let mut m = _mm512_setzero_si512();
    let n = seg.len();
    let p = seg.as_ptr();
    let mut i = 0;
    while i + LANES <= n {
        let a = _mm512_and_si512(_mm512_castps_si512(_mm512_loadu_ps(p.add(i))), abs);
        let finite = _mm512_cmple_epi32_mask(a, inf);
        m = _mm512_mask_max_epi32(m, finite, m, a);
        i += LANES;
    }
    let acc = acc.max(_mm512_reduce_max_epu32(m));
    abs_max_bits_scalar(&seg[i..], acc)
}

/// Broadcast constants of one encode call.
struct EncodeConsts {
    scale: __m512,
    abs: __m512i,
    inf: __m512i,
    max_bits: __m512i,
    emin_biased: __m512i,
    /// `man_bits + 254`: minus the clamped biased exponent, this is the
    /// biased exponent of the exact factor `2^(m − e_eff)`.
    exp_base: __m512i,
    man_shift: __m128i,
    magic: __m512,
    magic_bits: __m512i,
    half: __m512i,
    one: __m512i,
    /// Magnitude bit patterns above this are non-zero codes' inputs: `-1`
    /// keeps an exact zero's sign offset (`signed_zero`), `0` clears it.
    zero_floor: __m512i,
}

impl EncodeConsts {
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn new(grid: &CodeGrid, scale: f32) -> EncodeConsts {
        EncodeConsts {
            scale: _mm512_set1_ps(scale),
            abs: _mm512_set1_epi32(ABS_MASK as i32),
            inf: _mm512_set1_epi32(INF_BITS as i32),
            max_bits: _mm512_set1_epi32(grid.max_bits as i32),
            emin_biased: _mm512_set1_epi32(grid.emin_biased as i32),
            exp_base: _mm512_set1_epi32((grid.man_bits + 254) as i32),
            man_shift: _mm_cvtsi32_si128(grid.man_bits as i32),
            magic: _mm512_set1_ps(MAGIC),
            magic_bits: _mm512_set1_epi32(MAGIC_BITS as i32),
            half: _mm512_set1_epi32(grid.half as i32),
            one: _mm512_set1_epi32(1),
            zero_floor: _mm512_set1_epi32(if grid.signed_zero { -1 } else { 0 }),
        }
    }
}

/// Sixteen elements → sixteen codes (one per dword lane): the
/// lane-parallel form of `CodeGrid::code`. `SIGN_SHIFT` moves the sign bit
/// onto the width's sign offset (28 → bit 3 for 4-bit codes, 24 → bit 7
/// for bytes).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn codes<const STOCH: bool, const SIGN_SHIFT: u32>(
    x: __m512,
    u: __m512,
    c: &EncodeConsts,
) -> __m512i {
    let bits = _mm512_castps_si512(_mm512_mul_ps(x, c.scale));
    let a = _mm512_and_si512(bits, c.abs);
    // Saturation: a magnitude clamped to the top value encodes as the top
    // index (NaN lanes too; they are cleared below).
    let ac = _mm512_min_epi32(a, c.max_bits);
    let e = _mm512_max_epi32(_mm512_srli_epi32::<23>(ac), c.emin_biased);
    let pow2 = _mm512_slli_epi32::<23>(_mm512_sub_epi32(c.exp_base, e));
    let r = _mm512_mul_ps(_mm512_castsi512_ps(ac), _mm512_castsi512_ps(pow2));
    let k = if STOCH {
        let ki = _mm512_cvttps_epi32(r);
        let frac = _mm512_sub_ps(r, _mm512_cvtepi32_ps(ki));
        let up = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(frac, u);
        _mm512_mask_add_epi32(ki, up, ki, c.one)
    } else {
        _mm512_sub_epi32(_mm512_castps_si512(_mm512_add_ps(r, c.magic)), c.magic_bits)
    };
    let binade = _mm512_sll_epi32(_mm512_sub_epi32(e, c.emin_biased), c.man_shift);
    let neg = _mm512_and_si512(_mm512_srli_epi32::<SIGN_SHIFT>(bits), c.half);
    let code = _mm512_or_si512(_mm512_add_epi32(binade, k), neg);
    let valid = _mm512_mask_cmpgt_epi32_mask(_mm512_cmple_epi32_mask(a, c.inf), a, c.zero_floor);
    _mm512_maskz_mov_epi32(valid, code)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load_uniforms<const STOCH: bool>(u: *const f32, i: usize) -> __m512 {
    if STOCH {
        _mm512_loadu_ps(u.add(i))
    } else {
        _mm512_setzero_ps()
    }
}

/// Byte-wide encode — see `Encoder::encode_u8`.
///
/// # Safety
///
/// `avx512f` must be available; `out` (and `uniforms`, if given) must be
/// as long as `seg`.
#[target_feature(enable = "avx512f")]
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

#[target_feature(enable = "avx512f")]
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
    let n = seg.len();
    let (sp, up, op) = (seg.as_ptr(), uniforms.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + LANES <= n {
        let code = codes::<STOCH, 24>(
            _mm512_loadu_ps(sp.add(i)),
            load_uniforms::<STOCH>(up, i),
            &c,
        );
        _mm_storeu_si128(op.add(i) as *mut __m128i, _mm512_cvtepi32_epi8(code));
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
/// `avx512f` must be available; `seg` (and `uniforms`, if given) must hold
/// exactly `2 * out.len()` elements.
#[target_feature(enable = "avx512f")]
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

#[target_feature(enable = "avx512f")]
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
    let n = seg.len();
    let (sp, up, op) = (seg.as_ptr(), uniforms.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + LANES <= n {
        let code = codes::<STOCH, 28>(
            _mm512_loadu_ps(sp.add(i)),
            load_uniforms::<STOCH>(up, i),
            &c,
        );
        // In-register nibble pairing: each qword holds an (even, odd)
        // element pair; shifting the qword right by 28 drops the odd
        // element's code onto bits 4..8 of the even element's dword, and
        // `vpmovqb` keeps exactly that low byte of every qword.
        let paired = _mm512_or_si512(code, _mm512_srli_epi64::<28>(code));
        _mm_storel_epi64(op.add(i / 2) as *mut __m128i, _mm512_cvtepi64_epi8(paired));
        i += LANES;
    }
    while i < n {
        let lo = grid.code_at(*sp.add(i) * scale, STOCH.then(|| *up.add(i)));
        let hi = grid.code_at(*sp.add(i + 1) * scale, STOCH.then(|| *up.add(i + 1)));
        *op.add(i / 2) = lo | (hi << 4);
        i += 2;
    }
}
