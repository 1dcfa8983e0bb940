//! NEON microkernels for aarch64 — the 4-lane mirror of `simd_x86`.
//!
//! NEON is a baseline aarch64 feature, so no runtime detection is needed
//! beyond the [`super::simd`] dispatcher's feature/env gating. The same
//! bit-identity argument applies: one output element per lane, a separate
//! `vmulq_f32` then `vaddq_f32` per k-step (**never** `vmlaq_f32` /
//! `vfmaq_f32`, which contract into a fused multiply-add on aarch64 and
//! would skip the intermediate rounding), `k` serial and ascending inside
//! every lane, no cross-lane reduction.
//!
//! The decode paths vectorize too. NEON has no gather, but the pinned
//! mirrored-LUT layout makes the FP4 table exactly 16 f32 entries = 64
//! bytes — `vqtbl1q_u8` range. [`decode_u4_pairs`] deinterleaves the
//! table into four byte planes (`vld4q_u8`), looks every nibble's four
//! value bytes up in parallel, and re-interleaves them into f32 values
//! (`vst4q_u8`); the trailing multiply is the same `value * scale` the
//! scalar pair-table walk performs, so results stay bit-identical. The
//! 256-entry FP8/INT8 table exceeds `tbl` range, so [`decode_u8_run`]
//! gathers lanes individually and vectorizes only the multiply.

use std::arch::aarch64::*;

/// Output elements per vector register.
pub(super) const LANES: usize = 4;

/// Rounds each lane to BF16 (kept in f32) — the vector form of
/// [`crate::bf16::round`]: NaN lanes keep their original bits.
#[inline]
unsafe fn bf16_round_q(x: float32x4_t) -> float32x4_t {
    let bits = vreinterpretq_u32_f32(x);
    let lsb = vandq_u32(vshrq_n_u32::<16>(bits), vdupq_n_u32(1));
    let rounded = vaddq_u32(bits, vaddq_u32(lsb, vdupq_n_u32(0x7FFF)));
    let rounded = vandq_u32(rounded, vdupq_n_u32(0xFFFF_0000));
    // vceqq_f32(x, x) is all-ones exactly on non-NaN lanes.
    let ordered = vceqq_f32(x, x);
    vbslq_f32(ordered, vreinterpretq_f32_u32(rounded), x)
}

/// Stores a finished accumulator vector, fusing the BF16 rounding when the
/// output is a packed-precision path.
#[inline]
unsafe fn store<const ROUND: bool>(p: *mut f32, v: float32x4_t) {
    let v = if ROUND { bf16_round_q(v) } else { v };
    vst1q_f32(p, v);
}

/// The NEON tile kernel — same contract as `engine::tile_kernel`. Rows in
/// register blocks of 4/2/1; columns in strips of 8, 4 and a scalar tail.
#[allow(clippy::too_many_arguments)]
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

/// `MR` output rows against the whole `k×nb` B tile — the 4-lane analogue
/// of the AVX2 `row_block`, with the identical per-element operation
/// sequence.
#[allow(clippy::too_many_arguments)]
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
        let mut acc0 = [vdupq_n_f32(0.0); MR];
        let mut acc1 = [vdupq_n_f32(0.0); MR];
        for r in 0..MR {
            acc0[r] = vld1q_f32(cptr[r].add(j));
            acc1[r] = vld1q_f32(cptr[r].add(j + LANES));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = vld1q_f32(bp);
            let b1 = vld1q_f32(bp.add(LANES));
            for r in 0..MR {
                let av = vdupq_n_f32(*aptr[r].add(kk));
                acc0[r] = vaddq_f32(acc0[r], vmulq_f32(av, b0));
                acc1[r] = vaddq_f32(acc1[r], vmulq_f32(av, b1));
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
        let mut acc = [vdupq_n_f32(0.0); MR];
        for r in 0..MR {
            acc[r] = vld1q_f32(cptr[r].add(j));
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let b0 = vld1q_f32(bp);
            for r in 0..MR {
                let av = vdupq_n_f32(*aptr[r].add(kk));
                acc[r] = vaddq_f32(acc[r], vmulq_f32(av, b0));
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

/// Vectorized 4-bit pair decode: eight bytes per step expand to sixteen
/// outputs. The 64-byte mirrored LUT is deinterleaved once into four
/// per-byte-position `tbl` tables; each batch of sixteen nibble indices
/// (low/high interleaved into byte order by `vzip_u8`) then looks up all
/// four bytes of its f32 value in parallel, and `vst4q_u8` reassembles the
/// values. The final multiply is `lut[nibble] * scale` — the same table
/// entry and the same IEEE-754 multiply as the scalar pair-table walk, so
/// results are bit-identical.
pub(super) unsafe fn decode_u4_pairs(bytes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 16);
    debug_assert_eq!(out.len(), bytes.len() * 2);
    // Byte planes of the table: `tab.k` holds byte `k` of each entry.
    let tab = vld4q_u8(lut.as_ptr() as *const u8);
    let sv = vdupq_n_f32(scale);
    let n = bytes.len();
    let bp = bytes.as_ptr();
    let op = out.as_mut_ptr();
    let mut vals = [0.0f32; 16];
    let mut i = 0;
    while i + 8 <= n {
        let raw = vld1_u8(bp.add(i));
        let lo = vand_u8(raw, vdup_n_u8(0x0F));
        let hi = vshr_n_u8::<4>(raw);
        // Byte order: out[2j] = low nibble of byte j, out[2j+1] = high.
        let z = vzip_u8(lo, hi);
        let idx = vcombine_u8(z.0, z.1);
        let assembled = uint8x16x4_t(
            vqtbl1q_u8(tab.0, idx),
            vqtbl1q_u8(tab.1, idx),
            vqtbl1q_u8(tab.2, idx),
            vqtbl1q_u8(tab.3, idx),
        );
        vst4q_u8(vals.as_mut_ptr() as *mut u8, assembled);
        for t in 0..4 {
            let v = vld1q_f32(vals.as_ptr().add(4 * t));
            vst1q_f32(op.add(2 * i + 4 * t), vmulq_f32(v, sv));
        }
        i += 8;
    }
    while i < n {
        let b = *bp.add(i) as usize;
        *op.add(2 * i) = lut[b & 0x0F] * scale;
        *op.add(2 * i + 1) = lut[b >> 4] * scale;
        i += 1;
    }
}

/// One-byte LUT decode (FP8/INT8): the 256-entry table is beyond `tbl`
/// range and NEON has no gather, so lanes are fetched individually into a
/// vector and only the multiply is vectorized — the same table load and
/// the same multiply as the scalar loop, four elements per step.
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(lut.len(), 256);
    debug_assert_eq!(out.len(), codes.len());
    let sv = vdupq_n_f32(scale);
    let n = codes.len();
    let cp = codes.as_ptr();
    let op = out.as_mut_ptr();
    let lp = lut.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let mut v = vdupq_n_f32(0.0);
        v = vld1q_lane_f32::<0>(lp.add(*cp.add(i) as usize), v);
        v = vld1q_lane_f32::<1>(lp.add(*cp.add(i + 1) as usize), v);
        v = vld1q_lane_f32::<2>(lp.add(*cp.add(i + 2) as usize), v);
        v = vld1q_lane_f32::<3>(lp.add(*cp.add(i + 3) as usize), v);
        vst1q_f32(op.add(i), vmulq_f32(v, sv));
        i += 4;
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

/// Elements per encode step: two 4-lane code vectors narrow to one
/// 8-byte store (byte-wide codes) or one 4-byte store (nibble pairs).
const ENCODE_STEP: usize = 2 * LANES;

/// 4-lane abs-max fold — see `Encoder::abs_max`. Integer max over the
/// magnitude bit patterns with NaN lanes zeroed; max is exact, so the
/// horizontal reduction at the end reassociates nothing.
pub(super) unsafe fn abs_max_bits(seg: &[f32], acc: u32) -> u32 {
    let abs = vdupq_n_u32(ABS_MASK);
    let inf = vdupq_n_u32(INF_BITS);
    let mut m = vdupq_n_u32(0);
    let n = seg.len();
    let p = seg.as_ptr();
    let mut i = 0;
    while i + LANES <= n {
        let a = vandq_u32(vreinterpretq_u32_f32(vld1q_f32(p.add(i))), abs);
        m = vmaxq_u32(m, vandq_u32(a, vcleq_u32(a, inf)));
        i += LANES;
    }
    let acc = acc.max(vmaxvq_u32(m));
    abs_max_bits_scalar(&seg[i..], acc)
}

/// Broadcast constants of one encode call.
struct EncodeConsts {
    scale: float32x4_t,
    abs: uint32x4_t,
    inf: uint32x4_t,
    max_bits: uint32x4_t,
    emin_biased: uint32x4_t,
    /// `man_bits + 254`: minus the clamped biased exponent, this is the
    /// biased exponent of the exact factor `2^(m − e_eff)`.
    exp_base: uint32x4_t,
    man_shift: int32x4_t,
    magic: float32x4_t,
    magic_bits: uint32x4_t,
    half: uint32x4_t,
    /// All-ones when an exact zero keeps its sign offset (`signed_zero`).
    zero_ok: uint32x4_t,
}

impl EncodeConsts {
    #[inline]
    unsafe fn new(grid: &CodeGrid, scale: f32) -> EncodeConsts {
        EncodeConsts {
            scale: vdupq_n_f32(scale),
            abs: vdupq_n_u32(ABS_MASK),
            inf: vdupq_n_u32(INF_BITS),
            max_bits: vdupq_n_u32(grid.max_bits),
            emin_biased: vdupq_n_u32(grid.emin_biased),
            exp_base: vdupq_n_u32(grid.man_bits + 254),
            man_shift: vdupq_n_s32(grid.man_bits as i32),
            magic: vdupq_n_f32(MAGIC),
            magic_bits: vdupq_n_u32(MAGIC_BITS),
            half: vdupq_n_u32(grid.half),
            zero_ok: vdupq_n_u32(if grid.signed_zero { u32::MAX } else { 0 }),
        }
    }
}

/// Four elements → four codes (one per lane): the lane-parallel form of
/// `CodeGrid::code`. `SIGN_SHIFT` moves the sign bit onto the width's
/// sign offset (28 → bit 3 for 4-bit codes, 24 → bit 7 for bytes).
#[inline]
unsafe fn codes<const STOCH: bool, const SIGN_SHIFT: i32>(
    x: float32x4_t,
    u: float32x4_t,
    c: &EncodeConsts,
) -> uint32x4_t {
    let bits = vreinterpretq_u32_f32(vmulq_f32(x, c.scale));
    let a = vandq_u32(bits, c.abs);
    // Saturation: a magnitude clamped to the top value encodes as the top
    // index (NaN lanes too; they are cleared below).
    let ac = vminq_u32(a, c.max_bits);
    let e = vmaxq_u32(vshrq_n_u32::<23>(ac), c.emin_biased);
    let pow2 = vshlq_n_u32::<23>(vsubq_u32(c.exp_base, e));
    let r = vmulq_f32(vreinterpretq_f32_u32(ac), vreinterpretq_f32_u32(pow2));
    let k = if STOCH {
        let ki = vcvtq_u32_f32(r);
        let frac = vsubq_f32(r, vcvtq_f32_u32(ki));
        // The compare mask is all-ones (−1) on round-up lanes.
        vsubq_u32(ki, vcgtq_f32(frac, u))
    } else {
        vsubq_u32(vreinterpretq_u32_f32(vaddq_f32(r, c.magic)), c.magic_bits)
    };
    let binade = vshlq_u32(vsubq_u32(e, c.emin_biased), c.man_shift);
    let neg = vandq_u32(vshrq_n_u32::<SIGN_SHIFT>(bits), c.half);
    let code = vorrq_u32(vaddq_u32(binade, k), neg);
    let nonzero = vorrq_u32(vcgtq_u32(a, vdupq_n_u32(0)), c.zero_ok);
    vandq_u32(code, vandq_u32(vcleq_u32(a, c.inf), nonzero))
}

/// Eight elements → eight codes, one per byte.
#[inline]
unsafe fn code_bytes<const STOCH: bool, const SIGN_SHIFT: i32>(
    sp: *const f32,
    up: *const f32,
    c: &EncodeConsts,
) -> uint8x8_t {
    let (u0, u1) = if STOCH {
        (vld1q_f32(up), vld1q_f32(up.add(LANES)))
    } else {
        (vdupq_n_f32(0.0), vdupq_n_f32(0.0))
    };
    let c0 = codes::<STOCH, SIGN_SHIFT>(vld1q_f32(sp), u0, c);
    let c1 = codes::<STOCH, SIGN_SHIFT>(vld1q_f32(sp.add(LANES)), u1, c);
    vmovn_u16(vcombine_u16(vmovn_u32(c0), vmovn_u32(c1)))
}

/// Byte-wide encode — see `Encoder::encode_u8`.
///
/// # Safety
///
/// `out` (and `uniforms`, if given) must be as long as `seg`.
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
    while i + ENCODE_STEP <= n {
        // `up` is only dereferenced when STOCH (then it is `n` long).
        vst1_u8(
            op.add(i),
            code_bytes::<STOCH, 24>(sp.add(i), up.wrapping_add(i), &c),
        );
        i += ENCODE_STEP;
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
/// `seg` (and `uniforms`, if given) must hold exactly `2 * out.len()`
/// elements.
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
    while i + ENCODE_STEP <= n {
        let bytes = code_bytes::<STOCH, 28>(sp.add(i), up.wrapping_add(i), &c);
        // In-register nibble pairing: each u16 lane holds an (even, odd)
        // code pair as (low byte, high byte); shifting the lane right by 4
        // drops the odd code onto bits 4..8 of the low byte, and the unzip
        // keeps exactly those low bytes.
        let pairs = vreinterpret_u16_u8(bytes);
        let paired = vreinterpret_u8_u16(vorr_u16(pairs, vshr_n_u16::<4>(pairs)));
        let word = vget_lane_u32::<0>(vreinterpret_u32_u8(vuzp1_u8(paired, paired)));
        (op.add(i / 2) as *mut u32).write_unaligned(word);
        i += ENCODE_STEP;
    }
    while i < n {
        let lo = grid.code_at(*sp.add(i) * scale, STOCH.then(|| *up.add(i)));
        let hi = grid.code_at(*sp.add(i + 1) * scale, STOCH.then(|| *up.add(i + 1)));
        *op.add(i / 2) = lo | (hi << 4);
        i += 2;
    }
}
