//! The NEON backend for aarch64: the 4-lane [`SimdOps`] table, the
//! code-narrowing moves, and the `tbl`-based FP4 decode.
//!
//! **Written blind.** There is no aarch64 toolchain on the build box, so
//! this file has only ever been read, not compiled or run (CI's
//! `check-aarch64` job is where it first meets a compiler). What limits
//! the exposure is the split: the kernels this table instantiates (tile
//! update, BF16 store, abs-max, encode — [`super::simd_ops`]) are the
//! bodies the x86 tiers test bit for bit; only the one-intrinsic rows
//! below, the two narrowing stores and the two decodes are unverified.
//! First thing to run on an Arm machine: `tests/simd_scalar.rs` and
//! `quant/tests/pack_simd.rs`.
//!
//! NEON is a baseline aarch64 feature, so no runtime detection is needed
//! beyond [`super::simd`]'s feature/env gating. The tile update's k-step
//! is one fused multiply-add, `vfmaq_f32` — the same single rounding the
//! scalar kernel's `f32::mul_add` performs (a baseline `fmadd` on
//! aarch64). Mind its operand order: `vfmaq_f32(c, a, b)` is `c + a·b`,
//! the accumulator *first*, where the x86 `fmadd` intrinsics take it last.
//! The [`SimdOps::mul_add`] row is written blind like the rest of this
//! file; `tests/simd_scalar.rs` on an Arm machine is what checks it.
//!
//! NEON has no gather, but the pinned mirrored-LUT layout makes the FP4
//! table exactly 16 f32 entries = 64 bytes — `vqtbl1q_u8` range.
//! [`decode_u4_pairs`] deinterleaves the table into four byte planes
//! (`vld4q_u8`), looks every nibble's four value bytes up in parallel, and
//! re-interleaves them into f32 values (`vst4q_u8`); the trailing multiply
//! is the same `value * scale` the scalar pair-table walk performs, so
//! results stay bit-identical. The 256-entry FP8/INT8 table exceeds `tbl`
//! range, so [`decode_u8_run`] gathers lanes individually and vectorizes
//! only the multiply.

use super::simd::{decode_u4_pairs_scalar, decode_u8_run_scalar};
use super::simd_ops::{op_rows, SimdOps};
use std::arch::aarch64::*;

/// The NEON op table.
pub(super) struct Neon;

impl SimdOps for Neon {
    type F = float32x4_t;
    type I = uint32x4_t;
    /// All-ones lanes where the predicate holds.
    type M = uint32x4_t;
    const LANES: usize = 4;
    /// `4 rows × 2 accumulators + 2 B loads + 1 broadcast`; the
    /// 32-register file would take a wider strip, or the 6-row block, if an
    /// Arm machine measures that it pays. The block transpose is the
    /// trait's spilling default.
    const MAX_STRIP: usize = 2;
    const MAX_ROWS: usize = 4;

    op_rows! {
        fn loadu(p: *const f32) -> float32x4_t = vld1q_f32(p);
        fn storeu(p: *mut f32, v: float32x4_t) = vst1q_f32(p, v);
        fn splat(x: f32) -> float32x4_t = vdupq_n_f32(x);
        fn mul(a: float32x4_t, b: float32x4_t) -> float32x4_t = vmulq_f32(a, b);
        fn add(a: float32x4_t, b: float32x4_t) -> float32x4_t = vaddq_f32(a, b);
        // The accumulator is `vfmaq_f32`'s first argument.
        fn mul_add(a: float32x4_t, b: float32x4_t, c: float32x4_t) -> float32x4_t =
            vfmaq_f32(c, a, b);
        fn sub(a: float32x4_t, b: float32x4_t) -> float32x4_t = vsubq_f32(a, b);
        fn bits(v: float32x4_t) -> uint32x4_t = vreinterpretq_u32_f32(v);
        fn from_bits(v: uint32x4_t) -> float32x4_t = vreinterpretq_f32_u32(v);
        fn trunc(v: float32x4_t) -> uint32x4_t = vcvtq_u32_f32(v);
        fn to_f32(v: uint32x4_t) -> float32x4_t = vcvtq_f32_u32(v);

        fn splat_i(x: u32) -> uint32x4_t = vdupq_n_u32(x);
        fn and(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vandq_u32(a, b);
        fn or(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vorrq_u32(a, b);
        fn add_i(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vaddq_u32(a, b);
        fn sub_i(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vsubq_u32(a, b);
        fn min_i(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vminq_u32(a, b);
        fn max_i(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t = vmaxq_u32(a, b);
        // `ushl` shifts right for a negative count.
        fn shr(v: uint32x4_t, n: u32) -> uint32x4_t = vshlq_u32(v, vdupq_n_s32(-(n as i32)));
        fn shl(v: uint32x4_t, n: u32) -> uint32x4_t = vshlq_u32(v, vdupq_n_s32(n as i32));
        fn max_lane(v: uint32x4_t) -> u32 = vmaxvq_u32(v);

        fn gt_f(a: float32x4_t, b: float32x4_t) -> uint32x4_t = vcgtq_f32(a, b);
        fn gt_i(a: uint32x4_t, b: uint32x4_t) -> uint32x4_t =
            vcgtq_s32(vreinterpretq_s32_u32(a), vreinterpretq_s32_u32(b));
        // Equal to itself exactly on non-NaN lanes.
        fn ordered(v: float32x4_t) -> uint32x4_t = vceqq_f32(v, v);
        fn select(m: uint32x4_t, a: float32x4_t, b: float32x4_t) -> float32x4_t =
            vbslq_f32(m, a, b);
        fn keep_i(m: uint32x4_t, v: uint32x4_t) -> uint32x4_t = vandq_u32(m, v);
        // A holding lane is all-ones, i.e. −1.
        fn inc_where(v: uint32x4_t, m: uint32x4_t) -> uint32x4_t = vsubq_u32(v, m);
    }

    #[inline(always)]
    unsafe fn store_code_bytes(p: *mut u8, codes: uint32x4_t) {
        let halves = vmovn_u32(codes);
        let bytes = vmovn_u16(vcombine_u16(halves, halves));
        let word = vget_lane_u32::<0>(vreinterpret_u32_u8(bytes));
        (p as *mut u32).write_unaligned(word);
    }
    #[inline(always)]
    unsafe fn store_nibble_pairs(p: *mut u8, codes: uint32x4_t) {
        // Each u64 lane holds an (even, odd) element pair; shifting it
        // right by 28 drops the odd element's code onto bits 4..8 of the
        // even element's word, whose low byte is then the packed pair.
        let pairs = vreinterpretq_u64_u32(codes);
        let paired = vreinterpretq_u8_u64(vorrq_u64(pairs, vshrq_n_u64::<28>(pairs)));
        *p = vgetq_lane_u8::<0>(paired);
        *p.add(1) = vgetq_lane_u8::<8>(paired);
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
///
/// # Safety
///
/// None beyond running on aarch64, where NEON is baseline; `unsafe` so
/// the kernel-table builder sees one signature on every backend.
pub(super) unsafe fn decode_u4_pairs(
    bytes: &[u8],
    lut: &[f32],
    pair: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    assert!(lut.len() == 16 && out.len() == bytes.len() * 2);
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
    decode_u4_pairs_scalar(&bytes[i..], lut, pair, scale, &mut out[2 * i..]);
}

/// One-byte LUT decode (FP8/INT8): the 256-entry table is beyond `tbl`
/// range and NEON has no gather, so lanes are fetched individually into a
/// vector and only the multiply is vectorized — the same table load and
/// the same multiply as the scalar loop, four elements per step.
///
/// # Safety
///
/// None beyond running on aarch64, where NEON is baseline; `unsafe` so
/// the kernel-table builder sees one signature on every backend.
pub(super) unsafe fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    assert!(lut.len() == 256 && out.len() == codes.len());
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
    decode_u8_run_scalar(&codes[i..], lut, scale, &mut out[i..]);
}
