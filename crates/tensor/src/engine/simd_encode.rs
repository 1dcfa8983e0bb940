//! The pack engine: runtime-dispatched quantize→encode kernels, the
//! mirror image of the decode hooks in [`super::simd`].
//!
//! A packer (`snip-quant`'s `Codebook`) walks a tensor scale group by scale
//! group and hands each contiguous row segment to three kernels here: the
//! group abs-max scan ([`Encoder::abs_max`]) and the 4-bit / 8-bit code
//! writers ([`Encoder::encode_u4`], [`Encoder::encode_u8`]). An [`Encoder`]
//! is a handle on the active row of [`super::simd`]'s kernel table, so
//! backend choice follows that module unchanged — `SNIP_SIMD`,
//! `with_forced_backend` and pool propagation all apply — and neither the
//! methods here nor their callers contain `unsafe`. This file holds the
//! code rule ([`CodeGrid`]) and the scalar row; the vector kernels are
//! written once, over the per-ISA op table, in `simd_ops`.
//!
//! # The encode lane rules (what keeps vector == scalar bit for bit)
//!
//! One lane owns one element. The scale multiply is the same single
//! IEEE-754 multiply the scalar reference performs; everything after it
//! works on the product's bit pattern with integer compare/shift/add, plus
//! three float operations that are each one correctly rounded IEEE op the
//! reference performs identically: an exact power-of-two multiply (moves
//! the element's quantum to 1), and either the `2^23` magic add
//! (round-to-nearest-even) or a truncate/convert/subtract/compare against
//! the element's uniform draw (stochastic rounding). No FMA, no
//! reassociation, no cross-lane arithmetic — lanes only meet in the final
//! narrowing shuffle that pairs nibbles into bytes. The abs-max scan is an
//! integer max over `bits & 0x7FFF_FFFF` with NaN lanes zeroed, which is
//! order-independent and reproduces the `acc.max(v.abs())` fold (`f32::max`
//! ignores NaN) exactly. Backend choice is therefore a pure performance
//! decision; `quant/tests/pack_simd.rs` pins every tier against forced
//! scalar and against the dense oracle of `quant/tests/support/oracle.rs`.
//!
//! # One code rule
//!
//! A ≤ 8-bit grid is a [`CodeGrid`], and an element's code is computed
//! from the exponent and rounded mantissa of its scaled bit pattern. The
//! float formats *and* the symmetric integer grids use the same
//! arithmetic; `CodeGrid::nearest_code` and `CodeGrid::stochastic_code`
//! are the always-compiled scalar reference and the segment tails. The top
//! value must sit at the top index, so saturation is a clamp of the
//! magnitude ([`CodeGrid::new`] asserts it); NaN and exact-zero lanes are
//! masked to code 0 last.
//!
//! # The draw-buffer RNG contract
//!
//! Kernels never draw. A stochastic pack keeps the dense oracle's
//! contract — one `next_f32()` per element, unconditionally, in the
//! group walk's row-major-within-group order — by drawing each row
//! segment's uniforms serially into a 256-entry stack buffer that the
//! kernel then consumes as `uniforms`, so codes, scales and the final RNG
//! state do not depend on the lane width. Stochastic rounding is
//! sign-magnitude on every grid, float and integer alike: the magnitude
//! rounds down or up against the draw, and the sign rides along, so a lane
//! never needs to know which kind of grid it encodes.
//!
//! # One group walk, on the calling thread
//!
//! `snip-quant`'s `Codebook` is interned once per format and holds the
//! decode and pair tables plus the [`CodeGrid`]. Its `pack_groups` is the
//! only sweep, and these kernels are its only encoder: every pack, of every
//! recipe, grid and rounding, goes through `pack_rounded_with`, which hands
//! them contiguous row segments. The two-step reference they are checked
//! against (round onto the grid, then binary-search the sorted values for
//! the code) is test support in `quant/tests/support/oracle.rs`. The pack
//! engine never fans out over the pool: a split of it measured ≈ 1.0× at
//! every benchmark shape, and its history is in `CHANGES.md`. The pool's
//! users are listed in [`crate::pool`].
//!
//! # Adding an encode backend
//!
//! There is none to add separately. The abs-max fold, the encode constants
//! and the code arithmetic are one generic body each in `simd_ops`, and a
//! new ISA gets them by implementing the `SimdOps` op table (see
//! "Adding an arch backend" there). The ISA-specific part of encoding is
//! the two narrowing stores: `store_code_bytes` (the low byte of each lane
//! → one byte per lane) and `store_nibble_pairs` (whole bytes only —
//! [`Encoder::encode_u4`] does the odd head and tail nibbles). Run this
//! module's `every_backend_matches_the_scalar_reference` (every segment
//! length `0..=2·step+1` × both nibble alignments × nearest/stochastic)
//! and `quant/tests/pack_simd.rs` (every tier against forced scalar *and*
//! against the test-support oracle: codes, scales, post-call RNG state;
//! NaN, ±Inf, −0, subnormal, exact-tie and all-zero cases, sign symmetry,
//! and a sampled sweep of every 4099th f32 bit pattern). The NEON op
//! table was written without an aarch64 toolchain: its rows are the first
//! thing to verify on an Arm machine.
//!
//! # Measurements
//!
//! The per-tier cost of every pack a training step makes is the `pack`
//! table of `BENCH_gemm.json`: rows `pack_<format>_<layout>_<rounding>`,
//! in ns per element, for the weight blocks and the activation tiles at
//! each benchmark shape.

use super::simd::{active_kernels, Kernels};
use crate::packed::CodeWidth;

pub(super) const ABS_MASK: u32 = 0x7FFF_FFFF;
pub(super) const INF_BITS: u32 = 0x7F80_0000;
/// `2^23`: adding it to `0 ≤ r < 2^22` rounds `r` to an integer
/// (nearest-even, the IEEE default mode) that then sits in the sum's low
/// mantissa bits.
pub(super) const MAGIC: f32 = 8_388_608.0;
pub(super) const MAGIC_BITS: u32 = 0x4B00_0000;

/// The sign-magnitude code space of one ≤ 8-bit grid, in the form the
/// encode kernels compute with.
///
/// The grid is described like a small float format: `man_bits` mantissa
/// bits, minimum normal exponent `emin`, largest magnitude `max_value`.
/// Its non-negative values, ascending, are zero, the `2^m − 1` subnormals,
/// then `2^m` values per binade, so the value `k · 2^(e_eff − m)` (with
/// `e_eff` the element's exponent clamped up to `emin`, and `k` the rounded
/// multiple of that binade's quantum) sits at index
/// `(e_eff − emin) · 2^m + k`; a round-up to `k = 2^(m+1)` lands exactly on
/// the next binade's first index. A symmetric integer grid `0..=qmax` is
/// the degenerate case `man_bits = emin = bits − 1`: every value is a
/// "subnormal" of quantum 1.
///
/// A code is the index plus `half` (the width's sign offset, 8 or 128) for
/// negative elements. NaN encodes as 0; magnitudes at or above `max_value`
/// (infinities included) saturate to the top index; an exact ±0 input
/// encodes as 0 unless `signed_zero` (integer grids keep −0's sign), while
/// a negative element that *rounds* to zero always keeps its sign offset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodeGrid {
    pub(super) man_bits: u32,
    /// `emin + 127`: the clamp applied to an element's biased exponent.
    pub(super) emin_biased: u32,
    pub(super) max_bits: u32,
    pub(super) half: u32,
    pub(super) signed_zero: bool,
}

impl CodeGrid {
    /// Describes a grid for `width`-wide codes.
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave the range the exponent arithmetic is
    /// exact in (`man_bits ≤ 7`, `|emin| ≤ 100`, `0 < max_value < 2^100`),
    /// or if `max_value` is not the grid value at index `top` (saturation
    /// relies on that identity).
    pub fn new(
        width: CodeWidth,
        man_bits: u32,
        emin: i32,
        max_value: f32,
        top: u8,
        signed_zero: bool,
    ) -> CodeGrid {
        // Keeps every `2^(m − e_eff)` factor a normal f32.
        assert!(man_bits <= 7, "man_bits {man_bits} out of range");
        assert!((-100..=100).contains(&emin), "emin {emin} out of range");
        assert!(
            max_value > 0.0 && max_value < f32::from_bits(227 << 23),
            "max_value {max_value} out of range"
        );
        let half = (width.lut_len() / 2) as u32;
        assert!(u32::from(top) < half, "top index must fit the code half");
        let grid = CodeGrid {
            man_bits,
            emin_biased: (emin + 127) as u32,
            max_bits: max_value.to_bits(),
            half,
            signed_zero,
        };
        assert_eq!(
            grid.index(max_value.to_bits(), round_nearest),
            u32::from(top),
            "max_value must be the grid's top value"
        );
        grid
    }

    /// Index of the non-zero finite magnitude with bit pattern
    /// `a ≤ max_bits`, `round` mapping the quantum-scaled magnitude
    /// `0 ≤ r < 2^(m+1)` to its integer multiple.
    #[inline]
    fn index(&self, a: u32, round: impl FnOnce(f32) -> u32) -> u32 {
        // f32 subnormals have exponent field 0 and clamp to `emin` like any
        // other magnitude below the grid's normal range.
        let e = (a >> 23).max(self.emin_biased);
        // `a / quantum` as a multiply by the exact power of two
        // `2^(m − e_eff)`.
        let r = f32::from_bits(a) * f32::from_bits((self.man_bits + 254 - e) << 23);
        ((e - self.emin_biased) << self.man_bits) + round(r)
    }

    #[inline]
    fn code(&self, scaled: f32, round: impl FnOnce(f32) -> u32) -> u8 {
        let bits = scaled.to_bits();
        let neg = (bits >> 31) * self.half;
        let a = bits & ABS_MASK;
        if a > INF_BITS {
            return 0; // NaN
        }
        if a == 0 {
            return if self.signed_zero { neg as u8 } else { 0 };
        }
        (neg + self.index(a.min(self.max_bits), round)) as u8
    }

    /// The code of an already-scaled element under round-to-nearest-even —
    /// the scalar reference (and tail path) of the nearest kernels.
    #[inline]
    pub(crate) fn nearest_code(&self, scaled: f32) -> u8 {
        self.code(scaled, round_nearest)
    }

    /// The code of an already-scaled element under stochastic rounding
    /// driven by `u ∈ [0, 1)`: rounds up when the fractional progress to
    /// the next multiple exceeds `u`. The scalar reference (and tail path)
    /// of the stochastic kernels.
    #[inline]
    pub(crate) fn stochastic_code(&self, scaled: f32, u: f32) -> u8 {
        self.code(scaled, |r| {
            // `floor(r)` as a truncating conversion (`r ≥ 0`).
            let k = r as u32;
            k + u32::from((r - k as f32) > u)
        })
    }

    #[inline]
    pub(super) fn code_at(&self, scaled: f32, u: Option<f32>) -> u8 {
        match u {
            Some(u) => self.stochastic_code(scaled, u),
            None => self.nearest_code(scaled),
        }
    }
}

#[inline]
fn round_nearest(r: f32) -> u32 {
    (r + MAGIC).to_bits() - MAGIC_BITS
}

/// Folds one segment into a running group abs-max: the bit pattern of
/// `acc.max(|v|)` over the segment, NaN elements ignored.
pub(super) fn abs_max_bits_scalar(seg: &[f32], acc: u32) -> u32 {
    seg.iter().fold(acc, |m, v| {
        let a = v.to_bits() & ABS_MASK;
        if a > INF_BITS {
            m
        } else {
            m.max(a)
        }
    })
}

/// `out[i] = code(seg[i] * scale)`, one byte each — the scalar row of the
/// kernel table and the vector kernels' tail.
pub(super) fn encode_u8_scalar(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: Option<&[f32]>,
    out: &mut [u8],
) {
    assert_eq!(out.len(), seg.len());
    for (i, (o, &v)) in out.iter_mut().zip(seg).enumerate() {
        *o = grid.code_at(v * scale, uniforms.map(|u| u[i]));
    }
}

/// Whole bytes of 4-bit codes: `out[j]` takes elements `2j` (low nibble)
/// and `2j + 1` (high nibble) — the scalar row of the kernel table and the
/// vector kernels' tail.
pub(super) fn encode_u4_pairs_scalar(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: Option<&[f32]>,
    out: &mut [u8],
) {
    assert_eq!(seg.len(), 2 * out.len());
    let code = |i: usize| grid.code_at(seg[i] * scale, uniforms.map(|u| u[i]));
    for (j, o) in out.iter_mut().enumerate() {
        *o = code(2 * j) | (code(2 * j + 1) << 4);
    }
}

/// A handle on the kernel table active on this thread, resolved once so a
/// packer's per-segment calls skip the dispatch lookup.
#[derive(Clone, Copy, Debug)]
pub struct Encoder {
    kernels: &'static Kernels,
}

impl Encoder {
    /// The backend kernel dispatch on this thread uses right now (the
    /// forced backend inside `with_forced_backend`, else the process one).
    pub fn current() -> Encoder {
        Encoder {
            kernels: active_kernels(),
        }
    }

    /// `acc.max(|v|)` folded over `seg`, ignoring NaN elements exactly like
    /// `f32::max`. `acc` must be non-negative and not NaN (a fold starts
    /// at `0.0`).
    pub fn abs_max(&self, seg: &[f32], acc: f32) -> f32 {
        let acc = acc.to_bits();
        debug_assert!(acc <= INF_BITS, "abs_max accumulator must be ≥ 0");
        f32::from_bits((self.kernels.abs_max_bits)(seg, acc))
    }

    /// Encodes `seg[i] * scale` to one byte-wide code each:
    /// `out[i] = grid code`. With `uniforms` (one per element) the rounding
    /// is stochastic, otherwise nearest-even.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not byte-wide, or `out` or `uniforms` differ in
    /// length from `seg`.
    pub fn encode_u8(
        &self,
        grid: &CodeGrid,
        seg: &[f32],
        scale: f32,
        uniforms: Option<&[f32]>,
        out: &mut [u8],
    ) {
        assert_eq!(grid.half, 128, "encode_u8 needs a byte-wide grid");
        assert_eq!(out.len(), seg.len(), "one code byte per element");
        if let Some(u) = uniforms {
            assert_eq!(u.len(), seg.len(), "one uniform per element");
        }
        (self.kernels.encode_u8)(grid, seg, scale, uniforms, out);
    }

    /// Encodes `seg[i] * scale` to 4-bit codes inside the packed row `row`,
    /// the segment starting at column `cstart`: an unaligned head nibble
    /// when `cstart` is odd, then two elements per whole byte (element `2j`
    /// in the low nibble) on the active backend, the vector ones pairing
    /// nibbles in-register, then an optional tail nibble. `row` is the
    /// whole packed row, zero-initialized by the packer: the edge nibbles
    /// are OR-ed in, so adjacent segments sharing a byte compose. With
    /// `uniforms` (one per element) the rounding is stochastic, otherwise
    /// nearest-even.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not 4-bit, `uniforms` differs in length from
    /// `seg`, or the segment does not fit `row`.
    pub fn encode_u4(
        &self,
        grid: &CodeGrid,
        seg: &[f32],
        scale: f32,
        uniforms: Option<&[f32]>,
        cstart: usize,
        row: &mut [u8],
    ) {
        assert_eq!(grid.half, 8, "encode_u4 needs a 4-bit grid");
        if let Some(u) = uniforms {
            assert_eq!(u.len(), seg.len(), "one uniform per element");
        }
        let code = |i: usize| grid.code_at(seg[i] * scale, uniforms.map(|u| u[i]));
        let head = usize::from(cstart % 2 == 1 && !seg.is_empty());
        if head == 1 {
            row[cstart / 2] |= code(0) << 4;
        }
        let pairs = (seg.len() - head) / 2;
        let body = head..head + 2 * pairs;
        let byte0 = (cstart + head) / 2;
        (self.kernels.encode_u4_pairs)(
            grid,
            &seg[body.clone()],
            scale,
            uniforms.map(|u| &u[body.clone()]),
            &mut row[byte0..byte0 + pairs],
        );
        if body.end < seg.len() {
            row[byte0 + pairs] |= code(body.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2m1() -> CodeGrid {
        CodeGrid::new(CodeWidth::U4, 1, 0, 6.0, 7, false)
    }

    #[test]
    fn e2m1_codes_follow_the_value_table() {
        let g = e2m1();
        for (code, v) in [0.0f32, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
            .into_iter()
            .enumerate()
        {
            assert_eq!(g.nearest_code(v), code as u8, "{v}");
            if v != 0.0 {
                assert_eq!(g.nearest_code(-v), 8 + code as u8, "-{v}");
            }
            assert_eq!(g.stochastic_code(v, 0.0), code as u8, "{v} on grid");
        }
        // Ties go to the even multiple; specials follow the oracle.
        assert_eq!(g.nearest_code(2.5), 4);
        assert_eq!(g.nearest_code(3.5), 6);
        assert_eq!(g.nearest_code(0.25), 0);
        assert_eq!(g.nearest_code(-0.1), 8, "negative underflow keeps its sign");
        assert_eq!(g.nearest_code(-0.0), 0);
        assert_eq!(g.nearest_code(f32::NAN), 0);
        assert_eq!(g.nearest_code(f32::INFINITY), 7);
        assert_eq!(g.nearest_code(f32::NEG_INFINITY), 15);
        assert_eq!(g.stochastic_code(2.4, 0.9), 4);
        assert_eq!(g.stochastic_code(2.4, 0.1), 5);
    }

    #[test]
    fn integer_grids_are_the_all_subnormal_case() {
        let g = CodeGrid::new(CodeWidth::U8, 7, 7, 127.0, 127, true);
        for i in 0..=127u32 {
            assert_eq!(g.nearest_code(i as f32), i as u8);
            assert_eq!(g.nearest_code(-(i as f32)), 128 + i as u8);
        }
        assert_eq!(g.nearest_code(0.5), 0);
        assert_eq!(g.nearest_code(1.5), 2);
        assert_eq!(g.nearest_code(126.5), 126);
        assert_eq!(g.nearest_code(1e9), 127);
        assert_eq!(g.nearest_code(-0.0), 128, "integer grids keep -0");
    }

    #[test]
    #[should_panic(expected = "top value")]
    fn a_max_off_the_top_index_is_rejected() {
        CodeGrid::new(CodeWidth::U4, 1, 0, 6.0, 6, false);
    }

    /// Every tier against the scalar reference at the kernel level, where
    /// the uniforms are ours to choose: draws that *equal* an element's
    /// fractional progress (the strict `>` boundary), zero draws on grid
    /// values, and — one kernel body serves every tier, so each strip/tail
    /// boundary is pinned once — every segment length `0..=2·step+1` of the
    /// widest encode step, at both nibble alignments.
    #[test]
    fn every_backend_matches_the_scalar_reference() {
        use crate::simd::{available_backends, with_forced_backend, Backend};
        // Elements per vector step of the widest tier (AVX-512); an odd
        // `cstart` spends one element on the head nibble first.
        const STEP: usize = 16;
        let grids = [
            e2m1(),
            CodeGrid::new(CodeWidth::U4, 3, 3, 7.0, 7, true),
            CodeGrid::new(CodeWidth::U8, 3, -6, 448.0, 126, false),
            CodeGrid::new(CodeWidth::U8, 7, 7, 127.0, 127, true),
        ];
        let probes = [
            2.5f32,
            -2.5,
            1.25,
            3.0,
            -0.75,
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            -1e-9,
            5.9,
            100.0,
            -447.9,
            0.3,
        ];
        for grid in grids {
            for len in (0..=2 * STEP + 2).chain([63, 64, 65, 131]) {
                let seg: Vec<f32> = probes.iter().cycle().take(len).copied().collect();
                for scale in [1.0f32, 0.37] {
                    // Draws on the strict `frac > u` boundary for the
                    // probes' quantum-scaled fractions (.5, .25, 0) …
                    let frac = |v: f32| (v * scale).abs().min(1e3).fract();
                    let us: Vec<f32> = seg
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match i % 5 {
                            0 => frac(v),
                            1 => 0.0,
                            2 => 0.5,
                            3 => 0.25,
                            _ => (2.0 * frac(v)).fract(),
                        })
                        .collect();
                    for uniforms in [None, Some(&us[..])] {
                        for cstart in [0usize, 1] {
                            let run = |bk| {
                                with_forced_backend(bk, || {
                                    let enc = Encoder::current();
                                    let mut out = vec![0u8; cstart + len];
                                    if grid.half == 128 {
                                        enc.encode_u8(
                                            &grid,
                                            &seg,
                                            scale,
                                            uniforms,
                                            &mut out[cstart..],
                                        );
                                    } else {
                                        enc.encode_u4(
                                            &grid, &seg, scale, uniforms, cstart, &mut out,
                                        );
                                    }
                                    (out, enc.abs_max(&seg, 0.25).to_bits())
                                })
                            };
                            let want = run(Backend::Scalar);
                            for (i, &v) in seg.iter().enumerate() {
                                let code = grid.code_at(v * scale, uniforms.map(|u| u[i]));
                                let at = cstart + i;
                                let got = if grid.half == 128 {
                                    want.0[at]
                                } else {
                                    (want.0[at / 2] >> (4 * (at % 2))) & 0xF
                                };
                                assert_eq!(got, code, "{grid:?} element {i}");
                            }
                            for bk in available_backends() {
                                assert_eq!(run(bk), want, "{grid:?} len {len} @ {}", bk.name());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn abs_max_ignores_nan_and_sign() {
        let enc = Encoder::current();
        let seg = [1.0f32, -3.5, f32::NAN, -0.0, 2.0];
        assert_eq!(enc.abs_max(&seg, 0.0), 3.5);
        assert_eq!(enc.abs_max(&seg, 7.0), 7.0);
        assert_eq!(enc.abs_max(&[f32::NAN], 0.0), 0.0);
        assert_eq!(enc.abs_max(&[f32::NEG_INFINITY], 0.0), f32::INFINITY);
    }
}
