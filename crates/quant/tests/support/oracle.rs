//! Test support: the dense quantization oracle and the two-step reference
//! packer that every packed path is checked against.
//!
//! The library packs one way: `Quantizer` hands each scale group to
//! `Codebook::pack_rounded_with`, which runs the fused encode kernels of
//! `snip_tensor::encode` (the code is computed from the scaled element's
//! bit pattern, with no grid value in between). This file restates what
//! those kernels must compute, as the paper's fake quantization (§6.1)
//! spells it, through three extension traits:
//!
//! * [`ElementRule`] — the element rounding rules of every grid:
//!   `fmt.quantize_nearest(x)` and `fmt.quantize_stochastic(x, u)`;
//! * [`Oracle`] — `q.fake_quantize(&t, &mut rng)`, the dense
//!   quantize→dequantize oracle: group walk, the recipe's scale rule,
//!   element rule, decode multiply;
//! * [`ReferencePack`] — `cb.encode(v)` (binary search over the value
//!   table) and `cb.pack(..)` (group walk, element rule, then encode).
//!
//! It uses public API only, so it shares no code with what it checks: the
//! RHT chunk rule, the outlier carve and the MX scale rule are restated
//! here, and the equivalence suites prove the restatements bit for bit.
//!
//! Included by path (`#[path = …] mod oracle;`): by `snip-quant`'s unit
//! tests (`lib.rs`, through `extern crate self as snip_quant`) and
//! integration tests, the `snip-nn` linear and block tests, `snip-pipeline`'s
//! `support` module, `snip-core`'s estimator validation and the root
//! package's tests. A call site needs only `use oracle::{Oracle, …};`.

#![allow(dead_code)]

use snip_quant::format::{ElementFormat, FloatFormat};
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::outlier::select_outliers;
use snip_quant::rht::RhtRotation;
use snip_quant::{Codebook, Quantizer, Recipe, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::{bf16, QTensor, Tensor};
use std::ops::Range;

/// The rounding rules of one element grid, applied to an already-scaled
/// value. Both saturate at the grid maximum and map NaN to 0.
///
/// Stochastic rounding is sign-magnitude on every grid: `|x|` rounds down
/// to the grid, or up when its fractional progress to the next grid value
/// exceeds `u ∈ [0, 1)`, and the sign is reapplied. It is unbiased, and
/// `quantize_stochastic(−x, u) == −quantize_stochastic(x, u)`.
pub trait ElementRule {
    /// Round to nearest, ties to even.
    fn quantize_nearest(&self, x: f32) -> f32;
    /// Stochastic rounding driven by `u ∈ [0, 1)`.
    fn quantize_stochastic(&self, x: f32, u: f32) -> f32;
}

/// `floor(r)`, plus one when the fraction `r − floor(r)` exceeds `u`.
fn floor_or_up(r: f32, u: f32) -> f32 {
    let floor = r.floor();
    if r - floor > u {
        floor + 1.0
    } else {
        floor
    }
}

/// `2^e` as an `f32` (exact for every exponent the formats use).
fn exp2i(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else {
        (e as f32).exp2()
    }
}

/// A float grid's rule: `round` maps `|x|` in units of its binade's
/// quantum to a whole multiple; the sign rides along, and an exact zero
/// comes out as `+0`.
fn float_rule(fmt: &FloatFormat, x: f32, round: impl Fn(f32) -> f32) -> f32 {
    if x == 0.0 || x.is_nan() {
        return 0.0;
    }
    let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
    let a = x.abs();
    if a >= fmt.max_value() {
        return sign * fmt.max_value();
    }
    // The binade of `a` (f32 subnormals as exponent −127), clamped up to
    // the format's normal range: its values are multiples of the quantum.
    let field = ((a.to_bits() >> 23) & 0xFF) as i32;
    let e = if field == 0 { -127 } else { field - 127 };
    let quantum = exp2i(e.max(fmt.emin()) - fmt.man_bits() as i32);
    sign * (round(a / quantum) * quantum).min(fmt.max_value())
}

impl ElementRule for FloatFormat {
    fn quantize_nearest(&self, x: f32) -> f32 {
        float_rule(self, x, f32::round_ties_even)
    }

    fn quantize_stochastic(&self, x: f32, u: f32) -> f32 {
        float_rule(self, x, |r| floor_or_up(r, u))
    }
}

impl ElementRule for IntFormat {
    fn quantize_nearest(&self, v: f32) -> f32 {
        if v.is_nan() {
            return 0.0;
        }
        v.round_ties_even().clamp(-self.qmax(), self.qmax())
    }

    fn quantize_stochastic(&self, v: f32, u: f32) -> f32 {
        if v.is_nan() {
            return 0.0;
        }
        floor_or_up(v.abs(), u).min(self.qmax()).copysign(v)
    }
}

impl ElementRule for ElementFormat {
    fn quantize_nearest(&self, x: f32) -> f32 {
        match self {
            ElementFormat::Float(f) => f.quantize_nearest(x),
            ElementFormat::Int(f) => f.quantize_nearest(x),
        }
    }

    fn quantize_stochastic(&self, x: f32, u: f32) -> f32 {
        match self {
            ElementFormat::Float(f) => f.quantize_stochastic(x, u),
            ElementFormat::Int(f) => f.quantize_stochastic(x, u),
        }
    }
}

/// The dense oracle of a [`Quantizer`].
pub trait Oracle {
    /// Quantizes and dequantizes `t`: what `pack(t, rng).dequantize()`
    /// must equal bit for bit, from the same starting `rng`, having drawn
    /// the same uniforms — one `next_f32()` per element under stochastic
    /// rounding, in [`Granularity::for_each_group`] order; none under
    /// nearest rounding.
    fn fake_quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor;
}

impl Oracle for Quantizer {
    fn fake_quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        let mut q = t.clone();
        match self.recipe() {
            Recipe::Unscaled => q
                .as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = bf16::round(*v)),
            Recipe::MaxAbs | Recipe::Mx => fake_groups(self, &mut q, rng),
            Recipe::Rht { block, seed } => {
                rotate_rows(&mut q, block, seed, true);
                fake_groups(self, &mut q, rng);
                rotate_rows(&mut q, block, seed, false);
            }
            Recipe::Outlier { fraction } => {
                // The outliers leave the groups (their slots read 0, so
                // the scales see inliers only) and come back BF16-rounded.
                let outliers = select_outliers(t, fraction);
                for &i in &outliers {
                    q.as_mut_slice()[i] = 0.0;
                }
                fake_groups(self, &mut q, rng);
                for i in outliers {
                    q.as_mut_slice()[i] = bf16::round(t.as_slice()[i]);
                }
            }
        }
        q
    }
}

/// A group's `(encode, decode)` multipliers from its max-abs: max-abs
/// recipes scale by `grid_max / max|group|` and decode by the reciprocal;
/// MX encodes by the reciprocal of its power-of-two block scale, so the
/// decode side is the exact E8M0 value.
fn scales(q: &Quantizer, max_abs: f32) -> (f32, f32) {
    let grid_max = q.format().max_value();
    if q.recipe() == Recipe::Mx {
        let scale = mx_block_scale(grid_max, max_abs);
        (1.0 / scale, scale)
    } else {
        let scale = Granularity::group_scale(grid_max, max_abs);
        (scale, 1.0 / scale)
    }
}

/// The E8M0 scale: the smallest `2^e`, `e ∈ [−127, 127]`, with
/// `max_abs ≤ grid_max · 2^e` (`2^127` when none is), and 1 for a block
/// that is all zero or not finite.
fn mx_block_scale(grid_max: f32, max_abs: f32) -> f32 {
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return 1.0;
    }
    // Every E8M0 power is a normal f64, and the products are exact.
    let pow2 = |e: i32| f64::from_bits(((1023 + e) as u64) << 52);
    let e = (-127..=127)
        .find(|&e| f64::from(max_abs) <= f64::from(grid_max) * pow2(e))
        .unwrap_or(127);
    pow2(e) as f32
}

/// `max |v|` over one scale group, NaN elements ignored (as `f32::max`
/// does).
fn group_max_abs(t: &Tensor, rows: Range<usize>, cols: Range<usize>) -> f32 {
    rows.fold(0.0, |m, r| {
        t.row(r)[cols.clone()].iter().fold(m, |m, v| m.max(v.abs()))
    })
}

/// The fake-quantization group walk: per scale group, the max-abs, its
/// multipliers, then every element as `round(v · encode) · decode`.
fn fake_groups(q: &Quantizer, t: &mut Tensor, rng: &mut Rng) {
    let (rows, cols) = t.shape();
    let fmt = q.format();
    let stochastic = q.rounding() == Rounding::Stochastic;
    q.granularity().for_each_group(rows, cols, |rr, cr| {
        let (encode, decode) = scales(q, group_max_abs(t, rr.clone(), cr.clone()));
        for r in rr {
            for v in &mut t.row_mut(r)[cr.clone()] {
                let scaled = *v * encode;
                let rounded = if stochastic {
                    fmt.quantize_stochastic(scaled, rng.next_f32())
                } else {
                    fmt.quantize_nearest(scaled)
                };
                *v = rounded * decode;
            }
        }
    });
}

/// The randomized Hadamard rotation of every row, forward or back. A row
/// is cut into `block`-long chunks, and a shorter tail into the largest
/// power of two that fits, repeatedly; a chunk of length `len` rotates
/// under `RhtRotation::new(len, seed ^ len)`, and a lone final element
/// stays as it is.
fn rotate_rows(t: &mut Tensor, block: usize, seed: u64, forward: bool) {
    let cols = t.cols();
    let mut chunks = Vec::new();
    let mut c = 0;
    while c < cols {
        let len = if cols - c >= block {
            block
        } else {
            1 << (cols - c).ilog2()
        };
        if len > 1 {
            chunks.push((c, RhtRotation::new(len, seed ^ len as u64)));
        }
        c += len;
    }
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        for (c, rot) in &chunks {
            let chunk = &mut row[*c..c + rot.len()];
            if forward {
                rot.forward(chunk);
            } else {
                rot.inverse(chunk);
            }
        }
    }
}

/// The two-step reference packer of a [`Codebook`]: round each scaled
/// element onto the grid, then look its code up.
pub trait ReferencePack {
    /// The code of a value on the format grid: a binary search over the
    /// ascending non-negative values, plus the sign half for a negative
    /// value (so `−0` is the sign half's first code).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a grid value.
    fn encode(&self, q: f32) -> u8;

    /// Packs `t` with max-abs group scales (`grid_max / max|group|`),
    /// element by element in [`Granularity::for_each_group`] order: the
    /// code of `quantize(v · scale, rng)`.
    fn pack(
        &self,
        t: &Tensor,
        granularity: Granularity,
        grid_max: f32,
        rng: &mut Rng,
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor;
}

impl ReferencePack for Codebook {
    fn encode(&self, q: f32) -> u8 {
        let lut = self.lut();
        let half = lut.len() / 2;
        let nonneg = &lut[..self.values()];
        let a = q.abs();
        let idx = nonneg
            .binary_search_by(|v| v.total_cmp(&a))
            .unwrap_or_else(|_| panic!("{q} is not on the format grid"));
        let sign = if q.is_sign_negative() { half } else { 0 };
        (sign + idx) as u8
    }

    fn pack(
        &self,
        t: &Tensor,
        granularity: Granularity,
        grid_max: f32,
        rng: &mut Rng,
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor {
        let (rows, cols) = t.shape();
        let mut scales = Vec::new();
        let mut codes = Vec::new();
        granularity.for_each_group(rows, cols, |rr, cr| {
            let scale =
                Granularity::group_scale(grid_max, group_max_abs(t, rr.clone(), cr.clone()));
            scales.push(1.0 / scale);
            for r in rr {
                for c in cr.clone() {
                    codes.push((r, c, self.encode(quantize(t.row(r)[c] * scale, rng))));
                }
            }
        });
        let mut packed =
            QTensor::new_zeroed(rows, cols, self.width(), self.lut(), granularity, scales);
        for (r, c, code) in codes {
            packed.set_code(r, c, code);
        }
        packed
    }
}
