//! The one quantizer.
//!
//! The paper emulates subbyte GEMMs with *fake quantization* (§6.1): operands
//! are scaled, quantized to the low-precision format, dequantized back to
//! working precision, and the GEMM itself runs in the simulator's native
//! arithmetic. [`Quantizer`] bundles the four decisions that define such an
//! operand — element format, scale-group layout, rounding mode and
//! [`Recipe`] — into the reusable object the linear layers, the optimizer
//! moments and the collective wires consume. The §5.2 "quantization options"
//! (integer grids, MX block scales, RHT pre-rotation, outlier splitting) are
//! values of those four fields, not types of their own.

use crate::codebook::Codebook;
use crate::format::{ElementFormat, FloatFormat, FormatKind};
use crate::granularity::Granularity;
use crate::int::IntFormat;
use crate::mx::{self, MX_BLOCK};
use crate::packed::{streamed_error_norm, PackedQuantize, PackedTensor};
use crate::signals::{self, QuantTimer};
use crate::{outlier, rht};
use serde::{Deserialize, Serialize};
use snip_tensor::rng::Rng;
use snip_tensor::{QTensor, Tensor};

/// Rounding mode used when mapping to the low-precision grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to nearest, ties to even (the default).
    #[default]
    Nearest,
    /// Stochastic rounding — unbiased in expectation; the paper applies it to
    /// FP4 output gradients to avoid training stagnation (§6.1).
    Stochastic,
}

/// How a quantizer scales its groups and what its packed form carries — one
/// decision, so the alternatives exclude each other by construction. Each
/// scaled recipe maps onto exactly one [`PackedTensor`] shape.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Recipe {
    /// No scaling: values round straight onto the element grid (BF16
    /// emulation, whose dynamic range needs no alignment). Never packable.
    Unscaled,
    /// `scale = grid_max / max|group|` per layout group — the paper's
    /// recipe. Packs to [`PackedTensor::Codes`].
    MaxAbs,
    /// MX: a power-of-two E8M0 scale ([`mx::block_scale`]) per `1×32` tile.
    /// Packs to [`PackedTensor::Mx`] (one byte per scale on the wire).
    Mx,
    /// Max-abs scaling in the randomized-Hadamard-rotated domain
    /// ([`crate::rht`]): rotate, quantize, rotate back. Packs to
    /// [`PackedTensor::Rotated`].
    Rht {
        /// Rotation chunk length (a power of two).
        block: usize,
        /// Rotation seed (both GEMM operands must share it to cancel).
        seed: u64,
    },
    /// Max-abs scaling over the inliers only: the largest `fraction` of
    /// elements (by magnitude, tensor-global — [`crate::outlier`]) bypass
    /// the grid at BF16. Packs to [`PackedTensor::Split`].
    Outlier {
        /// Share of elements kept at BF16, in `[0, 1]`.
        fraction: f64,
    },
}

/// A complete quantize→dequantize configuration: element format × scale
/// layout × rounding × [`Recipe`].
///
/// # Example
///
/// ```
/// use snip_quant::{Quantizer, Rounding, format::FloatFormat, granularity::Granularity};
/// use snip_tensor::{Tensor, rng::Rng};
///
/// let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Tensorwise, Rounding::Nearest);
/// let t = Tensor::from_vec(1, 4, vec![0.1, -0.4, 0.9, 1.2]);
/// let mut rng = Rng::seed_from(0);
/// let fq = q.fake_quantize(&t, &mut rng);
/// // The largest magnitude maps exactly onto the format grid.
/// assert!((fq[(0, 3)] - 1.2).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    format: ElementFormat,
    layout: Granularity,
    rounding: Rounding,
    recipe: Recipe,
}

impl Quantizer {
    /// Creates a max-abs-scaled quantizer (the normal case for FP8/FP4 and
    /// the integer grids).
    pub fn new(format: impl Into<ElementFormat>, layout: Granularity, rounding: Rounding) -> Self {
        Quantizer {
            format: format.into(),
            layout,
            rounding,
            recipe: Recipe::MaxAbs,
        }
    }

    /// Creates an unscaled quantizer — values are rounded onto the format
    /// grid directly. Appropriate for BF16, whose exponent range matches f32.
    pub fn unscaled(format: FloatFormat, rounding: Rounding) -> Self {
        Quantizer {
            recipe: Recipe::Unscaled,
            ..Quantizer::new(format, Granularity::Tensorwise, rounding)
        }
    }

    /// INT8 (the Jetfire training format) with the DeepSeek-style `1×nb`
    /// tile scaling used for activations and gradients.
    pub fn int8_tile(nb: usize) -> Self {
        Quantizer::new(
            IntFormat::int8(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    fn mx(format: FloatFormat) -> Self {
        Quantizer {
            recipe: Recipe::Mx,
            ..Quantizer::new(
                format,
                Granularity::Tile { nb: MX_BLOCK },
                Rounding::Nearest,
            )
        }
    }

    /// MXFP4: E2M1 elements under E8M0 block scales.
    pub fn mxfp4() -> Self {
        Quantizer::mx(FloatFormat::e2m1())
    }

    /// MXFP8 (E4M3 elements).
    pub fn mxfp8() -> Self {
        Quantizer::mx(FloatFormat::e4m3())
    }

    /// The same quantizer with a different rounding mode (the FP4 and MX
    /// training recipes use stochastic rounding on gradients).
    pub fn with_rounding(self, rounding: Rounding) -> Self {
        Quantizer { rounding, ..self }
    }

    /// This max-abs quantizer behind a randomized Hadamard rotation over
    /// `block`-length row chunks ([`Recipe::Rht`]).
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two and `self` is a plain
    /// max-abs quantizer.
    pub fn with_rht(self, block: usize, seed: u64) -> Self {
        assert!(
            block.is_power_of_two(),
            "RHT block {block} is not a power of two"
        );
        self.max_abs_with(Recipe::Rht { block, seed })
    }

    /// This max-abs quantizer with the largest `fraction` of elements (by
    /// magnitude, tensor-global) bypassing it at BF16 ([`Recipe::Outlier`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1` and `self` is a plain max-abs
    /// quantizer.
    pub fn with_outliers(self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "outlier fraction {fraction} outside [0, 1]"
        );
        self.max_abs_with(Recipe::Outlier { fraction })
    }

    fn max_abs_with(self, recipe: Recipe) -> Self {
        assert_eq!(
            self.recipe,
            Recipe::MaxAbs,
            "only a plain max-abs quantizer takes another recipe"
        );
        Quantizer { recipe, ..self }
    }

    /// The element format.
    pub fn format(&self) -> ElementFormat {
        self.format
    }

    /// The scaling granularity.
    pub fn granularity(&self) -> Granularity {
        self.layout
    }

    /// The rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// The scaling recipe.
    pub fn recipe(&self) -> Recipe {
        self.recipe
    }

    /// Quantizes and dequantizes `t`, returning the result as a new tensor.
    ///
    /// `rng` drives stochastic rounding and is untouched for
    /// [`Rounding::Nearest`].
    ///
    /// This is the dense oracle every packed path must reproduce bit for
    /// bit.
    ///
    /// Telemetry (`quant.ns`) times the copy of `t` together with the
    /// rounding it feeds; an RHT rotation and an outlier carve, and the
    /// copy they work on, stay outside the timer.
    pub fn fake_quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        match self.recipe {
            Recipe::Unscaled => {
                let _t = QuantTimer::start();
                if self.is_bf16_nearest() {
                    // One pass, banded on the pool: the copy is the rounding.
                    return t.map(snip_tensor::bf16::round);
                }
                let mut q = t.clone();
                self.round_unscaled(q.as_mut_slice(), rng);
                q
            }
            Recipe::MaxAbs | Recipe::Mx => {
                let _t = QuantTimer::start();
                let mut q = t.clone();
                self.fake_groups(&mut q, rng);
                q
            }
            Recipe::Rht { block, seed } => {
                let mut q = t.clone();
                rht::rotate_rows(&mut q, block, seed, true);
                {
                    let _t = QuantTimer::start();
                    self.fake_groups(&mut q, rng);
                }
                rht::rotate_rows(&mut q, block, seed, false);
                q
            }
            Recipe::Outlier { fraction } => {
                let mut q = t.clone();
                let outliers = outlier::carve(&mut q, fraction);
                {
                    let _t = QuantTimer::start();
                    self.fake_groups(&mut q, rng);
                }
                let data = q.as_mut_slice();
                for o in outliers {
                    data[o.index as usize] = o.value;
                }
                q
            }
        }
    }

    /// Maps a group's max-abs to its `(encode, decode)` multipliers — the
    /// rule [`Codebook::pack_rounded_with`] takes, shared with the oracle
    /// loop so the two cannot drift: max-abs recipes scale by
    /// `grid_max / max|group|` and decode by its reciprocal; MX encodes by
    /// the reciprocal of its power-of-two block scale so the *decode* side
    /// is the exact E8M0 value.
    fn scale_of(&self) -> impl Fn(f32) -> (f32, f32) + Sync {
        let grid_max = self.format.max_value();
        let mx = self.recipe == Recipe::Mx;
        move |max_abs| {
            if mx {
                let scale = mx::block_scale(grid_max, max_abs);
                (1.0 / scale, scale)
            } else {
                let scale = Granularity::group_scale(grid_max, max_abs);
                (scale, 1.0 / scale)
            }
        }
    }

    /// The one fake-quantization group loop: per scale group of the
    /// layout, scan the max-abs, derive `(encode, decode)` from the
    /// recipe's scale rule, and rewrite every element as
    /// `round(v · encode) · decode` — groups and elements in
    /// [`Granularity::for_each_group`] order, which is the stochastic-draw
    /// order the packers reproduce.
    fn fake_groups(&self, t: &mut Tensor, rng: &mut Rng) {
        let (rows, cols) = t.shape();
        let fmt = self.format;
        let scale_of = self.scale_of();
        let stochastic = self.rounding == Rounding::Stochastic;
        self.layout.for_each_group(rows, cols, |rr, cr| {
            let mut max_abs = 0.0f32;
            for r in rr.clone() {
                let row = t.row(r);
                for c in cr.clone() {
                    max_abs = max_abs.max(row[c].abs());
                }
            }
            let (encode, decode) = scale_of(max_abs);
            for r in rr {
                let row = t.row_mut(r);
                for c in cr.clone() {
                    let scaled = row[c] * encode;
                    let q = if stochastic {
                        fmt.quantize_stochastic(scaled, rng.next_f32())
                    } else {
                        fmt.quantize_nearest(scaled)
                    };
                    row[c] = q * decode;
                }
            }
        });
    }

    /// Whether this rounds onto the BF16 grid to nearest: one bit-twiddle
    /// per element ([`snip_tensor::bf16::round`]), no draws.
    fn is_bf16_nearest(&self) -> bool {
        let bf16 = matches!(self.format, ElementFormat::Float(f) if f.kind() == FormatKind::Bf16);
        bf16 && self.rounding == Rounding::Nearest
    }

    /// Rounds values onto the format grid directly — the unscaled
    /// quantizer's whole job, element by element.
    fn round_unscaled(&self, values: &mut [f32], rng: &mut Rng) {
        // Fast path for BF16 emulation.
        if self.is_bf16_nearest() {
            snip_tensor::bf16::round_slice(values);
            return;
        }
        let fmt = self.format;
        let stochastic = self.rounding == Rounding::Stochastic;
        for v in values {
            *v = if stochastic {
                fmt.quantize_stochastic(*v, rng.next_f32())
            } else {
                fmt.quantize_nearest(*v)
            };
        }
    }

    /// Whether this quantizer's output can be stored bit-packed: scaled
    /// formats of 8 bits or fewer can; unscaled BF16 emulation and wider
    /// grids cannot (they have no code table).
    pub fn packable(&self) -> bool {
        self.recipe != Recipe::Unscaled && self.format.codebook().is_some()
    }

    /// Quantizes `t` into plain bit-packed codes, or `None` when there are
    /// none to give: the format is not packable, or the recipe's packed
    /// form carries more than codes and scales ([`Recipe::Rht`],
    /// [`Recipe::Outlier`] — use [`PackedQuantize::pack`]). The caller
    /// falls back to [`Quantizer::fake_quantize`].
    ///
    /// The packed result is **exactly equivalent** to fake quantization:
    /// `quantize_packed(t, rng).dequantize()` is bit-for-bit equal to
    /// `fake_quantize(t, rng)` for the same starting `rng` state, and both
    /// consume the same number of stochastic-rounding draws. Scales are
    /// stored as the decode multiplier — the same value the fake path
    /// multiplies by.
    pub fn quantize_packed(&self, t: &Tensor, rng: &mut Rng) -> Option<QTensor> {
        match self.recipe {
            Recipe::MaxAbs | Recipe::Mx => {
                Some(self.pack_codes(self.format.codebook()?, t, rng, None))
            }
            _ => None,
        }
    }

    /// Fused scan + scale + encode on the vector pack kernels — same
    /// element order and, under stochastic rounding, the same
    /// one-draw-per-element RNG stream as the oracle's group loop. `seen`
    /// is the tensor as the packer sees it (post-rotation, inliers only),
    /// which is what the pack signals recorded under `signal` describe.
    fn pack_codes(
        &self,
        cb: &Codebook,
        seen: &Tensor,
        rng: &mut Rng,
        signal: Option<&'static str>,
    ) -> QTensor {
        let timer = QuantTimer::start();
        let codes = cb.pack_rounded_with(seen, self.layout, self.rounding, rng, self.scale_of());
        drop(timer);
        if let Some(kind) = signal {
            signals::record_pack(kind, seen, &codes);
        }
        codes
    }

    /// [`PackedQuantize::pack`]; `record` reports each codebook pack to the
    /// pack-signal telemetry (the packs inside `error_norm` stay silent).
    fn pack_recipe(&self, t: &Tensor, rng: &mut Rng, record: bool) -> Option<PackedTensor> {
        let cb = self.format.codebook()?;
        let signal = |kind| record.then_some(kind);
        Some(match self.recipe {
            Recipe::Unscaled => return None,
            Recipe::MaxAbs => {
                let kind = match self.format {
                    ElementFormat::Float(_) => "float",
                    ElementFormat::Int(_) => "int",
                };
                PackedTensor::Codes(self.pack_codes(cb, t, rng, signal(kind)))
            }
            Recipe::Mx => PackedTensor::Mx(self.pack_codes(cb, t, rng, signal("mx"))),
            Recipe::Rht { block, seed } => {
                let mut rotated = t.clone();
                rht::rotate_rows(&mut rotated, block, seed, true);
                let codes = self.pack_codes(cb, &rotated, rng, signal("rht"));
                PackedTensor::Rotated { codes, block, seed }
            }
            Recipe::Outlier { fraction } => {
                let mut inliers = t.clone();
                let outliers = outlier::carve(&mut inliers, fraction);
                let body = self.pack_codes(cb, &inliers, rng, signal("outlier"));
                PackedTensor::Split { body, outliers }
            }
        })
    }

    /// Frobenius norm of the quantization error `‖q(t) − t‖_F`, using
    /// deterministic nearest rounding (this is the `δ` statistic collected in
    /// Step 1 of the SNIP workflow, paper Fig. 6).
    ///
    /// Packable quantizers pack on the vector engine and decode a row at a
    /// time — bit-for-bit the rows [`Quantizer::fake_quantize`] would
    /// produce, so the norm is too — and an unscaled quantizer (BF16
    /// emulation) rounds a row at a time; neither materialises `q(t)`.
    pub fn error_norm(&self, t: &Tensor) -> f64 {
        let det = self.with_rounding(Rounding::Nearest);
        let mut rng = Rng::seed_from(0); // unused under Nearest
        if det.recipe == Recipe::Unscaled {
            return streamed_error_norm(t, |r, row| {
                row.copy_from_slice(t.row(r));
                det.round_unscaled(row, &mut rng);
            });
        }
        match det.pack_recipe(t, &mut rng, false) {
            Some(packed) => packed.distance(t),
            None => det.fake_quantize(t, &mut rng).distance(t),
        }
    }

    /// Relative quantization error `‖q(t) − t‖_F / ‖t‖_F` (0 for a zero
    /// tensor).
    pub fn relative_error(&self, t: &Tensor) -> f64 {
        let norm = t.frobenius_norm();
        if norm == 0.0 {
            0.0
        } else {
            self.error_norm(t) / norm
        }
    }
}

impl PackedQuantize for Quantizer {
    fn pack(&self, t: &Tensor, rng: &mut Rng) -> Option<PackedTensor> {
        self.pack_recipe(t, rng, true)
    }

    fn fake_reference(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        self.fake_quantize(t, rng)
    }

    fn packed_wire_bytes(&self, rows: usize, cols: usize) -> Option<u64> {
        let codes = (rows * self.format.codebook()?.width().row_bytes(cols)) as u64;
        let groups = self.layout.group_count(rows, cols) as u64;
        Some(match self.recipe {
            Recipe::Unscaled => return None,
            // One E8M0 byte per block scale instead of an f32.
            Recipe::Mx => codes + groups,
            // The body plus u32 index + BF16 value per outlier.
            Recipe::Outlier { fraction } => {
                codes + 4 * groups + 6 * outlier::outlier_count(fraction, rows * cols) as u64
            }
            // Rotation reshuffles values, not storage.
            Recipe::MaxAbs | Recipe::Rht { .. } => codes + 4 * groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(42)
    }

    #[test]
    fn zero_tensor_is_exact() {
        let q = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 4 },
            Rounding::Nearest,
        );
        let t = Tensor::zeros(3, 8);
        assert_eq!(q.fake_quantize(&t, &mut rng()), t);
        assert_eq!(q.error_norm(&t), 0.0);
    }

    #[test]
    fn group_max_is_preserved_exactly() {
        // Scaling maps each group's max-abs onto FPX_MAX, which is exactly
        // representable, so the max element must round-trip.
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Rowwise, Rounding::Nearest);
        let t = Tensor::from_vec(2, 3, vec![0.3, -1.7, 0.2, 55.0, 1.0, -3.0]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert!((fq[(0, 1)] - -1.7).abs() < 1e-6);
        assert!((fq[(1, 0)] - 55.0).abs() < 1e-3);
    }

    #[test]
    fn finer_granularity_reduces_error() {
        let mut r = rng();
        // Rows with very different magnitudes: per-row scaling must beat
        // tensorwise scaling.
        let mut t = Tensor::randn(16, 64, 1.0, &mut r);
        for c in 0..64 {
            t[(0, c)] *= 1000.0;
        }
        let fmt = FloatFormat::e2m1();
        let tensorwise = Quantizer::new(fmt, Granularity::Tensorwise, Rounding::Nearest);
        let rowwise = Quantizer::new(fmt, Granularity::Rowwise, Rounding::Nearest);
        let tile = Quantizer::new(fmt, Granularity::Tile { nb: 16 }, Rounding::Nearest);
        let e_tensor = tensorwise.error_norm(&t);
        let e_row = rowwise.error_norm(&t);
        let e_tile = tile.error_norm(&t);
        assert!(e_row < e_tensor, "rowwise {e_row} !< tensorwise {e_tensor}");
        assert!(e_tile <= e_row * 1.05, "tile {e_tile} vs row {e_row}");
    }

    #[test]
    fn higher_precision_formats_have_lower_error() {
        let mut r = rng();
        let t = Tensor::randn(32, 32, 1.0, &mut r);
        let g = Granularity::Tile { nb: 16 };
        let e_fp4 = Quantizer::new(FloatFormat::e2m1(), g, Rounding::Nearest).error_norm(&t);
        let e_fp8 = Quantizer::new(FloatFormat::e4m3(), g, Rounding::Nearest).error_norm(&t);
        assert!(
            e_fp8 < e_fp4 / 4.0,
            "e4m3 error {e_fp8} should be far below e2m1 error {e_fp4}"
        );
    }

    #[test]
    fn fake_quantize_is_idempotent_under_nearest() {
        let mut r = rng();
        let t = Tensor::randn(8, 8, 2.0, &mut r);
        let q = Quantizer::new(
            FloatFormat::e4m3(),
            Granularity::Block { nb: 4 },
            Rounding::Nearest,
        );
        let once = q.fake_quantize(&t, &mut r);
        let twice = q.fake_quantize(&once, &mut r);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn stochastic_matches_nearest_in_expectation() {
        let fmt = FloatFormat::e2m1();
        let q = Quantizer::new(fmt, Granularity::Tensorwise, Rounding::Stochastic);
        let t = Tensor::from_vec(1, 2, vec![2.5, 6.0]); // max 6 → scale 1
        let mut r = rng();
        let n = 20_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += q.fake_quantize(&t, &mut r)[(0, 0)] as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn unscaled_bf16_quantizer() {
        let q = Quantizer::unscaled(FloatFormat::bf16(), Rounding::Nearest);
        let t = Tensor::from_vec(1, 2, vec![1.0 + 2f32.powi(-9), -3.125]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert_eq!(fq[(0, 0)], 1.0);
        assert_eq!(fq[(0, 1)], -3.125); // exactly representable
    }

    #[test]
    fn error_norm_is_deterministic_even_for_stochastic_quantizer() {
        let q = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Rowwise,
            Rounding::Stochastic,
        );
        let mut r = rng();
        let t = Tensor::randn(4, 16, 1.0, &mut r);
        assert_eq!(q.error_norm(&t), q.error_norm(&t));
    }

    fn assert_bit_identical(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn packed_path_is_bit_identical_to_fake_quantization() {
        let mut data_rng = rng();
        let t = Tensor::randn(12, 20, 1.5, &mut data_rng);
        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
        ] {
            for g in [
                Granularity::Tensorwise,
                Granularity::Rowwise,
                Granularity::Columnwise,
                Granularity::Block { nb: 5 },
                Granularity::Tile { nb: 5 },
            ] {
                for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                    let q = Quantizer::new(fmt, g, rounding);
                    let mut rng_fake = Rng::seed_from(99);
                    let mut rng_packed = Rng::seed_from(99);
                    let fake = q.fake_quantize(&t, &mut rng_fake);
                    let packed = q.quantize_packed(&t, &mut rng_packed).expect("packable");
                    assert_bit_identical(
                        &fake,
                        &packed.dequantize(),
                        &format!("{fmt} {g} {rounding:?}"),
                    );
                    // Both paths must consume the same stochastic draws.
                    assert_eq!(rng_fake.next_u64(), rng_packed.next_u64(), "{fmt} {g}");
                }
            }
        }
    }

    #[test]
    fn bf16_is_not_packable() {
        let q = Quantizer::unscaled(FloatFormat::bf16(), Rounding::Nearest);
        assert!(!q.packable());
        let t = Tensor::zeros(2, 2);
        assert!(q.quantize_packed(&t, &mut rng()).is_none());
    }

    #[test]
    fn packed_storage_is_subbyte_for_fp4() {
        let mut r = rng();
        let t = Tensor::randn(64, 256, 1.0, &mut r);
        let q = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 128 },
            Rounding::Nearest,
        );
        let packed = q.quantize_packed(&t, &mut r).unwrap();
        assert_eq!(packed.packed_data_bytes(), 64 * 128); // 0.5 B/element
        assert_eq!(packed.scale_bytes(), 64 * 2 * 4); // one f32 per 1×128 tile
    }

    #[test]
    fn packed_handles_non_finite_groups() {
        let q = Quantizer::new(FloatFormat::e4m3(), Granularity::Rowwise, Rounding::Nearest);
        let t = Tensor::from_vec(1, 3, vec![f32::INFINITY, 1.0, -2.0]);
        let mut r1 = rng();
        let mut r2 = rng();
        let fake = q.fake_quantize(&t, &mut r1);
        let packed = q.quantize_packed(&t, &mut r2).unwrap();
        assert_bit_identical(&fake, &packed.dequantize(), "inf group");
    }

    #[test]
    fn infinite_inputs_saturate_without_poisoning_group() {
        let q = Quantizer::new(FloatFormat::e4m3(), Granularity::Rowwise, Rounding::Nearest);
        let t = Tensor::from_vec(1, 3, vec![f32::INFINITY, 1.0, -2.0]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert!(fq.all_finite());
    }
}
