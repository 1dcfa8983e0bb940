//! Fake-quantization kernels.
//!
//! The paper emulates subbyte GEMMs with *fake quantization* (§6.1): operands
//! are scaled, quantized to the low-precision format, dequantized back to
//! working precision, and the GEMM itself runs in the simulator's native
//! arithmetic. [`Quantizer`] bundles a format, a scaling granularity and a
//! rounding mode into the reusable object the linear layers consume.

use crate::codebook::Codebook;
use crate::format::FloatFormat;
use crate::granularity::Granularity;
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

/// A complete quantize→dequantize configuration.
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
    format: FloatFormat,
    granularity: Granularity,
    rounding: Rounding,
    /// When `false`, skip max-abs scaling (used for BF16 emulation, whose
    /// dynamic range needs no alignment).
    scaled: bool,
}

impl Quantizer {
    /// Creates a scaled quantizer (the normal case for FP8/FP4).
    pub fn new(format: FloatFormat, granularity: Granularity, rounding: Rounding) -> Self {
        Quantizer {
            format,
            granularity,
            rounding,
            scaled: true,
        }
    }

    /// Creates an unscaled quantizer — values are rounded onto the format
    /// grid directly. Appropriate for BF16, whose exponent range matches f32.
    pub fn unscaled(format: FloatFormat, rounding: Rounding) -> Self {
        Quantizer {
            format,
            granularity: Granularity::Tensorwise,
            rounding,
            scaled: false,
        }
    }

    /// The target number format.
    pub fn format(&self) -> FloatFormat {
        self.format
    }

    /// The scaling granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// The same quantizer with a different rounding mode. Used by wrappers
    /// (e.g. [`crate::rht::RhtQuantizer`]) that need a deterministic variant
    /// for error measurement.
    pub fn with_rounding(self, rounding: Rounding) -> Self {
        Quantizer { rounding, ..self }
    }

    /// Quantizes and dequantizes `t`, returning the result as a new tensor.
    ///
    /// `rng` drives stochastic rounding and is untouched for
    /// [`Rounding::Nearest`].
    pub fn fake_quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        let mut out = t.clone();
        self.fake_quantize_inplace(&mut out, rng);
        out
    }

    /// In-place variant of [`Quantizer::fake_quantize`].
    pub fn fake_quantize_inplace(&self, t: &mut Tensor, rng: &mut Rng) {
        let _t = crate::signals::QuantTimer::start();
        if !self.scaled {
            self.round_unscaled(t.as_mut_slice(), rng);
            return;
        }
        let (rows, cols) = t.shape();
        let fmt = self.format;
        let max_value = fmt.max_value();
        let stochastic = self.rounding == Rounding::Stochastic;
        // Pre-compute group maxima, then rewrite each group with its scale.
        self.granularity.for_each_group(rows, cols, |rr, cr| {
            let mut max_abs = 0.0f32;
            for r in rr.clone() {
                let row = t.row(r);
                for c in cr.clone() {
                    max_abs = max_abs.max(row[c].abs());
                }
            }
            // scale = FPX_MAX / max(abs(x)); an all-zero group needs no scaling.
            let scale = Granularity::group_scale(max_value, max_abs);
            let inv_scale = 1.0 / scale;
            for r in rr {
                let row = t.row_mut(r);
                for c in cr.clone() {
                    let scaled = row[c] * scale;
                    let q = if stochastic {
                        fmt.quantize_stochastic(scaled, rng.next_f32())
                    } else {
                        fmt.quantize_nearest(scaled)
                    };
                    row[c] = q * inv_scale;
                }
            }
        });
    }

    /// Rounds values onto the format grid directly — the unscaled
    /// quantizer's whole job, element by element.
    fn round_unscaled(&self, values: &mut [f32], rng: &mut Rng) {
        let fmt = self.format;
        let stochastic = self.rounding == Rounding::Stochastic;
        // Fast path for BF16 emulation: one bit-twiddle per element.
        if fmt.kind() == crate::format::FormatKind::Bf16 && !stochastic {
            crate::format::bf16_round_slice(values);
            return;
        }
        for v in values {
            *v = if stochastic {
                fmt.quantize_stochastic(*v, rng.next_f32())
            } else {
                fmt.quantize_nearest(*v)
            };
        }
    }

    /// Whether this quantizer's output can be stored bit-packed: scaled
    /// subbyte/byte formats can; unscaled BF16 emulation cannot (16-bit
    /// values have no code table).
    pub fn packable(&self) -> bool {
        self.scaled && self.format.bits() <= 8
    }

    /// Quantizes `t` into bit-packed storage, or `None` when the format is
    /// not packable (the caller falls back to [`Quantizer::fake_quantize`]).
    ///
    /// The packed result is **exactly equivalent** to fake quantization:
    /// `quantize_packed(t, rng).dequantize()` is bit-for-bit equal to
    /// `fake_quantize(t, rng)` for the same starting `rng` state, and both
    /// consume the same number of stochastic-rounding draws. Scales are
    /// stored as the decode multiplier `1 / (FPX_MAX / max|group|)` — the
    /// same `inv_scale` the fake path multiplies by.
    pub fn quantize_packed(&self, t: &Tensor, rng: &mut Rng) -> Option<QTensor> {
        if !self.packable() {
            return None;
        }
        let _t = crate::signals::QuantTimer::start();
        let cb = Codebook::for_float(self.format)?;
        // Fused scan + scale + encode on the vector pack kernels — same
        // element order and, under stochastic rounding, the same
        // one-draw-per-element RNG stream as `fake_quantize`.
        Some(cb.pack_rounded(t, self.granularity, self.rounding, rng))
    }

    /// Decodes a packed tensor produced by [`Quantizer::quantize_packed`].
    pub fn dequantize(&self, qt: &QTensor) -> Tensor {
        qt.dequantize()
    }

    /// Frobenius norm of the quantization error `‖q(t) − t‖_F`, using
    /// deterministic nearest rounding (this is the `δ` statistic collected in
    /// Step 1 of the SNIP workflow, paper Fig. 6).
    ///
    /// Packable formats are quantized on the vector pack engine and decoded
    /// a row at a time — bit-for-bit the rows [`Quantizer::fake_quantize`]
    /// would produce, so the norm is too — and an unscaled quantizer (BF16
    /// emulation) rounds a row at a time; neither materialises `q(t)`.
    pub fn error_norm(&self, t: &Tensor) -> f64 {
        let det = self.with_rounding(Rounding::Nearest);
        let mut rng = Rng::seed_from(0); // unused under Nearest
        if !self.scaled {
            return streamed_error_norm(t, |r, row| {
                row.copy_from_slice(t.row(r));
                det.round_unscaled(row, &mut rng);
            });
        }
        nearest_error_norm(t, det.quantize_packed(t, &mut rng), || {
            det.fake_quantize(t, &mut rng)
        })
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

/// `‖q(t) − t‖_F` with `q(t)` produced one row at a time: `quantized_row(r,
/// row)` fills `row` with row `r` of `q(t)`. Differences are squared and
/// summed in `f64` in row-major order — [`Tensor::distance`]'s order, so
/// the result equals `q(t).distance(t)` bit for bit.
fn streamed_error_norm(t: &Tensor, mut quantized_row: impl FnMut(usize, &mut [f32])) -> f64 {
    let mut row = vec![0.0f32; t.cols()];
    // `-0.0` is the identity `Iterator::sum` folds from; starting there
    // keeps the equality on an empty tensor too.
    let mut sq = -0.0f64;
    for r in 0..t.rows() {
        quantized_row(r, &mut row);
        for (&q, &x) in row.iter().zip(t.row(r)) {
            let d = (q - x) as f64;
            sq += d * d;
        }
    }
    sq.sqrt()
}

/// `‖q(t) − t‖_F` from the packed `q(t)` when the quantizer could pack it,
/// else from its fake-quantization fallback — the shared tail of every
/// scaled quantizer's `error_norm`.
pub(crate) fn nearest_error_norm(
    t: &Tensor,
    packed: Option<QTensor>,
    fake: impl FnOnce() -> Tensor,
) -> f64 {
    match packed {
        Some(q) => streamed_error_norm(t, |r, row| q.decode_row_into(r, row)),
        None => fake().distance(t),
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
                        &q.dequantize(&packed),
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
