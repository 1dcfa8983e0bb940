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
use crate::format::{ElementFormat, FloatFormat};
use crate::granularity::Granularity;
use crate::int::IntFormat;
use crate::mx::{self, MX_BLOCK};
use crate::packed::{streamed_error_norm, PackedQuantize, PackedTensor};
use crate::signals::{self, QuantTimer};
use crate::{outlier, rht};
use serde::{de_field, Content, Deserialize, Serialize};
use snip_tensor::rng::Rng;
use snip_tensor::{QTensor, Tensor};

/// Rounding mode used when mapping to the low-precision grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to nearest, ties to even (the default).
    #[default]
    Nearest,
    /// Stochastic rounding, one sign-magnitude rule on every grid: `|x|`
    /// rounds down onto the grid, or up when its fractional progress to the
    /// next grid value exceeds the element's uniform draw `u ∈ [0, 1)`, and
    /// the sign is reapplied. Unbiased in expectation and symmetric in the
    /// sign (`−x` rounds to minus what `x` rounds to under the same `u`);
    /// the paper applies it to FP4 output gradients to avoid training
    /// stagnation (§6.1).
    Stochastic,
}

/// How a quantizer scales its groups and what its packed form carries — one
/// decision, so the alternatives exclude each other by construction. Each
/// scaled recipe maps onto exactly one [`PackedTensor`] shape.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Recipe {
    /// No scaling: BF16 round-to-nearest ([`Quantizer::unscaled`]), whose
    /// dynamic range needs no alignment. The one recipe that never packs.
    Unscaled,
    /// `scale = grid_max / max|group|` per layout group — the paper's
    /// recipe. Packs to [`PackedTensor::Codes`].
    MaxAbs,
    /// MX: a power-of-two E8M0 scale (`mx::block_scale`) per `1×32` tile.
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
/// Every `Quantizer` is one of two kinds, by construction: it **packs** —
/// a scaled recipe over a ≤ 8-bit element grid with a code table, so
/// [`PackedQuantize::pack`] and [`PackedQuantize::packed_wire_bytes`] are
/// both `Some` — or it is **the BF16 quantizer**, [`Quantizer::unscaled`]:
/// round-to-nearest, no codes, no draws, both `None`. The constructors
/// reject everything else (a format without a code table, stochastic BF16,
/// empty scale groups, a non-power-of-two RHT block, an outlier fraction
/// outside `[0, 1]`), and deserialization rejects the same, plus integer
/// widths outside `2..=8`.
///
/// # Example
///
/// ```
/// use snip_quant::{PackedQuantize, Quantizer, Rounding, format::FloatFormat, granularity::Granularity};
/// use snip_tensor::{Tensor, rng::Rng};
///
/// let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Tensorwise, Rounding::Nearest);
/// let t = Tensor::from_vec(1, 4, vec![0.1, -0.4, 0.9, 1.2]);
/// let mut rng = Rng::seed_from(0);
/// let fq = q.pack(&t, &mut rng).expect("FP4 packs").dequantize();
/// // The largest magnitude maps exactly onto the format grid.
/// assert!((fq[(0, 3)] - 1.2).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Quantizer {
    format: ElementFormat,
    layout: Granularity,
    rounding: Rounding,
    recipe: Recipe,
}

/// A decoded quantizer (a `Wire` in a START message) passes the
/// constructors' checks: a forged codec is a serde error, not a worker
/// panic or a codec no constructor makes.
impl Deserialize for Quantizer {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        Quantizer {
            format: de_field(c, "format")?,
            layout: de_field(c, "layout")?,
            rounding: de_field(c, "rounding")?,
            recipe: de_field(c, "recipe")?,
        }
        .checked()
        .map_err(serde::Error::custom)
    }
}

impl Quantizer {
    /// Creates a max-abs-scaled quantizer (the normal case for FP8/FP4 and
    /// the integer grids).
    ///
    /// # Panics
    ///
    /// Panics if `format` has no code table (BF16: use
    /// [`Quantizer::unscaled`]) or `layout`'s groups are empty (`nb = 0`).
    pub fn new(format: impl Into<ElementFormat>, layout: Granularity, rounding: Rounding) -> Self {
        Quantizer {
            format: format.into(),
            layout,
            rounding,
            recipe: Recipe::MaxAbs,
        }
        .or_panic()
    }

    /// The BF16 quantizer: unscaled round-to-nearest onto the BF16 grid,
    /// whose exponent range matches f32. The one quantizer that does not
    /// pack.
    pub fn unscaled() -> Self {
        Quantizer {
            format: FloatFormat::bf16().into(),
            layout: Granularity::Tensorwise,
            rounding: Rounding::Nearest,
            recipe: Recipe::Unscaled,
        }
    }

    /// `self` if it is one of the two kinds the type docs name, or why not.
    fn checked(self) -> Result<Self, String> {
        let empty = matches!(
            self.layout,
            Granularity::Block { nb: 0 } | Granularity::Tile { nb: 0 }
        );
        Err(match self.recipe {
            Recipe::Unscaled if self == Quantizer::unscaled() => return Ok(self),
            Recipe::Unscaled => format!("BF16 is tensorwise round-to-nearest only, not {self:?}"),
            // BF16, the one format without a code table.
            _ if self.format.codebook().is_none() => "bf16 has no code table to scale into".into(),
            _ if empty => format!("{} scale groups are empty", self.layout),
            Recipe::Rht { block, .. } if !block.is_power_of_two() => {
                format!("RHT block {block} is not a power of two")
            }
            Recipe::Outlier { fraction } if !(0.0..=1.0).contains(&fraction) => {
                format!("outlier fraction {fraction} outside [0, 1]")
            }
            _ => return Ok(self),
        })
    }

    fn or_panic(self) -> Self {
        self.checked().unwrap_or_else(|e| panic!("{e}"))
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
    ///
    /// # Panics
    ///
    /// Panics on stochastic rounding for the BF16 quantizer.
    pub fn with_rounding(self, rounding: Rounding) -> Self {
        Quantizer { rounding, ..self }.or_panic()
    }

    /// This max-abs quantizer behind a randomized Hadamard rotation over
    /// `block`-length row chunks ([`Recipe::Rht`]).
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two and `self` is a plain
    /// max-abs quantizer.
    pub fn with_rht(self, block: usize, seed: u64) -> Self {
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
        self.max_abs_with(Recipe::Outlier { fraction })
    }

    fn max_abs_with(self, recipe: Recipe) -> Self {
        assert_eq!(
            self.recipe,
            Recipe::MaxAbs,
            "only a plain max-abs quantizer takes another recipe"
        );
        Quantizer { recipe, ..self }.or_panic()
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

    /// Maps a group's max-abs to its `(encode, decode)` multipliers — the
    /// rule [`Codebook::pack_rounded_with`] takes: max-abs recipes scale by
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

    /// Whether this quantizer packs: every one but the BF16 quantizer.
    pub fn packable(&self) -> bool {
        self.recipe != Recipe::Unscaled
    }

    /// Quantizes `t` into plain bit-packed codes, or `None` when there are
    /// none to give: the BF16 quantizer, or a recipe whose packed form
    /// carries more than codes and scales ([`Recipe::Rht`],
    /// [`Recipe::Outlier`] — use [`PackedQuantize::pack`]).
    ///
    /// The packed result is **exactly equivalent** to fake quantization
    /// (paper §6.1): `quantize_packed(t, rng).dequantize()` equals, bit for
    /// bit, the scale → round → rescale of every element, from the same
    /// starting `rng` state and with the same stochastic draws — the dense
    /// oracle in `tests/support/oracle.rs` checks it. Scales are stored as
    /// the decode multiplier, the value a dequantize multiplies by.
    pub fn quantize_packed(&self, t: &Tensor, rng: &mut Rng) -> Option<QTensor> {
        match self.recipe {
            Recipe::MaxAbs | Recipe::Mx => {
                Some(self.pack_codes(self.format.codebook()?, t, rng, None))
            }
            _ => None,
        }
    }

    /// Fused scan + scale + encode on the vector pack kernels, under
    /// stochastic rounding one draw per element in group-walk order. `seen`
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
        // `None` exactly for BF16, the one format without a code table.
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
    /// A packing quantizer packs on the vector engine and decodes a row at
    /// a time, and the BF16 quantizer rounds a row at a time; neither
    /// materialises `q(t)`. The norm is bit-equal to the dense oracle's
    /// `fake_quantize(t).distance(t)` (`tests/packed_equivalence.rs`).
    pub fn error_norm(&self, t: &Tensor) -> f64 {
        let det = self.with_rounding(Rounding::Nearest);
        // Nearest rounding draws nothing.
        match det.pack_recipe(t, &mut Rng::seed_from(0), false) {
            Some(packed) => packed.distance(t),
            None => streamed_error_norm(t, |r, row| {
                row.copy_from_slice(t.row(r));
                snip_tensor::bf16::round_slice(row);
            }),
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
    use crate::oracle::Oracle;

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
        let q = Quantizer::unscaled();
        let t = Tensor::from_vec(1, 2, vec![1.0 + 2f32.powi(-9), -3.125]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert_eq!(fq[(0, 0)], 1.0);
        assert_eq!(fq[(0, 1)], -3.125); // exactly representable
    }

    #[test]
    #[should_panic(expected = "bf16 has no code table")]
    fn scaled_bf16_rejected() {
        let _ = Quantizer::new(FloatFormat::bf16(), Granularity::Rowwise, Rounding::Nearest);
    }

    #[test]
    #[should_panic(expected = "round-to-nearest only")]
    fn stochastic_bf16_rejected() {
        let _ = Quantizer::unscaled().with_rounding(Rounding::Stochastic);
    }

    #[test]
    #[should_panic(expected = "scale groups are empty")]
    fn empty_scale_groups_rejected() {
        let _ = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 0 },
            Rounding::Nearest,
        );
    }

    #[test]
    fn decoded_quantizers_keep_the_constructors_checks() {
        let fp4 = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 8 },
            Rounding::Nearest,
        );
        for q in [
            fp4,
            fp4.with_rht(8, 3),
            fp4.with_outliers(0.5),
            Quantizer::mxfp8(),
            Quantizer::int8_tile(4),
            Quantizer::unscaled(),
        ] {
            let json = serde_json::to_string(&q).unwrap();
            assert_eq!(
                serde_json::from_str::<Quantizer>(&json).unwrap(),
                q,
                "{json}"
            );
        }
        // Each forgery is one field of a valid quantizer's JSON, changed.
        let forge = |q: Quantizer, from: &str, to: &str| {
            let json = serde_json::to_string(&q).unwrap();
            assert!(json.contains(from), "{json} lacks {from}");
            let err = serde_json::from_str::<Quantizer>(&json.replace(from, to)).unwrap_err();
            err.to_string()
        };
        let bf16 = serde_json::to_string(&FloatFormat::bf16()).unwrap();
        let e2m1 = serde_json::to_string(&FloatFormat::e2m1()).unwrap();
        for (err, want) in [
            (forge(fp4, &e2m1, &bf16), "bf16 has no code table"),
            (
                forge(Quantizer::unscaled(), "Nearest", "Stochastic"),
                "nearest only",
            ),
            (
                forge(Quantizer::unscaled(), "Tensorwise", "Rowwise"),
                "tensorwise",
            ),
            (
                forge(fp4.with_rht(8, 3), r#""block":8"#, r#""block":24"#),
                "not a power of two",
            ),
            (
                forge(fp4.with_outliers(0.5), "0.5", "1.5"),
                "outside [0, 1]",
            ),
            (
                forge(fp4, r#""nb":8"#, r#""nb":0"#),
                "scale groups are empty",
            ),
        ] {
            assert!(err.contains(want), "{err} lacks {want}");
        }
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
        let q = Quantizer::unscaled();
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
