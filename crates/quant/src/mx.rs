//! MX (microscaling) block format support.
//!
//! The paper adopts the FP4 E2M1 *element* format from the MX specification
//! (§2.3, \[60\]) but scales with max-abs f32 factors like DeepSeek-V3. The
//! full MX format constrains scales further: one **power-of-two E8M0 scale
//! per 32-element block**, which is what `MXFP4` hardware implements and
//! what the "Training LLMs with MXFP4" line of work (§7, \[68\]) studies.
//! SNIP treats quantization methods as pluggable options (§5.2: "new
//! methods can be incorporated as additional quantization options"), so this
//! module provides the MX variant as an alternative quantizer.

use crate::codebook::Codebook;
use crate::format::FloatFormat;
use crate::granularity::Granularity;
use crate::quantizer::Rounding;
use serde::{Deserialize, Serialize};
use snip_tensor::rng::Rng;
use snip_tensor::{QTensor, Tensor};

/// MX block size fixed by the specification.
pub const MX_BLOCK: usize = 32;

/// An MX-style quantizer: E8M0 (power-of-two) scale per 32-element block
/// along each row, element format `fmt`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MxQuantizer {
    fmt: FloatFormat,
    #[serde(default)]
    rounding: Rounding,
}

impl MxQuantizer {
    /// MXFP4: E2M1 elements under E8M0 block scales.
    pub fn mxfp4() -> Self {
        MxQuantizer {
            fmt: FloatFormat::e2m1(),
            rounding: Rounding::Nearest,
        }
    }

    /// MXFP8 (E4M3 elements).
    pub fn mxfp8() -> Self {
        MxQuantizer {
            fmt: FloatFormat::e4m3(),
            rounding: Rounding::Nearest,
        }
    }

    /// The same quantizer with a different element rounding mode (the MX
    /// training recipes use stochastic rounding on gradients, like plain
    /// FP4).
    pub fn with_rounding(self, rounding: Rounding) -> Self {
        MxQuantizer { rounding, ..self }
    }

    /// The element format.
    pub fn format(&self) -> FloatFormat {
        self.fmt
    }

    /// The element rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// The E8M0 scale for a block: the largest power of two `2^e` such that
    /// `max_abs / 2^e ≤ fmt.max_value()`, clamped to the E8M0 exponent range.
    pub fn block_scale(&self, max_abs: f32) -> f32 {
        if max_abs <= 0.0 || !max_abs.is_finite() {
            return 1.0;
        }
        // Smallest power of two p with max_abs / p <= fmt_max
        // → p = 2^ceil(log2(max_abs / fmt_max)).
        let e = (max_abs / self.fmt.max_value()).log2().ceil();
        let e = e.clamp(-127.0, 127.0);
        e.exp2()
    }

    /// Fake-quantizes `t` with per-row 32-element MX blocks. `rng` drives
    /// stochastic rounding and is untouched under [`Rounding::Nearest`].
    pub fn fake_quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        let _t = crate::signals::QuantTimer::start();
        let (rows, cols) = t.shape();
        let stochastic = self.rounding == Rounding::Stochastic;
        let mut out = t.clone();
        for r in 0..rows {
            let row = out.row_mut(r);
            let mut c = 0;
            while c < cols {
                let end = (c + MX_BLOCK).min(cols);
                let block = &mut row[c..end];
                let max_abs = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let scale = self.block_scale(max_abs);
                let inv = 1.0 / scale;
                for v in block.iter_mut() {
                    let q = if stochastic {
                        self.fmt.quantize_stochastic(*v * inv, rng.next_f32())
                    } else {
                        self.fmt.quantize_nearest(*v * inv)
                    };
                    *v = q * scale;
                }
                c = end;
            }
        }
        out
    }

    /// Quantizes `t` into bit-packed storage: codes under a `1×32` tile
    /// layout whose stored decode multipliers are the exact power-of-two
    /// E8M0 block scales. Bit- and RNG-stream-identical to
    /// [`MxQuantizer::fake_quantize`]; `None` only if the element format is
    /// wider than 8 bits (never for the MX element formats).
    pub fn quantize_packed(&self, t: &Tensor, rng: &mut Rng) -> Option<QTensor> {
        let cb = Codebook::for_float(self.fmt)?;
        let _t = crate::signals::QuantTimer::start();
        Some(cb.pack_rounded_with(
            t,
            Granularity::Tile { nb: MX_BLOCK },
            self.rounding,
            rng,
            |max_abs| {
                let scale = self.block_scale(max_abs);
                (1.0 / scale, scale)
            },
        ))
    }

    /// `‖q(t) − t‖_F` under this quantizer (deterministic nearest rounding).
    pub fn error_norm(&self, t: &Tensor) -> f64 {
        let det = self.with_rounding(Rounding::Nearest);
        let mut rng = Rng::seed_from(0); // unused under Nearest
        crate::quantizer::nearest_error_norm(t, det.quantize_packed(t, &mut rng), || {
            det.fake_quantize(t, &mut rng)
        })
    }

    /// Relative error `‖q(t) − t‖_F / ‖t‖_F` (0 for a zero tensor).
    pub fn relative_error(&self, t: &Tensor) -> f64 {
        let norm = t.frobenius_norm();
        if norm == 0.0 {
            0.0
        } else {
            self.error_norm(t) / norm
        }
    }
}

/// Randomized Hadamard transform (RHT) over power-of-two blocks, at tensor
/// granularity.
///
/// Rotating tensors by a random orthogonal matrix before quantization
/// spreads outliers across elements, shrinking block max-abs and thus
/// quantization error — the enhancement \[68\] applies to MXFP4 training.
/// The rotation itself lives in [`crate::rht::RhtRotation`] (which also
/// powers the standalone [`crate::rht::RhtQuantizer`]); this type applies
/// it to every `n`-aligned block of each tensor row. Rows whose length is
/// not a multiple of `n` keep their tail unrotated.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hadamard {
    rot: crate::rht::RhtRotation,
}

impl Hadamard {
    /// Creates a transform over blocks of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize, seed: u64) -> Self {
        Hadamard {
            rot: crate::rht::RhtRotation::new(n, seed),
        }
    }

    /// Block length.
    pub fn len(&self) -> usize {
        self.rot.len()
    }

    /// Always false (n ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Applies `H·D/√n` to every `n`-aligned block of each row.
    pub fn forward(&self, t: &mut Tensor) {
        self.apply(t, true);
    }

    /// Applies the inverse `D·H/√n`.
    pub fn inverse(&self, t: &mut Tensor) {
        self.apply(t, false);
    }

    fn apply(&self, t: &mut Tensor, forward: bool) {
        let (rows, cols) = t.shape();
        let n = self.rot.len();
        for r in 0..rows {
            let row = t.row_mut(r);
            let mut c = 0;
            while c + n <= cols {
                let block = &mut row[c..c + n];
                if forward {
                    self.rot.forward(block);
                } else {
                    self.rot.inverse(block);
                }
                c += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_scales_are_powers_of_two() {
        let q = MxQuantizer::mxfp4();
        for &m in &[0.1f32, 1.0, 5.9, 6.0, 6.1, 100.0, 1e-6] {
            let s = q.block_scale(m);
            assert!(s > 0.0);
            assert_eq!(
                s.log2().fract(),
                0.0,
                "scale {s} for max {m} not a power of two"
            );
            // The scaled max must fit the format.
            assert!(m / s <= q.format().max_value() * (1.0 + 1e-6));
        }
    }

    #[test]
    fn mx_quantization_error_reasonable() {
        let mut rng = Rng::seed_from(1);
        let t = Tensor::randn(8, 64, 1.0, &mut rng);
        let mx = MxQuantizer::mxfp4();
        let rel = mx.error_norm(&t) / t.frobenius_norm();
        // Power-of-two scales waste up to 1 bit vs exact max-abs scaling;
        // error should still be in the usual FP4 ballpark.
        assert!(rel > 0.01 && rel < 0.25, "rel = {rel}");
    }

    #[test]
    fn mx_error_at_least_exact_scaling_error() {
        use crate::granularity::Granularity;
        use crate::{Quantizer, Rounding};
        let mut rng = Rng::seed_from(2);
        let t = Tensor::randn(4, 64, 1.0, &mut rng);
        let mx = MxQuantizer::mxfp4().error_norm(&t);
        let exact = Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb: 32 },
            Rounding::Nearest,
        )
        .error_norm(&t);
        // E8M0 scales are a constrained subset of f32 scales → error can
        // only go up (with small numerical slack).
        assert!(mx + 1e-9 >= exact * 0.95, "mx {mx} vs exact {exact}");
    }

    #[test]
    fn zero_block_is_preserved() {
        let t = Tensor::zeros(2, 64);
        let mut rng = Rng::seed_from(3);
        assert_eq!(MxQuantizer::mxfp4().fake_quantize(&t, &mut rng), t);
    }

    #[test]
    fn hadamard_round_trips() {
        let mut rng = Rng::seed_from(4);
        let t = Tensor::randn(3, 64, 1.0, &mut rng);
        let h = Hadamard::new(32, 9);
        let mut x = t.clone();
        h.forward(&mut x);
        h.inverse(&mut x);
        for (a, b) in t.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn hadamard_preserves_norm() {
        let mut rng = Rng::seed_from(5);
        let t = Tensor::randn(2, 32, 1.0, &mut rng);
        let h = Hadamard::new(32, 1);
        let mut x = t.clone();
        h.forward(&mut x);
        assert!((x.frobenius_norm() - t.frobenius_norm()).abs() < 1e-4);
    }

    #[test]
    fn hadamard_spreads_outliers_shrinking_dynamic_range() {
        // The RHT effect [68]: a spike of magnitude `v` in a block becomes
        // ~v/√n per element after rotation, so the block's dynamic range
        // (max-abs over median-abs) collapses — which is what lets narrow
        // formats represent the *rest* of the block at a finer quantum.
        // (Frobenius error alone can move either way; the training benefit
        // is distributional.)
        let mut rng = Rng::seed_from(6);
        let mut t = Tensor::randn(4, 64, 0.1, &mut rng);
        for r in 0..4 {
            t[(r, 5)] = 30.0;
            t[(r, 40)] = -25.0;
        }
        let h = Hadamard::new(32, 2);
        let mut rotated = t.clone();
        h.forward(&mut rotated);
        assert!(
            rotated.max_abs() < t.max_abs() * 0.4,
            "max-abs {} -> {}",
            t.max_abs(),
            rotated.max_abs()
        );
        // And the MX quantum of the spike blocks shrinks accordingly.
        let mx = MxQuantizer::mxfp4();
        let direct_scale = mx.block_scale(t.max_abs());
        let rotated_scale = mx.block_scale(rotated.max_abs());
        assert!(rotated_scale < direct_scale);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_rejected() {
        let _ = Hadamard::new(24, 0);
    }
}
