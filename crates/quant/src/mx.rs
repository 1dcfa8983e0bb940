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
}
