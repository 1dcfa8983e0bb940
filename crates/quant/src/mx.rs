//! MX (microscaling) block format support.
//!
//! The paper adopts the FP4 E2M1 *element* format from the MX specification
//! (§2.3, \[60\]) but scales with max-abs f32 factors like DeepSeek-V3. The
//! full MX format constrains scales further: one **power-of-two E8M0 scale
//! per 32-element block**, which is what `MXFP4` hardware implements and
//! what the "Training LLMs with MXFP4" line of work (§7, \[68\]) studies.
//! SNIP treats quantization methods as pluggable options (§5.2: "new
//! methods can be incorporated as additional quantization options"), so
//! [`crate::Quantizer::mxfp4`] / [`crate::Quantizer::mxfp8`] provide the MX
//! variant as [`crate::Recipe::Mx`]; this module holds its scale rule.

/// MX block size fixed by the specification.
pub(crate) const MX_BLOCK: usize = 32;

/// The E8M0 exponent range: `2^-127` (stored subnormal in f32) to `2^127`.
const E8M0_MIN: i32 = -127;
const E8M0_MAX: i32 = 127;

/// The E8M0 scale for a block: the smallest power of two `2^e` such that
/// `max_abs / 2^e ≤ grid_max` (the element format's largest magnitude),
/// clamped to the E8M0 exponent range. All-zero and non-finite blocks
/// scale by 1.
pub(crate) fn block_scale(grid_max: f32, max_abs: f32) -> f32 {
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return 1.0;
    }
    // `2^e` exactly, in f64 (every E8M0 exponent is a normal f64).
    let pow2 = |e: i32| f64::from_bits(((1023 + e) as u64) << 52);
    // Exact: a power-of-two multiple of an f32 never rounds in f64.
    let fits = |e: i32| f64::from(max_abs) <= f64::from(grid_max) * pow2(e);
    // `ceil(log2(max_abs / grid_max))` is only a guess: the quotient or its
    // logarithm can round onto an integer one binade low (with `max_abs`
    // one ULP above `6 · 2^4`, the f32 `log2` is exactly 4), and the block
    // maximum would then clip. Step to the smallest `e` that fits.
    let mut e = ((max_abs / grid_max).log2().ceil() as i32).clamp(E8M0_MIN, E8M0_MAX);
    while e < E8M0_MAX && !fits(e) {
        e += 1;
    }
    while e > E8M0_MIN && fits(e - 1) {
        e -= 1;
    }
    pow2(e) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::oracle::Oracle;
    use crate::{Quantizer, Rounding};
    use snip_tensor::rng::Rng;
    use snip_tensor::Tensor;

    #[test]
    fn block_scales_are_powers_of_two() {
        let fp4_max = FloatFormat::e2m1().max_value();
        for &m in &[0.1f32, 1.0, 5.9, 6.0, 6.1, 100.0, 1e-6] {
            let s = block_scale(fp4_max, m);
            assert!(s > 0.0);
            assert_eq!(
                s.log2().fract(),
                0.0,
                "scale {s} for max {m} not a power of two"
            );
            // The scaled max must fit the format.
            assert!(m / s <= fp4_max);
        }
    }

    /// `max_abs` at `grid_max · 2^e` and one ULP either side, for every
    /// E8M0 exponent and both element grids: the block maximum never clips
    /// (`max_abs · (1/s) ≤ grid_max`, the multiply the quantizer performs)
    /// and the scale is the smallest power of two that achieves it.
    #[test]
    fn block_scale_is_minimal_and_never_clips_at_binade_edges() {
        let pow2 = |e: i32| f64::from_bits(((1023 + e) as u64) << 52);
        for grid_max in [
            FloatFormat::e2m1().max_value(),
            FloatFormat::e4m3().max_value(),
        ] {
            for e in E8M0_MIN..=E8M0_MAX {
                let edge = f64::from(grid_max) * pow2(e);
                if edge > f64::from(f32::MAX) {
                    continue;
                }
                let edge = edge as f32;
                let below = f32::from_bits(edge.to_bits() - 1);
                let above = f32::from_bits(edge.to_bits() + 1);
                for (max_abs, want) in [(below, e), (edge, e), (above, e + 1)] {
                    let s = block_scale(grid_max, max_abs);
                    let what = format!("grid {grid_max}, e {e}, max_abs {max_abs:e}: scale {s:e}");
                    if want <= E8M0_MAX {
                        assert_eq!(f64::from(s), pow2(want), "{what}");
                    }
                    assert!(max_abs * (1.0 / s) <= grid_max, "clips: {what}");
                    if f64::from(s) > pow2(E8M0_MIN) {
                        assert!(
                            f64::from(max_abs) > f64::from(grid_max) * f64::from(s) / 2.0,
                            "not minimal: {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mx_quantization_error_reasonable() {
        let mut rng = Rng::seed_from(1);
        let t = Tensor::randn(8, 64, 1.0, &mut rng);
        let mx = Quantizer::mxfp4();
        let rel = mx.error_norm(&t) / t.frobenius_norm();
        // Power-of-two scales waste up to 1 bit vs exact max-abs scaling;
        // error should still be in the usual FP4 ballpark.
        assert!(rel > 0.01 && rel < 0.25, "rel = {rel}");
    }

    #[test]
    fn mx_error_at_least_exact_scaling_error() {
        let mut rng = Rng::seed_from(2);
        let t = Tensor::randn(4, 64, 1.0, &mut rng);
        let mx = Quantizer::mxfp4().error_norm(&t);
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
        assert_eq!(Quantizer::mxfp4().fake_quantize(&t, &mut rng), t);
    }
}
