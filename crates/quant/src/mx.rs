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
pub const MX_BLOCK: usize = 32;

/// The E8M0 scale for a block: the smallest power of two `2^e` such that
/// `max_abs / 2^e ≤ grid_max` (the element format's largest magnitude),
/// clamped to the E8M0 exponent range. All-zero and non-finite blocks
/// scale by 1.
pub fn block_scale(grid_max: f32, max_abs: f32) -> f32 {
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return 1.0;
    }
    // p = 2^ceil(log2(max_abs / grid_max)).
    let e = (max_abs / grid_max).log2().ceil();
    let e = e.clamp(-127.0, 127.0);
    e.exp2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
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
            assert!(m / s <= fp4_max * (1.0 + 1e-6));
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
