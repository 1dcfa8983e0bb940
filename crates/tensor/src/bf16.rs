//! BF16 rounding — the "high precision" of the training framework.
//!
//! GEMM outputs and non-linear ops stay in BF16 (paper Fig. 5). The
//! rounding lives in `snip-tensor` (not `snip-quant`) because the GEMM
//! engine fuses it into its tile store ([`crate::Round::Bf16`]) and reads
//! dense operands through it ([`crate::QOperandRef::Bf16Rounded`]): one
//! implementation serves the fused store, the rounded operand and the
//! standalone [`round_slice`] pass, which is what makes
//! `gemm(a, b, o, Round::Bf16)` bit-identical to `gemm(a, b, o,
//! Round::Keep)` followed by `round_slice` — by construction, not by test
//! alone. Every other BF16 rounding in the workspace (`snip-quant`'s
//! unscaled quantizer and outlier values, `snip-nn`'s tests) calls these.

/// Rounds an `f32` to the nearest BF16 value (round-to-nearest-even),
/// returning it as `f32`. NaN passes through with its payload untouched
/// (a poisoned activation must stay identifiable); overflow past the
/// largest finite BF16 rounds to infinity, exactly as IEEE-754
/// narrowing would.
///
/// Branch-free: the NaN test selects between the input bits and the
/// rounded bits instead of returning early, so loops over it vectorize
/// (the GEMM engine's rounded-operand decode, [`round_into`], is one).
///
/// # Example
///
/// ```
/// let x = 1.0 + 2f32.powi(-9); // below bf16 resolution at 1.0
/// assert_eq!(snip_tensor::bf16::round(x), 1.0);
/// ```
#[inline]
pub fn round(x: f32) -> f32 {
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    // All ones when `x` is NaN (exponent all ones, mantissa non-zero).
    let nan = 0u32.wrapping_sub(u32::from(bits & 0x7FFF_FFFF > 0x7F80_0000));
    f32::from_bits((bits & nan) | (rounded & !nan))
}

/// Applies [`round`] to every element of a slice.
pub fn round_slice(data: &mut [f32]) {
    for v in data {
        *v = round(*v);
    }
}

/// Writes [`round`] of every element of `src` into `dst`: the rounding
/// copy behind [`crate::QOperandRef::Bf16Rounded`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn round_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "round_into length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = round(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_matches_known_values() {
        assert_eq!(round(1.0), 1.0);
        assert_eq!(round(0.0), 0.0);
        // 1 + 2^-8 is exactly between 1.0 and the next bf16; ties to even.
        assert_eq!(round(1.0 + 2f32.powi(-8)), 1.0);
        assert_eq!(round(1.0 + 3.0 * 2f32.powi(-9)), 1.0 + 2f32.powi(-7));
    }

    #[test]
    fn round_is_idempotent() {
        for &x in &[0.37f32, -1234.5, 3.0e-40, 7.5e37, -0.0] {
            let once = round(x);
            assert_eq!(round(once), once, "x = {x}");
        }
    }

    #[test]
    fn non_finite_values_survive() {
        assert!(round(f32::NAN).is_nan());
        // NaN payload bits pass through untouched.
        let payload = f32::from_bits(0x7FC1_2345);
        assert_eq!(round(payload).to_bits(), 0x7FC1_2345);
        assert_eq!(round(f32::INFINITY), f32::INFINITY);
        assert_eq!(round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // The largest finite f32 overflows bf16 and must round to +inf.
        assert_eq!(round(f32::MAX), f32::INFINITY);
        assert_eq!(round(f32::MIN), f32::NEG_INFINITY);
    }

    /// The branch-free select against the early-return form it replaced,
    /// over every exponent with mantissa edges, ties and NaN payloads.
    #[test]
    fn branch_free_round_matches_the_early_return_form() {
        let reference = |x: f32| {
            if x.is_nan() {
                return x;
            }
            let bits = x.to_bits();
            f32::from_bits(bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000)
        };
        let mantissas = [0, 1, 0x7FFF, 0x8000, 0x8001, 0x1_7FFF, 0x1_8000, 0x7F_FFFF];
        let mut src = Vec::new();
        for sign in [0u32, 0x8000_0000] {
            for exp in 0..=0xFFu32 {
                for m in mantissas {
                    src.push(f32::from_bits(sign | exp << 23 | m));
                }
            }
        }
        let mut dst = vec![0.0; src.len()];
        round_into(&src, &mut dst);
        for (&x, &y) in src.iter().zip(&dst) {
            let (want, at) = (reference(x).to_bits(), x.to_bits());
            assert_eq!(round(x).to_bits(), want, "{at:#010x}");
            assert_eq!(y.to_bits(), want, "{at:#010x}");
        }
    }

    #[test]
    fn signed_zero_is_preserved() {
        assert_eq!(round(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(round(0.0).to_bits(), 0.0f32.to_bits());
    }
}
