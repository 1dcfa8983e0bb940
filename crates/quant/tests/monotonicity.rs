//! Order- and symmetry-properties of the quantization codecs.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{ElementRule, Oracle};
use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::{Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Nearest rounding is monotone: x ≤ y ⇒ q(x) ≤ q(y).
    #[test]
    fn nearest_is_monotone(a in -500.0f32..500.0, b in -500.0f32..500.0) {
        for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3(), FloatFormat::e5m2(), FloatFormat::e3m4()] {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                fmt.quantize_nearest(lo) <= fmt.quantize_nearest(hi),
                "{fmt}: q({lo}) > q({hi})"
            );
        }
    }

    /// Quantization is odd: q(−x) == −q(x).
    #[test]
    fn quantization_is_odd(x in -500.0f32..500.0) {
        for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3(), FloatFormat::e5m2()] {
            prop_assert_eq!(fmt.quantize_nearest(-x), -fmt.quantize_nearest(x));
        }
    }

    /// Nearest rounding never increases magnitude beyond the format max.
    #[test]
    fn output_within_range(x in prop::num::f32::NORMAL) {
        for fmt in [FloatFormat::e2m1(), FloatFormat::e4m3(), FloatFormat::e5m2()] {
            let q = fmt.quantize_nearest(x);
            prop_assert!(q.abs() <= fmt.max_value());
            prop_assert!(q.is_finite());
        }
    }

    /// Stochastic rounding is bracketed by the neighbours of nearest
    /// rounding: |q_s(x) − x| ≤ quantum at x (never two steps away).
    #[test]
    fn stochastic_stays_local(x in 0.01f32..440.0, u in 0.0f32..1.0) {
        let fmt = FloatFormat::e4m3();
        let q = fmt.quantize_stochastic(x, u);
        // The local quantum is bounded by x * 2^-m (relative) for normals.
        let quantum = x * 2f32.powi(-(fmt.man_bits() as i32)) * 2.0;
        prop_assert!((q - x).abs() <= quantum + 1e-6, "x={x} q={q}");
    }

    /// Fake quantization error never exceeds the per-element worst case
    /// (half quantum at full scale per group member).
    #[test]
    fn group_error_bound(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(4, 16, 2.0, &mut rng);
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Rowwise, Rounding::Nearest);
        let fq = q.fake_quantize(&t, &mut rng);
        for r in 0..4 {
            let max_abs = t.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            // E2M1 worst-case relative step within a scaled group: the value
            // grid is {0,.5,1,1.5,2,3,4,6}/6 × max_abs → coarsest gap 2/6.
            let bound = max_abs * (1.0 / 6.0) + 1e-6;
            for c in 0..16 {
                prop_assert!(
                    (fq[(r, c)] - t[(r, c)]).abs() <= bound,
                    "err {} > bound {bound}",
                    (fq[(r, c)] - t[(r, c)]).abs()
                );
            }
        }
    }
}

#[test]
fn error_norm_invariant_under_negation() {
    let mut rng = Rng::seed_from(9);
    let t = Tensor::randn(6, 6, 1.0, &mut rng);
    let neg = t.map(|x| -x);
    let q = Quantizer::new(
        FloatFormat::e2m1(),
        Granularity::Tile { nb: 3 },
        Rounding::Nearest,
    );
    assert!((q.error_norm(&t) - q.error_norm(&neg)).abs() < 1e-12);
}

#[test]
fn scaling_invariance_of_relative_error() {
    // Scaling a tensor by a power of two must not change the relative
    // quantization error (scales absorb it exactly).
    let mut rng = Rng::seed_from(10);
    let t = Tensor::randn(4, 8, 1.0, &mut rng);
    let scaled = t.map(|x| x * 8.0);
    let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Rowwise, Rounding::Nearest);
    let e1 = q.relative_error(&t);
    let e2 = q.relative_error(&scaled);
    assert!(
        (e1 - e2).abs() < 1e-6,
        "relative error changed under pow2 scaling: {e1} vs {e2}"
    );
}
