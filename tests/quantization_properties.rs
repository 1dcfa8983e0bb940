//! Property-based tests (proptest) on quantization and ILP invariants.

use proptest::prelude::*;
use snip::ilp::{solve, solve_bruteforce, Choice, McKnapsack, SolveOptions};
use snip::quant::format::FloatFormat;
use snip::quant::granularity::Granularity;
use snip::quant::{Precision, Quantizer, Rounding, TensorRole};
use snip::tensor::bf16;
use snip::tensor::rng::Rng;
use snip::tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nearest-quantization never moves a value further than the distance to
    /// the nearest representable (≤ half the local quantum).
    #[test]
    fn fp4_nearest_error_bounded(x in -6.0f32..6.0) {
        let f = FloatFormat::e2m1();
        let q = f.quantize_nearest(x);
        // Nearest representable by brute force over the value set.
        let best = f
            .enumerate_non_negative()
            .iter()
            .flat_map(|&v| [v, -v])
            .map(|v| (v - x).abs())
            .fold(f32::INFINITY, f32::min);
        prop_assert!((q - x).abs() <= best + 1e-6);
    }

    /// Stochastic rounding only returns one of the two bracketing values.
    #[test]
    fn stochastic_rounds_to_neighbours(x in 0.0f32..6.0, u in 0.0f32..1.0) {
        let f = FloatFormat::e2m1();
        let q = f.quantize_stochastic(x, u);
        let vals = f.enumerate_non_negative();
        let lo = vals.iter().cloned().filter(|&v| v <= x + 1e-6).fold(0.0f32, f32::max);
        let hi = vals.iter().cloned().filter(|&v| v >= x - 1e-6).fold(6.0f32, f32::min);
        prop_assert!((q - lo).abs() < 1e-6 || (q - hi).abs() < 1e-6, "x={x} q={q} lo={lo} hi={hi}");
    }

    /// BF16 rounding is idempotent and within half a BF16 ULP.
    #[test]
    fn bf16_round_properties(x in -1e30f32..1e30) {
        let r = bf16::round(x);
        prop_assert_eq!(bf16::round(r), r);
        // ULP at |x|: exponent step of 2^-8 relative.
        let ulp = x.abs() * 2f32.powi(-8) + f32::MIN_POSITIVE;
        prop_assert!((r - x).abs() <= ulp, "x={}, r={}", x, r);
    }

    /// Fake quantization preserves signs and zeros, and never exceeds the
    /// group max in magnitude.
    #[test]
    fn fake_quant_structural_properties(seed in 0u64..1000, rows in 1usize..6, cols in 1usize..20) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(rows, cols, 1.5, &mut rng);
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Rowwise, Rounding::Nearest);
        let fq = q.fake_quantize(&t, &mut rng);
        for r in 0..rows {
            let max_abs = t.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for c in 0..cols {
                let (orig, quant) = (t[(r, c)], fq[(r, c)]);
                prop_assert!(quant == 0.0 || orig.signum() == quant.signum());
                prop_assert!(quant.abs() <= max_abs * (1.0 + 1e-5));
            }
        }
    }

    /// Finer formats quantize with no more error than coarser ones under the
    /// same granularity.
    #[test]
    fn format_fidelity_ordering(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(4, 32, 1.0, &mut rng);
        let e4 = Precision::Fp4.quantizer_with_group(TensorRole::Input, 8).error_norm(&t);
        let e8 = Precision::Fp8.quantizer_with_group(TensorRole::Input, 8).error_norm(&t);
        let e16 = Precision::Bf16.quantizer_with_group(TensorRole::Input, 8).error_norm(&t);
        prop_assert!(e16 <= e8 + 1e-9);
        prop_assert!(e8 <= e4 + 1e-9);
    }

    /// ILP solver matches brute force on random feasible instances.
    #[test]
    fn ilp_matches_bruteforce(seed in 0u64..2000) {
        let mut rng = Rng::seed_from(seed);
        let m = 1 + rng.below(5);
        let groups: Vec<Vec<Choice>> = (0..m)
            .map(|_| {
                let n = 1 + rng.below(3);
                (0..n).map(|_| Choice::new(rng.next_f64() * 5.0, rng.next_f64())).collect()
            })
            .collect();
        let p = McKnapsack::new(groups, rng.next_f64() * m as f64 * 0.6);
        let a = solve(&p, &SolveOptions::default());
        let b = solve_bruteforce(&p);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert!((x.objective - y.objective).abs() <= 1e-9 * (1.0 + y.objective.abs()));
                prop_assert!(x.efficiency + 1e-9 >= p.target);
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent: {x:?} vs {y:?}"),
        }
    }

    /// Scale-group partitioning covers every element exactly once.
    #[test]
    fn granularity_partitions(rows in 1usize..12, cols in 1usize..12, nb in 1usize..6) {
        for g in [
            Granularity::Tensorwise,
            Granularity::Rowwise,
            Granularity::Columnwise,
            Granularity::Block { nb },
            Granularity::Tile { nb },
        ] {
            let mut covered = vec![0u32; rows * cols];
            g.for_each_group(rows, cols, |rr, cr| {
                for r in rr {
                    for c in cr.clone() {
                        covered[r * cols + c] += 1;
                    }
                }
            });
            prop_assert!(covered.iter().all(|&x| x == 1), "{g}: bad cover");
        }
    }
}
