//! Property tests for the pluggable quantization options (§5.2): integer
//! grids, randomized Hadamard pre-rotation, and outlier splitting.

use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::outlier::select_outliers;
use snip_quant::rht::{fwht_inplace, RhtRotation};
use snip_quant::{PackedQuantize, Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

fn fp4_tile(nb: usize) -> Quantizer {
    Quantizer::new(
        FloatFormat::e2m1(),
        Granularity::Tile { nb },
        Rounding::Nearest,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int_nearest_error_bounded_by_half_step(t in tensor_strategy(4, 16)) {
        // Rowwise scaling: every element's error is at most half the grid
        // step of its row.
        let q = Quantizer::new(IntFormat::int4(), Granularity::Rowwise, Rounding::Nearest);
        let fq = q.fake_quantize(&t, &mut Rng::seed_from(0));
        for r in 0..4 {
            let max_abs = t.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = max_abs / IntFormat::int4().qmax();
            for c in 0..16 {
                let err = (fq[(r, c)] - t[(r, c)]).abs();
                prop_assert!(err <= step / 2.0 + 1e-5 + 1e-6 * max_abs,
                    "({r},{c}): err {err} > {}", step / 2.0);
            }
        }
    }

    #[test]
    fn int_error_weakly_decreases_with_bits(t in tensor_strategy(4, 16)) {
        let g = Granularity::Tile { nb: 8 };
        let mut prev = f64::INFINITY;
        for bits in [3u32, 4, 6, 8, 12] {
            let q = Quantizer::new(IntFormat::new(bits), g, Rounding::Nearest);
            let e = q.error_norm(&t);
            prop_assert!(e <= prev + 1e-9, "int{bits}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    fn int_stochastic_stays_on_grid_neighbors(
        t in tensor_strategy(2, 8),
        seed in 0u64..1000,
    ) {
        // Stochastic rounding lands on one of the two neighbouring grid
        // points: never further than a full step from the input.
        let q = Quantizer::new(IntFormat::int4(), Granularity::Rowwise, Rounding::Stochastic);
        let fq = q.fake_quantize(&t, &mut Rng::seed_from(seed));
        for r in 0..2 {
            let max_abs = t.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = max_abs / IntFormat::int4().qmax();
            for c in 0..8 {
                let err = (fq[(r, c)] - t[(r, c)]).abs();
                prop_assert!(err <= step + 1e-5 + 1e-6 * max_abs);
            }
        }
    }

    #[test]
    fn fwht_involution(len_pow in 1u32..7, vals in proptest::collection::vec(-10.0f32..10.0, 64)) {
        let n = 1usize << len_pow;
        let mut v: Vec<f32> = vals[..n].to_vec();
        let original = v.clone();
        fwht_inplace(&mut v);
        fwht_inplace(&mut v);
        for (a, b) in v.iter().zip(&original) {
            prop_assert!((a - b * n as f32).abs() < 1e-2 * (1.0 + b.abs() * n as f32));
        }
    }

    #[test]
    fn rht_rotation_is_orthogonal(
        seed in 0u64..500,
        vals in proptest::collection::vec(-10.0f32..10.0, 32),
    ) {
        let rot = RhtRotation::new(32, seed);
        let mut v = vals.clone();
        let norm_before: f64 = v.iter().map(|x| (*x as f64).powi(2)).sum();
        rot.forward(&mut v);
        let norm_after: f64 = v.iter().map(|x| (*x as f64).powi(2)).sum();
        prop_assert!((norm_before - norm_after).abs() <= 1e-4 * norm_before.max(1.0));
        rot.inverse(&mut v);
        for (a, b) in v.iter().zip(&vals) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn rht_quantizer_output_is_finite(t in tensor_strategy(3, 40), seed in 0u64..100) {
        let q = fp4_tile(16).with_rht(16, seed);
        let out = q.fake_quantize(&t, &mut Rng::seed_from(seed));
        prop_assert!(out.all_finite());
        prop_assert_eq!(out.shape(), t.shape());
    }

    #[test]
    fn outliers_preserved_within_bf16_ulp(t in tensor_strategy(4, 16), k in 1usize..8) {
        let frac = k as f64 / 64.0;
        let q = fp4_tile(8).with_outliers(frac);
        let (idx, split) = select_outliers(&t, frac);
        prop_assert_eq!(idx.len(), split.n_outliers);
        let out = q.fake_quantize(&t, &mut Rng::seed_from(1));
        for &i in &idx {
            let orig = t.as_slice()[i];
            let kept = out.as_slice()[i];
            // BF16 has 7 explicit mantissa bits → relative error ≤ 2^-8.
            prop_assert!((kept - orig).abs() <= orig.abs() * 0.004 + 1e-30,
                "outlier {i}: {orig} → {kept}");
        }
    }

    #[test]
    fn outlier_threshold_separates(t in tensor_strategy(4, 16)) {
        let (idx, split) = select_outliers(&t, 4.0 / 64.0);
        let data = t.as_slice();
        for (i, v) in data.iter().enumerate() {
            if idx.binary_search(&i).is_ok() {
                prop_assert!(v.abs() >= split.threshold);
            } else {
                prop_assert!(v.abs() <= split.threshold + 1e-30);
            }
        }
    }
}

#[test]
fn int_and_float_quantizers_agree_on_exactly_representable_grids() {
    // ±{0, 1, …, 7} scaled into the tile: both INT4 and a hypothetical
    // exact grid keep them; sanity anchor between the two families.
    let vals: Vec<f32> = (-7..=7).map(|i| i as f32).collect();
    let t = Tensor::from_vec(1, vals.len(), vals.clone());
    let q = Quantizer::new(IntFormat::int4(), Granularity::Rowwise, Rounding::Nearest);
    let fq = q.fake_quantize(&t, &mut Rng::seed_from(0));
    for (c, v) in vals.iter().enumerate() {
        assert!((fq[(0, c)] - v).abs() < 1e-6, "{v} not preserved");
    }
}

/// Packs and fake-quantizes `t` from the same RNG state; asserts the decoded
/// packed form equals the oracle bit for bit (NaN payloads included).
fn assert_packed_matches_fake(q: &Quantizer, t: &Tensor) {
    let fake = q.fake_quantize(t, &mut Rng::seed_from(3));
    let packed = q.pack(t, &mut Rng::seed_from(3)).expect("packable");
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&packed.dequantize()), bits(&fake));
}

/// The outlier set is a function of the data: among equal magnitudes the
/// earlier element wins, whatever the selection algorithm's internals.
#[test]
fn equal_magnitudes_split_by_element_order() {
    let vals: Vec<f32> = (0..40)
        .map(|i| if i % 3 == 0 { -2.5 } else { 2.5 })
        .collect();
    let t = Tensor::from_vec(4, 10, vals);
    let (idx, split) = select_outliers(&t, 0.1);
    assert_eq!(idx, vec![0, 1, 2, 3]);
    assert_eq!(split.threshold, 2.5);
    // A strictly larger element still goes first, wherever it sits.
    let mut u = t.clone();
    u[(3, 9)] = 2.75;
    assert_eq!(select_outliers(&u, 0.1).0, vec![0, 1, 2, 39]);
    for r in [Rounding::Nearest, Rounding::Stochastic] {
        let q = Quantizer::new(FloatFormat::e2m1(), Granularity::Tile { nb: 8 }, r);
        assert_packed_matches_fake(&q.with_outliers(0.1), &t);
        assert_packed_matches_fake(&q.with_outliers(0.1), &u);
    }
}

/// A NaN ranks as the largest magnitude: it is always selected, ships as a
/// (BF16) NaN outlier, and leaves the inliers' scales alone.
#[test]
fn nan_ranks_as_the_largest_magnitude() {
    let mut t = Tensor::from_vec(2, 8, (0..16).map(|i| i as f32 - 7.5).collect());
    t[(0, 5)] = f32::NAN;
    t[(1, 2)] = -f32::NAN;
    t[(1, 7)] = f32::INFINITY;
    let (idx, split) = select_outliers(&t, 3.0 / 16.0);
    assert_eq!(idx, vec![5, 10, 15]);
    assert_eq!(split.threshold, f32::INFINITY);
    // With room for only one outlier, the earlier NaN is it.
    assert_eq!(select_outliers(&t, 1.0 / 16.0).0, vec![5]);
    let q = fp4_tile(8).with_outliers(3.0 / 16.0);
    let out = q.fake_quantize(&t, &mut Rng::seed_from(0));
    assert!(out[(0, 5)].is_nan() && out[(1, 2)].is_nan());
    assert_eq!(out[(1, 7)], f32::INFINITY);
    assert!(out.as_slice().iter().filter(|v| v.is_finite()).count() == 13);
    assert_packed_matches_fake(&q, &t);
}
