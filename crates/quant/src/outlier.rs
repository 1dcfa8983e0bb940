//! Outlier-split quantization: dense low-precision + sparse high-precision.
//!
//! The FP4 training work the paper builds on (§2.2, \[73\]) "relies on
//! irregular sparse GEMM to handle outliers": the few largest-magnitude
//! elements are carved out of the low-precision tensor and processed at high
//! precision, so they stop inflating the quantization scale for everything
//! else. [`crate::Quantizer::with_outliers`] emulates that split
//! ([`crate::Recipe::Outlier`]) — the dense part goes through the max-abs
//! recipe with group scales that see *only* the inliers, the outliers are
//! kept at BF16 — and this module holds the selection.
//!
//! Like the MX and RHT variants, this is a pluggable quantization option in
//! SNIP's ILP sense (§5.2); the `ablation_rht` experiment compares all of
//! them head-to-head.

use crate::packed::PackedOutlier;
use snip_tensor::Tensor;

/// Outliers among `n` elements at `fraction`: `ceil(fraction · n)`.
pub(crate) fn outlier_count(fraction: f64, n: usize) -> usize {
    ((fraction * n as f64).ceil() as usize).min(n)
}

/// Computes the outlier set of `t`: the `ceil(fraction · n)` elements of
/// largest magnitude, ties broken by element order (the earlier element
/// wins), so the set is a function of the data alone. Magnitudes compare by
/// `f32::total_cmp`: a NaN ranks above every number and travels as an
/// outlier. Returns the positions (flat indices, ascending).
pub fn select_outliers(t: &Tensor, fraction: f64) -> Vec<usize> {
    let data = t.as_slice();
    let n = data.len();
    let k = outlier_count(fraction, n);
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        data[b].abs().total_cmp(&data[a].abs()).then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Carves the outliers out of `t`: zeroes their positions — so the dense
/// side's group scales see only inliers — and returns them, BF16-rounded,
/// in ascending index order: the packer's split (the test-support oracle
/// restates it from [`select_outliers`]).
pub(crate) fn carve(t: &mut Tensor, fraction: f64) -> Vec<PackedOutlier> {
    let indices = select_outliers(t, fraction);
    let data = t.as_mut_slice();
    indices
        .into_iter()
        .map(|i| PackedOutlier {
            index: u32::try_from(i).expect("tensor indexable by u32"),
            value: snip_tensor::bf16::round(std::mem::take(&mut data[i])),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::oracle::Oracle;
    use crate::{Quantizer, Rounding};
    use snip_tensor::rng::Rng;

    fn rng() -> Rng {
        Rng::seed_from(5)
    }

    /// The smallest outlier magnitude: elements with `|x| ≥ threshold` are
    /// outliers (`∞` when there are none).
    fn threshold(t: &Tensor, idx: &[usize]) -> f32 {
        idx.iter()
            .map(|&i| t.as_slice()[i].abs())
            .fold(f32::INFINITY, f32::min)
    }

    fn fp4_tile(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    #[test]
    fn zero_fraction_matches_dense_quantizer() {
        let mut r = rng();
        let t = Tensor::randn(8, 32, 1.0, &mut r);
        let plain = fp4_tile(16);
        let split = plain.with_outliers(0.0);
        assert_eq!(
            split.fake_quantize(&t, &mut Rng::seed_from(1)),
            plain.fake_quantize(&t, &mut Rng::seed_from(1))
        );
        let idx = select_outliers(&t, 0.0);
        assert!(idx.is_empty());
        assert_eq!(threshold(&t, &idx), f32::INFINITY);
    }

    #[test]
    fn outliers_survive_at_bf16() {
        let mut r = rng();
        let mut t = Tensor::randn(4, 32, 0.5, &mut r);
        t[(1, 7)] = 100.0;
        t[(3, 20)] = -80.0;
        let q = fp4_tile(8).with_outliers(2.0 / 128.0);
        let out = q.fake_quantize(&t, &mut rng());
        let idx = select_outliers(&t, 2.0 / 128.0);
        assert_eq!(idx.len(), 2);
        // 100 and 80 are exactly representable in BF16.
        assert_eq!(out[(1, 7)], 100.0);
        assert_eq!(out[(3, 20)], -80.0);
        let threshold = threshold(&t, &idx);
        assert!(threshold <= 80.0 && threshold > 1.0);
    }

    #[test]
    fn splitting_reduces_error_on_heavy_tails() {
        let mut r = rng();
        let mut t = Tensor::randn(16, 64, 1.0, &mut r);
        // Plant outliers that dominate their tiles' scales.
        for row in 0..16 {
            t[(row, (row * 7) % 64)] = 50.0 * if row % 2 == 0 { 1.0 } else { -1.0 };
        }
        let plain = fp4_tile(32);
        let with_split = plain.with_outliers(16.0 / 1024.0);
        let e_plain = plain.error_norm(&t);
        let e_split = with_split.error_norm(&t);
        assert!(
            e_split < 0.7 * e_plain,
            "outlier split {e_split} should clearly beat plain {e_plain}"
        );
    }

    #[test]
    fn count_matches_ceil_of_fraction() {
        let mut r = rng();
        let t = Tensor::randn(10, 10, 1.0, &mut r);
        for (frac, expect) in [(0.01, 1), (0.05, 5), (0.051, 6), (1.0, 100)] {
            let idx = select_outliers(&t, frac);
            assert_eq!(idx.len(), expect, "fraction {frac}");
            assert_eq!(idx.len() as f64 / 100.0, expect as f64 / 100.0);
        }
    }

    #[test]
    fn full_fraction_is_pure_bf16() {
        let mut r = rng();
        let t = Tensor::randn(4, 16, 1.0, &mut r);
        let q = fp4_tile(8).with_outliers(1.0);
        let out = q.fake_quantize(&t, &mut rng());
        let bf16 = Quantizer::unscaled().fake_quantize(&t, &mut rng());
        assert_eq!(out, bf16);
    }

    #[test]
    fn outlier_indices_are_the_largest_magnitudes() {
        let t = Tensor::from_vec(1, 6, vec![0.1, -9.0, 0.3, 7.0, -0.2, 0.4]);
        let idx = select_outliers(&t, 2.0 / 6.0);
        assert_eq!(idx, vec![1, 3]);
        assert_eq!(threshold(&t, &idx), 7.0);
    }

    #[test]
    fn zero_tensor_is_exact() {
        let q = fp4_tile(8).with_outliers(0.05);
        let t = Tensor::zeros(4, 8);
        assert_eq!(q.error_norm(&t), 0.0);
        assert_eq!(q.relative_error(&t), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_fraction_rejected() {
        let _ = fp4_tile(8).with_outliers(1.5);
    }
}
