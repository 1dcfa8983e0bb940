//! Randomized Hadamard transform (RHT) pre-rotation.
//!
//! The MXFP4 training line of work the paper cites (§7, \[68\]) improves FP4
//! accuracy by rotating tensors with a *random Hadamard transform* before
//! quantization: `x → H·D·x / √n`, where `H` is a Walsh–Hadamard matrix and
//! `D` a random ±1 diagonal. The rotation is orthogonal, so the GEMM result
//! is unchanged if both operands rotate consistently; its value is that it
//! spreads outliers across the block — a single spike of magnitude `m`
//! becomes `n` coordinates of magnitude `m/√n` — which shrinks the max-abs
//! scale and cuts quantization error on heavy-tailed tensors.
//!
//! SNIP treats such techniques as additional quantization *options* (§5.2);
//! [`crate::Quantizer::with_rht`] puts any max-abs quantizer behind the
//! rotation ([`crate::Recipe::Rht`]) so RHT variants can enter the ILP next
//! to the plain FP8/FP4 recipes (see `examples/custom_quantizer.rs` and the
//! `ablation_rht` experiment). This module holds the transform itself.

use serde::{Deserialize, Serialize};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

/// In-place fast Walsh–Hadamard transform (unnormalized butterfly).
///
/// Applying it twice multiplies the input by `len`; orthonormal users scale
/// by `1/√len` after each application (see [`RhtRotation`]).
///
/// # Panics
///
/// Panics unless `v.len()` is a power of two (the Hadamard matrix only
/// exists for those sizes).
pub fn fwht_inplace(v: &mut [f32]) {
    let n = v.len();
    assert!(n.is_power_of_two(), "FWHT length {n} is not a power of two");
    let mut h = 1;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let x = v[j];
                let y = v[j + h];
                v[j] = x + y;
                v[j + h] = x - y;
            }
            i += h * 2;
        }
        h *= 2;
    }
}

/// A seeded randomized Hadamard rotation `F(x) = H·D·x / √n`.
///
/// `F` is orthogonal (it preserves ℓ2 norms and inner products), and because
/// `H` is symmetric with `H² = n·I`, the inverse is
/// `F⁻¹(y) = D · (H·y / √n)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RhtRotation {
    signs: Vec<f32>,
}

impl RhtRotation {
    /// Builds the rotation for vectors of length `len` with a seeded ±1
    /// diagonal.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is a power of two.
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(
            len.is_power_of_two(),
            "RHT length {len} is not a power of two"
        );
        let mut rng = Rng::seed_from(seed);
        let signs = (0..len)
            .map(|_| if rng.next_f32() < 0.5 { -1.0 } else { 1.0 })
            .collect();
        RhtRotation { signs }
    }

    /// Vector length this rotation applies to.
    pub fn len(&self) -> usize {
        self.signs.len()
    }

    /// Whether the rotation is over zero-length vectors (never true for
    /// constructed rotations).
    pub fn is_empty(&self) -> bool {
        self.signs.is_empty()
    }

    /// Applies `x ← H·D·x / √n`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the rotation length.
    pub fn forward(&self, v: &mut [f32]) {
        assert_eq!(v.len(), self.signs.len(), "rotation length mismatch");
        for (x, s) in v.iter_mut().zip(&self.signs) {
            *x *= s;
        }
        fwht_inplace(v);
        let inv_sqrt = 1.0 / (v.len() as f32).sqrt();
        for x in v.iter_mut() {
            *x *= inv_sqrt;
        }
    }

    /// Applies the inverse `y ← D·(H·y / √n)`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the rotation length.
    pub fn inverse(&self, v: &mut [f32]) {
        assert_eq!(v.len(), self.signs.len(), "rotation length mismatch");
        fwht_inplace(v);
        let inv_sqrt = 1.0 / (v.len() as f32).sqrt();
        for (x, s) in v.iter_mut().zip(&self.signs) {
            *x = *x * inv_sqrt * s;
        }
    }
}

/// Visits each rotated chunk of a row of `cols` elements as `(start, len)`
/// with `len` a power of two at most `block`; lone trailing elements
/// (len 1) are skipped — a 1-point rotation is the identity.
pub(crate) fn for_each_chunk(cols: usize, block: usize, mut f: impl FnMut(usize, usize)) {
    let mut c = 0;
    while c < cols {
        let rem = cols - c;
        let len = if rem >= block {
            block
        } else {
            let mut l = 1;
            while l * 2 <= rem {
                l *= 2;
            }
            l
        };
        if len > 1 {
            f(c, len);
        }
        c += len;
    }
}

/// The rotation of one row of `cols` elements: every chunk of
/// [`for_each_chunk`] under its per-length rotation, seeded `seed ^ len`.
///
/// Rows are processed in contiguous chunks of `block` elements (a power of
/// two, typically matching the quantizer's tile length). A trailing
/// remainder shorter than `block` is rotated with the largest power-of-two
/// rotation that fits; at most one final element stays unrotated.
pub(crate) struct RowRotation {
    /// `(first column, rotation)` of every rotated chunk.
    chunks: Vec<(usize, RhtRotation)>,
}

impl RowRotation {
    pub(crate) fn new(cols: usize, block: usize, seed: u64) -> Self {
        let mut chunks: Vec<(usize, RhtRotation)> = Vec::new();
        for_each_chunk(cols, block, |c, len| {
            let built = chunks.iter().find(|(_, rot)| rot.len() == len);
            let rot = match built {
                Some((_, rot)) => rot.clone(),
                None => RhtRotation::new(len, seed ^ len as u64),
            };
            chunks.push((c, rot));
        });
        RowRotation { chunks }
    }

    /// Rotates `row` forward (`forward = true`) or backward in place.
    pub(crate) fn apply(&self, row: &mut [f32], forward: bool) {
        for (c, rot) in &self.chunks {
            let chunk = &mut row[*c..c + rot.len()];
            if forward {
                rot.forward(chunk);
            } else {
                rot.inverse(chunk);
            }
        }
    }
}

/// Rotates every row of `t` forward or backward. This is the one rotation
/// routine shared by the fake-quantization oracle, the packer and the
/// packed representation's decode — sharing it is what keeps them
/// bit-identical.
pub(crate) fn rotate_rows(t: &mut Tensor, block: usize, seed: u64, forward: bool) {
    let rotation = RowRotation::new(t.cols(), block, seed);
    for r in 0..t.rows() {
        rotation.apply(t.row_mut(r), forward);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::{Quantizer, Rounding};

    fn rng() -> Rng {
        Rng::seed_from(99)
    }

    #[test]
    fn fwht_twice_is_n_times_identity() {
        let mut r = rng();
        let original: Vec<f32> = (0..16).map(|_| r.next_f32() * 4.0 - 2.0).collect();
        let mut v = original.clone();
        fwht_inplace(&mut v);
        fwht_inplace(&mut v);
        for (a, b) in v.iter().zip(&original) {
            assert!((a - b * 16.0).abs() < 1e-4, "{a} vs 16*{b}");
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut v = vec![0.0; 12];
        fwht_inplace(&mut v);
    }

    #[test]
    fn rotation_round_trips() {
        let rot = RhtRotation::new(32, 5);
        let mut r = rng();
        let original: Vec<f32> = (0..32).map(|_| r.next_f32() * 2.0 - 1.0).collect();
        let mut v = original.clone();
        rot.forward(&mut v);
        rot.inverse(&mut v);
        for (a, b) in v.iter().zip(&original) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let rot = RhtRotation::new(64, 11);
        let mut r = rng();
        let mut v: Vec<f32> = (0..64).map(|_| r.next_f32() * 6.0 - 3.0).collect();
        let before: f64 = v.iter().map(|x| (*x as f64).powi(2)).sum();
        rot.forward(&mut v);
        let after: f64 = v.iter().map(|x| (*x as f64).powi(2)).sum();
        assert!(
            (before - after).abs() < 1e-3 * before,
            "{before} vs {after}"
        );
    }

    #[test]
    fn rotation_spreads_a_spike_uniformly() {
        // One-hot of magnitude m maps to n coordinates of magnitude m/√n.
        let n = 64;
        let rot = RhtRotation::new(n, 3);
        let mut v = vec![0.0f32; n];
        v[17] = 8.0;
        rot.forward(&mut v);
        let expect = 8.0 / (n as f32).sqrt();
        for x in &v {
            assert!((x.abs() - expect).abs() < 1e-5, "|{x}| vs {expect}");
        }
    }

    #[test]
    fn seeds_change_the_rotation() {
        let a = RhtRotation::new(16, 1);
        let b = RhtRotation::new(16, 2);
        assert_ne!(a, b);
    }

    fn fp4_tile(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    #[test]
    fn rht_reduces_error_on_outlier_heavy_tensors() {
        // Gaussian rows with one large outlier each, quantized with the
        // paper's 1×128 tiles: the outlier inflates the tile scale and the
        // background collapses to zero under plain FP4. A 128-length
        // rotation spreads the spike to ±60/√128 ≈ 5.3, comparable to the
        // background, so the rotated tensor is a well-behaved Gaussian the
        // FP4 grid handles with ~10% relative error.
        //
        // (Block length matters: a 32-length rotation would concentrate the
        // same spike at ±10.6 per coordinate — far above σ = 1 — pushing all
        // mass into E2M1's coarse top octave and *losing* to plain FP4.
        // Rotation blocks must match the outlier-to-background ratio, which
        // is why MXFP4-style recipes rotate whole tiles.)
        let mut r = rng();
        let mut t = Tensor::randn(16, 128, 1.0, &mut r);
        for row in 0..16 {
            t[(row, (row * 13) % 128)] = 60.0 * if row % 2 == 0 { 1.0 } else { -1.0 };
        }
        let plain = fp4_tile(128);
        let rht = fp4_tile(128).with_rht(128, 7);
        let e_plain = plain.error_norm(&t);
        let e_rht = rht.error_norm(&t);
        assert!(
            e_rht < 0.8 * e_plain,
            "RHT error {e_rht} should clearly beat plain {e_plain}"
        );
    }

    #[test]
    fn undersized_rotation_loses_on_extreme_spikes() {
        // The counterpart of the test above, pinned so the block-length
        // caveat in the module docs stays true: spreading a 60σ spike over
        // only 32 coordinates makes every coordinate ±10.6σ and FP4 coarser
        // than the plain background collapse.
        let mut r = rng();
        let mut t = Tensor::randn(16, 128, 1.0, &mut r);
        for row in 0..16 {
            t[(row, (row * 13) % 128)] = 60.0;
        }
        let plain = fp4_tile(32);
        let rht = fp4_tile(32).with_rht(32, 7);
        assert!(rht.error_norm(&t) > plain.error_norm(&t) * 0.9);
    }

    #[test]
    fn rht_error_matches_rotated_domain_error() {
        // Orthogonality: measuring the error after inverse rotation equals
        // measuring it in the rotated domain.
        let mut r = rng();
        let t = Tensor::randn(4, 64, 1.0, &mut r);
        let rht = fp4_tile(64).with_rht(64, 13);
        let e_end_to_end = rht.error_norm(&t);
        // Manual: rotate, quantize, compare in rotated space.
        let mut rotated = t.clone();
        rotate_rows(&mut rotated, 64, 13, true);
        let q = fp4_tile(64).fake_quantize(&rotated, &mut Rng::seed_from(0));
        let e_rotated = q.distance(&rotated);
        assert!(
            (e_end_to_end - e_rotated).abs() < 1e-4 * e_rotated.max(1e-9),
            "{e_end_to_end} vs {e_rotated}"
        );
    }

    #[test]
    fn tail_shorter_than_block_is_handled() {
        // 100 columns with block 32: chunks 32+32+32 then a 4-tail (2², with
        // 0 left over) — all elements must still round-trip through
        // rotate/inverse when quantization is disabled-ish (a 16-bit grid).
        let mut r = rng();
        let t = Tensor::randn(3, 100, 1.0, &mut r);
        let identity_ish = Quantizer::new(
            FloatFormat::bf16(),
            Granularity::Tensorwise,
            Rounding::Nearest,
        );
        let rht = identity_ish.with_rht(32, 21);
        let out = rht.fake_quantize(&t, &mut rng());
        // BF16 rounding noise only — relative error well below FP4's.
        assert!(out.distance(&t) / t.frobenius_norm() < 5e-3);
    }

    #[test]
    fn one_column_tensor_passes_through() {
        let t = Tensor::from_vec(3, 1, vec![1.0, -2.0, 3.0]);
        let rht = fp4_tile(16).with_rht(16, 2);
        let out = rht.fake_quantize(&t, &mut rng());
        // len-1 chunks skip rotation; FP4 grid holds 1, -2, 3 exactly
        // (scale maps each row's single element onto ±6).
        for i in 0..3 {
            assert!((out[(i, 0)] - t[(i, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_block_rejected() {
        let _ = fp4_tile(16).with_rht(24, 0);
    }
}
