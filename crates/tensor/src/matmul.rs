//! GEMM kernels in the three orientations a linear layer needs.
//!
//! A SNIP linear layer computes (paper Fig. 5):
//!
//! * forward: `Y = X · Wᵀ` — [`matmul_nt`]
//! * input gradient: `dX = dY · W` — [`matmul`]
//! * weight gradient: `dW = dYᵀ · X` — [`matmul_tn`]
//!
//! All three are thin dense-operand wrappers over the cache-blocked engine
//! in `crate::engine`, which also serves the packed kernels in
//! [`crate::packed`] — the two families share one code path, which is what
//! makes packed results bit-identical to dense results over dequantized
//! operands. Large problems are split into row chunks dispatched on the
//! persistent worker pool in [`crate::pool`]; each output row is written by
//! exactly one task and the per-element accumulation order is fixed
//! (`k` ascending), so results are deterministic — bit-identical — for
//! every pool size and `SNIP_THREADS` setting.

use crate::engine::{gemm, Orientation, Round};
use crate::Tensor;

/// `C = A · B` where `A` is `M×K` and `B` is `K×N`.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// use snip_tensor::{Tensor, matmul::matmul};
/// let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
/// assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(a.into(), b.into(), Orientation::Nn, Round::Keep)
}

/// `C = A · Bᵀ` where `A` is `M×K` and `B` is `N×K` (the forward GEMM of a
/// linear layer whose weight is stored `out_features × in_features`).
///
/// # Panics
///
/// Panics if `A.cols() != B.cols()`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(a.into(), b.into(), Orientation::Nt, Round::Keep)
}

/// `C = Aᵀ · B` where `A` is `K×M` and `B` is `K×N` (the weight-gradient GEMM
/// `dW = dYᵀ · X`).
///
/// # Panics
///
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(a.into(), b.into(), Orientation::Tn, Round::Keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul_reference::matmul_reference;
    use crate::rng::Rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let mut rng = Rng::seed_from(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (16, 8, 16), (33, 17, 9)] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_nt_matches_transposed_reference() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(7, 11, 1.0, &mut rng);
        let b = Tensor::randn(5, 11, 1.0, &mut rng);
        let expect = matmul_reference(&a, &b.transposed());
        assert_close(&matmul_nt(&a, &b), &expect, 1e-4);
    }

    #[test]
    fn matmul_tn_matches_transposed_reference() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(11, 7, 1.0, &mut rng);
        let b = Tensor::randn(11, 5, 1.0, &mut rng);
        let expect = matmul_reference(&a.transposed(), &b);
        assert_close(&matmul_tn(&a, &b), &expect, 1e-4);
    }

    #[test]
    fn large_parallel_matmul_matches_reference() {
        // Big enough to exercise multiple blocks; forced splits exercise the
        // pool even below the work threshold.
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(128, 64, 1.0, &mut rng);
        let b = Tensor::randn(64, 96, 1.0, &mut rng);
        let expect = matmul_reference(&a, &b);
        assert_close(&matmul(&a, &b), &expect, 1e-3);
        let split = crate::pool::with_threads(4, || matmul(&a, &b));
        assert_close(&split, &expect, 1e-3);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(6, 6, 1.0, &mut rng);
        let id = Tensor::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &id), &a, 1e-6);
        assert_close(&matmul(&id, &a), &a, 1e-6);
    }

    #[test]
    fn empty_dims_work() {
        // Serial, and with the pool split forced (no band may be cut from
        // a zero-width output or tile cache).
        for split in [1, 2] {
            crate::pool::with_threads(split, || {
                let a = Tensor::zeros(0, 4);
                let b = Tensor::zeros(4, 3);
                assert_eq!(matmul(&a, &b).shape(), (0, 3));
                let a = Tensor::zeros(2, 0);
                let b = Tensor::zeros(0, 3);
                let c = matmul(&a, &b);
                assert_eq!(c.shape(), (2, 3));
                assert!(c.as_slice().iter().all(|&x| x == 0.0));
                let a = Tensor::zeros(2, 4);
                let b = Tensor::zeros(4, 0);
                assert_eq!(matmul(&a, &b).shape(), (2, 0));
                assert_eq!(matmul_nt(&a, &Tensor::zeros(0, 4)).shape(), (2, 0));
            });
        }
    }

    /// A zero on the A side must not mask a NaN/Inf on the B side: IEEE-754
    /// says `0 × NaN = NaN` and `0 × Inf = NaN`, and an overflow or a
    /// poisoned activation upstream has to surface in the loss, not vanish.
    /// (The old kernels skipped `aik == 0.0` inner loops, silently dropping
    /// exactly this propagation — and defeating vectorization.)
    #[test]
    fn zeros_do_not_mask_non_finite_operands() {
        let m = 3;
        let k = 4;
        let n = 5;
        // A is all zeros; B carries a NaN row and an Inf row.
        let a = Tensor::zeros(m, k);
        let mut b = Tensor::zeros(k, n);
        b[(1, 2)] = f32::NAN;
        b[(3, 0)] = f32::INFINITY;

        let c = matmul(&a, &b);
        assert!(
            c[(0, 2)].is_nan(),
            "0 · NaN must propagate, got {}",
            c[(0, 2)]
        );
        assert!(
            c[(0, 0)].is_nan(),
            "0 · Inf must yield NaN, got {}",
            c[(0, 0)]
        );
        assert_eq!(c[(0, 1)], 0.0);

        // Same property through the tn orientation (A transposed, zeros in A).
        let at = Tensor::zeros(k, m);
        let c = matmul_tn(&at, &b);
        assert!(c[(1, 2)].is_nan());
        assert!(c[(2, 0)].is_nan());

        // And nt: a NaN in B's K dimension hits every dot it participates in.
        let mut bt = Tensor::zeros(n, k);
        bt[(2, 1)] = f32::NAN;
        let c = matmul_nt(&a, &bt);
        assert!(c[(0, 2)].is_nan());
        assert_eq!(c[(0, 0)], 0.0);
    }
}
