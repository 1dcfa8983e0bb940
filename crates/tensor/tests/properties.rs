//! Property-based tests for the tensor substrate.

#[path = "support/matmul_reference.rs"]
mod matmul_reference;

use matmul_reference::matmul_reference;
use proptest::prelude::*;
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::ops::{frobenius_norm, softmax_rows_inplace};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    (0u64..10_000).prop_map(move |seed| {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(rows, cols, 1.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM is linear: (αA)·B == α(A·B).
    #[test]
    fn matmul_is_homogeneous(a in tensor_strategy(5, 7), b in tensor_strategy(7, 3), alpha in -2.0f32..2.0) {
        let mut a_scaled = a.clone();
        a_scaled.scale(alpha);
        let lhs = matmul(&a_scaled, &b);
        let mut rhs = matmul(&a, &b);
        rhs.scale(alpha);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// GEMM distributes over addition: (A+B)·C == A·C + B·C.
    #[test]
    fn matmul_distributes(a in tensor_strategy(4, 6), b in tensor_strategy(4, 6), c in tensor_strategy(6, 5)) {
        let lhs = matmul(&a.add(&b), &c);
        let rhs = matmul(&a, &c).add(&matmul(&b, &c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// The fast kernels agree with the naive reference in all orientations.
    #[test]
    fn kernels_match_reference(a in tensor_strategy(9, 11), b in tensor_strategy(11, 4)) {
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let bt = b.transposed();
        let nt = matmul_nt(&a, &bt);
        for (x, y) in nt.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        let at = a.transposed();
        let tn = matmul_tn(&at, &b);
        for (x, y) in tn.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// ‖A + B‖ ≤ ‖A‖ + ‖B‖ (triangle inequality).
    #[test]
    fn norm_triangle_inequality(a in tensor_strategy(6, 6), b in tensor_strategy(6, 6)) {
        prop_assert!(a.add(&b).frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    /// Softmax output is invariant to adding a constant to a row.
    #[test]
    fn softmax_shift_invariance(t in tensor_strategy(3, 8), shift in -5.0f32..5.0) {
        let mut a = t.clone();
        softmax_rows_inplace(&mut a);
        let mut b = t.map(|x| x + shift);
        softmax_rows_inplace(&mut b);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// Transpose is an isometry for the Frobenius norm and an involution.
    #[test]
    fn transpose_properties(t in tensor_strategy(7, 3)) {
        prop_assert!((t.transposed().frobenius_norm() - t.frobenius_norm()).abs() < 1e-9);
        prop_assert_eq!(t.transposed().transposed(), t);
    }

    /// `frobenius_norm` on a slice matches the tensor method.
    #[test]
    fn slice_norm_matches(t in tensor_strategy(4, 9)) {
        prop_assert!((frobenius_norm(t.as_slice()) - t.frobenius_norm()).abs() < 1e-12);
    }

    /// axpy is consistent with scale+add.
    #[test]
    fn axpy_consistency(a in tensor_strategy(5, 5), b in tensor_strategy(5, 5), alpha in -3.0f32..3.0) {
        let mut lhs = a.clone();
        lhs.axpy(alpha, &b);
        let mut scaled = b.clone();
        scaled.scale(alpha);
        let rhs = a.add(&scaled);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }
}
