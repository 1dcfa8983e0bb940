//! Elementwise and reduction operations used by the transformer stack.

use crate::Tensor;

/// Numerically stable softmax applied to each row in place.
///
/// # Example
///
/// ```
/// use snip_tensor::{Tensor, ops::softmax_rows_inplace};
/// let mut t = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
/// softmax_rows_inplace(&mut t);
/// let s: f32 = t.as_slice().iter().sum();
/// assert!((s - 1.0).abs() < 1e-6);
/// ```
pub fn softmax_rows_inplace(t: &mut Tensor) {
    let cols = t.cols();
    if cols == 0 {
        return;
    }
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// SiLU activation `x * sigmoid(x)` (the "Swish" in SwiGLU).
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Derivative of [`silu`] with respect to its input.
#[inline]
pub fn silu_grad(x: f32) -> f32 {
    let s = 1.0 / (1.0 + (-x).exp());
    s * (1.0 + x * (1.0 - s))
}

/// Frobenius norm of a raw slice (ℓ2 of the flattened data), `f64` accumulation.
pub fn frobenius_norm(data: &[f32]) -> f64 {
    data.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

/// Frobenius norm of the difference of two same-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn frobenius_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Dot product with `f64` accumulation.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64) * (y as f64))
        .sum()
}

/// Relative Frobenius error `‖a − b‖_F / ‖b‖_F` (0 when both are zero).
pub fn relative_error(a: &[f32], b: &[f32]) -> f64 {
    let denom = frobenius_norm(b);
    if denom == 0.0 {
        if frobenius_norm(a) == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        frobenius_distance(a, b) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut rng = Rng::seed_from(8);
        let mut t = Tensor::randn(5, 9, 2.0, &mut rng);
        let orig = t.clone();
        softmax_rows_inplace(&mut t);
        for r in 0..t.rows() {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            // argmax preserved
            let am_orig = orig
                .row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            let am_new = t
                .row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(am_orig, am_new);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut t = Tensor::from_vec(1, 3, vec![1000.0, 1001.0, 999.0]);
        softmax_rows_inplace(&mut t);
        assert!(t.all_finite());
        let s: f32 = t.as_slice().iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn silu_matches_finite_difference() {
        for &x in &[-3.0f32, -0.5, 0.0, 0.7, 2.5] {
            let h = 1e-3;
            let fd = (silu(x + h) - silu(x - h)) / (2.0 * h);
            assert!((silu_grad(x) - fd).abs() < 1e-3, "x = {x}");
        }
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert!(relative_error(&[1.0], &[0.0]).is_infinite());
        let e = relative_error(&[1.1, 2.0], &[1.0, 2.0]);
        assert!(e > 0.0 && e < 0.1);
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((frobenius_distance(&[0.0, 3.0], &[4.0, 3.0]) - 4.0).abs() < 1e-12);
    }
}
