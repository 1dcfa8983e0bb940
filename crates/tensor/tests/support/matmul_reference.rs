//! Test support: the naive triple-loop GEMM the engine's GEMMs are checked
//! against. The property suite includes this file by `#[path]`; the
//! crate's unit tests reach it through a `#[path]` include in `lib.rs`.

use snip_tensor::Tensor;

/// `C = A · B`, one `f32` dot product per output element, `k` ascending.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_reference: inner dims differ");
    let mut c = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}
