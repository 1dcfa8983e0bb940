//! Dense row-major 2-D `f32` tensor.

use crate::arena;
use crate::pool;
use crate::rng::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, two-dimensional `f32` tensor.
///
/// All shapes in the SNIP stack are two-dimensional once batch and sequence
/// dimensions are flattened ("tokens × features"), so `Tensor` deliberately
/// does not support higher ranks — attention code indexes heads explicitly.
///
/// # Example
///
/// ```
/// use snip_tensor::Tensor;
/// let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(t[(1, 2)], 5.0);
/// assert_eq!(t.shape(), (2, 3));
/// ```
///
/// Storage of at least [`arena::FLOOR`] floats comes from, and goes back
/// to, the step-scoped [`arena`]: inside a training step a tensor reuses
/// the buffer of one dropped at the same size in the step before.
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = arena::take(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        arena::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: arena::zeroed(rows * cols),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = arena::take(rows * cols);
        data.fill(value);
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Creates a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = arena::take(rows * cols);
        if cols > 0 {
            for (r, row) in data.chunks_exact_mut(cols).enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = f(r, c);
                }
            }
        }
        Tensor { rows, cols, data }
    }

    /// Creates a tensor with i.i.d. Gaussian entries of the given std-dev.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        rng.fill_gaussian(&mut t.data, std);
        t
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing buffer. The buffer leaves
    /// the arena's care: hand it back with [`arena::give`] once done.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new tensor with the same shape whose entries are `f(x)`.
    /// Large tensors are split into contiguous bands over the pool
    /// ([`PARALLEL_ELEMENTS`]).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = arena::take(self.data.len());
        for_each_band(&mut data, |start, out| {
            for (o, &x) in out.iter_mut().zip(&self.data[start..]) {
                *o = f(x);
            }
        });
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise sum, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise combination of two same-shape tensors, banded over the
    /// pool like [`Tensor::map`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut data = arena::take(self.data.len());
        for_each_band(&mut data, |start, out| {
            let ab = self.data[start..].iter().zip(&other.data[start..]);
            for (o, (&a, &b)) in out.iter_mut().zip(ab) {
                *o = f(a, b);
            }
        });
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self += other`, banded over the pool like [`Tensor::map`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for_each_band(&mut self.data, |start, band| {
            for (a, b) in band.iter_mut().zip(&other.data[start..]) {
                *a += b;
            }
        });
    }

    /// `self += alpha * other` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns the transposed tensor.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm (ℓ2 norm of the flattened tensor).
    ///
    /// Accumulates in `f64` so large tensors do not lose precision.
    pub fn frobenius_norm(&self) -> f64 {
        self.squared_sum().sqrt()
    }

    /// Sum of squared entries, accumulated in `f64`.
    pub fn squared_sum(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Sum of entries, accumulated in `f64`.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of entries.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute entry (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Whether every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Frobenius norm of `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn distance(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Fills the tensor with zeros.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// Elementwise ops ([`Tensor::map`], [`Tensor::zip`],
/// [`Tensor::add_assign`]) on fewer elements than this run on the calling
/// thread; larger ones split into one contiguous band per pool thread.
/// Measured on a 2-core AVX-512 box, median of 200 calls, one band vs two:
/// - a SiLU `map` / SwiGLU `zip` (an `exp` per element, ≈ 6 ns) already
///   wins from 2^16 elements (380 → 250–280 µs) and at 256 × 768 read
///   1190 → 570 and 730 → 650 µs in two runs;
/// - a plain `add_assign` (pure bandwidth) loses below the line (2^17:
///   28 → 34 µs), ties at 256 × 768 (46 µs both ways) and wins from 2^18
///   (80 → 56 µs; 2^19: 210–240 → 100–140 µs).
///
/// 2^17 takes every SiLU gain of the benchmark fixture (its FFN tensors are
/// 256 × 2048 = 2^19) and keeps the residual adds at break-even or better.
pub const PARALLEL_ELEMENTS: usize = 1 << 17;

/// Runs `f(start, band)` over contiguous bands of `out`, `start` being the
/// band's first element index: one band below [`PARALLEL_ELEMENTS`], one per
/// pool thread above it (or the forced split of
/// [`pool::with_threads`]). Every element is computed by the same
/// expression whatever the split, so results are bit-identical.
fn for_each_band(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let parts = pool::parts_for(out.len(), PARALLEL_ELEMENTS);
    // An empty slice has no bands to cut (`chunks_mut(0)` panics).
    if parts <= 1 || out.len() <= 1 {
        f(0, out);
        return;
    }
    let band = out.len().div_ceil(parts);
    pool::for_each_owned(out.chunks_mut(band).collect(), |i, chunk| {
        f(i * band, chunk)
    });
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, .. ; |.|_F = {:.4}]",
                self.data[0],
                self.data[1],
                self.frobenius_norm()
            )?;
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t[(2, 3)], 23.0);
        assert_eq!(t.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::full(2, 2, 2.0);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul(&b).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 2);
        let b = Tensor::zeros(2, 3);
        let _ = a.add(&b);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(1, 3, 1.0);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed()[(4, 2)], t[(2, 4)]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(t.max_abs(), 4.0);
        let u = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        assert!((t.distance(&u) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!(t.all_finite());
        let mut bad = t.clone();
        bad[(0, 0)] = f32::NAN;
        assert!(!bad.all_finite());
    }

    #[test]
    fn randn_deterministic_given_seed() {
        let mut r1 = crate::rng::Rng::seed_from(10);
        let mut r2 = crate::rng::Rng::seed_from(10);
        let a = Tensor::randn(4, 4, 1.0, &mut r1);
        let b = Tensor::randn(4, 4, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_std_approximately_matches() {
        let mut rng = crate::rng::Rng::seed_from(3);
        let t = Tensor::randn(100, 100, 0.5, &mut rng);
        let std = (t.squared_sum() / t.len() as f64).sqrt();
        assert!((std - 0.5).abs() < 0.02, "std = {std}");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Tensor::zeros(0, 0)).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(64, 64)).is_empty());
    }
}
