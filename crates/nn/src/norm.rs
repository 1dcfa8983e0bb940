//! RMSNorm (kept in high precision — paper §2.2 quantizes only linear layers).

use crate::param::Param;
use snip_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Root-mean-square layer normalization with a learnable gain:
/// `y = x / rms(x) ⊙ g`, `rms(x) = sqrt(mean(x²) + ε)`.
#[derive(Clone, Debug)]
pub(crate) struct RmsNorm {
    gain: Param,
}

/// Saved forward state for the backward pass.
#[derive(Clone, Debug)]
pub(crate) struct RmsNormCache {
    /// Input activations.
    pub x: Tensor,
    /// Per-row `1 / rms(x)`.
    pub inv_rms: Vec<f32>,
}

impl RmsNorm {
    /// Creates an RMSNorm over `dim` features with gain initialized to 1.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        RmsNorm {
            gain: Param::full(name, 1, dim, 1.0),
        }
    }

    /// The gain parameter.
    pub fn gain(&self) -> &Param {
        &self.gain
    }

    /// Mutable access to the gain parameter.
    pub(crate) fn gain_mut(&mut self) -> &mut Param {
        &mut self.gain
    }

    /// Forward pass over `tokens × dim` activations. The input moves into
    /// the cache, where the backward pass (and a caller that needs it back,
    /// through [`RmsNormCache::x`]) reads it.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the gain dimension.
    pub fn forward(&self, x: Tensor) -> (Tensor, RmsNormCache) {
        let (rows, cols) = x.shape();
        assert_eq!(cols, self.gain.value().cols(), "dimension mismatch");
        let g = self.gain.value().row(0);
        let mut y = Tensor::zeros(rows, cols);
        let mut inv_rms = Vec::with_capacity(rows);
        for r in 0..rows {
            let xr = x.row(r);
            let ms: f32 = xr.iter().map(|&v| v * v).sum::<f32>() / cols as f32;
            let inv = 1.0 / (ms + EPS).sqrt();
            inv_rms.push(inv);
            let yr = y.row_mut(r);
            for c in 0..cols {
                yr[c] = xr[c] * inv * g[c];
            }
        }
        (y, RmsNormCache { x, inv_rms })
    }

    /// Backward pass: returns `dx` and accumulates the gain gradient.
    pub fn backward(&mut self, dy: &Tensor, cache: &RmsNormCache) -> Tensor {
        let (rows, cols) = dy.shape();
        let g = self.gain.value().row(0);
        let mut dx = Tensor::zeros(rows, cols);
        let mut dg = vec![0.0f32; cols];
        for r in 0..rows {
            let xr = cache.x.row(r);
            let dyr = dy.row(r);
            let inv = cache.inv_rms[r];
            // s = Σ_j dy_j · g_j · x_j
            let mut s = 0.0f32;
            for c in 0..cols {
                s += dyr[c] * g[c] * xr[c];
            }
            let k = s * inv * inv * inv / cols as f32;
            let dxr = dx.row_mut(r);
            for c in 0..cols {
                dxr[c] = dyr[c] * g[c] * inv - xr[c] * k;
                dg[c] += dyr[c] * xr[c] * inv;
            }
        }
        self.gain.accumulate_grad(&Tensor::from_vec(1, cols, dg));
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::rng::Rng;

    #[test]
    fn output_has_unit_rms_with_unit_gain() {
        let mut rng = Rng::seed_from(31);
        let norm = RmsNorm::new("n", 32);
        let x = Tensor::randn(4, 32, 3.0, &mut rng);
        let (y, _) = norm.forward(x.clone());
        for r in 0..4 {
            let ms: f32 = y.row(r).iter().map(|&v| v * v).sum::<f32>() / 32.0;
            assert!((ms - 1.0).abs() < 1e-3, "row {r}: ms = {ms}");
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng::seed_from(32);
        let mut norm = RmsNorm::new("n", 8);
        // non-trivial gain
        *norm.gain_mut().value_mut() = Tensor::randn(1, 8, 1.0, &mut rng).map(|v| 1.0 + 0.3 * v);
        let x = Tensor::randn(3, 8, 1.0, &mut rng);
        let r_proj = Tensor::randn(3, 8, 1.0, &mut rng);

        let (_, cache) = norm.forward(x.clone());
        let dx = norm.backward(&r_proj, &cache);

        let loss =
            |norm: &RmsNorm, x: &Tensor| -> f64 { norm.forward(x.clone()).0.mul(&r_proj).sum() };
        for &(i, j) in &[(0usize, 0usize), (1, 3), (2, 7)] {
            let h = 1e-3f32;
            let mut xp = x.clone();
            xp[(i, j)] += h;
            let mut xm = x.clone();
            xm[(i, j)] -= h;
            let fd = (loss(&norm, &xp) - loss(&norm, &xm)) / (2.0 * h as f64);
            let an = dx[(i, j)] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "fd={fd} an={an}");
        }
    }

    #[test]
    fn gain_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(33);
        let mut norm = RmsNorm::new("n", 6);
        let x = Tensor::randn(4, 6, 1.0, &mut rng);
        let r_proj = Tensor::randn(4, 6, 1.0, &mut rng);
        norm.gain_mut().zero_grad();
        let (_, cache) = norm.forward(x.clone());
        let _ = norm.backward(&r_proj, &cache);
        let dg = norm.gain().grad().clone();

        for j in [0usize, 3, 5] {
            let h = 1e-3f32;
            let mut np = norm.clone();
            np.gain_mut().value_mut()[(0, j)] += h;
            let mut nm = norm.clone();
            nm.gain_mut().value_mut()[(0, j)] -= h;
            let fd = (np.forward(x.clone()).0.mul(&r_proj).sum()
                - nm.forward(x.clone()).0.mul(&r_proj).sum())
                / (2.0 * h as f64);
            let an = dg[(0, j)] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "fd={fd} an={an}");
        }
    }

    #[test]
    fn zero_input_is_stable() {
        let mut norm = RmsNorm::new("n", 4);
        let x = Tensor::zeros(2, 4);
        let (y, cache) = norm.forward(x.clone());
        assert!(y.all_finite());
        let dx = norm.backward(&Tensor::full(2, 4, 1.0), &cache);
        assert!(dx.all_finite());
    }
}
