//! Gaussian noise-injection probes (SNIP Steps 2–3, paper Fig. 6 and §4.3.1).
//!
//! Estimating the second-order propagation norms `‖∇_{X_j} g_l‖` exactly is
//! prohibitive, so the paper applies Theorem 4.2: inject a small Gaussian
//! perturbation at the last layer — once in the backward pass (Step 2), once
//! in the forward pass (Step 3) — re-run the pass on the *same batch* without
//! updating weights, dump the per-layer weight gradients, and compare with
//! the no-noise baseline.

use serde::{Deserialize, Serialize};
use snip_tensor::{rng::Rng, Tensor};

/// A noise-injection request for one probe pass. Where the noise enters is
/// the caller's choice of tensor: SNIP's probe applies it between the
/// stages of [`crate::model::Model::step`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// Target Frobenius norm of the injected noise (the `ε` of Theorem 4.2).
    pub epsilon: f64,
    /// Seed for the noise tensor, so probes are reproducible.
    pub seed: u64,
}

impl Injection {
    /// Samples the noise tensor for a target of the given shape: i.i.d.
    /// Gaussian entries with `σ = ε / √(numel)` so that `E‖δ‖_F = ε`
    /// (Theorem 4.1's `δ ∼ N(0, ε²/d · I_d)`).
    pub fn sample(&self, rows: usize, cols: usize) -> Tensor {
        let mut rng = Rng::seed_from(self.seed);
        let d = (rows * cols) as f64;
        let std = (self.epsilon / d.sqrt()) as f32;
        Tensor::randn(rows, cols, std, &mut rng)
    }

    /// Adds this request's noise to `t` in place.
    pub fn apply(&self, t: &mut Tensor) {
        t.add_assign(&self.sample(t.rows(), t.cols()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_noise_has_target_norm() {
        let inj = Injection {
            epsilon: 0.5,
            seed: 7,
        };
        let noise = inj.sample(64, 64);
        let norm = noise.frobenius_norm();
        assert!((norm - 0.5).abs() < 0.05, "‖δ‖ = {norm}");
    }

    #[test]
    fn same_seed_same_noise() {
        let inj = Injection {
            epsilon: 1.0,
            seed: 3,
        };
        assert_eq!(inj.sample(8, 8), inj.sample(8, 8));
    }
}
