//! Per-layer observation of a step (SNIP Step 1: "Collect Stats", paper
//! Fig. 6).
//!
//! The model's stages report each quantizable linear layer to a
//! [`LayerTap`]. SNIP's statistics taps (`snip_core`'s probe and
//! `option_errors`) reduce each live operand and keep no tensor.
//! [`StepRecord`], what [`StepOptions::record`](crate::model::StepOptions::record)
//! fills, snapshots every layer's `X`, `W`, `dY` and `dW`: the oracle those
//! taps are tested against.

use crate::layers::LayerId;
use crate::linear::{Linear, LinearCache};
use snip_tensor::Tensor;

/// An observer of the quantizable linear layers of one pass. The forward and
/// backward stages of [`crate::model::Model`] call it once per layer with
/// what exists only at that moment, and each tap keeps what it needs:
/// [`StepRecord`] snapshots every tensor (it outlives the model borrow),
/// while SNIP's statistics reduce each tensor while it is live and keep no
/// tensor at all.
///
/// A tap may also say where a layer's weight-gradient GEMM writes `dW`
/// ([`LayerTap::lend_dw`]). By default it lends nothing and `dW` lands in
/// the weight's gradient, as on every training step; the probe lends one
/// reused scratch buffer, so its noise-injected passes leave the weight
/// gradients, and the base `dW` it moved out of them, untouched.
pub trait LayerTap {
    /// After layer `id`'s forward GEMM: the layer, the operand reads it
    /// saved for backward (`cache.qx.dequantize()` is `X` as the GEMM read
    /// it), and its output `y`.
    fn forward(&mut self, id: LayerId, lin: &Linear, cache: &LinearCache, y: &Tensor);

    /// After layer `id`'s backward GEMMs: the output gradient `dy` it
    /// received, the (BF16-rounded) weight gradient `dw` it produced, and
    /// the input gradient `dx` it returns. `dw` is the buffer
    /// [`LayerTap::lend_dw`] lent, or else the weight's gradient, which
    /// the next pass overwrites — so a tap that keeps it copies it.
    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: &Tensor, dx: &Tensor);

    /// Before layer `id`'s backward: a buffer of the weight's `shape`
    /// (`out × in`) to write `dW` into instead of the weight's gradient,
    /// which that pass then leaves as it was. The buffer comes back as
    /// [`LayerTap::backward`]'s `dw`, then through
    /// [`LayerTap::reclaim_dw`]. `None`, the default: the gradient.
    fn lend_dw(&mut self, _id: LayerId, _shape: (usize, usize)) -> Option<Tensor> {
        None
    }

    /// After [`LayerTap::backward`]: the buffer [`LayerTap::lend_dw`]
    /// lent, back with the layer's `dW` in it. The default drops it.
    fn reclaim_dw(&mut self, _dw: Tensor) {}
}

/// Everything recorded about one linear layer in one step.
#[derive(Clone, Debug, Default)]
pub struct LinearRecord {
    /// Input activations as consumed by the forward GEMM (`tokens × in`).
    pub x: Tensor,
    /// Weight snapshot (`out × in`).
    pub w: Tensor,
    /// Output gradient (`tokens × out`).
    pub dy: Tensor,
    /// Weight gradient produced this step (`out × in`).
    pub dw: Tensor,
    /// `‖Y‖_F` of the forward output.
    pub y_norm: f64,
    /// `‖∇_X L‖_F` — the input-gradient norm (used by loss divergence, §4.2).
    pub dx_norm: f64,
}

/// A full step record: loss plus one [`LinearRecord`] per quantizable layer,
/// indexed by [`LayerId::linear_index`].
#[derive(Clone, Debug, Default)]
pub struct StepRecord {
    /// Mean token cross-entropy of the recorded step.
    pub loss: f64,
    /// Tokens in the recorded batch.
    pub ntokens: usize,
    /// Per-layer records (length = `n_layers · 7`).
    pub linears: Vec<LinearRecord>,
}

impl StepRecord {
    /// Creates an empty record with `n` linear slots.
    pub fn with_layers(n: usize) -> Self {
        StepRecord {
            loss: 0.0,
            ntokens: 0,
            linears: vec![LinearRecord::default(); n],
        }
    }

    /// Record for a specific layer.
    pub fn layer(&self, id: LayerId) -> &LinearRecord {
        &self.linears[id.linear_index()]
    }
}

impl LayerTap for StepRecord {
    fn forward(&mut self, id: LayerId, lin: &Linear, cache: &LinearCache, y: &Tensor) {
        let lr = &mut self.linears[id.linear_index()];
        // X as the forward GEMM read it — decoded codes, or the held input
        // rounded — bit for bit the fake-quantized activations.
        lr.x = cache.qx.dequantize();
        lr.w = lin.weight().value().clone();
        lr.y_norm = y.frobenius_norm();
    }

    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: &Tensor, dx: &Tensor) {
        let lr = &mut self.linears[id.linear_index()];
        lr.dy = dy.clone();
        lr.dw = dw.clone();
        lr.dx_norm = dx.frobenius_norm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerKind;

    #[test]
    fn with_layers_allocates_slots() {
        let r = StepRecord::with_layers(14);
        assert_eq!(r.linears.len(), 14);
    }

    #[test]
    fn layer_indexing() {
        let mut r = StepRecord::with_layers(14);
        let id = LayerId::new(1, LayerKind::V);
        r.linears[id.linear_index()].y_norm = 3.5;
        assert_eq!(r.layer(id).y_norm, 3.5);
    }

    #[test]
    fn norms_computed_from_tensors() {
        let rec = LinearRecord {
            dw: Tensor::from_vec(1, 2, vec![3.0, 4.0]),
            ..Default::default()
        };
        assert!((rec.dw.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(rec.x.frobenius_norm(), 0.0);
    }
}
