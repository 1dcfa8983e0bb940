//! Per-step recording of tensors and norms (SNIP Step 1: "Collect Stats",
//! paper Fig. 6).
//!
//! When a training step runs with recording enabled, every quantizable linear
//! layer captures its input activations, weight snapshot, output gradient and
//! weight gradient, plus the Frobenius norms of everything else SNIP's
//! divergence analysis consumes (§4.2–§4.3). Recording is designed to run on
//! a *high-precision* (BF16) iteration, matching the paper's workflow.
//!
//! The model's stages report each layer to a [`LayerTap`]; [`StepRecord`] is
//! the tap that snapshots everything.

use crate::layers::LayerId;
use crate::linear::{Linear, LinearCache};
use snip_tensor::Tensor;

/// An observer of the quantizable linear layers of one pass. The forward and
/// backward stages of [`crate::model::Model`] call it once per layer with
/// what exists only at that moment, and each tap keeps what it needs:
/// [`StepRecord`] snapshots every tensor (it outlives the model borrow),
/// while SNIP's probe keeps only the transient `dY`, takes `dW` by move and
/// borrows everything else from the model and the forward caches later.
pub trait LayerTap {
    /// After layer `id`'s forward GEMM: the layer, the quantized operands it
    /// saved for backward, and its output `y`.
    fn forward(&mut self, id: LayerId, lin: &Linear, cache: &LinearCache, y: &Tensor);

    /// After layer `id`'s backward GEMMs: the output gradient `dy` it
    /// received, the (BF16-rounded) weight gradient `dw` it produced — by
    /// value, already accumulated into the parameter, so keeping it costs
    /// no copy — and the input gradient `dx` it returns.
    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: Tensor, dx: &Tensor);
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

impl LinearRecord {
    /// `‖∇_W L‖_F`.
    pub fn dw_norm(&self) -> f64 {
        self.dw.frobenius_norm()
    }

    /// `‖X‖_F`.
    pub fn x_norm(&self) -> f64 {
        self.x.frobenius_norm()
    }

    /// `‖W‖_F`.
    pub fn w_norm(&self) -> f64 {
        self.w.frobenius_norm()
    }

    /// `‖∇_Y L‖_F`.
    pub fn dy_norm(&self) -> f64 {
        self.dy.frobenius_norm()
    }
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

    /// Mutable record for a specific layer.
    pub fn layer_mut(&mut self, id: LayerId) -> &mut LinearRecord {
        &mut self.linears[id.linear_index()]
    }
}

impl LayerTap for StepRecord {
    fn forward(&mut self, id: LayerId, lin: &Linear, cache: &LinearCache, y: &Tensor) {
        let lr = self.layer_mut(id);
        // Statistics read the quantized activations through the packed
        // cache; dequantization reproduces the fake-quant values bitwise.
        lr.x = cache.qx.dequantize();
        lr.w = lin.weight().value().clone();
        lr.y_norm = y.frobenius_norm();
    }

    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: Tensor, dx: &Tensor) {
        let lr = self.layer_mut(id);
        lr.dy = dy.clone();
        lr.dw = dw;
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
        r.layer_mut(id).y_norm = 3.5;
        assert_eq!(r.layer(id).y_norm, 3.5);
        assert_eq!(r.linears[id.linear_index()].y_norm, 3.5);
    }

    #[test]
    fn norms_computed_from_tensors() {
        let rec = LinearRecord {
            dw: Tensor::from_vec(1, 2, vec![3.0, 4.0]),
            ..Default::default()
        };
        assert!((rec.dw_norm() - 5.0).abs() < 1e-12);
        assert_eq!(rec.x_norm(), 0.0);
    }
}
