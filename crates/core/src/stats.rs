//! Per-layer statistics derived from a recorded training step
//! (SNIP Step 1, paper Fig. 6).
//!
//! Besides the raw Frobenius norms, this module pre-computes the
//! quantization-error norms `‖δX‖`, `‖δW‖`, `‖δ∇Y‖` for every candidate
//! precision, which is everything the divergence analysis (§4.2–§4.3)
//! needs — after this step the model tensors can be dropped.
//!
//! Every statistic is one independent scalar reduction over a borrowed
//! tensor, and [`pool::reduce`] runs them **one reduction per pool task**: a
//! task sums its whole tensor serially in ascending element order, so a
//! value never depends on the thread count or on which worker computed it.

use serde::{Deserialize, Serialize};
use snip_nn::record::StepRecord;
use snip_nn::{LayerId, ModelConfig};
use snip_quant::{Precision, TensorRole};
use snip_tensor::pool::{self, Reduction};
use snip_tensor::Tensor;

/// The tensors and in-pass norms of one linear layer on a statistics
/// iteration, borrowed from wherever they live — a [`StepRecord`]'s
/// snapshots, or the model, its forward caches and the probe's tap.
#[derive(Clone, Copy, Debug)]
pub struct LayerView<'a> {
    /// Input activations as consumed by the forward GEMM (`tokens × in`).
    pub x: &'a Tensor,
    /// Weight (`out × in`).
    pub w: &'a Tensor,
    /// Output gradient (`tokens × out`).
    pub dy: &'a Tensor,
    /// Weight gradient of the step (`out × in`).
    pub dw: &'a Tensor,
    /// `‖Y‖_F` of the forward output.
    pub y_norm: f64,
    /// `‖∇X‖_F` — the input-gradient norm.
    pub dx_norm: f64,
}

/// Quantization-error norms of one tensor under each candidate precision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorByPrecision {
    /// Error under FP4 (E2M1).
    pub fp4: f64,
    /// Error under FP8 (E4M3).
    pub fp8: f64,
    /// Error under BF16 (usually negligible).
    pub bf16: f64,
}

impl ErrorByPrecision {
    /// Error norm for a given precision.
    pub fn get(&self, p: Precision) -> f64 {
        match p {
            Precision::Fp4 => self.fp4,
            Precision::Fp8 => self.fp8,
            Precision::Bf16 => self.bf16,
        }
    }
}

/// Statistics of one quantizable linear layer from one recorded step.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Tokens in the recorded batch (`M` of the activations).
    pub tokens: usize,
    /// Layer output features (`N`).
    pub out_features: usize,
    /// Layer input features (`K`).
    pub in_features: usize,
    /// `‖X‖_F` — input activations.
    pub x_norm: f64,
    /// `‖W‖_F` — weights.
    pub w_norm: f64,
    /// `‖Y‖_F` — forward output.
    pub y_norm: f64,
    /// `‖∇Y‖_F` — output gradient.
    pub dy_norm: f64,
    /// `‖∇X‖_F` — input gradient (`‖∇_{X_l} L‖`, used by loss divergence).
    pub dx_norm: f64,
    /// `‖∇W‖_F` — weight gradient (`‖∇_{W_l} L‖`).
    pub dw_norm: f64,
    /// Quantization error of the input activations per candidate precision.
    pub x_err: ErrorByPrecision,
    /// Quantization error of the weights per candidate precision.
    pub w_err: ErrorByPrecision,
    /// Quantization error of the output gradients per candidate precision.
    pub dy_err: ErrorByPrecision,
}

/// Statistics for every layer of a recorded step.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Training loss of the recorded (high-precision) step.
    pub loss: f64,
    /// Tokens in the recorded batch.
    pub ntokens: usize,
    /// Per-layer stats, indexed by [`LayerId::linear_index`].
    pub layers: Vec<LayerStats>,
}

impl StepStats {
    /// Derives statistics from a recorded step.
    ///
    /// `cfg.quant_group` is the scale-group length used when measuring
    /// quantization errors.
    pub fn from_record(record: &StepRecord, cfg: &ModelConfig) -> Self {
        let views: Vec<LayerView<'_>> = record
            .linears
            .iter()
            .map(|lr| LayerView {
                x: &lr.x,
                w: &lr.w,
                dy: &lr.dy,
                dw: &lr.dw,
                y_norm: lr.y_norm,
                dx_norm: lr.dx_norm,
            })
            .collect();
        Self::from_views(record.loss, record.ntokens, &views, cfg)
    }

    /// Derives statistics from borrowed per-layer tensors (indexed by
    /// [`LayerId::linear_index`]) of a step with the given loss and token
    /// count: per layer four Frobenius norms and nine quantization-error
    /// norms, every one its own pool task (see the module docs).
    pub fn from_views(
        loss: f64,
        ntokens: usize,
        views: &[LayerView<'_>],
        cfg: &ModelConfig,
    ) -> Self {
        const PRECISIONS: [Precision; 3] = [Precision::Fp4, Precision::Fp8, Precision::Bf16];
        const PER_LAYER: usize = 4 + 3 * PRECISIONS.len();
        let nb = cfg.quant_group;
        let mut tasks: Vec<Reduction<'_>> = Vec::with_capacity(views.len() * PER_LAYER);
        for v in views {
            for t in [v.x, v.w, v.dy, v.dw] {
                tasks.push(Box::new(move || t.frobenius_norm()));
            }
            for (role, t) in [
                (TensorRole::Input, v.x),
                (TensorRole::Weight, v.w),
                (TensorRole::OutputGrad, v.dy),
            ] {
                for p in PRECISIONS {
                    let q = p.quantizer_with_group(role, nb);
                    tasks.push(Box::new(move || q.error_norm(t)));
                }
            }
        }
        let values = pool::reduce(tasks);
        let err = |r: &[f64]| ErrorByPrecision {
            fp4: r[0],
            fp8: r[1],
            bf16: r[2],
        };
        let layers = views
            .iter()
            .zip(values.chunks_exact(PER_LAYER))
            .map(|(v, r)| {
                let (out_features, in_features) = v.w.shape();
                LayerStats {
                    tokens: v.x.rows(),
                    out_features,
                    in_features,
                    x_norm: r[0],
                    w_norm: r[1],
                    y_norm: v.y_norm,
                    dy_norm: r[2],
                    dx_norm: v.dx_norm,
                    dw_norm: r[3],
                    x_err: err(&r[4..7]),
                    w_err: err(&r[7..10]),
                    dy_err: err(&r[10..13]),
                }
            })
            .collect();
        StepStats {
            loss,
            ntokens,
            layers,
        }
    }

    /// Stats for one layer.
    pub fn layer(&self, id: LayerId) -> &LayerStats {
        &self.layers[id.linear_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_nn::{
        batch::Batch,
        model::{Model, StepOptions},
    };
    use snip_tensor::rng::Rng;

    fn collect() -> (StepStats, ModelConfig) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 11).unwrap();
        let mut rng = Rng::seed_from(12);
        let batch = Batch::from_sequences(
            &[
                vec![1, 5, 2, 8, 3, 9, 4, 10, 6],
                vec![2, 6, 3, 9, 4, 10, 5, 11, 7],
            ],
            8,
        );
        model.zero_grads();
        let out = model.step(&batch, &mut rng, &StepOptions::record());
        (StepStats::from_record(&out.record.unwrap(), &cfg), cfg)
    }

    #[test]
    fn stats_cover_all_layers_with_positive_norms() {
        let (stats, cfg) = collect();
        assert_eq!(stats.layers.len(), cfg.n_linear_layers());
        assert!(stats.loss > 0.0);
        for (i, l) in stats.layers.iter().enumerate() {
            assert!(l.x_norm > 0.0, "layer {i} x_norm");
            assert!(l.w_norm > 0.0, "layer {i} w_norm");
            assert!(l.dy_norm > 0.0, "layer {i} dy_norm");
            assert!(l.dw_norm > 0.0, "layer {i} dw_norm");
        }
    }

    #[test]
    fn error_ordering_fp4_gt_fp8_gt_bf16() {
        let (stats, _) = collect();
        for (i, l) in stats.layers.iter().enumerate() {
            assert!(
                l.x_err.fp4 > l.x_err.fp8 && l.x_err.fp8 > l.x_err.bf16,
                "layer {i} x errors: {:?}",
                l.x_err
            );
            assert!(l.w_err.fp4 > l.w_err.fp8, "layer {i} w errors");
        }
    }

    #[test]
    fn dims_match_layer_kinds() {
        let (stats, cfg) = collect();
        use snip_nn::LayerKind;
        let gate = stats.layer(LayerId::new(0, LayerKind::Gate));
        assert_eq!(gate.out_features, cfg.ffn_hidden);
        assert_eq!(gate.in_features, cfg.hidden);
        let down = stats.layer(LayerId::new(1, LayerKind::Down));
        assert_eq!(down.out_features, cfg.hidden);
        assert_eq!(down.in_features, cfg.ffn_hidden);
        assert_eq!(gate.tokens, 16);
    }

    #[test]
    fn error_by_precision_get() {
        let e = ErrorByPrecision {
            fp4: 3.0,
            fp8: 2.0,
            bf16: 1.0,
        };
        assert_eq!(e.get(Precision::Fp4), 3.0);
        assert_eq!(e.get(Precision::Fp8), 2.0);
        assert_eq!(e.get(Precision::Bf16), 1.0);
    }
}
