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

/// The tensors and in-pass statistics of one linear layer on a statistics
/// iteration, borrowed from wherever they live — a [`StepRecord`]'s
/// snapshots, or the model, its forward caches and the probe's tap. The
/// output gradient comes as its statistics: it lives only while its
/// layer's backward runs, so the probe reduces it there.
#[derive(Clone, Copy, Debug)]
pub struct LayerView<'a> {
    /// Input activations as consumed by the forward GEMM (`tokens × in`).
    pub x: &'a Tensor,
    /// Weight (`out × in`).
    pub w: &'a Tensor,
    /// Statistics of the output gradient (`tokens × out`).
    pub dy: OperandStats,
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

/// The statistics of one GEMM operand of a layer (`X`, `W` or `dY`): its
/// Frobenius norm and its quantization-error norm under each candidate
/// precision — four reductions, each its own pool task. A layer's thirteen
/// are these for its three operands plus `‖∇W‖`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OperandStats {
    /// `‖t‖_F`.
    pub norm: f64,
    /// `‖q(t) − t‖_F` per candidate precision.
    pub err: ErrorByPrecision,
}

impl OperandStats {
    /// Reductions per operand: the norm and one error norm per precision.
    const TASKS: usize = 4;

    /// The [`OperandStats::TASKS`] reductions of `t` read in `role`, with
    /// scale groups of `group` elements, in the order
    /// [`OperandStats::from_values`] reads them.
    fn tasks<'a>(t: &'a Tensor, role: TensorRole, group: usize) -> [Reduction<'a>; Self::TASKS] {
        let err = |p: Precision| -> Reduction<'a> {
            let q = p.quantizer_with_group(role, group);
            Box::new(move || q.error_norm(t))
        };
        [
            Box::new(move || t.frobenius_norm()),
            err(Precision::Fp4),
            err(Precision::Fp8),
            err(Precision::Bf16),
        ]
    }

    /// The statistics from the values of [`OperandStats::tasks`].
    fn from_values(r: &[f64]) -> Self {
        let [norm, fp4, fp8, bf16] = r.try_into().expect("one value per task");
        OperandStats {
            norm,
            err: ErrorByPrecision { fp4, fp8, bf16 },
        }
    }

    /// The statistics of `t` read in `role`, reduced now on the pool.
    pub fn of(t: &Tensor, role: TensorRole, group: usize) -> Self {
        Self::from_values(&pool::reduce(Self::tasks(t, role, group).into()))
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
        let dy_tasks = record
            .linears
            .iter()
            .flat_map(|lr| OperandStats::tasks(&lr.dy, TensorRole::OutputGrad, cfg.quant_group))
            .collect();
        let dys = pool::reduce(dy_tasks);
        let views: Vec<LayerView<'_>> = record
            .linears
            .iter()
            .zip(dys.chunks_exact(OperandStats::TASKS))
            .map(|(lr, dy)| LayerView {
                x: &lr.x,
                w: &lr.w,
                dy: OperandStats::from_values(dy),
                dw: &lr.dw,
                y_norm: lr.y_norm,
                dx_norm: lr.dx_norm,
            })
            .collect();
        Self::from_views(record.loss, record.ntokens, &views, cfg)
    }

    /// Derives statistics from borrowed per-layer tensors (indexed by
    /// [`LayerId::linear_index`]) of a step with the given loss and token
    /// count: per layer the [`OperandStats`] of `X` and `W` and `‖∇W‖`,
    /// every reduction its own pool task (see the module docs); `dY`'s
    /// come with the view.
    pub fn from_views(
        loss: f64,
        ntokens: usize,
        views: &[LayerView<'_>],
        cfg: &ModelConfig,
    ) -> Self {
        const PER_LAYER: usize = 2 * OperandStats::TASKS + 1;
        let nb = cfg.quant_group;
        let mut tasks: Vec<Reduction<'_>> = Vec::with_capacity(views.len() * PER_LAYER);
        for v in views {
            tasks.extend(OperandStats::tasks(v.x, TensorRole::Input, nb));
            tasks.extend(OperandStats::tasks(v.w, TensorRole::Weight, nb));
            tasks.push(Box::new(move || v.dw.frobenius_norm()));
        }
        let values = pool::reduce(tasks);
        let layers = views
            .iter()
            .zip(values.chunks_exact(PER_LAYER))
            .map(|(v, r)| {
                let (x, rest) = r.split_at(OperandStats::TASKS);
                let (w, dw) = rest.split_at(OperandStats::TASKS);
                let (x, w) = (OperandStats::from_values(x), OperandStats::from_values(w));
                let (out_features, in_features) = v.w.shape();
                LayerStats {
                    tokens: v.x.rows(),
                    out_features,
                    in_features,
                    x_norm: x.norm,
                    w_norm: w.norm,
                    y_norm: v.y_norm,
                    dy_norm: v.dy.norm,
                    dx_norm: v.dx_norm,
                    dw_norm: dw[0],
                    x_err: x.err,
                    w_err: w.err,
                    dy_err: v.dy.err,
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
