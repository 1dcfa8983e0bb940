//! Steps 1–3 of the SNIP workflow (paper Fig. 6): collect statistics on a
//! high-precision iteration, then run the two noise-injection probe passes
//! that estimate second-order error propagation (Theorem 4.2).
//!
//! # The staged passes
//!
//! The three iterations share everything that is identical between them, so
//! [`measure`] costs under three forward+backward steps instead of three
//! full ones plus tensor snapshots. It composes the stages of
//! [`Model::step`] directly:
//!
//! | pass | stages run | output |
//! |---|---|---|
//! | forward | blocks-forward, **once** | block caches, final hidden state |
//! | base (Step 1) | head forward, head backward, blocks-backward | loss, `dY`/`dW` per layer, the top gradient |
//! | `BackwardTop` (Step 2) | noise on the saved top gradient, blocks-backward | `‖dW − dW_base‖/ε` |
//! | `ForwardTop` (Step 3) | noise on the saved hidden state, head forward + backward, blocks-backward | `‖dW − dW_base‖/ε`, loss delta |
//!
//! Sharing the blocks-forward is legal because the three passes of the
//! unshared formulation recompute it bit-identically:
//!
//! * the probe forces the BF16 scheme, BF16 quantization is unscaled
//!   round-to-nearest, so no pass draws from the caller's `Rng` — `measure`
//!   asserts the state is unchanged on exit, and `tests/probe_equivalence`
//!   checks it in release builds too;
//! * both injection sites sit *above* the last block (`ForwardTop` perturbs
//!   its output, `BackwardTop` the gradient entering it);
//! * weights are frozen for the whole of `measure` (no optimizer call).
//!
//! # What is retained
//!
//! No [`snip_nn::record::StepRecord`]: the base pass keeps one `dW` per
//! layer (taken by move from the backward GEMM) and a copy of the transient
//! `dY`; `X` is borrowed from the forward caches, `W` from the model. A
//! probe pass leaves its `dW` in the gradient accumulators (zeroed before
//! the pass), where it is read against the retained base `dW`.
//!
//! # One reduction per task
//!
//! The ≈ 200 per-layer statistics (norms, quantization errors, gradient
//! distances, AdamW sensitivities) run on the worker pool, one whole
//! reduction per task (`stats::reduce`), each in ascending serial `f64`
//! order — so a [`SnipMeasurement`] is identical at every thread count and
//! equal, bit for bit, to the three-full-steps reference kept as the test
//! oracle in `tests/probe_equivalence.rs`.

use crate::stats::{reduce, LayerView, Reduction, StepStats};
use serde::{Deserialize, Serialize};
use snip_nn::inject::{Injection, InjectionSite};
use snip_nn::model::Model;
use snip_nn::record::LayerTap;
use snip_nn::{Batch, LayerId, Linear, LinearCache};
use snip_optim::AdamW;
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::{rng::Rng, Tensor};

/// Everything the divergence analysis needs, extracted from one batch.
/// Norms only, no tensors.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SnipMeasurement {
    /// Step-1 statistics (norms + per-precision quantization errors).
    pub stats: StepStats,
    /// Per-layer gradient response to *forward* top noise:
    /// `‖g_l(noise) − g_l‖ / ε` (Step 3).
    pub p_fwd: Vec<f64>,
    /// Per-layer gradient response to *backward* top noise (Step 2).
    pub p_bwd: Vec<f64>,
    /// AdamW update sensitivity `h′(g_l)` per layer (§4.3.2), including the
    /// learning-rate prefactor and dimensional normalization.
    pub h_sens: Vec<f64>,
    /// The `ε` used by the probes.
    pub probe_epsilon: f64,
    /// `|L(noise@fwd) − L|` — a free validation sample of Theorem 4.1.
    pub fwd_loss_delta: f64,
}

/// What the base pass keeps of one layer: the transient output gradient
/// (copied), the weight gradient (moved out of the backward GEMM) and the
/// two norms of tensors that do not outlive their stage.
#[derive(Default)]
struct BaseLayer {
    dy: Tensor,
    dw: Tensor,
    y_norm: f64,
    dx_norm: f64,
}

/// The base pass's tap, indexed by [`LayerId::linear_index`].
struct BaseTap(Vec<BaseLayer>);

impl LayerTap for BaseTap {
    fn forward(&mut self, id: LayerId, _lin: &Linear, _cache: &LinearCache, y: &Tensor) {
        self.0[id.linear_index()].y_norm = y.frobenius_norm();
    }

    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: Tensor, dx: &Tensor) {
        let layer = &mut self.0[id.linear_index()];
        layer.dy = dy.clone();
        layer.dw = dw;
        layer.dx_norm = dx.frobenius_norm();
    }
}

/// Per-layer gradient response of the probe pass that just ran (Theorem 4.2
/// single-sample estimate): the gradient accumulators against the retained
/// base gradients, over `ε`.
fn gradient_response(model: &Model, base: &[BaseLayer], epsilon: f64) -> Vec<f64> {
    let tasks = base
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let probe_dw = model.linear(LayerId::from_linear_index(i)).weight().grad();
            Box::new(move || b.dw.distance(probe_dw)) as Reduction<'_>
        })
        .collect();
    reduce(tasks).into_iter().map(|d| d / epsilon).collect()
}

/// Runs Steps 1–3 on the given batch. The model's weights are untouched
/// (probes never call the optimizer) and all gradients are zeroed on exit.
///
/// Statistics are collected with the model temporarily forced to its
/// high-precision (BF16) scheme, matching the paper: "we collect statistics
/// during a standard training iteration using high precision". Under that
/// scheme no pass draws from `rng`, which is what lets the three passes
/// share one blocks-forward (see the module docs).
pub fn measure(
    model: &mut Model,
    optimizer: &AdamW,
    batch: &Batch,
    rng: &mut Rng,
    epsilon: f64,
) -> SnipMeasurement {
    let span = snip_obs::span("snip.measure");
    let rng_on_entry = rng.clone();
    let cfg = model.config().clone();
    let n = cfg.n_linear_layers();
    // Force BF16 for measurement, restore afterwards.
    let saved_scheme = model.scheme();
    model.set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);
    let mut tap = BaseTap((0..n).map(|_| BaseLayer::default()).collect());

    // The blocks-forward all three passes share.
    let (caches, mut hidden) = {
        let _span = snip_obs::span("snip.measure.forward");
        let mut tap: Option<&mut dyn LayerTap> = Some(&mut tap);
        model.forward_blocks(batch, rng, &mut tap)
    };

    // Step 1: the baseline iteration's head and full backward. Its `dW`
    // comes out of the backward GEMMs through the tap, not out of the
    // accumulators, so whatever gradients the caller left need no zeroing.
    let (base_loss, mut top) = {
        let _span = snip_obs::span("snip.measure.base");
        let head = model.forward_head(&hidden, batch, rng);
        let top = model.backward_head(&head, rng);
        let mut tap: Option<&mut dyn LayerTap> = Some(&mut tap);
        model.backward_blocks(batch, &top, &caches, rng, &mut tap);
        (head.loss(), top)
    };
    let base = tap.0;

    // Step 2: backward-top noise on the gradient the base pass produced.
    let p_bwd = {
        let _span = snip_obs::span("snip.measure.probe_bwd");
        model.zero_grads();
        Injection {
            site: InjectionSite::BackwardTop,
            epsilon,
            seed: 0x5712_0002,
        }
        .apply(&mut top);
        model.backward_blocks(batch, &top, &caches, rng, &mut None);
        gradient_response(model, &base, epsilon)
    };
    drop(top);

    // Step 3: forward-top noise on the hidden state the forward produced.
    let (p_fwd, fwd_loss) = {
        let _span = snip_obs::span("snip.measure.probe_fwd");
        model.zero_grads();
        Injection {
            site: InjectionSite::ForwardTop,
            epsilon,
            seed: 0x5712_0003,
        }
        .apply(&mut hidden);
        let head = model.forward_head(&hidden, batch, rng);
        let top = model.backward_head(&head, rng);
        model.backward_blocks(batch, &top, &caches, rng, &mut None);
        (gradient_response(model, &base, epsilon), head.loss())
    };

    let (stats, h_sens) = {
        let _span = snip_obs::span("snip.measure.stats");
        let ids = || (0..n).map(LayerId::from_linear_index);
        let views: Vec<LayerView<'_>> = ids()
            .zip(&base)
            .map(|(id, b)| LayerView {
                x: caches[id.block]
                    .linear(id.kind)
                    .qx
                    .as_dense()
                    .expect("BF16 operands are cached dense"),
                w: model.linear(id).weight().value(),
                dy: &b.dy,
                dw: &b.dw,
                y_norm: b.y_norm,
                dx_norm: b.dx_norm,
            })
            .collect();
        let stats = StepStats::from_views(base_loss, batch.num_tokens(), &views, &cfg);
        // AdamW update sensitivity at the current moments and gradients.
        let h_sens = reduce(
            ids()
                .zip(&base)
                .map(|(id, b)| {
                    let param = model.param_index_of(id);
                    Box::new(move || optimizer.update_sensitivity(param, &b.dw)) as Reduction<'_>
                })
                .collect(),
        );
        (stats, h_sens)
    };

    model.zero_grads();
    model.set_scheme(&saved_scheme);
    debug_assert!(
        *rng == rng_on_entry,
        "a probe pass drew from the rng: the three passes no longer share a forward"
    );
    if snip_obs::enabled() {
        snip_obs::counter_add("snip.measure_ns", span.elapsed_ns());
    }
    SnipMeasurement {
        stats,
        p_fwd,
        p_bwd,
        h_sens,
        probe_epsilon: epsilon,
        fwd_loss_delta: (fwd_loss - base_loss).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_nn::model::StepOptions as SO;
    use snip_nn::ModelConfig;
    use snip_optim::AdamWConfig;

    fn setup() -> (Model, AdamW, Batch, Rng) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg, 21).unwrap();
        let mut rng = Rng::seed_from(22);
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![4, 8, 12, 16, 3, 7, 11, 15, 2],
            ],
            8,
        );
        // Warm the optimizer so moments exist.
        let mut opt = AdamW::new(AdamWConfig::default());
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &SO::train());
        opt.update(&mut model);
        (model, opt, batch, rng)
    }

    #[test]
    fn measurement_has_full_coverage() {
        let (mut model, opt, batch, mut rng) = setup();
        let m = measure(&mut model, &opt, &batch, &mut rng, 1e-2);
        let n = model.config().n_linear_layers();
        assert_eq!(m.stats.layers.len(), n);
        assert_eq!(m.p_fwd.len(), n);
        assert_eq!(m.p_bwd.len(), n);
        assert_eq!(m.h_sens.len(), n);
        assert!(m.p_bwd.iter().all(|&p| p.is_finite() && p >= 0.0));
        assert!(m.p_fwd.iter().all(|&p| p.is_finite()));
        assert!(m.h_sens.iter().all(|&h| h > 0.0));
    }

    #[test]
    fn backward_noise_perturbs_gradients() {
        let (mut model, opt, batch, mut rng) = setup();
        let m = measure(&mut model, &opt, &batch, &mut rng, 1e-2);
        // At least the early layers must respond to top-injected noise.
        let responding = m.p_bwd.iter().filter(|&&p| p > 0.0).count();
        assert!(
            responding > m.p_bwd.len() / 2,
            "{responding} responding layers"
        );
    }

    #[test]
    fn model_state_is_restored() {
        let (mut model, opt, batch, mut rng) = setup();
        let scheme_before = model.scheme();
        let loss_before = model.forward_loss(&batch, &mut rng.clone());
        let _ = measure(&mut model, &opt, &batch, &mut rng, 1e-2);
        assert_eq!(model.scheme(), scheme_before, "scheme must be restored");
        assert_eq!(
            model.forward_loss(&batch, &mut rng.clone()),
            loss_before,
            "weights must be untouched"
        );
        assert_eq!(model.grad_norm(), 0.0, "gradients must be zeroed");
    }

    #[test]
    fn probe_responses_scale_roughly_linearly_with_epsilon() {
        // Theorem 4.2: the response ‖Δg‖/ε should be ~constant in ε for
        // small ε (we allow generous slack — single sample, bf16 noise).
        let (mut model, opt, batch, mut rng) = setup();
        let m1 = measure(&mut model, &opt, &batch, &mut rng, 5e-3);
        let m2 = measure(&mut model, &opt, &batch, &mut rng, 2e-2);
        let s1: f64 = m1.p_bwd.iter().sum();
        let s2: f64 = m2.p_bwd.iter().sum();
        assert!(s1 > 0.0 && s2 > 0.0);
        let ratio = s1 / s2;
        assert!(
            (0.2..5.0).contains(&ratio),
            "responses not comparable: {s1} vs {s2}"
        );
    }

    #[test]
    fn forward_loss_delta_is_positive() {
        let (mut model, opt, batch, mut rng) = setup();
        let m = measure(&mut model, &opt, &batch, &mut rng, 1e-1);
        assert!(m.fwd_loss_delta > 0.0);
    }
}
