//! Steps 1–3 of the SNIP workflow (paper Fig. 6): collect statistics on a
//! high-precision iteration, then run the two noise-injection probe passes
//! that estimate second-order error propagation (Theorem 4.2).
//!
//! # The staged passes
//!
//! [`measure`] is built from the four stages of [`Model::step`]:
//! [`Model::forward_blocks`] (→ block caches + final hidden state),
//! [`Model::forward_head`] (final norm, LM head, loss),
//! [`Model::backward_head`] (→ the gradient entering the last block) and
//! [`Model::backward_blocks`]. `Model::step` is their plain composition;
//! `measure` composes them differently and adds its noise between stages
//! itself ([`Injection`]). The three iterations share everything that is
//! identical between them, so they cost under three forward+backward steps
//! instead of three full ones plus tensor snapshots:
//!
//! | pass | stages run | keeps |
//! |---|---|---|
//! | forward | blocks-forward, **once** | block caches, final hidden state, `‖Y‖` per layer |
//! | base (Step 1) | head forward, head backward, blocks-backward | loss, the top gradient, `dW` (in the weight gradients), per layer `‖∇X‖` and `dY`'s statistics |
//! | backward probe (Step 2) | noise on the saved top gradient, blocks-backward | `‖dW − dW_base‖/ε` per layer |
//! | forward probe (Step 3) | noise on the saved hidden state, head forward + backward, blocks-backward | `‖dW − dW_base‖/ε` per layer, loss delta |
//!
//! Sharing the blocks-forward is legal because the three passes of the
//! unshared formulation recompute it bit-identically:
//!
//! * the probe forces the BF16 scheme, BF16 quantization is unscaled
//!   round-to-nearest, so no pass draws from the caller's `Rng` — `measure`
//!   asserts the state is unchanged on exit, and `tests/probe_equivalence`
//!   checks it in release builds too; if a future high-precision scheme
//!   ever draws, that test fails instead of the probe silently drifting;
//! * both injection sites sit *above* the last block (the forward probe
//!   perturbs its output, the backward probe the gradient entering it);
//! * weights are frozen for the whole of `measure` (no optimizer call).
//!
//! # What is retained
//!
//! Statistics, not tensors: no [`StepRecord`](snip_nn::record::StepRecord).
//! Each pass observes the linear layers through a [`LayerTap`], and keeps
//! of a tensor only what it needs while the tensor is live.
//!
//! * **`dY`** exists only while its layer's backward runs, so the base
//!   pass's tap reduces it there — its norm and its FP4/FP8/BF16 error
//!   norms ([`OperandStats`]), one pool task each — and keeps none.
//! * **The base `dW`** is written by the base pass into the weight
//!   gradients, as on a training step, and then moved out of them without
//!   a copy. It is read for `‖∇W‖`, for the AdamW sensitivity and as the
//!   base of both gradient distances, and moved back before the closing
//!   [`Model::zero_all_grads`].
//! * **A probe pass's `dW`** goes into one scratch buffer its tap lends
//!   ([`LayerTap::lend_dw`]), sized for each layer in turn within the
//!   storage of the largest weight. The tap reduces `‖dW − dW_base‖` as
//!   soon as the layer's GEMM has written it, and the next layer's GEMM
//!   overwrites it. A probe pass never writes a weight gradient, and that
//!   buffer — one largest linear weight in f32 — is all the probe holds
//!   beyond a BF16 training step (`tests/probe_memory.rs` checks it with a
//!   counting allocator).
//! * **`W`** is borrowed from the model. **`X`**: the forward caches hold
//!   each block's layer inputs once, read in place (Q, K and V share one,
//!   Gate and Up another); the statistics stage rounds each distinct input
//!   once ([`held_inputs`]) — `X` as the GEMMs read it — and drops each
//!   block's caches as it goes.
//!
//! [`Model::zero_grads`] runs before each pass. It zeroes the accumulated
//! gradients (embedding, norm gains), which no pass reads, and re-arms the
//! written ones for the debug check that each is written once per pass.
//!
//! # One reduction per task
//!
//! The ≈ 200 per-layer statistics — 4 norms and 9 quantization errors
//! ([`OperandStats`] of `X`, `W` and `dY`, and `‖∇W‖`), 2 gradient
//! distances and 1 AdamW sensitivity per layer — are each one whole
//! reduction in ascending serial `f64` order: the statistics and the
//! sensitivities through [`reduce`], one reduction per pool task, the
//! distances on the calling thread as their `dW` is written. Never split
//! one reduction across tasks: that is what makes a [`SnipMeasurement`]
//! identical at every thread count and `==`, bit for bit, to the oracle.
//! [`Quantizer::error_norm`] of a packable format is
//! [`Quantizer::quantize_packed`] plus a row-streamed decode-and-diff (no
//! `q(t)` materialised; bit-equal to `fake_quantize(t).distance(t)` of the
//! dense oracle, which is `snip-quant`'s test support, proptested in its
//! `packed_equivalence` suite); [`AdamW::update_sensitivity`] evaluates its `sqrt`s and
//! divides in 64-lane chunks.
//!
//! [`Quantizer::error_norm`]: snip_quant::Quantizer::error_norm
//! [`Quantizer::quantize_packed`]: snip_quant::Quantizer::quantize_packed
//!
//! # The oracle
//!
//! The formulation `measure` replaced — three recorded full passes, then
//! [`StepStats::from_views`], [`Tensor::distance`] and
//! [`AdamW::update_sensitivity`] — lives as `measure_reference` in
//! `tests/probe_equivalence.rs`. `measure == measure_reference` on tiny,
//! ragged, packed-FP8-moment, FP4-scheme and mixed-scheme configurations,
//! at pool splits 1, 2, max and max + 3, and on the forced-scalar kernel
//! tier. The probe's cost is `core.measure_over_step` in `benchmark/` and
//! the `probe` section of `BENCH_gemm.json` (`bench_gemm --check` fails
//! above 3.5 steps).

use crate::stats::{LayerView, OperandStats, StepStats};
use serde::{Deserialize, Serialize};
use snip_nn::inject::Injection;
use snip_nn::linear::held_inputs;
use snip_nn::model::Model;
use snip_nn::record::LayerTap;
use snip_nn::{Batch, LayerId, LayerKind, Linear, LinearCache};
use snip_optim::AdamW;
use snip_quant::{LinearPrecision, Precision, TensorRole};
use snip_tensor::pool::{reduce, Reduction};
use snip_tensor::{rng::Rng, Tensor};
use std::mem;

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

/// What the base pass keeps of one layer: the statistics of its output
/// gradient, reduced while the gradient was live, and the norms of its
/// forward output and input gradient.
#[derive(Default)]
struct BaseLayer {
    dy: OperandStats,
    y_norm: f64,
    dx_norm: f64,
}

/// The base pass's tap: per layer (indexed by [`LayerId::linear_index`])
/// what [`BaseLayer`] keeps, with errors measured over scale groups of
/// `group` elements. It keeps no tensor: `dW` stays in the weight
/// gradients.
struct BaseTap {
    layers: Vec<BaseLayer>,
    group: usize,
}

impl LayerTap for BaseTap {
    fn forward(&mut self, id: LayerId, _lin: &Linear, _cache: &LinearCache, y: &Tensor) {
        self.layers[id.linear_index()].y_norm = y.frobenius_norm();
    }

    fn backward(&mut self, id: LayerId, dy: &Tensor, _dw: &Tensor, dx: &Tensor) {
        let layer = &mut self.layers[id.linear_index()];
        layer.dy = OperandStats::of(dy, TensorRole::OutputGrad, self.group);
        layer.dx_norm = dx.frobenius_norm();
    }
}

/// A probe pass's tap: it lends every layer one scratch buffer for its
/// `dW`, and reduces the gradient response `‖dW − dW_base‖ / ε` (Theorem
/// 4.2 single-sample estimate) as soon as the GEMM has written it.
struct ProbeTap<'a> {
    /// The base pass's `dW` per layer.
    base: &'a [Tensor],
    /// The lent buffer's storage, sized for the largest weight up front.
    scratch: Vec<f32>,
    /// Per layer, the response of the pass that last ran.
    response: Vec<f64>,
    epsilon: f64,
}

impl LayerTap for ProbeTap<'_> {
    fn forward(&mut self, _id: LayerId, _lin: &Linear, _cache: &LinearCache, _y: &Tensor) {}

    fn backward(&mut self, id: LayerId, _dy: &Tensor, dw: &Tensor, _dx: &Tensor) {
        let i = id.linear_index();
        self.response[i] = self.base[i].distance(dw) / self.epsilon;
    }

    fn lend_dw(&mut self, _id: LayerId, (rows, cols): (usize, usize)) -> Option<Tensor> {
        let mut data = mem::take(&mut self.scratch);
        data.resize(rows * cols, 0.0);
        Some(Tensor::from_vec(rows, cols, data))
    }

    fn reclaim_dw(&mut self, dw: Tensor) {
        self.scratch = dw.into_vec();
    }
}

/// Swaps `grads[i]` with the gradient of linear layer `i`'s weight: moves
/// each layer's `dW` out of the model, or back in, without a copy.
fn swap_linear_grads(model: &mut Model, grads: &mut [Tensor]) {
    let index: Vec<usize> = (0..grads.len())
        .map(|i| model.param_index_of(LayerId::from_linear_index(i)))
        .collect();
    let mut params = model.params_mut();
    for (grad, i) in grads.iter_mut().zip(index) {
        mem::swap(grad, params[i].grad_mut());
    }
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
    let ids = || (0..n).map(LayerId::from_linear_index);
    // Force BF16 for measurement, restore afterwards.
    let saved_scheme = model.scheme();
    model.set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);
    let mut tap = BaseTap {
        layers: (0..n).map(|_| BaseLayer::default()).collect(),
        group: cfg.quant_group,
    };

    // The blocks-forward all three passes share.
    let (caches, mut hidden) = {
        let _span = snip_obs::span("snip.measure.forward");
        let mut tap: Option<&mut dyn LayerTap> = Some(&mut tap);
        model.forward_blocks(batch, rng, &mut tap)
    };

    // Step 1: the baseline iteration's head and full backward. Its `dW`
    // lands in the weight gradients and is then moved out of them. The
    // reset only readies the written gradients (debug builds check that
    // each is written once per pass) and zeroes the accumulated ones,
    // which no pass reads.
    let (base_loss, mut top, mut base_dw) = {
        let _span = snip_obs::span("snip.measure.base");
        model.zero_grads();
        let head = model.forward_head(&hidden, batch, rng);
        let top = model.backward_head(&head, rng);
        let mut tap: Option<&mut dyn LayerTap> = Some(&mut tap);
        model.backward_blocks(batch, &top, &caches, rng, &mut tap);
        let mut base_dw: Vec<Tensor> = ids().map(|_| Tensor::default()).collect();
        swap_linear_grads(model, &mut base_dw);
        (head.loss(), top, base_dw)
    };
    let base = tap.layers;
    let largest = ids().map(|id| model.linear(id).weight().numel()).max();
    let mut probe = ProbeTap {
        base: &base_dw,
        scratch: Vec::with_capacity(largest.unwrap_or_default()),
        response: vec![0.0; n],
        epsilon,
    };

    // Step 2: backward-top noise on the gradient the base pass produced.
    let p_bwd = {
        let _span = snip_obs::span("snip.measure.probe_bwd");
        model.zero_grads();
        Injection {
            epsilon,
            seed: 0x5712_0002,
        }
        .apply(&mut top);
        model.backward_blocks(batch, &top, &caches, rng, &mut Some(&mut probe));
        probe.response.clone()
    };
    drop(top);

    // Step 3: forward-top noise on the hidden state the forward produced.
    let (p_fwd, fwd_loss) = {
        let _span = snip_obs::span("snip.measure.probe_fwd");
        model.zero_grads();
        Injection {
            epsilon,
            seed: 0x5712_0003,
        }
        .apply(&mut hidden);
        let head = model.forward_head(&hidden, batch, rng);
        let top = model.backward_head(&head, rng);
        model.backward_blocks(batch, &top, &caches, rng, &mut Some(&mut probe));
        (probe.response, head.loss())
    };

    let (stats, h_sens) = {
        let _span = snip_obs::span("snip.measure.stats");
        // Each distinct input rounded once (`xs`; `x_of` maps a layer to
        // its entry), and each block's caches dropped once read.
        let mut xs = Vec::new();
        let mut x_of = Vec::with_capacity(n);
        for cache in caches {
            let (held, slots) = held_inputs(LayerKind::ALL.map(|kind| cache.linear(kind)));
            let first = xs.len();
            xs.extend(held.iter().map(|x| x.dequantize()));
            let in_place = "BF16 reads every input in place";
            x_of.extend(slots.iter().map(|slot| first + slot.expect(in_place)));
        }
        let views: Vec<LayerView<'_>> = ids()
            .zip(&base)
            .zip(&base_dw)
            .map(|((id, b), dw)| LayerView {
                x: &xs[x_of[id.linear_index()]],
                w: model.linear(id).weight().value(),
                dy: b.dy,
                dw,
                y_norm: b.y_norm,
                dx_norm: b.dx_norm,
            })
            .collect();
        let stats = StepStats::from_views(base_loss, batch.num_tokens(), &views, &cfg);
        // AdamW update sensitivity at the current moments and gradients.
        let h_sens = reduce(
            ids()
                .zip(&base_dw)
                .map(|(id, dw)| {
                    let param = model.param_index_of(id);
                    Box::new(move || optimizer.update_sensitivity(param, dw)) as Reduction<'_>
                })
                .collect(),
        );
        (stats, h_sens)
    };

    swap_linear_grads(model, &mut base_dw);
    model.zero_all_grads();
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
        // The base `dW` the probe moved out of the weight gradients went
        // back: every gradient has its weight's shape again.
        for p in model.params_mut() {
            assert_eq!(p.grad().shape(), p.value().shape(), "{}", p.name());
        }
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
