//! Divergence analysis (SNIP Step 4, paper §4).
//!
//! Two metrics quantify the quality impact of quantizing each layer:
//!
//! * **Loss divergence** (§4.2, forward pass): quantization perturbations of
//!   `X_l` and `W_l` move the loss by approximately
//!   `‖∇L‖_F · ‖δ‖_F / √dim` (Theorem 4.1), combined in quadrature and
//!   normalized by `|L|` (Definition 4.3).
//! * **Weight divergence** (§4.3, backward pass): quantization errors in the
//!   backward GEMMs perturb weight *gradients* — both of the quantized layer
//!   itself and, through error propagation, of other layers — and those
//!   gradient errors pass through the AdamW update sensitivity `h′(g)`
//!   (§4.3.2) into weight error, normalized per Definition 4.4.
//!
//! The cross-layer propagation strengths use the measured probe profiles
//! (Theorem 4.2, single-sample estimates from Steps 2–3): `p_bwd[l]` is
//! layer `l`'s gradient response per unit of noise entering the backward
//! pass at the top, `p_fwd[l]` per unit of forward activation noise. We
//! model quantizing layer `i` as injecting noise at layer `i` whose effect
//! follows these profiles — the same one-site approximation the paper makes
//! ("we approximate the expectation by a single sample per batch").
//!
//! Every norm here is a global Frobenius norm. The paper's §6.3 row-wise
//! refinement of the direct term ranked the layers no better on Fig. 13's
//! protocol and fell below the realised gradient error, so it is not
//! implemented; `tests/estimator_validation.rs` holds both halves of the
//! estimate to frozen rank-correlation floors against the realised errors.

use crate::options::{FlopModel, OptionSet};
use crate::probe::SnipMeasurement;
use crate::stats::LayerStats;
use serde::{Deserialize, Serialize};
use snip_nn::ModelConfig;
use snip_quant::LinearPrecision;

/// Per-layer, per-option divergence estimates plus the assembled ILP inputs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Loss divergence `ΔL_{i,j}` per layer `i` and option `j`.
    pub loss_div: Vec<Vec<f64>>,
    /// Weight divergence `ΔW_{i,j}`.
    pub weight_div: Vec<Vec<f64>>,
    /// Quality loss `q_{i,j} = ΔL + ΔW` (the ILP objective coefficients).
    pub quality: Vec<Vec<f64>>,
    /// Efficiency savings `e_{i,j}` (fraction of model FLOPs moved to FP4).
    pub efficiency: Vec<Vec<f64>>,
}

impl Analysis {
    /// Per-layer quality loss of switching from the first option (FP8) to
    /// the last (FP4) — the "importance" visualized in paper Fig. 10.
    pub fn fp4_sensitivity(&self) -> Vec<f64> {
        self.quality
            .iter()
            .map(|q| q.last().unwrap() - q.first().unwrap())
            .collect()
    }
}

/// Loss divergence of one layer under one option (paper §4.2):
///
/// `ΔL = √( (‖∇_X L‖·‖δX‖/√(M·K))² + (‖∇_W L‖·‖δW‖/√(N·K))² ) / |L|`
pub fn loss_divergence(stats: &LayerStats, loss: f64, option: LinearPrecision) -> f64 {
    let m = stats.tokens as f64;
    let n = stats.out_features as f64;
    let k = stats.in_features as f64;
    let dx_term = stats.dx_norm * stats.x_err.get(option.input) / (m * k).sqrt();
    let dw_term = stats.dw_norm * stats.w_err.get(option.weight) / (n * k).sqrt();
    let delta = (dx_term * dx_term + dw_term * dw_term).sqrt();
    if loss.abs() > 0.0 {
        delta / loss.abs()
    } else {
        delta
    }
}

/// First-order noise magnitudes injected by quantizing one layer with one
/// option, derived from Theorem 4.1 applied to the three GEMMs of Fig. 5.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InjectedNoise {
    /// Error in the layer's own weight gradient `dW = dYᵀ·X`.
    pub direct: f64,
    /// Error entering the backward stream through `dX = dY·W`.
    pub backward: f64,
    /// Error entering the forward stream through `Y = X·Wᵀ`.
    pub forward: f64,
}

/// Computes the injected-noise magnitudes for a layer/option pair.
pub fn injected_noise(stats: &LayerStats, option: LinearPrecision) -> InjectedNoise {
    let m = (stats.tokens as f64).sqrt();
    let n = (stats.out_features as f64).sqrt();
    let k = (stats.in_features as f64).sqrt();
    let dy_err = stats.dy_err.get(option.grad);
    let x_err = stats.x_err.get(option.input);
    let w_err = stats.w_err.get(option.weight);
    InjectedNoise {
        // δ(dW) ≈ ‖δdY‖·‖X‖/√M + ‖dY‖·‖δX‖/√M
        direct: (dy_err * stats.x_norm + stats.dy_norm * x_err) / m,
        // δ(dX) ≈ ‖δdY‖·‖W‖/√N + ‖dY‖·‖δW‖/√N
        backward: (dy_err * stats.w_norm + stats.dy_norm * w_err) / n,
        // δY ≈ ‖δX‖·‖W‖/√K + ‖X‖·‖δW‖/√K
        forward: (x_err * stats.w_norm + stats.x_norm * w_err) / k,
    }
}

/// Weight divergence of quantizing layer `i` with `option` (§4.3): the sum
/// over all layers `l` of the induced weight-update error, via the AdamW
/// sensitivity, normalized per Definition 4.4.
pub(crate) fn weight_divergence(m: &SnipMeasurement, i: usize, option: LinearPrecision) -> f64 {
    let n_layers = m.stats.layers.len();
    let noise = injected_noise(&m.stats.layers[i], option);
    let mut total = 0.0;
    for l in 0..n_layers {
        // Gradient error at layer l caused by quantization at layer i.
        let mut dg = 0.0;
        if l == i {
            dg += noise.direct;
        }
        // Backward-stream noise from layer i reaches layers below it.
        if l <= i {
            dg += m.p_bwd[l] * noise.backward;
        }
        // Forward-stream noise perturbs the loss and thus every gradient.
        dg += m.p_fwd[l] * noise.forward;
        let w_norm = m.stats.layers[l].w_norm.max(1e-12);
        total += m.h_sens[l] * dg / w_norm;
    }
    total / n_layers as f64
}

/// Runs the full Step-4 analysis: per-layer/per-option loss and weight
/// divergence, quality `q = ΔL + ΔW` (§5.1) and efficiency coefficients.
pub fn analyze(
    m: &SnipMeasurement,
    cfg: &ModelConfig,
    options: &OptionSet,
    flops: &FlopModel,
) -> Analysis {
    let n_layers = cfg.n_linear_layers();
    assert_eq!(
        m.stats.layers.len(),
        n_layers,
        "measurement/config mismatch"
    );
    let mut loss_div = Vec::with_capacity(n_layers);
    let mut weight_div = Vec::with_capacity(n_layers);
    let mut quality = Vec::with_capacity(n_layers);
    let mut efficiency = Vec::with_capacity(n_layers);
    for i in 0..n_layers {
        let stats = &m.stats.layers[i];
        let mut ld = Vec::with_capacity(options.len());
        let mut wd = Vec::with_capacity(options.len());
        let mut q = Vec::with_capacity(options.len());
        let mut e = Vec::with_capacity(options.len());
        for &opt in options.options() {
            let l = loss_divergence(stats, m.stats.loss, opt);
            let w = weight_divergence(m, i, opt);
            ld.push(l);
            wd.push(w);
            q.push(l + w);
            e.push(flops.efficiency(i, opt));
        }
        loss_div.push(ld);
        weight_div.push(wd);
        quality.push(q);
        efficiency.push(e);
    }
    Analysis {
        loss_div,
        weight_div,
        quality,
        efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::measure;
    use snip_nn::{
        batch::Batch,
        model::{Model, StepOptions},
    };
    use snip_optim::{AdamW, AdamWConfig};
    use snip_quant::Precision;
    use snip_tensor::rng::Rng;

    fn measurement() -> (SnipMeasurement, ModelConfig) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 31).unwrap();
        let mut rng = Rng::seed_from(32);
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![9, 7, 5, 3, 1, 2, 4, 6, 8],
            ],
            8,
        );
        let mut opt = AdamW::new(AdamWConfig::default());
        for _ in 0..3 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            opt.update(&mut model);
        }
        (measure(&mut model, &opt, &batch, &mut rng, 1e-2), cfg)
    }

    #[test]
    fn fp4_diverges_more_than_fp8() {
        let (m, cfg) = measurement();
        let options = OptionSet::fp8_fp4();
        let flops = FlopModel::new(&cfg);
        let a = analyze(&m, &cfg, &options, &flops);
        for i in 0..cfg.n_linear_layers() {
            assert!(
                a.quality[i][1] > a.quality[i][0],
                "layer {i}: fp4 quality {} !> fp8 {}",
                a.quality[i][1],
                a.quality[i][0]
            );
            assert!(a.loss_div[i][1] > 0.0);
            assert!(a.weight_div[i][1] > 0.0);
            assert!(a.efficiency[i][1] > a.efficiency[i][0]);
        }
    }

    #[test]
    fn efficiencies_sum_to_one_for_fp4_column() {
        let (m, cfg) = measurement();
        let options = OptionSet::fp8_fp4();
        let flops = FlopModel::new(&cfg);
        let a = analyze(&m, &cfg, &options, &flops);
        let total: f64 = (0..cfg.n_linear_layers()).map(|i| a.efficiency[i][1]).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn loss_divergence_respects_error_magnitude() {
        let (m, _) = measurement();
        let s = &m.stats.layers[0];
        let fp8 = loss_divergence(s, m.stats.loss, LinearPrecision::uniform(Precision::Fp8));
        let fp4 = loss_divergence(s, m.stats.loss, LinearPrecision::uniform(Precision::Fp4));
        assert!(fp4 > fp8 * 2.0, "fp4 {fp4} vs fp8 {fp8}");
    }

    #[test]
    fn injected_noise_components_positive() {
        let (m, _) = measurement();
        let n = injected_noise(&m.stats.layers[3], LinearPrecision::uniform(Precision::Fp4));
        assert!(n.direct > 0.0);
        assert!(n.backward > 0.0);
        assert!(n.forward > 0.0);
    }

    #[test]
    fn weight_divergence_monotone_in_option_fidelity() {
        let (m, _) = measurement();
        for i in [0usize, 7, 13] {
            let w8 = weight_divergence(&m, i, LinearPrecision::uniform(Precision::Fp8));
            let w4 = weight_divergence(&m, i, LinearPrecision::uniform(Precision::Fp4));
            assert!(w4 > w8, "layer {i}: {w4} !> {w8}");
        }
    }

    #[test]
    fn fp4_sensitivity_has_layer_structure() {
        let (m, cfg) = measurement();
        let options = OptionSet::fp8_fp4();
        let flops = FlopModel::new(&cfg);
        let a = analyze(&m, &cfg, &options, &flops);
        let sens = a.fp4_sensitivity();
        assert_eq!(sens.len(), cfg.n_linear_layers());
        assert!(sens.iter().all(|&s| s > 0.0));
        // Not all layers equally sensitive.
        let max = sens.iter().cloned().fold(0.0f64, f64::max);
        let min = sens.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 1.5 * min, "sensitivities suspiciously flat: {sens:?}");
    }
}
