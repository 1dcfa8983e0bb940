//! Paper Fig. 13 as a test: SNIP's per-layer sensitivity estimates against
//! the errors they estimate, on a warmed `TrainerConfig::tiny()` model.
//!
//! * **Forward half** (§4.2): `loss_divergence` against the loss change when
//!   that layer alone runs FP4 in a forward pass — the computation
//!   `snip-exp fig13_estimation_validation` prints at `tinyllama_1b_sim`
//!   scale.
//! * **Backward half** (§4.3): `injected_noise(..).direct` against the
//!   realised error of the layer's own weight gradient,
//!   `‖q(dY)ᵀ·q(X) − dYᵀ·X‖_F`, with `q` the FP4 nearest-rounding quantizer
//!   of each operand's role — the same quantizers whose error norms feed
//!   the estimate.
//!
//! Both sides are summed over sixteen BF16 batches, then compared by Spearman
//! rank correlation across the layers against frozen floors. The direct
//! estimate must also stay *above* the realised error in the median: the
//! analysis treats it as a bound. The tensors come from a [`LayerTap`] on
//! the four stages of `Model::step`, as `probe::measure` takes them.

#[path = "../../quant/tests/support/oracle.rs"]
mod oracle;

use oracle::Oracle;
use snip_core::divergence::{injected_noise, loss_divergence};
use snip_core::stats::{LayerView, OperandStats, StepStats};
use snip_core::{Trainer, TrainerConfig};
use snip_nn::record::LayerTap;
use snip_nn::{Batch, LayerId, Linear, LinearCache, Model};
use snip_quant::{LinearPrecision, Precision, Rounding, TensorRole};
use snip_tensor::matmul::matmul_tn;
use snip_tensor::{rng::Rng, Tensor};

/// BF16 training steps before the estimates are taken.
const WARMUP_STEPS: u64 = 60;
/// Batches the estimates and the realised errors are summed over. Four
/// were too few for the forward half: its per-layer loss deltas are small
/// enough that one ULP in the GEMM accumulation reorders layers, and
/// making the tile update one fused multiply-add per k-step took its
/// Spearman from 0.771 to 0.666. Sixteen keep it well clear of the floor.
const BATCHES: usize = 16;

/// Frozen floors, below the values measured at `BATCHES = 16` (forward /
/// direct / direct median ratio): 0.877 / 1.000 / 1.349 with an unfused
/// multiply and add per k-step, 0.864 / 1.000 / 1.355 with the fused
/// multiply-add the engine uses. The direct floor sits above 0.974, what
/// the estimate scored (at `BATCHES = 4`) when it paired the gradient
/// errors with `‖W‖`, `‖δW‖` instead of `‖X‖`, `‖δX‖`.
const FORWARD_SPEARMAN_FLOOR: f64 = 0.70;
const DIRECT_SPEARMAN_FLOOR: f64 = 0.98;

/// What one tapped BF16 pass keeps of a layer; `X` is read from the
/// forward caches and `W` from the model.
#[derive(Default)]
struct Tapped {
    dy: Tensor,
    dw: Tensor,
    y_norm: f64,
    dx_norm: f64,
}

struct Tap(Vec<Tapped>);

impl LayerTap for Tap {
    fn forward(&mut self, id: LayerId, _lin: &Linear, _cache: &LinearCache, y: &Tensor) {
        self.0[id.linear_index()].y_norm = y.frobenius_norm();
    }

    fn backward(&mut self, id: LayerId, dy: &Tensor, dw: &Tensor, dx: &Tensor) {
        let layer = &mut self.0[id.linear_index()];
        layer.dy = dy.clone();
        layer.dw = dw.clone();
        layer.dx_norm = dx.frobenius_norm();
    }
}

fn fp4() -> LinearPrecision {
    LinearPrecision::uniform(Precision::Fp4)
}

/// `t` through the FP4 nearest-rounding quantizer of `role`.
fn fp4_nearest(t: &Tensor, role: TensorRole, nb: usize) -> Tensor {
    Precision::Fp4
        .quantizer_with_group(role, nb)
        .with_rounding(Rounding::Nearest)
        .fake_quantize(t, &mut Rng::seed_from(0))
}

/// `‖q(dY)ᵀ·q(X) − dYᵀ·X‖_F`: the error FP4 operands put into `dW`.
fn realised_direct_error(x: &Tensor, dy: &Tensor, nb: usize) -> f64 {
    let qx = fp4_nearest(x, TensorRole::Input, nb);
    let qdy = fp4_nearest(dy, TensorRole::OutputGrad, nb);
    matmul_tn(&qdy, &qx).distance(&matmul_tn(dy, x))
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&x, &y| v[x].total_cmp(&v[y]));
        let mut r = vec![0.0; v.len()];
        for (ri, &i) in idx.iter().enumerate() {
            r[i] = ri as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let mean = (a.len() as f64 - 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean).powi(2);
        vb += (y - mean).powi(2);
    }
    cov / (va * vb).sqrt()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Per-layer estimates and realised values, each summed over the batches.
struct Validation {
    forward_estimate: Vec<f64>,
    forward_realised: Vec<f64>,
    direct_estimate: Vec<f64>,
    direct_realised: Vec<f64>,
}

/// One BF16 pass through the four stages with a tap, then the estimates
/// from its statistics and the realised direct errors from its tensors.
fn backward_half(model: &mut Model, batch: &Batch, rng: &mut Rng, v: &mut Validation) -> f64 {
    let cfg = model.config().clone();
    let n = cfg.n_linear_layers();
    let mut tap = Tap((0..n).map(|_| Tapped::default()).collect());
    // The pass writes every linear weight's gradient once.
    model.zero_grads();
    let (caches, hidden) = model.forward_blocks(batch, rng, &mut Some(&mut tap as _));
    let head = model.forward_head(&hidden, batch, rng);
    let top = model.backward_head(&head, rng);
    model.backward_blocks(batch, &top, &caches, rng, &mut Some(&mut tap as _));
    let xs: Vec<Tensor> = (0..n)
        .map(|i| {
            let id = LayerId::from_linear_index(i);
            caches[id.block].linear(id.kind).qx.dequantize()
        })
        .collect();
    let views: Vec<LayerView<'_>> = tap
        .0
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let id = LayerId::from_linear_index(i);
            LayerView {
                x: &xs[i],
                w: model.linear(id).weight().value(),
                dy: OperandStats::of(&t.dy, TensorRole::OutputGrad, cfg.quant_group),
                dw: &t.dw,
                y_norm: t.y_norm,
                dx_norm: t.dx_norm,
            }
        })
        .collect();
    let stats = StepStats::from_views(head.loss(), batch.num_tokens(), &views, &cfg);
    for (i, ((view, t), layer)) in views.iter().zip(&tap.0).zip(&stats.layers).enumerate() {
        v.forward_estimate[i] += loss_divergence(layer, stats.loss, fp4());
        v.direct_estimate[i] += injected_noise(layer, fp4()).direct;
        v.direct_realised[i] += realised_direct_error(view.x, &t.dy, cfg.quant_group);
    }
    drop(views);
    stats.loss
}

/// Per layer, `|L(layer i alone FP4) − L| / L` on a forward pass.
fn forward_half(model: &mut Model, batch: &Batch, rng: &mut Rng, base: f64, v: &mut Validation) {
    let n = model.config().n_linear_layers();
    let bf16 = LinearPrecision::uniform(Precision::Bf16);
    for i in 0..n {
        let id = LayerId::from_linear_index(i);
        model.set_layer_precision(id, fp4());
        let loss = model.forward_loss(batch, rng);
        model.set_layer_precision(id, bf16);
        v.forward_realised[i] += (loss - base).abs() / base;
    }
}

fn validate() -> Validation {
    let mut trainer = Trainer::new(TrainerConfig::tiny()).expect("valid config");
    trainer.train(WARMUP_STEPS);
    let batches: Vec<Batch> = (0..BATCHES).map(|_| trainer.peek_batch()).collect();
    let mut model = trainer.model;
    let n = model.config().n_linear_layers();
    model.set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);
    let mut v = Validation {
        forward_estimate: vec![0.0; n],
        forward_realised: vec![0.0; n],
        direct_estimate: vec![0.0; n],
        direct_realised: vec![0.0; n],
    };
    let mut rng = Rng::seed_from(0xF13);
    for batch in &batches {
        let base = backward_half(&mut model, batch, &mut rng, &mut v);
        forward_half(&mut model, batch, &mut rng, base, &mut v);
    }
    v
}

#[test]
fn sensitivity_estimates_rank_the_realised_errors() {
    let v = validate();
    let forward = spearman(&v.forward_estimate, &v.forward_realised);
    let direct = spearman(&v.direct_estimate, &v.direct_realised);
    let direct_ratio = median(
        v.direct_estimate
            .iter()
            .zip(&v.direct_realised)
            .map(|(e, r)| e / r)
            .collect(),
    );
    println!("forward: loss_divergence vs FP4 loss delta, spearman {forward:.3}");
    println!("direct: spearman {direct:.3}, median estimate/realised {direct_ratio:.3}");
    assert!(
        forward >= FORWARD_SPEARMAN_FLOOR,
        "forward spearman {forward} below {FORWARD_SPEARMAN_FLOOR}"
    );
    assert!(
        direct >= DIRECT_SPEARMAN_FLOOR,
        "direct spearman {direct} below {DIRECT_SPEARMAN_FLOOR}"
    );
    assert!(
        direct_ratio >= 1.0,
        "the direct estimate is not a bound: median ratio {direct_ratio}"
    );
}
