//! AdamW with FP32 master weights (paper §4.3.2).
//!
//! Besides the standard update, the optimizer exposes the two quantities
//! SNIP's weight-divergence analysis needs:
//!
//! * the first/second moments `m_t`, `v_t` of every parameter, and
//! * the **update sensitivity** `‖h(g+δ) − h(g)‖ / ‖δ‖` of the AdamW update
//!   to a gradient perturbation, whose closed form the paper derives:
//!
//! ```text
//! ‖h(g+εg) − h(g)‖_F ≈ α·√(1−β₂ᵗ)/(1−β₁ᵗ) ·
//!     ‖ (1−β₁)/(√v_t+ε) − (1−β₂)·m_t·g_t / (√v_t·(√v_t+ε)²) ‖_F ·
//!     ‖ε_g‖_F / √(N·K)
//! ```
//!
//! Moment state can optionally live in **bit-packed FP8** storage
//! ([`MomentPrecision::PackedFp8`], the FP8-LM recipe): `m` as E4M3, `v` as
//! the wider-range E5M2, both under 1×128 tile scales in the same `QTensor`
//! representation the linear-layer caches use. Master weights stay FP32
//! (§4.3.2); only the moments shrink (~4 B/param instead of 8). The moments
//! are re-quantized after every update, which is exactly the low-precision
//! optimizer-state trade FP8-LM studies — the sanity experiments verify the
//! trajectory stays within the divergence tolerance.

use serde::{Deserialize, Serialize};
use snip_nn::model::Model;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::wire::{FieldError, Fields, Writer};
use snip_quant::{Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::{pool, QTensor, Tensor};
use std::io::{Read, Write};

/// Storage precision of the AdamW moment state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MomentPrecision {
    /// Dense f32 moments — the classic recipe (8 B/param for `m` + `v`).
    #[default]
    F32,
    /// Bit-packed FP8 moments: `m` in E4M3, `v` in E5M2 (second moments
    /// span a wider dynamic range), 1×128 tile scales — ≥ 3× smaller than
    /// f32 including scale overhead.
    PackedFp8,
}

/// AdamW hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdamWConfig {
    /// Learning rate `α`.
    pub lr: f64,
    /// First-moment decay `β₁`.
    pub beta1: f64,
    /// Second-moment decay `β₂`.
    pub beta2: f64,
    /// Numerical-stability constant `ε`.
    pub eps: f64,
    /// Decoupled weight decay `λ`.
    pub weight_decay: f64,
    /// Storage precision of the moment state (defaults to dense f32).
    #[serde(default)]
    pub moments: MomentPrecision,
}

impl Default for AdamWConfig {
    /// The common LLM-pretraining configuration
    /// (β₁ = 0.9, β₂ = 0.95, λ = 0.1).
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.1,
            moments: MomentPrecision::F32,
        }
    }
}

/// Per-parameter moment state, as dense tensors. For packed storage this is
/// the *decoded view* — bit-identical to what the update loop reads.
#[derive(Clone, Debug, PartialEq)]
pub struct MomentState {
    /// First moment `m_t`.
    pub m: Tensor,
    /// Second moment `v_t`.
    pub v: Tensor,
}

/// The quantizer for packed first moments (E4M3, 1×128 tiles).
fn m_quantizer() -> Quantizer {
    Quantizer::new(
        FloatFormat::e4m3(),
        Granularity::Tile { nb: 128 },
        Rounding::Nearest,
    )
}

/// The quantizer for packed second moments. E5M2: `v` accumulates squared
/// gradients, whose within-tile dynamic range can exceed E4M3's; flushing a
/// small `v` to zero while its `m` survives would blow the update up to
/// `m/ε`, so the wider exponent range matters more than mantissa here.
fn v_quantizer() -> Quantizer {
    Quantizer::new(
        FloatFormat::e5m2(),
        Granularity::Tile { nb: 128 },
        Rounding::Nearest,
    )
}

fn pack_moment(q: &Quantizer, t: &Tensor) -> QTensor {
    let mut rng = Rng::seed_from(0); // nearest rounding draws nothing
    q.quantize_packed(t, &mut rng)
        .expect("FP8 moment formats are packable")
}

/// How one parameter's moments are actually stored.
#[derive(Clone, Debug, PartialEq)]
enum StoredMoments {
    /// Dense f32 tensors.
    Dense {
        /// First moment.
        m: Tensor,
        /// Second moment.
        v: Tensor,
    },
    /// Bit-packed FP8 codes + tile scales, re-quantized after each update.
    PackedFp8 {
        /// First moment (E4M3 codes).
        m: QTensor,
        /// Second moment (E5M2 codes).
        v: QTensor,
    },
}

impl StoredMoments {
    /// Zero moments for a `rows × cols` parameter. Dense moments are
    /// written with zeros here rather than left to the allocator's zeroed
    /// pages: the update that reads them next then takes one page fault per
    /// page, where reading a fresh zeroed page and then writing it takes
    /// two.
    fn zeros(rows: usize, cols: usize, precision: MomentPrecision) -> Self {
        match precision {
            MomentPrecision::F32 => StoredMoments::Dense {
                m: Tensor::full(rows, cols, 0.0),
                v: Tensor::full(rows, cols, 0.0),
            },
            MomentPrecision::PackedFp8 => {
                let zeros = Tensor::zeros(rows, cols);
                StoredMoments::PackedFp8 {
                    m: pack_moment(&m_quantizer(), &zeros),
                    v: pack_moment(&v_quantizer(), &zeros),
                }
            }
        }
    }

    /// The dense view the update math operates on (a decode for packed
    /// storage, a clone for dense).
    fn decode(&self) -> MomentState {
        match self {
            StoredMoments::Dense { m, v } => MomentState {
                m: m.clone(),
                v: v.clone(),
            },
            StoredMoments::PackedFp8 { m, v } => MomentState {
                m: m.dequantize(),
                v: v.dequantize(),
            },
        }
    }

    /// Resident buffer bytes of this parameter's moment storage: the f32
    /// element buffers when dense, the packed codes + tile scales when
    /// packed. Container metadata is excluded on both sides so the ratio
    /// measures what HBM would hold.
    fn resident_bytes(&self) -> usize {
        match self {
            StoredMoments::Dense { m, v } => (m.len() + v.len()) * std::mem::size_of::<f32>(),
            StoredMoments::PackedFp8 { m, v } => {
                m.packed_data_bytes() + m.scale_bytes() + v.packed_data_bytes() + v.scale_bytes()
            }
        }
    }
}

/// The AdamW optimizer.
///
/// Per-parameter state is keyed by position in the model's deterministic
/// [`Model::params_mut`] order.
#[derive(Clone, Debug)]
pub struct AdamW {
    cfg: AdamWConfig,
    step: u64,
    states: Vec<StoredMoments>,
}

impl AdamW {
    /// Creates an optimizer with empty state.
    pub fn new(cfg: AdamWConfig) -> Self {
        AdamW {
            cfg,
            step: 0,
            states: Vec::new(),
        }
    }

    /// The hyperparameter configuration.
    pub fn config(&self) -> &AdamWConfig {
        &self.cfg
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.cfg.lr = lr;
    }

    /// Number of optimizer steps taken (`t`).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Moment state for parameter `index` (in visit order), if it exists
    /// yet, as dense tensors (decoded from packed storage when the
    /// [`MomentPrecision::PackedFp8`] recipe is active).
    pub fn moments(&self, index: usize) -> Option<MomentState> {
        self.states.get(index).map(StoredMoments::decode)
    }

    /// Measured resident buffer bytes of all moment state: dense f32
    /// buffers, or packed codes + tile scales under
    /// [`MomentPrecision::PackedFp8`] (container metadata excluded on both
    /// sides). The optimizer-state counterpart of
    /// `snip_nn::model::StepOutput::linear_cache_bytes`.
    pub fn moment_state_bytes(&self) -> usize {
        self.states.iter().map(StoredMoments::resident_bytes).sum()
    }

    /// Writes the optimizer's state into a checkpoint body (the checkpoint
    /// layout is in the [`snip_quant::wire`] docs): the step count `t`,
    /// the learning rate a schedule last set (as `f64` bits), the number of
    /// parameters with moments (0 before the first update), and per
    /// parameter its `m` and `v` — raw `f32` bits, or under
    /// [`MomentPrecision::PackedFp8`] the codes and tile scales as they are
    /// ([`Writer::codes`]).
    pub fn write_state<W: Write>(&self, w: &mut Writer<W>) {
        w.u64(&self.step);
        w.u64(&self.cfg.lr.to_bits());
        w.usize(&self.states.len());
        for st in &self.states {
            match st {
                StoredMoments::Dense { m, v } => {
                    w.f32s(m.as_slice());
                    w.f32s(v.as_slice());
                }
                StoredMoments::PackedFp8 { m, v } => {
                    w.codes(m);
                    w.codes(v);
                }
            }
        }
    }

    /// Reads what [`AdamW::write_state`] wrote into this optimizer, which
    /// must have been built from the same configuration, for `model`'s
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`FieldError::Malformed`] for more moment entries than `model` has
    /// parameters, or moments of another shape than their parameter; the
    /// optimizer is then partly overwritten.
    pub fn read_state<R: Read>(
        &mut self,
        f: &mut Fields<R>,
        model: &Model,
    ) -> Result<(), FieldError> {
        self.step = f.u64()?;
        self.cfg.lr = f64::from_bits(f.u64()?);
        let params = model.params();
        let count = f.usize()?;
        if count > params.len() {
            let n = params.len();
            return Err(format!("{count} moment entries for {n} parameters").into());
        }
        self.states = Vec::with_capacity(count);
        for p in &params[..count] {
            let (rows, cols) = p.value().shape();
            let st = match self.cfg.moments {
                MomentPrecision::F32 => {
                    let (mut m, mut v) = (Tensor::zeros(rows, cols), Tensor::zeros(rows, cols));
                    f.f32s_into(m.as_mut_slice())?;
                    f.f32s_into(v.as_mut_slice())?;
                    StoredMoments::Dense { m, v }
                }
                MomentPrecision::PackedFp8 => {
                    let (m, v) = (f.codes()?, f.codes()?);
                    if m.shape() != (rows, cols) || v.shape() != (rows, cols) {
                        let (m, v) = (m.shape(), v.shape());
                        let name = p.name();
                        return Err(format!("moments {m:?}, {v:?} of {name}, {rows}x{cols}").into());
                    }
                    StoredMoments::PackedFp8 { m, v }
                }
            };
            self.states.push(st);
        }
        Ok(())
    }

    /// Applies one AdamW update to every parameter of the model using the
    /// accumulated gradients, one parameter per pool task. Gradients are
    /// *not* zeroed.
    ///
    /// Under packed moments the previous `m`/`v` are decoded, updated in
    /// f32, applied to the FP32 master weights, and re-quantized (inside
    /// the parameter's task) — the low-precision state is the *only*
    /// deviation from the f32 recipe.
    pub fn update(&mut self, model: &mut Model) {
        self.update_clipped(model, None);
    }

    /// [`AdamW::update`] on gradients clipped by `clip`, the factor
    /// [`crate::clip::clip_factor`] returns: the sweep reads each gradient
    /// element `g` as the `f32` product `g · clip`, the value
    /// [`crate::clip::clip_global_norm`] would have stored, so parameters
    /// and moments are bit-identical to clipping first and updating after,
    /// without the pass that rewrites every gradient. The gradients stay
    /// unclipped. `None` reads them as they are.
    ///
    /// A parameter seen for the first time gets its zero moments inside
    /// its own task, so they are first written on the thread that updates
    /// them; they join the state in parameter order as before.
    pub fn update_clipped(&mut self, model: &mut Model, clip: Option<f32>) {
        self.step += 1;
        let t = self.step as i32;
        let cfg = self.cfg;
        let bias1 = 1.0 - cfg.beta1.powi(t);
        let bias2 = 1.0 - cfg.beta2.powi(t);
        let params = model.params_mut();
        // New parameters hold an empty placeholder until their task
        // creates their zero moments.
        let first_new = self.states.len();
        let placeholder = || StoredMoments::Dense {
            m: Tensor::zeros(0, 0),
            v: Tensor::zeros(0, 0),
        };
        self.states
            .extend(params.iter().skip(first_new).map(|_| placeholder()));
        let lr = cfg.lr as f32;
        let b1 = cfg.beta1 as f32;
        let b2 = cfg.beta2 as f32;
        let eps = cfg.eps as f32;
        let wd = cfg.weight_decay as f32;
        let inv_bias1 = (1.0 / bias1) as f32;
        let inv_bias2 = (1.0 / bias2) as f32;
        // `g · 1` is `g` for every value but a signalling NaN, which the
        // arithmetic below quiets either way.
        let g_scale = clip.unwrap_or(1.0);
        let work = params.into_iter().zip(&mut self.states).collect();
        pool::for_each_owned(work, |index, (p, st)| {
            if index >= first_new {
                let (rows, cols) = p.value().shape();
                *st = StoredMoments::zeros(rows, cols, cfg.moments);
            }
            // Working copies of the moments: borrowed in place for dense
            // storage, decoded for packed.
            let mut decoded = match st {
                StoredMoments::Dense { .. } => None,
                StoredMoments::PackedFp8 { .. } => Some(st.decode()),
            };
            let (m_data, s_data): (&mut [f32], &mut [f32]) = match (&mut *st, &mut decoded) {
                (StoredMoments::Dense { m, v }, _) => (m.as_mut_slice(), v.as_mut_slice()),
                (_, Some(d)) => (d.m.as_mut_slice(), d.v.as_mut_slice()),
                _ => unreachable!("packed storage always decodes"),
            };
            let (value, grad) = p.value_grad_mut();
            let v_data = value.as_mut_slice();
            let g_data = grad.as_slice();
            for i in 0..v_data.len() {
                let g = g_data[i] * g_scale;
                // Decoupled weight decay.
                v_data[i] -= lr * wd * v_data[i];
                m_data[i] = b1 * m_data[i] + (1.0 - b1) * g;
                s_data[i] = b2 * s_data[i] + (1.0 - b2) * g * g;
                let m_hat = m_data[i] * inv_bias1;
                let v_hat = s_data[i] * inv_bias2;
                v_data[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            if let Some(d) = decoded {
                *st = StoredMoments::PackedFp8 {
                    m: pack_moment(&m_quantizer(), &d.m),
                    v: pack_moment(&v_quantizer(), &d.v),
                };
            }
        });
    }

    /// SNIP's AdamW update-sensitivity factor for parameter `index` given its
    /// current gradient `g` (paper §4.3.2): how strongly a relative gradient
    /// perturbation of unit Frobenius norm moves the weight update, already
    /// including the `α·√(1−β₂ᵗ)/(1−β₁ᵗ)` prefactor and the `1/√(N·K)`
    /// dimensional normalization.
    ///
    /// Returns 0 if no state exists yet for `index`.
    pub fn update_sensitivity(&self, index: usize, g: &Tensor) -> f64 {
        let Some(st) = self.states.get(index) else {
            return 0.0;
        };
        let t = self.step.max(1) as i32;
        let cfg = self.cfg;
        let prefactor = cfg.lr * (1.0 - cfg.beta2.powi(t)).sqrt() / (1.0 - cfg.beta1.powi(t));
        let b1 = cfg.beta1;
        let b2 = cfg.beta2;
        let eps = cfg.eps;
        let mut sq = 0.0f64;
        // Borrow dense storage directly; decode packed storage once.
        let decoded;
        let (m, v): (&[f32], &[f32]) = match st {
            StoredMoments::Dense { m, v } => (m.as_slice(), v.as_slice()),
            StoredMoments::PackedFp8 { .. } => {
                decoded = st.decode();
                (decoded.m.as_slice(), decoded.v.as_slice())
            }
        };
        assert_eq!(g.len(), m.len(), "gradient does not match the moments");
        // Per-element terms go through a small buffer so the `sqrt` and the
        // two divides — all of the cost — run as independent (vectorisable)
        // lanes; the squares are then summed in ascending element order,
        // which keeps the result identical to a single serial loop.
        const CHUNK: usize = 64;
        let mut d = [0.0f64; CHUNK];
        let chunks = m
            .chunks(CHUNK)
            .zip(v.chunks(CHUNK))
            .zip(g.as_slice().chunks(CHUNK));
        for ((m, v), g) in chunks {
            for (d, ((&m, &v), &g)) in d.iter_mut().zip(m.iter().zip(v).zip(g)) {
                let sv = (v as f64).max(0.0).sqrt();
                let term1 = (1.0 - b1) / (sv + eps);
                // Evaluated unconditionally (a select, not a branch, keeps
                // the lane loop vectorisable); 0/0 at `sv == 0` is dropped.
                let term2 = (1.0 - b2) * (m as f64) * (g as f64) / (sv * (sv + eps) * (sv + eps));
                *d = term1 - if sv > 0.0 { term2 } else { 0.0 };
            }
            for d in &d[..g.len()] {
                sq += d * d;
            }
        }
        let d_norm = sq.sqrt();
        let dims = (g.len() as f64).sqrt();
        prefactor * d_norm / dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_nn::{batch::Batch, config::ModelConfig, model::StepOptions};
    use snip_tensor::rng::Rng;

    fn setup() -> (Model, Batch, Rng) {
        let model = Model::new(ModelConfig::tiny_test(), 5).unwrap();
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![2, 4, 6, 8, 10, 12, 14, 16, 1],
            ],
            8,
        );
        (model, batch, Rng::seed_from(6))
    }

    #[test]
    fn adamw_reduces_training_loss() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(AdamWConfig {
            lr: 5e-3,
            ..Default::default()
        });
        let initial = model.forward_loss(&batch, &mut rng);
        for _ in 0..40 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            opt.update(&mut model);
        }
        let fin = model.forward_loss(&batch, &mut rng);
        assert!(fin < initial * 0.7, "loss {initial} -> {fin}");
    }

    #[test]
    fn single_step_matches_reference_formula() {
        // One parameter, one known gradient → closed-form single AdamW step.
        let (mut model, batch, mut rng) = setup();
        let cfg = AdamWConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-8,
            weight_decay: 0.0,
            ..Default::default()
        };
        let mut opt = AdamW::new(cfg);
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        // Snapshot one weight and its gradient.
        let mut w0 = 0.0f32;
        let mut g0 = 0.0f32;
        model.visit_params_mut(&mut |p| {
            if p.name() == "block0.q" {
                w0 = p.value()[(0, 0)];
                g0 = p.grad()[(0, 0)];
            }
        });
        opt.update(&mut model);
        let mut w1 = 0.0f32;
        model.visit_params_mut(&mut |p| {
            if p.name() == "block0.q" {
                w1 = p.value()[(0, 0)];
            }
        });
        // t=1: m̂ = g, v̂ = g² → step = lr·g/(|g|+eps) = lr·sign(g)
        let expect = w0 - 1e-2 * g0.signum();
        assert!(
            (w1 - expect).abs() < 1e-5,
            "w1 = {w1}, expected {expect} (g = {g0})"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let (mut model, _, _) = setup();
        let cfg = AdamWConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..Default::default()
        };
        let mut opt = AdamW::new(cfg);
        let mut before = 0.0;
        model.visit_params_mut(&mut |p| before += p.value().squared_sum());
        model.zero_grads();
        opt.update(&mut model);
        let mut after = 0.0;
        model.visit_params_mut(&mut |p| after += p.value().squared_sum());
        // Zero grads → update is pure decay: w ← (1 − lr·λ)·w = 0.95·w
        let ratio = (after / before).sqrt();
        assert!((ratio - 0.95).abs() < 1e-3, "ratio = {ratio}");
    }

    #[test]
    fn moments_are_tracked_per_parameter() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(AdamWConfig::default());
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        opt.update(&mut model);
        // The Q weight of block 0 has a state with nonzero moments.
        let idx = model.param_index_of(snip_nn::LayerId::new(0, snip_nn::LayerKind::Q));
        let st = opt.moments(idx).expect("state exists");
        assert!(st.m.frobenius_norm() > 0.0);
        assert!(st.v.frobenius_norm() > 0.0);
    }

    #[test]
    fn update_sensitivity_is_positive_and_scales_with_lr() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(AdamWConfig::default());
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        opt.update(&mut model);
        let idx = model.param_index_of(snip_nn::LayerId::new(0, snip_nn::LayerKind::V));
        let g = model
            .linear(snip_nn::LayerId::new(0, snip_nn::LayerKind::V))
            .weight()
            .grad()
            .clone();
        let s1 = opt.update_sensitivity(idx, &g);
        assert!(s1 > 0.0, "sensitivity must be positive");
        let mut opt2 = opt.clone();
        opt2.set_lr(opt.config().lr * 2.0);
        let s2 = opt2.update_sensitivity(idx, &g);
        assert!((s2 / s1 - 2.0).abs() < 1e-9, "sensitivity linear in lr");
    }

    #[test]
    fn sensitivity_without_state_is_zero() {
        let opt = AdamW::new(AdamWConfig::default());
        let g = Tensor::full(2, 2, 1.0);
        assert_eq!(opt.update_sensitivity(0, &g), 0.0);
    }

    /// `opt`'s state written and read back into a fresh optimizer of the
    /// same configuration.
    fn reloaded(opt: &AdamW, model: &Model) -> AdamW {
        let mut w = Writer::new(Vec::new());
        opt.write_state(&mut w);
        let bytes = w.finish().expect("in-memory write").0;
        let mut restored = AdamW::new(*opt.config());
        snip_quant::wire::decode_message(&bytes, |f| restored.read_state(f, model))
            .expect("state reads back");
        restored
    }

    #[test]
    fn state_round_trip() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(AdamWConfig::default());
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        opt.update(&mut model);
        opt.set_lr(7e-4);
        let restored = reloaded(&opt, &model);
        assert_eq!(restored.step_count(), opt.step_count());
        assert_eq!(restored.config(), opt.config());
        assert_eq!(restored.moments(3), opt.moments(3));
    }

    fn packed_cfg(lr: f64) -> AdamWConfig {
        AdamWConfig {
            lr,
            moments: MomentPrecision::PackedFp8,
            ..Default::default()
        }
    }

    #[test]
    fn packed_moments_reduce_training_loss() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(packed_cfg(5e-3));
        let initial = model.forward_loss(&batch, &mut rng);
        for _ in 0..40 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            opt.update(&mut model);
        }
        let fin = model.forward_loss(&batch, &mut rng);
        assert!(fin < initial * 0.7, "loss {initial} -> {fin}");
    }

    #[test]
    fn packed_moments_are_at_least_3x_smaller_than_f32() {
        let (model0, batch, _) = setup();
        let mut bytes = [0usize; 2];
        for (slot, moments) in [(0, MomentPrecision::F32), (1, MomentPrecision::PackedFp8)] {
            let mut model = model0.clone();
            let mut rng = Rng::seed_from(9);
            let mut opt = AdamW::new(AdamWConfig {
                moments,
                ..Default::default()
            });
            for _ in 0..3 {
                model.zero_grads();
                let _ = model.step(&batch, &mut rng, &StepOptions::train());
                opt.update(&mut model);
            }
            bytes[slot] = opt.moment_state_bytes();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            ratio >= 3.0,
            "packed moments only {ratio:.2}x smaller ({} vs {} B)",
            bytes[0],
            bytes[1]
        );
    }

    #[test]
    fn packed_moments_track_the_f32_trajectory() {
        // The FP8 moment path must follow the f32 trajectory closely enough
        // that training quality is unchanged — the §4.3.2 rationale for
        // keeping master weights in f32 while shrinking optimizer state.
        let (model0, batch, _) = setup();
        let mut final_losses = [0.0f64; 2];
        for (slot, moments) in [(0, MomentPrecision::F32), (1, MomentPrecision::PackedFp8)] {
            let mut model = model0.clone();
            let mut rng = Rng::seed_from(17);
            let mut opt = AdamW::new(AdamWConfig {
                lr: 5e-3,
                moments,
                ..Default::default()
            });
            for _ in 0..30 {
                model.zero_grads();
                let _ = model.step(&batch, &mut rng, &StepOptions::train());
                opt.update(&mut model);
            }
            final_losses[slot] = model.forward_loss(&batch, &mut rng);
        }
        let (f32_loss, fp8_loss) = (final_losses[0], final_losses[1]);
        assert!(
            (fp8_loss / f32_loss - 1.0).abs() < 0.1,
            "fp8-moment loss {fp8_loss} diverged from f32 loss {f32_loss}"
        );
    }

    #[test]
    fn packed_moments_decode_view_is_on_the_fp8_grid() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(packed_cfg(1e-3));
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        opt.update(&mut model);
        let idx = model.param_index_of(snip_nn::LayerId::new(0, snip_nn::LayerKind::Q));
        let st = opt.moments(idx).expect("state exists");
        assert!(st.m.frobenius_norm() > 0.0);
        // The decoded moments sit on the FP8 grid: re-quantizing them is
        // idempotent up to the scale-recomputation rounding noise (the same
        // tolerance `fake_quantize_is_idempotent_under_nearest` pins).
        let requant = pack_moment(&m_quantizer(), &st.m).dequantize();
        for (a, b) in st.m.as_slice().iter().zip(requant.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn packed_state_round_trip_is_bit_exact() {
        let (mut model, batch, mut rng) = setup();
        let mut opt = AdamW::new(packed_cfg(2e-3));
        for _ in 0..2 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            opt.update(&mut model);
        }
        let restored = reloaded(&opt, &model);
        assert_eq!(restored.step_count(), opt.step_count());
        for i in 0..8 {
            assert_eq!(restored.moments(i), opt.moments(i), "param {i}");
        }
        assert_eq!(restored.moment_state_bytes(), opt.moment_state_bytes());
    }
}
