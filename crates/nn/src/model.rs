//! The full decoder-only language model with mixed-precision training steps.
//!
//! A step is four stages — [`Model::forward_blocks`], [`Model::forward_head`],
//! [`Model::backward_head`], [`Model::backward_blocks`] — and [`Model::step`]
//! is their composition. The stages are public because the forward caches
//! are only read by the backward: SNIP's probe runs one blocks-forward and
//! three backward passes over it.

use crate::batch::Batch;
use crate::block::{Block, BlockCache};
use crate::config::ModelConfig;
use crate::embedding::Embedding;
use crate::inject::{Injection, InjectionSite};
use crate::layers::LayerId;
use crate::linear::{Linear, LinearCache};
use crate::loss::cross_entropy;
use crate::norm::{RmsNorm, RmsNormCache};
use crate::param::Param;
use crate::record::{LayerTap, StepRecord};
use serde::{Deserialize, Serialize};
use snip_quant::LinearPrecision;
use snip_tensor::{rng::Rng, Tensor};

/// Options controlling one training/evaluation step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepOptions {
    /// Run the backward pass and accumulate gradients.
    pub backward: bool,
    /// Record per-layer tensors and norms (SNIP Step 1).
    pub record: bool,
    /// Optional noise-injection probe (SNIP Steps 2–3).
    pub injection: Option<Injection>,
}

impl StepOptions {
    /// A plain training step: backward, no recording, no injection.
    pub fn train() -> Self {
        StepOptions {
            backward: true,
            ..Default::default()
        }
    }

    /// A statistics-collection step (backward + recording).
    pub fn record() -> Self {
        StepOptions {
            backward: true,
            record: true,
            ..Default::default()
        }
    }

    /// A probe step: backward + recording + injection.
    pub fn probe(injection: Injection) -> Self {
        StepOptions {
            backward: true,
            record: true,
            injection: Some(injection),
        }
    }
}

/// Result of one step.
#[derive(Clone, Debug, Default)]
pub struct StepOutput {
    /// Mean token cross-entropy.
    pub loss: f64,
    /// Tokens processed.
    pub ntokens: usize,
    /// Per-layer record when requested.
    pub record: Option<StepRecord>,
    /// Resident bytes of the quantized linear-layer operands saved for the
    /// backward pass (measured, not estimated: subbyte precisions hold
    /// these bit-packed, BF16 holds them dense).
    pub linear_cache_bytes: usize,
    /// Wall time of the whole step (forward + backward), populated from
    /// telemetry spans when `SNIP_TRACE` collection is on; 0 when off.
    pub step_ns: u64,
    /// Wall time spent in quantizer entry points during the step (this
    /// thread only; excludes RHT rotation). 0 when collection is off.
    pub quantize_ns: u64,
    /// Wall time spent in blocked-GEMM calls dispatched from this thread
    /// during the step. 0 when collection is off.
    pub gemm_ns: u64,
}

/// Saved state of one head forward ([`Model::forward_head`]): the loss and
/// what [`Model::backward_head`] needs to turn it into the gradient entering
/// the last transformer block.
#[derive(Clone, Debug)]
pub struct HeadForward {
    loss: f64,
    dlogits: Tensor,
    hn_cache: RmsNormCache,
    head_cache: LinearCache,
}

impl HeadForward {
    /// Mean token cross-entropy of the pass.
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

/// A Llama-like decoder-only LM with per-layer mixed-precision linear layers.
///
/// # Example
///
/// ```
/// use snip_nn::{config::ModelConfig, model::{Model, StepOptions}, batch::Batch};
/// use snip_tensor::rng::Rng;
///
/// let cfg = ModelConfig::tiny_test();
/// let mut model = Model::new(cfg, 42).unwrap();
/// let mut rng = Rng::seed_from(7);
/// let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
/// let out = model.step(&batch, &mut rng, &StepOptions::train());
/// assert!(out.loss.is_finite());
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Model {
    cfg: ModelConfig,
    embed: Embedding,
    blocks: Vec<Block>,
    final_norm: RmsNorm,
    lm_head: Linear,
}

impl Model {
    /// Builds a freshly initialized model.
    ///
    /// # Errors
    ///
    /// Returns the config-validation message if `cfg` is inconsistent.
    pub fn new(cfg: ModelConfig, seed: u64) -> Result<Self, String> {
        cfg.validate()?;
        let mut rng = Rng::seed_from(seed);
        let embed = Embedding::new("embed", cfg.vocab_size, cfg.hidden, 0.02, &mut rng);
        let blocks = (0..cfg.n_layers)
            .map(|i| Block::new(i, &cfg, &mut rng))
            .collect();
        let final_norm = RmsNorm::new("final_norm", cfg.hidden);
        let lm_head = Linear::new(
            "lm_head",
            cfg.vocab_size,
            cfg.hidden,
            1.0,
            cfg.quant_group,
            &mut rng,
        );
        Ok(Model {
            cfg,
            embed,
            blocks,
            final_norm,
            lm_head,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Access one quantizable linear layer.
    pub fn linear(&self, id: LayerId) -> &Linear {
        self.blocks[id.block].linear(id.kind)
    }

    /// Sets the precision of one quantizable linear layer (SNIP Step 6).
    pub fn set_layer_precision(&mut self, id: LayerId, p: LinearPrecision) {
        self.blocks[id.block].linear_mut(id.kind).set_precision(p);
    }

    /// Applies a full per-layer scheme, indexed by [`LayerId::linear_index`].
    ///
    /// # Panics
    ///
    /// Panics if `scheme.len() != n_layers · 7`.
    pub fn set_scheme(&mut self, scheme: &[LinearPrecision]) {
        assert_eq!(
            scheme.len(),
            self.cfg.n_linear_layers(),
            "scheme length mismatch"
        );
        for (i, &p) in scheme.iter().enumerate() {
            self.set_layer_precision(LayerId::from_linear_index(i), p);
        }
    }

    /// The current per-layer scheme.
    pub fn scheme(&self) -> Vec<LinearPrecision> {
        (0..self.cfg.n_linear_layers())
            .map(|i| self.linear(LayerId::from_linear_index(i)).precision())
            .collect()
    }

    /// Visits every trainable parameter in a fixed, deterministic order.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(self.embed.table_mut());
        for b in &mut self.blocks {
            b.visit_params_mut(f);
        }
        f(self.final_norm.gain_mut());
        f(self.lm_head.weight_mut());
    }

    /// Index of a quantizable linear layer's weight in the
    /// [`Model::visit_params_mut`] order. Optimizers key their per-parameter
    /// state by this order, so SNIP uses it to pair a layer with its AdamW
    /// moments.
    ///
    /// Visit order: `embed`, then per block `attn_norm, Q, K, V, O, Gate,
    /// Up, Down, mlp_norm`, then `final_norm`, `lm_head`.
    pub fn param_index_of(&self, id: LayerId) -> usize {
        const PARAMS_PER_BLOCK: usize = 9; // 2 norms + 7 linears
        1 + id.block * PARAMS_PER_BLOCK + 1 + id.kind.index()
    }

    /// Switches the whole model (all block linears and the LM head) to exact
    /// f32 math — no quantization, no BF16 rounding. Gradient-check tests
    /// and FP32 reference baselines use this.
    pub fn set_exact_mode(&mut self, exact: bool) {
        for b in &mut self.blocks {
            b.set_exact_mode(exact);
        }
        self.lm_head.set_exact_mode(exact);
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Global gradient norm across all parameters.
    pub fn grad_norm(&mut self) -> f64 {
        let mut sq = 0.0;
        self.visit_params_mut(&mut |p| sq += p.grad().squared_sum());
        sq.sqrt()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params_mut(&mut |p| n += p.numel());
        n
    }

    /// Stage 1 — blocks-forward: embedding and every transformer block.
    /// Returns the per-block backward caches and the final hidden state
    /// (the last block's output, before `final_norm`). `tap`, when present,
    /// observes every quantizable linear layer.
    ///
    /// # Panics
    ///
    /// Panics if the batch's sequence length exceeds `max_seq` or token ids
    /// exceed the vocabulary.
    pub fn forward_blocks(
        &self,
        batch: &Batch,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> (Vec<BlockCache>, Tensor) {
        self.forward_tokens(
            batch.tokens(),
            batch.batch_size(),
            batch.seq_len(),
            rng,
            tap,
        )
    }

    /// The one loop over the blocks' forward passes.
    fn forward_tokens(
        &self,
        tokens: &[u32],
        batch: usize,
        seq: usize,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> (Vec<BlockCache>, Tensor) {
        assert!(seq <= self.cfg.max_seq, "sequence longer than max_seq");
        let mut x = self.embed.forward(tokens);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, c) = block.forward(&x, batch, seq, rng, tap);
            x = y;
            caches.push(c);
        }
        (caches, x)
    }

    /// Stage 2 — head forward: `final_norm`, the LM head and the loss on a
    /// final hidden state from [`Model::forward_blocks`].
    pub fn forward_head(&self, hidden: &Tensor, batch: &Batch, rng: &mut Rng) -> HeadForward {
        let (hn, hn_cache) = self.final_norm.forward(hidden);
        let (logits, head_cache) = self.lm_head.forward(&hn, rng);
        let (loss, dlogits) = cross_entropy(&logits, batch.targets());
        HeadForward {
            loss,
            dlogits,
            hn_cache,
            head_cache,
        }
    }

    /// Stage 3 — head backward: through the LM head and `final_norm`
    /// (accumulating their gradients). Returns the gradient entering the
    /// last transformer block.
    pub fn backward_head(&mut self, head: &HeadForward, rng: &mut Rng) -> Tensor {
        let dhn = self.lm_head.backward(&head.dlogits, &head.head_cache, rng);
        self.final_norm.backward(&dhn, &head.hn_cache)
    }

    /// Stage 4 — blocks-backward: from `top`, the gradient entering the
    /// last block, down through every block and the embedding,
    /// accumulating their gradients. `caches` are the ones
    /// [`Model::forward_blocks`] returned for the same batch; they are only
    /// read, so one forward can serve several backward passes.
    ///
    /// # Panics
    ///
    /// Panics unless `caches` holds one cache per block.
    pub fn backward_blocks(
        &mut self,
        batch: &Batch,
        top: &Tensor,
        caches: &[BlockCache],
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) {
        assert_eq!(caches.len(), self.blocks.len(), "one cache per block");
        let mut dx: Option<Tensor> = None;
        for (block, cache) in self.blocks.iter_mut().zip(caches).rev() {
            dx = Some(block.backward(dx.as_ref().unwrap_or(top), cache, rng, tap));
        }
        self.embed
            .backward(batch.tokens(), dx.as_ref().unwrap_or(top));
    }

    /// Runs one step: the plain composition of the four stages —
    /// [`Model::forward_blocks`], [`Model::forward_head`] and, with
    /// `opts.backward`, [`Model::backward_head`] and
    /// [`Model::backward_blocks`]. A probe's noise enters between stages:
    /// `ForwardTop` on the hidden state before the head, `BackwardTop` on
    /// the gradient leaving it. With `opts.record` a [`StepRecord`] taps
    /// every linear layer.
    ///
    /// Gradients are *accumulated*; call [`Model::zero_grads`] between steps.
    ///
    /// # Panics
    ///
    /// Panics if the batch's sequence length exceeds `max_seq` or token ids
    /// exceed the vocabulary.
    pub fn step(&mut self, batch: &Batch, rng: &mut Rng, opts: &StepOptions) -> StepOutput {
        let mut record = opts
            .record
            .then(|| StepRecord::with_layers(self.cfg.n_linear_layers()));
        // Telemetry: snapshot this thread's quantize/GEMM time counters so
        // the step can report its own deltas (each data-parallel rank steps
        // on its own thread, so thread-local deltas attribute correctly).
        // One relaxed load when collection is off (zero-bit contract).
        let obs = snip_obs::enabled();
        let _step_span = snip_obs::span("model.step");
        let (t0, quant0, gemm0) = if obs {
            (
                snip_obs::trace::now_ns(),
                snip_obs::thread_counter_value("quant.ns"),
                snip_obs::thread_counter_value("gemm.ns"),
            )
        } else {
            (0, 0, 0)
        };
        let inject = |site: InjectionSite, t: &mut Tensor| {
            if let Some(inj) = opts.injection.filter(|inj| inj.site == site) {
                inj.apply(t);
            }
        };
        let (loss, linear_cache_bytes) = {
            let mut tap = record.as_mut().map(|r| r as &mut dyn LayerTap);
            let (caches, mut hidden) = self.forward_blocks(batch, rng, &mut tap);
            // Step 3 probe: perturb the last block's output activations.
            inject(InjectionSite::ForwardTop, &mut hidden);
            let head = self.forward_head(&hidden, batch, rng);
            if opts.backward {
                let mut top = self.backward_head(&head, rng);
                // Step 2 probe: perturb the gradient entering the last block.
                inject(InjectionSite::BackwardTop, &mut top);
                self.backward_blocks(batch, &top, &caches, rng, &mut tap);
            }
            let linear_cache_bytes = caches
                .iter()
                .map(BlockCache::linear_cache_bytes)
                .sum::<usize>()
                + head.head_cache.resident_bytes();
            (head.loss, linear_cache_bytes)
        };
        let ntokens = batch.num_tokens();
        if let Some(rec) = record.as_mut() {
            rec.loss = loss;
            rec.ntokens = ntokens;
        }
        let (step_ns, quantize_ns, gemm_ns) = if obs {
            (
                snip_obs::trace::now_ns().saturating_sub(t0),
                snip_obs::thread_counter_value("quant.ns").saturating_sub(quant0),
                snip_obs::thread_counter_value("gemm.ns").saturating_sub(gemm0),
            )
        } else {
            (0, 0, 0)
        };
        StepOutput {
            loss,
            ntokens,
            record,
            linear_cache_bytes,
            step_ns,
            quantize_ns,
            gemm_ns,
        }
    }

    /// Forward-only loss on a batch (no gradient, no recording).
    pub fn forward_loss(&mut self, batch: &Batch, rng: &mut Rng) -> f64 {
        self.step(
            batch,
            rng,
            &StepOptions {
                backward: false,
                ..Default::default()
            },
        )
        .loss
    }

    /// Logits for a flattened token window — used by the evaluation harness.
    pub fn logits(&self, tokens: &[u32], batch: usize, seq: usize, rng: &mut Rng) -> Tensor {
        assert_eq!(tokens.len(), batch * seq, "bad token count");
        let (_, x) = self.forward_tokens(tokens, batch, seq, rng, &mut None);
        let (hn, _) = self.final_norm.forward(&x);
        let (logits, _) = self.lm_head.forward(&hn, rng);
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerKind;
    use snip_quant::Precision;

    fn tiny_setup() -> (Model, Batch, Rng) {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg, 1).unwrap();
        let rng = Rng::seed_from(2);
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![9, 8, 7, 6, 5, 4, 3, 2, 1],
            ],
            8,
        );
        (model, batch, rng)
    }

    #[test]
    fn fp4_scheme_shrinks_the_measured_backward_cache() {
        let (mut model, batch, mut rng) = tiny_setup();
        let n = model.config().n_linear_layers();
        let bf16 = model.step(&batch, &mut rng, &StepOptions::train());
        assert!(bf16.linear_cache_bytes > 0);

        model.set_scheme(&vec![
            snip_quant::LinearPrecision::uniform(Precision::Fp4);
            n
        ]);
        let fp4 = model.step(&batch, &mut rng, &StepOptions::train());
        let ratio = bf16.linear_cache_bytes as f64 / fp4.linear_cache_bytes as f64;
        // tiny_test is a worst case for the ratio: 1×8 tiles cost 0.5 B of
        // scales per element on top of 0.5 B of codes, the LM head stays
        // high-precision (dense), and per-tensor metadata is significant on
        // 16×16 tensors. Paper-scale shapes with 128-wide groups approach
        // 8×; see the Linear-level test for the per-operand bound.
        assert!(ratio >= 2.0, "fp4 cache only {ratio}x smaller");

        model.set_scheme(&vec![
            snip_quant::LinearPrecision::uniform(Precision::Fp8);
            n
        ]);
        let fp8 = model.step(&batch, &mut rng, &StepOptions::train());
        assert!(fp4.linear_cache_bytes < fp8.linear_cache_bytes);
        assert!(fp8.linear_cache_bytes < bf16.linear_cache_bytes);
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let (mut model, batch, mut rng) = tiny_setup();
        let loss = model.forward_loss(&batch, &mut rng);
        let uniform = (model.config().vocab_size as f64).ln();
        assert!(
            (loss - uniform).abs() < 0.5,
            "loss {loss} vs ln(V) {uniform}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, batch, mut rng) = tiny_setup();
        let initial = model.forward_loss(&batch, &mut rng);
        // Plain SGD on the same batch must overfit it.
        for _ in 0..30 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            model.visit_params_mut(&mut |p| {
                let (v, g) = p.value_grad_mut();
                v.axpy(-0.5, g);
            });
        }
        let fin = model.forward_loss(&batch, &mut rng);
        assert!(fin < initial * 0.8, "loss did not drop: {initial} -> {fin}");
    }

    #[test]
    fn full_model_gradient_check_on_embedding() {
        let (mut model, batch, mut rng) = tiny_setup();
        model.set_exact_mode(true);
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        let an = model.embed.table().grad()[(1, 0)] as f64;
        let h = 1e-2f32;
        let mut mp = model.clone();
        mp.embed.table_mut().value_mut()[(1, 0)] += h;
        let mut mm = model.clone();
        mm.embed.table_mut().value_mut()[(1, 0)] -= h;
        let fd = (mp.forward_loss(&batch, &mut rng) - mm.forward_loss(&batch, &mut rng))
            / (2.0 * h as f64);
        assert!((fd - an).abs() < 2e-2 * (1.0 + an.abs()), "fd={fd} an={an}");
    }

    #[test]
    fn full_model_gradient_check_on_deep_weight() {
        let (mut model, batch, mut rng) = tiny_setup();
        model.set_exact_mode(true);
        model.zero_grads();
        let _ = model.step(&batch, &mut rng, &StepOptions::train());
        let id = LayerId::new(0, LayerKind::Gate);
        let an = model.linear(id).weight().grad()[(2, 3)] as f64;
        let h = 1e-2f32;
        let mut mp = model.clone();
        mp.blocks[0]
            .linear_mut(LayerKind::Gate)
            .weight_mut()
            .value_mut()[(2, 3)] += h;
        let mut mm = model.clone();
        mm.blocks[0]
            .linear_mut(LayerKind::Gate)
            .weight_mut()
            .value_mut()[(2, 3)] -= h;
        let fd = (mp.forward_loss(&batch, &mut rng) - mm.forward_loss(&batch, &mut rng))
            / (2.0 * h as f64);
        assert!((fd - an).abs() < 2e-2 * (1.0 + an.abs()), "fd={fd} an={an}");
    }

    #[test]
    fn scheme_round_trip() {
        let (mut model, _, _) = tiny_setup();
        let n = model.config().n_linear_layers();
        let mut scheme = vec![LinearPrecision::uniform(Precision::Fp8); n];
        scheme[3] = LinearPrecision::uniform(Precision::Fp4);
        model.set_scheme(&scheme);
        assert_eq!(model.scheme(), scheme);
    }

    #[test]
    fn recording_fills_every_layer() {
        let (mut model, batch, mut rng) = tiny_setup();
        model.zero_grads();
        let out = model.step(&batch, &mut rng, &StepOptions::record());
        let rec = out.record.expect("record requested");
        assert_eq!(rec.linears.len(), model.config().n_linear_layers());
        assert_eq!(rec.ntokens, batch.num_tokens());
        assert!(rec.loss > 0.0);
        for (i, lr) in rec.linears.iter().enumerate() {
            assert!(lr.dw_norm() > 0.0, "layer {i} has no dw");
        }
    }

    #[test]
    fn forward_injection_changes_loss_backward_injection_does_not() {
        use crate::inject::{Injection, InjectionSite};
        let (mut model, batch, mut rng) = tiny_setup();
        let base = model.forward_loss(&batch, &mut rng);

        let fwd = model.step(
            &batch,
            &mut rng,
            &StepOptions::probe(Injection {
                site: InjectionSite::ForwardTop,
                epsilon: 1.0,
                seed: 9,
            }),
        );
        assert!(
            (fwd.loss - base).abs() > 1e-6,
            "forward noise must move loss"
        );

        let bwd = model.step(
            &batch,
            &mut rng,
            &StepOptions::probe(Injection {
                site: InjectionSite::BackwardTop,
                epsilon: 1.0,
                seed: 9,
            }),
        );
        assert!(
            (bwd.loss - base).abs() < 1e-9,
            "backward noise must not change the forward loss"
        );
    }

    #[test]
    fn injection_perturbs_gradients() {
        use crate::inject::{Injection, InjectionSite};
        let (mut model, batch, mut rng) = tiny_setup();
        model.zero_grads();
        let base = model
            .step(&batch, &mut rng, &StepOptions::record())
            .record
            .unwrap();
        model.zero_grads();
        let noisy = model
            .step(
                &batch,
                &mut rng,
                &StepOptions::probe(Injection {
                    site: InjectionSite::BackwardTop,
                    epsilon: 0.5,
                    seed: 11,
                }),
            )
            .record
            .unwrap();
        // Early-layer gradients must differ from baseline.
        let id = LayerId::new(0, LayerKind::Q).linear_index();
        let diff = base.linears[id].dw.distance(&noisy.linears[id].dw);
        assert!(diff > 0.0, "probe left gradients unchanged");
    }

    #[test]
    fn logits_shape() {
        let (model, batch, mut rng) = tiny_setup();
        let logits = model.logits(batch.tokens(), 2, 8, &mut rng);
        assert_eq!(logits.shape(), (16, model.config().vocab_size));
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let (mut model, batch, rng) = tiny_setup();
        let json = serde_json::to_string(&model).unwrap();
        let mut restored: Model = serde_json::from_str(&json).unwrap();
        let a = model.forward_loss(&batch, &mut rng.clone());
        let b = restored.forward_loss(&batch, &mut rng.clone());
        assert_eq!(a, b);
    }
}
