//! The full decoder-only language model with mixed-precision training steps.
//!
//! A step is four stages — [`Model::forward_blocks`], [`Model::forward_head`],
//! [`Model::backward_head`], [`Model::backward_blocks`] — and [`Model::step`]
//! is their composition. The stages are public because the forward caches
//! are only read by the backward: SNIP's probe runs one blocks-forward and
//! three backward passes over it.

use crate::batch::Batch;
use crate::block::{Block, BlockCache, PARAMS_PER_BLOCK};
use crate::config::ModelConfig;
use crate::embedding::Embedding;
use crate::layers::{LayerId, LayerKind};
use crate::linear::{self, Linear, LinearCache};
use crate::loss::cross_entropy;
use crate::norm::{RmsNorm, RmsNormCache};
use crate::param::{Init, Param};
use crate::record::{LayerTap, StepRecord};
use snip_quant::wire::{FieldError, Fields, Writer};
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::pool::{self, Reduction};
use snip_tensor::{rng::Rng, Tensor};
use std::io::{Read, Write};
use std::sync::Arc;

/// Options controlling one training/evaluation step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepOptions {
    /// Run the backward pass, filling the gradients ([`Model::step`]).
    pub backward: bool,
    /// Snapshot every linear layer into a [`StepRecord`] (a test oracle).
    pub record: bool,
}

impl StepOptions {
    /// A plain training step: backward, no recording.
    pub fn train() -> Self {
        StepOptions {
            backward: true,
            ..Default::default()
        }
    }

    /// A recorded step: backward, and a [`StepRecord`] of every layer.
    pub fn record() -> Self {
        StepOptions {
            backward: true,
            record: true,
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
    /// these bit-packed; BF16 holds each layer input once, in place, and
    /// no weight bytes).
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
#[derive(Clone, Debug)]
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
        Model::build(cfg, Init::Draw(&mut Rng::seed_from(seed)))
    }

    /// A model of `cfg`'s shapes whose Gaussian-initialised parameters (the
    /// embedding and every linear weight) are allocated zero, not drawn —
    /// for a caller that overwrites every value, as a checkpoint load does
    /// through [`Model::read_state`]. The norm gains start at 1 as in
    /// [`Model::new`].
    ///
    /// # Errors
    ///
    /// Returns the config-validation message if `cfg` is inconsistent.
    pub fn blank(cfg: ModelConfig) -> Result<Self, String> {
        Model::build(cfg, Init::Blank)
    }

    fn build(cfg: ModelConfig, mut init: Init) -> Result<Self, String> {
        cfg.validate()?;
        let embed = Embedding::init("embed", cfg.vocab_size, cfg.hidden, 0.02, &mut init);
        let blocks = (0..cfg.n_layers)
            .map(|i| Block::init(i, &cfg, &mut init))
            .collect();
        let final_norm = RmsNorm::new("final_norm", cfg.hidden);
        let lm_head = Linear::init(
            "lm_head",
            cfg.vocab_size,
            cfg.hidden,
            1.0,
            cfg.quant_group,
            &mut init,
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

    /// Every trainable parameter in its fixed, deterministic order:
    /// `embed`, then per block [`Block::params_mut`] (`attn_norm, Q, K, V,
    /// O, Gate, Up, Down, mlp_norm`), then `final_norm`, `lm_head`.
    /// Optimizers key their per-parameter state by this order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::with_capacity(3 + self.blocks.len() * PARAMS_PER_BLOCK);
        params.push(self.embed.table_mut());
        for b in &mut self.blocks {
            params.extend(b.params_mut());
        }
        params.push(self.final_norm.gain_mut());
        params.push(self.lm_head.weight_mut());
        params
    }

    /// [`Model::params_mut`], read-only.
    pub fn params(&self) -> Vec<&Param> {
        let mut params = Vec::with_capacity(3 + self.blocks.len() * PARAMS_PER_BLOCK);
        params.push(self.embed.table());
        for b in &self.blocks {
            params.extend(b.params());
        }
        params.push(self.final_norm.gain());
        params.push(self.lm_head.weight());
        params
    }

    /// Writes the model's state into a checkpoint body (the checkpoint
    /// layout is in the [`snip_quant::wire`] docs): every parameter's value
    /// as raw `f32` bits in [`Model::params_mut`] order, then per linear
    /// layer — each block's in [`LayerKind::ALL`] order, then the LM head —
    /// its input, weight and gradient precision (one byte each, the index
    /// in [`Precision::ALL`]) and its exact flag. Gradients, caches and
    /// derived tables are not state.
    pub fn write_state<W: Write>(&self, w: &mut Writer<W>) {
        for p in self.params() {
            w.f32s(p.value().as_slice());
        }
        let linears = self
            .blocks
            .iter()
            .flat_map(|b| LayerKind::ALL.map(|k| b.linear(k)));
        for l in linears.chain([&self.lm_head]) {
            let p = l.precision();
            for byte in [p.input, p.weight, p.grad].map(|p| p as u8) {
                w.u8(byte);
            }
            w.u8(u8::from(l.exact()));
        }
    }

    /// Reads what [`Model::write_state`] wrote into this model, which must
    /// have the shapes the state was written from (a model built from the
    /// same [`ModelConfig`]).
    ///
    /// # Errors
    ///
    /// A value vector of another length than its parameter, or a
    /// precision or flag byte out of range, as [`FieldError::Malformed`];
    /// the model is then partly overwritten.
    pub fn read_state<R: Read>(&mut self, f: &mut Fields<R>) -> Result<(), FieldError> {
        for p in self.params_mut() {
            f.f32s_into(p.value_mut().as_mut_slice())?;
        }
        let mut layers: Vec<&mut Linear> = Vec::with_capacity(self.cfg.n_linear_layers() + 1);
        for b in &mut self.blocks {
            layers.extend(b.linears_mut());
        }
        layers.push(&mut self.lm_head);
        for l in layers {
            let mut precision = [Precision::Bf16; 3];
            for p in &mut precision {
                let byte = f.u8()?;
                *p = *Precision::ALL
                    .get(usize::from(byte))
                    .ok_or_else(|| format!("precision byte {byte}"))?;
            }
            let [input, weight, grad] = precision;
            l.set_precision(LinearPrecision {
                input,
                weight,
                grad,
            });
            l.set_exact_mode(match f.u8()? {
                0 => false,
                1 => true,
                byte => return Err(format!("exact flag byte {byte}").into()),
            });
        }
        Ok(())
    }

    /// Visits every trainable parameter in [`Model::params_mut`] order.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Index of a quantizable linear layer's weight in the
    /// [`Model::params_mut`] order. Optimizers key their per-parameter
    /// state by this order, so SNIP uses it to pair a layer with its AdamW
    /// moments.
    pub fn param_index_of(&self, id: LayerId) -> usize {
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

    /// Readies every gradient for the next backward pass. The gradients a
    /// backward *accumulates* into — the embedding table's and the norm
    /// gains' — are zeroed, one parameter per pool task. A linear weight's
    /// gradient is *written* whole by its layer's one weight-gradient GEMM
    /// ([`Linear::backward`]), so it is left as it is (re-armed,
    /// [`Param::rearm_grad`]): until the next backward writes it, it holds
    /// the last pass's `dW`. [`Model::zero_all_grads`] zeroes those too.
    pub fn zero_grads(&mut self) {
        let mut accumulated = Vec::with_capacity(2 + 2 * self.blocks.len());
        accumulated.push(self.embed.table_mut());
        for b in &mut self.blocks {
            // `attn_norm`, the seven linear weights, `mlp_norm`.
            let [attn_norm, linears @ .., mlp_norm] = b.params_mut();
            accumulated.extend([attn_norm, mlp_norm]);
            linears.into_iter().for_each(Param::rearm_grad);
        }
        accumulated.push(self.final_norm.gain_mut());
        self.lm_head.weight_mut().rearm_grad();
        pool::for_each_owned(accumulated, |_, p| p.zero_grad());
    }

    /// Zeroes every gradient, the linear weights' included, one parameter
    /// per pool task: for a state that must not carry a step's gradients
    /// on (a rolled-back step, a finished probe). A step needs only
    /// [`Model::zero_grads`].
    pub fn zero_all_grads(&mut self) {
        pool::for_each_owned(self.params_mut(), |_, p| p.zero_grad());
    }

    /// Global gradient norm across all parameters: one squared sum per
    /// pool task, added in parameter order.
    pub fn grad_norm(&mut self) -> f64 {
        let params = self.params_mut();
        let tasks = params
            .iter()
            .map(|p| Box::new(move || p.grad().squared_sum()) as Reduction<'_>)
            .collect();
        pool::reduce(tasks)
            .into_iter()
            .fold(0.0, |sq, s| sq + s)
            .sqrt()
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

    /// The one loop over the blocks' forward passes; each block's input
    /// moves into it.
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
            let (y, c) = block.forward(x, batch, seq, rng, tap);
            x = y;
            caches.push(c);
        }
        (caches, x)
    }

    /// Stage 2 — head forward: `final_norm`, the LM head and the loss on a
    /// final hidden state from [`Model::forward_blocks`]. `hidden` is
    /// borrowed (SNIP's probe runs the head twice on it), so `final_norm`
    /// caches a copy.
    pub fn forward_head(&self, hidden: &Tensor, batch: &Batch, rng: &mut Rng) -> HeadForward {
        let (hn, hn_cache) = self.final_norm.forward(hidden.clone());
        let (logits, head_cache) = self.lm_head.forward(Arc::new(hn), rng);
        let (loss, dlogits) = cross_entropy(&logits, batch.targets());
        HeadForward {
            loss,
            dlogits,
            hn_cache,
            head_cache,
        }
    }

    /// Stage 3 — head backward: through the LM head and `final_norm`
    /// (writing the head weight's gradient, accumulating the gain's).
    /// Returns the gradient entering the last transformer block.
    pub fn backward_head(&mut self, head: &HeadForward, rng: &mut Rng) -> Tensor {
        let dhn = self.lm_head.backward(&head.dlogits, &head.head_cache, rng);
        self.final_norm.backward(&dhn, &head.hn_cache)
    }

    /// Stage 4 — blocks-backward: from `top`, the gradient entering the
    /// last block, down through every block and the embedding, writing
    /// their linear weights' gradients and accumulating the rest. `caches`
    /// are the ones [`Model::forward_blocks`] returned for the same batch;
    /// they are only read, so one forward can serve several backward
    /// passes.
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
    /// [`Model::backward_blocks`]. With `opts.record` a [`StepRecord`] taps
    /// every linear layer.
    ///
    /// The backward writes each linear weight's gradient once and
    /// accumulates the embedding's and the norm gains'; call
    /// [`Model::zero_grads`] between steps (debug builds panic on a second
    /// write without it).
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
        let (loss, linear_cache_bytes) = {
            let mut tap = record.as_mut().map(|r| r as &mut dyn LayerTap);
            let (caches, hidden) = self.forward_blocks(batch, rng, &mut tap);
            let head = self.forward_head(&hidden, batch, rng);
            if opts.backward {
                let top = self.backward_head(&head, rng);
                self.backward_blocks(batch, &top, &caches, rng, &mut tap);
            }
            let linear_cache_bytes = caches
                .iter()
                .map(BlockCache::linear_cache_bytes)
                .sum::<usize>()
                + linear::cache_bytes(&[&head.head_cache]);
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
        self.step(batch, rng, &StepOptions::default()).loss
    }

    /// Logits for a flattened token window — used by the evaluation harness.
    pub fn logits(&self, tokens: &[u32], batch: usize, seq: usize, rng: &mut Rng) -> Tensor {
        assert_eq!(tokens.len(), batch * seq, "bad token count");
        let (_, x) = self.forward_tokens(tokens, batch, seq, rng, &mut None);
        let (hn, _) = self.final_norm.forward(x);
        let (logits, _) = self.lm_head.forward(Arc::new(hn), rng);
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

    /// `linear_cache_bytes` is exact accounting of what a step keeps for
    /// backward. BF16 reads every input and weight in place, so it charges
    /// each distinct layer input once — Q, K and V share `xn1`, Gate and Up
    /// `xn2` — and no weight bytes; FP8 and FP4 charge the packed input
    /// (1×nb tiles) and the packed weight (nb×nb blocks) of every block
    /// layer, and no f32 input. The LM head is outside the scheme and stays
    /// BF16 (input held, in-place weight) throughout.
    #[test]
    fn fp4_scheme_shrinks_the_measured_backward_cache() {
        use snip_quant::{PackedQuantize, TensorRole};
        use snip_tensor::QTensor;
        let (mut model, short, mut rng) = tiny_setup();
        let cfg = model.config().clone();
        let sequences: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..17).map(|t| (5 * s + t) % 17).collect())
            .collect();
        let long = Batch::from_sequences(&sequences, 16);
        let [short, long] = [short, long].map(|batch| {
            let tokens = batch.num_tokens();
            let dense = |cols: usize| std::mem::size_of::<Tensor>() + tokens * cols * 4;
            let packed = |p: Precision, role, rows, cols| {
                let q = p.quantizer_with_group(role, cfg.quant_group);
                let bytes = q.packed_wire_bytes(rows, cols).expect("packable");
                std::mem::size_of::<QTensor>() + bytes as usize
            };
            let expected = |p: Precision| {
                let block: usize = match p {
                    // The first reader of each distinct input.
                    Precision::Bf16 => {
                        [LayerKind::Q, LayerKind::O, LayerKind::Gate, LayerKind::Down]
                            .iter()
                            .map(|kind| dense(kind.dims(&cfg).1))
                            .sum()
                    }
                    _ => LayerKind::ALL
                        .iter()
                        .map(|kind| {
                            let (out, inp) = kind.dims(&cfg);
                            packed(p, TensorRole::Input, tokens, inp)
                                + packed(p, TensorRole::Weight, out, inp)
                        })
                        .sum(),
                };
                cfg.n_layers * block + dense(cfg.hidden)
            };
            [Precision::Bf16, Precision::Fp8, Precision::Fp4].map(|p| {
                model.set_scheme(&vec![LinearPrecision::uniform(p); cfg.n_linear_layers()]);
                model.zero_grads();
                let bytes = model
                    .step(&batch, &mut rng, &StepOptions::train())
                    .linear_cache_bytes;
                assert_eq!(bytes, expected(p), "{p} at {tokens} tokens");
                bytes
            })
        });
        for [_, fp8, fp4] in [short, long] {
            assert!(fp4 < fp8, "fp4 {fp4} B vs fp8 {fp8} B");
        }
        // FP4 undercuts BF16 once the per-token inputs outweigh the fixed
        // packed weights, containers and scales: at 16 tokens (hidden 16)
        // BF16's nine held inputs weigh less than FP4's 28 packed
        // operands, at 64 tokens they weigh more.
        let [bf16, _, fp4] = long;
        assert!(fp4 < bf16, "fp4 {fp4} B vs bf16 {bf16} B");
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
    fn blank_model_has_the_shapes_of_a_drawn_one_and_draws_nothing() {
        let cfg = ModelConfig::tiny_test();
        let drawn = Model::new(cfg.clone(), 42).unwrap();
        let blank = Model::blank(cfg).unwrap();
        assert_eq!(blank.params().len(), drawn.params().len());
        for (b, d) in blank.params().into_iter().zip(drawn.params()) {
            assert_eq!((b.name(), b.value().shape()), (d.name(), d.value().shape()));
            if b.name().ends_with("norm") {
                assert_eq!(b.value(), d.value(), "{}: gains start at 1", b.name());
            } else {
                assert!(
                    b.value().as_slice().iter().all(|&v| v == 0.0),
                    "{}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn param_index_of_names_the_layer_weight_in_params_mut_order() {
        let (mut model, _, _) = tiny_setup();
        assert_eq!(model.config().n_layers, 2);
        let ids: Vec<LayerId> = (0..model.config().n_linear_layers())
            .map(LayerId::from_linear_index)
            .collect();
        let names: Vec<String> = ids
            .iter()
            .map(|&id| model.linear(id).weight().name().to_owned())
            .collect();
        let indices: Vec<usize> = ids.iter().map(|&id| model.param_index_of(id)).collect();
        let params = model.params_mut();
        assert_eq!(params.len(), 3 + 2 * PARAMS_PER_BLOCK);
        for ((id, name), index) in ids.iter().zip(&names).zip(indices) {
            assert_eq!(params[index].name(), name, "{id:?}");
        }
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
            assert!(lr.dw.frobenius_norm() > 0.0, "layer {i} has no dw");
        }
    }

    #[test]
    fn logits_shape() {
        let (model, batch, mut rng) = tiny_setup();
        let logits = model.logits(batch.tokens(), 2, 8, &mut rng);
        assert_eq!(logits.shape(), (16, model.config().vocab_size));
    }

    #[test]
    fn state_round_trip_preserves_behaviour() {
        let (mut model, batch, rng) = tiny_setup();
        let n = model.config().n_linear_layers();
        let mut scheme = vec![LinearPrecision::uniform(Precision::Fp8); n];
        scheme[1] = LinearPrecision {
            input: Precision::Fp4,
            weight: Precision::Bf16,
            grad: Precision::Fp8,
        };
        model.set_scheme(&scheme);
        model.blocks[1].set_exact_mode(true);
        let mut w = Writer::new(Vec::new());
        model.write_state(&mut w);
        let bytes = w.finish().expect("in-memory write").0;
        // Another seed: every value must come from the state.
        let mut restored = Model::new(model.config().clone(), 99).unwrap();
        snip_quant::wire::decode_message(&bytes, |f| restored.read_state(f)).unwrap();
        assert_eq!(restored.scheme(), scheme);
        let exact = |m: &Model| {
            m.blocks
                .iter()
                .map(|b| b.linear(LayerKind::Q).exact())
                .collect::<Vec<_>>()
        };
        assert_eq!(exact(&restored), [false, true]);
        let a = model.forward_loss(&batch, &mut rng.clone());
        let b = restored.forward_loss(&batch, &mut rng.clone());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
