//! Training-memory accounting.
//!
//! The paper motivates its 70B experiment budget with a memory argument
//! (§6.1): *"Even excluding activations, training a 70B model requires
//! approximately 1120 GB of GPU memory solely for model weights, gradients,
//! and optimizer states"* — the classic ZeRO accounting of 16 bytes per
//! parameter under BF16 mixed precision (2 B weights + 2 B gradients +
//! 4 B FP32 master copy + 4 B + 4 B AdamW moments). It also notes (§2.2)
//! that *"storing weights in FP4/FP8 also reduces HBM storage cost, which is
//! the main bottleneck in large-scale LLM training."*
//!
//! This module makes both claims computable: a per-parameter state recipe,
//! a whole-model breakdown (optionally with activations via the Megatron
//! per-layer activation formula), and the scale-factor overhead of
//! group-wise quantization (§2.3) so FP4/FP8 storage savings are reported
//! honestly, scales included. The `memory_overhead` experiment
//! regenerates the paper's numbers from these functions.

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// Bytes per gigabyte in vendor marketing units (the paper's "1120 GB" is
/// decimal: 70e9 params × 16 B = 1.12e12 B).
pub(crate) const BYTES_PER_GB: f64 = 1e9;

/// Bytes **per parameter** held by each persistent training-state component.
///
/// Fractional values are allowed: subbyte formats store 0.5 B/param, and
/// group-wise scale factors amortize to fractions of a byte.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StateBytes {
    /// Working weights (the copy GEMMs read). This is the GPU recipe's
    /// accounting: the CPU emulator packs FP8/FP4 working weights, but
    /// reads a BF16 one in place from the master weight through rounding
    /// and holds no copy.
    pub weights: f64,
    /// Gradient accumulators.
    pub grads: f64,
    /// FP32 master weights (Fig. 5; DeepSeek-V3 recipe).
    pub master: f64,
    /// AdamW first moment `m`.
    pub moment1: f64,
    /// AdamW second moment `v`.
    pub moment2: f64,
}

impl StateBytes {
    /// The standard BF16 mixed-precision recipe: BF16 weights and gradients,
    /// FP32 master weights and AdamW moments — 16 B/param, the ZeRO
    /// accounting behind the paper's 1120 GB figure.
    pub const fn mixed_precision_bf16() -> Self {
        StateBytes {
            weights: 2.0,
            grads: 2.0,
            master: 4.0,
            moment1: 4.0,
            moment2: 4.0,
        }
    }

    /// Replaces the working-weight storage with a `bits`-wide format plus
    /// the amortized scale overhead of one f32 scale per `group_elems`
    /// elements (§2.2's FP4/FP8 HBM saving, §2.3's scaling granularity).
    pub fn with_quantized_weights(self, bits: u32, group_elems: usize) -> Self {
        assert!(group_elems > 0, "scale group must be non-empty");
        StateBytes {
            weights: bits as f64 / 8.0 + scale_overhead_bytes_per_param(group_elems),
            ..self
        }
    }

    /// Replaces both AdamW moments with a `bits`-wide packed format plus
    /// the amortized f32-scale overhead of one scale per `group_elems`
    /// elements — the FP8-LM-style optimizer-state saving
    /// (`snip_optim::MomentPrecision::PackedFp8` is `bits = 8`,
    /// `group_elems = 128`). Master weights are untouched (paper §4.3.2).
    pub fn with_quantized_moments(self, bits: u32, group_elems: usize) -> Self {
        assert!(group_elems > 0, "scale group must be non-empty");
        let per_moment = bits as f64 / 8.0 + scale_overhead_bytes_per_param(group_elems);
        StateBytes {
            moment1: per_moment,
            moment2: per_moment,
            ..self
        }
    }

    /// Total persistent bytes per parameter.
    pub fn per_param(&self) -> f64 {
        self.weights + self.grads + self.master + self.moment1 + self.moment2
    }
}

/// Amortized bytes per parameter spent on f32 scale factors when each scale
/// covers `group_elems` elements (128×128 blocks → 6.1e-5 B; 1×128 tiles →
/// 0.03125 B).
pub fn scale_overhead_bytes_per_param(group_elems: usize) -> f64 {
    4.0 / group_elems as f64
}

/// A model-level memory breakdown, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Working weights.
    pub weights: f64,
    /// Gradient accumulators.
    pub grads: f64,
    /// FP32 master weights.
    pub master: f64,
    /// AdamW moments (`m` + `v`).
    pub optimizer: f64,
    /// Saved activations for backward (0 unless requested).
    pub activations: f64,
}

impl MemoryBreakdown {
    /// Persistent model states only (the paper's "excluding activations").
    pub(crate) fn model_states(&self) -> f64 {
        self.weights + self.grads + self.master + self.optimizer
    }

    /// Everything, activations included.
    pub fn total(&self) -> f64 {
        self.model_states() + self.activations
    }

    /// Converts a byte quantity to decimal gigabytes.
    pub fn gb(bytes: f64) -> f64 {
        bytes / BYTES_PER_GB
    }
}

/// Memory model for a parameter count (paper-scale models are described by
/// their true parameter counts, not by instantiable configs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    n_params: u64,
}

impl MemoryModel {
    /// A model with `n_params` parameters.
    pub fn from_params(n_params: u64) -> Self {
        MemoryModel { n_params }
    }

    /// Accounts for one of this repository's simulator configs.
    pub fn from_config(cfg: &ModelConfig) -> Self {
        MemoryModel {
            n_params: cfg.param_count() as u64,
        }
    }

    /// The parameter count.
    pub fn n_params(&self) -> u64 {
        self.n_params
    }

    /// Persistent-state breakdown under a per-parameter recipe.
    pub fn breakdown(&self, recipe: &StateBytes) -> MemoryBreakdown {
        let n = self.n_params as f64;
        MemoryBreakdown {
            weights: n * recipe.weights,
            grads: n * recipe.grads,
            master: n * recipe.master,
            optimizer: n * (recipe.moment1 + recipe.moment2),
            activations: 0.0,
        }
    }

    /// Persistent model-state bytes under a recipe (convenience).
    pub fn model_state_bytes(&self, recipe: &StateBytes) -> f64 {
        self.breakdown(recipe).model_states()
    }
}

/// Saved-activation bytes per transformer block for one microbatch, using
/// the Megatron-LM estimate (Korthikanti et al.): a Llama-style block stores
/// `s·b·h·34 + 5·a·s²·b` bytes at 2 B/element, where `s` = sequence length,
/// `b` = microbatch size, `h` = hidden size and `a` = attention heads. The
/// `5·a·s²` term is the attention-probability storage that FlashAttention
/// removes; pass `flash = true` to drop it.
pub(crate) fn activation_bytes_per_block(
    cfg: &ModelConfig,
    batch: usize,
    seq: usize,
    flash: bool,
) -> f64 {
    let s = seq as f64;
    let b = batch as f64;
    let h = cfg.hidden as f64;
    let a = cfg.n_heads as f64;
    let linear_term = 34.0 * s * b * h;
    let attn_term = if flash { 0.0 } else { 5.0 * a * s * s * b };
    linear_term + attn_term
}

/// Saved-activation bytes for the whole model (all blocks; embeddings and
/// the LM head are excluded as in the Megatron estimate).
pub fn activation_bytes(cfg: &ModelConfig, batch: usize, seq: usize, flash: bool) -> f64 {
    cfg.n_layers as f64 * activation_bytes_per_block(cfg, batch, seq, flash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_70b_figure_reproduced() {
        // §6.1: "training a 70B model requires approximately 1120 GB of GPU
        // memory solely for model weights, gradients, and optimizer states".
        let m = MemoryModel::from_params(70_000_000_000);
        let gb = MemoryBreakdown::gb(m.model_state_bytes(&StateBytes::mixed_precision_bf16()));
        assert!((gb - 1120.0).abs() < 1e-6, "got {gb} GB");
    }

    #[test]
    fn mixed_precision_recipe_is_16_bytes() {
        assert_eq!(StateBytes::mixed_precision_bf16().per_param(), 16.0);
    }

    #[test]
    fn fp8_weights_halve_and_fp4_quarter_weight_storage() {
        // §2.2: FP4/FP8 weight storage reduces HBM cost. With the paper's
        // 128×128 weight blocks the scale overhead is negligible.
        let bf16 = StateBytes::mixed_precision_bf16();
        let fp8 = bf16.with_quantized_weights(8, 128 * 128);
        let fp4 = bf16.with_quantized_weights(4, 128 * 128);
        assert!((bf16.weights / fp8.weights - 2.0).abs() < 1e-3);
        assert!((bf16.weights / fp4.weights - 4.0).abs() < 2e-3);
        // Total state shrinks by the weight delta only.
        assert!(fp4.per_param() > 14.0 && fp4.per_param() < bf16.per_param());
    }

    #[test]
    fn tile_scale_overhead_is_under_one_percent_of_state() {
        // 1×128 tiles: 4 B per 128 elements = 0.03125 B/param — well under
        // 1% of the 16 B/param state (the §6.3 memory-overhead regime).
        let per_param = scale_overhead_bytes_per_param(128);
        assert!((per_param - 0.03125).abs() < 1e-12);
        assert!(per_param / StateBytes::mixed_precision_bf16().per_param() < 0.01);
    }

    #[test]
    fn fp8_moments_shrink_optimizer_state_4x() {
        // FP8-LM-style packed moments: 8 B/param of AdamW state becomes
        // ~2 B + tile-scale overhead; total state drops from 16 to ~10.06.
        let bf16 = StateBytes::mixed_precision_bf16();
        let fp8m = bf16.with_quantized_moments(8, 128);
        let moments = |s: &StateBytes| s.moment1 + s.moment2;
        assert!((moments(&bf16) / moments(&fp8m) - 4.0).abs() < 0.15);
        assert!(fp8m.master == bf16.master, "master weights stay f32");
        assert!((fp8m.per_param() - (16.0 - 8.0 + 2.0625)).abs() < 1e-9);
    }

    #[test]
    fn breakdown_components_sum() {
        let m = MemoryModel::from_params(1_000_000);
        let b = m.breakdown(&StateBytes::mixed_precision_bf16());
        assert_eq!(b.weights, 2e6);
        assert_eq!(b.grads, 2e6);
        assert_eq!(b.master, 4e6);
        assert_eq!(b.optimizer, 8e6);
        assert_eq!(b.model_states(), 16e6);
        assert_eq!(b.total(), 16e6); // no activations requested
    }

    #[test]
    fn from_config_matches_param_count() {
        let cfg = ModelConfig::tinyllama_1b_sim();
        let m = MemoryModel::from_config(&cfg);
        assert_eq!(m.n_params(), cfg.param_count() as u64);
    }

    #[test]
    fn activation_formula_hand_check() {
        // tiny_test: h=16, a=2. One block, batch 3, seq 8, no flash:
        // 34·8·3·16 + 5·2·64·3 = 13056 + 1920.
        let cfg = ModelConfig::tiny_test();
        let per_block = activation_bytes_per_block(&cfg, 3, 8, false);
        assert_eq!(per_block, 13056.0 + 1920.0);
        // Flash drops the quadratic term.
        assert_eq!(activation_bytes_per_block(&cfg, 3, 8, true), 13056.0);
        // Whole model = n_layers ×.
        assert_eq!(activation_bytes(&cfg, 3, 8, false), 2.0 * per_block);
    }

    #[test]
    fn activations_scale_linearly_in_batch_and_quadratically_in_seq() {
        let cfg = ModelConfig::tiny_test();
        let base = activation_bytes(&cfg, 1, 16, false);
        assert_eq!(activation_bytes(&cfg, 2, 16, false), 2.0 * base);
        // Doubling seq more than doubles (quadratic attention term).
        assert!(activation_bytes(&cfg, 1, 32, false) > 2.0 * base);
    }

    #[test]
    #[should_panic(expected = "scale group must be non-empty")]
    fn zero_group_rejected() {
        let _ = StateBytes::mixed_precision_bf16().with_quantized_weights(4, 0);
    }
}
