//! Model configurations.
//!
//! The paper evaluates TinyLlama-1B, OpenLlama-3B/7B and an industry 70B
//! model. Full-width pretraining is a multi-thousand-GPU-hour workload, so
//! this reproduction keeps each model's *depth and block structure* (the
//! decision space SNIP optimizes over: layer id × layer type) while shrinking
//! widths so CPU training completes in minutes.

use serde::{Deserialize, Serialize};

/// Hyperparameters of a Llama-like decoder-only transformer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"tinyllama-1b-sim"`.
    pub name: String,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Number of attention heads (`hidden % n_heads == 0`).
    pub n_heads: usize,
    /// SwiGLU intermediate dimension.
    pub ffn_hidden: usize,
    /// Maximum sequence length (RoPE tables are sized for this).
    pub max_seq: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Scale-group length for quantization (tile length / block side).
    /// The paper uses 128 on full-width models; scaled-down configs shrink
    /// it with the hidden dimension so group-wise scaling stays meaningful.
    pub quant_group: usize,
}

impl ModelConfig {
    /// Head dimension.
    pub(crate) fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    /// Number of quantizable linear layers (7 per block: Q K V O Gate Up Down).
    pub fn n_linear_layers(&self) -> usize {
        self.n_layers * crate::layers::LayerKind::COUNT
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        let h = self.hidden;
        let f = self.ffn_hidden;
        let v = self.vocab_size;
        let block = 4 * h * h + 3 * h * f + 2 * h; // linears + 2 norms
        v * h + self.n_layers * block + h + h * v // embed + blocks + final norm + lm head
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0 || self.n_layers == 0 || self.vocab_size == 0 {
            return Err("dimensions must be positive".into());
        }
        if self.n_heads == 0 || !self.hidden.is_multiple_of(self.n_heads) {
            return Err(format!(
                "hidden ({}) must be divisible by n_heads ({})",
                self.hidden, self.n_heads
            ));
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err("head_dim must be even for RoPE".into());
        }
        if self.quant_group == 0 {
            return Err("quant_group must be positive".into());
        }
        Ok(())
    }

    /// Tiny 2-block config for unit tests (fast gradient checks).
    pub fn tiny_test() -> Self {
        ModelConfig {
            name: "tiny-test".into(),
            vocab_size: 17,
            hidden: 16,
            n_layers: 2,
            n_heads: 2,
            ffn_hidden: 24,
            max_seq: 16,
            rope_theta: 10_000.0,
            quant_group: 8,
        }
    }

    /// TinyLlama-1B stand-in: same 22-layer depth as the real model
    /// (Fig. 7/10/11 plot 22 layer rows), scaled-down width.
    pub fn tinyllama_1b_sim() -> Self {
        ModelConfig {
            name: "tinyllama-1b-sim".into(),
            vocab_size: 64,
            hidden: 32,
            n_layers: 22,
            n_heads: 4,
            ffn_hidden: 88, // same 2.75× expansion as TinyLlama
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 16,
        }
    }

    /// OpenLlama-3B stand-in: 26 blocks.
    pub fn openllama_3b_sim() -> Self {
        ModelConfig {
            name: "openllama-3b-sim".into(),
            vocab_size: 64,
            hidden: 32,
            n_layers: 26,
            n_heads: 4,
            ffn_hidden: 88,
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 16,
        }
    }

    /// OpenLlama-7B stand-in: 32 blocks.
    pub fn openllama_7b_sim() -> Self {
        ModelConfig {
            name: "openllama-7b-sim".into(),
            vocab_size: 64,
            hidden: 32,
            n_layers: 32,
            n_heads: 4,
            ffn_hidden: 88,
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 16,
        }
    }

    /// Industry 70B stand-in: the paper's 80-block dense model (Fig. 9,
    /// Table 3), narrow width.
    pub fn llama_70b_sim() -> Self {
        ModelConfig {
            name: "llama-70b-sim".into(),
            vocab_size: 64,
            hidden: 24,
            n_layers: 80,
            n_heads: 4,
            ffn_hidden: 64,
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_configs_are_valid() {
        for cfg in [
            ModelConfig::tiny_test(),
            ModelConfig::tinyllama_1b_sim(),
            ModelConfig::openllama_3b_sim(),
            ModelConfig::openllama_7b_sim(),
            ModelConfig::llama_70b_sim(),
        ] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn depths_match_paper_models() {
        assert_eq!(ModelConfig::tinyllama_1b_sim().n_layers, 22);
        assert_eq!(ModelConfig::openllama_3b_sim().n_layers, 26);
        assert_eq!(ModelConfig::openllama_7b_sim().n_layers, 32);
        assert_eq!(ModelConfig::llama_70b_sim().n_layers, 80);
    }

    #[test]
    fn linear_layer_count() {
        assert_eq!(ModelConfig::tinyllama_1b_sim().n_linear_layers(), 22 * 7);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = ModelConfig::tiny_test();
        c.n_heads = 3; // 16 % 3 != 0
        assert!(c.validate().is_err());
        let mut c = ModelConfig::tiny_test();
        c.hidden = 0;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::tiny_test();
        c.quant_group = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn param_count_is_plausible() {
        let c = ModelConfig::tinyllama_1b_sim();
        let p = c.param_count();
        assert!(p > 100_000 && p < 2_000_000, "params = {p}");
    }
}
