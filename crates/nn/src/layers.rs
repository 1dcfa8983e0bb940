//! Identity of quantizable linear layers.
//!
//! The paper quantizes the seven linear layers of each transformer block
//! (Fig. 4): Q, K, V, O in self-attention and Gate, Up, Down in the SwiGLU
//! MLP. SNIP's decision space is indexed by `(block, kind)` pairs.

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// The seven linear-layer types of a Llama transformer block (paper Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LayerKind {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// MLP gate projection.
    Gate,
    /// MLP up projection.
    Up,
    /// MLP down projection.
    Down,
}

impl LayerKind {
    /// All kinds in canonical order (the column order of paper Figs. 7/10/11).
    pub const ALL: [LayerKind; 7] = [
        LayerKind::Q,
        LayerKind::K,
        LayerKind::V,
        LayerKind::O,
        LayerKind::Gate,
        LayerKind::Up,
        LayerKind::Down,
    ];

    /// Number of linear layer kinds per block.
    pub(crate) const COUNT: usize = 7;

    /// Position in [`LayerKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            LayerKind::Q => 0,
            LayerKind::K => 1,
            LayerKind::V => 2,
            LayerKind::O => 3,
            LayerKind::Gate => 4,
            LayerKind::Up => 5,
            LayerKind::Down => 6,
        }
    }

    /// Inverse of [`LayerKind::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 7`.
    pub(crate) fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Short label used in figures ("Q", "K", …).
    pub fn label(self) -> &'static str {
        match self {
            LayerKind::Q => "Q",
            LayerKind::K => "K",
            LayerKind::V => "V",
            LayerKind::O => "O",
            LayerKind::Gate => "Gate",
            LayerKind::Up => "Up",
            LayerKind::Down => "Down",
        }
    }

    /// Whether this is one of the attention projections.
    pub(crate) fn is_attention(self) -> bool {
        matches!(
            self,
            LayerKind::Q | LayerKind::K | LayerKind::V | LayerKind::O
        )
    }

    /// Whether this is one of the MLP projections.
    pub fn is_mlp(self) -> bool {
        !self.is_attention()
    }

    /// `(out_features, in_features)` of this layer under `cfg`.
    pub fn dims(self, cfg: &ModelConfig) -> (usize, usize) {
        let h = cfg.hidden;
        let f = cfg.ffn_hidden;
        match self {
            LayerKind::Q | LayerKind::K | LayerKind::V | LayerKind::O => (h, h),
            LayerKind::Gate | LayerKind::Up => (f, h),
            LayerKind::Down => (h, f),
        }
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identity of one quantizable linear layer: which block and which kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId {
    /// Transformer block index, 0-based from the input.
    pub block: usize,
    /// Linear layer type within the block.
    pub kind: LayerKind,
}

impl LayerId {
    /// Creates a layer id.
    pub fn new(block: usize, kind: LayerKind) -> Self {
        LayerId { block, kind }
    }

    /// Flat index in `[0, n_layers * 7)`: layers of a block are contiguous.
    pub fn linear_index(&self) -> usize {
        self.block * LayerKind::COUNT + self.kind.index()
    }

    /// Inverse of [`LayerId::linear_index`].
    pub fn from_linear_index(i: usize) -> Self {
        LayerId {
            block: i / LayerKind::COUNT,
            kind: LayerKind::from_index(i % LayerKind::COUNT),
        }
    }

    /// All layer ids of a model with `n_layers` blocks, in flat-index order.
    pub fn enumerate(n_layers: usize) -> Vec<LayerId> {
        (0..n_layers * LayerKind::COUNT)
            .map(LayerId::from_linear_index)
            .collect()
    }

    /// FLOPs of this layer's three GEMMs for a step over `tokens` tokens
    /// (forward + dX + dW, each `2·M·N·K`).
    pub fn training_flops(&self, cfg: &ModelConfig, tokens: usize) -> u64 {
        let (n, k) = self.kind.dims(cfg);
        3 * 2 * tokens as u64 * n as u64 * k as u64
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}.{}", self.block, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for k in LayerKind::ALL {
            assert_eq!(LayerKind::from_index(k.index()), k);
        }
        for i in 0..21 {
            assert_eq!(LayerId::from_linear_index(i).linear_index(), i);
        }
    }

    #[test]
    fn attention_mlp_partition() {
        let attn: Vec<_> = LayerKind::ALL.iter().filter(|k| k.is_attention()).collect();
        let mlp: Vec<_> = LayerKind::ALL.iter().filter(|k| k.is_mlp()).collect();
        assert_eq!(attn.len(), 4);
        assert_eq!(mlp.len(), 3);
    }

    #[test]
    fn dims_match_config() {
        let cfg = ModelConfig::tiny_test();
        assert_eq!(LayerKind::Q.dims(&cfg), (16, 16));
        assert_eq!(LayerKind::Gate.dims(&cfg), (24, 16));
        assert_eq!(LayerKind::Down.dims(&cfg), (16, 24));
    }

    #[test]
    fn enumerate_covers_all_layers() {
        let ids = LayerId::enumerate(3);
        assert_eq!(ids.len(), 21);
        assert_eq!(ids[0], LayerId::new(0, LayerKind::Q));
        assert_eq!(ids[20], LayerId::new(2, LayerKind::Down));
    }

    #[test]
    fn flops_scale_with_dims() {
        let cfg = ModelConfig::tiny_test();
        let q = LayerId::new(0, LayerKind::Q).training_flops(&cfg, 10);
        assert_eq!(q, 3 * 2 * 10 * 16 * 16);
        let gate = LayerId::new(0, LayerKind::Gate).training_flops(&cfg, 10);
        assert_eq!(gate, 3 * 2 * 10 * 24 * 16);
    }

    #[test]
    fn display_format() {
        assert_eq!(LayerId::new(3, LayerKind::Down).to_string(), "L3.Down");
    }
}
