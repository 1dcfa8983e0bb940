//! # snip-quant
//!
//! Subbyte floating-point quantization substrate for SNIP (paper §2.3, §6.1).
//!
//! The crate provides:
//!
//! * [`format::FloatFormat`] — ExMy codecs: FP4 E2M1 (MX), FP8 E4M3 / E5M2 /
//!   E3M4, and BF16, with round-to-nearest-even and stochastic rounding;
//!   [`int::IntFormat`] — symmetric INT8/INT4 grids; and
//!   [`format::ElementFormat`], the one enumeration over both (grid, wire
//!   id, interned [`Codebook`]).
//! * [`granularity::Granularity`] — tensorwise / rowwise / columnwise /
//!   blockwise / tilewise scaling (DeepSeek-V3 recipe: 1×128 tiles for
//!   activations & gradients, 128×128 blocks for weights); this crate's
//!   name for [`snip_tensor::GroupLayout`], the one definition.
//! * [`Quantizer`] — **the** quantizer: element format × scale layout ×
//!   [`Rounding`] × [`Recipe`]. One fake quantize→dequantize oracle, one
//!   pack, and the error norms `‖q(t) − t‖_F` that SNIP's divergence
//!   analysis consumes (the per-layer statistics built from them live in
//!   `snip_core::stats`). The pluggable quantization options of §5.2 are
//!   its constructors: `Quantizer::new(IntFormat::int4(), …)` /
//!   [`Quantizer::int8_tile`] (integer grids), [`Quantizer::mxfp4`]
//!   (MXFP4-style power-of-two block scales, [`mx`]),
//!   [`Quantizer::with_rht`] (randomized Hadamard pre-rotation, [`rht`]),
//!   [`Quantizer::with_outliers`] (dense + sparse high-precision outlier
//!   split, [`outlier`]).
//! * [`PackedQuantize`] / [`PackedTensor`] — the **canonical codes-based
//!   path**: the quantizer packs into bit-packed storage through one trait,
//!   and dense fake quantization is derived from the packed form (decode),
//!   bit-identical to the oracle. To add a quantization method, add a
//!   [`Recipe`] arm (and a [`PackedTensor`] shape if its packed form needs
//!   new metadata); an out-of-tree method implements [`PackedQuantize`],
//!   which is all that caches, optimizer moments and wires consume.
//! * [`Precision`] / [`LinearPrecision`] — the *policy-level* vocabulary: the
//!   precision assigned to each quantized operand of a linear layer, and the
//!   effective precision of each of its three GEMMs.
//!
//! # Example
//!
//! ```
//! use snip_quant::{Precision, LinearPrecision, TensorRole};
//! use snip_tensor::{Tensor, rng::Rng};
//!
//! // The default FP4 recipe for an activation tensor:
//! let q = Precision::Fp4.quantizer_for(TensorRole::Input);
//! let mut rng = Rng::seed_from(1);
//! let x = Tensor::randn(4, 256, 1.0, &mut rng);
//! let err = q.relative_error(&x);
//! assert!(err > 0.0 && err < 0.2);
//!
//! // An all-FP4 layer runs all three GEMMs in FP4:
//! let lp = LinearPrecision::uniform(Precision::Fp4);
//! assert_eq!(lp.forward_gemm(), Precision::Fp4);
//! ```

pub mod codebook;
pub mod format;
pub mod granularity;
pub mod int;
pub mod mx;
pub mod outlier;
pub mod packed;
mod quantizer;
pub mod rht;
pub mod signals;
pub mod wire;

pub use codebook::Codebook;
pub use packed::{PackedOutlier, PackedQuantize, PackedTensor};
pub use quantizer::{Quantizer, Recipe, Rounding};
pub use wire::{
    crc32, stream_body_len, stream_check_body, stream_envelope, stream_frame, StreamDecoder,
    StreamError, WireError, STREAM_CRC_BYTES, STREAM_ENVELOPE_BYTES, STREAM_MAX_FRAME_BYTES,
    STREAM_PREFIX_BYTES, WIRE_HEADER_BYTES,
};

use format::FloatFormat;
use granularity::Granularity;
use serde::{Deserialize, Serialize};

/// Compute precision assignable to a quantized GEMM operand.
///
/// Ordered by numeric fidelity: `Fp4 < Fp8 < Bf16`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 4-bit floating point (E2M1).
    Fp4,
    /// 8-bit floating point (E4M3 by default).
    Fp8,
    /// bfloat16 — the framework's high-precision baseline.
    Bf16,
}

/// Which operand of a linear layer a quantizer is configured for. The paper
/// quantizes three tensors per layer (Fig. 5): input activations, weights and
/// output gradients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorRole {
    /// Forward-pass input activations (`X`).
    Input,
    /// Layer weights (`W`).
    Weight,
    /// Backward-pass output gradients (`∇Y L`).
    OutputGrad,
}

impl Precision {
    /// All policy precisions, lowest fidelity first.
    pub const ALL: [Precision; 3] = [Precision::Fp4, Precision::Fp8, Precision::Bf16];

    /// Storage bits per element.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Fp4 => 4,
            Precision::Fp8 => 8,
            Precision::Bf16 => 16,
        }
    }

    /// GEMM throughput relative to BF16 (paper §2.2: FP8 is 2× BF16, FP4 is
    /// 2× FP8 on Blackwell-class hardware).
    pub fn throughput_factor(self) -> f64 {
        match self {
            Precision::Fp4 => 4.0,
            Precision::Fp8 => 2.0,
            Precision::Bf16 => 1.0,
        }
    }

    /// The number format backing this precision in our emulation.
    pub fn float_format(self) -> FloatFormat {
        match self {
            Precision::Fp4 => FloatFormat::e2m1(),
            Precision::Fp8 => FloatFormat::e4m3(),
            Precision::Bf16 => FloatFormat::bf16(),
        }
    }

    /// Default tile/block length for scale groups. The paper uses 128; the
    /// value is exposed so scaled-down experiments can shrink it together
    /// with their hidden dimensions.
    pub const DEFAULT_GROUP: usize = 128;

    /// The paper's quantizer recipe for this precision and tensor role:
    /// 1×128 tilewise for activations/gradients, 128×128 blockwise for
    /// weights, stochastic rounding for FP4 output gradients (§6.1), and
    /// unscaled rounding for BF16.
    pub fn quantizer_for(self, role: TensorRole) -> Quantizer {
        self.quantizer_with_group(role, Self::DEFAULT_GROUP)
    }

    /// Same as [`Precision::quantizer_for`] but with a custom scale-group
    /// length (tile length / block side).
    pub fn quantizer_with_group(self, role: TensorRole, nb: usize) -> Quantizer {
        if self == Precision::Bf16 {
            return Quantizer::unscaled(FloatFormat::bf16(), Rounding::Nearest);
        }
        let granularity = match role {
            TensorRole::Weight => Granularity::Block { nb },
            TensorRole::Input | TensorRole::OutputGrad => Granularity::Tile { nb },
        };
        let rounding = if self == Precision::Fp4 && role == TensorRole::OutputGrad {
            Rounding::Stochastic
        } else {
            Rounding::Nearest
        };
        Quantizer::new(self.float_format(), granularity, rounding)
    }

    /// Effective precision of a GEMM whose two quantized operands have the
    /// given precisions: the GEMM runs at the *wider* (slower) operand's
    /// precision — an FP4×FP8 product executes as an FP8 GEMM.
    pub fn combine(a: Precision, b: Precision) -> Precision {
        a.max(b)
    }

    /// Short lowercase label (`"fp4"`, `"fp8"`, `"bf16"`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp4 => "fp4",
            Precision::Fp8 => "fp8",
            Precision::Bf16 => "bf16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Precision assignment for the three quantized operands of one linear layer
/// (paper Fig. 5). This is the unit of decision in SNIP's ILP: each layer
/// picks one `LinearPrecision` from its option set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinearPrecision {
    /// Precision of the forward input activations.
    pub input: Precision,
    /// Precision of the weights.
    pub weight: Precision,
    /// Precision of the backward output gradients.
    pub grad: Precision,
}

impl LinearPrecision {
    /// Same precision for all three operands.
    pub const fn uniform(p: Precision) -> Self {
        LinearPrecision {
            input: p,
            weight: p,
            grad: p,
        }
    }

    /// Effective precision of the forward GEMM `Y = X·Wᵀ`.
    pub fn forward_gemm(&self) -> Precision {
        Precision::combine(self.input, self.weight)
    }

    /// Effective precision of the input-gradient GEMM `dX = dY·W`.
    pub fn input_grad_gemm(&self) -> Precision {
        Precision::combine(self.grad, self.weight)
    }

    /// Effective precision of the weight-gradient GEMM `dW = dYᵀ·X`.
    pub fn weight_grad_gemm(&self) -> Precision {
        Precision::combine(self.grad, self.input)
    }

    /// Fraction of this layer's three equal-FLOP GEMMs that execute in FP4.
    pub fn fp4_gemm_fraction(&self) -> f64 {
        let mut n = 0;
        for p in [
            self.forward_gemm(),
            self.input_grad_gemm(),
            self.weight_grad_gemm(),
        ] {
            if p == Precision::Fp4 {
                n += 1;
            }
        }
        n as f64 / 3.0
    }

    /// Label like `"fp4"` for uniform assignments or `"x:fp4/w:fp8/g:fp4"`.
    pub fn label(&self) -> String {
        if self.input == self.weight && self.weight == self.grad {
            self.input.label().to_string()
        } else {
            format!(
                "x:{}/w:{}/g:{}",
                self.input.label(),
                self.weight.label(),
                self.grad.label()
            )
        }
    }
}

impl Default for LinearPrecision {
    /// BF16 everywhere — the paper's high-precision baseline.
    fn default() -> Self {
        LinearPrecision::uniform(Precision::Bf16)
    }
}

impl std::fmt::Display for LinearPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_ordering_matches_fidelity() {
        assert!(Precision::Fp4 < Precision::Fp8);
        assert!(Precision::Fp8 < Precision::Bf16);
    }

    #[test]
    fn combine_picks_wider_operand() {
        assert_eq!(
            Precision::combine(Precision::Fp4, Precision::Fp8),
            Precision::Fp8
        );
        assert_eq!(
            Precision::combine(Precision::Fp4, Precision::Fp4),
            Precision::Fp4
        );
        assert_eq!(
            Precision::combine(Precision::Bf16, Precision::Fp4),
            Precision::Bf16
        );
    }

    #[test]
    fn throughput_ratios_match_paper() {
        // §2.2: FP8 = 2× BF16, FP4 = 2× FP8.
        assert_eq!(
            Precision::Fp8.throughput_factor() / Precision::Bf16.throughput_factor(),
            2.0
        );
        assert_eq!(
            Precision::Fp4.throughput_factor() / Precision::Fp8.throughput_factor(),
            2.0
        );
    }

    #[test]
    fn recipe_granularities_match_deepseek() {
        let w = Precision::Fp8.quantizer_for(TensorRole::Weight);
        assert_eq!(w.granularity(), Granularity::Block { nb: 128 });
        let x = Precision::Fp8.quantizer_for(TensorRole::Input);
        assert_eq!(x.granularity(), Granularity::Tile { nb: 128 });
        let g = Precision::Fp4.quantizer_for(TensorRole::OutputGrad);
        assert_eq!(g.granularity(), Granularity::Tile { nb: 128 });
        assert_eq!(g.rounding(), Rounding::Stochastic);
        // FP8 gradients keep nearest rounding.
        let g8 = Precision::Fp8.quantizer_for(TensorRole::OutputGrad);
        assert_eq!(g8.rounding(), Rounding::Nearest);
    }

    #[test]
    fn fp4_gemm_fraction() {
        assert_eq!(
            LinearPrecision::uniform(Precision::Fp4).fp4_gemm_fraction(),
            1.0
        );
        assert_eq!(
            LinearPrecision::uniform(Precision::Fp8).fp4_gemm_fraction(),
            0.0
        );
        // FP4 input+grad, FP8 weight: only the dW GEMM (grad×input) is FP4.
        let mixed = LinearPrecision {
            input: Precision::Fp4,
            weight: Precision::Fp8,
            grad: Precision::Fp4,
        };
        assert!((mixed.fp4_gemm_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(LinearPrecision::uniform(Precision::Fp4).label(), "fp4");
        let mixed = LinearPrecision {
            input: Precision::Fp4,
            weight: Precision::Fp8,
            grad: Precision::Fp4,
        };
        assert_eq!(mixed.label(), "x:fp4/w:fp8/g:fp4");
        assert_eq!(Precision::Bf16.to_string(), "bf16");
    }

    #[test]
    fn default_is_bf16() {
        assert_eq!(
            LinearPrecision::default(),
            LinearPrecision::uniform(Precision::Bf16)
        );
    }
}
