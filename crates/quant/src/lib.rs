//! # snip-quant
//!
//! Subbyte floating-point quantization substrate for SNIP (paper §2.3, §6.1).
//!
//! The crate provides:
//!
//! * [`format::FloatFormat`] — ExMy grids: FP4 E2M1 (MX), FP8 E4M3 / E5M2 /
//!   E3M4, and BF16; [`int::IntFormat`] — symmetric 2–8-bit integer grids
//!   (INT8/INT4); and
//!   [`format::ElementFormat`], the one enumeration over both (grid, wire
//!   id, interned [`Codebook`]).
//! * [`granularity::Granularity`] — tensorwise / rowwise / columnwise /
//!   blockwise / tilewise scaling (DeepSeek-V3 recipe: 1×128 tiles for
//!   activations & gradients, 128×128 blocks for weights); this crate's
//!   name for [`snip_tensor::GroupLayout`], the one definition.
//! * [`Quantizer`] — **the** quantizer: element format × scale layout ×
//!   [`Rounding`] × [`Recipe`]. It packs, or it is the one BF16
//!   round-to-nearest quantizer ([`Quantizer::unscaled`]) — nothing else
//!   can be built or decoded. One pack (nearest-even or stochastic
//!   [`Rounding`]) and the error norms `‖q(t) − t‖_F` that SNIP's
//!   divergence analysis consumes (the per-layer statistics built from them live in
//!   `snip_core::stats`). The pluggable quantization options of §5.2 are
//!   its constructors: `Quantizer::new(IntFormat::int4(), …)` /
//!   [`Quantizer::int8_tile`] (integer grids), [`Quantizer::mxfp4`]
//!   (MXFP4-style power-of-two block scales, [`Recipe::Mx`]),
//!   [`Quantizer::with_rht`] (randomized Hadamard pre-rotation, [`rht`]),
//!   [`Quantizer::with_outliers`] (dense + sparse high-precision outlier
//!   split, [`outlier`]).
//! * [`PackedQuantize`] / [`PackedTensor`] — the **canonical codes-based
//!   path**: the quantizer packs into bit-packed storage through one trait
//!   (`pack` + `packed_wire_bytes`), and a dense result is the decode of
//!   the packed form, bit-identical to the test-support oracle. To add a
//!   quantization method, add a packing [`Recipe`] arm (see below).
//!   Caches, optimizer moments and wires hold the concrete [`Quantizer`];
//!   only the analytic comm-volume accounting is generic over
//!   [`PackedQuantize`].
//! * [`Precision`] / [`LinearPrecision`] — the *policy-level* vocabulary: the
//!   precision assigned to each quantized operand of a linear layer, and the
//!   effective precision of each of its three GEMMs.
//! * [`wire`] — the workspace's one binary codec: the field codec
//!   ([`wire::Writer`] / [`wire::Fields`]), the [`PackedTensor`] frame
//!   ([`PackedTensor::to_wire_bytes`] / [`PackedTensor::from_wire_bytes`]),
//!   the stream envelope and the file frame. A reader has one error,
//!   [`wire::FieldError`]: a damaged frame is its `Malformed`, naming the
//!   defect. A writer keeps its first error until [`wire::Writer::finish`];
//!   [`StreamError`] is the stream envelope's.
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
//!
//! # The packed subbyte path
//!
//! No subbyte GEMM is emulated with a fake-quantize → `f32` round trip.
//! [`snip_tensor::QTensor`] stores FP4 as two codes per byte (FP8 and INT8
//! one per byte) with per-group `f32` scales and a per-format shared decode
//! table. The engine's two entry points, [`snip_tensor::gemm`] and
//! [`snip_tensor::gemm_into`] ([`snip_tensor::packed::qgemm`],
//! [`qgemm_nt`](snip_tensor::packed::qgemm_nt) and
//! [`qgemm_tn`](snip_tensor::packed::qgemm_tn) are `gemm` at one
//! orientation), decode rows on the fly inside the same blocked,
//! multi-threaded loops as the dense kernels, so a packed result is
//! **bit-identical** to the dense GEMM over dequantized operands (0 ULP,
//! property-tested).
//!
//! Every GEMM operand of `snip_nn::Linear` — `X`, `W` and `dY` — is one
//! type, `snip_nn::QOperand`: packed codes under FP8/FP4, otherwise its
//! source read in place — BF16 through the engine's rounded operand
//! ([`snip_tensor::QOperandRef::Bf16Rounded`], bit-identical to a GEMM over
//! a rounded copy), exact mode as is. No step makes a fake-quantized copy.
//! A layer input is one `Arc<Tensor>` shared by the layers that read it (Q,
//! K and V; Gate and Up): the BF16 and exact layers hold the handle, a
//! packed layer only its codes, so under FP8/FP4 no `f32` input outlives
//! the forward. `StepOutput::linear_cache_bytes` counts each held input
//! once (`snip_nn::linear::held_inputs`, which the probe's statistics stage
//! uses too); `model::tests::fp4_scheme_shrinks_the_measured_backward_cache`
//! checks the exact sum per scheme, and
//! `linear::tests::fp4_backward_cache_is_packed_and_at_least_7x_smaller`
//! the size of one packed operand. A `LinearCache` is valid only until its
//! layer's weight changes; debug builds check a CRC of the weight at
//! backward. FP8/FP4 *inputs* round to nearest and draw nothing, so Q, K
//! and V pack identical codes.
//!
//! ## One quantizer; packed codes are canonical
//!
//! [`Quantizer`] is element format ([`format::ElementFormat`]: a
//! [`format::FloatFormat`] or an [`int::IntFormat`]) × scale layout ×
//! [`Rounding`] × [`Recipe`]. It either packs — a scaled recipe over a
//! ≤ 8-bit element grid with a code table — or is the BF16 quantizer, and
//! each scaled recipe has one packed shape:
//!
//! | [`Recipe`] | packed form |
//! |---|---|
//! | `Unscaled`: BF16 round-to-nearest only | none (rounded in place) |
//! | `MaxAbs` | [`PackedTensor::Codes`] |
//! | `Mx`: power-of-two E8M0 block scales, one byte each on a wire | [`PackedTensor::Mx`] |
//! | `Rht { block, seed }`: codes of the rotated domain + the rotation seed | [`PackedTensor::Rotated`] |
//! | `Outlier { fraction }`: packed dense body + sparse BF16 outlier list | [`PackedTensor::Split`] |
//!
//! The §5.2 alternatives are its constructors
//! (`Quantizer::new(IntFormat::int4(), …)`, [`Quantizer::int8_tile`],
//! [`Quantizer::mxfp4`] / [`Quantizer::mxfp8`], [`Quantizer::with_rht`],
//! [`Quantizer::with_outliers`]), and it is the one in-tree implementor of
//! [`PackedQuantize`], producing a [`PackedTensor`]; a dense result is
//! the decode of the packed form.
//!
//! **To add a quantization method**, add a [`Recipe`] arm that packs — its
//! scale rule in `Quantizer::scale_of`, its arm in the pack, its parameter
//! checks in `Quantizer::checked` (the constructors and deserialization
//! share them) — plus a [`PackedTensor`] shape (and a [`wire`] variant
//! byte) if its packed form carries new metadata. Its oracle arm goes in
//! test support, the dense oracle of `tests/support/oracle.rs`, restated
//! from public API so that it shares no code with the pack it checks. `snip_nn::Linear`,
//! `snip_optim::AdamW` and `snip_pipeline::collective::Wire` hold the
//! concrete [`Quantizer`]; only `snip_pipeline::comm::codec_wire_bytes` is
//! generic over [`PackedQuantize`], so an out-of-tree implementor reaches
//! the comm-volume accounting and nothing else (the benchmark imports the
//! trait, so it stays). A new ≤ 8-bit *element grid* is an
//! [`format::ElementFormat`] arm: it owns the grid maximum, the wire id and
//! (through the id) the interned [`Codebook`], whose code grid rounds onto
//! it; its element rule goes in the test-support oracle.
//!
//! The packed path is bit- and RNG-stream-identical to the fake-quant
//! oracle, property-tested across format × granularity × rounding × recipe
//! (`tests/packed_equivalence.rs`). The oracle is test support, not API:
//! `tests/support/oracle.rs` (the dense `fake_quantize`, the element
//! rounding rules and a two-step reference packer), which the tests of
//! this crate, `snip-nn`, `snip-pipeline`, `snip-core` and the root package
//! include by path. Never delete it; the equivalence tests depend on it.
//! The library has no dense quantize: a packing quantizer's users decode
//! its codes, and the BF16 quantizer's users round in place
//! ([`snip_tensor::bf16::round_slice`], the engine's rounded operand, the
//! BF16 hop frame).
//! The 36-byte wire header (format ids `0–3` / `0x10 | bits`, variant bytes
//! `0–3`, layout tags; laid out in the [`wire`] docs) is pinned by golden
//! literals in `tests/wire_roundtrip.rs`.
//!
//! Scale groups have one layout enum, [`snip_tensor::GroupLayout`] (the
//! group walk, [`group_index`](snip_tensor::GroupLayout::group_index) and
//! [`group_count`](snip_tensor::GroupLayout::group_count) in one file);
//! [`granularity::Granularity`] is its name here. An empty tensor has 0
//! groups under every layout, so packed ≡ fake holds there too.
//!
//! A pack of at least `snip_tensor::PARALLEL_ELEMENTS` elements splits
//! across the worker pool in runs of whole scale-group rows (block bands,
//! tile and row rows; tensorwise and columnwise packs, and `1 × n` wire
//! payloads, stay one run). The split cannot move a bit: each run is a
//! contiguous stretch of the serial group walk, computes its groups as the
//! walk does and writes only its own code rows (whole bytes) and scale
//! slice, and a stochastic run draws from its own copy of the stream
//! advanced to the draws the walk makes before it (`Rng::advance`).
//! `tests/pack_simd.rs` holds every split on every tier to the one-run walk
//! and the reference packer.
//!
//! ## Packed state beyond GEMM operands
//!
//! * **Optimizer moments**: `snip_optim::AdamW` stores `m` and `v` as packed
//!   FP8 [`QTensor`](snip_tensor::QTensor)s (`m` E4M3, `v` E5M2, 1×128 tile
//!   scales) behind `AdamWConfig::moments = MomentPrecision::PackedFp8`,
//!   measured by `AdamW::moment_state_bytes`. The `f32` master weights stay
//!   (§4.3.2), and checkpoint round trips are bit-exact: a checkpoint
//!   stores the codes and scales as they are ([`wire::Writer::codes`]).
//!   Analytic accounting: `StateBytes::with_quantized_moments`.
//! * **Collective payloads**: `snip_pipeline::collective::Wire` holds an
//!   `Option<Quantizer>` (`Wire::codec()`), so `mxfp4`, `rht_fp4`,
//!   `outlier_fp4` and `int8` wires ship byte-accurate packed volumes next
//!   to the `fp4`, `fp8` and `bf16` recipes, each hop through
//!   [`wire::Writer::packed`] and [`wire::Fields::packed`];
//!   `comm::codec_wire_bytes` answers the same numbers analytically through
//!   [`PackedQuantize::packed_wire_bytes`].

pub mod codebook;
pub mod format;
pub mod granularity;
pub mod int;
mod mx;
pub mod outlier;
pub mod packed;
mod quantizer;
pub mod rht;
mod signals;
pub mod wire;

pub use codebook::Codebook;
pub use packed::{PackedOutlier, PackedQuantize, PackedTensor};
pub use quantizer::{Quantizer, Recipe, Rounding};
pub use wire::{
    crc32, stream_envelope, stream_envelope_of, stream_frame, Crc32, StreamDecoder, StreamError,
    STREAM_CRC_BYTES, STREAM_ENVELOPE_BYTES, STREAM_MAX_FRAME_BYTES, STREAM_PREFIX_BYTES,
    WIRE_HEADER_BYTES,
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

    /// Default tile/block length for scale groups. The paper uses 128; the
    /// value is exposed so scaled-down experiments can shrink it together
    /// with their hidden dimensions.
    pub(crate) const DEFAULT_GROUP: usize = 128;

    /// The paper's quantizer recipe for this precision and tensor role:
    /// 1×128 tilewise for activations/gradients, 128×128 blockwise for
    /// weights, stochastic rounding for FP4 output gradients (§6.1), and
    /// the BF16 quantizer ([`Quantizer::unscaled`]) for BF16.
    pub fn quantizer_for(self, role: TensorRole) -> Quantizer {
        self.quantizer_with_group(role, Self::DEFAULT_GROUP)
    }

    /// Same as [`Precision::quantizer_for`] but with a custom scale-group
    /// length (tile length / block side).
    pub fn quantizer_with_group(self, role: TensorRole, nb: usize) -> Quantizer {
        let format = match self {
            Precision::Fp4 => FloatFormat::e2m1(),
            Precision::Fp8 => FloatFormat::e4m3(),
            Precision::Bf16 => return Quantizer::unscaled(),
        };
        let granularity = match role {
            TensorRole::Weight => Granularity::Block { nb },
            TensorRole::Input | TensorRole::OutputGrad => Granularity::Tile { nb },
        };
        let rounding = if self == Precision::Fp4 && role == TensorRole::OutputGrad {
            Rounding::Stochastic
        } else {
            Rounding::Nearest
        };
        Quantizer::new(format, granularity, rounding)
    }

    /// Effective precision of a GEMM whose two quantized operands have the
    /// given precisions: the GEMM runs at the *wider* (slower) operand's
    /// precision — an FP4×FP8 product executes as an FP8 GEMM.
    pub(crate) fn combine(a: Precision, b: Precision) -> Precision {
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

// The unit tests reach the test-support oracle under the same paths the
// integration tests and the other crates' tests use.
#[cfg(test)]
extern crate self as snip_quant;
#[cfg(test)]
#[path = "../tests/support/oracle.rs"]
mod oracle;

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
