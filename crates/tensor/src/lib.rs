//! # snip-tensor
//!
//! CPU numeric substrate for the SNIP mixed-precision training framework.
//!
//! The crate provides a deliberately small surface:
//!
//! * [`Tensor`] — a dense, row-major, two-dimensional `f32` tensor. Every
//!   quantity SNIP manipulates (activations, weights, gradients, optimizer
//!   moments) is two-dimensional once the batch and sequence dimensions are
//!   flattened, so a 2-D tensor keeps the whole stack simple and auditable.
//! * [`matmul`] — cache-blocked GEMM kernels in the three orientations used
//!   by a linear layer's forward and backward passes, dispatched on the
//!   persistent worker pool for large problems.
//! * [`packed`] — bit-packed subbyte tensors ([`QTensor`]: 4/8-bit codes +
//!   per-group scales) and quantized GEMM kernels that decode them on the
//!   fly, bit-for-bit equivalent to the dense kernels over dequantized
//!   operands (they share one blocked engine).
//! * [`granularity`] — [`GroupLayout`], the scaling granularity (paper
//!   §2.3): which elements share a scale, the walk over those groups and
//!   the scale-vector indexing of packed storage.
//! * [`pool`] — the lazily-initialized persistent worker pool behind every
//!   parallel kernel (`SNIP_THREADS` overrides its size; results are
//!   bit-identical at every size).
//! * [`bf16`] — round-to-nearest-even BF16 rounding, shared between the
//!   engine's fused tile store (`matmul_bf16`/`qgemm_bf16` families) and the
//!   standalone slice pass used elsewhere in the workspace.
//! * [`simd`] — the runtime-dispatched SIMD backend behind the engine
//!   (AVX2/NEON when the `simd` cargo feature is on, scalar otherwise);
//!   exposes introspection (`backend()`, `lane_width()`) and the
//!   `with_forced_backend` test hook. Results are bit-identical across
//!   backends by construction: lanes vectorize *output elements* only.
//! * [`encode`] — the pack engine: the same backends' quantize→encode
//!   kernels (group abs-max scan, 4-bit and 8-bit code writers) that
//!   `snip-quant` packs through, bit-identical across backends.
//! * [`ops`] — elementwise and reduction helpers (softmax, SiLU, norms).
//! * [`rng`] — deterministic xoshiro256++ random streams with Gaussian
//!   sampling; all randomness in the workspace flows from explicit seeds so
//!   experiments are reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use snip_tensor::{Tensor, rng::Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let a = Tensor::randn(4, 8, 0.5, &mut rng);
//! let b = Tensor::randn(8, 3, 0.5, &mut rng);
//! let c = snip_tensor::matmul::matmul(&a, &b);
//! assert_eq!(c.shape(), (4, 3));
//! let n = c.frobenius_norm();
//! assert!(n.is_finite());
//! ```

pub mod bf16;
mod engine;
pub mod granularity;
pub mod matmul;
pub mod ops;
pub mod packed;
pub mod pool;
pub mod rng;
mod tensor;

pub use engine::simd;
pub use engine::simd_encode as encode;
pub use granularity::GroupLayout;
pub use packed::{CodeWidth, QOperandRef, QTensor};
// The shared env-var parse + warn-once helper. It lives in `snip-obs`
// (which sits below this crate so telemetry can instrument the kernels),
// but `snip-tensor` is its canonical address for the rest of the stack:
// `SNIP_SIMD`, `SNIP_THREADS` and `SNIP_TRACE` all parse through it.
pub use snip_obs::env;
pub use tensor::Tensor;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::matmul::{matmul, matmul_nt, matmul_tn};
    pub use crate::packed::{
        qgemm, qgemm_bf16, qgemm_nt, qgemm_nt_bf16, qgemm_tn, qgemm_tn_bf16, QOperandRef, QTensor,
    };
    pub use crate::rng::Rng;
    pub use crate::Tensor;
}
