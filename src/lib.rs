//! # snip — Adaptive Mixed Precision for Subbyte LLM Training
//!
//! Facade crate re-exporting the whole SNIP workspace.
//!
//! * [`tensor`] — CPU tensor substrate: dense f32 tensors, **bit-packed
//!   subbyte tensors** ([`tensor::QTensor`]) and both dense and quantized
//!   GEMM kernels, deterministic RNG
//! * [`quant`] — FP4/FP8/BF16/INT codecs, scaling granularities, codebooks,
//!   fake *and* packed quantization
//! * [`nn`] — Llama-like transformer with manual backprop and per-layer
//!   mixed-precision linear layers (backward caches held packed)
//! * [`optim`] — AdamW with FP32 master weights (exposes SNIP's h′(g) term)
//! * [`data`] — synthetic pretraining corpora
//! * [`ilp`] — exact multiple-choice-knapsack ILP solver
//! * [`core`] — the SNIP framework itself: statistics collection, loss/weight
//!   divergence, ILP policy, baselines, and the periodic scheme engine
//! * [`pipeline`] — multi-rank transport (threads or socket-connected
//!   processes) and collectives with byte-accurate packed payloads
//! * [`eval`] — synthetic zero-shot evaluation harness
//!
//! # The packed subbyte path
//!
//! Subbyte operands are carried through the stack as *representations*, not
//! just roundings. A [`tensor::QTensor`] stores each element as a code into
//! a per-format table, plus one f32 scale per scale group:
//!
//! ```text
//!           ┌ data: packed codes, row-major ─────────────┐
//!   FP4     │ byte 0: [c1|c0]   byte 1: [c3|c2] …        │ 0.5 B/elem
//!   FP8     │ byte 0:  c0       byte 1:  c1     …        │ 1   B/elem
//!           └────────────────────────────────────────────┘
//!   lut    : code → value   (shared per format: 16 or 256 × f32)
//!   scales : group → decode multiplier (1×nb tiles / nb×nb blocks / …)
//!
//!   value(r, c) = lut[code(r, c)] × scales[group(r, c)]
//! ```
//!
//! **Which call sites are packed vs f32:**
//!
//! * `nn::Linear` forward/backward — FP4/FP8/INT operands (`qx`, `qw`, and
//!   the quantized `dy`) are packed; the GEMMs ([`tensor::packed::qgemm`],
//!   `qgemm_nt`, `qgemm_tn`) decode rows on the fly. BF16 operands and
//!   exact-mode tensors stay dense f32 (`nn::QCache::Dense`).
//! * `pipeline::collective::Wire::transmit` — FP4/FP8 wire payloads travel
//!   packed (codes + scales, byte-accurate); BF16/exact wires stay dense.
//! * GEMM *outputs*, gradients in the optimizer, probes, and statistics are
//!   always dense f32/BF16: `core`'s probe and stats read saved activations
//!   through `nn::QCache::dequantize`, which reproduces the fake-quantized
//!   values **bit-for-bit** — the packed representation never changes a
//!   training trajectory (property-tested in `tests/packed_subbyte.rs`).
//!
//! **Adding a new packed format:** give it a codec (≤ 8 bits per value),
//! then give it a [`quant::Codebook`] — `ElementFormat::codebook` covers
//! any `FloatFormat` or `IntFormat` (wrap it with `.into()`); a custom
//! format needs its sorted non-negative value table. The codebook dictates the
//! storage width (`U4`/`U8`), emits the shared decode table, and encodes
//! grid values to codes; `quantize_packed` + the `qgemm*` kernels then work
//! unchanged. Formats wider than 8 bits are rejected (`None`) and fall back
//! to the dense path.
//!
//! # Quickstart
//!
//! ```
//! use snip::nn::{config::ModelConfig, model::{Model, StepOptions}, batch::Batch};
//! use snip::tensor::rng::Rng;
//!
//! let mut model = Model::new(ModelConfig::tiny_test(), 42).unwrap();
//! let mut rng = Rng::seed_from(7);
//! let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
//! let out = model.step(&batch, &mut rng, &StepOptions::train());
//! assert!(out.loss.is_finite());
//! ```

pub use snip_core as core;
pub use snip_data as data;
pub use snip_eval as eval;
pub use snip_ilp as ilp;
pub use snip_nn as nn;
pub use snip_optim as optim;
pub use snip_pipeline as pipeline;
pub use snip_quant as quant;
pub use snip_tensor as tensor;
