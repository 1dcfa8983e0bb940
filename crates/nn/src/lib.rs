//! # snip-nn
//!
//! Llama-like transformer substrate for SNIP: a decoder-only language model
//! with *manual* forward/backward passes and mixed-precision linear layers
//! (paper Fig. 4–5).
//!
//! Everything SNIP needs from the model is first-class here:
//!
//! * per-layer precision assignment ([`model::Model::set_scheme`]),
//! * a per-layer observer of a step ([`record::LayerTap`]), through which
//!   SNIP's Step-1 statistics reduce live operands (the snapshotting
//!   [`record::StepRecord`] is their test oracle),
//! * the step's four stages as public calls ([`model::Model::forward_blocks`]
//!   … [`model::Model::backward_blocks`]), so SNIP's probe can share one
//!   forward between its three passes,
//! * Gaussian noise-injection probes ([`inject::Injection`], SNIP Steps 2–3),
//! * FP32 master weights and their gradients ([`param::Param`]): written
//!   whole by each linear layer's weight-gradient GEMM (or into a buffer a
//!   tap lends, [`record::LayerTap::lend_dw`]), accumulated elsewhere.
//!
//! # Example
//!
//! ```
//! use snip_nn::{batch::Batch, config::ModelConfig, model::{Model, StepOptions}};
//! use snip_quant::{LinearPrecision, Precision};
//! use snip_tensor::rng::Rng;
//!
//! let mut model = Model::new(ModelConfig::tiny_test(), 0).unwrap();
//! // Drop every linear layer to FP4:
//! let scheme = vec![LinearPrecision::uniform(Precision::Fp4); model.config().n_linear_layers()];
//! model.set_scheme(&scheme);
//! let batch = Batch::from_sequences(&[vec![0, 1, 2, 3, 4, 5, 6, 7, 8]], 8);
//! let mut rng = Rng::seed_from(1);
//! let out = model.step(&batch, &mut rng, &StepOptions::train());
//! assert!(out.loss.is_finite());
//! ```

pub mod attention;
pub mod batch;
pub mod block;
pub mod config;
pub mod embedding;
pub mod inject;
pub mod layers;
pub mod linear;
pub mod loss;
pub mod memory;
pub mod model;
pub mod norm;
pub mod param;
pub mod record;
pub mod rope;

pub use batch::Batch;
pub use config::ModelConfig;
pub use layers::{LayerId, LayerKind};
pub use linear::{Linear, LinearCache, QOperand};
pub use model::{Model, StepOptions, StepOutput};
