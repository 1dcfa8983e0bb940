//! # snip-optim
//!
//! Optimizers for the SNIP training stack.
//!
//! The centerpiece is [`adamw::AdamW`] — the optimizer the paper analyzes
//! (§4.3.2) — which keeps FP32 master weights and exposes its first/second
//! moments plus the closed-form *update sensitivity* `h′(g)` that SNIP's
//! weight-divergence metric consumes. [`schedule::LrSchedule`] provides
//! warmup+cosine learning rates and [`clip`] global-norm gradient clipping.
//!
//! # Example
//!
//! ```
//! use snip_nn::{batch::Batch, config::ModelConfig, model::{Model, StepOptions}};
//! use snip_optim::adamw::{AdamW, AdamWConfig};
//! use snip_tensor::rng::Rng;
//!
//! let mut model = Model::new(ModelConfig::tiny_test(), 0).unwrap();
//! let mut opt = AdamW::new(AdamWConfig::default());
//! let mut rng = Rng::seed_from(1);
//! let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
//! model.zero_grads();
//! model.step(&batch, &mut rng, &StepOptions::train());
//! opt.update(&mut model);
//! assert_eq!(opt.step_count(), 1);
//! ```

pub mod adamw;
pub mod clip;
pub mod schedule;

pub use adamw::{AdamW, AdamWConfig, MomentPrecision, MomentState};
pub use schedule::LrSchedule;
