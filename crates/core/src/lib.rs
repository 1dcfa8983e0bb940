//! # snip-core
//!
//! The SNIP framework itself — the paper's primary contribution: a
//! fine-grained adaptive mixed-precision policy for subbyte LLM pretraining.
//!
//! The workflow (paper Fig. 6):
//!
//! 1. **Collect statistics** on a high-precision iteration —
//!    [`probe::measure`] + [`stats::StepStats`].
//! 2. **Backward noise probe** and 3. **forward noise probe** estimating
//!    second-order error propagation (Theorem 4.2) — [`probe`].
//! 4. **Analyze divergence**: loss divergence (§4.2) and weight divergence
//!    (§4.3) per layer and precision option — [`divergence::analyze`].
//! 5. **Solve the ILP** (multiple-choice knapsack, §5.2; pipeline-stage
//!    variant §5.3) — [`policy::decide_scheme`] on top of `snip-ilp`.
//! 6. **Apply the scheme** before the update step trains —
//!    [`engine::SnipEngine`] and [`trainer::Trainer::train_with_engine`]
//!    run Steps 1–6 in line, so the loop is deterministic.
//!
//! Baselines — §6.1's (uniform, min-abs/rel-err, E-layer-type, E-layer-id,
//! random) and the related-work heuristics (Fisher, greedy) — live in
//! [`baselines`]; every ILP method shares [`policy::scheme_from_tables`].
//!
//! # Example
//!
//! ```
//! use snip_core::{engine::{SnipConfig, SnipEngine}, policy::PolicyConfig, trainer::{Trainer, TrainerConfig}};
//!
//! // Train a tiny model with SNIP updating the precision scheme every 5 steps.
//! let cfg = TrainerConfig::tiny();
//! let mut trainer = Trainer::new(cfg.clone()).unwrap();
//! trainer.train(5); // warm up the optimizer state
//! let engine = SnipEngine::new(
//!     SnipConfig {
//!         policy: PolicyConfig { target_fp4: 0.5, ..Default::default() },
//!         update_period: 5,
//!         ..Default::default()
//!     },
//!     cfg.model.clone(),
//! );
//! let losses = trainer.train_with_engine(10, &engine);
//! assert!(losses.iter().all(|l| l.is_finite()));
//! ```

pub mod baselines;
pub mod divergence;
pub mod engine;
pub mod options;
pub mod policy;
pub mod probe;
pub mod rowwise;
pub mod scheme;
pub mod stats;
pub mod trainer;

pub use baselines::{fisher_scheme, greedy_refinement, greedy_snip_scheme};
pub use divergence::{analyze, Analysis};
pub use engine::{SnipConfig, SnipEngine};
pub use options::{FlopModel, OptionSet};
pub use policy::{decide_scheme, scheme_from_tables, PipelineBalance, PolicyConfig};
pub use probe::{measure, SnipMeasurement};
pub use rowwise::{overhead_ratio, RowNorms, RowwiseLayerStats};
pub use scheme::Scheme;
pub use stats::StepStats;
pub use trainer::{Trainer, TrainerConfig};

// The Fisher/greedy unit tests, under the module path they have always had.
#[cfg(test)]
mod heuristics;
