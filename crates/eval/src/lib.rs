//! # snip-eval
//!
//! Synthetic zero-shot evaluation harness for the SNIP reproduction — the
//! role the LM-Evaluation-Harness plays in the paper's §6.1.
//!
//! Eight multiple-choice suites ([`tasks::Task`]) stand in for the paper's
//! benchmarks (ARC-e/c, MMLU, BoolQ, HellaSwag, OBQA, PiQA, WinoGrande),
//! scored by 0-shot model log-likelihood ([`harness::evaluate`]). The suites
//! share the paper benchmarks' key property for this evaluation: healthy
//! models score well above chance, collapsed models fall to the chance
//! floor, so schemes rank identically.
//!
//! # Example
//!
//! ```
//! use snip_data::{LanguageConfig, SyntheticLanguage};
//! use snip_eval::{evaluate, EvalConfig};
//! use snip_nn::{Model, ModelConfig};
//!
//! let model = Model::new(ModelConfig::tiny_test(), 0).unwrap();
//! let lang = SyntheticLanguage::new(LanguageConfig { vocab: 17, ..Default::default() }, 1);
//! let report = evaluate(&model, &lang, &EvalConfig { items_per_task: 4, seed: 2 });
//! assert_eq!(report.scores.len(), 8);
//! ```

pub mod harness;
pub mod tasks;

pub use harness::{evaluate, score_item, EvalConfig, EvalReport};
pub use tasks::{Task, TaskItem};
