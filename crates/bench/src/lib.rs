//! # snip-bench
//!
//! The **perf trajectory runner** `bench_gemm` (`cargo run --release -p
//! snip-bench --bin bench_gemm`): it times quantize, decode, all six GEMM
//! orientations and an end-to-end training step at model-realistic shapes
//! — each kernel against its frozen PR-4 predecessor in [`legacy`] — and
//! writes machine-readable `BENCH_gemm.json` at the repo root. CI runs it
//! in `--smoke` mode and validates the output with `--check`, so the
//! trajectory cannot silently rot.
//!
//! End-to-end and per-layer training costs (train step by precision
//! scheme, SNIP measure/analyze/ILP overhead, collectives, optimizer) are
//! measured by the stand-alone `benchmark/` package (`bench_train`, see
//! `BENCHMARK.json`), which replaced the compile-only criterion benches
//! this crate used to carry.

pub mod legacy;

/// Shared fixtures for `bench_gemm`.
pub mod fixtures {
    use snip_core::{Trainer, TrainerConfig};
    use snip_nn::ModelConfig;
    use snip_optim::{AdamWConfig, LrSchedule};

    /// A small warmed-up trainer for the end-to-end train-step row.
    pub fn bench_trainer() -> Trainer {
        let cfg = TrainerConfig {
            model: ModelConfig::tiny_test(),
            adamw: AdamWConfig::default(),
            schedule: LrSchedule::Constant { lr: 1e-3 },
            batch_size: 2,
            seq_len: 16,
            grad_clip: Some(1.0),
            data_seed: 0,
            init_seed: 0,
            language: snip_data::LanguageConfig::default(),
        };
        let mut t = Trainer::new(cfg).expect("valid config");
        let _ = t.train(3);
        t
    }
}
