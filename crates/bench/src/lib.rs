//! # snip-bench
//!
//! The **perf trajectory runner** `bench_gemm` (`cargo run --release -p
//! snip-bench --bin bench_gemm`): it times all six GEMM orientations, the
//! pack and the decode kernels at model-realistic shapes, once per
//! (backend tier, kernel, shape), each tier bit-gated against forced
//! scalar, plus the SNIP probe against a plain step and the Gaussian init,
//! and writes machine-readable `BENCH_gemm.json` at the repo root (its
//! schema number is `bench_gemm`'s `SCHEMA`). CI validates the committed
//! file with `--check`, then runs `--smoke` and checks its output, so the
//! trajectory cannot silently rot.
//!
//! End-to-end and per-layer training costs (train step by precision
//! scheme, SNIP measure/analyze/ILP overhead, collectives, optimizer) are
//! measured by the stand-alone `benchmark/` package (`bench_train`, see
//! `BENCHMARK.json`), which replaced the compile-only criterion benches
//! this crate used to carry.

/// Shared fixtures for `bench_gemm`.
pub mod fixtures {
    use snip_core::{Trainer, TrainerConfig};
    use snip_nn::ModelConfig;
    use snip_optim::{AdamWConfig, LrSchedule};

    /// A trainer three steps in (so the AdamW moments exist).
    fn warmed(model: ModelConfig, lr: f64, batch_size: usize, seq_len: usize) -> Trainer {
        let cfg = TrainerConfig {
            model,
            adamw: AdamWConfig {
                lr,
                ..Default::default()
            },
            schedule: LrSchedule::Constant { lr },
            batch_size,
            seq_len,
            grad_clip: Some(1.0),
            data_seed: 0,
            init_seed: 0,
            language: snip_data::LanguageConfig::default(),
        };
        let mut t = Trainer::new(cfg).expect("valid config");
        let _ = t.train(3);
        t
    }

    /// The 768×2-block model of the end-to-end benchmark
    /// (`benchmark/src/fixture.rs`: ≈ 15 M parameters, 14 linear layers,
    /// so its weights are the shapes the `init` section fills and its
    /// GEMMs at 256 tokens the shapes the `gemm` section times); `smoke`
    /// swaps in the `tiny_test` model.
    pub fn bench_model(smoke: bool) -> ModelConfig {
        if smoke {
            return ModelConfig::tiny_test();
        }
        ModelConfig {
            name: "bench-768x2".into(),
            vocab_size: 512,
            hidden: 768,
            n_layers: 2,
            n_heads: 12,
            ffn_hidden: 2048,
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 128,
        }
    }

    /// [`bench_model`] at 4 × 64 = 256 tokens per step (smoke: 2 × 16),
    /// warmed — what the `probe` section runs `snip_core::measure` on.
    pub fn probe_trainer(smoke: bool) -> Trainer {
        if smoke {
            return warmed(bench_model(true), 1e-3, 2, 16);
        }
        warmed(bench_model(false), 3e-4, 4, 64)
    }
}
