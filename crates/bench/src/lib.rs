//! # snip-bench
//!
//! The **perf trajectory runner** `bench_gemm` (`cargo run --release -p
//! snip-bench --bin bench_gemm`): it times quantize, decode, all six GEMM
//! orientations and an end-to-end training step at model-realistic shapes
//! — each kernel beside the frozen timing of its PR-4 predecessor — and
//! writes machine-readable `BENCH_gemm.json` at the repo root. CI runs it
//! in `--smoke` mode and validates the output with `--check`, so the
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

    /// A small warmed-up trainer for the end-to-end train-step row.
    pub fn bench_trainer() -> Trainer {
        warmed(ModelConfig::tiny_test(), 1e-3, 2, 16)
    }

    /// The 768×2-block model of the end-to-end benchmark
    /// (`benchmark/src/fixture.rs`: ≈ 15 M parameters, 14 linear layers,
    /// 4 × 64 = 256 tokens per step, so its GEMMs are the shapes the `gemm`
    /// section times), warmed — what the `probe` section runs
    /// `snip_core::measure` on. `smoke` swaps in [`bench_trainer`].
    pub fn probe_trainer(smoke: bool) -> Trainer {
        if smoke {
            return bench_trainer();
        }
        let model = ModelConfig {
            name: "bench-768x2".into(),
            vocab_size: 512,
            hidden: 768,
            n_layers: 2,
            n_heads: 12,
            ffn_hidden: 2048,
            max_seq: 64,
            rope_theta: 10_000.0,
            quant_group: 128,
        };
        warmed(model, 3e-4, 4, 64)
    }
}
