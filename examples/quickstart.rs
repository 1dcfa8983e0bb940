//! Quickstart: train a small Llama-like model with SNIP adaptively choosing
//! per-layer FP8/FP4 precision.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use snip::core::{PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip::nn::ModelConfig;

fn main() {
    // 1. A trainer bundles model + AdamW + synthetic data stream + RNG.
    let cfg = TrainerConfig {
        model: ModelConfig::tiny_test(),
        ..TrainerConfig::tiny()
    };
    let mut trainer = Trainer::new(cfg.clone()).expect("valid config");

    // 2. Warm up in BF16 so the optimizer moments exist (SNIP's weight
    //    divergence reads them).
    let warmup = trainer.train(20);
    println!(
        "warmup: loss {:.3} -> {:.3}",
        warmup.first().unwrap(),
        warmup.last().unwrap()
    );

    // 3. A SNIP engine periodically measures the model, analyzes loss /
    //    weight divergence, solves the ILP, and hands back a scheme.
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5, // half of all linear FLOPs in FP4
                ..Default::default()
            },
            update_period: 25,
            ..Default::default()
        },
        cfg.model.clone(),
    );

    // 4. Train with the engine in the loop (measure → analyze → solve →
    //    apply on every 25th step — the paper's Fig. 6 workflow).
    let losses = trainer.train_with_engine(60, &engine);
    println!(
        "with SNIP: loss {:.3} -> {:.3}",
        losses.first().unwrap(),
        losses.last().unwrap()
    );

    // 5. Inspect the applied scheme.
    let scheme = trainer.model.scheme();
    let fp4 = scheme
        .iter()
        .filter(|p| p.forward_gemm() == snip::quant::Precision::Fp4)
        .count();
    println!(
        "scheme: {fp4}/{} linear layers run their forward GEMM in FP4",
        scheme.len()
    );
}
