//! Adaptive pretraining scenario: resume a BF16 checkpoint under different
//! quantization schemes and compare training stability and downstream
//! accuracy — the paper's core evaluation loop (§6.1) in miniature.
//!
//! ```sh
//! cargo run --release --example adaptive_pretraining
//! ```

use snip::core::baselines::random_scheme;
use snip::core::{OptionSet, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip::data::{LanguageConfig, SyntheticLanguage};
use snip::eval::{evaluate, EvalConfig};
use snip::nn::ModelConfig;
use snip::quant::Precision;
use snip::tensor::rng::Rng;

fn main() {
    // Build a "public checkpoint": BF16 pretraining for 80 steps.
    let cfg = TrainerConfig {
        model: ModelConfig::tiny_test(),
        batch_size: 4,
        seq_len: 16,
        ..TrainerConfig::tiny()
    };
    let mut ckpt = Trainer::new(cfg.clone()).expect("valid config");
    let _ = ckpt.train(80);
    println!("checkpoint ready at step {}", ckpt.step_count());

    let n = cfg.model.n_linear_layers();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.75,
                ..Default::default()
            },
            options: OptionSet::fp8_fp4(),
            ..Default::default()
        },
        cfg.model.clone(),
    );

    // SNIP scheme from the checkpoint (Steps 1–5, synchronously).
    let batch = ckpt.peek_batch();
    let mut rng = Rng::seed_from(1);
    let optimizer = ckpt.optimizer.clone();
    let snip = engine
        .generate_scheme(&mut ckpt.model, &optimizer, &batch, &mut rng, "SNIP@75")
        .expect("feasible budget");

    let language = SyntheticLanguage::new(
        LanguageConfig {
            vocab: cfg.model.vocab_size,
            ..Default::default()
        },
        cfg.data_seed,
    );

    println!("\n{:<14} {:>12} {:>10}", "scheme", "final loss", "accuracy");
    for scheme in [
        Scheme::uniform(Precision::Bf16, n),
        Scheme::uniform(Precision::Fp8, n),
        snip,
        random_scheme(&cfg.model, 0.75, 0),
        Scheme::uniform(Precision::Fp4, n),
    ] {
        let mut t = ckpt.clone();
        t.apply_scheme(&scheme);
        let losses = t.train(60);
        let report = evaluate(
            &t.model,
            &language,
            &EvalConfig {
                items_per_task: 10,
                seed: 3,
            },
        );
        println!(
            "{:<14} {:>12.4} {:>10.2}",
            scheme.name,
            losses.last().unwrap(),
            report.average()
        );
    }
}
