//! Pipeline-parallel scenario: compare a globally-optimal SNIP scheme with
//! the pipeline-stage-balanced variant (paper §5.3) on simulated 1F1B
//! timelines, showing why balance matters.
//!
//! ```sh
//! cargo run --release --example pipeline_parallel
//! ```

use snip::core::{PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip::nn::ModelConfig;
use snip::pipeline::{render_timeline, simulate_1f1b, stage_costs, StagePartition};
use snip::tensor::rng::Rng;

fn main() {
    let model = ModelConfig::tinyllama_1b_sim();
    let cfg = TrainerConfig {
        model: model.clone(),
        batch_size: 2,
        seq_len: 16,
        ..TrainerConfig::tiny()
    };
    let mut ckpt = Trainer::new(cfg).expect("valid config");
    let _ = ckpt.train(15);

    let partition = StagePartition::even(model.n_layers, 4);
    let batch = ckpt.peek_batch();
    let mut rng = Rng::seed_from(5);
    let optimizer = ckpt.optimizer.clone();

    let mut engine_cfg = SnipConfig {
        policy: PolicyConfig {
            target_fp4: 0.5,
            ..Default::default()
        },
        ..Default::default()
    };

    // Global ILP (no stage awareness).
    let engine = SnipEngine::new(engine_cfg.clone(), model.clone());
    let global = engine
        .generate_scheme(&mut ckpt.model, &optimizer, &batch, &mut rng, "global")
        .expect("feasible");

    // Stage-balanced ILP (Eq. 5).
    engine_cfg.policy.pipeline_stages = Some(4);
    let engine = SnipEngine::new(engine_cfg, model.clone());
    let balanced = engine
        .generate_scheme(&mut ckpt.model, &optimizer, &batch, &mut rng, "balanced")
        .expect("feasible");

    for (label, scheme) in [("global ILP", &global), ("stage-balanced ILP", &balanced)] {
        let costs = stage_costs(&model, scheme, &partition, 64);
        let sim = simulate_1f1b(&costs, 8);
        println!("\n=== {label} ===");
        println!("{}", render_timeline(&sim, 90));
    }
}
