//! Cross-crate integration tests for the extension surface added on top of
//! the paper's headline pipeline: heuristic baselines, quantized
//! collectives, the memory model, and custom ILP option sets.
//! (The two cases that need the 1F1B cost model live beside it, in
//! `crates/experiments/tests/extensions_integration.rs`.)

use snip::core::{
    baselines, fisher_scheme, greedy_snip_scheme, FlopModel, OptionSet, PolicyConfig, SnipConfig,
    SnipEngine, StepStats, Trainer, TrainerConfig,
};
use snip::nn::memory::{MemoryModel, StateBytes};
use snip::nn::model::StepOptions;
use snip::nn::ModelConfig;
use snip::pipeline::collective::{QuantizePolicy, Wire};
use snip::pipeline::transport::threaded_all_reduce;
use snip::tensor::ops::relative_error;
use snip::tensor::rng::Rng;

fn trained(steps: u64) -> Trainer {
    let cfg = TrainerConfig {
        model: ModelConfig::tiny_test(),
        ..TrainerConfig::tiny()
    };
    let mut t = Trainer::new(cfg).expect("valid config");
    t.train(steps);
    t
}

fn stats_of(t: &Trainer) -> StepStats {
    let mut tm = t.clone();
    let batch = tm.peek_batch();
    let mut rng = Rng::seed_from(9);
    tm.model.zero_grads();
    let out = tm.model.step(&batch, &mut rng, &StepOptions::record());
    StepStats::from_record(&out.record.expect("recorded"), &tm.config().model)
}

#[test]
fn heuristic_baselines_train_stably() {
    let ckpt = trained(15);
    let cfg = ckpt.config().model.clone();
    let stats = stats_of(&ckpt);
    let flops = FlopModel::new(&cfg);
    let fisher = fisher_scheme(&stats, &cfg, 0.5).expect("feasible");
    assert!(fisher.fp4_fraction(&flops) + 1e-9 >= 0.5);
    let mut t = ckpt.clone();
    t.apply_scheme(&fisher);
    let losses = t.train(10);
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn greedy_and_ilp_agree_on_two_option_sets_here() {
    // With the headline {FP8, FP4} pair and near-uniform efficiencies the
    // greedy ratio rule solves the knapsack exactly — the solver-ablation
    // finding from `baselines_extended`. Pin it at tiny scale.
    let ckpt = trained(15);
    let cfg = ckpt.config().model.clone();
    let mut t = ckpt.clone();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5,
                ..Default::default()
            },
            ..Default::default()
        },
        cfg.clone(),
    );
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(11);
    let optimizer = t.optimizer.clone();
    let m = snip::core::measure(&mut t.model, &optimizer, &batch, &mut rng, 1e-2);
    let analysis = snip::core::analyze(&m, &cfg, &OptionSet::fp8_fp4(), &FlopModel::new(&cfg));
    let ilp = engine
        .analyze_and_solve(&m, "ilp")
        .expect("feasible budget");
    let greedy = greedy_snip_scheme(&analysis, &OptionSet::fp8_fp4(), 0.5).expect("feasible");
    let agree = ilp
        .assignments()
        .iter()
        .zip(greedy.assignments())
        .filter(|(a, b)| a == b)
        .count();
    // Allow a layer of slack for objective ties.
    assert!(
        agree + 1 >= cfg.n_linear_layers(),
        "greedy and ILP disagree on {} layers",
        cfg.n_linear_layers() - agree
    );
}

#[test]
fn quantized_all_reduce_of_real_gradients_is_usable() {
    // FP8 wires on real dW tensors: error well under the gradient noise
    // floor (the go/no-go quantity for §2.2's future work).
    let ckpt = trained(12);
    let mut t = ckpt.clone();
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(13);
    t.model.zero_grads();
    let out = t.model.step(&batch, &mut rng, &StepOptions::record());
    let record = out.record.expect("recorded");
    let flat: Vec<f32> = record
        .linears
        .iter()
        .flat_map(|lr| lr.dw.as_slice().iter().copied())
        .collect();
    let mut grng = Rng::seed_from(14);
    let grads: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            flat.iter()
                .map(|&v| v * (1.0 + 0.05 * grng.next_gaussian() as f32))
                .collect()
        })
        .collect();
    let mut exact = vec![0.0f32; flat.len()];
    for g in &grads {
        for (s, v) in exact.iter_mut().zip(g) {
            *s += v;
        }
    }
    let rngs: Vec<Rng> = (0..4).map(|r| Rng::seed_from(15 + r)).collect();
    let (reduced, _) = threaded_all_reduce(&grads, &Wire::fp8(16), QuantizePolicy::EveryHop, &rngs);
    for copy in &reduced {
        let err = relative_error(copy, &exact);
        assert!(err < 0.05, "FP8 all-reduce error {err} too large");
        assert!(err > 0.0, "quantization should not be exact");
    }
}

#[test]
fn memory_model_consistent_with_configs_and_schemes() {
    let cfg = ModelConfig::tinyllama_1b_sim();
    let m = MemoryModel::from_config(&cfg);
    let bf16 = m.model_state_bytes(&StateBytes::mixed_precision_bf16());
    assert_eq!(bf16, cfg.param_count() as f64 * 16.0);
    // FP4 weight storage strictly shrinks the state.
    let fp4 = m.model_state_bytes(
        &StateBytes::mixed_precision_bf16().with_quantized_weights(4, cfg.quant_group.pow(2)),
    );
    assert!(fp4 < bf16);
}

#[test]
fn custom_option_sets_flow_through_the_engine() {
    // §5.2's "n options per layer": the engine accepts the 8-way mixed set
    // and still meets the budget.
    let ckpt = trained(15);
    let cfg = ckpt.config().model.clone();
    let mut t = ckpt.clone();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.4,
                ..Default::default()
            },
            options: OptionSet::mixed(),
            ..Default::default()
        },
        cfg.clone(),
    );
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(16);
    let optimizer = t.optimizer.clone();
    let scheme = engine
        .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "mixed")
        .expect("feasible");
    assert!(scheme.fp4_fraction(&FlopModel::new(&cfg)) + 1e-9 >= 0.4);
    // The mixed set can produce non-uniform per-operand assignments;
    // whatever it picked must train.
    t.apply_scheme(&scheme);
    let losses = t.train(6);
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn extended_schemes_compose_with_standard_baselines() {
    // All schemes (paper + extensions) on one checkpoint: all meet budget,
    // all names unique, all train.
    let ckpt = trained(15);
    let cfg = ckpt.config().model.clone();
    let stats = stats_of(&ckpt);
    let flops = FlopModel::new(&cfg);
    let schemes = vec![
        fisher_scheme(&stats, &cfg, 0.5).unwrap(),
        baselines::error_minimizing_scheme(&stats, &cfg, baselines::ErrorMetric::Absolute, 0.5)
            .unwrap(),
        baselines::e_layer_id(&cfg, 0.5),
        baselines::random_scheme(&cfg, 0.5, 3),
    ];
    let mut names = std::collections::HashSet::new();
    for s in &schemes {
        assert!(names.insert(s.name.clone()), "duplicate name {}", s.name);
        if s.name.starts_with("E-layer") {
            continue; // structural fraction
        }
        assert!(s.fp4_fraction(&flops) + 1e-9 >= 0.5, "{}", s.name);
    }
}
