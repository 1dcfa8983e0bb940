//! Integration tests for pipeline-aware scheme selection + schedule
//! simulation (paper §5.3 / Fig. 12).

use snip_core::{FlopModel, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_experiments::cost::stage_costs;
use snip_experiments::schedule::simulate_1f1b;
use snip_nn::ModelConfig;
use snip_pipeline::StagePartition;
use snip_quant::Precision;
use snip_tensor::rng::Rng;

fn scheme_for(stages: Option<usize>, budget: f64) -> (Scheme, ModelConfig) {
    let model = ModelConfig::tinyllama_1b_sim();
    let mut t = Trainer::new(TrainerConfig {
        model: model.clone(),
        batch_size: 2,
        seq_len: 12,
        ..TrainerConfig::tiny()
    })
    .expect("valid config");
    let _ = t.train(4);
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: budget,
                pipeline_stages: stages,
                ..Default::default()
            },
            ..Default::default()
        },
        model.clone(),
    );
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(7);
    let optimizer = t.optimizer.clone();
    let scheme = engine
        .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "pp")
        .expect("feasible");
    (scheme, model)
}

#[test]
fn balanced_scheme_meets_per_stage_budget() {
    let (scheme, model) = scheme_for(Some(4), 0.5);
    let partition = StagePartition::even(model.n_layers, 4);
    let flops = FlopModel::new(&model);
    for k in 0..4 {
        let linears = partition.linears(k);
        let stage_total: f64 = linears
            .iter()
            .map(|id| flops.fraction(id.linear_index()))
            .sum();
        let stage_fp4: f64 = linears
            .iter()
            .map(|id| flops.efficiency(id.linear_index(), scheme.layer(*id)))
            .sum();
        assert!(
            stage_fp4 / stage_total + 1e-9 >= 0.5,
            "stage {k} below budget: {:.3}",
            stage_fp4 / stage_total
        );
    }
}

#[test]
fn balanced_scheme_improves_worst_stage_fp4_fraction() {
    // The per-stage constraint (§5.3) guarantees every stage meets the
    // budget *relative to its own FLOPs*; the global ILP gives no such
    // guarantee, so its worst stage can fall below.
    let (global, model) = scheme_for(None, 0.5);
    let (balanced, _) = scheme_for(Some(4), 0.5);
    let partition = StagePartition::even(model.n_layers, 4);
    let flops = FlopModel::new(&model);
    let min_stage_fraction = |s: &Scheme| -> f64 {
        (0..4)
            .map(|k| {
                let linears = partition.linears(k);
                let total: f64 = linears
                    .iter()
                    .map(|id| flops.fraction(id.linear_index()))
                    .sum();
                let fp4: f64 = linears
                    .iter()
                    .map(|id| flops.efficiency(id.linear_index(), s.layer(*id)))
                    .sum();
                fp4 / total
            })
            .fold(f64::INFINITY, f64::min)
    };
    let balanced_min = min_stage_fraction(&balanced);
    assert!(balanced_min + 1e-9 >= 0.5, "worst stage {balanced_min}");
    assert!(
        balanced_min + 1e-9 >= min_stage_fraction(&global),
        "balancing made the worst stage worse"
    );
}

#[test]
fn faster_precision_shortens_simulated_makespan() {
    let model = ModelConfig::tinyllama_1b_sim();
    let partition = StagePartition::even(model.n_layers, 4);
    let n = model.n_linear_layers();
    let mk = |p: Precision| -> f64 {
        let scheme = Scheme::uniform(p, n);
        let costs = stage_costs(&model, &scheme, &partition, 64);
        simulate_1f1b(&costs, 8).makespan
    };
    let bf16 = mk(Precision::Bf16);
    let fp8 = mk(Precision::Fp8);
    let fp4 = mk(Precision::Fp4);
    assert!((bf16 / fp8 - 2.0).abs() < 1e-6);
    assert!((bf16 / fp4 - 4.0).abs() < 1e-6);
}
