//! The two extension-surface integration tests that need the 1F1B cost
//! model (moved here with it from the workspace root's
//! `tests/extensions_integration.rs`): time-balanced pipeline targets
//! against simulated stage times.

use snip_core::{
    FlopModel, PipelineBalance, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer,
    TrainerConfig,
};
use snip_experiments::cost::stage_costs;
use snip_ilp::{imbalance_fraction, stage_times};
use snip_nn::ModelConfig;
use snip_pipeline::StagePartition;
use snip_quant::Precision;
use snip_tensor::rng::Rng;

#[test]
fn time_balanced_policy_flattens_stage_times() {
    // 22-block model, 4 stages → the 6/6/6/4 split of Fig. 12.
    let cfg = ModelConfig::tinyllama_1b_sim();
    let mut t = Trainer::new(TrainerConfig {
        model: cfg.clone(),
        seq_len: 24,
        batch_size: 2,
        ..TrainerConfig::tiny()
    })
    .expect("valid config");
    t.train(8);
    let batch = t.peek_batch();
    let rng = Rng::seed_from(12);
    let optimizer = t.optimizer.clone();
    let partition = StagePartition::even(cfg.n_layers, 4);

    let mut times_of = |balance: PipelineBalance| {
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 0.5,
                    pipeline_stages: Some(4),
                    pipeline_balance: balance,
                    ..Default::default()
                },
                ..Default::default()
            },
            cfg.clone(),
        );
        let scheme = engine
            .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng.clone(), "s")
            .expect("feasible");
        let costs = stage_costs(&cfg, &scheme, &partition, 48);
        costs.iter().map(|c| c.total()).collect::<Vec<_>>()
    };
    let rel = times_of(PipelineBalance::Relative);
    let bal = times_of(PipelineBalance::TimeBalanced);
    assert!(
        imbalance_fraction(&bal) < imbalance_fraction(&rel),
        "time-balanced {bal:?} should be flatter than relative {rel:?}"
    );
}

#[test]
fn stage_times_helper_matches_cost_model_ratios() {
    // snip-ilp's analytic stage-time formula and snip-pipeline's cost model
    // must agree on relative stage times for uniform schemes.
    let cfg = ModelConfig::tinyllama_1b_sim();
    let partition = StagePartition::even(cfg.n_layers, 4);
    let flops = FlopModel::new(&cfg);
    let n = cfg.n_linear_layers();
    let mut stage_flops = vec![0.0f64; 4];
    #[allow(clippy::needless_range_loop)]
    for k in 0..4 {
        for id in partition.linears(k) {
            stage_flops[k] += flops.fraction(id.linear_index());
        }
    }
    let fp8 = Scheme::uniform(Precision::Fp8, n);
    let costs = stage_costs(&cfg, &fp8, &partition, 64);
    let analytic = stage_times(&stage_flops, &[0.0; 4]);
    for k in 1..4 {
        let cost_ratio = costs[k].total() / costs[0].total();
        let analytic_ratio = analytic[k] / analytic[0];
        assert!(
            (cost_ratio - analytic_ratio).abs() < 1e-9,
            "stage {k}: {cost_ratio} vs {analytic_ratio}"
        );
    }
}
