//! Failure-injection tests: corrupted statistics, infeasible budgets and
//! degenerate inputs must fail loudly and cleanly — never with NaN schemes.

use snip::core::{
    baselines, fisher_scheme, greedy_refinement, OptionSet, PolicyConfig, SnipConfig, SnipEngine,
    StepStats, Trainer, TrainerConfig,
};
use snip::ilp::{solve, time_balanced_targets, Choice, McKnapsack, SolveError, SolveOptions};
use snip::nn::model::StepOptions;
use snip::nn::ModelConfig;
use snip::pipeline::collective::{QuantizePolicy, Wire};
use snip::pipeline::transport::run_ranks;
use snip::quant::Precision;
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
    let mut rng = Rng::seed_from(21);
    tm.model.zero_grads();
    let out = tm.model.step(&batch, &mut rng, &StepOptions::record());
    StepStats::from_record(&out.record.expect("recorded"), &tm.config().model)
}

#[test]
fn nan_statistics_are_rejected_not_propagated() {
    let ckpt = trained(10);
    let cfg = ckpt.config().model.clone();
    let mut stats = stats_of(&ckpt);
    stats.layers[3].x_err.fp4 = f64::NAN;
    let err =
        baselines::error_minimizing_scheme(&stats, &cfg, baselines::ErrorMetric::Absolute, 0.5)
            .unwrap_err();
    assert!(matches!(err, SolveError::Invalid(_)), "{err:?}");
}

#[test]
fn infinite_gradient_norm_rejected_by_fisher() {
    let ckpt = trained(10);
    let cfg = ckpt.config().model.clone();
    let mut stats = stats_of(&ckpt);
    stats.layers[0].dw_norm = f64::INFINITY;
    let err = fisher_scheme(&stats, &cfg, 0.5).unwrap_err();
    assert!(matches!(err, SolveError::Invalid(_)), "{err:?}");
}

#[test]
fn greedy_rejects_nan_tables() {
    let options = OptionSet::fp8_fp4();
    let quality = vec![vec![0.0, f64::NAN], vec![0.0, 1.0]];
    let efficiency = vec![vec![0.0, 0.5], vec![0.0, 0.5]];
    let err = greedy_refinement(&quality, &efficiency, &options, 0.5, "bad").unwrap_err();
    assert!(matches!(err, SolveError::Invalid(_)), "{err:?}");
}

#[test]
fn greedy_rejects_infeasible_and_mismatched_inputs() {
    let options = OptionSet::fp8_fp4();
    let q = vec![vec![0.0, 1.0]];
    let e = vec![vec![0.0, 0.5]];
    assert_eq!(
        baselines::greedy_refinement(&q, &e, &options, 0.9, "x").unwrap_err(),
        SolveError::Infeasible
    );
    let e_bad = vec![vec![0.0]];
    assert!(matches!(
        baselines::greedy_refinement(&q, &e_bad, &options, 0.1, "x").unwrap_err(),
        SolveError::Invalid(_)
    ));
}

#[test]
fn engine_reports_infeasible_budget_as_typed_error() {
    let ckpt = trained(10);
    let impossible_budget = PolicyConfig {
        target_fp4: 1.5,
        ..Default::default()
    };
    let no_stages = PolicyConfig {
        pipeline_stages: Some(0),
        ..Default::default()
    };
    for (policy, expected) in [
        (impossible_budget, SolveError::Infeasible),
        (
            no_stages,
            SolveError::Invalid("pipeline_stages must be ≥ 1".into()),
        ),
    ] {
        let engine = SnipEngine::new(
            SnipConfig {
                policy,
                ..Default::default()
            },
            ckpt.config().model.clone(),
        );
        let mut t = ckpt.clone();
        let batch = t.peek_batch();
        let mut rng = Rng::seed_from(23);
        let optimizer = t.optimizer.clone();
        let err = engine
            .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "bad")
            .unwrap_err();
        assert_eq!(err, expected);
    }
}

#[test]
fn time_balanced_targets_reject_bad_budgets() {
    assert!(time_balanced_targets(&[1.0, 1.0], -0.1).is_err());
    assert!(time_balanced_targets(&[1.0, 1.0], 1.1).is_err());
    assert!(time_balanced_targets(&[0.0, 1.0], 0.5).is_err());
}

#[test]
fn ilp_solver_surfaces_infeasibility_with_mixed_sets() {
    // Mixed option set, target above max achievable efficiency.
    let groups = vec![vec![Choice::new(0.1, 0.2), Choice::new(0.9, 0.4)]; 3];
    let p = McKnapsack::new(groups, 1.5);
    assert_eq!(
        solve(&p, &SolveOptions::default()).unwrap_err(),
        SolveError::Infeasible
    );
}

#[test]
fn collective_survives_nonfinite_gradient_entries() {
    // An Inf entry must saturate through the wire quantizer, not poison the
    // whole reduction (mirrors the quantizer's group-scale guard).
    let mut grads = vec![vec![0.5f32; 32]; 4];
    grads[1][7] = f32::INFINITY;
    let (chunks, _) = run_ranks(4, None, |ep| {
        let mut rng = Rng::seed_from(26 + ep.rank() as u64);
        ep.ring_reduce_scatter(
            &grads[ep.rank()],
            &Wire::fp8(8),
            QuantizePolicy::EveryHop,
            &mut rng,
        )
        .expect("fault-free mesh")
    });
    let poisoned: usize = chunks
        .iter()
        .flat_map(|c| c.data.iter())
        .filter(|v| !v.is_finite())
        .count();
    // Only the positions summed with the Inf entry may be non-finite.
    assert!(poisoned <= 8, "{poisoned} poisoned positions");
}

#[test]
fn training_with_all_fp4_from_scratch_stays_finite_under_clipping() {
    // The harshest configuration the paper tests (FP4-all from scratch,
    // Fig. 8's divergent curves): gradient clipping must keep the loss
    // finite even when quality degrades.
    let cfg = TrainerConfig {
        model: ModelConfig::tiny_test(),
        grad_clip: Some(1.0),
        ..TrainerConfig::tiny()
    };
    let mut t = Trainer::new(cfg).expect("valid config");
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&snip::core::Scheme::uniform(Precision::Fp4, n));
    let losses = t.train(25);
    assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
}

#[test]
fn zero_budget_scheme_is_all_fp8_everywhere() {
    // Degenerate-but-legal budget endpoints across scheme generators.
    let ckpt = trained(10);
    let cfg = ckpt.config().model.clone();
    let stats = stats_of(&ckpt);
    for scheme in [
        fisher_scheme(&stats, &cfg, 0.0).unwrap(),
        baselines::error_minimizing_scheme(&stats, &cfg, baselines::ErrorMetric::Relative, 0.0)
            .unwrap(),
    ] {
        assert_eq!(scheme.fp4_layer_count(), 0, "{}", scheme.name);
    }
}
