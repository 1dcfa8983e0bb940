//! Cross-crate integration tests: the full SNIP workflow from data to
//! applied scheme, exercised end-to-end.

use snip::core::baselines::{self, ErrorMetric};
use snip::core::{
    analyze, measure, FlopModel, OptionSet, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer,
    TrainerConfig,
};
use snip::quant::{LinearPrecision, Precision};
use snip::tensor::rng::Rng;

fn warm_trainer(steps: u64) -> Trainer {
    let mut t = Trainer::new(TrainerConfig::tiny()).expect("valid config");
    let _ = t.train(steps);
    t
}

#[test]
fn full_snip_cycle_produces_budget_compliant_scheme() {
    let mut t = warm_trainer(10);
    let model_cfg = t.config().model.clone();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.6,
                ..Default::default()
            },
            ..Default::default()
        },
        model_cfg.clone(),
    );
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(1);
    let optimizer = t.optimizer.clone();
    let scheme = engine
        .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "snip@60")
        .expect("feasible");
    let flops = FlopModel::new(&model_cfg);
    assert!(scheme.fp4_fraction(&flops) + 1e-9 >= 0.6);

    // Applying the scheme and continuing to train keeps loss finite and the
    // model functional.
    t.apply_scheme(&scheme);
    let losses = t.train(10);
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn snip_quality_ordering_vs_budget() {
    // Higher budgets must have (weakly) higher estimated quality loss at the
    // ILP optimum — the efficiency/quality trade-off of Fig. 3.
    let mut t = warm_trainer(10);
    let model_cfg = t.config().model.clone();
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(2);
    let optimizer = t.optimizer.clone();
    let m = measure(&mut t.model, &optimizer, &batch, &mut rng, 1e-2);
    let options = OptionSet::fp8_fp4();
    let flops = FlopModel::new(&model_cfg);
    let analysis = analyze(&m, &model_cfg, &options, &flops);

    let mut prev_quality = -1.0;
    for budget in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let scheme = snip::core::decide_scheme(
            &analysis,
            &options,
            &model_cfg,
            &PolicyConfig {
                target_fp4: budget,
                ..Default::default()
            },
            "q",
        )
        .expect("feasible");
        // Recompute the scheme's quality under the analysis.
        let q: f64 = scheme
            .assignments()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let j = options.options().iter().position(|&o| o == p).unwrap();
                analysis.quality[i][j]
            })
            .sum();
        assert!(
            q + 1e-12 >= prev_quality,
            "quality not monotone at budget {budget}: {q} < {prev_quality}"
        );
        prev_quality = q;
    }
}

#[test]
fn snip_beats_random_on_estimated_quality() {
    // At the same budget, SNIP's ILP-optimal scheme must have estimated
    // quality loss no worse than any random scheme (it is the optimum).
    let mut t = warm_trainer(10);
    let model_cfg = t.config().model.clone();
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(3);
    let optimizer = t.optimizer.clone();
    let m = measure(&mut t.model, &optimizer, &batch, &mut rng, 1e-2);
    let options = OptionSet::fp8_fp4();
    let flops = FlopModel::new(&model_cfg);
    let analysis = analyze(&m, &model_cfg, &options, &flops);
    let budget = 0.5;
    let snip_scheme = snip::core::decide_scheme(
        &analysis,
        &options,
        &model_cfg,
        &PolicyConfig {
            target_fp4: budget,
            ..Default::default()
        },
        "snip",
    )
    .expect("feasible");

    let quality_of = |s: &Scheme| -> f64 {
        s.assignments()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let j = options.options().iter().position(|&o| o == p).unwrap();
                analysis.quality[i][j]
            })
            .sum()
    };
    let snip_q = quality_of(&snip_scheme);
    for seed in 0..5 {
        let r = baselines::random_scheme(&model_cfg, budget, seed);
        assert!(
            snip_q <= quality_of(&r) + 1e-12,
            "random seed {seed} beat the ILP optimum"
        );
    }
}

#[test]
fn checkpoint_branching_is_deterministic() {
    // Two clones of a checkpoint resumed under the same scheme produce
    // identical losses; different schemes differ.
    let t = warm_trainer(8);
    let n = t.config().model.n_linear_layers();
    let fp8 = Scheme::uniform(Precision::Fp8, n);
    let fp4 = Scheme::uniform(Precision::Fp4, n);

    let run = |scheme: &Scheme| -> Vec<f64> {
        let mut c = t.clone();
        c.apply_scheme(scheme);
        c.train(5)
    };
    assert_eq!(run(&fp8), run(&fp8));
    assert_ne!(run(&fp8), run(&fp4));
}

#[test]
fn all_baselines_produce_applicable_schemes() {
    let t = warm_trainer(8);
    let cfg = t.config().model.clone();
    // Statistics for error-minimizing baselines.
    let mut probe = t.clone();
    let batch = probe.peek_batch();
    let mut rng = Rng::seed_from(4);
    let optimizer = probe.optimizer.clone();
    let m = measure(&mut probe.model, &optimizer, &batch, &mut rng, 1e-2);

    let mut schemes = vec![
        baselines::error_minimizing_scheme(&m.stats, &cfg, ErrorMetric::Absolute, 0.5).unwrap(),
        baselines::error_minimizing_scheme(&m.stats, &cfg, ErrorMetric::Relative, 0.5).unwrap(),
        baselines::e_layer_type(&cfg),
        baselines::e_layer_id(&cfg, 0.5),
        baselines::random_scheme(&cfg, 0.5, 0),
        Scheme::uniform(Precision::Bf16, cfg.n_linear_layers()),
        Scheme::uniform(Precision::Fp8, cfg.n_linear_layers()),
        Scheme::uniform(Precision::Fp4, cfg.n_linear_layers()),
    ];
    for scheme in schemes.drain(..) {
        let mut c = t.clone();
        c.apply_scheme(&scheme);
        let losses = c.train(3);
        assert!(
            losses.iter().all(|l| l.is_finite()),
            "{} produced non-finite loss",
            scheme.name
        );
    }
}

#[test]
fn mixed_option_set_is_solvable_and_budget_compliant() {
    let mut t = warm_trainer(10);
    let model_cfg = t.config().model.clone();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.4,
                ..Default::default()
            },
            options: OptionSet::mixed(),
            ..Default::default()
        },
        model_cfg.clone(),
    );
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(5);
    let optimizer = t.optimizer.clone();
    let scheme = engine
        .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "mixed@40")
        .expect("feasible");
    let flops = FlopModel::new(&model_cfg);
    assert!(scheme.fp4_fraction(&flops) + 1e-9 >= 0.4);
    // Mixed options may produce non-uniform triples — must still apply.
    t.apply_scheme(&scheme);
    let losses = t.train(3);
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn bf16_not_an_option_under_fp8_fp4_set() {
    // Under the default option set, every layer is assigned FP8 or FP4 —
    // never BF16 (the paper's scheme space).
    let mut t = warm_trainer(10);
    let model_cfg = t.config().model.clone();
    let engine = SnipEngine::new(SnipConfig::default(), model_cfg);
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(6);
    let optimizer = t.optimizer.clone();
    let scheme = engine
        .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "s")
        .expect("feasible");
    for &p in scheme.assignments() {
        assert!(
            p == LinearPrecision::uniform(Precision::Fp8)
                || p == LinearPrecision::uniform(Precision::Fp4)
        );
    }
}
