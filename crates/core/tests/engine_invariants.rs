//! Invariants of the SNIP engine and divergence analysis.

use proptest::prelude::*;
use snip_core::divergence::{injected_noise, loss_divergence};
use snip_core::stats::{ErrorByPrecision, LayerStats};
use snip_core::{
    FlopModel, OptionSet, PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig,
};
use snip_quant::{LinearPrecision, Precision};

fn synthetic_layer_stats(scale: f64) -> LayerStats {
    LayerStats {
        tokens: 32,
        out_features: 16,
        in_features: 16,
        x_norm: 10.0 * scale,
        w_norm: 5.0,
        y_norm: 8.0,
        dy_norm: 2.0,
        dx_norm: 3.0,
        dw_norm: 4.0,
        x_err: ErrorByPrecision {
            fp4: 1.0 * scale,
            fp8: 0.1 * scale,
            bf16: 0.001,
        },
        w_err: ErrorByPrecision {
            fp4: 0.5,
            fp8: 0.05,
            bf16: 0.0005,
        },
        dy_err: ErrorByPrecision {
            fp4: 0.2,
            fp8: 0.02,
            bf16: 0.0002,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Loss divergence scales linearly with the quantization error norms.
    #[test]
    fn loss_divergence_linear_in_error(scale in 0.1f64..10.0) {
        let base = loss_divergence(
            &synthetic_layer_stats(1.0),
            2.0,
            LinearPrecision::uniform(Precision::Fp4),
        );
        // Scaling only x_err (w term unchanged) must move the result in the
        // same direction, bounded by linearity.
        let scaled = loss_divergence(
            &synthetic_layer_stats(scale),
            2.0,
            LinearPrecision::uniform(Precision::Fp4),
        );
        if scale > 1.0 {
            prop_assert!(scaled >= base);
        } else {
            prop_assert!(scaled <= base + 1e-12);
        }
    }

    /// Injected noise magnitudes are monotone in precision fidelity.
    #[test]
    fn injected_noise_monotone(scale in 0.5f64..2.0) {
        let stats = synthetic_layer_stats(scale);
        let n4 = injected_noise(&stats, LinearPrecision::uniform(Precision::Fp4));
        let n8 = injected_noise(&stats, LinearPrecision::uniform(Precision::Fp8));
        prop_assert!(n4.direct > n8.direct);
        prop_assert!(n4.backward > n8.backward);
        prop_assert!(n4.forward > n8.forward);
    }

    /// Loss divergence is normalized by |L|: doubling the loss halves it.
    #[test]
    fn loss_divergence_inverse_in_loss(loss in 0.5f64..8.0) {
        let stats = synthetic_layer_stats(1.0);
        let opt = LinearPrecision::uniform(Precision::Fp4);
        let at_loss = loss_divergence(&stats, loss, opt);
        let at_double = loss_divergence(&stats, 2.0 * loss, opt);
        prop_assert!((at_loss / at_double - 2.0).abs() < 1e-9);
    }
}

#[test]
fn engine_scheme_deterministic_across_runs() {
    let run = || -> Vec<LinearPrecision> {
        let cfg = TrainerConfig::tiny();
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let _ = t.train(6);
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 0.5,
                    ..Default::default()
                },
                ..Default::default()
            },
            cfg.model.clone(),
        );
        let batch = t.peek_batch();
        let mut rng = snip_tensor::rng::Rng::seed_from(1);
        let optimizer = t.optimizer.clone();
        engine
            .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng, "d")
            .unwrap()
            .assignments()
            .to_vec()
    };
    assert_eq!(run(), run(), "SNIP decisions must be reproducible");
}

#[test]
fn budget_sweep_is_nested_under_equal_flops() {
    // With the fp8/fp4 option pair, raising the budget should only *add*
    // FP4 layers when all layers carry equal FLOPs within a class — verify
    // the weaker property that FP4 count is monotone in the budget.
    let cfg = TrainerConfig::tiny();
    let mut t = Trainer::new(cfg.clone()).unwrap();
    let _ = t.train(6);
    let batch = t.peek_batch();
    let rng = snip_tensor::rng::Rng::seed_from(2);
    let optimizer = t.optimizer.clone();

    let mut prev_count = 0;
    for budget in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: budget,
                    ..Default::default()
                },
                ..Default::default()
            },
            cfg.model.clone(),
        );
        let scheme = engine
            .generate_scheme(&mut t.model, &optimizer, &batch, &mut rng.clone(), "b")
            .unwrap();
        let count = scheme.fp4_layer_count();
        assert!(
            count >= prev_count,
            "budget {budget}: count {count} < previous {prev_count}"
        );
        prev_count = count;
        // And the achieved efficiency indeed meets the budget.
        let flops = FlopModel::new(&cfg.model);
        assert!(scheme.fp4_fraction(&flops) + 1e-9 >= budget);
    }
}

#[test]
fn option_set_len_matches_ilp_dimension() {
    assert_eq!(OptionSet::fp8_fp4().len(), 2);
    assert_eq!(OptionSet::mixed().len(), 8);
}
