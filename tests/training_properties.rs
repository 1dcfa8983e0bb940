//! Property-based tests on model/training invariants.

use proptest::prelude::*;
use snip::nn::{
    batch::Batch,
    config::ModelConfig,
    model::{Model, StepOptions},
};
use snip::quant::{LinearPrecision, Precision};
use snip::tensor::rng::Rng;

fn batch_from_seed(seed: u64, vocab: usize, seq: usize) -> Batch {
    let mut rng = Rng::seed_from(seed);
    let s: Vec<u32> = (0..seq + 1).map(|_| rng.below(vocab) as u32).collect();
    Batch::from_sequences(&[s], seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The forward loss is finite for any token window and any uniform
    /// precision assignment.
    #[test]
    fn loss_is_finite_for_any_input(seed in 0u64..10_000, p in 0usize..3) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 1).unwrap();
        let precision = [Precision::Fp4, Precision::Fp8, Precision::Bf16][p];
        model.set_scheme(&vec![LinearPrecision::uniform(precision); cfg.n_linear_layers()]);
        let batch = batch_from_seed(seed, cfg.vocab_size, 8);
        let mut rng = Rng::seed_from(seed);
        let loss = model.forward_loss(&batch, &mut rng);
        prop_assert!(loss.is_finite());
        prop_assert!(loss > 0.0);
    }

    /// A step's gradients do not depend on the last step's: the linear
    /// weights' are rewritten whole by their backward GEMMs (not zeroed
    /// by `zero_grads`), the rest zeroed and accumulated, so two identical
    /// steps leave identical gradient bits.
    #[test]
    fn gradients_are_rewritten_not_accumulated(seed in 0u64..10_000) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 2).unwrap();
        let batch = batch_from_seed(seed, cfg.vocab_size, 8);
        let rng = Rng::seed_from(3);
        let mut grads = || {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng.clone(), &StepOptions::train());
            let mut bits = Vec::new();
            model.visit_params_mut(&mut |p| {
                bits.extend(p.grad().as_slice().iter().map(|v| v.to_bits()));
            });
            bits
        };
        let first = grads();
        prop_assert!(first.iter().any(|&b| b != 0));
        prop_assert_eq!(grads(), first);
    }

    /// Per-layer schemes round-trip through the model.
    #[test]
    fn scheme_round_trip(mask in proptest::collection::vec(0usize..3, 14)) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg, 3).unwrap();
        let scheme: Vec<LinearPrecision> = mask
            .iter()
            .map(|&i| LinearPrecision::uniform([Precision::Fp4, Precision::Fp8, Precision::Bf16][i]))
            .collect();
        model.set_scheme(&scheme);
        prop_assert_eq!(model.scheme(), scheme);
    }

    /// Loss is invariant to batch-order permutation of independent sequences
    /// (the model treats rows independently), up to f32 noise.
    #[test]
    fn batch_order_invariance(seed in 0u64..1000) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 4).unwrap();
        let mut rng = Rng::seed_from(seed);
        let s1: Vec<u32> = (0..9).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let s2: Vec<u32> = (0..9).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let b12 = Batch::from_sequences(&[s1.clone(), s2.clone()], 8);
        let b21 = Batch::from_sequences(&[s2, s1], 8);
        let mut r = Rng::seed_from(0);
        let l12 = model.forward_loss(&b12, &mut r);
        let l21 = model.forward_loss(&b21, &mut r);
        prop_assert!((l12 - l21).abs() < 1e-5, "{l12} vs {l21}");
    }
}
