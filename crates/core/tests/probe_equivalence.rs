//! `probe::measure` against its oracle.
//!
//! [`measure_reference`] is the formulation `measure` replaced, kept here
//! verbatim and built only from public API: three full `Model::step`s in
//! record/probe mode, `StepStats::from_record`, `Tensor::distance` and
//! `AdamW::update_sensitivity`. The staged probe (one shared blocks-forward,
//! no tensor snapshots, statistics spread over the worker pool) must return
//! a `SnipMeasurement` that is `==` to it — every `f64` bit — on every
//! configuration, at every pool split and on the scalar kernel tier, and
//! must leave the model, the optimizer and the caller's `Rng` as it found
//! them.

use snip_core::stats::StepStats;
use snip_core::{measure, Scheme, SnipMeasurement, Trainer, TrainerConfig};
use snip_nn::inject::{Injection, InjectionSite};
use snip_nn::model::{Model, StepOptions};
use snip_nn::{Batch, LayerId, ModelConfig};
use snip_optim::{AdamW, MomentPrecision};
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::rng::Rng;
use snip_tensor::{pool, simd};

const EPSILON: f64 = 1e-2;

/// The body of `probe::measure` before it shared the forward.
fn measure_reference(
    model: &mut Model,
    optimizer: &AdamW,
    batch: &Batch,
    rng: &mut Rng,
    epsilon: f64,
) -> SnipMeasurement {
    let cfg = model.config().clone();
    let n = cfg.n_linear_layers();
    // Force BF16 for measurement, restore afterwards.
    let saved_scheme = model.scheme();
    model.set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);

    // Step 1: baseline recorded iteration.
    model.zero_grads();
    let base = model
        .step(batch, rng, &StepOptions::record())
        .record
        .expect("recording requested");

    // Step 2: backward-top noise.
    model.zero_grads();
    let bwd = model
        .step(
            batch,
            rng,
            &StepOptions::probe(Injection {
                site: InjectionSite::BackwardTop,
                epsilon,
                seed: 0x5712_0002,
            }),
        )
        .record
        .expect("recording requested");

    // Step 3: forward-top noise.
    model.zero_grads();
    let fwd_out = model.step(
        batch,
        rng,
        &StepOptions::probe(Injection {
            site: InjectionSite::ForwardTop,
            epsilon,
            seed: 0x5712_0003,
        }),
    );
    let fwd = fwd_out.record.expect("recording requested");

    // Gradient responses per layer (Theorem 4.2 single-sample estimate).
    let p_bwd: Vec<f64> = (0..n)
        .map(|i| base.linears[i].dw.distance(&bwd.linears[i].dw) / epsilon)
        .collect();
    let p_fwd: Vec<f64> = (0..n)
        .map(|i| base.linears[i].dw.distance(&fwd.linears[i].dw) / epsilon)
        .collect();

    // AdamW update sensitivity at the current moments and gradients.
    let h_sens: Vec<f64> = (0..n)
        .map(|i| {
            let id = LayerId::from_linear_index(i);
            optimizer.update_sensitivity(model.param_index_of(id), &base.linears[i].dw)
        })
        .collect();

    let fwd_loss_delta = (fwd.loss - base.loss).abs();
    let stats = StepStats::from_record(&base, &cfg);

    model.zero_grads();
    model.set_scheme(&saved_scheme);

    SnipMeasurement {
        stats,
        p_fwd,
        p_bwd,
        h_sens,
        probe_epsilon: epsilon,
        fwd_loss_delta,
    }
}

/// `hidden` and `ffn_hidden` are not multiples of `quant_group`, so every
/// scale-group walk ends in a ragged tile.
fn ragged_model() -> ModelConfig {
    ModelConfig {
        name: "ragged".into(),
        vocab_size: 29,
        hidden: 40,
        n_layers: 2,
        n_heads: 4,
        ffn_hidden: 104,
        max_seq: 16,
        rope_theta: 10_000.0,
        quant_group: 16,
    }
}

fn mixed_scheme(n: usize) -> Scheme {
    let cycle = [
        LinearPrecision::uniform(Precision::Fp4),
        LinearPrecision::uniform(Precision::Fp8),
        LinearPrecision::uniform(Precision::Bf16),
        LinearPrecision {
            input: Precision::Fp4,
            weight: Precision::Fp8,
            grad: Precision::Fp4,
        },
    ];
    Scheme::new("mixed", (0..n).map(|i| cycle[i % cycle.len()]).collect())
}

/// A trainer a few steps in (so the AdamW moments exist), with `scheme`
/// installed as the training scheme the probe has to set aside and restore.
fn warmed(cfg: TrainerConfig, scheme: Option<Scheme>) -> Trainer {
    let mut t = Trainer::new(cfg).expect("valid config");
    if let Some(scheme) = &scheme {
        t.apply_scheme(scheme);
    }
    let _ = t.train(3);
    t
}

fn cases() -> Vec<(&'static str, Trainer)> {
    let tiny = TrainerConfig::tiny;
    let n = tiny().model.n_linear_layers();
    let ragged = TrainerConfig {
        model: ragged_model(),
        ..tiny()
    };
    vec![
        ("tiny_test", warmed(tiny(), None)),
        ("ragged tiles", warmed(ragged, None)),
        (
            "packed fp8 moments",
            warmed(
                tiny().with_moment_precision(MomentPrecision::PackedFp8),
                None,
            ),
        ),
        (
            "fp4 training scheme",
            warmed(tiny(), Some(Scheme::uniform(Precision::Fp4, n))),
        ),
        (
            "mixed training scheme",
            warmed(tiny(), Some(mixed_scheme(n))),
        ),
    ]
}

/// Everything of a trainer the probe could have disturbed, as bytes (the
/// trainer serializes its model with gradients, optimizer and RNG).
fn state_bytes(t: &Trainer) -> Vec<u8> {
    serde_json::to_vec(t).expect("trainer serializes")
}

#[test]
fn staged_probe_equals_the_three_step_reference() {
    for (name, mut t) in cases() {
        let batch = t.peek_batch();
        let rng = Rng::seed_from(0xFEED);

        let mut reference_trainer = t.clone();
        let want = measure_reference(
            &mut reference_trainer.model,
            &reference_trainer.optimizer,
            &batch,
            &mut rng.clone(),
            EPSILON,
        );
        assert!(
            want.p_bwd.iter().any(|&p| p > 0.0) && want.h_sens.iter().all(|&h| h > 0.0),
            "{name}: degenerate reference"
        );

        // The probe starts from the gradients the last training step left
        // and leaves them zeroed — the only change it may make.
        let before = {
            let mut zeroed = t.clone();
            zeroed.model.zero_grads();
            state_bytes(&zeroed)
        };
        assert!(
            t.model.grad_norm() > 0.0,
            "{name}: stale gradients on entry"
        );
        let scheme_before = t.model.scheme();

        let mut probe_rng = rng.clone();
        let got = measure(&mut t.model, &t.optimizer, &batch, &mut probe_rng, EPSILON);
        assert_eq!(got, want, "{name}: default dispatch");
        // The premise forward-sharing rests on, checked in release builds
        // too: BF16 passes draw nothing.
        assert_eq!(probe_rng, rng, "{name}: measure drew from the caller's rng");
        assert_eq!(t.model.scheme(), scheme_before, "{name}: installed scheme");
        assert_eq!(t.model.grad_norm(), 0.0, "{name}: gradients zeroed");
        assert_eq!(
            state_bytes(&t),
            before,
            "{name}: weights, gradients, optimizer state and rng untouched"
        );

        let max = pool::size();
        for split in [1, 2, max, max + 3] {
            let got = pool::with_threads(split, || {
                measure(
                    &mut t.model,
                    &t.optimizer,
                    &batch,
                    &mut rng.clone(),
                    EPSILON,
                )
            });
            assert_eq!(got, want, "{name}: pool split {split}");
        }
        let got = simd::with_forced_backend(simd::Backend::Scalar, || {
            measure(
                &mut t.model,
                &t.optimizer,
                &batch,
                &mut rng.clone(),
                EPSILON,
            )
        });
        assert_eq!(got, want, "{name}: scalar tier");
        assert_eq!(state_bytes(&t), before, "{name}: state after every variant");
    }
}

/// The shapes above sit below every parallel threshold; one wider model
/// (weights past the pack-split cutoff) runs the default dispatch the way
/// training does.
#[test]
fn staged_probe_equals_the_reference_past_the_parallel_thresholds() {
    let cfg = TrainerConfig {
        model: ModelConfig {
            name: "wide".into(),
            vocab_size: 64,
            hidden: 384,
            n_layers: 1,
            n_heads: 6,
            ffn_hidden: 712,
            max_seq: 32,
            rope_theta: 10_000.0,
            quant_group: 128,
        },
        batch_size: 4,
        seq_len: 32,
        ..TrainerConfig::tiny()
    };
    let mut t = warmed(cfg, None);
    let batch = t.peek_batch();
    let rng = Rng::seed_from(7);
    let mut reference_trainer = t.clone();
    let want = measure_reference(
        &mut reference_trainer.model,
        &reference_trainer.optimizer,
        &batch,
        &mut rng.clone(),
        EPSILON,
    );
    let got = measure(
        &mut t.model,
        &t.optimizer,
        &batch,
        &mut rng.clone(),
        EPSILON,
    );
    assert_eq!(got, want);
    let again = measure(
        &mut t.model,
        &t.optimizer,
        &batch,
        &mut rng.clone(),
        EPSILON,
    );
    assert_eq!(again, want, "consecutive measurements are identical");
}
