//! `probe::measure` and `stats::option_errors` against their oracle.
//!
//! [`measure_reference`] is the formulation `measure` replaced, built only
//! from public API: three full recorded passes — a `Model::step` in record
//! mode and two noise-injected passes composed from the four public stages
//! with a `StepRecord` tap — then [`stats_of_record`],
//! `Tensor::distance` and `AdamW::update_sensitivity`. The staged probe
//! (one shared blocks-forward, no tensor snapshots, statistics spread over
//! the worker pool) must return a `SnipMeasurement` that is `==` to it —
//! every `f64` bit — on every
//! configuration, at every pool split and on the scalar kernel tier, and
//! must leave the model, the optimizer and the caller's `Rng` as it found
//! them.

use snip_core::stats::{option_errors, LayerView, OperandStats, StepStats};
use snip_core::{measure, Scheme, SnipMeasurement, Trainer, TrainerConfig};
use snip_nn::inject::Injection;
use snip_nn::model::{Model, StepOptions};
use snip_nn::record::{LayerTap, StepRecord};
use snip_nn::{Batch, LayerId, ModelConfig};
use snip_optim::{AdamW, MomentPrecision};
use snip_quant::{LinearPrecision, Precision, Quantizer, TensorRole};
use snip_tensor::rng::Rng;
use snip_tensor::{pool, simd, Tensor};

const EPSILON: f64 = 1e-2;

/// Where a probe pass adds its noise.
#[derive(Clone, Copy, PartialEq)]
enum Site {
    /// On the last block's output, before the head (Step 3).
    ForwardTop,
    /// On the gradient entering the last block (Step 2).
    BackwardTop,
}

/// One full forward + backward pass through the four stages of
/// `Model::step`, recorded, with `noise` added at its site.
fn probe_step(
    model: &mut Model,
    batch: &Batch,
    rng: &mut Rng,
    site: Site,
    noise: Injection,
) -> StepRecord {
    let mut record = StepRecord::with_layers(model.config().n_linear_layers());
    let inject = |at: Site, t: &mut Tensor| {
        if at == site {
            noise.apply(t);
        }
    };
    let loss = {
        let mut tap: Option<&mut dyn LayerTap> = Some(&mut record);
        let (caches, mut hidden) = model.forward_blocks(batch, rng, &mut tap);
        inject(Site::ForwardTop, &mut hidden);
        let head = model.forward_head(&hidden, batch, rng);
        let mut top = model.backward_head(&head, rng);
        inject(Site::BackwardTop, &mut top);
        model.backward_blocks(batch, &top, &caches, rng, &mut tap);
        head.loss()
    };
    record.loss = loss;
    record.ntokens = batch.num_tokens();
    record
}

/// The statistics of a recorded step: each layer's snapshots read as
/// [`LayerView`]s, `dY` reduced by [`OperandStats::of`].
fn stats_of_record(record: &StepRecord, cfg: &ModelConfig) -> StepStats {
    let views: Vec<LayerView<'_>> = record
        .linears
        .iter()
        .map(|lr| LayerView {
            x: &lr.x,
            w: &lr.w,
            dy: OperandStats::of(&lr.dy, TensorRole::OutputGrad, cfg.quant_group),
            dw: &lr.dw,
            y_norm: lr.y_norm,
            dx_norm: lr.dx_norm,
        })
        .collect();
    StepStats::from_views(record.loss, record.ntokens, &views, cfg)
}

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
    let bwd = probe_step(
        model,
        batch,
        rng,
        Site::BackwardTop,
        Injection {
            epsilon,
            seed: 0x5712_0002,
        },
    );

    // Step 3: forward-top noise.
    model.zero_grads();
    let fwd = probe_step(
        model,
        batch,
        rng,
        Site::ForwardTop,
        Injection {
            epsilon,
            seed: 0x5712_0003,
        },
    );

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
    let stats = stats_of_record(&base, &cfg);

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

/// Everything of a trainer the probe could have disturbed, as bits: its
/// checkpoint bytes (parameters, scheme, optimizer, RNG and data cursor)
/// and its gradients.
fn state_bytes(t: &Trainer) -> (Vec<u8>, Vec<u32>) {
    let params = t.model.params();
    let grads = params.iter().flat_map(|p| p.grad().as_slice());
    (t.checkpoint_bytes(), grads.map(|g| g.to_bits()).collect())
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
            zeroed.model.zero_all_grads();
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

/// `option_errors` reduces each live operand to the relative errors a
/// recorded BF16 step of the same batch gives its snapshot, bit for bit, at
/// every pool split, and leaves the installed scheme, the weights and the
/// caller's `Rng` as it found them.
#[test]
fn option_errors_equal_the_relative_errors_of_a_recorded_step() {
    let n = TrainerConfig::tiny().model.n_linear_layers();
    let mut t = warmed(TrainerConfig::tiny(), Some(mixed_scheme(n)));
    let batch = t.peek_batch();
    let nb = t.config().model.quant_group;
    let roles = [
        TensorRole::Input,
        TensorRole::Weight,
        TensorRole::OutputGrad,
    ];
    let options: Vec<(TensorRole, Quantizer)> = roles
        .into_iter()
        .flat_map(|role| {
            let fp4 = Precision::Fp4.quantizer_with_group(role, nb);
            [
                fp4,
                fp4.with_rht(8, 17),
                fp4.with_outliers(0.01),
                Quantizer::mxfp4(),
                Precision::Fp8.quantizer_with_group(role, nb),
            ]
            .map(|q| (role, q))
        })
        .collect();

    let mut reference = t.clone();
    reference
        .model
        .set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);
    reference.model.zero_grads();
    let record = reference
        .model
        .step(&batch, &mut Rng::seed_from(3), &StepOptions::record())
        .record
        .expect("recording requested");
    let want: Vec<Vec<f64>> = record
        .linears
        .iter()
        .map(|lr| {
            let operand = |role| match role {
                TensorRole::Input => &lr.x,
                TensorRole::Weight => &lr.w,
                TensorRole::OutputGrad => &lr.dy,
            };
            options
                .iter()
                .map(|(role, q)| q.relative_error(operand(*role)))
                .collect()
        })
        .collect();
    assert!(
        want.iter().flatten().all(|&e| e > 0.0),
        "degenerate reference"
    );

    let before = {
        let mut zeroed = t.clone();
        zeroed.model.zero_all_grads();
        state_bytes(&zeroed)
    };
    let rng = Rng::seed_from(3);
    let mut tap_rng = rng.clone();
    let got = option_errors(&mut t.model, &batch, &mut tap_rng, &options);
    assert_eq!(got, want, "default dispatch");
    assert_eq!(tap_rng, rng, "a BF16 step draws nothing");
    assert_eq!(state_bytes(&t), before, "scheme, weights and gradients");
    let max = pool::size();
    for split in [1, 2, max + 3] {
        let got = pool::with_threads(split, || {
            option_errors(&mut t.model, &batch, &mut rng.clone(), &options)
        });
        assert_eq!(got, want, "pool split {split}");
    }
}
