//! A whole training step is a pure function of its inputs, whatever the
//! pool split.
//!
//! Every parallel region of a step — the GEMMs' row bands, the banded
//! elementwise ops, the per-parameter gradient zeroing, clip norm and
//! scale, and the AdamW update — gives each
//! task a fixed, disjoint unit of work that it computes exactly as the
//! serial code does. So three `Trainer::train_step`s (and one
//! `train_with_engine` run across an update step) must leave the same
//! losses, parameters and decoded AdamW moments, bit for bit, under
//! `pool::with_threads` 1 / 2 / `size()` / `size() + 3` and unforced, where
//! the size floors decide.

use snip_core::{PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_optim::MomentPrecision;
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::pool;

const STEPS: u64 = 3;

/// What a run leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    losses: Vec<u64>,
    params: Vec<Vec<u32>>,
    moments: Vec<[Vec<u32>; 2]>,
    scheme: Vec<LinearPrecision>,
}

fn bits(t: &snip_tensor::Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn trainer(p: Precision, moments: MomentPrecision) -> Trainer {
    let mut cfg = TrainerConfig::tiny().with_moment_precision(moments);
    // Far below the tiny model's gradient norm: every step runs the clip's
    // scale pass.
    cfg.grad_clip = Some(1e-3);
    let mut t = Trainer::new(cfg).expect("tiny trainer");
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&Scheme::uniform(p, n));
    t
}

/// An engine whose update is due on step 2, inside a 3-step run.
fn engine() -> SnipEngine {
    SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5,
                ..Default::default()
            },
            update_period: 2,
            ..Default::default()
        },
        TrainerConfig::tiny().model,
    )
}

fn outcome(mut t: Trainer, adaptive: bool) -> Outcome {
    let losses = if adaptive {
        t.train_with_engine(STEPS, &engine())
    } else {
        (0..STEPS).map(|_| t.train_step()).collect()
    };
    let scheme = t.model.scheme();
    let params: Vec<Vec<u32>> = t
        .model
        .params_mut()
        .iter()
        .map(|p| bits(p.value()))
        .collect();
    let moments = (0..params.len())
        .map(|i| {
            let m = t.optimizer.moments(i).expect("every parameter has moments");
            [bits(&m.m), bits(&m.v)]
        })
        .collect();
    Outcome {
        losses: losses.iter().map(|l| l.to_bits()).collect(),
        params,
        moments,
        scheme,
    }
}

fn assert_split_invariant(name: &str, make: impl Fn() -> Trainer, adaptive: bool) -> Outcome {
    let reference = pool::with_threads(1, || outcome(make(), adaptive));
    assert_eq!(
        outcome(make(), adaptive),
        reference,
        "{name}: unforced split differs from one thread"
    );
    for split in [2, pool::size(), pool::size() + 3] {
        let got = pool::with_threads(split, || outcome(make(), adaptive));
        assert_eq!(
            got, reference,
            "{name}: split {split} differs from one thread"
        );
    }
    reference
}

#[test]
fn bf16_and_fp4_steps_are_split_invariant() {
    for p in [Precision::Bf16, Precision::Fp4] {
        assert_split_invariant(
            &format!("{p:?}"),
            || trainer(p, MomentPrecision::F32),
            false,
        );
    }
}

#[test]
fn packed_fp8_moment_steps_are_split_invariant() {
    for p in [Precision::Bf16, Precision::Fp4] {
        assert_split_invariant(
            &format!("{p:?}, packed FP8 moments"),
            || trainer(p, MomentPrecision::PackedFp8),
            false,
        );
    }
}

#[test]
fn an_engine_update_step_is_split_invariant() {
    let start = trainer(Precision::Bf16, MomentPrecision::F32)
        .model
        .scheme();
    let run = assert_split_invariant(
        "train_with_engine",
        || trainer(Precision::Bf16, MomentPrecision::F32),
        true,
    );
    assert_ne!(
        run.scheme, start,
        "the update on step 2 installed no scheme"
    );
}
