//! SNIP's probe keeps statistics, not tensors.
//!
//! Its own test binary, because it installs a counting global allocator.
//! The allocator tracks the live heap bytes of every thread, pool workers
//! included, and their high-water mark. A BF16 trainer above the arena
//! floor (`snip_tensor::arena::FLOOR`, 32 Ki floats: hidden 256 × 4 × 64
//! tokens, FFN 1024, vocab 512, two blocks) runs
//! `Trainer::train_with_engine` until the step before an update, then the
//! update step, on which `probe::measure` runs before the step trains.
//!
//! The update step's high-water mark may exceed the plain step's by at
//! most one largest linear weight in f32 — the one scratch buffer the
//! probe passes write their `dW` into — plus [`SLACK`]. A probe that kept
//! a copy of every layer's base `dW` would hold 8 MiB more at this shape,
//! one that kept every `dY` 6.5 MiB more. Run with `--nocapture` to see
//! the marks.

use snip_core::{PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_nn::{LayerId, ModelConfig};
#[path = "support/counting.rs"]
mod counting;

/// Bytes the update step may hold beyond the plain step's mark and the
/// scratch: 512 KiB, the probe's small state and allocator noise (a
/// quarter of one FFN weight at this shape).
const SLACK: usize = 512 * 1024;

/// Steps between scheme updates: steps 0..3 are plain, step 4 measures.
const PERIOD: u64 = 4;

fn trainer() -> Trainer {
    let mut cfg = TrainerConfig::tiny();
    cfg.model = ModelConfig {
        name: "wide-256x2".into(),
        vocab_size: 512,
        hidden: 256,
        n_layers: 2,
        n_heads: 4,
        ffn_hidden: 1024,
        max_seq: 64,
        rope_theta: 10_000.0,
        quant_group: 128,
    };
    (cfg.batch_size, cfg.seq_len) = (4, 64);
    Trainer::new(cfg).expect("valid config")
}

/// The high-water mark of live bytes over one `train_with_engine` step.
fn peak_of_step(t: &mut Trainer, engine: &SnipEngine) -> usize {
    counting::high_water(|| t.train_with_engine(1, engine)).0
}

/// One test, so no other test's thread allocates while the marks are taken.
#[test]
fn a_measured_step_holds_at_most_one_weight_more_than_a_plain_step() {
    let mut t = trainer();
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5,
                ..Default::default()
            },
            update_period: PERIOD,
            ..Default::default()
        },
        t.config().model.clone(),
    );
    t.train_with_engine(PERIOD - 1, &engine);
    assert!(!engine.is_update_due(t.step_count()));
    let plain = peak_of_step(&mut t, &engine);
    assert!(engine.is_update_due(t.step_count()));
    let measured = peak_of_step(&mut t, &engine);
    assert!(t.last_scheme_error().is_none(), "the update must apply");

    let n = t.config().model.n_linear_layers();
    let largest = (0..n)
        .map(|i| {
            t.model
                .linear(LayerId::from_linear_index(i))
                .weight()
                .numel()
                * 4
        })
        .max()
        .expect("linear layers");
    let mib = counting::mib;
    println!(
        "plain step {:.2} MiB, measured step {:.2} MiB (+{:.2}); \
         bound +{:.2} (largest weight {:.2} + slack {:.2})",
        mib(plain),
        mib(measured),
        mib(measured.saturating_sub(plain)),
        mib(largest + SLACK),
        mib(largest),
        mib(SLACK)
    );
    assert!(
        measured <= plain + largest + SLACK,
        "the measured step holds {} B more than a plain step; at most {largest} + {SLACK} allowed",
        measured - plain
    );
}
