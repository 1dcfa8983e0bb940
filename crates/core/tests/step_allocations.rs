//! A steady-state training step allocates no large `f32` storage.
//!
//! Its own test binary, because it installs a counting global allocator.
//! Every dimension of the trainer sits above the arena floor
//! (`snip_tensor::arena::FLOOR`, 32 Ki floats): hidden 256 × 4 × 64
//! tokens, FFN 1024, vocab 512. After three warm-up steps, steps 3..6 of a
//! BF16 and of an FP4 trainer must make no allocation of 128 KiB or more
//! whose alignment is that of `f32` or wider: activations, gradients, GEMM
//! outputs and B-tile caches all come back from the step before.
//!
//! Byte buffers (alignment 1) are counted but allowed: under FP4 the packed
//! codes of the quantized operands — 6 allocations and 768 KiB per step at
//! this shape — still come from the heap, because the arena recycles `f32`
//! storage only. Run with `--nocapture` to see both counts.

use snip_core::{Scheme, Trainer, TrainerConfig};
use snip_nn::ModelConfig;
use snip_quant::Precision;
#[path = "support/counting.rs"]
mod counting;

/// 128 KiB: the arena floor in bytes.
const LARGE: usize = 128 * 1024;

fn trainer(p: Precision) -> Trainer {
    let mut cfg = TrainerConfig::tiny();
    cfg.model = ModelConfig {
        name: "wide-256".into(),
        vocab_size: 512,
        hidden: 256,
        n_layers: 1,
        n_heads: 4,
        ffn_hidden: 1024,
        max_seq: 64,
        rope_theta: 10_000.0,
        quant_group: 128,
    };
    (cfg.batch_size, cfg.seq_len) = (4, 64);
    let mut t = Trainer::new(cfg).expect("valid config");
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&Scheme::uniform(p, n));
    t
}

/// Large allocations per step over steps 3..6: `(f32-or-wider calls,
/// their bytes, byte-buffer calls, their bytes)`.
fn steady_state(p: Precision) -> [usize; 4] {
    let mut t = trainer(p);
    t.train(3);
    let (counts, _) = counting::large_allocations(LARGE, || t.train(3));
    counts.map(|c| c / 3)
}

/// One test, so no other test's thread allocates while counting is on.
#[test]
fn steady_state_steps_allocate_no_large_f32_storage() {
    for p in [Precision::Bf16, Precision::Fp4] {
        let [wide, wide_bytes, byte, byte_bytes] = steady_state(p);
        println!(
            "{p:?}: per step {wide} large f32 allocations ({wide_bytes} B), \
             {byte} large byte allocations ({byte_bytes} B)"
        );
        assert_eq!(
            (wide, wide_bytes),
            (0, 0),
            "{p:?}: a steady-state step allocated large f32 storage"
        );
    }
}
