//! **Memory accounting** — the paper's three memory claims, regenerated:
//!
//! 1. §6.1: "training a 70B model requires approximately 1120 GB of GPU
//!    memory solely for model weights, gradients, and optimizer states".
//! 2. §2.2: "storing weights in FP4/FP8 also reduces HBM storage cost".
//! 3. §6.3: SNIP's statistics keep its memory overhead "under 1%". The
//!    paper credits a row-wise formulation (M or N values per M×N tensor);
//!    this repo's estimator is the global-norm one, which ranked the layers
//!    at least as well on Fig. 13's protocol
//!    (`crates/core/tests/estimator_validation.rs`) and stores a fixed
//!    18 values per linear layer whatever its shape. While measuring it
//!    holds one tensor beyond a training step's: a largest linear weight
//!    in f32, the scratch its probe passes write `dW` into
//!    (`crates/core/tests/probe_memory.rs`).

use crate::harness::*;
use snip_nn::memory::{
    activation_bytes, scale_overhead_bytes_per_param, MemoryBreakdown, MemoryModel, StateBytes,
};
use snip_nn::ModelConfig;

/// `f64`s one `snip_core::stats::LayerStats` holds: six Frobenius norms
/// plus the FP4 / FP8 / BF16 error norms of X, W and ∇Y.
const LAYER_STATS_VALUES: usize = 6 + 3 * 3;

/// What the estimator stores per linear layer: its `LayerStats` plus its
/// `p_fwd`, `p_bwd` and `h_sens` entries of the `SnipMeasurement`.
const PER_LAYER_VALUES: usize = LAYER_STATS_VALUES + 3;

pub(crate) fn run(ctx: &Ctx) {
    println!("# Memory accounting (paper §2.2, §6.1, §6.3)\n");

    // --- Claim 1: the 1120 GB figure -----------------------------------
    println!("## §6.1 model-state memory, BF16 mixed precision (16 B/param)");
    println!("{:<12} {:>14} {:>12}", "model", "params", "states (GB)");
    for (name, params) in [
        ("1B", 1_100_000_000u64),
        ("3B", 3_000_000_000),
        ("7B", 7_000_000_000),
        ("70B", 70_000_000_000),
    ] {
        let m = MemoryModel::from_params(params);
        let gb = MemoryBreakdown::gb(m.model_state_bytes(&StateBytes::mixed_precision_bf16()));
        println!("{name:<12} {params:>14} {gb:>12.0}");
    }
    println!("(paper: 70B ≈ 1120 GB — matches 70e9 × 16 B exactly)\n");

    // --- Claim 2: low-precision weight storage -------------------------
    println!("## §2.2 HBM saving from quantized weight storage (70B model)");
    println!(
        "{:<28} {:>14} {:>12}",
        "recipe", "bytes/param", "states (GB)"
    );
    let m70 = MemoryModel::from_params(70_000_000_000);
    let base = StateBytes::mixed_precision_bf16();
    for (label, recipe) in [
        ("bf16 weights", base),
        (
            "fp8 weights (128² blocks)",
            base.with_quantized_weights(8, 128 * 128),
        ),
        (
            "fp4 weights (128² blocks)",
            base.with_quantized_weights(4, 128 * 128),
        ),
        (
            "fp4 weights (1×128 tiles)",
            base.with_quantized_weights(4, 128),
        ),
        (
            "fp8 moments (1×128 tiles)",
            base.with_quantized_moments(8, 128),
        ),
        (
            "fp4 wts + fp8 moments",
            base.with_quantized_weights(4, 128 * 128)
                .with_quantized_moments(8, 128),
        ),
    ] {
        let gb = MemoryBreakdown::gb(m70.model_state_bytes(&recipe));
        println!("{label:<28} {:>14.4} {gb:>12.1}", recipe.per_param());
    }
    println!(
        "(scale overhead: 128×128 blocks {:.2e} B/param, 1×128 tiles {:.5} B/param)\n",
        scale_overhead_bytes_per_param(128 * 128),
        scale_overhead_bytes_per_param(128)
    );

    // --- Activations for context ---------------------------------------
    println!("## activation memory (Megatron estimate), llama-70b-sim shape scaled to paper dims");
    let paper70 = ModelConfig {
        name: "llama-70b-paper-dims".into(),
        vocab_size: 32_000,
        hidden: 8192,
        n_layers: 80,
        n_heads: 64,
        ffn_hidden: 28_672,
        max_seq: 4096,
        rope_theta: 500_000.0,
        quant_group: 128,
    };
    for (label, flash) in [("with attn probs", false), ("FlashAttention", true)] {
        let gb = activation_bytes(&paper70, 1, 4096, flash) / 1e9;
        println!("batch 1 × seq 4096, {label:<18}: {gb:>8.1} GB");
    }
    println!();

    // --- Claim 3: SNIP's statistics overhead ----------------------------
    println!("## §6.3 SNIP statistics overhead ({PER_LAYER_VALUES} values per linear layer)");
    println!("paper-scale linears (stored values / described tensor elements):");
    for (label, m, n, k) in [
        (
            "attention QKV/O 4096×4096, 16k tokens",
            16_384usize,
            4096usize,
            4096usize,
        ),
        ("ffn up/gate 11008×4096, 16k tokens", 16_384, 11_008, 4096),
        ("ffn down 4096×11008, 16k tokens", 16_384, 4096, 11_008),
    ] {
        let r = PER_LAYER_VALUES as f64 / (m * k + n * k + m * n) as f64;
        println!("  {label:<40} {:.2e}%", 100.0 * r);
    }

    // Counted on a real (scaled-down) checkpoint's measurement.
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), ctx.params.ckpt_unit);
    let m = study.measurement();
    let layers = &m.stats.layers;
    let stored = layers.len() * LAYER_STATS_VALUES + m.p_fwd.len() + m.p_bwd.len() + m.h_sens.len();
    let elements: usize = layers
        .iter()
        .map(|l| {
            l.tokens * l.in_features + l.out_features * l.in_features + l.tokens * l.out_features
        })
        .sum();
    println!(
        "\nmeasured on tinyllama-1b-sim ({} linears): {stored} stored values for {elements} tensor elements = {:.4}%",
        layers.len(),
        100.0 * stored as f64 / elements as f64
    );
    println!("(the count per layer is fixed, so the ratio falls with every tensor");
    println!(" dimension; the paper-scale rows above are the <1% claim check)");
    // While it measures, the probe holds one tensor beyond a BF16 training
    // step: the scratch its probe passes write each layer's dW into.
    let scratch = 4 * layers
        .iter()
        .map(|l| l.out_features * l.in_features)
        .max()
        .unwrap_or(0);
    let master = 4 * study.cfg().param_count();
    println!(
        "transient working set (analytic): one largest linear weight in f32, the dW scratch = {scratch} B ({:.2}% of the {master} B f32 master weights)",
        100.0 * scratch as f64 / master as f64
    );
    println!("(checked by crates/core/tests/probe_memory.rs: a measured step's live-byte peak");
    println!(" exceeds a plain step's by at most this plus a stated slack)");

    // --- Measured packed backward-pass cache ---------------------------
    // Not an estimate: the model's linear layers store their saved GEMM
    // operands bit-packed under subbyte schemes, and StepOutput reports the
    // actual resident bytes of that cache.
    println!("\n## measured backward-cache bytes (packed QTensor storage)");
    use snip_nn::model::StepOptions;
    use snip_nn::{Batch, Model};
    use snip_quant::{LinearPrecision, Precision};
    use snip_tensor::rng::Rng;

    let cfg = ModelConfig::tinyllama_1b_sim();
    let mut model = Model::new(cfg.clone(), 7).expect("valid config");
    let mut rng = Rng::seed_from(8);
    let seqs: Vec<Vec<u32>> = (0..4)
        .map(|s| {
            (0..33)
                .map(|i| ((s * 13 + i * 7) % cfg.vocab_size) as u32)
                .collect()
        })
        .collect();
    let batch = Batch::from_sequences(&seqs, 32);
    println!("{:<10} {:>14} {:>10}", "scheme", "cache (B)", "vs bf16");
    let mut bf16_bytes = 0usize;
    let mut fp4_cache_bytes = 0usize;
    for p in [Precision::Bf16, Precision::Fp8, Precision::Fp4] {
        model.set_scheme(&vec![LinearPrecision::uniform(p); cfg.n_linear_layers()]);
        let out = model.step(&batch, &mut rng, &StepOptions::train());
        if p == Precision::Bf16 {
            bf16_bytes = out.linear_cache_bytes;
        }
        if p == Precision::Fp4 {
            fp4_cache_bytes = out.linear_cache_bytes;
        }
        println!(
            "{:<10} {:>14} {:>9.2}x",
            p.label(),
            out.linear_cache_bytes,
            bf16_bytes as f64 / out.linear_cache_bytes as f64
        );
    }
    model.zero_grads();

    // --- Measured packed optimizer moments -----------------------------
    // Also not an estimate: AdamW's moment state lives in packed FP8
    // QTensors under MomentPrecision::PackedFp8, and the optimizer reports
    // its actual resident code + scale bytes.
    println!("\n## measured optimizer-state bytes (AdamW moments, 3 steps)");
    use snip_optim::{AdamW, AdamWConfig, MomentPrecision};
    println!("{:<12} {:>14} {:>10}", "moments", "bytes", "vs f32");
    let mut moment_bytes = [0usize; 2];
    for (slot, moments) in [(0, MomentPrecision::F32), (1, MomentPrecision::PackedFp8)] {
        let mut m = Model::new(cfg.clone(), 7).expect("valid config");
        let mut r = Rng::seed_from(8);
        let mut opt = AdamW::new(AdamWConfig {
            moments,
            ..Default::default()
        });
        for _ in 0..3 {
            m.zero_grads();
            let _ = m.step(&batch, &mut r, &StepOptions::train());
            opt.update(&mut m);
        }
        moment_bytes[slot] = opt.moment_state_bytes();
        let label = match moments {
            MomentPrecision::F32 => "f32",
            MomentPrecision::PackedFp8 => "packed fp8",
        };
        println!(
            "{label:<12} {:>14} {:>9.2}x",
            moment_bytes[slot],
            moment_bytes[0] as f64 / moment_bytes[slot] as f64
        );
    }

    // --- Total resident training state, measured -----------------------
    println!("\n## total measured resident bytes (fp4 scheme, tinyllama-1b-sim)");
    let master_bytes = cfg.param_count() * 4; // f32 master weights (§4.3.2)
    for (label, moments) in [
        ("f32 moments", moment_bytes[0]),
        ("packed fp8 moments", moment_bytes[1]),
    ] {
        let total = master_bytes + moments + fp4_cache_bytes;
        println!(
            "{label:<20} master {master_bytes:>10} + moments {moments:>10} + bwd cache {fp4_cache_bytes:>10} = {total:>11} B"
        );
    }
    println!("(packed moments + packed fp4 caches: the two largest non-master");
    println!(" tensor classes now both live in subbyte/byte QTensor storage)");
}
