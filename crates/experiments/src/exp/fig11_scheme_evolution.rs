//! **Figure 11** — evolution of SNIP's per-layer precision assignment at a
//! 75% FP4 budget across training checkpoints.
//!
//! Paper finding: assignments are stable across nearby checkpoints, shift at
//! the late checkpoint (early layers gain precision, late layers lose it) —
//! motivating periodic regeneration.

use crate::harness::*;
use snip_nn::{LayerId, LayerKind, ModelConfig};
use snip_quant::{LinearPrecision, Precision};

pub(crate) fn run(ctx: &Ctx) {
    println!("# Figure 11: SNIP assignments @75% FP4 across checkpoints, tinyllama-1b-sim");
    let units: [u64; 5] = [1, 2, 3, 5, 8]; // "5k, 10k, 20k, 50k, 240k"-like ladder
    let model = ModelConfig::tinyllama_1b_sim();
    let mut schemes = Vec::new();
    for &u in &units {
        let steps = u * ctx.params.ckpt_unit;
        let study = Study::at(ctx, model.clone(), steps);
        let scheme = study.scheme(Method::Snip, 0.75);
        println!(
            "\n## checkpoint step {} ({} FP4 layers, {:.1}% FP4 FLOPs)",
            steps,
            scheme.fp4_layer_count(),
            100.0 * study.fp4_fraction(&scheme)
        );
        println!("{}", scheme.render_grid(&model));
        schemes.push((steps, scheme));
    }

    // Quantify the paper's stability/drift claim: Hamming distance between
    // consecutive checkpoints' assignments.
    println!("## assignment drift between consecutive checkpoints");
    for w in schemes.windows(2) {
        let (s0, a) = (&w[0].0, &w[0].1);
        let (s1, b) = (&w[1].0, &w[1].1);
        let differing = a
            .assignments()
            .iter()
            .zip(b.assignments())
            .filter(|(x, y)| x != y)
            .count();
        println!(
            "  step {s0} -> {s1}: {differing}/{} layers changed",
            a.n_layers()
        );
    }

    // Early-vs-late precision shift at the final checkpoint vs the first.
    let fp8 = LinearPrecision::uniform(Precision::Fp8);
    let count_fp8 = |s: &snip_core::Scheme, blocks: std::ops::Range<usize>| -> usize {
        blocks
            .flat_map(|b| LayerKind::ALL.iter().map(move |&k| LayerId::new(b, k)))
            .filter(|&id| s.layer(id) == fp8)
            .count()
    };
    let first = &schemes.first().unwrap().1;
    let last = &schemes.last().unwrap().1;
    let nb = model.n_layers;
    println!("\nFP8 (high-precision) layer counts, first vs last checkpoint:");
    println!(
        "  early blocks (0..{}): {} -> {}",
        nb / 3,
        count_fp8(first, 0..nb / 3),
        count_fp8(last, 0..nb / 3)
    );
    println!(
        "  late blocks ({}..{}): {} -> {}",
        2 * nb / 3,
        nb,
        count_fp8(first, 2 * nb / 3..nb),
        count_fp8(last, 2 * nb / 3..nb)
    );
}
