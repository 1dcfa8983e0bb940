//! **Figure 12** — pipeline-parallel timeline of the TinyLlama model under
//! SNIP with a 50% efficiency budget and 4 stages.
//!
//! The paper splits TinyLlama's 22 blocks as 6/6/6/4, solves the
//! stage-balanced ILP (§5.3), and shows the resulting 1F1B timeline plus the
//! per-stage precision heat maps.

use crate::cost::stage_costs;
use crate::harness::*;
use crate::schedule::simulate_1f1b;
use crate::timeline::render_timeline;
use snip_core::PipelineBalance;
use snip_nn::{LayerId, LayerKind, ModelConfig};
use crate::stage::StagePartition;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Figure 12: pipeline timeline, tinyllama-1b-sim, 4 stages, 50% FP4 budget");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), 3 * p.ckpt_unit);
    let cfg = study.cfg();
    let partition = StagePartition::even(cfg.n_layers, 4);

    // Stage-balanced SNIP scheme (grouped ILP, §5.3; relative targets, the
    // paper's Eq. 5 behaviour).
    let scheme = study.snip(0.5, Some(4), PipelineBalance::Relative);
    println!(
        "\nscheme {} achieves {:.1}% FP4 FLOPs overall",
        scheme.name,
        100.0 * study.fp4_fraction(&scheme)
    );

    // Per-stage precision heat maps (Fig. 12's 2D insets).
    for k in 0..partition.n_stages() {
        let blocks: Vec<usize> = partition.blocks(k).collect();
        println!(
            "\nstage {k} (blocks {}..={}):",
            blocks[0],
            blocks.last().unwrap()
        );
        print!("{:<6}", "block");
        for kind in LayerKind::ALL {
            print!("{:>5}", kind.label());
        }
        println!();
        for &b in &blocks {
            print!("L{b:<5}");
            for kind in LayerKind::ALL {
                let pr = scheme.layer(LayerId::new(b, kind));
                let c = if pr.forward_gemm() == Precision::Fp4 {
                    '4'
                } else {
                    '8'
                };
                print!("{c:>5}");
            }
            println!();
        }
        println!(
            "stage FP4 fraction: {:.1}% of stage FLOPs",
            study.fp4_pct_of(&scheme, &partition.linears(k))
        );
    }

    // Timelines: SNIP-balanced vs unbalanced (global ILP) vs uniform FP8.
    let tokens = p.batch_size * p.seq_len;
    let microbatches = 8;
    println!("\n## 1F1B timelines ({microbatches} microbatches)");
    for (label, s) in [
        ("SNIP stage-balanced @50%", scheme.clone()),
        (
            "SNIP global ILP @50% (unbalanced)",
            study.scheme(Method::Snip, 0.5),
        ),
        (
            "uniform FP8",
            study.scheme(Method::Uniform(Precision::Fp8), 0.0),
        ),
    ] {
        let costs = stage_costs(cfg, &s, &partition, tokens);
        let sim = simulate_1f1b(&costs, microbatches);
        println!("\n--- {label} ---");
        println!("{}", render_timeline(&sim, 100));
        let busy: Vec<String> = sim.stage_busy.iter().map(|b| format!("{b:.2e}")).collect();
        println!("stage busy times: [{}]", busy.join(", "));
    }
}
