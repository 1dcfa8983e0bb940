//! **Figure 7** — per-layer precision assignments at 25%, 50% and 75% FP4
//! FLOPs for SNIP, min-abs-err and min-rel-err.

use crate::harness::*;
use snip_nn::ModelConfig;

pub(crate) fn run(ctx: &Ctx) {
    println!("# Figure 7: per-layer precision assignments (4 = FP4, 8 = FP8)");
    let study = Study::at(
        ctx,
        ModelConfig::tinyllama_1b_sim(),
        3 * ctx.params.ckpt_unit,
    );

    for budget in [0.25, 0.50, 0.75] {
        for method in [Method::Snip, Method::MinAbsErr, Method::MinRelErr] {
            let scheme = study.scheme(method, budget);
            println!(
                "\n## {:.0}% FP4 FLOPs — {} (achieved {:.1}%)",
                budget * 100.0,
                scheme.name,
                100.0 * study.fp4_fraction(&scheme)
            );
            println!("{}", scheme.render_grid(study.cfg()));
        }
    }
}
