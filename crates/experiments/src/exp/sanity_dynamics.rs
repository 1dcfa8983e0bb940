//! Sanity probe (not a paper figure): verifies the experimental dynamic the
//! whole evaluation relies on — FP8 tracks BF16, FP4 hurts, SNIP@budget sits
//! near FP8 while the worst baselines fall behind.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let t0 = std::time::Instant::now();
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), 3 * p.ckpt_unit);
    println!(
        "checkpoint built at step {} in {:?}",
        study.ckpt().step_count(),
        t0.elapsed()
    );

    for scheme in [
        study.scheme(Method::Uniform(Precision::Bf16), 0.0),
        study.scheme(Method::Uniform(Precision::Fp8), 0.0),
        study.scheme(Method::Uniform(Precision::Fp4), 0.0),
        study.scheme(Method::Snip, 0.75),
    ] {
        let t1 = std::time::Instant::now();
        let o = study.resume(&scheme, p.resume_steps);
        println!(
            "{:<12} fp4={:.2} final_loss={:.4} avg_acc={:.2} ({:?})",
            o.name,
            o.fp4,
            o.final_loss(),
            o.report().average(),
            t1.elapsed()
        );
    }
}
