//! Tuning probe: how the FP4-vs-BF16 resume contrast grows with checkpoint
//! maturity. The paper resumes *mature* public checkpoints (10B–503B
//! tokens), where models make sharp predictions and subbyte noise bites;
//! early checkpoints are high-entropy and hide the contrast below gradient
//! noise. This probe locates the depth where the contrast clears eval
//! noise, which sets the checkpoint depth for the headline experiments.
//!
//! The depth ladder is centred on `ExpParams::headline_ckpt` (¼× … 2×) and
//! resumes for `ExpParams::resume_steps`: 240 … 1920 steps at full size.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let resume = p.resume_steps;
    println!("# FP4-vs-BF16 resume gap vs checkpoint maturity (resume {resume} steps)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "ckpt", "bf16 val", "fp4 val", "gap", "rand75 val", "gap"
    );
    for quarters in [1, 2, 4, 6, 8] {
        let steps = p.headline_ckpt * quarters / 4;
        let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), steps);
        let val_of = |m: Method| study.resume(&study.scheme(m, 0.75), resume).val_loss();
        let bf16 = val_of(Method::Uniform(Precision::Bf16));
        let fp4 = val_of(Method::Uniform(Precision::Fp4));
        let rand = val_of(Method::Random(1));
        println!(
            "{steps:>8} {bf16:>12.4} {fp4:>12.4} {:>12.4} {rand:>12.4} {:>12.4}",
            fp4 - bf16,
            rand - bf16
        );
    }
}
