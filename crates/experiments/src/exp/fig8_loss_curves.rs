//! **Figure 8** — from-scratch training-loss curves at a 75% FP4 FLOPs
//! budget: BF16 and SNIP should nearly overlap; the error-minimizing and
//! random baselines destabilize or diverge.

use crate::harness::*;
use snip_core::Trainer;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let steps = 4 * p.resume_steps;
    println!(
        "# Figure 8: from-scratch training loss, 75% FP4 budget, tinyllama-1b-sim, {steps} steps"
    );

    // From-scratch run needs a brief warmup before SNIP statistics mean
    // anything (the optimizer moments must exist) — we probe at 10 steps.
    let fresh = Trainer::new(trainer_config(ModelConfig::tinyllama_1b_sim(), p)).unwrap();
    let mut warm = fresh.clone();
    let _ = warm.train(10);
    let (fresh, warm) = (Study::new(fresh, p), Study::new(warm, p));

    // Figure 8 plots BF16, SNIP, min-abs-err, min-rel-err, random 0-2.
    let methods = [Method::Uniform(Precision::Bf16), Method::Snip]
        .into_iter()
        .chain(Method::PAPER_BASELINES)
        .filter(|m| !matches!(m, Method::ELayerId | Method::ELayerType));
    let outcomes: Vec<Outcome> = methods
        .map(|m| fresh.resume(&warm.scheme(m, 0.75), steps))
        .collect();

    // Print a loss table every steps/20 interval (the figure's x-axis).
    let curves: Vec<(&str, &[f64])> = outcomes
        .iter()
        .map(|o| (o.name.as_str(), o.losses.as_slice()))
        .collect();
    print_curves(&curves, (steps as usize / 20).max(1), 4);

    println!("\nfinal losses (mean of last 5 steps):");
    let bf16_final = outcomes[0].final_loss();
    for o in &outcomes {
        let fin = o.final_loss();
        println!(
            "  {:<22} {fin:.4}  (gap over BF16: {:+.4})",
            o.name,
            fin - bf16_final
        );
    }
}
