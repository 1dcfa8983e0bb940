//! **Figure 9** — relative training-loss difference vs BF16 for the
//! 80-block ("70B-class") dense model from the 10k-step-equivalent
//! checkpoint onward, under a 50% FP4 budget.
//!
//! Paper findings to reproduce in shape: full-FP4 drifts *slowly* (large
//! models are more resilient); SNIP and E-layer-id stay closest to BF16;
//! min-rel-err and E-layer-type show larger deviations/spikes.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!(
        "# Figure 9: relative loss difference vs BF16, llama-70b-sim (80 blocks), 50% FP4 budget"
    );
    let study = Study::at(ctx, ModelConfig::llama_70b_sim(), 2 * p.ckpt_unit);
    let steps = 2 * p.resume_steps;
    let curve_of = |m: Method| study.resume(&study.scheme(m, 0.5), steps);

    let bf16 = curve_of(Method::Uniform(Precision::Bf16)).losses;
    let outcomes: Vec<Outcome> = [
        Method::Uniform(Precision::Fp4),
        Method::Snip,
        Method::MinAbsErr,
        Method::MinRelErr,
        Method::ELayerId,
        Method::ELayerType,
    ]
    .into_iter()
    .map(curve_of)
    .collect();
    // Relative loss difference (%) over BF16 at each step, smoothed by 5.
    let smoothed: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|o| {
            let rel: Vec<f64> = o
                .losses
                .iter()
                .zip(&bf16)
                .map(|(l, b)| 100.0 * (l - b) / b)
                .collect();
            (0..rel.len())
                .map(|i| {
                    let window = &rel[i.saturating_sub(2)..(i + 3).min(rel.len())];
                    window.iter().sum::<f64>() / window.len() as f64
                })
                .collect()
        })
        .collect();
    let curves: Vec<(&str, &[f64])> = outcomes
        .iter()
        .zip(&smoothed)
        .map(|(o, s)| (o.name.as_str(), s.as_slice()))
        .collect();
    print_curves(&curves, (steps as usize / 15).max(1), 3);
    println!("\n(values are % relative loss difference over BF16; lower = more stable)");
}
