//! **Ablation: pipeline balancing policy** — relative per-stage targets
//! (the paper's Eq. 5 behaviour, Fig. 12) vs our time-equalizing extension.
//!
//! Fig. 12's 22-block model splits 6/6/6/4 over 4 stages. Balancing each
//! stage's FP4 *fraction* preserves the 6:6:6:4 stage-time ratio, so the
//! short stage still idles. Water-filling the targets to equalize stage
//! *times* (snip-ilp's `balanced` module) puts more FP8 in the short stage
//! and more FP4 in the long ones; this binary measures what that buys:
//! per-stage FP4 fractions, stage times, 1F1B bubble fraction, and the
//! quality objective paid.

use crate::cost::stage_costs;
use crate::harness::*;
use crate::schedule::simulate_1f1b;
use snip_core::{OptionSet, PipelineBalance, Scheme};
use snip_ilp::imbalance_fraction;
use snip_nn::ModelConfig;
use crate::stage::StagePartition;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Ablation: relative vs time-balanced pipeline targets");
    println!("# tinyllama-1b-sim, 4 stages (6/6/6/4 blocks), 50% FP4 budget\n");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), 3 * p.ckpt_unit);
    let (cfg, analysis) = (study.cfg(), study.analysis());
    let partition = StagePartition::even(cfg.n_layers, 4);
    let tokens = p.batch_size * p.seq_len;
    let microbatches = 8;

    let quality_of = |s: &Scheme| -> f64 {
        let options = OptionSet::fp8_fp4();
        s.assignments()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let j = options.options().iter().position(|o| o == a).unwrap();
                analysis.quality[i][j]
            })
            .sum()
    };

    let describe = |label: &str, scheme: &Scheme| {
        let costs = stage_costs(cfg, scheme, &partition, tokens);
        let times: Vec<f64> = costs.iter().map(|c| c.total()).collect();
        let sim = simulate_1f1b(&costs, microbatches);
        println!("--- {label} ---");
        print!("per-stage FP4% of stage FLOPs: ");
        for k in 0..partition.n_stages() {
            print!(
                "{:>6.1}",
                study.fp4_pct_of(scheme, &partition.linears(k))
            );
        }
        println!();
        let t_str: Vec<String> = times.iter().map(|t| format!("{t:.3e}")).collect();
        println!(
            "stage times (fwd+bwd per microbatch): [{}]",
            t_str.join(", ")
        );
        println!(
            "stage-time imbalance: {:.1}%   1F1B bubble: {:.1}%   total FP4: {:.1}%   quality paid: {:.4}",
            100.0 * imbalance_fraction(&times),
            100.0 * sim.bubble_fraction,
            100.0 * study.fp4_fraction(scheme),
            quality_of(scheme)
        );
        println!();
    };

    let relative = study.snip(0.5, Some(4), PipelineBalance::Relative);
    let balanced = study.snip(0.5, Some(4), PipelineBalance::TimeBalanced);
    let global = study.scheme(Method::Snip, 0.5);
    let fp8 = study.scheme(Method::Uniform(Precision::Fp8), 0.0);

    describe("uniform FP8 (reference)", &fp8);
    describe("global ILP (no stage constraint)", &global);
    describe("relative per-stage targets (Eq. 5)", &relative);
    describe("time-balanced targets (extension)", &balanced);

    println!("# Expected shape: relative balance matches per-stage FP4% to the");
    println!("# budget but keeps the 6:6:6:4 stage-time ratio; time balance");
    println!("# trades per-stage FP4% asymmetry for a flatter stage-time profile");
    println!("# and a smaller bubble, at a (usually small) quality premium.");
}
