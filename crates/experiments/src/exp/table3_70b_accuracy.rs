//! **Table 3** — accuracy deltas over BF16 for the 80-block ("70B-class")
//! model under a 50% FP4 budget, on the ARC-c / MMLU / HellaSwag analogues,
//! plus validation-loss deltas (the finer signal at simulation scale — an
//! early-training 70B-sim often produces *identical* suite answers across
//! schemes, collapsing every accuracy delta to zero).

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Table 3: deltas over BF16, llama-70b-sim, 50% FP4 budget");
    let study = Study::at(ctx, ModelConfig::llama_70b_sim(), 4 * p.ckpt_unit);
    println!(
        "# checkpoint step {}, resume {} steps, {} eval items/suite",
        study.ckpt().step_count(),
        p.resume_steps,
        p.eval_items
    );
    let resume = |m: Method| study.resume(&study.scheme(m, 0.5), p.resume_steps);
    let bf16 = resume(Method::Uniform(Precision::Bf16));

    let table = Table {
        label: ("scheme", 22),
        sep: "",
        cols: vec![
            ("ARC_c-syn", Col::Task("ARC_c-syn"), 16),
            ("MMLU-syn", Col::Task("MMLU-syn"), 16),
            ("HellaSwag-syn", Col::Task("HellaSwag-syn"), 16),
            ("dValLoss", Col::ValLoss, 12),
        ],
    };
    println!("{}", table.header());
    for method in [
        Method::Uniform(Precision::Fp8),
        Method::Uniform(Precision::Fp4),
        Method::Snip,
        Method::ELayerId,
        Method::ELayerType,
        Method::MinAbsErr,
        Method::MinRelErr,
    ] {
        let outcome = resume(method);
        println!("{}", table.delta_row(&outcome.name, &outcome, &bf16));
    }
    println!("\n('+' accuracy = better than BF16; '+' dValLoss = worse; paper:");
    println!(" SNIP consistently stable while heuristics are inconsistent)");
}
