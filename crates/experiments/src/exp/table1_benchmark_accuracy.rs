//! **Table 1** — per-benchmark accuracy across quantization schemes for the
//! TinyLlama-class model at the mature (headline) checkpoint, at 25/50/75%
//! FP4 budgets plus SNIP@80/85 and the uniform baselines. A validation-loss
//! column accompanies the accuracies: at simulation scale the loss
//! separates schemes below the accuracy metric's per-item quantum.

use crate::harness::*;
use snip_eval::Task;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Table 1: benchmark accuracy by scheme, tinyllama-1b-sim @ mature checkpoint");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), p.headline_ckpt);
    println!(
        "# checkpoint step {}, resume {} steps, {} eval items/suite",
        study.ckpt().step_count(),
        p.resume_steps,
        p.eval_items
    );

    let mut cols: Vec<_> = Task::ALL
        .iter()
        .map(|t| (t.name(), Col::Task(t.name()), 14))
        .collect();
    cols.push(("Average", Col::Accuracy, 9));
    cols.push(("ValLoss", Col::ValLoss, 9));
    let table = Table {
        label: ("scheme", 22),
        sep: "",
        cols,
    };
    let run = |label: Option<&str>, method: Method, budget: f64| {
        let scheme = study.scheme(method, budget);
        let outcome = study.resume(&scheme, p.resume_steps);
        println!("{}", table.row(label.unwrap_or(&scheme.name), &outcome));
    };

    println!("\n## 0% FP4 FLOPs (uniform baselines)");
    println!("{}", table.header());
    run(Some("BF16"), Method::Uniform(Precision::Bf16), 0.0);
    run(Some("FP8"), Method::Uniform(Precision::Fp8), 0.0);

    for budget in [0.25, 0.5, 0.75] {
        println!("\n## {:.0}% FP4 FLOPs", budget * 100.0);
        println!("{}", table.header());
        run(None, Method::Snip, budget);
        for method in Method::PAPER_BASELINES {
            // E-layer-type has a fixed ~55% fraction; the paper lists it
            // under the nearest budgets only.
            if method == Method::ELayerType && (budget - 0.5).abs() > 0.26 {
                continue;
            }
            if method == Method::ELayerId && budget < 0.5 {
                continue;
            }
            run(None, method, budget);
        }
    }

    println!("\n## high-budget SNIP and FP4");
    println!("{}", table.header());
    run(None, Method::Snip, 0.80);
    run(None, Method::Snip, 0.85);
    run(Some("FP4"), Method::Uniform(Precision::Fp4), 0.0);
}
