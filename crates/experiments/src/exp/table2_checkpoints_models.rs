//! **Table 2** — average accuracy across training checkpoints and model
//! sizes: TinyLlama-class at early/mid/late checkpoints (budget 75%),
//! OpenLlama-3B/7B-class at two checkpoints (budget 50%, "more sensitive to
//! precision loss" per the paper).

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Table 2: accuracy across checkpoints and model sizes");

    // (model, checkpoint multipliers, budget)
    let settings: [(ModelConfig, Vec<u64>, f64); 3] = [
        (ModelConfig::tinyllama_1b_sim(), vec![1, 3, 6], 0.75),
        (ModelConfig::openllama_3b_sim(), vec![3], 0.50),
        (ModelConfig::openllama_7b_sim(), vec![3], 0.50),
    ];
    let table = Table {
        label: ("", 24),
        sep: " ",
        cols: vec![("", Col::Accuracy, 8)],
    };

    for (model, ckpt_units, budget) in settings {
        for unit in ckpt_units {
            let steps = unit * p.ckpt_unit;
            println!(
                "\n## {} @ step {} (budget {:.0}% FP4)",
                model.name,
                steps,
                budget * 100.0
            );
            let study = Study::at(ctx, model.clone(), steps);
            let run = |label: Option<&str>, method: Method| {
                let scheme = study.scheme(method, budget);
                let outcome = study.resume(&scheme, p.resume_steps);
                let label = format!("  {}", label.unwrap_or(&scheme.name));
                println!("{}", table.row(&label, &outcome));
            };
            run(Some("BF16"), Method::Uniform(Precision::Bf16));
            run(Some("SNIP"), Method::Snip);
            // Table 2 lists min-*-err and random only.
            for method in [
                Method::MinAbsErr,
                Method::MinRelErr,
                Method::Random(0),
                Method::Random(1),
            ] {
                run(None, method);
            }
        }
    }
}
