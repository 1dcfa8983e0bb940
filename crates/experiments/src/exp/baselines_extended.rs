//! **Extended baselines** — the related-work heuristic families (§1, §7)
//! added to the Fig. 3-style accuracy-vs-efficiency comparison:
//!
//! * `fisher@B` — FGMP-style Fisher-information selection (forward-only).
//! * `greedy-snip@B` — SNIP's own divergence metric solved greedily instead
//!   of by ILP (the solver ablation: metric vs optimizer contribution).
//! * `SNIP@B` — the full framework (metric + ILP), for reference.
//! * `min-abs-err@B` — the strongest §6.1 baseline, for continuity.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Extended baselines: accuracy vs efficiency, tinyllama-1b-sim");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), p.headline_ckpt);
    let n = study.cfg().n_linear_layers();

    let table = Table {
        label: ("method", 18),
        sep: " ",
        cols: vec![
            ("fp4(%)", Col::Fp4Pct, 8),
            ("accuracy", Col::Accuracy, 10),
            ("val loss", Col::ValLoss, 12),
        ],
    };
    println!("\n{}", table.header());
    let print_run = |label: Option<&str>, method: Method, budget: f64| {
        let scheme = study.scheme(method, budget);
        let outcome = study.resume(&scheme, p.resume_steps);
        println!("{}", table.row(label.unwrap_or(&scheme.name), &outcome));
    };

    print_run(Some("BF16"), Method::Uniform(Precision::Bf16), 0.0);
    print_run(Some("FP8"), Method::Uniform(Precision::Fp8), 0.0);
    for budget in [0.25, 0.5, 0.75] {
        println!();
        for method in [
            Method::Snip,
            Method::GreedySnip,
            Method::Fisher,
            Method::MinAbsErr,
        ] {
            print_run(None, method, budget);
        }
    }
    print_run(Some("FP4"), Method::Uniform(Precision::Fp4), 0.0);

    // How often do greedy and the ILP agree on the same tables?
    println!("\n## solver agreement (greedy vs ILP on identical quality tables)");
    for budget in [0.25, 0.5, 0.75] {
        let ilp = study.scheme(Method::Snip, budget);
        let greedy = study.scheme(Method::GreedySnip, budget);
        let agree = ilp
            .assignments()
            .iter()
            .zip(greedy.assignments())
            .filter(|(a, b)| a == b)
            .count();
        println!(
            "budget {:.0}%: {agree}/{n} layers identical",
            budget * 100.0
        );
    }
    println!("\n# Expected shape: greedy-snip tracks SNIP closely (the metric does");
    println!("# most of the work at these scales; the ILP's guarantee matters as");
    println!("# option sets grow); fisher sits between SNIP and min-abs-err —");
    println!("# better than local error, blind to optimizer dynamics.");
}
