//! **Figure 3** — accuracy vs. efficiency (fraction of FP4 FLOPs) for the
//! TinyLlama-class model: SNIP vs min-rel-err, min-abs-err, E-layer-type,
//! E-layer-id and random, with FP8 (0%) and FP4 (100%) as endpoints.
//!
//! Resumes a *mature* checkpoint (the paper's setting — its checkpoints are
//! 10B–503B tokens in) where the subbyte contrast is above the noise floor
//! (see `sanity_maturity`). Validation loss is reported next to suite
//! accuracy: at simulation scale the loss separates schemes more finely
//! than the accuracy metric, whose per-item quantum is several points.

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_quant::Precision;

pub(crate) fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Figure 3: accuracy & val loss vs fraction of FP4 FLOPs, tinyllama-1b-sim");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), p.headline_ckpt);
    println!(
        "# checkpoint step {}, resume {} steps, {} eval items/suite",
        study.ckpt().step_count(),
        p.resume_steps,
        p.eval_items
    );

    let table = Table {
        label: ("method", 16),
        sep: " ",
        cols: vec![
            ("fp4(%)", Col::Fp4Pct, 10),
            ("accuracy", Col::Accuracy, 10),
            ("val loss", Col::ValLoss, 10),
        ],
    };
    println!("\n{}", table.header());
    let print_run = |label: Option<&str>, method: Method, budget: f64| {
        let scheme = study.scheme(method, budget);
        let outcome = study.resume(&scheme, p.resume_steps);
        println!("{}", table.row(label.unwrap_or(&scheme.name), &outcome));
    };
    // Endpoints.
    for (label, precision) in [
        ("BF16", Precision::Bf16),
        ("FP8", Precision::Fp8),
        ("FP4", Precision::Fp4),
    ] {
        print_run(Some(label), Method::Uniform(precision), 0.0);
    }
    for method in [
        Method::Snip,
        Method::MinRelErr,
        Method::MinAbsErr,
        Method::Random(0),
        Method::ELayerId,
    ] {
        for budget in [0.25, 0.5, 0.75, 0.8] {
            print_run(None, method, budget);
        }
    }
    print_run(None, Method::ELayerType, 0.0);
}
