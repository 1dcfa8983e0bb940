//! **Ablation (design choice §5.1)** — SNIP's quality metric is the sum
//! `Q = ΔL + ΔW`. This ablation re-solves the ILP with ΔL only, ΔW only and
//! the combination at a 75% FP4 budget, then resumes training under each
//! scheme to compare stability. It quantifies how much each divergence term
//! contributes to the final decision.

use crate::harness::*;
use snip_core::{scheme_from_tables, OptionSet, PolicyConfig, Scheme};
use snip_nn::ModelConfig;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    println!("# Ablation: quality metric Q = loss-div + weight-div (75% FP4 budget)");
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), 3 * p.ckpt_unit);
    let cfg = study.cfg();
    let full = study.analysis();

    let variant = |name: &str, quality: &[Vec<f64>]| -> Scheme {
        let policy = PolicyConfig {
            target_fp4: 0.75,
            ..Default::default()
        };
        let options = OptionSet::fp8_fp4();
        scheme_from_tables(quality, &full.efficiency, &options, cfg, &policy, name)
            .expect("feasible")
    };

    let schemes = [
        variant("loss-div-only", &full.loss_div),
        variant("weight-div-only", &full.weight_div),
        variant("both (SNIP)", &full.quality),
    ];

    // Agreement between variants.
    println!("\nassignment agreement between metric variants:");
    for i in 0..schemes.len() {
        for j in (i + 1)..schemes.len() {
            let same = schemes[i]
                .assignments()
                .iter()
                .zip(schemes[j].assignments())
                .filter(|(a, b)| a == b)
                .count();
            println!(
                "  {:<18} vs {:<18}: {}/{} layers agree",
                schemes[i].name,
                schemes[j].name,
                same,
                cfg.n_linear_layers()
            );
        }
    }

    let table = Table {
        label: ("metric", 20),
        sep: " ",
        cols: vec![
            ("fp4(%)", Col::Fp4Pct, 10),
            ("final loss", Col::FinalLoss, 12),
            ("accuracy", Col::Accuracy, 10),
        ],
    };
    println!("\n{}", table.header());
    for scheme in &schemes {
        let outcome = study.resume(scheme, p.resume_steps);
        println!("{}", table.row(&scheme.name, &outcome));
    }
}
