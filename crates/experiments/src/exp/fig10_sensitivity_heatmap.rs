//! **Figure 10** — heat map of layer-wise quality loss under FP4.
//!
//! The paper observes: the last block's MLP is most critical; Down
//! projections (especially late ones) are sensitive; V is more sensitive
//! than Q/K. We print the 22×7 sensitivity grid normalized to [0, 9].

use crate::harness::*;
use snip_nn::{LayerId, LayerKind, ModelConfig};

pub(crate) fn run(ctx: &Ctx) {
    println!("# Figure 10: layer-wise quality loss (Q) under FP4, tinyllama-1b-sim");
    let study = Study::at(
        ctx,
        ModelConfig::tinyllama_1b_sim(),
        3 * ctx.params.ckpt_unit,
    );
    let cfg = study.cfg();
    let sens = study.analysis().fp4_sensitivity();

    let max = sens.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    println!("(digits = sensitivity decile: 9 = most sensitive)\n");
    print!("{:<6}", "block");
    for kind in LayerKind::ALL {
        print!("{:>6}", kind.label());
    }
    println!();
    for block in 0..cfg.n_layers {
        print!("L{block:<5}");
        for kind in LayerKind::ALL {
            let s = sens[LayerId::new(block, kind).linear_index()];
            let decile = ((s / max) * 9.0).round() as u32;
            print!("{decile:>6}");
        }
        println!();
    }

    // The paper's qualitative claims, quantified:
    let mean_of = |pred: &dyn Fn(LayerId) -> bool| -> f64 {
        let vals: Vec<f64> = (0..cfg.n_linear_layers())
            .map(LayerId::from_linear_index)
            .filter(|&id| pred(id))
            .map(|id| sens[id.linear_index()])
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let v_mean = mean_of(&|id: LayerId| id.kind == LayerKind::V);
    let qk_mean = mean_of(&|id: LayerId| matches!(id.kind, LayerKind::Q | LayerKind::K));
    let down_late =
        mean_of(&|id: LayerId| id.kind == LayerKind::Down && id.block >= cfg.n_layers / 2);
    let down_early =
        mean_of(&|id: LayerId| id.kind == LayerKind::Down && id.block < cfg.n_layers / 2);
    let last_mlp = mean_of(&|id: LayerId| id.kind.is_mlp() && id.block == cfg.n_layers - 1);
    let other_mlp = mean_of(&|id: LayerId| id.kind.is_mlp() && id.block != cfg.n_layers - 1);
    println!("\npaper-claim checks:");
    println!(
        "  V vs Q/K sensitivity:        {:.3e} vs {:.3e} (paper: V > Q,K)",
        v_mean, qk_mean
    );
    println!(
        "  late vs early Down:          {:.3e} vs {:.3e} (paper: late > early)",
        down_late, down_early
    );
    println!(
        "  last-block MLP vs rest MLP:  {:.3e} vs {:.3e} (paper: last block most critical)",
        last_mlp, other_mlp
    );
}
