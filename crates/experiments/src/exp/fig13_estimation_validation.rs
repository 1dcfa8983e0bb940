//! **Figure 13** — SNIP-estimated vs. ground-truth per-layer loss impact.
//!
//! Protocol (paper §6.3): quantize each layer *individually* to FP4, run a
//! forward pass, and measure the loss difference against the BF16 baseline;
//! compare against the §4.2 loss-divergence estimate. The paper reports
//! close per-layer alignment; we additionally print the rank correlation.
//!
//! At our reduced scale a single batch's per-layer deltas are noisy (they
//! are ~1e-4 of the loss), so both the estimate and the ground truth are
//! averaged over several batches — the paper's full-width models get the
//! same effect from their 4M-token batches.

use crate::harness::*;
use snip_core::divergence::loss_divergence;
use snip_core::{measure, Scheme};
use snip_nn::{LayerId, ModelConfig};
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::rng::Rng;

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&x, &y| v[x].partial_cmp(&v[y]).unwrap());
        let mut r = vec![0.0; v.len()];
        for (ri, &i) in idx.iter().enumerate() {
            r[i] = ri as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..a.len() {
        cov += (ra[i] - ma) * (rb[i] - mb);
        va += (ra[i] - ma).powi(2);
        vb += (rb[i] - mb).powi(2);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let n_batches = p.probe_batches;
    println!("# Figure 13: estimated vs ground-truth per-layer loss impact (FP4, tinyllama-1b-sim, averaged over {n_batches} batches)");
    let ckpt = checkpoint(
        ModelConfig::tinyllama_1b_sim(),
        3 * p.ckpt_unit,
        p,
        &ctx.ckpt_dir,
    );
    let n = ckpt.config().model.n_linear_layers();

    let mut estimates = vec![0.0f64; n];
    let mut truth = vec![0.0f64; n];
    let mut t = ckpt;
    let mut rng = Rng::seed_from(0xF13);
    let optimizer = t.optimizer.clone();
    let bf16 = Scheme::uniform(Precision::Bf16, n);

    for _ in 0..n_batches {
        let batch = t.peek_batch();
        // SNIP estimate from Steps 1–4 on this batch.
        let m = measure(&mut t.model, &optimizer, &batch, &mut rng, 1e-2);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            estimates[i] += loss_divergence(
                &m.stats.layers[i],
                m.stats.loss,
                LinearPrecision::uniform(Precision::Fp4),
            ) * 100.0
                / n_batches as f64;
        }
        // Ground truth: per-layer FP4, forward-only loss delta on the same batch.
        bf16.apply(&mut t.model);
        let base_loss = t.model.forward_loss(&batch, &mut rng);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let mut s = Scheme::uniform(Precision::Bf16, n);
            s.set_layer(
                LayerId::from_linear_index(i),
                LinearPrecision::uniform(Precision::Fp4),
            );
            s.apply(&mut t.model);
            let loss = t.model.forward_loss(&batch, &mut rng);
            truth[i] += 100.0 * (loss - base_loss).abs() / base_loss / n_batches as f64;
        }
        bf16.apply(&mut t.model);
    }

    println!("{:<10} {:>14} {:>14}", "layer", "estimate(%)", "truth(%)");
    for i in 0..n {
        let id = LayerId::from_linear_index(i);
        println!(
            "{:<10} {:>14.4} {:>14.4}",
            id.to_string(),
            estimates[i],
            truth[i]
        );
    }
    let rho = spearman(&estimates, &truth);
    let est_mean = estimates.iter().sum::<f64>() / n as f64;
    let tru_mean = truth.iter().sum::<f64>() / n as f64;
    println!("\nmean estimate = {est_mean:.4}%, mean truth = {tru_mean:.4}%");
    println!("Spearman rank correlation (paper: 'close alignment'): {rho:.3}");
    // Top-k overlap — does the estimator find the layers that matter?
    let topk = |v: &[f64], k: usize| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
        idx[..k].iter().copied().collect()
    };
    let k = n / 4;
    let overlap = topk(&estimates, k).intersection(&topk(&truth, k)).count();
    println!("top-{k} sensitive-layer overlap: {overlap}/{k}");
}
