//! Precision-dependent stage time model.
//!
//! GEMM throughput follows the paper's hardware model (§2.2): on
//! Blackwell-class hardware FP8 runs at 2× BF16 and FP4 at 2× FP8. Stage
//! time is the sum of its layers' GEMM times at their assigned precisions
//! (non-GEMM work is >90%-dominated by the linears, §2.1, and is ignored).

use crate::stage::StagePartition;
use snip_core::Scheme;
use snip_nn::{LayerId, LayerKind, ModelConfig};

/// Forward/backward compute time of one stage for one microbatch, in
/// arbitrary units (BF16 FLOPs at unit throughput).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageCost {
    /// Forward-pass time.
    pub forward: f64,
    /// Backward-pass time (dX + dW GEMMs).
    pub backward: f64,
}

impl StageCost {
    /// Total time of one microbatch through this stage.
    pub fn total(&self) -> f64 {
        self.forward + self.backward
    }
}

/// Computes per-stage costs for a scheme.
///
/// `tokens` is the microbatch token count; it scales all times equally.
pub fn stage_costs(
    cfg: &ModelConfig,
    scheme: &Scheme,
    partition: &StagePartition,
    tokens: usize,
) -> Vec<StageCost> {
    (0..partition.n_stages())
        .map(|k| {
            let mut fwd = 0.0;
            let mut bwd = 0.0;
            for block in partition.blocks(k) {
                for kind in LayerKind::ALL {
                    let id = LayerId::new(block, kind);
                    let (n, kk) = kind.dims(cfg);
                    let gemm = (2 * tokens * n * kk) as f64;
                    let p = scheme.layer(id);
                    fwd += gemm / p.forward_gemm().throughput_factor();
                    bwd += gemm / p.input_grad_gemm().throughput_factor()
                        + gemm / p.weight_grad_gemm().throughput_factor();
                }
            }
            StageCost {
                forward: fwd,
                backward: bwd,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::Precision;

    #[test]
    fn fp8_halves_bf16_time_fp4_quarters_it() {
        let cfg = ModelConfig::tiny_test();
        let p = StagePartition::even(cfg.n_layers, 2);
        let n = cfg.n_linear_layers();
        let bf16 = stage_costs(&cfg, &Scheme::uniform(Precision::Bf16, n), &p, 8);
        let fp8 = stage_costs(&cfg, &Scheme::uniform(Precision::Fp8, n), &p, 8);
        let fp4 = stage_costs(&cfg, &Scheme::uniform(Precision::Fp4, n), &p, 8);
        for k in 0..2 {
            assert!((bf16[k].total() / fp8[k].total() - 2.0).abs() < 1e-9);
            assert!((bf16[k].total() / fp4[k].total() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn backward_costs_twice_forward() {
        let cfg = ModelConfig::tiny_test();
        let p = StagePartition::even(cfg.n_layers, 1);
        let costs = stage_costs(
            &cfg,
            &Scheme::uniform(Precision::Fp8, cfg.n_linear_layers()),
            &p,
            8,
        );
        assert!((costs[0].backward / costs[0].forward - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_scale_linearly() {
        let cfg = ModelConfig::tiny_test();
        let p = StagePartition::even(cfg.n_layers, 1);
        let s = Scheme::uniform(Precision::Fp8, cfg.n_linear_layers());
        let c1 = stage_costs(&cfg, &s, &p, 8);
        let c2 = stage_costs(&cfg, &s, &p, 16);
        assert!((c2[0].total() / c1[0].total() - 2.0).abs() < 1e-9);
    }
}
