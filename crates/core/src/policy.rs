//! Step 5: deciding the optimal layer-wise quantization scheme via ILP
//! (paper §5.2–§5.3).

use crate::divergence::Analysis;
use crate::options::{FlopModel, OptionSet};
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use snip_ilp::{
    contiguous_stages, solve, solve_grouped, Choice, McKnapsack, SolveError, SolveOptions,
};
use snip_nn::ModelConfig;

/// How per-stage targets are derived when pipeline balancing is on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineBalance {
    /// Each stage contributes in proportion to its FLOP share (the Eq. 5
    /// behaviour Fig. 12 describes; equals `E_t/K` for equal stages).
    #[default]
    Relative,
    /// Per-stage targets water-filled to equalize stage *times* under the
    /// FP8/FP4 throughput model — our extension; with unequal stages (the
    /// 6/6/6/4 split) relative balance preserves the stage-time imbalance,
    /// time balance shrinks the pipeline bubble
    /// (see `snip_ilp::balanced` and the `ablation_pipeline_balance`
    /// experiment).
    TimeBalanced,
}

/// Policy parameters for one scheme decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Efficiency target `E_t` ∈ [0, 1]: the fraction of linear-layer FLOPs
    /// that must run in FP4.
    pub target_fp4: f64,
    /// When set, decompose into this many contiguous pipeline stages and
    /// balance efficiency across them (paper §5.3).
    pub pipeline_stages: Option<usize>,
    /// Target derivation for the pipeline constraint (ignored when
    /// `pipeline_stages` is `None`).
    #[serde(default)]
    pub pipeline_balance: PipelineBalance,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            target_fp4: 0.5,
            pipeline_stages: None,
            pipeline_balance: PipelineBalance::default(),
        }
    }
}

/// Step 5 on SNIP's own tables: the scheme minimizing the analysis'
/// quality loss `q = ΔL + ΔW` under the policy's efficiency constraint.
///
/// # Errors
///
/// Propagates [`SolveError`] (infeasible target or malformed inputs).
pub fn decide_scheme(
    analysis: &Analysis,
    options: &OptionSet,
    cfg: &ModelConfig,
    policy: &PolicyConfig,
    name: impl Into<String>,
) -> Result<Scheme, SolveError> {
    scheme_from_tables(
        &analysis.quality,
        &analysis.efficiency,
        options,
        cfg,
        policy,
        name,
    )
}

/// The one tables → scheme rule, shared by SNIP and every ILP baseline:
/// `quality[i][j]` / `efficiency[i][j]` (layer `i`, option `j` in `options`
/// order) become one multiple-choice knapsack, solved globally or per
/// pipeline stage, and the picks become a [`Scheme`]. A method is its
/// quality table; everything after the table is this function.
///
/// A solve that hits the solver's time limit ([`SolveOptions::default`], the
/// paper's 30 s) still returns its incumbent, but bumps
/// the `snip.solve_unproven` counter — whether or not telemetry collection
/// is on, because the scheme then depends on machine speed and the
/// experiment runner fails a sweep on it (the branch costs nothing until a
/// solve has already spent its whole budget).
///
/// # Errors
///
/// Propagates [`SolveError`] (infeasible target or malformed inputs).
pub fn scheme_from_tables(
    quality: &[Vec<f64>],
    efficiency: &[Vec<f64>],
    options: &OptionSet,
    cfg: &ModelConfig,
    policy: &PolicyConfig,
    name: impl Into<String>,
) -> Result<Scheme, SolveError> {
    let groups: Vec<Vec<Choice>> = quality
        .iter()
        .zip(efficiency)
        .map(|(q, e)| q.iter().zip(e).map(|(&q, &e)| Choice::new(q, e)).collect())
        .collect();
    let n_layers = groups.len();
    let problem = McKnapsack::new(groups, policy.target_fp4);
    let opts = SolveOptions::default();
    let solution = match policy.pipeline_stages {
        None => solve(&problem, &opts)?,
        Some(0) => return Err(SolveError::Invalid("pipeline_stages must be ≥ 1".into())),
        Some(k) => {
            // §5.3: one efficiency constraint per pipeline stage. Stages are
            // whole transformer blocks (the paper's 22-block model splits
            // 6/6/6/4 over 4 stages), so we assign layers to stages through
            // their block index rather than chunking flat layer indices. We
            // balance *relative* to each stage's FLOP share (the behaviour
            // Fig. 12 describes: a short final stage contributes
            // proportionally), which equals the paper's `E_t/K` when stages
            // carry equal FLOPs.
            let stage_of_block = contiguous_stages(cfg.n_layers, k);
            let stage_of: Vec<usize> = (0..n_layers)
                .map(|i| stage_of_block[snip_nn::LayerId::from_linear_index(i).block])
                .collect();
            let flops = FlopModel::new(cfg);
            let mut stage_flops = vec![0.0f64; k];
            for (i, &s) in stage_of.iter().enumerate() {
                stage_flops[s] += flops.fraction(i);
            }
            let targets: Vec<f64> = match policy.pipeline_balance {
                PipelineBalance::Relative => {
                    stage_flops.iter().map(|&f| policy.target_fp4 * f).collect()
                }
                PipelineBalance::TimeBalanced => {
                    snip_ilp::time_balanced_targets(&stage_flops, policy.target_fp4)?
                }
            };
            solve_grouped(&problem, &stage_of, &targets, &opts)?
        }
    };
    if !solution.proven_optimal {
        snip_obs::counter_add("snip.solve_unproven", 1);
    }
    let assignments = solution
        .picks
        .iter()
        .map(|&j| options.options()[j])
        .collect();
    Ok(Scheme::new(name, assignments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::{LinearPrecision, Precision};

    /// Builds a synthetic analysis where the FP4 cost of layer `i` is
    /// `costs[i]` and every layer carries equal FLOPs.
    fn synthetic_analysis(costs: &[f64]) -> (Analysis, OptionSet) {
        let n = costs.len();
        let e_unit = 1.0 / n as f64;
        let analysis = Analysis {
            loss_div: costs.iter().map(|&c| vec![0.0, c / 2.0]).collect(),
            weight_div: costs.iter().map(|&c| vec![0.0, c / 2.0]).collect(),
            quality: costs.iter().map(|&c| vec![1e-6, c]).collect(),
            efficiency: (0..n).map(|_| vec![0.0, e_unit]).collect(),
        };
        (analysis, OptionSet::fp8_fp4())
    }

    fn tiny_cfg() -> ModelConfig {
        ModelConfig::tiny_test() // 2 blocks → 14 linears
    }

    #[test]
    fn half_budget_picks_cheapest_half() {
        let cfg = tiny_cfg();
        let n = cfg.n_linear_layers();
        // Layers 0..7 cheap, 7..14 expensive.
        let costs: Vec<f64> = (0..n).map(|i| if i < 7 { 0.01 } else { 1.0 }).collect();
        let (analysis, options) = synthetic_analysis(&costs);
        let policy = PolicyConfig {
            target_fp4: 0.5,
            ..Default::default()
        };
        let scheme = decide_scheme(&analysis, &options, &cfg, &policy, "test").unwrap();
        for i in 0..n {
            let expect = if i < 7 {
                Precision::Fp4
            } else {
                Precision::Fp8
            };
            assert_eq!(
                scheme.assignments()[i],
                LinearPrecision::uniform(expect),
                "layer {i}"
            );
        }
    }

    #[test]
    fn zero_budget_is_all_fp8_full_budget_all_fp4() {
        let cfg = tiny_cfg();
        let n = cfg.n_linear_layers();
        let (analysis, options) = synthetic_analysis(&vec![1.0; n]);
        let s0 = decide_scheme(
            &analysis,
            &options,
            &cfg,
            &PolicyConfig {
                target_fp4: 0.0,
                ..Default::default()
            },
            "e0",
        )
        .unwrap();
        assert_eq!(s0.fp4_layer_count(), 0);
        let s1 = decide_scheme(
            &analysis,
            &options,
            &cfg,
            &PolicyConfig {
                target_fp4: 1.0,
                ..Default::default()
            },
            "e1",
        )
        .unwrap();
        assert_eq!(s1.fp4_layer_count(), n);
    }

    #[test]
    fn pipeline_constraint_spreads_fp4_across_stages() {
        let cfg = tiny_cfg();
        let n = cfg.n_linear_layers();
        // All cheap layers in the first half — the global optimum would put
        // all FP4 there, but per-stage balancing must move some to stage 2.
        let costs: Vec<f64> = (0..n).map(|i| if i < 7 { 0.01 } else { 1.0 }).collect();
        let (analysis, options) = synthetic_analysis(&costs);
        let policy = PolicyConfig {
            target_fp4: 0.5,
            pipeline_stages: Some(2),
            ..Default::default()
        };
        let scheme = decide_scheme(&analysis, &options, &cfg, &policy, "pp").unwrap();
        let first_half = scheme.assignments()[..7]
            .iter()
            .filter(|&&p| p == LinearPrecision::uniform(Precision::Fp4))
            .count();
        let second_half = scheme.assignments()[7..]
            .iter()
            .filter(|&&p| p == LinearPrecision::uniform(Precision::Fp4))
            .count();
        assert!(
            second_half >= 3,
            "stage 2 got only {second_half} FP4 layers"
        );
        assert!(first_half >= 3);
    }

    #[test]
    fn time_balanced_mode_shifts_fp4_toward_heavy_stages() {
        let cfg = tiny_cfg();
        let n = cfg.n_linear_layers();
        let (analysis, options) = synthetic_analysis(&vec![1.0; n]);
        // Two stages of the 2-block model carry equal FLOPs here, so the
        // two modes agree; this pins that the TimeBalanced path is wired
        // and budget-compliant end to end.
        for balance in [PipelineBalance::Relative, PipelineBalance::TimeBalanced] {
            let policy = PolicyConfig {
                target_fp4: 0.5,
                pipeline_stages: Some(2),
                pipeline_balance: balance,
            };
            let scheme = decide_scheme(&analysis, &options, &cfg, &policy, "tb").unwrap();
            // The budget that was solved is the synthetic table's (14 equal
            // layers), not the real model's FLOP shares: which 7 of 14
            // identical layers go FP4 is the solver's tie-break.
            let achieved: f64 = scheme
                .assignments()
                .iter()
                .zip(&analysis.efficiency)
                .map(|(a, e)| e[options.options().iter().position(|o| o == a).unwrap()])
                .sum();
            assert!(achieved + 1e-9 >= 0.5, "{balance:?} missed the budget");
        }
    }

    #[test]
    fn zero_pipeline_stages_is_a_typed_error() {
        // `Some(0)` is a deserializable config value, not a caller bug.
        let cfg = tiny_cfg();
        let (analysis, options) = synthetic_analysis(&vec![1.0; cfg.n_linear_layers()]);
        let policy = PolicyConfig {
            pipeline_stages: Some(0),
            ..Default::default()
        };
        let err = decide_scheme(&analysis, &options, &cfg, &policy, "k0").unwrap_err();
        assert_eq!(
            err,
            SolveError::Invalid("pipeline_stages must be ≥ 1".into())
        );
    }

    #[test]
    fn infeasible_target_propagates_error() {
        let cfg = tiny_cfg();
        let n = cfg.n_linear_layers();
        let (analysis, options) = synthetic_analysis(&vec![1.0; n]);
        let res = decide_scheme(
            &analysis,
            &options,
            &cfg,
            &PolicyConfig {
                target_fp4: 1.5,
                ..Default::default()
            },
            "bad",
        );
        assert_eq!(res.unwrap_err(), SolveError::Infeasible);
    }
}
