//! Baseline quantization schemes: the paper's §6.1 comparison set and the
//! related-work sensitivity heuristics it positions itself against (§1, §7).
//!
//! * **Uniform precision**: BF16, FP8 or FP4 everywhere
//!   ([`Scheme::uniform`]).
//! * **min-abs-err / min-rel-err**: the same ILP as SNIP but with quality
//!   defined by *local* quantization error (absolute or relative), ignoring
//!   training dynamics — the fine-grained error-minimization baselines.
//! * **fisher** (FGMP-style \[32\]): the same ILP with layer sensitivity
//!   as the squared first-order loss perturbation — squared gradient norms
//!   (the empirical Fisher) times squared quantization error — for the
//!   *forward* operands only. This is the "impact on loss in the forward
//!   pass only" family (§7): no weight-divergence term, no optimizer
//!   dynamics, no cross-layer propagation.
//! * **E-layer-type**: empirical, keeps the sensitive MLP Gate/Up
//!   projections in FP8, FP4 elsewhere (Fig. 9 caption).
//! * **E-layer-id**: empirical, FP4 for the middle layers, FP8 for the first
//!   and last layers.
//! * **random**: random per-layer assignment meeting the budget.
//! * **Greedy iterative refinement** (BitSET \[56\] / HAQ \[72\] flavour):
//!   instead of solving the ILP, start from the all-FP4 assignment and
//!   repeatedly upgrade the single most cost-effective layer to FP8 while
//!   the efficiency budget still holds. Running it on SNIP's own quality
//!   metric isolates the value of *global* optimization (§5.2's claim that
//!   the ILP "ensures globally optimal solutions") from the value of the
//!   metric itself — the solver comparison in `baselines_extended`.
//!
//! The three ILP baselines differ only in the quality table they define;
//! the table → knapsack → scheme path is
//! [`scheme_from_tables`], SNIP's own.
//! All produce budget-compliant [`Scheme`]s directly comparable to SNIP's.

use crate::options::{FlopModel, OptionSet};
use crate::policy::{scheme_from_tables, PolicyConfig};
use crate::scheme::Scheme;
use crate::stats::{LayerStats, StepStats};
use snip_ilp::SolveError;
use snip_nn::{LayerId, LayerKind, ModelConfig};
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::rng::Rng;

/// Local error metric used by the error-minimization baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorMetric {
    /// Absolute quantization error `‖q(t) − t‖_F`, summed over X, W, ∇Y.
    Absolute,
    /// Relative quantization error `‖q(t) − t‖_F / ‖t‖_F`, summed.
    Relative,
}

/// An ILP baseline over the standard {FP8, FP4} pair: `quality_of` scores
/// one layer under one option from its Step-1 statistics, efficiency is the
/// FLOP model's, and the default policy (30 s cap, no stage constraint)
/// solves for `target_fp4`.
fn ilp_baseline(
    stats: &StepStats,
    cfg: &ModelConfig,
    target_fp4: f64,
    name: String,
    quality_of: impl Fn(&LayerStats, LinearPrecision) -> f64,
) -> Result<Scheme, SolveError> {
    let options = OptionSet::fp8_fp4();
    let flops = FlopModel::new(cfg);
    let opts = options.options();
    let quality: Vec<Vec<f64>> = stats
        .layers
        .iter()
        .map(|l| opts.iter().map(|&opt| quality_of(l, opt)).collect())
        .collect();
    let efficiency: Vec<Vec<f64>> = (0..stats.layers.len())
        .map(|i| opts.iter().map(|&opt| flops.efficiency(i, opt)).collect())
        .collect();
    let policy = PolicyConfig {
        target_fp4,
        ..Default::default()
    };
    scheme_from_tables(&quality, &efficiency, &options, cfg, &policy, name)
}

/// `min-abs-err` / `min-rel-err`: ILP-optimal layer selection under a local
/// error objective (paper §6.1: "For a fair comparison, we also use the ILP
/// solver ... where the quality loss Q is the absolute or relative
/// quantization error").
///
/// # Errors
///
/// Propagates solver failures (e.g. infeasible budget).
pub fn error_minimizing_scheme(
    stats: &StepStats,
    cfg: &ModelConfig,
    metric: ErrorMetric,
    target_fp4: f64,
) -> Result<Scheme, SolveError> {
    let label = match metric {
        ErrorMetric::Absolute => "abs",
        ErrorMetric::Relative => "rel",
    };
    let name = format!("min-{label}-err@{:.0}", target_fp4 * 100.0);
    ilp_baseline(stats, cfg, target_fp4, name, |l, opt| match metric {
        ErrorMetric::Absolute => {
            l.x_err.get(opt.input) + l.w_err.get(opt.weight) + l.dy_err.get(opt.grad)
        }
        ErrorMetric::Relative => {
            l.x_err.get(opt.input) / l.x_norm.max(1e-12)
                + l.w_err.get(opt.weight) / l.w_norm.max(1e-12)
                + l.dy_err.get(opt.grad) / l.dy_norm.max(1e-12)
        }
    })
}

/// Fisher-style forward-only sensitivity of one layer under one option:
/// `(‖∇X‖·‖δX‖)²/(M·K) + (‖∇W‖·‖δW‖)²/(N·K)`.
///
/// Squaring is what makes this "Fisher": the empirical Fisher information
/// is the squared gradient, so the score is the quadratic form
/// `δᵀ·F·δ` under the usual diagonal approximation, rather than SNIP's
/// first-order norm estimate.
pub(crate) fn fisher_sensitivity(stats: &LayerStats, option: LinearPrecision) -> f64 {
    let m = stats.tokens as f64;
    let n = stats.out_features as f64;
    let k = stats.in_features as f64;
    let x_term = (stats.dx_norm * stats.x_err.get(option.input)).powi(2) / (m * k);
    let w_term = (stats.dw_norm * stats.w_err.get(option.weight)).powi(2) / (n * k);
    x_term + w_term
}

/// `fisher`: ILP-optimal selection under the Fisher forward-only
/// sensitivity (the FGMP-style baseline).
///
/// # Errors
///
/// Propagates solver failures (e.g. an infeasible budget).
pub fn fisher_scheme(
    stats: &StepStats,
    cfg: &ModelConfig,
    target_fp4: f64,
) -> Result<Scheme, SolveError> {
    let name = format!("fisher@{:.0}", target_fp4 * 100.0);
    ilp_baseline(stats, cfg, target_fp4, name, fisher_sensitivity)
}

/// `E-layer-type`: FP8 for the MLP Gate/Up projections, FP4 elsewhere.
pub fn e_layer_type(cfg: &ModelConfig) -> Scheme {
    let assignments = LayerId::enumerate(cfg.n_layers)
        .iter()
        .map(|id| {
            if matches!(id.kind, LayerKind::Gate | LayerKind::Up) {
                LinearPrecision::uniform(Precision::Fp8)
            } else {
                LinearPrecision::uniform(Precision::Fp4)
            }
        })
        .collect();
    Scheme::new("E-layer-type", assignments)
}

/// `E-layer-id`: FP4 for the middle layers, FP8 for the outermost blocks;
/// the FP4 window is sized to (approximately) meet the budget.
pub fn e_layer_id(cfg: &ModelConfig, target_fp4: f64) -> Scheme {
    let n_blocks = cfg.n_layers;
    let flops = FlopModel::new(cfg);
    // Grow a centered window of FP4 blocks until the budget is met: visit
    // center, center−1, center+1, center−2, … — every block exactly once.
    let mut scheme: Vec<LinearPrecision> =
        vec![LinearPrecision::uniform(Precision::Fp8); cfg.n_linear_layers()];
    let center = n_blocks / 2;
    for i in 0..n_blocks {
        if flops.scheme_fp4_fraction(&scheme) + 1e-12 >= target_fp4 {
            break;
        }
        let d = i.div_ceil(2);
        let b = if i % 2 == 1 { center - d } else { center + d };
        for kind in LayerKind::ALL {
            scheme[LayerId::new(b, kind).linear_index()] = LinearPrecision::uniform(Precision::Fp4);
        }
    }
    Scheme::new(format!("E-layer-id@{:.0}", target_fp4 * 100.0), scheme)
}

/// `random`: assigns FP4 to uniformly random layers until the budget is met.
pub fn random_scheme(cfg: &ModelConfig, target_fp4: f64, seed: u64) -> Scheme {
    let mut rng = Rng::seed_from(seed);
    let flops = FlopModel::new(cfg);
    let n = cfg.n_linear_layers();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut assignments = vec![LinearPrecision::uniform(Precision::Fp8); n];
    for &i in &order {
        if flops.scheme_fp4_fraction(&assignments) + 1e-12 >= target_fp4 {
            break;
        }
        assignments[i] = LinearPrecision::uniform(Precision::Fp4);
    }
    Scheme::new(
        format!("random{seed}@{:.0}", target_fp4 * 100.0),
        assignments,
    )
}

/// Greedy iterative refinement over arbitrary per-layer option tables.
///
/// Starts every layer at its highest-efficiency option (all-FP4 for the
/// standard set), then repeatedly applies the single option change with the
/// best quality-improvement-per-efficiency-lost ratio that keeps the total
/// efficiency at or above `target`. Stops when no improving move fits the
/// budget. `quality[i][j]` / `efficiency[i][j]` index layer `i`, option `j`
/// in `options` order — the same tables the ILP consumes, so the two
/// solvers are directly comparable.
///
/// # Errors
///
/// [`SolveError::Invalid`] on shape mismatches; [`SolveError::Infeasible`]
/// if even the all-max-efficiency assignment misses the target.
pub fn greedy_refinement(
    quality: &[Vec<f64>],
    efficiency: &[Vec<f64>],
    options: &OptionSet,
    target: f64,
    name: impl Into<String>,
) -> Result<Scheme, SolveError> {
    let n_layers = quality.len();
    if efficiency.len() != n_layers {
        return Err(SolveError::Invalid(format!(
            "quality covers {n_layers} layers, efficiency {}",
            efficiency.len()
        )));
    }
    for (i, (q, e)) in quality.iter().zip(efficiency).enumerate() {
        if q.len() != options.len() || e.len() != options.len() {
            return Err(SolveError::Invalid(format!(
                "layer {i} has {} quality / {} efficiency entries for {} options",
                q.len(),
                e.len(),
                options.len()
            )));
        }
        if q.iter().chain(e).any(|v| !v.is_finite()) {
            return Err(SolveError::Invalid(format!(
                "layer {i} has non-finite quality/efficiency values"
            )));
        }
    }

    // Start from the highest-efficiency option per layer (ties → lower q).
    let mut picks: Vec<usize> = (0..n_layers)
        .map(|i| {
            (0..options.len())
                .max_by(|&a, &b| {
                    (efficiency[i][a], -quality[i][a])
                        .partial_cmp(&(efficiency[i][b], -quality[i][b]))
                        .expect("finite tables")
                })
                .expect("non-empty option set")
        })
        .collect();
    let mut total_e: f64 = picks
        .iter()
        .enumerate()
        .map(|(i, &j)| efficiency[i][j])
        .sum();
    if total_e + 1e-12 < target {
        return Err(SolveError::Infeasible);
    }

    loop {
        // Best improving move: maximize Δq/Δe (Δe = 0 → take immediately).
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n_layers {
            let j = picks[i];
            for j2 in 0..options.len() {
                let dq = quality[i][j] - quality[i][j2];
                if dq <= 0.0 {
                    continue;
                }
                let de = efficiency[i][j] - efficiency[i][j2];
                if total_e - de + 1e-12 < target {
                    continue;
                }
                let ratio = if de <= 0.0 { f64::INFINITY } else { dq / de };
                if best.is_none_or(|(_, _, r)| ratio > r) {
                    best = Some((i, j2, ratio));
                }
            }
        }
        match best {
            Some((i, j2, _)) => {
                total_e -= efficiency[i][picks[i]] - efficiency[i][j2];
                picks[i] = j2;
            }
            None => break,
        }
    }
    let assignments = picks.iter().map(|&j| options.options()[j]).collect();
    Ok(Scheme::new(name, assignments))
}

/// `greedy` on SNIP's own divergence analysis: the solver ablation — same
/// quality metric, greedy instead of ILP.
///
/// # Errors
///
/// Propagates [`greedy_refinement`] failures.
pub fn greedy_snip_scheme(
    analysis: &crate::divergence::Analysis,
    options: &OptionSet,
    target_fp4: f64,
) -> Result<Scheme, SolveError> {
    greedy_refinement(
        &analysis.quality,
        &analysis.efficiency,
        options,
        target_fp4,
        format!("greedy-snip@{:.0}", target_fp4 * 100.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::measure;
    use snip_nn::{batch::Batch, model::Model};
    use snip_optim::{AdamW, AdamWConfig};

    fn stats_for(cfg: &ModelConfig) -> StepStats {
        let mut model = Model::new(cfg.clone(), 41).unwrap();
        let mut rng = Rng::seed_from(42);
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![2, 3, 5, 7, 11, 13, 1, 4, 6],
            ],
            8,
        );
        let opt = AdamW::new(AdamWConfig::default());
        measure(&mut model, &opt, &batch, &mut rng, 1e-2).stats
    }

    #[test]
    fn error_minimizers_meet_budget() {
        let cfg = ModelConfig::tiny_test();
        let stats = stats_for(&cfg);
        let flops = FlopModel::new(&cfg);
        for metric in [ErrorMetric::Absolute, ErrorMetric::Relative] {
            for budget in [0.25, 0.5, 0.75] {
                let s = error_minimizing_scheme(&stats, &cfg, metric, budget).unwrap();
                let got = s.fp4_fraction(&flops);
                assert!(got + 1e-9 >= budget, "{metric:?}@{budget}: {got}");
            }
        }
    }

    #[test]
    fn abs_and_rel_can_differ() {
        let cfg = ModelConfig::tiny_test();
        let stats = stats_for(&cfg);
        let a = error_minimizing_scheme(&stats, &cfg, ErrorMetric::Absolute, 0.5).unwrap();
        let r = error_minimizing_scheme(&stats, &cfg, ErrorMetric::Relative, 0.5).unwrap();
        // Not a hard guarantee, but with heterogeneous norms the two metrics
        // should usually pick different layers; assert they at least produce
        // valid schemes of the right size.
        assert_eq!(a.n_layers(), cfg.n_linear_layers());
        assert_eq!(r.n_layers(), cfg.n_linear_layers());
    }

    #[test]
    fn e_layer_type_structure() {
        let cfg = ModelConfig::tiny_test();
        let s = e_layer_type(&cfg);
        for id in LayerId::enumerate(cfg.n_layers) {
            let expect = if matches!(id.kind, LayerKind::Gate | LayerKind::Up) {
                Precision::Fp8
            } else {
                Precision::Fp4
            };
            assert_eq!(s.layer(id), LinearPrecision::uniform(expect), "{id}");
        }
    }

    #[test]
    fn e_layer_id_puts_fp4_in_middle() {
        let cfg = ModelConfig::tinyllama_1b_sim();
        let s = e_layer_id(&cfg, 0.5);
        let flops = FlopModel::new(&cfg);
        assert!(s.fp4_fraction(&flops) >= 0.5 - 1e-9);
        // Middle block is FP4, first and last are FP8.
        let mid = LayerId::new(cfg.n_layers / 2, LayerKind::Q);
        let first = LayerId::new(0, LayerKind::Q);
        let last = LayerId::new(cfg.n_layers - 1, LayerKind::Q);
        assert_eq!(s.layer(mid), LinearPrecision::uniform(Precision::Fp4));
        assert_eq!(s.layer(first), LinearPrecision::uniform(Precision::Fp8));
        assert_eq!(s.layer(last), LinearPrecision::uniform(Precision::Fp8));
    }

    #[test]
    fn e_layer_id_full_budget_reaches_every_block() {
        // The visiting order must cover block 0 too (even, odd and the
        // paper's block counts).
        for n_layers in [2, 3, 22] {
            let cfg = ModelConfig {
                n_layers,
                ..ModelConfig::tiny_test()
            };
            let s = e_layer_id(&cfg, 1.0);
            assert_eq!(s.fp4_layer_count(), cfg.n_linear_layers(), "{n_layers}");
        }
    }

    #[test]
    fn random_schemes_meet_budget_and_differ_by_seed() {
        let cfg = ModelConfig::tinyllama_1b_sim();
        let flops = FlopModel::new(&cfg);
        let s0 = random_scheme(&cfg, 0.5, 0);
        let s1 = random_scheme(&cfg, 0.5, 1);
        assert!(s0.fp4_fraction(&flops) >= 0.5 - 1e-9);
        assert!(s1.fp4_fraction(&flops) >= 0.5 - 1e-9);
        assert_ne!(s0.assignments(), s1.assignments());
    }
}
