//! Time-equalizing pipeline-stage targets (an extension of §5.3).
//!
//! The paper's grouped constraint (Eq. 5) makes every pipeline stage
//! contribute the same *relative* share of the efficiency target. When
//! stages carry unequal FLOPs — Fig. 12's TinyLlama split is 6/6/6/4
//! blocks — relative balance preserves the 6:6:6:4 stage-*time* ratio, so
//! the short stage still idles in the bubble. This module computes the
//! per-stage FP4 targets that equalize stage **times** instead: put more
//! FP8 (slower, higher quality) in the short stage and more FP4 in the long
//! ones, subject to the same global efficiency target.
//!
//! Under the paper's throughput model (§2.2: FP4 = 2× FP8) every non-FP4
//! GEMM runs in FP8, so a stage holding `C_k` FLOPs of which `f_k` run in
//! FP4 takes
//!
//! ```text
//! time_k = (C_k − f_k)/2 + f_k/4 = C_k/2 − f_k/4
//! ```
//!
//! (in BF16-throughput units). Equalizing `time_k = T` across stages with
//! the budget `Σ f_k = E_t` is a water-filling problem: `f_k =
//! clip(2·C_k − 4·T, 0, C_k)`, with `T` chosen so the budget holds. The
//! clip captures the honest physical limits — a stage cannot exceed all-FP4
//! (`f_k = C_k`), nor run negative FP4 — so when the budget is extreme the
//! result is the *closest achievable* time balance, not a forced equality.
//!
//! The targets feed straight into [`solve_grouped`](crate::solve_grouped)
//! (`snip_core::policy::scheme_from_tables` composes the two under
//! `PipelineBalance::TimeBalanced`); the `ablation_pipeline_balance`
//! experiment measures the resulting bubble reduction against the
//! relative-balance interpretation.

use crate::solve::SolveError;

/// Per-stage FP4 FLOP targets (same units as `stage_flops`) that equalize
/// stage times under the FP8/FP4 throughput model, subject to the global
/// budget `Σ targets = global_target · Σ stage_flops`.
///
/// # Errors
///
/// [`SolveError::Invalid`] if `stage_flops` is empty, contains a
/// non-positive or non-finite entry, or `global_target` is outside
/// `[0, 1]`.
pub fn time_balanced_targets(
    stage_flops: &[f64],
    global_target: f64,
) -> Result<Vec<f64>, SolveError> {
    if stage_flops.is_empty() {
        return Err(SolveError::Invalid("no pipeline stages".into()));
    }
    if let Some(&bad) = stage_flops.iter().find(|&&c| !(c.is_finite() && c > 0.0)) {
        return Err(SolveError::Invalid(format!(
            "stage FLOPs must be positive and finite, got {bad}"
        )));
    }
    if !(0.0..=1.0).contains(&global_target) {
        return Err(SolveError::Invalid(format!(
            "global target {global_target} outside [0, 1]"
        )));
    }
    let total: f64 = stage_flops.iter().sum();
    let budget = global_target * total;

    // Water-fill exactly over the breakpoints of
    //   g(T) = Σ_k clip(2·C_k − 4·T, 0, C_k),
    // which is continuous, piecewise linear and non-increasing in T:
    // stage k saturates at all-FP4 for T ≤ C_k/4 and reaches zero FP4 at
    // T ≥ C_k/2.
    let g = |t: f64| -> f64 {
        stage_flops
            .iter()
            .map(|&c| (2.0 * c - 4.0 * t).clamp(0.0, c))
            .sum()
    };
    let mut breakpoints: Vec<f64> = stage_flops
        .iter()
        .flat_map(|&c| [c / 4.0, c / 2.0])
        .collect();
    breakpoints.push(0.0);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    // Find the segment [lo, hi] where g crosses the budget, then solve the
    // linear equation on it. g(0) = total ≥ budget and g(max C/2) = 0 ≤
    // budget, so a crossing always exists.
    let mut t_star = *breakpoints.last().expect("non-empty breakpoints");
    for w in breakpoints.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let (g_lo, g_hi) = (g(lo), g(hi));
        if g_hi <= budget && budget <= g_lo {
            t_star = if (g_lo - g_hi).abs() < 1e-30 {
                lo
            } else {
                lo + (g_lo - budget) / (g_lo - g_hi) * (hi - lo)
            };
            break;
        }
    }
    let mut targets: Vec<f64> = stage_flops
        .iter()
        .map(|&c| (2.0 * c - 4.0 * t_star).clamp(0.0, c))
        .collect();
    // Remove residual float error so downstream budget checks see an exact
    // total; distribute onto unsaturated stages.
    let drift = budget - targets.iter().sum::<f64>();
    if drift.abs() > 0.0 {
        for (t, &c) in targets.iter_mut().zip(stage_flops) {
            let room = if drift > 0.0 { c - *t } else { *t };
            if room > 0.0 {
                let adjust = drift.abs().min(room) * drift.signum();
                *t += adjust;
                break;
            }
        }
    }
    Ok(targets)
}

/// Stage times `C_k/2 − f_k/4` (BF16-throughput units) for a given per-stage
/// FP4 split — the quantity [`time_balanced_targets`] equalizes.
pub fn stage_times(stage_flops: &[f64], stage_fp4: &[f64]) -> Vec<f64> {
    assert_eq!(stage_flops.len(), stage_fp4.len(), "stage count mismatch");
    stage_flops
        .iter()
        .zip(stage_fp4)
        .map(|(&c, &f)| c / 2.0 - f / 4.0)
        .collect()
}

/// Pipeline-bubble proxy: the time lost to stage imbalance, as
/// `Σ_k (max_time − time_k)` divided by `Σ_k max_time` (0 = perfectly
/// balanced, → 1 = one stage dominates).
pub fn imbalance_fraction(times: &[f64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let lost: f64 = times.iter().map(|&t| max - t).sum();
    lost / (max * times.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::solve_grouped;
    use crate::problem::{Choice, McKnapsack};
    use crate::solve::{Solution, SolveOptions};

    #[test]
    fn targets_sum_to_budget() {
        let flops = [6.0, 6.0, 6.0, 4.0]; // Fig. 12's block split
        for e_t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let t = time_balanced_targets(&flops, e_t).unwrap();
            let total: f64 = t.iter().sum();
            assert!((total - e_t * 22.0).abs() < 1e-9, "E_t={e_t}: Σ={total}");
            for (k, (&f, &c)) in t.iter().zip(&flops).enumerate() {
                assert!((0.0..=c + 1e-12).contains(&f), "stage {k}: {f} vs cap {c}");
            }
        }
    }

    #[test]
    fn equal_stages_get_equal_targets() {
        let t = time_balanced_targets(&[5.0, 5.0, 5.0], 0.6).unwrap();
        for &f in &t {
            assert!((f - 3.0).abs() < 1e-9, "{t:?}");
        }
        let times = stage_times(&[5.0, 5.0, 5.0], &t);
        assert!(times.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn unequal_stages_equalize_times_when_unclipped() {
        // 6/4 split at 50%: relative balance gives times 6/2−3/4·... —
        // time-balance instead solves 3−f0/4 = 2−f1/4 with f0+f1 = 5
        // → f0 = 4.5, f1 = 0.5.
        let flops = [6.0, 4.0];
        let t = time_balanced_targets(&flops, 0.5).unwrap();
        assert!((t[0] - 4.5).abs() < 1e-9, "{t:?}");
        assert!((t[1] - 0.5).abs() < 1e-9, "{t:?}");
        let times = stage_times(&flops, &t);
        assert!((times[0] - times[1]).abs() < 1e-9, "{times:?}");
        // Relative balance would have left a 6:4 time ratio.
        let rel = stage_times(&flops, &[3.0, 2.0]);
        assert!((rel[0] / rel[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn extreme_imbalance_saturates_the_long_stage() {
        // 10/2 split: even all-FP4 on the long stage (time 2.5) is slower
        // than all-FP8 on the short one (time 1.0), so the water-fill pours
        // the entire long stage into FP4 before touching the short stage.
        let flops = [10.0, 2.0];
        let t = time_balanced_targets(&flops, 0.9).unwrap(); // budget 10.8
        assert!((t[0] - 10.0).abs() < 1e-9, "long stage all-FP4: {t:?}");
        assert!((t[1] - 0.8).abs() < 1e-9, "remainder to short stage: {t:?}");
        let times = stage_times(&flops, &t);
        assert!(
            times[0] > times[1],
            "long stage remains the bottleneck: {times:?}"
        );
    }

    #[test]
    fn low_budget_gives_short_stage_no_fp4() {
        // 6/4 at E_t = 0.1 (budget 1.0): equalizing would need negative FP4
        // on the short stage — it clips at zero and the long stage takes
        // the whole budget.
        let flops = [6.0, 4.0];
        let t = time_balanced_targets(&flops, 0.1).unwrap();
        assert!((t[0] - 1.0).abs() < 1e-9, "{t:?}");
        assert!(t[1].abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn endpoints() {
        let flops = [3.0, 7.0];
        let zero = time_balanced_targets(&flops, 0.0).unwrap();
        assert!(zero.iter().all(|&f| f.abs() < 1e-12));
        let one = time_balanced_targets(&flops, 1.0).unwrap();
        assert!((one[0] - 3.0).abs() < 1e-9 && (one[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            time_balanced_targets(&[], 0.5),
            Err(SolveError::Invalid(_))
        ));
        assert!(matches!(
            time_balanced_targets(&[1.0, -2.0], 0.5),
            Err(SolveError::Invalid(_))
        ));
        assert!(matches!(
            time_balanced_targets(&[1.0, f64::NAN], 0.5),
            Err(SolveError::Invalid(_))
        ));
        assert!(matches!(
            time_balanced_targets(&[1.0], 1.5),
            Err(SolveError::Invalid(_))
        ));
    }

    #[test]
    fn imbalance_fraction_behaviour() {
        assert_eq!(imbalance_fraction(&[]), 0.0);
        assert_eq!(imbalance_fraction(&[2.0, 2.0, 2.0]), 0.0);
        // One stage at 4, three at 2: lost = 0+2+2+2 = 6 of 16.
        assert!((imbalance_fraction(&[4.0, 2.0, 2.0, 2.0]) - 6.0 / 16.0).abs() < 1e-12);
        assert_eq!(imbalance_fraction(&[0.0, 0.0]), 0.0);
    }

    /// Two stages with FLOPs 2:1 (groups of capacity 2 and 1). Options per
    /// group: FP8 (e=0) or all-FP4 (e=capacity), equal quality cost.
    fn lopsided_problem() -> (McKnapsack, Vec<usize>) {
        let groups = vec![
            vec![Choice::new(0.0, 0.0), Choice::new(1.0, 2.0)],
            vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
        ];
        (McKnapsack::new(groups, 0.0), vec![0, 1])
    }

    /// The stage FLOPs of [`lopsided_problem`].
    const LOPSIDED_FLOPS: [f64; 2] = [2.0, 1.0];

    /// Water-fill the targets, then solve one knapsack per stage.
    fn water_fill_then_solve(
        p: &McKnapsack,
        stage_of: &[usize],
        stage_flops: &[f64],
        e_t: f64,
    ) -> Result<Solution, SolveError> {
        let targets = time_balanced_targets(stage_flops, e_t)?;
        solve_grouped(p, stage_of, &targets, &SolveOptions::default())
    }

    #[test]
    fn time_balanced_solve_beats_relative_balance_on_bubble() {
        let (p, stages) = lopsided_problem();
        let e_t = 0.5; // 1.5 units of FP4 FLOPs over 3 total
                       // Relative balance: each stage gives e_t · C_k → targets [1.0, 0.5].
                       // Neither group has a half-FP4 option, so the solver upgrades both
                       // to all-FP4 → times [1.0, 0.25] — heavy imbalance.
        let rel = solve_grouped(&p, &stages, &[1.0, 0.5], &SolveOptions::default()).unwrap();
        // Time-balance: water-fill clips the short stage to f = [1.5, 0];
        // only stage 0 must upgrade (to its all-FP4 option, e = 2) and the
        // short stage stays FP8 → times [0.5, 0.5], perfectly flat.
        let bal = water_fill_then_solve(&p, &stages, &LOPSIDED_FLOPS, e_t).unwrap();
        // Each group is its own stage here, so per-stage FP4 = the picked
        // option's efficiency.
        let times_of = |sol: &Solution| {
            let fp4: Vec<f64> = sol
                .picks
                .iter()
                .enumerate()
                .map(|(i, &j)| p.groups[i][j].efficiency)
                .collect();
            stage_times(&LOPSIDED_FLOPS, &fp4)
        };
        let rel_imb = imbalance_fraction(&times_of(&rel));
        let bal_imb = imbalance_fraction(&times_of(&bal));
        assert!(
            bal_imb < rel_imb,
            "time-balanced imbalance {bal_imb} !< relative {rel_imb}"
        );
        // And the flat assignment is also cheaper in quality.
        assert!(bal.objective < rel.objective);
    }

    #[test]
    fn solve_validation_errors() {
        let (p, _) = lopsided_problem();
        // A stage map that misses a group, one that names a stage the
        // targets do not have, and no stages at all.
        let cases: [(&[usize], &[f64]); 3] = [
            (&[0], &LOPSIDED_FLOPS),
            (&[0, 3], &LOPSIDED_FLOPS),
            (&[0, 1], &[]),
        ];
        for (stage_of, flops) in cases {
            assert!(
                matches!(
                    water_fill_then_solve(&p, stage_of, flops, 0.5),
                    Err(SolveError::Invalid(_))
                ),
                "{stage_of:?} over {flops:?}"
            );
        }
    }

    #[test]
    fn budget_respected_through_grouped_solve() {
        let (p, stages) = lopsided_problem();
        let sol = water_fill_then_solve(&p, &stages, &LOPSIDED_FLOPS, 0.5).unwrap();
        // Water-fill budget = E_t · total capacity = 0.5 · 3 = 1.5.
        assert!(sol.efficiency + 1e-9 >= 1.5);
    }
}
