//! The periodic SNIP workflow engine (paper Fig. 6 / §3).
//!
//! One synchronous code path: Steps 1–3 (statistics + probes,
//! [`measure`]), Step 4 (divergence analysis, [`analyze`]) and Step 5 (the
//! ILP, [`decide_scheme`]) all run on the calling thread, and the caller
//! applies the returned scheme (Step 6) before its next training step. The
//! paper offloads Steps 4–5 to the CPU so the GPUs keep training; on this
//! CPU simulator they cost ≈ 0.03 ms per update against a ≈ 300 ms step
//! (`core.analyze_ms` + `core.decide_ms` in `benchmark/`), so there is
//! nothing to overlap — and running them in line makes the whole loop a
//! pure function of seed and step. [`SnipEngine`] is plain data and `Sync`.

use crate::divergence::analyze;
use crate::options::{FlopModel, OptionSet};
use crate::policy::{decide_scheme, PolicyConfig};
use crate::probe::{measure, SnipMeasurement};
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use snip_ilp::SolveError;
use snip_nn::{Batch, Model, ModelConfig};
use snip_optim::AdamW;
use snip_tensor::rng::Rng;

/// Engine configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SnipConfig {
    /// ILP policy (efficiency target, time limit, pipeline stages).
    pub policy: PolicyConfig,
    /// Candidate precision options per layer.
    pub options: OptionSet,
    /// Probe noise norm `ε` (Steps 2–3).
    pub probe_epsilon: f64,
    /// Steps between scheme regenerations (the paper recommends ~100k steps
    /// at full scale; scaled-down runs use far fewer).
    pub update_period: u64,
}

impl Default for SnipConfig {
    fn default() -> Self {
        SnipConfig {
            policy: PolicyConfig::default(),
            options: OptionSet::default(),
            probe_epsilon: 1e-2,
            update_period: 100,
        }
    }
}

/// The Fig. 6 scheme generator: configuration plus the model's FLOP table.
#[derive(Debug)]
pub struct SnipEngine {
    cfg: SnipConfig,
    model_cfg: ModelConfig,
    flops: FlopModel,
}

impl SnipEngine {
    /// Creates the engine for models of shape `model_cfg`.
    pub fn new(cfg: SnipConfig, model_cfg: ModelConfig) -> Self {
        let flops = FlopModel::new(&model_cfg);
        SnipEngine {
            cfg,
            model_cfg,
            flops,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &SnipConfig {
        &self.cfg
    }

    /// Whether a scheme regeneration is due at `step`.
    pub fn is_update_due(&self, step: u64) -> bool {
        self.cfg.update_period > 0 && step > 0 && step.is_multiple_of(self.cfg.update_period)
    }

    /// Runs Steps 1–5 and returns the new scheme.
    ///
    /// # Errors
    ///
    /// The solver's error if the ILP is infeasible or malformed.
    pub fn generate_scheme(
        &self,
        model: &mut Model,
        optimizer: &AdamW,
        batch: &Batch,
        rng: &mut Rng,
        name: impl Into<String>,
    ) -> Result<Scheme, SolveError> {
        let measurement = measure(model, optimizer, batch, rng, self.cfg.probe_epsilon);
        self.analyze_and_solve(&measurement, name)
    }

    /// Runs only Steps 4–5 on an existing measurement, under a `snip.solve`
    /// telemetry span.
    ///
    /// # Errors
    ///
    /// The solver's error if the ILP is infeasible or malformed.
    pub fn analyze_and_solve(
        &self,
        measurement: &SnipMeasurement,
        name: impl Into<String>,
    ) -> Result<Scheme, SolveError> {
        let _span = snip_obs::span("snip.solve");
        let analysis = analyze(measurement, &self.model_cfg, &self.cfg.options, &self.flops);
        decide_scheme(
            &analysis,
            &self.cfg.options,
            &self.model_cfg,
            &self.cfg.policy,
            name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_nn::model::StepOptions;
    use snip_optim::AdamWConfig;
    use snip_quant::{LinearPrecision, Precision};

    fn setup() -> (Model, AdamW, Batch, Rng, ModelConfig) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 51).unwrap();
        let mut rng = Rng::seed_from(52);
        let batch = Batch::from_sequences(
            &[
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                vec![8, 6, 4, 2, 1, 3, 5, 7, 9],
            ],
            8,
        );
        let mut opt = AdamW::new(AdamWConfig::default());
        for _ in 0..2 {
            model.zero_grads();
            let _ = model.step(&batch, &mut rng, &StepOptions::train());
            opt.update(&mut model);
        }
        (model, opt, batch, rng, cfg)
    }

    fn engine(target: f64, cfg: &ModelConfig) -> SnipEngine {
        SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: target,
                    ..Default::default()
                },
                ..Default::default()
            },
            cfg.clone(),
        )
    }

    #[test]
    fn sync_scheme_meets_budget() {
        let (mut model, opt, batch, mut rng, cfg) = setup();
        let eng = engine(0.5, &cfg);
        let scheme = eng
            .generate_scheme(&mut model, &opt, &batch, &mut rng, "snip@50")
            .unwrap();
        let flops = FlopModel::new(&cfg);
        assert!(scheme.fp4_fraction(&flops) + 1e-9 >= 0.5);
        assert!(scheme.fp4_layer_count() > 0);
        assert!(scheme.fp4_layer_count() < cfg.n_linear_layers());
    }

    #[test]
    fn extreme_budgets_are_uniform() {
        let (mut model, opt, batch, mut rng, cfg) = setup();
        let flops = FlopModel::new(&cfg);
        let e0 = engine(0.0, &cfg)
            .generate_scheme(&mut model, &opt, &batch, &mut rng, "e0")
            .unwrap();
        assert_eq!(e0.fp4_layer_count(), 0);
        assert_eq!(e0.fp4_fraction(&flops), 0.0);
        let e1 = engine(1.0, &cfg)
            .generate_scheme(&mut model, &opt, &batch, &mut rng, "e1")
            .unwrap();
        assert_eq!(e1.fp4_layer_count(), cfg.n_linear_layers());
        assert!(e1
            .assignments()
            .iter()
            .all(|&p| p == LinearPrecision::uniform(Precision::Fp4)));
    }

    #[test]
    fn engine_is_shareable_across_rank_threads() {
        fn sync<T: Sync>() {}
        sync::<SnipEngine>();
    }

    #[test]
    fn update_schedule() {
        let (.., cfg) = setup();
        let eng = engine(0.5, &cfg);
        assert!(!eng.is_update_due(0));
        assert!(eng.is_update_due(eng.config().update_period));
        assert!(!eng.is_update_due(eng.config().update_period + 1));
    }
}
