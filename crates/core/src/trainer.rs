//! Training-loop orchestration with periodic SNIP scheme updates and
//! checkpointing.
//!
//! The paper's evaluation protocol (§6.1) resumes pretraining from saved
//! intermediate checkpoints under different quantization schemes. [`Trainer`]
//! packages model + optimizer + data stream + RNG into one serializable unit
//! so experiments can create checkpoints and branch from them exactly.

use crate::engine::SnipEngine;
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use snip_data::BatchStream;
use snip_nn::model::{Model, StepOptions, StepOutput};
use snip_nn::ModelConfig;
use snip_optim::{clip::clip_global_norm, AdamW, AdamWConfig, LrSchedule};
use snip_tensor::rng::Rng;
use std::path::Path;

/// Full trainer configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Model hyperparameters.
    pub model: ModelConfig,
    /// Optimizer hyperparameters.
    pub adamw: AdamWConfig,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Sequences per batch.
    pub batch_size: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Global gradient-norm clip (None = no clipping).
    pub grad_clip: Option<f64>,
    /// Seed for the data stream.
    pub data_seed: u64,
    /// Seed for parameter initialization.
    pub init_seed: u64,
    /// Synthetic-language parameters (vocab is overridden by the model's
    /// vocab size). Defaults match [`snip_data::LanguageConfig::default`].
    #[serde(default)]
    pub language: snip_data::LanguageConfig,
}

impl TrainerConfig {
    /// A small, fast configuration for tests and examples.
    pub fn tiny() -> Self {
        TrainerConfig {
            model: ModelConfig::tiny_test(),
            adamw: AdamWConfig {
                lr: 3e-3,
                ..Default::default()
            },
            schedule: LrSchedule::Constant { lr: 3e-3 },
            batch_size: 2,
            seq_len: 16,
            grad_clip: Some(1.0),
            data_seed: 0,
            init_seed: 0,
            language: snip_data::LanguageConfig::default(),
        }
    }

    /// The same configuration with a different optimizer moment-state
    /// precision (`MomentPrecision::PackedFp8` turns on bit-packed FP8
    /// AdamW moments; master weights stay f32 per paper §4.3.2).
    pub fn with_moment_precision(mut self, moments: snip_optim::MomentPrecision) -> Self {
        self.adamw.moments = moments;
        self
    }
}

/// A resumable trainer (model + optimizer + data + RNG + step counter).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trainer {
    cfg: TrainerConfig,
    /// The model being trained.
    pub model: Model,
    /// The optimizer.
    pub optimizer: AdamW,
    stream: BatchStream,
    rng: Rng,
    step: u64,
    /// Loss of the most recent training step (0.0 before the first step).
    /// Feeds the `"training"` section of the per-run telemetry report;
    /// `default` keeps checkpoints from before this field loadable.
    #[serde(default)]
    last_loss: f64,
    /// Why the most recent SNIP scheme update could not be applied (see
    /// [`Trainer::last_scheme_error`]); `None` while updates succeed.
    #[serde(default)]
    last_scheme_error: Option<String>,
}

impl Trainer {
    /// Builds a fresh trainer.
    ///
    /// # Errors
    ///
    /// Returns the model-config validation message on inconsistency.
    pub fn new(cfg: TrainerConfig) -> Result<Self, String> {
        let model = Model::new(cfg.model.clone(), cfg.init_seed)?;
        let optimizer = AdamW::new(cfg.adamw);
        let language = snip_data::SyntheticLanguage::new(
            snip_data::LanguageConfig {
                vocab: cfg.model.vocab_size,
                ..cfg.language.clone()
            },
            cfg.data_seed,
        );
        let stream = BatchStream::new(language, cfg.data_seed, cfg.batch_size, cfg.seq_len);
        Ok(Trainer {
            rng: Rng::seed_from(cfg.init_seed ^ 0x7841_1234),
            cfg,
            model,
            optimizer,
            stream,
            step: 0,
            last_loss: 0.0,
            last_scheme_error: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Applies a quantization scheme to the model (SNIP Step 6).
    pub fn apply_scheme(&mut self, scheme: &Scheme) {
        scheme.apply(&mut self.model);
    }

    /// Runs one training step; returns the batch loss.
    pub fn train_step(&mut self) -> f64 {
        self.train_step_with_grad_hook(&mut |_| {})
    }

    /// [`Trainer::train_step`] with a gradient hook: after backward fills
    /// the parameter gradients and **before** clipping and the optimizer
    /// update, `hook` gets the model to transform its gradients in place.
    ///
    /// This is the data-parallel integration point — a hook that all-reduces
    /// every `Param::grad_mut` across ranks (e.g. over
    /// `snip_pipeline::transport`) turns `R` trainers on `R` threads into
    /// one synchronous data-parallel run, with clipping and the update
    /// applied to the *reduced* gradient exactly as a real DP trainer does.
    pub fn train_step_with_grad_hook(&mut self, hook: &mut dyn FnMut(&mut Model)) -> f64 {
        self.train_step_output_with_grad_hook(hook).loss
    }

    /// [`Trainer::train_step_with_grad_hook`] returning the full
    /// [`StepOutput`] — loss plus the per-step wall-time breakdown
    /// (`step_ns` / `quantize_ns` / `gemm_ns`, populated when `SNIP_TRACE`
    /// collection is on) that `comm_precision` tabulates. The whole step —
    /// forward/backward, gradient hook, clipping and the optimizer update —
    /// runs under a `"train_step"` telemetry span, and the step count and
    /// latest loss land in the registry (`trainer.steps` counter,
    /// `trainer.loss` gauge).
    pub fn train_step_output_with_grad_hook(
        &mut self,
        hook: &mut dyn FnMut(&mut Model),
    ) -> StepOutput {
        match self.step_core::<std::convert::Infallible>(&mut |model| {
            hook(model);
            Ok(())
        }) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// The fallible step body shared by the infallible and recoverable
    /// paths. A hook error aborts the step **before** clipping, the
    /// optimizer update, the step-count bump and the telemetry counters —
    /// so a failed step has touched exactly four things: the batch-stream
    /// cursor, the trainer RNG, the optimizer's `lr` and the gradient
    /// accumulators. [`Trainer::try_train_step_with_grad_hook`] undoes
    /// those.
    fn step_core<E>(
        &mut self,
        hook: &mut dyn FnMut(&mut Model) -> Result<(), E>,
    ) -> Result<StepOutput, E> {
        let _span = snip_obs::span("train_step");
        let lr = self.cfg.schedule.lr_at(self.step);
        self.optimizer.set_lr(lr);
        let batch = self.stream.next_batch();
        self.model.zero_grads();
        let out = self
            .model
            .step(&batch, &mut self.rng, &StepOptions::train());
        hook(&mut self.model)?;
        if let Some(max) = self.cfg.grad_clip {
            clip_global_norm(&mut self.model, max);
        }
        self.optimizer.update(&mut self.model);
        self.step += 1;
        self.last_loss = out.loss;
        if snip_obs::enabled() {
            snip_obs::counter_add("trainer.steps", 1);
            snip_obs::gauge_set("trainer.loss", out.loss);
        }
        Ok(out)
    }

    /// The recovery hook for distributed training: one training step whose
    /// gradient hook may fail (e.g. an all-reduce over a faulted
    /// transport). On `Ok` the step completed exactly as
    /// [`Trainer::train_step_with_grad_hook`] would have. On `Err` the
    /// step is rolled back, so a retry replays it bit-identically and
    /// reaches the same final state an unfaulted run produces.
    ///
    /// **Rollback contract.** A failed step has not touched parameters,
    /// moments or the step count (see `step_core`). What it has touched is
    /// snapshotted before the step and restored on `Err`: the batch-stream
    /// cursor, the trainer RNG and the optimizer's `lr` — three small
    /// values, no tensor copy. Gradients are not restored but **zeroed**:
    /// they are step-scoped scratch (every step begins with `zero_grads`),
    /// so no later step can observe what they held. A hook must confine
    /// its writes to `Param::grad_mut`.
    ///
    /// # Errors
    ///
    /// Whatever error the hook returned; the step's effects are rolled
    /// back.
    pub fn try_train_step_with_grad_hook<E>(
        &mut self,
        hook: &mut dyn FnMut(&mut Model) -> Result<(), E>,
    ) -> Result<f64, E> {
        let cursor = self.stream.cursor();
        let rng = self.rng.clone();
        let lr = self.optimizer.config().lr;
        self.step_core(hook).map(|out| out.loss).inspect_err(|_| {
            self.stream.rewind(cursor);
            self.rng = rng;
            self.optimizer.set_lr(lr);
            self.model.zero_grads();
        })
    }

    /// Runs `n` steps, returning each step's loss.
    pub fn train(&mut self, n: u64) -> Vec<f64> {
        (0..n).map(|_| self.train_step()).collect()
    }

    /// Runs `n` steps with a periodic SNIP engine — the Fig. 6 integration.
    /// On every step where `engine.is_update_due(step)`, one batch is drawn
    /// for the probe, [`SnipEngine::generate_scheme`] measures, analyzes and
    /// solves on this thread, and the new scheme is installed **before**
    /// that step trains: the scheme measured at step `s` governs step `s`.
    /// Nothing is pending between two steps, so the run is a pure function
    /// of the trainer's state and the engine's configuration — splitting it
    /// into several calls, or saving and loading in between, changes
    /// nothing. Returns each step's loss.
    ///
    /// A scheme update that fails (an infeasible ILP, e.g. a `target_fp4`
    /// the option set cannot reach) does not stop training: the current
    /// scheme stays installed, the solver's message is retained in
    /// [`Trainer::last_scheme_error`] and the `snip.solve_failed` telemetry
    /// counter is bumped.
    pub fn train_with_engine(&mut self, n: u64, engine: &SnipEngine) -> Vec<f64> {
        let mut losses = Vec::with_capacity(n as usize);
        for _ in 0..n {
            if engine.is_update_due(self.step) {
                let batch = self.stream.next_batch();
                let name = format!("snip@step{}", self.step);
                match engine.generate_scheme(
                    &mut self.model,
                    &self.optimizer,
                    &batch,
                    &mut self.rng,
                    name,
                ) {
                    Ok(scheme) => {
                        self.apply_scheme(&scheme);
                        self.last_scheme_error = None;
                    }
                    Err(e) => {
                        if snip_obs::enabled() {
                            snip_obs::counter_add("snip.solve_failed", 1);
                        }
                        self.last_scheme_error = Some(e.to_string());
                    }
                }
            }
            losses.push(self.train_step());
        }
        losses
    }

    /// The solver's message if the most recent scheme update of
    /// [`Trainer::train_with_engine`] failed — training went on under the
    /// scheme it had. `None` once a later update succeeds (or if none ever
    /// failed).
    pub fn last_scheme_error(&self) -> Option<&str> {
        self.last_scheme_error.as_deref()
    }

    /// Mean loss over `batches` held-out batches (fixed by `seed`).
    pub fn validation_loss(&mut self, seed: u64, batches: usize) -> f64 {
        let mut total = 0.0;
        for b in 0..batches {
            let batch = self.stream.validation_batch(seed.wrapping_add(b as u64));
            total += self.model.forward_loss(&batch, &mut self.rng);
        }
        total / batches.max(1) as f64
    }

    /// Draws the next training batch without consuming it for training
    /// (useful for measurement probes).
    pub fn peek_batch(&mut self) -> snip_nn::Batch {
        self.stream.next_batch()
    }

    /// Publishes this trainer's run summary as the `"training"` section of
    /// the telemetry report and writes the run artifacts (the Chrome trace
    /// and `RUN_REPORT.json` next to it) if `SNIP_TRACE` named a path.
    /// Besides steps, world and final loss the section carries SNIP's cost
    /// as a run artifact: `snip_updates` (probes run) and
    /// `snip_overhead_frac` — Σ (`probe::measure` + analyze-and-solve) time
    /// ÷ Σ training-step time over the collected run.
    /// `world` is the number of data-parallel ranks the run used (1 for a
    /// single-trainer run). Returns the artifact paths, or `Ok(None)` when
    /// collection is off or no path was configured. Safe to call after
    /// `data_parallel_train` already flushed: the flush is idempotent and
    /// rewrites the artifacts from the full registry state.
    ///
    /// # Errors
    ///
    /// I/O failures writing the artifacts.
    pub fn write_run_report(&self, world: usize) -> std::io::Result<Option<snip_obs::Artifacts>> {
        if snip_obs::enabled() {
            use serde::Content;
            // Process-wide telemetry sums: every probe and every training
            // step of the run, whichever trainer ran them.
            let snip_updates = snip_obs::hist_snapshot("snip.measure").map_or(0, |h| h.count);
            let step_ns = snip_obs::hist_snapshot("train_step").map_or(0, |h| h.sum);
            let solve_ns = snip_obs::hist_snapshot("snip.solve").map_or(0, |h| h.sum);
            let snip_ns = snip_obs::counter_value("snip.measure_ns") + solve_ns;
            let mut training = vec![
                ("steps".into(), Content::U64(self.step)),
                ("world".into(), Content::U64(world as u64)),
                ("final_loss".into(), Content::F64(self.last_loss)),
                ("snip_updates".into(), Content::U64(snip_updates)),
            ];
            if step_ns > 0 {
                training.push((
                    "snip_overhead_frac".into(),
                    Content::F64(snip_ns as f64 / step_ns as f64),
                ));
            }
            snip_obs::report::set_section("training", Content::Map(training));
        }
        snip_obs::flush()
    }

    /// Saves the full trainer state as JSON.
    ///
    /// # Errors
    ///
    /// I/O or serialization failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), std::io::Error> {
        let json = serde_json::to_vec(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Restores a trainer saved by [`Trainer::save`].
    ///
    /// # Errors
    ///
    /// I/O or deserialization failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, std::io::Error> {
        let bytes = std::fs::read(path)?;
        serde_json::from_slice(&bytes).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SnipConfig;
    use crate::policy::PolicyConfig;

    #[test]
    fn training_reduces_loss() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let first = t.train(5).iter().sum::<f64>() / 5.0;
        let _ = t.train(60);
        let last = t.train(5).iter().sum::<f64>() / 5.0;
        assert!(last < first, "loss {first} -> {last}");
        assert_eq!(t.step_count(), 70);
    }

    #[test]
    fn grad_hook_sees_fresh_gradients_and_identity_hook_matches_train_step() {
        let mut plain = Trainer::new(TrainerConfig::tiny()).unwrap();
        let mut hooked = Trainer::new(TrainerConfig::tiny()).unwrap();
        let a = plain.train(3);
        let mut calls = 0usize;
        let b: Vec<f64> = (0..3)
            .map(|_| {
                hooked.train_step_with_grad_hook(&mut |model| {
                    calls += 1;
                    assert!(model.grad_norm() > 0.0, "hook must run after backward");
                })
            })
            .collect();
        assert_eq!(a, b, "an observing hook must not change the trajectory");
        assert_eq!(calls, 3);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let dir = std::env::temp_dir().join("snip_trainer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(10);
        t.save(&path).unwrap();
        let mut restored = Trainer::load(&path).unwrap();
        assert_eq!(restored.step_count(), t.step_count());
        // Continuing from the checkpoint must match continuing the original.
        let a = t.train(3);
        let b = restored.train(3);
        assert_eq!(a, b, "checkpoint resume must be bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_step_rolls_back_to_bit_identical_state() {
        use snip_optim::MomentPrecision;
        // A warm-up schedule moves `lr` every step, so a rollback that forgot
        // the optimizer's `lr` would show; packed moments are the state a
        // deep-copy rollback paid most for and this one must not touch.
        let mut cfg = TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8);
        cfg.schedule = LrSchedule::CosineWithWarmup {
            base: 3e-3,
            warmup: 8,
            total_steps: 40,
            min_lr: 1e-4,
        };
        let zeroed = |t: &Trainer| {
            let mut t = t.clone();
            t.model.zero_grads();
            serde_json::to_vec(&t).unwrap()
        };
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let mut calm = Trainer::new(cfg).unwrap();
        let _ = t.train(4);
        let _ = calm.train(4);
        let before = zeroed(&t);
        // The hook trashes every gradient and *then* fails — twice in a row.
        for attempt in 0..2 {
            let failed = t.try_train_step_with_grad_hook(&mut |model| {
                model.visit_params_mut(&mut |p| p.grad_mut().as_mut_slice().fill(f32::NAN));
                Err("link died")
            });
            assert_eq!(failed, Err("link died"));
            assert_eq!(t.step_count(), 4);
            assert_eq!(
                serde_json::to_vec(&t).unwrap(),
                before,
                "attempt {attempt}: a failed step leaves the pre-step state with zeroed gradients"
            );
        }
        // The retried step and three more match a trainer that never faulted:
        // losses and every parameter (and everything else that serializes).
        let retried: Vec<f64> = (0..4)
            .map(|_| {
                t.try_train_step_with_grad_hook::<&str>(&mut |_| Ok(()))
                    .unwrap()
            })
            .collect();
        assert_eq!(retried, calm.train(4));
        assert_eq!(t.step_count(), 8);
        assert_eq!(
            serde_json::to_vec(&t).unwrap(),
            serde_json::to_vec(&calm).unwrap()
        );
    }

    #[test]
    fn scheme_application_persists_through_steps() {
        use snip_quant::Precision;
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let scheme = Scheme::uniform(Precision::Fp4, t.config().model.n_linear_layers());
        t.apply_scheme(&scheme);
        let _ = t.train(3);
        assert_eq!(t.model.scheme(), scheme.assignments());
    }

    #[test]
    fn engine_integration_applies_schemes_periodically() {
        let cfg = TrainerConfig::tiny();
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let _ = t.train(5); // warm the optimizer
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 0.5,
                    ..Default::default()
                },
                update_period: 5,
                ..Default::default()
            },
            cfg.model.clone(),
        );
        let losses = t.train_with_engine(20, &engine);
        assert_eq!(losses.len(), 20);
        assert!(losses.iter().all(|l| l.is_finite()));
        // After at least one update cycle the model should not be uniformly
        // BF16 anymore.
        use snip_quant::{LinearPrecision, Precision};
        let scheme = t.model.scheme();
        assert!(
            scheme
                .iter()
                .any(|&p| p != LinearPrecision::uniform(Precision::Bf16)),
            "engine never applied a scheme"
        );
    }

    #[test]
    fn failed_scheme_update_is_retained_and_training_continues() {
        let cfg = TrainerConfig::tiny();
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let _ = t.train(5);
        // No option set reaches 150 % FP4: every solve is infeasible.
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 1.5,
                    ..Default::default()
                },
                update_period: 5,
                ..Default::default()
            },
            cfg.model.clone(),
        );
        let scheme_before = t.model.scheme();
        assert_eq!(t.last_scheme_error(), None);
        let _collect = snip_obs::enabled_scope(true);
        let failed_before = snip_obs::counter_value("snip.solve_failed");
        // Step 5 is the first due step: its solve fails before it trains.
        let mut losses = t.train_with_engine(1, &engine);
        assert_eq!(t.last_scheme_error(), Some("efficiency target unreachable"));
        assert!(snip_obs::counter_value("snip.solve_failed") > failed_before);
        assert_eq!(
            t.model.scheme(),
            scheme_before,
            "the current scheme stays installed"
        );
        losses.extend(t.train_with_engine(3, &engine));
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn packed_fp8_moments_train_and_checkpoint_exactly() {
        use snip_optim::MomentPrecision;
        let cfg = TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8);
        let mut t = Trainer::new(cfg).unwrap();
        let first = t.train(5).iter().sum::<f64>() / 5.0;
        let _ = t.train(40);
        let last = t.train(5).iter().sum::<f64>() / 5.0;
        assert!(last < first, "loss {first} -> {last}");

        // Packed moment state must be measurably smaller than the f32 run's.
        let mut dense = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = dense.train(5);
        let ratio =
            dense.optimizer.moment_state_bytes() as f64 / t.optimizer.moment_state_bytes() as f64;
        assert!(ratio >= 3.0, "moment bytes only {ratio:.2}x smaller");

        // Checkpoint resume stays bit-exact with packed moments: the codes
        // and scales serialize verbatim.
        let dir =
            std::env::temp_dir().join(format!("snip_trainer_packed_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        t.save(&path).unwrap();
        let mut restored = Trainer::load(&path).unwrap();
        let a = t.train(3);
        let b = restored.train(3);
        assert_eq!(a, b, "packed-moment resume must be bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn packed_moments_stay_within_divergence_tolerance_of_f32() {
        // The §4.3.2-style sanity check at the trainer level: swapping the
        // moment storage must not change training quality beyond the noise
        // the paper's divergence tolerance allows.
        use snip_optim::MomentPrecision;
        let mut dense = Trainer::new(TrainerConfig::tiny()).unwrap();
        let mut packed =
            Trainer::new(TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8))
                .unwrap();
        let _ = dense.train(60);
        let _ = packed.train(60);
        let dense_val = dense.validation_loss(3, 4);
        let packed_val = packed.validation_loss(3, 4);
        assert!(
            (packed_val / dense_val - 1.0).abs() < 0.05,
            "packed-moment validation loss {packed_val} vs f32 {dense_val}"
        );
    }

    #[test]
    fn validation_loss_is_deterministic_given_seed() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(5);
        let a = t.validation_loss(9, 2);
        let b = t.validation_loss(9, 2);
        assert_eq!(a, b);
    }
}
