//! Training-loop orchestration with periodic SNIP scheme updates and
//! checkpointing.
//!
//! The paper's evaluation protocol (§6.1) resumes pretraining from saved
//! intermediate checkpoints under different quantization schemes. [`Trainer`]
//! packages model + optimizer + data stream + RNG into one resumable unit,
//! and [`Trainer::save`] / [`Trainer::load`] persist it bit for bit so
//! experiments can create checkpoints and branch from them exactly.

use crate::engine::SnipEngine;
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use snip_data::BatchStream;
use snip_nn::model::{Model, StepOptions, StepOutput};
use snip_nn::ModelConfig;
use snip_optim::{clip::clip_global_norm, AdamW, AdamWConfig, LrSchedule};
use snip_quant::wire::{read_file_frame, write_file_frame, FieldError, Fields, Writer};
use snip_tensor::arena;
use snip_tensor::rng::Rng;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
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
#[derive(Clone, Debug)]
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
    /// Feeds the `"training"` section of the per-run telemetry report.
    last_loss: f64,
    /// Why the most recent SNIP scheme update could not be applied (see
    /// [`Trainer::last_scheme_error`]); `None` while updates succeed.
    last_scheme_error: Option<String>,
}

impl Trainer {
    /// Builds a fresh trainer.
    ///
    /// # Errors
    ///
    /// Returns the model-config validation message on inconsistency, and
    /// an error for an empty batch shape or a language without states.
    pub fn new(cfg: TrainerConfig) -> Result<Self, String> {
        let seed = cfg.init_seed;
        Trainer::around(cfg, |m| Model::new(m, seed))
    }

    /// The trainer of `cfg` around the model `model` builds from
    /// `cfg.model` (checked after the batch shape, as [`Trainer::new`]
    /// documents).
    fn around(
        cfg: TrainerConfig,
        model: impl FnOnce(ModelConfig) -> Result<Model, String>,
    ) -> Result<Self, String> {
        if cfg.batch_size == 0 || cfg.seq_len == 0 || cfg.language.n_states == 0 {
            return Err("batch size, sequence length and language states must be positive".into());
        }
        let model = model(cfg.model.clone())?;
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
        self.train_step_output_with_grad_hook(&mut |_| {}).loss
    }

    /// [`Trainer::train_step`] with a gradient hook, returning the full
    /// [`StepOutput`]. After backward fills the parameter gradients and
    /// **before** clipping and the optimizer update, `hook` gets the model
    /// to transform its gradients in place — the data-parallel integration
    /// point: a hook that all-reduces every `Param::grad_mut` across ranks
    /// (e.g. over `snip_pipeline::transport`) turns `R` trainers on `R`
    /// threads into one synchronous data-parallel run, with clipping and the
    /// update applied to the *reduced* gradient exactly as a real DP trainer
    /// does ([`Trainer::try_train_step_with_grad_hook`] is the fallible
    /// form).
    ///
    /// The output carries the loss plus the per-step wall-time breakdown
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
    ///
    /// The whole step, hook included, runs inside one
    /// [`arena::scope`]: the large buffers it drops are kept for the next
    /// step on this thread instead of going back to the allocator.
    fn step_core<E>(
        &mut self,
        hook: &mut dyn FnMut(&mut Model) -> Result<(), E>,
    ) -> Result<StepOutput, E> {
        let _arena = arena::scope();
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
    /// [`Trainer::train_step_output_with_grad_hook`] would have. On `Err` the
    /// step is rolled back, so a retry replays it bit-identically and
    /// reaches the same final state an unfaulted run produces.
    ///
    /// **Rollback contract.** A failed step has not touched parameters,
    /// moments or the step count (see `step_core`). What it has touched is
    /// snapshotted before the step and restored on `Err`: the batch-stream
    /// cursor, the trainer RNG and the optimizer's `lr` — three small
    /// values, no tensor copy. Gradients are not restored but **zeroed**,
    /// every one of them ([`Model::zero_all_grads`]): they are step-scoped
    /// scratch (every step begins with `zero_grads`, and each linear
    /// weight's is then written whole), so no later step can observe what
    /// they held. A hook must confine its writes to `Param::grad_mut`.
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
            self.model.zero_all_grads();
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
            let measure = snip_obs::hist_snapshot("snip.measure");
            let snip_updates = measure.as_ref().map_or(0, |h| h.count);
            let step_ns = snip_obs::hist_snapshot("train_step").map_or(0, |h| h.sum);
            let solve_ns = snip_obs::hist_snapshot("snip.solve").map_or(0, |h| h.sum);
            let snip_ns = measure.map_or(0, |h| h.sum) + solve_ns;
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

    /// Saves the trainer's state as one checkpoint file (layout in the
    /// [`snip_quant::wire`] docs), streamed through the field codec with
    /// no copy of the state, atomically: it writes `path` plus `.tmp`,
    /// syncs it, renames it over `path` and syncs the directory, so `path`
    /// holds either the old checkpoint or the whole new one.
    ///
    /// # Errors
    ///
    /// I/O failures; the temporary file is removed.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), std::io::Error> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = Path::new(&tmp);
        let written = (|| {
            let out = BufWriter::new(File::create(tmp)?);
            let file = write_file_frame(out, |w| self.write_state(w))?
                .into_inner()
                .map_err(std::io::IntoInnerError::into_error)?;
            file.sync_all()?;
            std::fs::rename(tmp, path)?;
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(tmp);
        }
        written
    }

    /// Restores a trainer saved by [`Trainer::save`]: it builds the
    /// trainer of the checkpoint's configuration around a
    /// [`Model::blank`] (nothing is drawn for the parameters the file
    /// holds) and overwrites its state as the file streams in. Gradients
    /// are zero; caches and derived tables are rebuilt from the
    /// configuration.
    ///
    /// # Errors
    ///
    /// I/O failures as they are; a file that is not one intact checkpoint
    /// — truncated, extended, damaged, or holding state of another shape
    /// than its configuration — as [`ErrorKind::InvalidData`] around a
    /// [`FieldError`]. No partly loaded trainer is ever returned.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, std::io::Error> {
        let file = BufReader::new(File::open(path)?);
        read_file_frame(file, Trainer::read_state).map_err(|e| match e {
            FieldError::Io(e) => e,
            e => std::io::Error::new(ErrorKind::InvalidData, e),
        })
    }

    /// The bytes [`Trainer::save`] writes, in memory: two trainers with the
    /// same state (gradients aside) have the same checkpoint bytes.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let out = write_file_frame(std::io::Cursor::new(Vec::new()), |w| self.write_state(w));
        out.expect("writing to memory cannot fail").into_inner()
    }

    /// The checkpoint body: the configuration as embedded JSON, the step,
    /// `last_loss` and `last_scheme_error`, the trainer RNG and the batch
    /// stream's cursor, the model ([`Model::write_state`]) and the
    /// optimizer ([`AdamW::write_state`]).
    fn write_state<W: Write>(&self, w: &mut Writer<W>) {
        w.json(&self.cfg);
        w.u64(&self.step);
        w.u64(&self.last_loss.to_bits());
        match &self.last_scheme_error {
            None => w.u8(0),
            Some(message) => {
                w.u8(1);
                w.bytes(message.as_bytes());
            }
        }
        for rng in [&self.rng, &self.stream.cursor()] {
            let (state, spare) = rng.state();
            state.iter().for_each(|word| w.u64(word));
            match spare {
                None => w.u8(0),
                Some(bits) => {
                    w.u8(1);
                    w.u64(&bits);
                }
            }
        }
        self.model.write_state(w);
        self.optimizer.write_state(w);
    }

    /// Reads what [`Trainer::write_state`] wrote. The configuration is
    /// input too: the parameters it declares must fit the bytes left in
    /// the file (4 per value at least) before a model is built for them.
    fn read_state<R: Read>(f: &mut Fields<R>) -> Result<Trainer, FieldError> {
        let cfg: TrainerConfig = f.json()?;
        let left = f.left() as u128;
        let declared = declared_params(&cfg.model);
        if declared.is_none_or(|n| n.saturating_mul(4) > left) {
            return Err(format!(
                "the configuration declares {declared:?} parameters; {left} bytes are left"
            )
            .into());
        }
        let mut t =
            Trainer::around(cfg, Model::blank).map_err(|e| format!("trainer config: {e}"))?;
        t.step = f.u64()?;
        t.last_loss = f64::from_bits(f.u64()?);
        t.last_scheme_error = match f.u8()? {
            0 => None,
            1 => Some(String::from_utf8(f.bytes()?).map_err(|e| format!("scheme error: {e}"))?),
            byte => return Err(format!("scheme-error flag byte {byte}").into()),
        };
        t.rng = read_rng(f)?;
        t.stream.rewind(read_rng(f)?);
        t.model.read_state(f)?;
        t.optimizer.read_state(f, &t.model)?;
        Ok(t)
    }
}

/// An [`Rng`] as [`Trainer::write_state`] writes it: four state words, then
/// a flag byte and, when set, the cached Gaussian's bits.
fn read_rng<R: Read>(f: &mut Fields<R>) -> Result<Rng, FieldError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = f.u64()?;
    }
    let spare = match f.u8()? {
        0 => None,
        1 => Some(f.u64()?),
        byte => return Err(format!("rng flag byte {byte}").into()),
    };
    Ok(Rng::from_state(state, spare))
}

/// The parameter count [`ModelConfig::param_count`] gives, computed without
/// overflow for any configuration (`None` past `u128`).
fn declared_params(m: &ModelConfig) -> Option<u128> {
    let [h, f, v, l] = [m.hidden, m.ffn_hidden, m.vocab_size, m.n_layers].map(|d| d as u128);
    let block = (4 * h)
        .checked_mul(h)?
        .checked_add((3 * h).checked_mul(f)?)?;
    let blocks = l.checked_mul(block.checked_add(2 * h)?)?;
    (2 * v).checked_mul(h)?.checked_add(blocks)?.checked_add(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SnipConfig;
    use crate::policy::PolicyConfig;
    use snip_quant::wire::FILE_ENVELOPE_BYTES;

    /// Everything a trainer holds, as bits: its checkpoint bytes, and the
    /// gradients a checkpoint leaves out.
    fn state(t: &Trainer) -> (Vec<u8>, Vec<u32>) {
        let params = t.model.params();
        let grads = params.iter().flat_map(|p| p.grad().as_slice());
        (t.checkpoint_bytes(), grads.map(|g| g.to_bits()).collect())
    }

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
                hooked
                    .train_step_output_with_grad_hook(&mut |model| {
                        calls += 1;
                        assert!(model.grad_norm() > 0.0, "hook must run after backward");
                    })
                    .loss
            })
            .collect();
        assert_eq!(a, b, "an observing hook must not change the trajectory");
        assert_eq!(calls, 3);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        use snip_optim::MomentPrecision;
        let dir = std::env::temp_dir().join(format!("snip_trainer_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        for moments in [MomentPrecision::F32, MomentPrecision::PackedFp8] {
            let mut t = Trainer::new(TrainerConfig::tiny().with_moment_precision(moments)).unwrap();
            let _ = t.train(10);
            t.save(&path).unwrap();
            assert!(std::fs::read(&path).unwrap() == t.checkpoint_bytes());
            let mut restored = Trainer::load(&path).unwrap();
            assert_eq!(restored.step_count(), t.step_count());
            assert!(restored.checkpoint_bytes() == t.checkpoint_bytes());
            // Continuing from the checkpoint must match continuing the
            // original.
            let a = t.train(3);
            let b = restored.train(3);
            assert_eq!(a, b, "{moments:?}: checkpoint resume must be bit-exact");
            assert!(state(&restored) == state(&t), "{moments:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file frame around `body` with a valid CRC: a forged body reaches
    /// the loader's structural checks.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut file = snip_quant::wire::FILE_MAGIC.to_vec();
        file.extend((body.len() as u64).to_le_bytes());
        file.extend(snip_quant::crc32(body).to_le_bytes());
        file.extend(body);
        file
    }

    /// What [`Trainer::load`] makes of a file holding `bytes`.
    fn load_bytes(bytes: &[u8]) -> Result<Trainer, FieldError> {
        read_file_frame(bytes, Trainer::read_state)
    }

    /// Loads `bytes`, which must be refused as malformed; the message.
    fn refused(bytes: &[u8], what: &str) -> String {
        match load_bytes(bytes) {
            Ok(_) => panic!("{what}: a bad checkpoint loaded"),
            Err(FieldError::Malformed(m)) => m,
            Err(e) => panic!("{what}: {e:?}"),
        }
    }

    #[test]
    fn non_finite_state_survives_a_round_trip() {
        let specials = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(0x7FA1_2345),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(2);
        t.model.params_mut()[1].value_mut().as_mut_slice()[..4].copy_from_slice(&specials);
        // The f32 first moment of parameter 0, set through the optimizer's
        // own state: `t`, `lr` and the entry count, then `m`'s count.
        let mut w = Writer::new(Vec::new());
        t.optimizer.write_state(&mut w);
        let mut optimizer = w.finish().unwrap().0;
        for (k, v) in specials.iter().enumerate() {
            let at = 8 + 8 + 8 + 4 + 4 * k;
            optimizer[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        snip_quant::wire::decode_message(&optimizer, |f| t.optimizer.read_state(f, &t.model))
            .unwrap();
        let path = std::env::temp_dir().join(format!("snip_non_finite_{}.bin", std::process::id()));
        for loss in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        ] {
            t.last_loss = loss;
            t.save(&path).unwrap();
            let back = Trainer::load(&path).unwrap();
            assert_eq!(back.last_loss.to_bits(), loss.to_bits());
            assert_eq!(
                bits(&back.model.params()[1].value().as_slice()[..4]),
                bits(&specials)
            );
            let m = back.optimizer.moments(0).unwrap().m;
            assert_eq!(bits(&m.as_slice()[..4]), bits(&specials));
            assert!(back.checkpoint_bytes() == t.checkpoint_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_size_is_the_analytic_count() {
        use snip_optim::MomentPrecision;
        use snip_quant::wire::FILE_ENVELOPE_BYTES;
        use snip_quant::WIRE_HEADER_BYTES;
        for moments in [MomentPrecision::F32, MomentPrecision::PackedFp8] {
            let mut t = Trainer::new(TrainerConfig::tiny().with_moment_precision(moments)).unwrap();
            let _ = t.train(3);
            t.last_scheme_error = Some("infeasible".into());
            let params = t.model.params();
            let shapes: Vec<(usize, usize)> = params.iter().map(|p| p.value().shape()).collect();
            let n: usize = shapes.iter().map(|(r, c)| r * c).sum();
            assert_eq!(n, t.config().model.param_count());
            let spare = |rng: &Rng| 8 * usize::from(rng.state().1.is_some());
            // The envelope; the configuration; step and last_loss; the
            // scheme-error flag and string; two RNGs; per linear layer three
            // precision bytes and the exact flag; the optimizer's t, lr and
            // entry count.
            let fixed = FILE_ENVELOPE_BYTES
                + 4
                + serde_json::to_vec(t.config()).unwrap().len()
                + 16
                + (1 + 4 + "infeasible".len())
                + 2 * (32 + 1)
                + spare(&t.rng)
                + spare(&t.stream.cursor())
                + 4 * (t.config().model.n_linear_layers() + 1)
                + 24;
            // Per parameter: its values, 4 B each, after a count; then its
            // two moments — 4 B per value after a count, or a packed frame
            // of 1 B per value plus a 4-byte scale per 1×128 tile.
            let values = 4 * shapes.len() + 4 * n;
            let moments_bytes: usize = match moments {
                MomentPrecision::F32 => 2 * (4 * shapes.len() + 4 * n),
                MomentPrecision::PackedFp8 => shapes
                    .iter()
                    .map(|&(r, c)| 2 * (WIRE_HEADER_BYTES + r * c + 4 * r * c.div_ceil(128)))
                    .sum(),
            };
            assert_eq!(
                t.checkpoint_bytes().len(),
                fixed + values + moments_bytes,
                "{moments:?}"
            );
        }
    }

    #[test]
    fn damaged_checkpoints_are_typed_errors() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(2);
        let file = t.checkpoint_bytes();
        assert!(load_bytes(&file).is_ok());
        let body = &file[FILE_ENVELOPE_BYTES..];
        assert!(matches!(load_bytes(&[]), Err(FieldError::Empty)));
        // Truncated anywhere, the envelope's edges included.
        let cuts = (1..file.len())
            .step_by(61)
            .chain([19, 20, 21, file.len() - 1]);
        for cut in cuts {
            refused(&file[..cut], &format!("cut at {cut}"));
        }
        // Extended: a stray byte after the frame, or a frame one byte long.
        let mut long = file.clone();
        long.push(0);
        assert!(refused(&long, "stray byte").contains("stray bytes"));
        let extended = framed(&[body, &[0]].concat());
        assert!(refused(&extended, "extended").contains("1 bytes left after the message"));
        // Bit-flipped: the CRC or a structural check refuses each.
        for at in (0..file.len()).step_by(37) {
            let mut flipped = file.clone();
            flipped[at] ^= 1 << (at % 8);
            refused(&flipped, &format!("bit flip at byte {at}"));
        }
        // Through the file system the refusal is `InvalidData`, and no
        // trainer comes back.
        let path = std::env::temp_dir().join(format!("snip_damaged_{}.bin", std::process::id()));
        std::fs::write(&path, &file[..file.len() / 2]).unwrap();
        let err = Trainer::load(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// `t`'s checkpoint body, and where in it the model's state and the
    /// optimizer's start.
    fn body_and_sections(t: &Trainer) -> (Vec<u8>, usize, usize) {
        let written = |write: &dyn Fn(&mut Writer<Vec<u8>>)| {
            let mut w = Writer::new(Vec::new());
            write(&mut w);
            w.written() as usize
        };
        let model = written(&|w| t.model.write_state(w));
        let optimizer = written(&|w| t.optimizer.write_state(w));
        let body = t.checkpoint_bytes()[FILE_ENVELOPE_BYTES..].to_vec();
        let optimizer_at = body.len() - optimizer;
        (body, optimizer_at - model, optimizer_at)
    }

    /// `body` with its embedded configuration replaced by `cfg`'s JSON.
    fn with_config(body: &[u8], cfg: &[u8]) -> Vec<u8> {
        let len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        let mut forged = (cfg.len() as u32).to_le_bytes().to_vec();
        forged.extend(cfg);
        forged.extend(&body[4 + len..]);
        forged
    }

    /// Forgeries behind a valid CRC: the structural checks refuse a value
    /// vector of the wrong length, packed moments whose frame header
    /// disagrees with their parameter, and a configuration that does not
    /// fit the state that follows it.
    #[test]
    fn mismatched_checkpoints_are_typed_errors() {
        use snip_optim::MomentPrecision;
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(2);
        let (body, model_at, _) = body_and_sections(&t);
        let count = u32::from_le_bytes(body[model_at..model_at + 4].try_into().unwrap());
        let with_count = |n: u32| {
            let mut forged = body.clone();
            forged[model_at..model_at + 4].copy_from_slice(&n.to_le_bytes());
            framed(&forged)
        };
        for (n, case) in [
            (count - 1, "a short buffer"),
            (count + 1, "a long buffer"),
            (u32::MAX, "an overflowing count"),
        ] {
            let m = refused(&with_count(n), case);
            assert!(m.contains("values where"), "{case}: {m}");
        }

        let mut packed =
            Trainer::new(TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8))
                .unwrap();
        let _ = packed.train(2);
        let (body, _, optimizer_at) = body_and_sections(&packed);
        // The first moment's frame header, after t, lr and the entry count.
        let header = optimizer_at + 24;
        let forge = |at: usize, bytes: &[u8]| {
            let mut forged = body.clone();
            forged[header + at..header + at + bytes.len()].copy_from_slice(bytes);
            framed(&forged)
        };
        assert!(load_bytes(&framed(&body)).is_ok());
        for (forged, case) in [
            (forge(4, &[0]), "a decode table of another width (E2M1)"),
            (
                forge(8, &[body[header + 8] + 1]),
                "a short code buffer (one more row)",
            ),
            (
                forge(16, &8u32.to_le_bytes()),
                "a missing scale (8-wide tiles: twice the scales)",
            ),
            (forge(16, &0u32.to_le_bytes()), "a zero group length"),
            (
                forge(5, &[3]),
                "a stale column-group count (blocks for tiles)",
            ),
            (forge(3, &[1]), "another packed variant (MX)"),
            (forge(0, b"XX"), "no frame magic"),
        ] {
            refused(&forged, case);
        }

        // A configuration of another shape, an invalid one, and one whose
        // parameters could not fit the file: refused before a trainer is
        // built for the last two.
        let (body, _, _) = body_and_sections(&t);
        let cfg = |edit: &dyn Fn(&mut TrainerConfig)| {
            let mut cfg = TrainerConfig::tiny();
            edit(&mut cfg);
            framed(&with_config(&body, &serde_json::to_vec(&cfg).unwrap()))
        };
        let wider = refused(&cfg(&|c| c.model.vocab_size += 1), "wider vocabulary");
        assert!(wider.contains("values where"), "{wider}");
        let invalid = refused(&cfg(&|c| c.model.n_heads = 3), "invalid configuration");
        assert!(invalid.contains("trainer config"), "{invalid}");
        let empty = refused(&cfg(&|c| c.batch_size = 0), "empty batch");
        assert!(empty.contains("trainer config"), "{empty}");
        let huge = refused(
            &cfg(&|c| c.model.hidden = 1 << 40),
            "a model beyond the file",
        );
        assert!(huge.contains("bytes are left"), "{huge}");
        let overflowing = refused(
            &cfg(&|c| c.model.hidden = usize::MAX),
            "an overflowing model",
        );
        assert!(overflowing.contains("None"), "{overflowing}");
        assert!(load_bytes(&cfg(&|_| {})).is_ok());
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
            t.model.zero_all_grads();
            state(&t)
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
            assert!(
                state(&t) == before,
                "attempt {attempt}: a failed step leaves the pre-step state with zeroed gradients"
            );
        }
        // The retried step and three more match a trainer that never faulted:
        // losses, every parameter and gradient, and everything else a
        // checkpoint holds.
        let retried: Vec<f64> = (0..4)
            .map(|_| {
                t.try_train_step_with_grad_hook::<&str>(&mut |_| Ok(()))
                    .unwrap()
            })
            .collect();
        assert_eq!(retried, calm.train(4));
        assert_eq!(t.step_count(), 8);
        assert!(state(&t) == state(&calm));
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
        // and scales are stored as they are.
        let dir =
            std::env::temp_dir().join(format!("snip_trainer_packed_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
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
