//! The study skeleton every experiment shares: run sizes ([`ExpParams`],
//! [`Ctx`]), the checkpoint cache ([`checkpoint`]), one measured checkpoint
//! from which every named scheme derives ([`Study`], [`Method`]), one result
//! of resuming under a scheme ([`Outcome`]) and its two printers
//! ([`Table`], [`print_curves`]).

use snip_core::baselines::{self, ErrorMetric};
use snip_core::{
    analyze, decide_scheme, measure, Analysis, FlopModel, OptionSet, PipelineBalance, PolicyConfig,
    Scheme, SnipMeasurement, StepStats, Trainer, TrainerConfig,
};
use snip_data::{LanguageConfig, SyntheticLanguage};
use snip_eval::{evaluate, EvalConfig, EvalReport};
use snip_nn::model::StepOptions;
use snip_nn::record::StepRecord;
use snip_nn::{LayerId, ModelConfig};
use snip_optim::{AdamWConfig, LrSchedule};
use snip_quant::{LinearPrecision, Precision};
use snip_tensor::rng::Rng;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

/// Experiment-wide sizes, reduced under `--quick`. Every experiment takes
/// its step counts, batch shape and sample counts from here.
#[derive(Clone, Debug)]
pub struct ExpParams {
    /// Steps of BF16 pretraining per "checkpoint kilostep" unit.
    pub ckpt_unit: u64,
    /// Checkpoint depth for the headline contrast experiments (Fig. 3,
    /// Table 1, extended baselines). The FP4-vs-BF16 resume gap grows with
    /// checkpoint maturity (see `sanity_maturity`, whose depth ladder is
    /// centred here) — mature checkpoints are exactly the paper's setting,
    /// so the headline tables resume from a deep checkpoint where the
    /// contrast clears the noise floor.
    pub headline_ckpt: u64,
    /// Steps to resume under each scheme.
    pub resume_steps: u64,
    /// Eval items per suite.
    pub eval_items: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Batches Fig. 13 averages its estimate and ground truth over.
    pub probe_batches: usize,
}

impl ExpParams {
    /// Full-size defaults (what every experiment runs without `--quick`).
    pub fn full() -> Self {
        ExpParams {
            ckpt_unit: 60,
            headline_ckpt: 960,
            resume_steps: 80,
            eval_items: 32,
            batch_size: 4,
            seq_len: 32,
            probe_batches: 6,
        }
    }

    /// Reduced sizes for smoke runs.
    pub fn quick() -> Self {
        ExpParams {
            ckpt_unit: 15,
            headline_ckpt: 30,
            resume_steps: 20,
            eval_items: 8,
            batch_size: 2,
            seq_len: 24,
            probe_batches: 2,
        }
    }
}

/// Which rank fabric `comm_precision` sweeps over (`--transport`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// The in-proc simulator (analytic bytes).
    Simulated,
    /// OS-thread ranks exchanging serialized frames (measured bytes).
    Threads,
    /// Worker *processes* connected by Unix sockets (measured bytes; must
    /// match the threads numbers byte-for-byte).
    Process,
}

/// Everything an experiment is handed: `main` parses the command line and
/// reads `SNIP_CKPT_DIR` once, and no experiment looks at either again.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Run sizes (`--quick` selects [`ExpParams::quick`]).
    pub params: ExpParams,
    /// Directory of the trainer-checkpoint cache.
    pub ckpt_dir: PathBuf,
    /// `--transport threads|process` (`comm_precision` only).
    pub transport: Transport,
    /// `--chaos <seed>` (`comm_precision` only): re-run every threaded
    /// collective under a seeded delay-only fault schedule.
    pub chaos: Option<u64>,
}

impl Ctx {
    /// Parses the arguments after the program name into the experiment
    /// name (if any) and the run context. Flags take `--flag value` or
    /// `--flag=value`.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, second positional argument
    /// or malformed value — a typo must not silently run the full sizes.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        ckpt_dir: PathBuf,
    ) -> Result<(Option<String>, Ctx), String> {
        let mut name = None;
        let mut ctx = Ctx {
            params: ExpParams::full(),
            ckpt_dir,
            transport: Transport::Simulated,
            chaos: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (arg.clone(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--quick" if inline.is_none() => ctx.params = ExpParams::quick(),
                "--transport" => {
                    ctx.transport = match value()?.as_str() {
                        "threads" => Transport::Threads,
                        "process" => Transport::Process,
                        v => return Err(format!("unknown transport {v:?}")),
                    }
                }
                "--chaos" => {
                    let v = value()?;
                    let seed = v.parse().map_err(|_| {
                        format!("--chaos needs an unsigned integer seed, got {v:?}")
                    })?;
                    ctx.chaos = Some(seed);
                }
                _ if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
                _ if name.is_some() => return Err(format!("unexpected argument {arg:?}")),
                _ => name = Some(arg),
            }
        }
        Ok((name, ctx))
    }
}

/// The experiments' synthetic-language parameters: heavier copy/induction
/// structure than the default so models quickly reach sharply-predictable
/// regimes — the regime where subbyte quantization error becomes visible
/// (mature LLM checkpoints are in this regime; `sanity_maturity` measures
/// where it starts).
pub fn experiment_language() -> LanguageConfig {
    LanguageConfig {
        vocab: 64,
        copy_prob: 0.2,
        copy_len: 10,
        copy_offset: 11,
        zipf_s: 1.4,
        ..Default::default()
    }
}

/// The standard trainer configuration for an experiment model.
pub fn trainer_config(model: ModelConfig, p: &ExpParams) -> TrainerConfig {
    TrainerConfig {
        model,
        adamw: AdamWConfig {
            lr: 2e-3,
            ..Default::default()
        },
        schedule: LrSchedule::Constant { lr: 2e-3 },
        batch_size: p.batch_size,
        seq_len: p.seq_len,
        grad_clip: Some(1.0),
        data_seed: 7,
        init_seed: 7,
        language: experiment_language(),
    }
}

/// The language matching a trainer's data stream (for evaluation).
pub fn language_of(cfg: &TrainerConfig) -> SyntheticLanguage {
    SyntheticLanguage::new(
        LanguageConfig {
            vocab: cfg.model.vocab_size,
            ..cfg.language.clone()
        },
        cfg.data_seed,
    )
}

/// Builds (or loads from `cache_dir`) a BF16 checkpoint of `model` trained
/// for `steps`. Mirrors the paper's protocol of resuming public
/// intermediate checkpoints (§6.1). An unwritable cache only costs time.
pub fn checkpoint(model: ModelConfig, steps: u64, p: &ExpParams, cache_dir: &Path) -> Trainer {
    let _ = std::fs::create_dir_all(cache_dir);
    let key = format!(
        "{}-s{}-b{}x{}.json",
        model.name, steps, p.batch_size, p.seq_len
    );
    let path = cache_dir.join(&key);
    if let Ok(t) = Trainer::load(&path) {
        if t.step_count() == steps {
            return t;
        }
    }
    // Reuse the longest earlier checkpoint of the same lineage if present.
    let prefix = format!("{}-s", model.name);
    let suffix = format!("-b{}x{}.json", p.batch_size, p.seq_len);
    let earlier = std::fs::read_dir(cache_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let s: u64 = name
                .strip_prefix(&prefix)?
                .strip_suffix(&suffix)?
                .parse()
                .ok()?;
            (s < steps).then(|| (s, e.path()))
        })
        .max_by_key(|(s, _)| *s);
    let mut trainer = earlier
        .and_then(|(_, path)| Trainer::load(path).ok())
        .unwrap_or_else(|| Trainer::new(trainer_config(model, p)).expect("valid config"));
    while trainer.step_count() < steps {
        trainer.train_step();
    }
    let tmp = path.with_extension("tmp");
    if trainer.save(&tmp).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    trainer
}

/// A scheme generator by name. Budgeted methods print as `name@B`;
/// [`Study::scheme`] ignores the budget for the uniform schemes and the
/// structural `E-layer-type`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// One precision everywhere.
    Uniform(Precision),
    /// `SNIP@B`: the framework itself (Steps 1–5).
    Snip,
    /// `min-abs-err@B`: the ILP over absolute local quantization error.
    MinAbsErr,
    /// `min-rel-err@B`: the ILP over relative local quantization error.
    MinRelErr,
    /// `random{seed}@B`.
    Random(u64),
    /// `E-layer-id@B`: FP4 window around the middle blocks.
    ELayerId,
    /// `E-layer-type`: FP8 for MLP Gate/Up, FP4 elsewhere.
    ELayerType,
    /// `fisher@B`: the ILP over Fisher forward-only sensitivity.
    Fisher,
    /// `greedy-snip@B`: SNIP's quality table, greedy instead of the ILP.
    GreedySnip,
}

impl Method {
    /// The §6.1 comparison set, in the order the paper's tables list it.
    pub const PAPER_BASELINES: [Method; 7] = [
        Method::MinAbsErr,
        Method::MinRelErr,
        Method::Random(0),
        Method::Random(1),
        Method::Random(2),
        Method::ELayerId,
        Method::ELayerType,
    ];
}

/// A checkpoint plus **one** SNIP measurement of it (Steps 1–3 on the
/// checkpoint's next batch, taken on first use). Step-1 statistics, the
/// Step-4 analysis over the {FP8, FP4} option pair and every named scheme
/// derive from that measurement, so all methods of one experiment are
/// compared on identical numbers.
pub struct Study {
    ckpt: Trainer,
    flops: FlopModel,
    eval_items: usize,
    measurement: OnceCell<SnipMeasurement>,
    analysis: OnceCell<Analysis>,
}

impl Study {
    /// A study of `ckpt`; its [`Outcome`]s evaluate on `p.eval_items` items.
    pub fn new(ckpt: Trainer, p: &ExpParams) -> Self {
        Study {
            flops: FlopModel::new(&ckpt.config().model),
            ckpt,
            eval_items: p.eval_items,
            measurement: OnceCell::new(),
            analysis: OnceCell::new(),
        }
    }

    /// A study of the cached checkpoint of `model` at `steps`.
    pub fn at(ctx: &Ctx, model: ModelConfig, steps: u64) -> Self {
        let ckpt = checkpoint(model, steps, &ctx.params, &ctx.ckpt_dir);
        Study::new(ckpt, &ctx.params)
    }

    /// The checkpoint under study.
    pub fn ckpt(&self) -> &Trainer {
        &self.ckpt
    }

    /// The checkpoint's model shape.
    pub fn cfg(&self) -> &ModelConfig {
        &self.ckpt.config().model
    }

    /// Steps 1–3 on the checkpoint's next batch. The probe runs at BF16 and
    /// draws no random numbers, so this is a pure function of the
    /// checkpoint.
    pub fn measurement(&self) -> &SnipMeasurement {
        self.measurement.get_or_init(|| {
            let mut t = self.ckpt.clone();
            let batch = t.peek_batch();
            let optimizer = t.optimizer.clone();
            let mut rng = Rng::seed_from(0xE0E0);
            measure(&mut t.model, &optimizer, &batch, &mut rng, 1e-2)
        })
    }

    /// Step-1 statistics — what a BF16 record step on the same batch yields.
    pub fn stats(&self) -> &StepStats {
        &self.measurement().stats
    }

    /// Step 4 over the {FP8, FP4} option pair.
    pub fn analysis(&self) -> &Analysis {
        self.analysis.get_or_init(|| {
            analyze(
                self.measurement(),
                self.cfg(),
                &OptionSet::fp8_fp4(),
                &self.flops,
            )
        })
    }

    /// A full BF16-step record of the same batch — the raw X/W/∇Y/∇W
    /// tensors the statistics are norms of, for the tensor-level
    /// experiments.
    pub fn record(&self) -> StepRecord {
        let mut t = self.ckpt.clone();
        let batch = t.peek_batch();
        let mut rng = Rng::seed_from(0xE0E1);
        let n = self.cfg().n_linear_layers();
        t.model
            .set_scheme(&vec![LinearPrecision::uniform(Precision::Bf16); n]);
        t.model.zero_grads();
        let out = t.model.step(&batch, &mut rng, &StepOptions::record());
        out.record.expect("recorded")
    }

    /// `SNIP@B`: Step 5 on the study's analysis — globally, or with one
    /// efficiency constraint per pipeline stage (§5.3) when `stages` is set.
    pub fn snip(&self, budget: f64, stages: Option<usize>, balance: PipelineBalance) -> Scheme {
        let policy = PolicyConfig {
            target_fp4: budget,
            pipeline_stages: stages,
            pipeline_balance: balance,
            ..Default::default()
        };
        let name = format!("SNIP@{:.0}", budget * 100.0);
        decide_scheme(
            self.analysis(),
            &OptionSet::fp8_fp4(),
            self.cfg(),
            &policy,
            name,
        )
        .expect("feasible budget")
    }

    /// The scheme `method` produces for `budget` on this checkpoint.
    pub fn scheme(&self, method: Method, budget: f64) -> Scheme {
        let cfg = self.cfg();
        let error_min = |metric| {
            baselines::error_minimizing_scheme(self.stats(), cfg, metric, budget).expect("feasible")
        };
        match method {
            Method::Uniform(p) => Scheme::uniform(p, cfg.n_linear_layers()),
            Method::Snip => self.snip(budget, None, PipelineBalance::default()),
            Method::MinAbsErr => error_min(ErrorMetric::Absolute),
            Method::MinRelErr => error_min(ErrorMetric::Relative),
            Method::Random(seed) => baselines::random_scheme(cfg, budget, seed),
            Method::ELayerId => baselines::e_layer_id(cfg, budget),
            Method::ELayerType => baselines::e_layer_type(cfg),
            Method::Fisher => {
                baselines::fisher_scheme(self.stats(), cfg, budget).expect("feasible")
            }
            Method::GreedySnip => {
                baselines::greedy_snip_scheme(self.analysis(), &OptionSet::fp8_fp4(), budget)
                    .expect("feasible")
            }
        }
    }

    /// FP4 FLOP fraction of a scheme on this model.
    pub fn fp4_fraction(&self, scheme: &Scheme) -> f64 {
        scheme.fp4_fraction(&self.flops)
    }

    /// Percentage of the FLOPs of `layers` (one pipeline stage's, say) that
    /// `scheme` runs in FP4.
    pub fn fp4_pct_of(&self, scheme: &Scheme, layers: &[LayerId]) -> f64 {
        let total: f64 = layers
            .iter()
            .map(|id| self.flops.fraction(id.linear_index()))
            .sum();
        let fp4: f64 = layers
            .iter()
            .map(|id| self.flops.efficiency(id.linear_index(), scheme.layer(*id)))
            .sum();
        100.0 * fp4 / total
    }

    /// Resumes the checkpoint under `scheme` for `steps`.
    pub fn resume(&self, scheme: &Scheme, steps: u64) -> Outcome {
        let mut trained = self.ckpt.clone();
        trained.apply_scheme(scheme);
        let losses = trained.train(steps);
        Outcome {
            name: scheme.name.clone(),
            fp4: self.fp4_fraction(scheme),
            losses,
            trained,
            eval_items: self.eval_items,
            report: OnceCell::new(),
            val_loss: OnceCell::new(),
        }
    }
}

/// What resuming a checkpoint under one scheme produced. The loss curve is
/// kept; accuracy and validation loss are computed from the trained model,
/// once, when a table first asks for them.
pub struct Outcome {
    /// The scheme's name.
    pub name: String,
    /// The scheme's FP4 FLOP fraction.
    pub fp4: f64,
    /// Training loss per resumed step.
    pub losses: Vec<f64>,
    trained: Trainer,
    eval_items: usize,
    report: OnceCell<EvalReport>,
    val_loss: OnceCell<f64>,
}

impl Outcome {
    /// Per-suite accuracy of the trained model on the synthetic suites.
    pub fn report(&self) -> &EvalReport {
        self.report.get_or_init(|| {
            evaluate(
                &self.trained.model,
                &language_of(self.trained.config()),
                &EvalConfig {
                    items_per_task: self.eval_items,
                    seed: 2024,
                },
            )
        })
    }

    /// Mean loss over three held-out batches.
    pub fn val_loss(&self) -> f64 {
        *self
            .val_loss
            .get_or_init(|| self.trained.clone().validation_loss(2, 3))
    }

    /// Mean training loss over the last five steps.
    pub fn final_loss(&self) -> f64 {
        self.losses.iter().rev().take(5).sum::<f64>() / 5.0
    }

    fn value(&self, col: Col) -> f64 {
        match col {
            Col::Fp4Pct => 100.0 * self.fp4,
            Col::Accuracy => self.report().average(),
            Col::Task(name) => self.report().score(name).unwrap_or(f64::NAN),
            Col::ValLoss => self.val_loss(),
            Col::FinalLoss => self.final_loss(),
        }
    }
}

/// One printable quantity of an [`Outcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Col {
    /// FP4 FLOP share in percent (one decimal).
    Fp4Pct,
    /// Mean accuracy over the suites (two decimals).
    Accuracy,
    /// Accuracy on one suite (two decimals).
    Task(&'static str),
    /// Held-out validation loss (four decimals).
    ValLoss,
    /// Mean training loss of the last five steps (four decimals).
    FinalLoss,
}

impl Col {
    fn decimals(self) -> usize {
        match self {
            Col::Fp4Pct => 1,
            Col::Accuracy | Col::Task(_) => 2,
            Col::ValLoss | Col::FinalLoss => 4,
        }
    }
}

/// The one row printer: a label column and right-aligned [`Outcome`]
/// columns, `sep` between cells.
pub struct Table {
    /// Label column: title and (left-aligned) width.
    pub label: (&'static str, usize),
    /// Cell separator.
    pub sep: &'static str,
    /// Columns: title, quantity, width.
    pub cols: Vec<(&'static str, Col, usize)>,
}

impl Table {
    fn line(&self, label: &str, cell: impl Fn(&(&'static str, Col, usize)) -> String) -> String {
        let mut cells = vec![format!("{label:<w$}", w = self.label.1)];
        cells.extend(self.cols.iter().map(cell));
        cells.join(self.sep)
    }

    /// The title row.
    pub fn header(&self) -> String {
        self.line(self.label.0, |(title, _, w)| format!("{title:>w$}"))
    }

    /// One outcome under `label`.
    pub fn row(&self, label: &str, o: &Outcome) -> String {
        self.line(label, |&(_, col, w)| {
            format!("{:>w$.d$}", o.value(col), d = col.decimals())
        })
    }

    /// One outcome as differences over `base`.
    pub fn delta_row(&self, label: &str, o: &Outcome, base: &Outcome) -> String {
        self.line(label, |&(_, col, w)| {
            let delta = o.value(col) - base.value(col);
            format!("{delta:>w$.d$}", d = col.decimals())
        })
    }
}

/// The one curve-table printer: one 18-wide column per named curve, one
/// row per `stride`-th step (the figures' x-axis), `decimals` per value.
pub fn print_curves(curves: &[(&str, &[f64])], stride: usize, decimals: usize) {
    print!("{:<6}", "step");
    for (name, _) in curves {
        print!("{name:>18}");
    }
    println!();
    let steps = curves.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
    for i in (stride - 1..steps).step_by(stride) {
        print!("{:<6}", i + 1);
        for (_, curve) in curves {
            print!("{:>18.decimals$}", curve[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_core::{SnipConfig, SnipEngine};

    #[test]
    fn quick_params_are_smaller() {
        let q = ExpParams::quick();
        let f = ExpParams::full();
        assert!(q.ckpt_unit < f.ckpt_unit);
        assert!(q.eval_items < f.eval_items);
        assert!(q.probe_batches < f.probe_batches);
    }

    fn tiny_params() -> ExpParams {
        ExpParams {
            seq_len: 12, // tiny_test's max_seq is 16
            ..ExpParams::quick()
        }
    }

    fn tiny_study() -> Study {
        let p = tiny_params();
        let mut t = Trainer::new(trainer_config(ModelConfig::tiny_test(), &p)).unwrap();
        let _ = t.train(6);
        Study::new(t, &p)
    }

    #[test]
    fn checkpoint_cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("snip_ckpt_test_{}", std::process::id()));
        let p = ExpParams {
            ckpt_unit: 2,
            headline_ckpt: 4,
            resume_steps: 2,
            eval_items: 2,
            ..tiny_params()
        };
        let t1 = checkpoint(ModelConfig::tiny_test(), 4, &p, &dir);
        assert_eq!(t1.step_count(), 4);
        // Second call loads from cache and extends to a later step.
        let t2 = checkpoint(ModelConfig::tiny_test(), 6, &p, &dir);
        assert_eq!(t2.step_count(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snip_and_baselines_meet_budget() {
        let study = tiny_study();
        let s = study.scheme(Method::Snip, 0.5);
        assert!(study.fp4_fraction(&s) + 1e-9 >= 0.5);
        for m in Method::PAPER_BASELINES {
            // E-layer-type has a fixed structural fraction; all others meet
            // the budget.
            let b = study.scheme(m, 0.5);
            if m != Method::ELayerType {
                assert!(study.fp4_fraction(&b) + 1e-9 >= 0.5, "{}", b.name);
            }
        }
    }

    /// One measurement replaced the separate record step and the
    /// per-budget re-measurement without moving a number.
    #[test]
    fn study_matches_the_record_step_and_the_engine() {
        let study = tiny_study();
        let cfg = study.cfg().clone();
        assert_eq!(
            *study.stats(),
            StepStats::from_record(&study.record(), &cfg),
            "Study::stats vs a BF16 record step on the same checkpoint and batch"
        );
        for budget in [0.25, 0.5, 0.75] {
            let mut t = study.ckpt().clone();
            let engine = SnipEngine::new(
                SnipConfig {
                    policy: PolicyConfig {
                        target_fp4: budget,
                        ..Default::default()
                    },
                    options: OptionSet::fp8_fp4(),
                    ..Default::default()
                },
                cfg.clone(),
            );
            let batch = t.peek_batch();
            let optimizer = t.optimizer.clone();
            let name = format!("SNIP@{:.0}", budget * 100.0);
            let by_engine = engine
                .generate_scheme(
                    &mut t.model,
                    &optimizer,
                    &batch,
                    &mut Rng::seed_from(1),
                    name,
                )
                .unwrap();
            assert_eq!(study.scheme(Method::Snip, budget), by_engine, "{budget}");
        }
    }

    #[test]
    fn parse_rejects_what_it_does_not_know() {
        let parse = |args: &[&str]| {
            Ctx::parse(args.iter().map(|a| a.to_string()), PathBuf::from("c"))
                .map(|(name, ctx)| (name, ctx.params.ckpt_unit, ctx.transport, ctx.chaos))
        };
        let (full, quick) = (ExpParams::full().ckpt_unit, ExpParams::quick().ckpt_unit);
        assert_eq!(parse(&[]), Ok((None, full, Transport::Simulated, None)));
        assert_eq!(
            parse(&["comm_precision", "--quick", "--chaos", "7"]),
            Ok((
                Some("comm_precision".into()),
                quick,
                Transport::Simulated,
                Some(7)
            ))
        );
        assert_eq!(
            parse(&["--transport=process", "x", "--chaos=3"]),
            Ok((Some("x".into()), full, Transport::Process, Some(3)))
        );
        for bad in [
            &["--quik"][..],
            &["--quick=1"],
            &["a", "b"],
            &["--chaos"],
            &["--chaos", "x"],
            &["--transport", "carrier-pigeon"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn table_rows_align_with_their_header() {
        let study = tiny_study();
        let bf16 = study.scheme(Method::Uniform(Precision::Bf16), 0.0);
        let o = study.resume(&bf16, 5);
        assert_eq!(o.losses.len(), 5);
        assert_eq!(o.fp4, 0.0);
        let table = Table {
            label: ("scheme", 8),
            sep: " ",
            cols: vec![("fp4(%)", Col::Fp4Pct, 8), ("final", Col::FinalLoss, 10)],
        };
        assert_eq!(table.header(), "scheme     fp4(%)      final");
        let row = table.row("BF16", &o);
        assert_eq!(row.len(), table.header().len());
        assert!(row.starts_with("BF16          0.0 "), "{row:?}");
        assert_eq!(
            table.delta_row("BF16", &o, &o),
            "BF16          0.0     0.0000"
        );
    }
}
