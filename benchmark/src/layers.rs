//! Per-layer timings for the traced run. Layers are the workspace's crates;
//! each is measured from outside by timing its public calls at the
//! fixture's shapes, in interleaved rounds (A, B, C, A, B, C, …) so that
//! clock drift on a shared box lands on every variant alike. Values are
//! medians over the rounds.
//!
//! The round counts below hold at the nominal run length and scale with
//! `--seconds`: kernels get 15 rounds, model and optimizer calls 3, and the
//! calls that cost seconds each (the probe, an update step, launches and
//! collectives over processes) one, which is what fits in a run. The suite
//! does not depend on the workload, so every traced run repeats it: a driver
//! takes its medians over those runs, and a result file `run.sh` records
//! holds each run's value and their median.

use crate::fixture::{mix, Fixture, Seeds};
use crate::stats::median;
use crate::workloads::{
    dp_configs, prepare_proc_env, snip_config, DP_STEPS_PER_CALL, DP_WORLD, MIB, NOMINAL_SECONDS,
};
use snip_core::{
    analyze, decide_scheme, measure, FlopModel, Scheme, SnipEngine, SnipMeasurement, Trainer,
};
use snip_ilp::{Choice, McKnapsack, SolveOptions};
use snip_nn::{Batch, Model, ModelConfig, StepOptions};
use snip_optim::{clip::clip_global_norm, AdamW, MomentPrecision};
use snip_pipeline::collective::{QuantizePolicy, Wire};
use snip_pipeline::transport::proc::{proc_all_reduce, proc_data_parallel_train};
use snip_pipeline::transport::threaded_all_reduce;
use snip_quant::{
    crc32, stream_frame, PackedQuantize, PackedTensor, Precision, Quantizer, Rounding,
    StreamDecoder, TensorRole,
};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip_tensor::{pool, rng::Rng, QOperandRef, QTensor, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric name → value, plus notes for the human reader.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

/// Millisecond samples per timed call.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = black_box(f());
        self.0
            .entry(name)
            .or_default()
            .push(t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn med(&self, name: &str) -> f64 {
        median(&self.0[name])
    }
}

struct Suite<'a> {
    fx: &'a Fixture,
    seeds: Seeds,
    /// Run length relative to nominal.
    k: f64,
    out: Layers,
}

impl Suite<'_> {
    fn rounds(&self, at_nominal: f64) -> usize {
        ((at_nominal * self.k).round() as usize).max(1)
    }

    /// `rounds` interleaved rounds of `body` after one untimed warm-up round.
    fn warmed(&self, at_nominal: f64, mut body: impl FnMut(&mut Samples)) -> Samples {
        body(&mut Samples::default());
        let mut s = Samples::default();
        for _ in 0..self.rounds(at_nominal).max(3) {
            body(&mut s);
        }
        s
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.out.values.insert(name, value);
    }

    fn group_done(&mut self, group: &str, t0: Instant) {
        self.out.notes.push(format!(
            "layer group {group}: {:.1} s",
            t0.elapsed().as_secs_f64()
        ));
    }
}

/// `pair` is two trainers built from the fixture and already warmed.
pub fn run(fx: &Fixture, seeds: Seeds, seconds: f64, pair: &mut [Trainer; 2]) -> Layers {
    let mut suite = Suite {
        fx,
        seeds,
        k: seconds / NOMINAL_SECONDS,
        out: Layers::default(),
    };
    // The pool reads `SNIP_THREADS` once; size it before the pipeline group
    // points worker processes at one thread each.
    let threads = pool::size();
    suite.out.notes.push(format!("pool threads {threads}"));
    suite.tensor();
    suite.quant();
    let single_rank_step_ms = suite.model_and_trainer(pair);
    suite.ilp_560();
    suite.pipeline(single_rank_step_ms);
    suite.out
}

fn fp4(role: TensorRole, group: usize) -> Quantizer {
    Precision::Fp4.quantizer_with_group(role, group)
}

fn pack(t: &Tensor, role: TensorRole, group: usize, rng: &mut Rng) -> QTensor {
    fp4(role, group)
        .quantize_packed(t, rng)
        .expect("FP4 is packable")
}

/// One training step with `snip-obs` collection on; records its wall time
/// under `name` and its GEMM / quantize / other split under `split`.
fn traced_step(s: &mut Samples, t: &mut Trainer, name: &'static str, split: [&'static str; 3]) {
    let _on = snip_obs::enabled_scope(true);
    let out = s.time(name, || t.train_step_output_with_grad_hook(&mut |_| {}));
    let step = out.step_ns.max(1) as f64;
    s.push(split[0], out.gemm_ns as f64 / step);
    s.push(split[1], out.quantize_ns as f64 / step);
    s.push(
        split[2],
        1.0 - (out.gemm_ns + out.quantize_ns) as f64 / step,
    );
}

/// The three GEMM orientations of one linear layer, dense and packed, over
/// the same operands.
struct LinearOperands {
    dense: [Tensor; 3],
    packed: [QTensor; 3],
    flops: f64,
}

impl LinearOperands {
    fn new(tokens: usize, d_out: usize, d_in: usize, group: usize, rng: &mut Rng) -> Self {
        let x = Tensor::randn(tokens, d_in, 1.0, rng);
        let w = Tensor::randn(d_out, d_in, 0.05, rng);
        let dy = Tensor::randn(tokens, d_out, 1.0, rng);
        let packed = [
            pack(&x, TensorRole::Input, group, rng),
            pack(&w, TensorRole::Weight, group, rng),
            pack(&dy, TensorRole::OutputGrad, group, rng),
        ];
        // Dense views of the packed operands: both kernels do the same math.
        let dense = [
            packed[0].dequantize(),
            packed[1].dequantize(),
            packed[2].dequantize(),
        ];
        LinearOperands {
            dense,
            packed,
            flops: 2.0 * (tokens * d_out * d_in) as f64,
        }
    }

    /// Input grad `dY·W`, forward `X·Wᵀ`, weight grad `dYᵀ·X`.
    fn time(&self, s: &mut Samples, names: [&'static str; 6]) {
        let [x, w, dy] = &self.dense;
        let [qx, qw, qdy] = &self.packed;
        s.time(names[0], || matmul(dy, w));
        s.time(names[1], || matmul_nt(x, w));
        s.time(names[2], || matmul_tn(dy, x));
        s.time(names[3], || {
            qgemm(QOperandRef::from(qdy), QOperandRef::from(qw))
        });
        s.time(names[4], || {
            qgemm_nt(QOperandRef::from(qx), QOperandRef::from(qw))
        });
        s.time(names[5], || {
            qgemm_tn(QOperandRef::from(qdy), QOperandRef::from(qx))
        });
    }
}

const ATTN: [&str; 6] = [
    "tensor.matmul_attn_ms",
    "tensor.matmul_nt_attn_ms",
    "tensor.matmul_tn_attn_ms",
    "tensor.qgemm_fp4_attn_ms",
    "tensor.qgemm_nt_fp4_attn_ms",
    "tensor.qgemm_tn_fp4_attn_ms",
];
const FFN: [&str; 6] = [
    "tensor.matmul_ffn_ms",
    "tensor.matmul_nt_ffn_ms",
    "tensor.matmul_tn_ffn_ms",
    "tensor.qgemm_fp4_ffn_ms",
    "tensor.qgemm_nt_fp4_ffn_ms",
    "tensor.qgemm_tn_fp4_ffn_ms",
];

impl Suite<'_> {
    fn tensor(&mut self) {
        let t0 = Instant::now();
        let m = &self.fx.model;
        let (tokens, group) = (self.fx.tokens(), m.quant_group);
        let mut rng = Rng::seed_from(mix(self.seeds.data, 100));
        let attn = LinearOperands::new(tokens, m.hidden, m.hidden, group, &mut rng);
        let ffn = LinearOperands::new(tokens, m.ffn_hidden, m.hidden, group, &mut rng);
        let threads = pool::size();
        let s = self.warmed(15.0, |s| {
            attn.time(s, ATTN);
            ffn.time(s, FFN);
            s.time("tensor.dequant_fp4_ms", || attn.packed[0].dequantize());
            let [_, w, dy] = &ffn.dense;
            s.time("ffn_one_thread", || pool::with_threads(1, || matmul(dy, w)));
            s.time("ffn_all_threads", || {
                pool::with_threads(threads, || matmul(dy, w))
            });
        });
        for name in ATTN.iter().chain(&FFN).chain(&["tensor.dequant_fp4_ms"]) {
            self.set(name, s.med(name));
        }
        let dense_ms: f64 = ATTN[..3].iter().chain(&FFN[..3]).map(|n| s.med(n)).sum();
        self.set(
            "tensor.gemm_gflops",
            3.0 * (attn.flops + ffn.flops) / (dense_ms * 1e6),
        );
        self.set(
            "tensor.pool_speedup",
            s.med("ffn_one_thread") / s.med("ffn_all_threads"),
        );
        self.group_done("snip-tensor", t0);
    }

    fn quant(&mut self) {
        let t0 = Instant::now();
        let m = &self.fx.model;
        let group = m.quant_group;
        let mut rng = Rng::seed_from(mix(self.seeds.data, 200));
        let act = Tensor::randn(self.fx.tokens(), m.hidden, 1.0, &mut rng);
        let weight = Tensor::randn(m.ffn_hidden, m.hidden, 0.05, &mut rng);
        let packers = [
            (
                "quant.pack_fp4_nearest_ms",
                Precision::Fp4,
                Rounding::Nearest,
            ),
            (
                "quant.pack_fp4_stochastic_ms",
                Precision::Fp4,
                Rounding::Stochastic,
            ),
            (
                "quant.pack_fp8_nearest_ms",
                Precision::Fp8,
                Rounding::Nearest,
            ),
            (
                "quant.pack_fp8_stochastic_ms",
                Precision::Fp8,
                Rounding::Stochastic,
            ),
        ]
        .map(|(name, p, rounding)| {
            let q = p
                .quantizer_with_group(TensorRole::Input, group)
                .with_rounding(rounding);
            (name, q)
        });
        // The wire path at the size of a large gradient chunk: a 1 Mi-element
        // FP4 tensor and a 1 MiB frame body.
        let side = self.fx.wire_side;
        let big = Tensor::randn(side, side, 1.0, &mut rng);
        let wire_q = fp4(TensorRole::OutputGrad, group);
        let packed: PackedTensor = wire_q.pack(&big, &mut rng).expect("FP4 is packable");
        let wire_bytes = packed.to_wire_bytes().expect("built-in format");
        let body: Vec<u8> = (0..side * side).map(|_| rng.next_u64() as u8).collect();
        let framed = stream_frame(&body);

        let s = self.warmed(15.0, |s| {
            for (name, q) in &packers {
                s.time(name, || q.pack(&act, &mut rng));
            }
            let wq = fp4(TensorRole::Weight, group);
            s.time("quant.pack_fp4_weight_ms", || wq.pack(&weight, &mut rng));
            s.time("quant.wire_encode_ms", || {
                packed.to_wire_bytes().expect("built-in format")
            });
            s.time("quant.wire_decode_ms", || {
                PackedTensor::from_wire_bytes(&wire_bytes).expect("bytes just encoded")
            });
            s.time("quant.stream_frame_ms", || stream_frame(&body));
            s.time("quant.stream_decode_ms", || {
                let mut d = StreamDecoder::new();
                d.feed(&framed);
                d.next_frame().expect("frame just encoded")
            });
            s.time("crc32", || crc32(&body));
        });
        for name in [
            "quant.pack_fp4_nearest_ms",
            "quant.pack_fp4_stochastic_ms",
            "quant.pack_fp8_nearest_ms",
            "quant.pack_fp8_stochastic_ms",
            "quant.pack_fp4_weight_ms",
            "quant.wire_encode_ms",
            "quant.wire_decode_ms",
            "quant.stream_frame_ms",
            "quant.stream_decode_ms",
        ] {
            self.set(name, s.med(name));
        }
        self.set(
            "quant.crc32_gbps",
            body.len() as f64 / 1e9 / (s.med("crc32") / 1e3),
        );
        self.group_done("snip-quant", t0);
    }

    /// snip-nn, snip-optim, snip-data, snip-core and snip-obs work on the two
    /// warmed trainers the replay used: the first becomes the BF16 side, the
    /// second the FP4 side. Returns the one-thread single-rank step time the
    /// pipeline group compares a data-parallel step against.
    fn model_and_trainer(&mut self, pair: &mut [Trainer; 2]) -> f64 {
        let n_linear = self.fx.model.n_linear_layers();
        let [bf16, fp4] = pair;
        bf16.apply_scheme(&Scheme::uniform(Precision::Bf16, n_linear));
        fp4.apply_scheme(&Scheme::uniform(Precision::Fp4, n_linear));
        let batch = bf16.peek_batch();
        let mut rng = Rng::seed_from(mix(self.seeds.init, 300));

        self.data(bf16);
        self.nn(&mut bf16.model, &mut fp4.model, &batch, &mut rng);
        self.optim(&bf16.model);
        let (single_rank_step_ms, measurement) = self.whole_steps(bf16, fp4, &batch, &mut rng);
        self.cheap_core(bf16, &measurement);
        single_rank_step_ms
    }

    fn data(&mut self, t: &mut Trainer) {
        let t0 = Instant::now();
        let s = self.warmed(15.0, |s| {
            s.time("data.next_batch_ms", || t.peek_batch());
        });
        self.set("data.next_batch_ms", s.med("data.next_batch_ms"));
        self.group_done("snip-data", t0);
    }

    fn nn(&mut self, bf16: &mut Model, fp4: &mut Model, batch: &Batch, rng: &mut Rng) {
        let t0 = Instant::now();
        let mut s = Samples::default();
        // No separate warm-up: these calls cost a large share of a second
        // each, so the first of three rounds plays that part and the median
        // is the middle one.
        for _ in 0..self.rounds(3.0) {
            s.time("nn.forward_bf16_ms", || bf16.forward_loss(batch, rng));
            s.time("nn.forward_fp4_ms", || fp4.forward_loss(batch, rng));
            s.time("nn.zero_grads_ms", || bf16.zero_grads());
            s.time("nn.fwd_bwd_bf16_ms", || {
                bf16.step(batch, rng, &StepOptions::train())
            });
            fp4.zero_grads();
            s.time("nn.fwd_bwd_fp4_ms", || {
                fp4.step(batch, rng, &StepOptions::train())
            });
            bf16.zero_grads();
            s.time("nn.record_step_ms", || {
                bf16.step(batch, rng, &StepOptions::record())
            });
        }
        for name in [
            "nn.forward_bf16_ms",
            "nn.forward_fp4_ms",
            "nn.fwd_bwd_bf16_ms",
            "nn.fwd_bwd_fp4_ms",
            "nn.zero_grads_ms",
            "nn.record_step_ms",
        ] {
            self.set(name, s.med(name));
        }
        self.set(
            "nn.backward_bf16_ms",
            s.med("nn.fwd_bwd_bf16_ms") - s.med("nn.forward_bf16_ms"),
        );
        self.set(
            "nn.backward_fp4_ms",
            s.med("nn.fwd_bwd_fp4_ms") - s.med("nn.forward_fp4_ms"),
        );
        self.group_done("snip-nn", t0);
    }

    /// Optimizer calls on a copy of the model that still holds the
    /// gradients of the last backward pass.
    fn optim(&mut self, with_grads: &Model) {
        let t0 = Instant::now();
        let mut model = with_grads.clone();
        let mut f32_opt = AdamW::new(self.fx.adamw(MomentPrecision::F32));
        let mut fp8_opt = AdamW::new(self.fx.adamw(MomentPrecision::PackedFp8));
        // First updates allocate the moment state.
        f32_opt.update(&mut model);
        fp8_opt.update(&mut model);
        let mut s = Samples::default();
        for _ in 0..self.rounds(3.0) {
            // Clip to half the current norm so every call does the scaling
            // pass, as the early training steps the workloads run do.
            let norm = model.grad_norm();
            s.time("optim.clip_ms", || clip_global_norm(&mut model, norm * 0.5));
            s.time("optim.adamw_f32_ms", || f32_opt.update(&mut model));
            s.time("optim.adamw_fp8_ms", || fp8_opt.update(&mut model));
        }
        for name in ["optim.clip_ms", "optim.adamw_f32_ms", "optim.adamw_fp8_ms"] {
            self.set(name, s.med(name));
        }
        self.set(
            "optim.moment_f32_mb",
            f32_opt.moment_state_bytes() as f64 / MIB,
        );
        self.set(
            "optim.moment_fp8_mb",
            fp8_opt.moment_state_bytes() as f64 / MIB,
        );
        self.group_done("snip-optim", t0);
    }

    /// The cheap half of the SNIP cycle: analysis, ILP and scheme
    /// application on a real measurement.
    fn cheap_core(&mut self, t: &mut Trainer, measurement: &SnipMeasurement) {
        let t0 = Instant::now();
        let model_cfg = self.fx.model.clone();
        let snip = snip_config();
        let flops = FlopModel::new(&model_cfg);
        let bf16_scheme = Scheme::uniform(Precision::Bf16, model_cfg.n_linear_layers());
        let analysis = analyze(measurement, &model_cfg, &snip.options, &flops);
        let problem = McKnapsack::new(
            analysis
                .quality
                .iter()
                .zip(&analysis.efficiency)
                .map(|(q, e)| q.iter().zip(e).map(|(&q, &e)| Choice::new(q, e)).collect())
                .collect(),
            snip.policy.target_fp4,
        );
        let s = self.warmed(15.0, |s| {
            s.time("core.analyze_ms", || {
                analyze(measurement, &model_cfg, &snip.options, &flops)
            });
            let scheme = s
                .time("core.decide_ms", || {
                    decide_scheme(&analysis, &snip.options, &model_cfg, &snip.policy, "bench")
                })
                .expect("the fixture's target is feasible");
            s.time("ilp.solve_14_ms", || {
                snip_ilp::solve(&problem, &SolveOptions::default())
            })
            .expect("the fixture's target is feasible");
            s.time("core.apply_scheme_ms", || t.apply_scheme(&scheme));
            t.apply_scheme(&bf16_scheme);
        });
        for name in [
            "core.analyze_ms",
            "core.decide_ms",
            "core.apply_scheme_ms",
            "ilp.solve_14_ms",
        ] {
            self.set(name, s.med(name));
        }
        self.group_done("snip-core analysis", t0);
    }

    /// Whole training steps and the calls that cost several of them, in
    /// one interleaved round: a plain step, the probe, the recovery path,
    /// one thread, `snip-obs` collection on (which also fills the
    /// `StepOutput` time split the `nn.*_frac_*` metrics read), and an
    /// update step as `train_with_engine` runs it. The probe follows a plain
    /// step, as it does in training, so it meets the allocator in the state
    /// training leaves it in.
    fn whole_steps(
        &mut self,
        bf16: &mut Trainer,
        fp4: &mut Trainer,
        batch: &Batch,
        rng: &mut Rng,
    ) -> (f64, SnipMeasurement) {
        let t0 = Instant::now();
        const BF16_SPLIT: [&str; 3] = [
            "nn.gemm_frac_bf16",
            "nn.quant_frac_bf16",
            "nn.other_frac_bf16",
        ];
        const FP4_SPLIT: [&str; 3] = ["nn.gemm_frac_fp4", "nn.quant_frac_fp4", "nn.other_frac_fp4"];
        let model_cfg = self.fx.model.clone();
        let snip = snip_config();
        let bf16_scheme = Scheme::uniform(Precision::Bf16, model_cfg.n_linear_layers());
        // Period 1 makes every step an update step.
        let every_step = snip_core::SnipConfig {
            update_period: 1,
            ..snip.clone()
        };
        let recover = |t: &mut Trainer| {
            t.try_train_step_with_grad_hook::<std::convert::Infallible>(&mut |_| Ok(()))
                .unwrap_or_else(|e| match e {})
        };
        // The recovery path's first snapshot allocates a second trainer.
        recover(bf16);

        let mut s = Samples::default();
        let mut measurement = None;
        for _ in 0..self.rounds(1.0) {
            s.time("plain_bf16", || bf16.train_step());
            measurement = Some(s.time("core.measure_ms", || {
                measure(
                    &mut bf16.model,
                    &bf16.optimizer,
                    batch,
                    rng,
                    snip.probe_epsilon,
                )
            }));
            s.time("try_bf16", || recover(bf16));
            s.time("one_thread_bf16", || {
                pool::with_threads(1, || bf16.train_step())
            });
            traced_step(&mut s, bf16, "traced_bf16", BF16_SPLIT);
            // Dropping the engine joins its worker, so the scheme it solved
            // cannot land later; BF16 is restored for the next round.
            let engine = SnipEngine::new(every_step.clone(), model_cfg.clone());
            s.time("core.update_step_ms", || bf16.train_with_engine(1, &engine));
            drop(engine);
            bf16.apply_scheme(&bf16_scheme);
            s.time("plain_fp4", || fp4.train_step());
            traced_step(&mut s, fp4, "traced_fp4", FP4_SPLIT);
        }
        for name in BF16_SPLIT.iter().chain(&FP4_SPLIT) {
            self.set(name, s.med(name));
        }
        self.set("core.measure_ms", s.med("core.measure_ms"));
        self.set(
            "core.measure_over_step",
            s.med("core.measure_ms") / self.out.values["nn.fwd_bwd_bf16_ms"],
        );
        self.set("core.update_step_ms", s.med("core.update_step_ms"));
        self.set(
            "core.try_step_extra_ms",
            s.med("try_bf16") - s.med("plain_bf16"),
        );
        self.set(
            "obs.trace_overhead_frac",
            s.med("traced_fp4") / s.med("plain_fp4") - 1.0,
        );
        self.group_done("whole steps and probe", t0);
        (
            s.med("one_thread_bf16"),
            measurement.expect("at least one round"),
        )
    }

    /// An 80-block × 7 instance shaped like `llama_70b_sim`, the paper's
    /// largest decision space, with seeded quality losses.
    fn ilp_560(&mut self) {
        let t0 = Instant::now();
        let cfg = ModelConfig::llama_70b_sim();
        let flops = FlopModel::new(&cfg);
        let snip = snip_config();
        let mut rng = Rng::seed_from(mix(self.seeds.data, 400));
        let groups = (0..cfg.n_linear_layers())
            .map(|i| {
                let base = 1e-4 * (1.0 + rng.next_f64());
                snip.options
                    .options()
                    .iter()
                    .map(|&o| {
                        let fp4 = o.fp4_gemm_fraction();
                        Choice::new(
                            base * (1.0 + 9.0 * fp4 * rng.next_f64()),
                            flops.efficiency(i, o),
                        )
                    })
                    .collect()
            })
            .collect();
        let problem = McKnapsack::new(groups, snip.policy.target_fp4);
        // Bounded so that a hard instance costs the run seconds, not the
        // solver's 30 s default; a solve that hits the bound reports it.
        let opts = SolveOptions {
            time_limit: Duration::from_secs(2),
        };
        let mut s = Samples::default();
        let mut proven = true;
        for _ in 0..self.rounds(1.0) {
            let sol = s
                .time("ilp.solve_560_ms", || snip_ilp::solve(&problem, &opts))
                .expect("half the FLOPs in FP4 is feasible");
            proven &= sol.proven_optimal;
        }
        if !proven {
            self.out
                .notes
                .push("ilp.solve_560 hit its 2 s limit before proving optimality".into());
        }
        self.set("ilp.solve_560_ms", s.med("ilp.solve_560_ms"));
        self.group_done("snip-ilp 560", t0);
    }

    fn pipeline(&mut self, single_rank_step_ms: f64) {
        let t0 = Instant::now();
        prepare_proc_env();
        let fx = self.fx;
        let policy = QuantizePolicy::EveryHop;
        let group = fx.model.quant_group;
        let cfgs = dp_configs(fx, self.seeds);
        let comm_seed = self.seeds.comm;
        let dp = |steps: u64| {
            proc_data_parallel_train(&cfgs, steps, &Wire::fp4(group), policy, comm_seed)
                .expect("data-parallel launch")
        };
        let mut s = Samples::default();
        // As many steps per call as the end-to-end workload: a worker's first
        // steps are its slowest, so fewer would overstate the step.
        const DP_STEPS: u64 = DP_STEPS_PER_CALL;
        let mut per_step = (0.0, 0.0, 0.0);
        for _ in 0..self.rounds(1.0) {
            s.time("pipeline.proc_launch_ms", || dp(0));
            let run = s.time("dp_call", || dp(DP_STEPS));
            let n = DP_STEPS as f64;
            per_step = (
                run.stats.total_payload_bytes() as f64 / n,
                run.stats.total_envelope_bytes() as f64 / n,
                run.stats.total_frames() as f64 / n,
            );
        }
        let launch = s.med("pipeline.proc_launch_ms");
        let dp_step = (s.med("dp_call") - launch) / DP_STEPS as f64;
        self.set("pipeline.proc_launch_ms", launch);
        self.set("pipeline.dp_comm_frac", 1.0 - single_rank_step_ms / dp_step);
        self.set("pipeline.dp_scaling_eff", single_rank_step_ms / dp_step);
        self.set("pipeline.payload_bytes_per_step", per_step.0);
        self.set("pipeline.envelope_bytes_per_step", per_step.1);
        self.set("pipeline.frames_per_step", per_step.2);

        // One gradient-sized payload (4 Mi f32) through both fabrics.
        let mut rng = Rng::seed_from(mix(self.seeds.data, 500));
        let grads: Vec<Vec<f32>> = (0..DP_WORLD)
            .map(|_| {
                let mut g = vec![0.0f32; fx.allreduce_len];
                rng.fill_gaussian(&mut g, 0.02);
                g
            })
            .collect();
        let tiny = vec![vec![0.0f32; 8]; DP_WORLD];
        let seeds: Vec<u64> = (0..DP_WORLD as u64)
            .map(|r| mix(self.seeds.comm, r))
            .collect();
        let rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
        let wires = [
            (
                Wire::bf16(),
                "socket_bf16",
                "pipeline.allreduce_channel_bf16_ms",
            ),
            (
                Wire::fp4(group),
                "socket_fp4",
                "pipeline.allreduce_channel_fp4_ms",
            ),
        ];
        for _ in 0..self.rounds(1.0) {
            for (wire, socket, channel) in &wires {
                s.time("socket_launch", || {
                    proc_all_reduce(&tiny, wire, policy, &seeds).expect("socket all-reduce")
                });
                s.time(socket, || {
                    proc_all_reduce(&grads, wire, policy, &seeds).expect("socket all-reduce")
                });
                s.time(channel, || threaded_all_reduce(&grads, wire, policy, &rngs));
            }
        }
        let socket_launch = s.med("socket_launch");
        self.set(
            "pipeline.allreduce_socket_bf16_ms",
            s.med("socket_bf16") - socket_launch,
        );
        self.set(
            "pipeline.allreduce_socket_fp4_ms",
            s.med("socket_fp4") - socket_launch,
        );
        for (_, _, channel) in &wires {
            self.set(channel, s.med(channel));
        }
        self.group_done("snip-pipeline", t0);
    }
}
