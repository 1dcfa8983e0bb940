//! The perf-trajectory runner: times quantize (fake vs packed, per rounding
//! mode, activation tiles and weight blocks, in absolute ns per element),
//! decode, all six GEMM orientations and an end-to-end training step at
//! model-realistic shapes, each kernel beside the frozen timing of its PR-4
//! predecessor ([`BASELINE_MS`]), plus per-backend GEMM and pack matrices
//! with the dispatch pinned to each compiled SIMD tier in turn, the pack pool
//! split against the single-thread kernel and the SNIP probe
//! (`snip_core::measure`) against a plain step with its per-pass split,
//! and writes machine-readable `BENCH_gemm.json` at the repo root.
//!
//! ```text
//! cargo run --release -p snip-bench --bin bench_gemm            # full run
//! cargo run --release -p snip-bench --bin bench_gemm -- --smoke # CI smoke
//! cargo run --release -p snip-bench --bin bench_gemm -- --check # validate
//! ```
//!
//! `--check` re-reads the JSON (same `--out` resolution) and fails unless
//! every section is present with finite, positive timings and speedups —
//! the CI gate that keeps the trajectory from silently rotting. Before a
//! backend tier is timed, its result is asserted bit-identical to forced
//! scalar on the benched operands, so a matrix never compares different
//! math.

use serde::{Deserialize, Serialize};
use snip_nn::StepOptions;
use snip_quant::{Precision, Quantizer, TensorRole};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip_tensor::{pool, rng::Rng, simd, QOperandRef, QTensor, Tensor};
use std::time::Instant;

/// One kernel measurement. `baseline_ms` is the frozen [`BASELINE_MS`]
/// timing of the kernel's PR-4 predecessor and `speedup` is
/// `baseline_ms / current_ms`; both exist at full shapes only.
#[derive(Debug, Serialize, Deserialize)]
struct KernelRow {
    kernel: String,
    /// `m x k x n` of the GEMM as called (or `rows x cols` for decode).
    shape: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    baseline_ms: Option<f64>,
    current_ms: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    speedup: Option<f64>,
    /// Current-kernel throughput (`2·m·k·n` flops / `current_ms`); absent
    /// for decode rows, whose work is not flop-shaped.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    gflops: Option<f64>,
}

/// The machine context a run's numbers depend on — recorded so trajectories
/// from different boxes (or the same box with SIMD toggled) stay comparable.
#[derive(Debug, Serialize, Deserialize)]
struct Machine {
    arch: String,
    cpu_features: Vec<String>,
    /// Whether the `simd` cargo feature was compiled in.
    simd_compiled: bool,
    /// The backend runtime dispatch actually selected ("avx2"/"neon"/"scalar").
    simd_backend: String,
    /// f32 lanes per vector register for the selected backend (1 = scalar).
    simd_lanes: usize,
    /// Worker-pool parallelism the run used (`SNIP_THREADS` or the machine).
    threads: usize,
}

/// One cell of the per-backend GEMM matrix: the same kernel and shape timed
/// with the dispatch pinned to one compiled tier via
/// [`simd::with_forced_backend`]. Results across backends are asserted
/// bit-identical before any timing, so the matrix only ever compares
/// identical math.
#[derive(Debug, Serialize, Deserialize)]
struct BackendRow {
    backend: String,
    kernel: String,
    shape: String,
    current_ms: f64,
    gflops: f64,
}

/// One quantize measurement: the packed path against the fake-quant
/// (dequantized `Tensor` output) path over the same input and rounding
/// mode, under default dispatch. The absolute `*_ns_per_elt` columns are
/// the ones to read: `ratio` (`packed_ms / fake_ms`) only says how the two
/// paths compare *to each other* — it sat at ≈ 1.0 for three PRs while
/// both ran scalar at ~7 ns per element, which is how a pack step costing
/// 39 % of an FP4 train step went unnoticed here. `before_packed_ms` is the
/// frozen parent-commit (PR 11, scalar pack kernels) timing of the same
/// row on the reference box, where one was recorded.
#[derive(Debug, Serialize, Deserialize)]
struct QuantizeRow {
    name: String,
    shape: String,
    rounding: String,
    fake_ms: f64,
    packed_ms: f64,
    ratio: f64,
    fake_ns_per_elt: f64,
    packed_ns_per_elt: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    before_packed_ms: Option<f64>,
}

/// One cell of the per-backend pack matrix: `quantize_packed` on one
/// thread with the dispatch pinned to one compiled tier. Codes, scales and
/// the post-call RNG state are asserted identical to the forced-scalar
/// tier's before any timing.
#[derive(Debug, Serialize, Deserialize)]
struct BackendPackRow {
    backend: String,
    name: String,
    shape: String,
    rounding: String,
    packed_ms: f64,
    ns_per_elt: f64,
}

/// The nearest-rounding pack pool split against the single-thread SIMD
/// kernel at one shape (bytes asserted identical first). `split` says
/// whether default dispatch splits at this size; `speedup` is
/// `single_ms / default_ms`.
#[derive(Debug, Serialize, Deserialize)]
struct PackSplitRow {
    name: String,
    shape: String,
    elements: usize,
    split: bool,
    single_ms: f64,
    default_ms: f64,
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TrainStep {
    steps: u64,
    ms_per_step: f64,
}

/// SNIP's probe (`snip_core::measure`, paper Fig. 6 Steps 1–3) against one
/// plain forward+backward step of the same model and batch, both timed in
/// the same alternating rounds (minimum per side), so `measure_over_step`
/// — the paper budgets 2–3 steps per scheme update — is a ratio clock
/// drift cannot move. The `*_pass_ms` columns are the probe's own
/// `snip.measure.*` spans from one further traced call.
/// `before_measure_ms` is the frozen parent-commit (PR 13: three recorded
/// full steps, scalar error statistics) timing on the reference box.
#[derive(Debug, Serialize, Deserialize)]
struct ProbeRow {
    model: String,
    tokens: usize,
    fwd_bwd_ms: f64,
    measure_ms: f64,
    measure_over_step: f64,
    forward_pass_ms: f64,
    base_pass_ms: f64,
    probe_bwd_pass_ms: f64,
    probe_fwd_pass_ms: f64,
    stats_pass_ms: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    before_measure_ms: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: u64,
    generated_by: String,
    smoke: bool,
    machine: Machine,
    gemm: Vec<KernelRow>,
    backend_gemm: Vec<BackendRow>,
    decode: Vec<KernelRow>,
    quantize: Vec<QuantizeRow>,
    backend_pack: Vec<BackendPackRow>,
    pack_split: Vec<PackSplitRow>,
    train_step: TrainStep,
    probe: ProbeRow,
}

/// Schema of the report this binary writes and `--check` accepts.
const SCHEMA: u64 = 7;

/// Parent-commit (PR 13: three recorded full steps, scalar error
/// statistics) `measure` on the full probe fixture — reference box, the
/// estimator of [`probe_row`], taken right before the staged probe landed.
/// Frozen like [`BEFORE_PACKED_MS`].
const BEFORE_MEASURE_MS: f64 = 1714.9;

/// `--check`'s ceiling on `measure_over_step` at full shapes: the paper's
/// 2–3 steps per update plus headroom for the statistics.
const MAX_MEASURE_OVER_STEP: f64 = 3.5;

/// Parent-commit (PR 11: scalar pack kernels) `quantize_packed` timings on
/// the reference box (2 cores, avx512f), taken with this file's
/// min-of-reps estimator right before the vector pack engine landed:
/// `(row name, shape, rounding, ms)`. A commit cannot re-time its parent,
/// so the "before" column is frozen here.
const BEFORE_PACKED_MS: &[(&str, &str, &str, f64)] = &[
    ("quantize_fp4", "256x768", "nearest", 1.356),
    ("quantize_fp4", "256x768", "stochastic", 1.742),
    ("quantize_fp8", "256x768", "nearest", 1.347),
    ("quantize_fp8", "256x768", "stochastic", 1.703),
    ("quantize_fp4_weight", "768x768", "nearest", 3.953),
    ("quantize_fp4_weight", "2048x768", "nearest", 10.478),
    ("quantize_fp8_weight", "768x768", "nearest", 4.008),
    ("quantize_fp8_weight", "2048x768", "nearest", 10.716),
];

/// The PR-4 kernels (serial i-k-j / dot-product dense loops, per-element
/// `set_code` packing, branchy per-element decode) timed on the reference
/// box at the full shapes, `(kernel, shape, ms)` — the `baseline_ms` column
/// of the last report that ran them (schema 6, PR 14). The kernels
/// themselves lived in `snip_bench::legacy` until PR 16; their numbers are
/// frozen here like [`BEFORE_PACKED_MS`].
const BASELINE_MS: &[(&str, &str, f64)] = &[
    ("matmul", "256x768x768", 9.77805),
    ("matmul_nt", "256x768x768", 48.549052),
    ("matmul_tn", "768x256x768", 8.673641),
    ("qgemm", "256x768x768", 9.554723),
    ("qgemm_nt", "256x768x768", 52.388114),
    ("qgemm_tn", "768x256x768", 8.439564),
    ("matmul", "256x2048x768", 33.044985),
    ("matmul_nt", "256x768x2048", 126.389906),
    ("matmul_tn", "2048x256x768", 30.315953),
    ("qgemm", "256x2048x768", 24.564989),
    ("qgemm_nt", "256x768x2048", 139.912758),
    ("qgemm_tn", "2048x256x768", 30.75029),
    ("decode_fp4", "256x768", 0.24875599999999998),
    ("decode_fp8", "256x768", 0.10801100000000001),
];

/// The six GEMM kernels every report must carry.
const KERNELS: [&str; 6] = [
    "matmul",
    "matmul_nt",
    "matmul_tn",
    "qgemm",
    "qgemm_nt",
    "qgemm_tn",
];

fn default_out_path() -> std::path::PathBuf {
    // crates/bench → repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gemm.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out_path);

    if check {
        match check_report(&out) {
            Ok(summary) => println!("BENCH_gemm.json OK: {summary}"),
            Err(e) => {
                eprintln!("BENCH_gemm.json check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = run(smoke);
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, pretty(&json)).expect("write BENCH_gemm.json");
    println!("wrote {}", out.display());
    print_summary(&report);
}

/// Timing loop: one warm-up call, then `reps` timed calls, best (minimum)
/// wall-clock per call in milliseconds. Minimum-of-reps is the standard
/// low-noise estimator for deterministic CPU kernels.
fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: differs from forced scalar — refusing to time different math"
        );
    }
}

fn pack(t: &Tensor, role: TensorRole, rng: &mut Rng) -> QTensor {
    let q: Quantizer = Precision::Fp4.quantizer_with_group(role, 128);
    q.quantize_packed(t, rng).expect("FP4 is packable")
}

fn run(smoke: bool) -> Report {
    // Model-realistic linear-layer dimensions: `tokens × d_out × d_in` for
    // an attention-ish and an MLP-ish layer (the three GEMM orientations
    // of one layer are derived from the same triple, like `snip-nn` does).
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 160, 128)]
    } else {
        &[(256, 768, 768), (256, 2048, 768)]
    };
    let reps = if smoke { 2 } else { 5 };
    let machine = Machine {
        arch: std::env::consts::ARCH.to_string(),
        cpu_features: simd::detected_features()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        simd_compiled: simd::compiled(),
        simd_backend: simd::backend().to_string(),
        simd_lanes: simd::lane_width(),
        threads: pool::size(),
    };
    let mut rng = Rng::seed_from(0xBE7C);

    let mut gemm = Vec::new();
    let mut decode = Vec::new();
    let mut quantize = Vec::new();
    let mut backend_pack = Vec::new();
    let mut pack_split = Vec::new();
    let mut seen_act_shapes = std::collections::HashSet::new();

    for &(tokens, d_out, d_in) in shapes {
        let x = Tensor::randn(tokens, d_in, 1.0, &mut rng); // activations
        let w = Tensor::randn(d_out, d_in, 0.05, &mut rng); // weight (out×in)
        let dy = Tensor::randn(tokens, d_out, 1.0, &mut rng); // output grad
        let qx = pack(&x, TensorRole::Input, &mut rng);
        let qw = pack(&w, TensorRole::Weight, &mut rng);
        let qdy = pack(&dy, TensorRole::OutputGrad, &mut rng);
        // Dense views of the packed operands, so dense and packed kernels
        // compute the same product.
        let (dx_, dw_, ddy_) = (qx.dequantize(), qw.dequantize(), qdy.dequantize());

        // forward Y = X·Wᵀ (nt), input grad dX = dY·W (nn),
        // weight grad dW = dYᵀ·X (tn).
        type GemmCall<'a> = Box<dyn Fn() -> Tensor + 'a>;
        let rows: [(&str, String, GemmCall<'_>); 6] = [
            (
                "matmul",
                format!("{tokens}x{d_out}x{d_in}"),
                Box::new(|| matmul(&ddy_, &dw_)),
            ),
            (
                "matmul_nt",
                format!("{tokens}x{d_in}x{d_out}"),
                Box::new(|| matmul_nt(&dx_, &dw_)),
            ),
            (
                "matmul_tn",
                format!("{d_out}x{tokens}x{d_in}"),
                Box::new(|| matmul_tn(&ddy_, &dx_)),
            ),
            (
                "qgemm",
                format!("{tokens}x{d_out}x{d_in}"),
                Box::new(|| qgemm(QOperandRef::from(&qdy), QOperandRef::from(&qw))),
            ),
            (
                "qgemm_nt",
                format!("{tokens}x{d_in}x{d_out}"),
                Box::new(|| qgemm_nt(QOperandRef::from(&qx), QOperandRef::from(&qw))),
            ),
            (
                "qgemm_tn",
                format!("{d_out}x{tokens}x{d_in}"),
                Box::new(|| qgemm_tn(QOperandRef::from(&qdy), QOperandRef::from(&qx))),
            ),
        ];

        // Every orientation of one layer triple does the same 2·m·k·n flops.
        let flops = 2.0 * (tokens * d_out * d_in) as f64;
        for (kernel, shape, current) in rows {
            let current_ms = time_best_ms(reps, &*current);
            let gflops = Some(flops / (current_ms * 1e6));
            gemm.push(kernel_row(kernel.to_string(), shape, current_ms, gflops));
        }

        // The layer's weight, packed the way `snip-nn` packs it (block
        // scales, nearest): the largest pack of a train step.
        for p in [Precision::Fp4, Precision::Fp8] {
            let quantizer = p.quantizer_with_group(TensorRole::Weight, 128);
            let name = format!("quantize_{p}_weight");
            quantize.push(quantize_row(name.clone(), &w, quantizer, reps));
            if p == Precision::Fp4 {
                backend_pack.extend(backend_pack_rows(&name, &w, quantizer, reps));
            }
        }
        pack_split.push(pack_split_row(&w, reps));

        // Decode and activation quantize depend only on the activation
        // shape, which several GEMM triples can share — measure each
        // distinct shape once.
        let act_shape = format!("{tokens}x{d_in}");
        if !seen_act_shapes.insert(act_shape.clone()) {
            continue;
        }

        // Decode: the pair-table path.
        for (fmt, q) in [("fp4", &qx), ("fp8", &pack_fp8(&x, &mut rng))] {
            let current_ms = time_best_ms(reps, || q.dequantize());
            decode.push(kernel_row(
                format!("decode_{fmt}"),
                act_shape.clone(),
                current_ms,
                None,
            ));
        }

        // Activation quantize (1×128 tiles), per rounding mode.
        for p in [Precision::Fp4, Precision::Fp8] {
            for rounding in [
                snip_quant::Rounding::Nearest,
                snip_quant::Rounding::Stochastic,
            ] {
                let quantizer = p
                    .quantizer_with_group(TensorRole::Input, 128)
                    .with_rounding(rounding);
                let name = format!("quantize_{p}");
                quantize.push(quantize_row(name.clone(), &x, quantizer, reps));
                backend_pack.extend(backend_pack_rows(&name, &x, quantizer, reps));
            }
        }
    }

    let backend_gemm = backend_gemm_sweep(shapes, reps, &mut rng);

    // End-to-end training step on the shared bench fixture.
    let steps: u64 = if smoke { 2 } else { 8 };
    let mut trainer = snip_bench::fixtures::bench_trainer();
    let t0 = Instant::now();
    let _ = trainer.train(steps);
    let ms_per_step = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;

    Report {
        schema: SCHEMA,
        generated_by: "bench_gemm".to_string(),
        smoke,
        machine,
        gemm,
        backend_gemm,
        decode,
        quantize,
        backend_pack,
        pack_split,
        train_step: TrainStep { steps, ms_per_step },
        probe: probe_row(smoke),
    }
}

/// A `gemm`/`decode` row: the measured time beside the frozen PR-4 timing
/// of the same kernel and shape, where [`BASELINE_MS`] has one (the full
/// shapes; smoke shapes have none).
fn kernel_row(kernel: String, shape: String, current_ms: f64, gflops: Option<f64>) -> KernelRow {
    let baseline_ms = BASELINE_MS
        .iter()
        .find(|(k, s, _)| *k == kernel && *s == shape)
        .map(|&(.., ms)| ms);
    KernelRow {
        kernel,
        shape,
        baseline_ms,
        current_ms,
        speedup: baseline_ms.map(|b| b / current_ms),
        gflops,
    }
}

/// Times `measure` against a plain step on the probe fixture and reads
/// the per-pass split from the probe's spans.
fn probe_row(smoke: bool) -> ProbeRow {
    let mut t = snip_bench::fixtures::probe_trainer(smoke);
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(0x5712);
    let mut probe = |t: &mut snip_core::Trainer| {
        snip_core::measure(&mut t.model, &t.optimizer, &batch, &mut rng, 1e-2)
    };
    let (mut fwd_bwd_ms, mut measure_ms) = (f64::INFINITY, f64::INFINITY);
    for round in 0..if smoke { 2 } else { 4 } {
        let t0 = Instant::now();
        t.model.zero_grads();
        std::hint::black_box(
            t.model
                .step(&batch, &mut Rng::seed_from(1), &StepOptions::train()),
        );
        let step = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        std::hint::black_box(probe(&mut t));
        let measure = t0.elapsed().as_secs_f64() * 1e3;
        // Round 0 warms the allocator and the pool.
        if round > 0 {
            fwd_bwd_ms = fwd_bwd_ms.min(step);
            measure_ms = measure_ms.min(measure);
        }
    }
    const PASS_SPANS: [&str; 5] = [
        "snip.measure.forward",
        "snip.measure.base",
        "snip.measure.probe_bwd",
        "snip.measure.probe_fwd",
        "snip.measure.stats",
    ];
    let span_sums_ns = || PASS_SPANS.map(|name| snip_obs::hist_snapshot(name).map_or(0, |h| h.sum));
    let before = span_sums_ns();
    {
        let _collect = snip_obs::enabled_scope(true);
        std::hint::black_box(probe(&mut t));
    }
    let after = span_sums_ns();
    let [forward_pass_ms, base_pass_ms, probe_bwd_pass_ms, probe_fwd_pass_ms, stats_pass_ms] =
        std::array::from_fn(|i| (after[i] - before[i]) as f64 / 1e6);
    let cfg = t.config();
    ProbeRow {
        model: cfg.model.name.clone(),
        tokens: cfg.batch_size * cfg.seq_len,
        fwd_bwd_ms,
        measure_ms,
        measure_over_step: measure_ms / fwd_bwd_ms,
        forward_pass_ms,
        base_pass_ms,
        probe_bwd_pass_ms,
        probe_fwd_pass_ms,
        stats_pass_ms,
        before_measure_ms: (!smoke).then_some(BEFORE_MEASURE_MS),
    }
}

fn rounding_name(q: &Quantizer) -> String {
    format!("{:?}", q.rounding()).to_lowercase()
}

fn ns_per_elt(ms: f64, t: &Tensor) -> f64 {
    ms * 1e6 / t.len() as f64
}

/// Times the packed path against the fake-quant path on `t` under default
/// dispatch. (The packed path emits codes *and* scales where the fake path
/// writes a dequantized grid; both do one scan and one rounding per
/// element.)
fn quantize_row(name: String, t: &Tensor, quantizer: Quantizer, reps: usize) -> QuantizeRow {
    let (rows, cols) = t.shape();
    let shape = format!("{rows}x{cols}");
    let rounding = rounding_name(&quantizer);
    let mut frng = Rng::seed_from(11);
    let fake_ms = time_best_ms(reps, || quantizer.fake_quantize(t, &mut frng));
    let mut qrng = Rng::seed_from(11);
    let packed_ms = time_best_ms(reps, || {
        quantizer.quantize_packed(t, &mut qrng).expect("packable")
    });
    let before_packed_ms = BEFORE_PACKED_MS
        .iter()
        .find(|(n, s, r, _)| *n == name && *s == shape && *r == rounding)
        .map(|&(.., ms)| ms);
    QuantizeRow {
        name,
        shape,
        rounding,
        fake_ms,
        packed_ms,
        ratio: packed_ms / fake_ms,
        fake_ns_per_elt: ns_per_elt(fake_ms, t),
        packed_ns_per_elt: ns_per_elt(packed_ms, t),
        before_packed_ms,
    }
}

/// Packs from a fixed RNG state; returns the pack and the state after.
fn pack_seeded(q: &Quantizer, t: &Tensor) -> (QTensor, Rng) {
    let mut rng = Rng::seed_from(11);
    let packed = q.quantize_packed(t, &mut rng).expect("packable");
    (packed, rng)
}

/// Times `quantize_packed` of `t` on one thread with the dispatch pinned
/// to every compiled backend tier in turn. A tier is timed only after its
/// codes, scales and post-call RNG state matched forced scalar.
fn backend_pack_rows(name: &str, t: &Tensor, q: Quantizer, reps: usize) -> Vec<BackendPackRow> {
    fn pinned<R>(backend: simd::Backend, f: impl FnOnce() -> R) -> R {
        simd::with_forced_backend(backend, || pool::with_threads(1, f))
    }
    let (rows, cols) = t.shape();
    let reference = pinned(simd::Backend::Scalar, || pack_seeded(&q, t));
    simd::available_backends()
        .into_iter()
        .map(|backend| {
            assert!(
                pinned(backend, || pack_seeded(&q, t)) == reference,
                "{name} @ {}: codes, scales or RNG state differ from forced scalar — \
                 refusing to time different math",
                backend.name()
            );
            let mut rng = Rng::seed_from(11);
            let packed_ms = pinned(backend, || {
                time_best_ms(reps, || q.quantize_packed(t, &mut rng).expect("packable"))
            });
            BackendPackRow {
                backend: backend.name().to_string(),
                name: name.to_string(),
                shape: format!("{rows}x{cols}"),
                rounding: rounding_name(&q),
                packed_ms,
                ns_per_elt: ns_per_elt(packed_ms, t),
            }
        })
        .collect()
}

/// Times the FP4 weight pack of `w` on one thread against default
/// dispatch, which splits nearest-rounding packs over the pool in
/// scale-group-aligned row bands above a size cutoff. This row is what
/// keeps (or would retire) the split: it stays only while the 2048×768
/// shape shows ≥ 1.3× over the single-thread SIMD kernel.
fn pack_split_row(w: &Tensor, reps: usize) -> PackSplitRow {
    let q = Precision::Fp4.quantizer_with_group(TensorRole::Weight, 128);
    let (rows, cols) = w.shape();
    let single = pool::with_threads(1, || pack_seeded(&q, w));
    assert!(
        pack_seeded(&q, w) == single,
        "pack pool split changed bytes — refusing to time different math"
    );
    let mut rng = Rng::seed_from(11);
    // Alternating rounds, minimum per side: robust to clock drift.
    let (mut single_ms, mut default_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        single_ms = single_ms.min(pool::with_threads(1, || {
            time_best_ms(reps, || q.quantize_packed(w, &mut rng).expect("packable"))
        }));
        default_ms = default_ms.min(time_best_ms(reps, || {
            q.quantize_packed(w, &mut rng).expect("packable")
        }));
    }
    PackSplitRow {
        name: "quantize_fp4_weight".to_string(),
        shape: format!("{rows}x{cols}"),
        elements: w.len(),
        split: pool::size() > 1 && w.len() >= snip_quant::codebook::PACK_PARALLEL_THRESHOLD,
        single_ms,
        default_ms,
        speedup: single_ms / default_ms,
    }
}

/// Times the dense and packed forward kernels at each full shape with the
/// dispatch pinned to every compiled backend tier in turn. Before timing,
/// every tier's result is asserted bit-identical to the scalar tier's, so a
/// backend row can never record a kernel that drifted. This is the
/// per-backend evidence for the SIMD trajectory: scalar → 8-lane AVX2 →
/// 16-lane AVX-512 on the same box, same binary, same operands.
fn backend_gemm_sweep(
    shapes: &[(usize, usize, usize)],
    reps: usize,
    rng: &mut Rng,
) -> Vec<BackendRow> {
    let mut out = Vec::new();
    for &(tokens, d_out, d_in) in shapes {
        let dy = Tensor::randn(tokens, d_out, 1.0, rng);
        let w = Tensor::randn(d_out, d_in, 0.05, rng);
        let qdy = pack(&dy, TensorRole::OutputGrad, rng);
        let qw = pack(&w, TensorRole::Weight, rng);
        let dw_ = qw.dequantize();

        type Call<'a> = Box<dyn Fn() -> Tensor + 'a>;
        let kernels: [(&str, Call<'_>); 2] = [
            ("matmul", Box::new(|| matmul(&dy, &dw_))),
            (
                "qgemm",
                Box::new(|| qgemm(QOperandRef::from(&qdy), QOperandRef::from(&qw))),
            ),
        ];
        let flops = 2.0 * (tokens * d_out * d_in) as f64;
        for (kernel, call) in kernels {
            let reference = simd::with_forced_backend(simd::Backend::Scalar, &*call);
            for backend in simd::available_backends() {
                let result = simd::with_forced_backend(backend, &*call);
                assert_bits_eq(
                    &result,
                    &reference,
                    &format!("{kernel} @ {}", backend.name()),
                );
                let current_ms = simd::with_forced_backend(backend, || time_best_ms(reps, &*call));
                out.push(BackendRow {
                    backend: backend.name().to_string(),
                    kernel: kernel.to_string(),
                    shape: format!("{tokens}x{d_out}x{d_in}"),
                    current_ms,
                    gflops: flops / (current_ms * 1e6),
                });
            }
        }
    }
    out
}

fn pack_fp8(t: &Tensor, rng: &mut Rng) -> QTensor {
    Precision::Fp8
        .quantizer_with_group(TensorRole::Input, 128)
        .quantize_packed(t, rng)
        .expect("FP8 is packable")
}

fn check_report(path: &std::path::Path) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let report: Report =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if report.schema != SCHEMA {
        return Err(format!("unknown schema {}", report.schema));
    }
    let mach = &report.machine;
    if mach.arch.is_empty() || mach.simd_backend.is_empty() {
        return Err("machine section is missing arch/simd_backend".to_string());
    }
    if mach.simd_lanes == 0 || mach.threads == 0 {
        return Err(format!(
            "machine: simd_lanes = {}, threads = {}",
            mach.simd_lanes, mach.threads
        ));
    }
    for kernel in KERNELS {
        if !report.gemm.iter().any(|r| r.kernel == kernel) {
            return Err(format!("gemm section is missing kernel `{kernel}`"));
        }
    }
    for r in &report.gemm {
        match r.gflops {
            Some(g) if g.is_finite() && g > 0.0 => {}
            other => return Err(format!("{} {}: gflops = {other:?}", r.kernel, r.shape)),
        }
    }
    if report.backend_gemm.is_empty() {
        return Err("backend_gemm section is empty".to_string());
    }
    // Every backend in the matrix must cover the same kernels, the machine's
    // selected backend must appear, and a scalar baseline must be present
    // (it is compiled unconditionally, so its absence means a broken sweep).
    let backends: std::collections::BTreeSet<&str> = report
        .backend_gemm
        .iter()
        .map(|r| r.backend.as_str())
        .collect();
    if !backends.contains("scalar") {
        return Err("backend_gemm is missing the scalar tier".to_string());
    }
    if !backends.contains(mach.simd_backend.as_str()) {
        return Err(format!(
            "backend_gemm is missing the dispatched backend `{}`",
            mach.simd_backend
        ));
    }
    for backend in &backends {
        for kernel in ["matmul", "qgemm"] {
            if !report
                .backend_gemm
                .iter()
                .any(|r| r.backend == *backend && r.kernel == kernel)
            {
                return Err(format!("backend_gemm: `{backend}` is missing `{kernel}`"));
            }
        }
    }
    for r in &report.backend_gemm {
        for (what, v) in [("current_ms", r.current_ms), ("gflops", r.gflops)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "backend_gemm {} {} {}: {what} = {v}",
                    r.backend, r.kernel, r.shape
                ));
            }
        }
    }
    if report.decode.is_empty() {
        return Err("decode section is empty".to_string());
    }
    if report.quantize.is_empty() {
        return Err("quantize section is empty".to_string());
    }
    for rounding in ["nearest", "stochastic"] {
        if !report.quantize.iter().any(|r| r.rounding == rounding) {
            return Err(format!("quantize section has no `{rounding}` rows"));
        }
    }
    for r in report.gemm.iter().chain(&report.decode) {
        // Full shapes carry the frozen baseline; smoke shapes have none.
        if r.baseline_ms.is_some() == report.smoke || r.speedup.is_some() == report.smoke {
            return Err(format!(
                "{} {}: baseline_ms = {:?}, speedup = {:?} with smoke = {}",
                r.kernel, r.shape, r.baseline_ms, r.speedup, report.smoke
            ));
        }
        for (what, v) in [
            ("baseline_ms", r.baseline_ms.unwrap_or(1.0)),
            ("current_ms", r.current_ms),
            ("speedup", r.speedup.unwrap_or(1.0)),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{} {}: {what} = {v}", r.kernel, r.shape));
            }
        }
    }
    if !report.quantize.iter().any(|r| r.name.ends_with("_weight")) {
        return Err("quantize section has no weight-shape rows".to_string());
    }
    for r in &report.quantize {
        for (what, v) in [
            ("fake_ms", r.fake_ms),
            ("packed_ms", r.packed_ms),
            ("ratio", r.ratio),
            ("fake_ns_per_elt", r.fake_ns_per_elt),
            ("packed_ns_per_elt", r.packed_ns_per_elt),
            ("before_packed_ms", r.before_packed_ms.unwrap_or(1.0)),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{} {}: {what} = {v}", r.name, r.rounding));
            }
        }
    }
    // The pack matrix mirrors the GEMM matrix: every tier covers the same
    // cases, scalar and the dispatched backend are present.
    let pack_backends: std::collections::BTreeSet<&str> = report
        .backend_pack
        .iter()
        .map(|r| r.backend.as_str())
        .collect();
    if pack_backends != backends {
        return Err(format!(
            "backend_pack covers {pack_backends:?}, backend_gemm {backends:?}"
        ));
    }
    let scalar_cases = report
        .backend_pack
        .iter()
        .filter(|r| r.backend == "scalar")
        .count();
    for backend in &pack_backends {
        let cases = report
            .backend_pack
            .iter()
            .filter(|r| r.backend == *backend)
            .count();
        if cases != scalar_cases {
            return Err(format!(
                "backend_pack: `{backend}` has {cases} rows, scalar {scalar_cases}"
            ));
        }
    }
    for rounding in ["nearest", "stochastic"] {
        if !report.backend_pack.iter().any(|r| r.rounding == rounding) {
            return Err(format!("backend_pack has no `{rounding}` rows"));
        }
    }
    for r in &report.backend_pack {
        for (what, v) in [("packed_ms", r.packed_ms), ("ns_per_elt", r.ns_per_elt)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "backend_pack {} {} {}: {what} = {v}",
                    r.backend, r.name, r.rounding
                ));
            }
        }
    }
    if report.pack_split.is_empty() {
        return Err("pack_split section is empty".to_string());
    }
    for r in &report.pack_split {
        for (what, v) in [
            ("single_ms", r.single_ms),
            ("default_ms", r.default_ms),
            ("speedup", r.speedup),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("pack_split {}: {what} = {v}", r.shape));
            }
        }
    }
    let ts = &report.train_step;
    if ts.steps == 0 || !ts.ms_per_step.is_finite() || ts.ms_per_step <= 0.0 {
        return Err(format!(
            "train_step: steps = {}, ms_per_step = {}",
            ts.steps, ts.ms_per_step
        ));
    }
    let pr = &report.probe;
    for (what, v) in [
        ("fwd_bwd_ms", pr.fwd_bwd_ms),
        ("measure_ms", pr.measure_ms),
        ("measure_over_step", pr.measure_over_step),
        ("forward_pass_ms", pr.forward_pass_ms),
        ("base_pass_ms", pr.base_pass_ms),
        ("probe_bwd_pass_ms", pr.probe_bwd_pass_ms),
        ("probe_fwd_pass_ms", pr.probe_fwd_pass_ms),
        ("stats_pass_ms", pr.stats_pass_ms),
        ("before_measure_ms", pr.before_measure_ms.unwrap_or(1.0)),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("probe: {what} = {v}"));
        }
    }
    // Tiny smoke shapes are all fixed cost; the budget is a claim about
    // model-realistic ones.
    if !report.smoke && pr.measure_over_step > MAX_MEASURE_OVER_STEP {
        return Err(format!(
            "probe: measure costs {:.2} steps ({:.1} ms / {:.1} ms), budget {MAX_MEASURE_OVER_STEP}",
            pr.measure_over_step, pr.measure_ms, pr.fwd_bwd_ms
        ));
    }
    Ok(format!(
        "{} gemm rows, {} backend rows ({}), {} decode rows, {} quantize rows, \
         {} backend-pack rows, {} pack-split rows, probe = {:.2} steps, \
         {:.2} ms/train-step, {} simd on {} threads",
        report.gemm.len(),
        report.backend_gemm.len(),
        backends.iter().copied().collect::<Vec<_>>().join("/"),
        report.decode.len(),
        report.quantize.len(),
        report.backend_pack.len(),
        report.pack_split.len(),
        pr.measure_over_step,
        ts.ms_per_step,
        mach.simd_backend,
        mach.threads
    ))
}

fn print_summary(report: &Report) {
    let mach = &report.machine;
    println!(
        "{} [{}], simd = {} ({} lanes, compiled = {}), threads = {}, smoke = {}",
        mach.arch,
        mach.cpu_features.join(","),
        mach.simd_backend,
        mach.simd_lanes,
        mach.simd_compiled,
        mach.threads,
        report.smoke
    );
    for r in report.gemm.iter().chain(&report.decode) {
        let gflops = r
            .gflops
            .map(|g| format!("  {g:>6.2} GFLOP/s"))
            .unwrap_or_default();
        let before = r
            .baseline_ms
            .map(|b| format!("  (PR 4 {b:.3} ms, {:.2}x)", b / r.current_ms))
            .unwrap_or_default();
        println!(
            "  {:>12} {:>14}  {:>9.3} ms{gflops}{before}",
            r.kernel, r.shape, r.current_ms
        );
    }
    for r in &report.backend_gemm {
        println!(
            "  {:>12} {:>14}  {:>9.3} ms   {:>6.2} GFLOP/s  [{}]",
            r.kernel, r.shape, r.current_ms, r.gflops, r.backend
        );
    }
    for r in &report.quantize {
        let before = r
            .before_packed_ms
            .map(|b| format!("  (parent {b:.3} ms, {:.1}x)", b / r.packed_ms))
            .unwrap_or_default();
        println!(
            "  {:>19} {:>9}  fake {:>7.3} ms {:>5.2} ns/elt → packed {:>7.3} ms {:>5.2} ns/elt  ({}){before}",
            r.name, r.shape, r.fake_ms, r.fake_ns_per_elt, r.packed_ms, r.packed_ns_per_elt,
            r.rounding
        );
    }
    for r in &report.backend_pack {
        println!(
            "  {:>19} {:>9}  {:>9.3} ms   {:>5.2} ns/elt  ({})  [{}]",
            r.name, r.shape, r.packed_ms, r.ns_per_elt, r.rounding, r.backend
        );
    }
    for r in &report.pack_split {
        println!(
            "  {:>19} {:>9}  {:>9.3} ms 1 thread → {:>9.3} ms default  {:>5.2}x  (split = {})",
            r.name, r.shape, r.single_ms, r.default_ms, r.speedup, r.split
        );
    }
    println!(
        "  {:>12} {:>14}  {:>9.3} ms/step",
        "train_step", "-", report.train_step.ms_per_step
    );
    let pr = &report.probe;
    let before = pr
        .before_measure_ms
        .map(|b| format!("  (parent {b:.1} ms, {:.2}x)", b / pr.measure_ms))
        .unwrap_or_default();
    println!(
        "  {:>12} {:>14}  {:>9.3} ms = {:.2} x {:.3} ms fwd+bwd{before}\n  {:>27}  forward {:.1} + base {:.1} + probe_bwd {:.1} + probe_fwd {:.1} + stats {:.1} ms",
        "measure",
        pr.model,
        pr.measure_ms,
        pr.measure_over_step,
        pr.fwd_bwd_ms,
        "",
        pr.forward_pass_ms,
        pr.base_pass_ms,
        pr.probe_bwd_pass_ms,
        pr.probe_fwd_pass_ms,
        pr.stats_pass_ms
    );
}

/// Minimal pretty-printer: the vendored `serde_json` emits compact JSON;
/// a trailing newline keeps the artifact diff-friendly.
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for ch in json.chars() {
        if in_str {
            out.push(ch);
            if escape {
                escape = false;
            } else if ch == '\\' {
                escape = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                depth += 1;
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(ch);
            }
            ',' => {
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            ':' => {
                out.push(ch);
                out.push(' ');
            }
            _ => out.push(ch),
        }
    }
    out.push('\n');
    out
}
