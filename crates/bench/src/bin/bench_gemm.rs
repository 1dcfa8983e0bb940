//! The perf-trajectory runner: times every kernel a linear layer runs — all
//! six GEMM orientations, the pack (`quantize_packed`) and the decode
//! (`dequantize`) — at model-realistic shapes, once per (backend tier,
//! kernel, shape) with the dispatch pinned to each compiled SIMD tier in
//! turn, plus the SNIP probe (`snip_core::measure`) against a plain step
//! with its per-pass split, and writes machine-readable `BENCH_gemm.json`
//! at the repo root.
//!
//! ```text
//! cargo run --release -p snip-bench --bin bench_gemm            # full run
//! cargo run --release -p snip-bench --bin bench_gemm -- --smoke # CI smoke
//! cargo run --release -p snip-bench --bin bench_gemm -- --check # validate
//! ```
//!
//! Schema 9 holds three per-tier tables of one row type ([`Row`]) — `gemm`
//! (GFLOP/s), `pack` and `decode` (ns per element) — plus `machine` and
//! `probe`. The dispatched tier's rows are what a training step runs; there
//! is no second, default-dispatch copy. Before a tier is timed, its output
//! (GEMM and decode bits; pack codes, scales and post-call RNG state) is
//! asserted equal to forced scalar's on the benched operands, so a table
//! never compares different math.
//!
//! `--check` re-reads the JSON (same `--out` resolution) and applies one
//! coverage rule to every table: scalar and the dispatched backend are
//! present, every tier carries scalar's (kernel, shape) set, and every `ms`
//! and rate is finite and > 0. At full shapes the probe must cost at most
//! [`MAX_MEASURE_OVER_STEP`] steps.

use serde::{Deserialize, Serialize};
use snip_nn::StepOptions;
use snip_quant::{Precision, Quantizer, Rounding, TensorRole};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip_tensor::{pool, rng::Rng, simd, QOperandRef, QTensor, Tensor};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One measurement: `kernel` at `shape` with the dispatch pinned to
/// `backend`. `rate` is the table's throughput: GFLOP/s in `gemm`
/// (`2·m·k·n` flops / `ms`), ns per element in `pack` and `decode`.
#[derive(Debug, Serialize, Deserialize)]
struct Row {
    backend: String,
    kernel: String,
    /// `m x k x n` of the GEMM as called, or `rows x cols` of the packed
    /// or decoded tensor.
    shape: String,
    ms: f64,
    rate: f64,
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

/// SNIP's probe (`snip_core::measure`, paper Fig. 6 Steps 1–3) against one
/// plain forward+backward step of the same model and batch, both timed in
/// the same alternating rounds (minimum per side), so `measure_over_step`
/// — the paper budgets 2–3 steps per scheme update — is a ratio clock
/// drift cannot move. The `*_pass_ms` columns are the probe's own
/// `snip.measure.*` spans from one further traced call.
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
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: u64,
    generated_by: String,
    smoke: bool,
    machine: Machine,
    gemm: Vec<Row>,
    decode: Vec<Row>,
    pack: Vec<Row>,
    probe: ProbeRow,
}

/// The `schema` key alone, parsed before the full report so that a file of
/// another schema fails on its version rather than on a missing table.
#[derive(Deserialize)]
struct SchemaOnly {
    schema: u64,
}

/// Schema of the report this binary writes and `--check` accepts.
const SCHEMA: u64 = 9;

/// `--check`'s ceiling on `measure_over_step` at full shapes: the paper's
/// 2–3 steps per update plus headroom for the statistics.
const MAX_MEASURE_OVER_STEP: f64 = 3.5;

/// Scale-group width of every benched pack: 1×128 activation tiles and
/// 128×128 weight blocks, as `snip-nn` packs them.
const GROUP: usize = 128;

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
        let checked = std::fs::read_to_string(&out)
            .map_err(|e| format!("read {}: {e}", out.display()))
            .and_then(|json| check_report(&json));
        match checked {
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

/// Times `timed` with the dispatch pinned to every compiled backend tier in
/// turn, scalar first. A tier is timed only after `gate`'s output under it
/// equals forced scalar's — refusing to time different math. `rate` turns
/// the measured milliseconds into the table's throughput.
fn per_tier<G: PartialEq, R>(
    kernel: &str,
    shape: &str,
    reps: usize,
    rate: impl Fn(f64) -> f64,
    gate: impl Fn() -> G,
    mut timed: impl FnMut() -> R,
) -> Vec<Row> {
    let reference = simd::with_forced_backend(simd::Backend::Scalar, &gate);
    simd::available_backends()
        .into_iter()
        .map(|backend| {
            assert!(
                simd::with_forced_backend(backend, &gate) == reference,
                "{kernel} {shape} @ {}: differs from forced scalar — refusing to time different math",
                backend.name()
            );
            let ms = simd::with_forced_backend(backend, || time_best_ms(reps, &mut timed));
            Row {
                backend: backend.name().to_string(),
                kernel: kernel.to_string(),
                shape: shape.to_string(),
                ms,
                rate: rate(ms),
            }
        })
        .collect()
}

/// A tensor's shape and element bits: what every tier must reproduce.
fn bits(t: &Tensor) -> ((usize, usize), Vec<u32>) {
    (
        t.shape(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

fn shape_of(t: &Tensor) -> String {
    let (rows, cols) = t.shape();
    format!("{rows}x{cols}")
}

fn ns_per_elt(elements: usize) -> impl Fn(f64) -> f64 {
    move |ms| ms * 1e6 / elements as f64
}

fn pack(p: Precision, t: &Tensor, role: TensorRole, rng: &mut Rng) -> QTensor {
    p.quantizer_with_group(role, GROUP)
        .quantize_packed(t, rng)
        .expect("FP4 and FP8 are packable")
}

/// Packs from a fixed RNG state; returns the pack and the state after.
fn pack_seeded(q: &Quantizer, t: &Tensor) -> (QTensor, Rng) {
    let mut rng = Rng::seed_from(11);
    let packed = q.quantize_packed(t, &mut rng).expect("packable");
    (packed, rng)
}

/// The `pack` rows of one quantizer: `role`'s scale layout at `p` with
/// `rounding`, named `pack_<format>_<layout>_<rounding>`.
fn pack_rows(
    p: Precision,
    role: TensorRole,
    rounding: Rounding,
    t: &Tensor,
    reps: usize,
) -> Vec<Row> {
    let q = p.quantizer_with_group(role, GROUP).with_rounding(rounding);
    let layout = match role {
        TensorRole::Weight => format!("block{GROUP}x{GROUP}"),
        TensorRole::Input | TensorRole::OutputGrad => format!("tile1x{GROUP}"),
    };
    let rounding = format!("{rounding:?}").to_lowercase();
    let mut rng = Rng::seed_from(11);
    per_tier(
        &format!("pack_{p}_{layout}_{rounding}"),
        &shape_of(t),
        reps,
        ns_per_elt(t.len()),
        || pack_seeded(&q, t),
        || q.quantize_packed(t, &mut rng).expect("packable"),
    )
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

    let (mut gemm, mut decode, mut pack_table) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen_act_shapes = BTreeSet::new();

    for &(tokens, d_out, d_in) in shapes {
        let x = Tensor::randn(tokens, d_in, 1.0, &mut rng); // activations
        let w = Tensor::randn(d_out, d_in, 0.05, &mut rng); // weight (out×in)
        let dy = Tensor::randn(tokens, d_out, 1.0, &mut rng); // output grad
        let qx = pack(Precision::Fp4, &x, TensorRole::Input, &mut rng);
        let qw = pack(Precision::Fp4, &w, TensorRole::Weight, &mut rng);
        let qdy = pack(Precision::Fp4, &dy, TensorRole::OutputGrad, &mut rng);
        // Dense views of the packed operands, so dense and packed kernels
        // compute the same product.
        let (dx_, dw_, ddy_) = (qx.dequantize(), qw.dequantize(), qdy.dequantize());

        // forward Y = X·Wᵀ (nt), input grad dX = dY·W (nn),
        // weight grad dW = dYᵀ·X (tn).
        type GemmCall<'a> = Box<dyn Fn() -> Tensor + 'a>;
        let kernels: [(&str, String, GemmCall<'_>); 6] = [
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
        for (kernel, shape, call) in kernels {
            gemm.extend(per_tier(
                kernel,
                &shape,
                reps,
                |ms| flops / (ms * 1e6),
                || bits(&call()),
                &*call,
            ));
        }

        // The layer's weight, packed the way `snip-nn` packs it (block
        // scales, nearest): the largest pack of a train step.
        for p in [Precision::Fp4, Precision::Fp8] {
            pack_table.extend(pack_rows(
                p,
                TensorRole::Weight,
                Rounding::Nearest,
                &w,
                reps,
            ));
        }

        // Decode and activation packs depend only on the activation shape,
        // which several GEMM triples can share — measure each distinct
        // shape once.
        if !seen_act_shapes.insert(shape_of(&x)) {
            continue;
        }
        let qx8 = pack(Precision::Fp8, &x, TensorRole::Input, &mut rng);
        for (p, q) in [(Precision::Fp4, &qx), (Precision::Fp8, &qx8)] {
            decode.extend(per_tier(
                &format!("decode_{p}"),
                &shape_of(&x),
                reps,
                ns_per_elt(x.len()),
                || bits(&q.dequantize()),
                || q.dequantize(),
            ));
        }
        for p in [Precision::Fp4, Precision::Fp8] {
            for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                pack_table.extend(pack_rows(p, TensorRole::Input, rounding, &x, reps));
            }
        }
    }

    Report {
        schema: SCHEMA,
        generated_by: "bench_gemm".to_string(),
        smoke,
        machine,
        gemm,
        decode,
        pack: pack_table,
        probe: probe_row(smoke),
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
    }
}

/// Validates a report's JSON text; returns a one-line summary.
fn check_report(json: &str) -> Result<String, String> {
    let parse = |e: serde_json::Error| format!("parse: {e}");
    let SchemaOnly { schema } = serde_json::from_str(json).map_err(parse)?;
    if schema != SCHEMA {
        return Err(format!("schema {schema}, expected {SCHEMA}"));
    }
    let report: Report = serde_json::from_str(json).map_err(parse)?;
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
    let mut tiers = BTreeSet::new();
    for (name, rows) in [
        ("gemm", &report.gemm),
        ("decode", &report.decode),
        ("pack", &report.pack),
    ] {
        tiers.extend(check_table(name, rows, &mach.simd_backend)?);
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
        "{} gemm, {} decode, {} pack rows over {}, probe = {:.2} steps, \
         {} simd on {} threads",
        report.gemm.len(),
        report.decode.len(),
        report.pack.len(),
        Vec::from_iter(tiers).join("/"),
        pr.measure_over_step,
        mach.simd_backend,
        mach.threads
    ))
}

/// The coverage rule every table obeys: every `ms` and rate finite and
/// positive, a scalar tier and the `dispatched` one present, and every tier
/// carrying exactly scalar's (kernel, shape) set. Returns the tier names.
fn check_table<'r>(name: &str, rows: &'r [Row], dispatched: &str) -> Result<Vec<&'r str>, String> {
    let mut tiers: BTreeMap<&'r str, BTreeSet<(&str, &str)>> = BTreeMap::new();
    for r in rows {
        for (what, v) in [("ms", r.ms), ("rate", r.rate)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "{name} {} {} [{}]: {what} = {v}",
                    r.kernel, r.shape, r.backend
                ));
            }
        }
        tiers
            .entry(r.backend.as_str())
            .or_default()
            .insert((r.kernel.as_str(), r.shape.as_str()));
    }
    let scalar = tiers
        .get("scalar")
        .ok_or_else(|| format!("{name} has no scalar tier"))?;
    if !tiers.contains_key(dispatched) {
        return Err(format!(
            "{name} is missing the dispatched backend `{dispatched}`"
        ));
    }
    for (backend, cases) in &tiers {
        if let Some((kernel, shape)) = scalar.symmetric_difference(cases).next() {
            return Err(format!(
                "{name}: `{kernel} {shape}` is in only one of the `scalar` and `{backend}` tiers"
            ));
        }
    }
    Ok(tiers.into_keys().collect())
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
    for (rows, unit) in [
        (&report.gemm, "GFLOP/s"),
        (&report.decode, "ns/elt"),
        (&report.pack, "ns/elt"),
    ] {
        for r in rows {
            println!(
                "  {:>29} {:>12}  {:>9.3} ms  {:>7.2} {unit}  [{}]",
                r.kernel, r.shape, r.ms, r.rate, r.backend
            );
        }
    }
    let pr = &report.probe;
    println!(
        "  {:>29} {:>12}  {:>9.3} ms = {:.2} x {:.3} ms fwd+bwd\n  {:>42}  forward {:.1} + base {:.1} + probe_bwd {:.1} + probe_fwd {:.1} + stats {:.1} ms",
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `cases` on both tiers of a scalar + AVX2 machine.
    fn table(cases: &[(&str, &str)]) -> Vec<Row> {
        ["scalar", "avx2"]
            .iter()
            .flat_map(|backend| {
                cases.iter().map(move |&(kernel, shape)| Row {
                    backend: backend.to_string(),
                    kernel: kernel.to_string(),
                    shape: shape.to_string(),
                    ms: 1.5,
                    rate: 2.5,
                })
            })
            .collect()
    }

    /// A valid full-shape schema-9 report of a machine dispatching AVX2.
    fn valid() -> Report {
        Report {
            schema: SCHEMA,
            generated_by: "bench_gemm".to_string(),
            smoke: false,
            machine: Machine {
                arch: "x86_64".to_string(),
                cpu_features: vec!["avx2".to_string(), "fma".to_string()],
                simd_compiled: true,
                simd_backend: "avx2".to_string(),
                simd_lanes: 8,
                threads: 2,
            },
            gemm: table(&[
                ("matmul", "256x768x768"),
                ("qgemm", "256x768x768"),
                ("qgemm_nt", "256x768x2048"),
            ]),
            decode: table(&[("decode_fp4", "256x768"), ("decode_fp8", "256x768")]),
            pack: table(&[
                ("pack_fp4_tile1x128_stochastic", "256x768"),
                ("pack_fp8_block128x128_nearest", "2048x768"),
            ]),
            probe: ProbeRow {
                model: "bench-768x2".to_string(),
                tokens: 256,
                fwd_bwd_ms: 300.0,
                measure_ms: 750.0,
                measure_over_step: 2.5,
                forward_pass_ms: 100.0,
                base_pass_ms: 200.0,
                probe_bwd_pass_ms: 180.0,
                probe_fwd_pass_ms: 170.0,
                stats_pass_ms: 90.0,
            },
        }
    }

    fn check(report: &Report) -> Result<String, String> {
        check_report(&serde_json::to_string(report).expect("report serializes"))
    }

    fn rejects(report: &Report, why: &str) {
        let err = check(report).expect_err("check must reject");
        assert!(err.contains(why), "`{err}` does not mention `{why}`");
    }

    #[test]
    fn a_valid_report_passes() {
        let summary = check(&valid()).expect("valid report");
        assert!(summary.contains("6 gemm, 4 decode, 4 pack rows over avx2/scalar"));
    }

    #[test]
    fn a_tier_missing_one_case_is_rejected() {
        let mut r = valid();
        r.gemm
            .retain(|row| !(row.backend == "avx2" && row.kernel == "qgemm_nt"));
        rejects(&r, "`qgemm_nt 256x768x2048` is in only one");
    }

    #[test]
    fn a_table_without_scalar_is_rejected() {
        let mut r = valid();
        r.decode.retain(|row| row.backend != "scalar");
        rejects(&r, "decode has no scalar tier");
    }

    #[test]
    fn a_dispatched_backend_absent_from_pack_is_rejected() {
        let mut r = valid();
        r.pack.retain(|row| row.backend != "avx2");
        rejects(&r, "pack is missing the dispatched backend `avx2`");
    }

    #[test]
    fn a_nan_or_zero_ms_is_rejected() {
        for ms in [f64::NAN, 0.0] {
            let mut r = valid();
            r.gemm[4].ms = ms;
            rejects(&r, &format!("gemm qgemm 256x768x768 [avx2]: ms = {ms}"));
        }
    }

    #[test]
    fn a_full_shape_probe_over_budget_is_rejected() {
        let mut r = valid();
        r.probe.measure_over_step = 3.6;
        rejects(&r, "probe: measure costs 3.60 steps");
        // Smoke shapes are all fixed cost: the budget does not apply.
        r.smoke = true;
        check(&r).expect("smoke probe is not budgeted");
    }

    #[test]
    fn a_schema_8_file_is_rejected() {
        let mut r = valid();
        r.schema = 8;
        rejects(&r, "schema 8, expected 9");
    }
}
