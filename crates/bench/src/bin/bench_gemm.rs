//! The perf-trajectory runner: times every kernel a linear layer runs — all
//! six GEMM orientations, the pack (`quantize_packed`) and the decode
//! (`dequantize`) — at model-realistic shapes, once per (backend tier,
//! kernel, shape) with the dispatch pinned to each compiled SIMD tier in
//! turn, plus the SNIP probe (`snip_core::measure`) against a plain step
//! with its per-pass split, the Gaussian init (`Rng::fill_gaussian`,
//! `Model::new`) and the CRC-32 (`snip_tensor::crc`), and writes
//! machine-readable `BENCH_gemm.json` at the repo root.
//!
//! ```text
//! cargo run --release -p snip-bench --bin bench_gemm            # full run
//! cargo run --release -p snip-bench --bin bench_gemm -- --smoke # CI smoke
//! cargo run --release -p snip-bench --bin bench_gemm -- --check # validate
//! ```
//!
//! Schema 12 holds four per-tier tables of one row type ([`Row`]) — `gemm`
//! (GFLOP/s), `pack` and `decode` (ns per element), `crc` (GB/s) — plus
//! `machine`, `probe` and `init` ([`InitTable`], whose `fill` is a fifth
//! per-tier table). Every `pack` kernel has a one-thread row (`_t1`, the
//! serial group walk) and a row at the pool's size (`_t<threads>`, the
//! pack split across the pool; `_t2`, forced, on the smoke shapes). The
//! dispatched tier's rows are what a training step
//! runs; there is no second, default-dispatch copy. Before a tier is
//! timed, its output (GEMM and decode bits; pack codes, scales and
//! post-call RNG state; fill bits and RNG state; the CRC) is asserted equal
//! to forced scalar's on the benched operands, so a table never compares
//! different math.
//!
//! `--check` re-reads the JSON (same `--out` resolution) and applies one
//! coverage rule to every table: scalar and the dispatched backend are
//! present, every tier carries scalar's (kernel, shape) set, and every `ms`
//! and rate is finite and > 0. At full shapes the probe must cost at most
//! [`MAX_MEASURE_OVER_STEP`] steps, and on every tier each `*_nt` GEMM at
//! most [`MAX_NT_OVER_NN`] times its `nn` form at the same shape. At the
//! `libm` row's shape each vector tier's one-thread fill must be
//! [`MIN_FILL_OVER_LIBM`] times faster than that row, and at most
//! [`MAX_FALLBACK_RATE`] of the fixture's pairs may fall back to libm. On
//! an x86_64 machine with `pclmulqdq` the dispatched tier's `crc32` row
//! must be [`MIN_CRC_OVER_TABLE`] times the scalar (table) row at every
//! size.

use serde::{Deserialize, Serialize};
use snip_nn::StepOptions;
use snip_quant::{Precision, Quantizer, Rounding, TensorRole};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip_tensor::{crc::crc32, pool, rng::Rng, simd, QOperandRef, QTensor, Tensor};
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

/// Gaussian init: `fill` holds `Rng::fill_gaussian` (the certified vector
/// Box–Muller) per tier at each fixture weight shape, once on one thread
/// (kernel `fill_gaussian_t1`) and once at the pool's default size
/// (`fill_gaussian_t<threads>`), in ns per output; `libm` is the
/// per-element `next_gaussian` loop on one thread at the largest shape —
/// the reference every fill reproduces bit for bit, and what a fill cost
/// before the certified kernel. `model_new_*` time the bench fixture's
/// `Model::new` at the default dispatch, and `fallbacks` counts the pairs
/// of its `pairs` that the certificate sent back to libm
/// (`rng.gaussian.{pairs,fallbacks}`).
#[derive(Debug, Serialize, Deserialize)]
struct InitTable {
    fill: Vec<Row>,
    libm: Row,
    model: String,
    model_new_t1_ms: f64,
    model_new_ms: f64,
    pairs: u64,
    fallbacks: u64,
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
    init: InitTable,
    /// The `crc32` row per tier at 64 KiB, 4 MiB and the bench fixture's
    /// parameter body (what a data-parallel worker's `RESULT` hashes), in
    /// GB/s; the scalar tier is the slice-by-16 table. `shape` is the
    /// buffer's length in bytes.
    crc: Vec<Row>,
}

/// The `schema` key alone, parsed before the full report so that a file of
/// another schema fails on its version rather than on a missing table.
#[derive(Deserialize)]
struct SchemaOnly {
    schema: u64,
}

/// Schema of the report this binary writes and `--check` accepts.
const SCHEMA: u64 = 12;

/// `--check`'s floor on the speed of every vector tier's one-thread fill
/// over the `libm` row: the certified kernel exists to be this much
/// faster than the transform it reproduces.
const MIN_FILL_OVER_LIBM: f64 = 2.0;

/// `--check`'s floor on the dispatched tier's `crc32` rate over the
/// scalar tier's (the slice-by-16 table) at every size, on a machine whose
/// vector row folds (x86_64 with `pclmulqdq`): the fold exists to be this
/// much faster.
const MIN_CRC_OVER_TABLE: f64 = 3.0;

/// `--check`'s ceiling on `fallbacks ÷ pairs` at the fixture. The
/// certificate's interval is 2⁻⁴⁵ wide, so about one pair in a million
/// falls back; a fast path that falls back far more often is broken, or no
/// faster than libm.
const MAX_FALLBACK_RATE: f64 = 1e-5;

/// `--check`'s ceiling on `measure_over_step` at full shapes: the paper's
/// 2–3 steps per update plus headroom for the statistics.
const MAX_MEASURE_OVER_STEP: f64 = 3.5;

/// `--check`'s ceiling at full shapes on `qgemm_nt ÷ qgemm` and
/// `matmul_nt ÷ matmul` at the same `m x k x n`, per tier: equal FLOPs
/// should cost about equal time whatever the orientation, because the ILP
/// prices a layer by its FLOPs.
const MAX_NT_OVER_NN: f64 = 1.25;

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

/// One row of a table before it is timed: `timed` is the call, `gate` what
/// every tier must reproduce, `rate` turns milliseconds into the table's
/// throughput.
struct Case<'a, G> {
    kernel: String,
    shape: String,
    rate: Box<dyn Fn(f64) -> f64 + 'a>,
    gate: Box<dyn Fn() -> G + 'a>,
    timed: Box<dyn FnMut() + 'a>,
}

/// Times every case with the dispatch pinned to every compiled backend tier,
/// scalar first. A tier is timed only after each case's `gate` output under
/// it equals forced scalar's — refusing to time different math. Then one
/// warm-up round and `reps` timed rounds each call every (case, tier) once,
/// and a row keeps its best (minimum) round, the standard low-noise
/// estimator for deterministic CPU kernels. Interleaving the rounds puts
/// every row's samples in the same stretch of wall clock, so ratios between
/// rows of one call — tiers, and the `nt ÷ nn` pairs `--check` holds —
/// survive drift and bursts on a shared box.
fn per_tier<G: PartialEq>(reps: usize, mut cases: Vec<Case<'_, G>>) -> Vec<Row> {
    let tiers = simd::available_backends();
    for c in &cases {
        let reference = simd::with_forced_backend(simd::Backend::Scalar, &c.gate);
        for &tier in &tiers {
            assert!(
                simd::with_forced_backend(tier, &c.gate) == reference,
                "{} {} @ {}: differs from forced scalar — refusing to time different math",
                c.kernel,
                c.shape,
                tier.name()
            );
        }
    }
    let mut best = vec![f64::INFINITY; cases.len() * tiers.len()];
    for round in 0..=reps {
        for (ci, c) in cases.iter_mut().enumerate() {
            for (ti, &tier) in tiers.iter().enumerate() {
                let ms = simd::with_forced_backend(tier, || {
                    let t0 = Instant::now();
                    (c.timed)();
                    t0.elapsed().as_secs_f64() * 1e3
                });
                if round > 0 {
                    let b = &mut best[ci * tiers.len() + ti];
                    *b = b.min(ms);
                }
            }
        }
    }
    let mut rows = Vec::new();
    for (c, best) in cases.iter().zip(best.chunks(tiers.len())) {
        for (tier, &ms) in tiers.iter().zip(best) {
            rows.push(Row {
                backend: tier.name().to_string(),
                kernel: c.kernel.clone(),
                shape: c.shape.clone(),
                ms,
                rate: (c.rate)(ms),
            });
        }
    }
    rows
}

/// A tensor's shape and element bits: what every tier must reproduce.
type Bits = ((usize, usize), Vec<u32>);

fn bits(t: &Tensor) -> Bits {
    (
        t.shape(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The `gemm` row of `kernel` at `shape`: GFLOP/s of `flops` per call.
fn gemm_case<'a>(
    kernel: &str,
    shape: &str,
    flops: f64,
    call: impl Fn() -> Tensor + Copy + 'a,
) -> Case<'a, Bits> {
    Case {
        kernel: kernel.to_string(),
        shape: shape.to_string(),
        rate: Box::new(move |ms| flops / (ms * 1e6)),
        gate: Box::new(move || bits(&call())),
        timed: Box::new(move || {
            std::hint::black_box(call());
        }),
    }
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
/// `rounding`, named `pack_<format>_<layout>_<rounding>_t<threads>`, one row
/// per entry of `splits` (the pack split forced with `pool::with_threads`;
/// `t1` is the serial group walk).
fn pack_rows(
    p: Precision,
    role: TensorRole,
    rounding: Rounding,
    t: &Tensor,
    splits: &[usize],
    reps: usize,
) -> Vec<Row> {
    let q = p.quantizer_with_group(role, GROUP).with_rounding(rounding);
    let layout = match role {
        TensorRole::Weight => format!("block{GROUP}x{GROUP}"),
        TensorRole::Input | TensorRole::OutputGrad => format!("tile1x{GROUP}"),
    };
    let rounding = format!("{rounding:?}").to_lowercase();
    let q = &q;
    let cases = splits
        .iter()
        .map(|&threads| {
            let mut rng = Rng::seed_from(11);
            Case {
                kernel: format!("pack_{p}_{layout}_{rounding}_t{threads}"),
                shape: shape_of(t),
                rate: Box::new(ns_per_elt(t.len())),
                gate: Box::new(move || pool::with_threads(threads, || pack_seeded(q, t))),
                timed: Box::new(move || {
                    let packed = pool::with_threads(threads, || q.quantize_packed(t, &mut rng));
                    std::hint::black_box(packed.expect("packable"));
                }),
            }
        })
        .collect();
    per_tier(reps, cases)
}

/// One linear layer's GEMM operands at `dims` = `tokens × d_out × d_in`:
/// activations X, weight W (out×in) and output gradient dY, packed FP4 the
/// way `snip-nn` packs them, plus the dense views of the packs, so dense and
/// packed kernels compute the same product.
struct Layer {
    dims: (usize, usize, usize),
    x: Tensor,
    w: Tensor,
    qx: QTensor,
    qw: QTensor,
    qdy: QTensor,
    dx: Tensor,
    dw: Tensor,
    ddy: Tensor,
}

impl Layer {
    fn new(dims: (usize, usize, usize), rng: &mut Rng) -> Layer {
        let (tokens, d_out, d_in) = dims;
        let x = Tensor::randn(tokens, d_in, 1.0, rng);
        let w = Tensor::randn(d_out, d_in, 0.05, rng);
        let dy = Tensor::randn(tokens, d_out, 1.0, rng);
        let qx = pack(Precision::Fp4, &x, TensorRole::Input, rng);
        let qw = pack(Precision::Fp4, &w, TensorRole::Weight, rng);
        let qdy = pack(Precision::Fp4, &dy, TensorRole::OutputGrad, rng);
        let (dx, dw, ddy) = (qx.dequantize(), qw.dequantize(), qdy.dequantize());
        Layer {
            dims,
            x,
            w,
            qx,
            qw,
            qdy,
            dx,
            dw,
            ddy,
        }
    }
}

fn run(smoke: bool) -> Report {
    // Model-realistic linear-layer dimensions: `tokens × d_out × d_in` for
    // the attention projections and the FFN up- and down-projections (the
    // three GEMM orientations of one layer are derived from the same
    // triple, like `snip-nn` does). With both FFN triples every `nt` shape
    // also has an `nn` row, which `--check` compares.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 160, 128)]
    } else {
        &[(256, 768, 768), (256, 2048, 768), (256, 768, 2048)]
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
    let layers: Vec<Layer> = shapes
        .iter()
        .map(|&dims| Layer::new(dims, &mut rng))
        .collect();

    // Every pack is timed serially and split the pool's way; the smoke
    // shapes are below the split floor, so there the split is forced.
    let pack_splits: &[usize] = match (smoke, pool::size()) {
        (true, _) => &[1, 2],
        (false, 1) => &[1],
        (false, n) => &[1, n],
    };
    let (mut decode, mut pack_table) = (Vec::new(), Vec::new());
    let mut seen_act_shapes = BTreeSet::new();
    for Layer { x, w, qx, .. } in &layers {
        // The layer's weight, packed the way `snip-nn` packs it (block
        // scales, nearest): the largest pack of a train step.
        for p in [Precision::Fp4, Precision::Fp8] {
            let rows = pack_rows(
                p,
                TensorRole::Weight,
                Rounding::Nearest,
                w,
                pack_splits,
                reps,
            );
            pack_table.extend(rows);
        }

        // Decode and activation packs depend only on the activation shape,
        // which several GEMM triples can share — measure each distinct
        // shape once.
        if !seen_act_shapes.insert(shape_of(x)) {
            continue;
        }
        let qx8 = pack(Precision::Fp8, x, TensorRole::Input, &mut rng);
        for (p, q) in [(Precision::Fp4, qx), (Precision::Fp8, &qx8)] {
            decode.extend(per_tier(
                reps,
                vec![Case {
                    kernel: format!("decode_{p}"),
                    shape: shape_of(x),
                    rate: Box::new(ns_per_elt(x.len())),
                    gate: Box::new(|| bits(&q.dequantize())),
                    timed: Box::new(|| {
                        std::hint::black_box(q.dequantize());
                    }),
                }],
            ));
        }
        for p in [Precision::Fp4, Precision::Fp8] {
            for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                let rows = pack_rows(p, TensorRole::Input, rounding, x, pack_splits, reps);
                pack_table.extend(rows);
            }
        }
    }

    // Forward Y = X·Wᵀ (nt), input grad dX = dY·W (nn), weight grad
    // dW = dYᵀ·X (tn) of every layer, timed in one interleaved call so that
    // `nt` and `nn` rows at one shape are comparable.
    let mut cases = Vec::new();
    for l in &layers {
        let (tokens, d_out, d_in) = l.dims;
        let nn = format!("{tokens}x{d_out}x{d_in}");
        let nt = format!("{tokens}x{d_in}x{d_out}");
        let tn = format!("{d_out}x{tokens}x{d_in}");
        // Every orientation of one layer triple does the same 2·m·k·n flops.
        let flops = 2.0 * (tokens * d_out * d_in) as f64;
        let q = QOperandRef::from;
        cases.extend([
            gemm_case("matmul", &nn, flops, move || matmul(&l.ddy, &l.dw)),
            gemm_case("matmul_nt", &nt, flops, move || matmul_nt(&l.dx, &l.dw)),
            gemm_case("matmul_tn", &tn, flops, move || matmul_tn(&l.ddy, &l.dx)),
            gemm_case("qgemm", &nn, flops, move || qgemm(q(&l.qdy), q(&l.qw))),
            gemm_case("qgemm_nt", &nt, flops, move || qgemm_nt(q(&l.qx), q(&l.qw))),
            gemm_case("qgemm_tn", &tn, flops, move || {
                qgemm_tn(q(&l.qdy), q(&l.qx))
            }),
        ]);
    }
    let gemm = per_tier(reps, cases);

    Report {
        schema: SCHEMA,
        generated_by: "bench_gemm".to_string(),
        smoke,
        machine,
        gemm,
        decode,
        pack: pack_table,
        probe: probe_row(smoke, reps),
        init: init_table(smoke, reps),
        crc: crc_table(smoke, reps),
    }
}

/// The `crc` table: [`crc32`] on every tier over one buffer of random
/// bytes, cut at each size. Each timed call hashes its size often enough
/// to move 4 MiB, so the 64 KiB rows are not a timer's resolution.
fn crc_table(smoke: bool, reps: usize) -> Vec<Row> {
    let body = 4 * snip_bench::fixtures::bench_model(smoke).param_count();
    let sizes = [64 << 10, 4 << 20, body];
    let mut rng = Rng::seed_from(0xC5C);
    let mut bytes = vec![0u8; sizes.into_iter().max().expect("three sizes")];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    let cases = sizes
        .into_iter()
        .map(|size| {
            let bytes = &bytes[..size];
            let calls = (4 << 20) / size + 1;
            Case {
                kernel: "crc32".to_string(),
                shape: size.to_string(),
                rate: Box::new(move |ms| (calls * size) as f64 / (ms * 1e6)),
                gate: Box::new(move || crc32(bytes)),
                timed: Box::new(move || {
                    for _ in 0..calls {
                        std::hint::black_box(crc32(std::hint::black_box(bytes)));
                    }
                }),
            }
        })
        .collect();
    per_tier(reps, cases)
}

/// The `init` table: the fill per tier and thread count at the fixture's
/// weight shapes, the libm loop, and the fixture's `Model::new`.
fn init_table(smoke: bool, reps: usize) -> InitTable {
    let shapes: &[(usize, usize)] = if smoke {
        &[(128, 256)]
    } else {
        &[(768, 768), (2048, 768)]
    };
    let std = 0.02f32;
    let fill = |len: usize| {
        let mut rng = Rng::seed_from(0x1417);
        let mut out = vec![0.0f32; len];
        rng.fill_gaussian(&mut out, std);
        (out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), rng)
    };
    let mut cases = Vec::new();
    for &(rows, cols) in shapes {
        let len = rows * cols;
        for threads in [1, pool::size()] {
            let mut out = vec![0.0f32; len];
            let mut rng = Rng::seed_from(0x1417);
            cases.push(Case {
                kernel: format!("fill_gaussian_t{threads}"),
                shape: format!("{rows}x{cols}"),
                rate: Box::new(ns_per_elt(len)),
                gate: Box::new(move || pool::with_threads(threads, || fill(len))),
                timed: Box::new(move || {
                    pool::with_threads(threads, || rng.fill_gaussian(&mut out, std))
                }),
            });
        }
    }
    let fill_rows = per_tier(reps, cases);

    let &(rows, cols) = shapes.last().expect("one shape");
    let len = rows * cols;
    let mut out = vec![0.0f32; len];
    let mut rng = Rng::seed_from(0x1417);
    let libm_ms = best_ms(reps, || {
        for o in out.iter_mut() {
            *o = (rng.next_gaussian() as f32) * std;
        }
        std::hint::black_box(&out);
    });
    let libm = Row {
        backend: "libm".to_string(),
        kernel: "next_gaussian".to_string(),
        shape: format!("{rows}x{cols}"),
        ms: libm_ms,
        rate: ns_per_elt(len)(libm_ms),
    };

    let cfg = snip_bench::fixtures::bench_model(smoke);
    let model_new = || snip_nn::Model::new(cfg.clone(), 0).expect("valid fixture");
    let time_model_new = |threads| {
        best_ms(reps.min(3), || {
            std::hint::black_box(pool::with_threads(threads, model_new));
        })
    };
    let (model_new_t1_ms, model_new_ms) = (time_model_new(1), time_model_new(pool::size()));
    let [pairs, fallbacks] = gaussian_counts(|| {
        std::hint::black_box(model_new());
    });
    InitTable {
        fill: fill_rows,
        libm,
        model: cfg.name,
        model_new_t1_ms,
        model_new_ms,
        pairs,
        fallbacks,
    }
}

/// The best of `rounds` timed calls of `f` after one warm-up call, in ms.
fn best_ms(rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..=rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .skip(1)
        .fold(f64::INFINITY, f64::min)
}

/// The Gaussian pairs `f` transformed and the fallbacks among them
/// (`rng.gaussian.{pairs,fallbacks}`), counted with collection on.
fn gaussian_counts(f: impl FnOnce()) -> [u64; 2] {
    let counted = ["rng.gaussian.pairs", "rng.gaussian.fallbacks"];
    let before = counted.map(snip_obs::counter_value);
    {
        let _collect = snip_obs::enabled_scope(true);
        f();
    }
    std::array::from_fn(|i| snip_obs::counter_value(counted[i]) - before[i])
}

/// Times `measure` against a plain step on the probe fixture — the best of
/// `reps` timed rounds after one warm-up round, as every other table — and
/// reads the per-pass split from the probe's spans.
fn probe_row(smoke: bool, reps: usize) -> ProbeRow {
    let mut t = snip_bench::fixtures::probe_trainer(smoke);
    let batch = t.peek_batch();
    let mut rng = Rng::seed_from(0x5712);
    let mut probe = |t: &mut snip_core::Trainer| {
        snip_core::measure(&mut t.model, &t.optimizer, &batch, &mut rng, 1e-2)
    };
    let (mut fwd_bwd_ms, mut measure_ms) = (f64::INFINITY, f64::INFINITY);
    for round in 0..=reps {
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
    // Tiny smoke shapes are all fixed cost; the budgets are claims about
    // model-realistic ones.
    if !report.smoke {
        if pr.measure_over_step > MAX_MEASURE_OVER_STEP {
            return Err(format!(
                "probe: measure costs {:.2} steps ({:.1} ms / {:.1} ms), budget {MAX_MEASURE_OVER_STEP}",
                pr.measure_over_step, pr.measure_ms, pr.fwd_bwd_ms
            ));
        }
        check_nt_over_nn(&report.gemm)?;
    }
    check_init(&report.init, &mach.simd_backend)?;
    check_crc(&report.crc, mach)?;
    Ok(format!(
        "{} gemm, {} decode, {} pack, {} init, {} crc rows over {}, probe = {:.2} steps, \
         {} of {} pairs fell back, {} simd on {} threads",
        report.gemm.len(),
        report.decode.len(),
        report.pack.len(),
        report.init.fill.len(),
        report.crc.len(),
        Vec::from_iter(tiers).join("/"),
        pr.measure_over_step,
        report.init.fallbacks,
        report.init.pairs,
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

/// The `init` table: its `fill` rows obey the coverage rule, every number
/// is finite and positive, every vector tier's one-thread fill at the
/// `libm` row's shape is at least [`MIN_FILL_OVER_LIBM`] times faster,
/// and at most [`MAX_FALLBACK_RATE`] of the fixture's pairs fell back.
fn check_init(init: &InitTable, dispatched: &str) -> Result<(), String> {
    check_table("init.fill", &init.fill, dispatched)?;
    let l = &init.libm;
    for (what, v) in [
        ("libm ms", l.ms),
        ("libm rate", l.rate),
        ("model_new_t1_ms", init.model_new_t1_ms),
        ("model_new_ms", init.model_new_ms),
        ("pairs", init.pairs as f64),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("init: {what} = {v}"));
        }
    }
    for r in &init.fill {
        if r.backend == "scalar" || r.kernel != "fill_gaussian_t1" || r.shape != l.shape {
            continue;
        }
        let speedup = l.rate / r.rate;
        if speedup < MIN_FILL_OVER_LIBM {
            return Err(format!(
                "init: {} {} [{}] is {speedup:.2}x the libm row ({:.2} vs {:.2} ns/output), floor {MIN_FILL_OVER_LIBM}",
                r.kernel, r.shape, r.backend, r.rate, l.rate
            ));
        }
    }
    let rate = init.fallbacks as f64 / init.pairs as f64;
    if rate > MAX_FALLBACK_RATE {
        return Err(format!(
            "init: {} of {} pairs fell back ({rate:.2e}), ceiling {MAX_FALLBACK_RATE:e}",
            init.fallbacks, init.pairs
        ));
    }
    Ok(())
}

/// The `crc` table: its rows obey the coverage rule, and on an x86_64
/// machine with `pclmulqdq` whose dispatch is a vector tier, that tier's
/// row is at least [`MIN_CRC_OVER_TABLE`] times the scalar row at every
/// size.
fn check_crc(crc: &[Row], mach: &Machine) -> Result<(), String> {
    check_table("crc", crc, &mach.simd_backend)?;
    let folds = mach.arch == "x86_64" && mach.cpu_features.iter().any(|f| f == "pclmulqdq");
    if !folds || mach.simd_backend == "scalar" {
        return Ok(());
    }
    for r in crc.iter().filter(|r| r.backend == mach.simd_backend) {
        let table = crc
            .iter()
            .find(|t| t.backend == "scalar" && t.shape == r.shape)
            .expect("the coverage rule gives every row its scalar row");
        let speedup = r.rate / table.rate;
        if speedup < MIN_CRC_OVER_TABLE {
            return Err(format!(
                "crc: {} {} [{}] is {speedup:.2}x the table row ({:.2} vs {:.2} GB/s), floor {MIN_CRC_OVER_TABLE}",
                r.kernel, r.shape, r.backend, r.rate, table.rate
            ));
        }
    }
    Ok(())
}

/// Every `qgemm_nt` / `matmul_nt` row must have its `qgemm` / `matmul` row
/// at the same tier and shape, and take at most [`MAX_NT_OVER_NN`] times
/// as long.
fn check_nt_over_nn(gemm: &[Row]) -> Result<(), String> {
    let ms: BTreeMap<(&str, &str, &str), f64> = gemm
        .iter()
        .map(|r| {
            (
                (r.backend.as_str(), r.kernel.as_str(), r.shape.as_str()),
                r.ms,
            )
        })
        .collect();
    for r in gemm {
        let Some(nn) = r.kernel.strip_suffix("_nt") else {
            continue;
        };
        let (tier, shape) = (r.backend.as_str(), r.shape.as_str());
        let nn_ms = ms
            .get(&(tier, nn, shape))
            .ok_or_else(|| format!("gemm {} {shape} [{tier}] has no `{nn}` row", r.kernel))?;
        let ratio = r.ms / nn_ms;
        if ratio > MAX_NT_OVER_NN {
            return Err(format!(
                "gemm {} {shape} [{tier}] takes {ratio:.2}x `{nn}` ({:.3} vs {nn_ms:.3} ms), budget {MAX_NT_OVER_NN}",
                r.kernel, r.ms
            ));
        }
    }
    Ok(())
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
    let init = &report.init;
    for (rows, unit) in [
        (&report.gemm[..], "GFLOP/s"),
        (&report.decode, "ns/elt"),
        (&report.pack, "ns/elt"),
        (&init.fill, "ns/elt"),
        (std::slice::from_ref(&init.libm), "ns/elt"),
        (&report.crc, "GB/s"),
    ] {
        for r in rows {
            println!(
                "  {:>34} {:>12}  {:>9.3} ms  {:>7.2} {unit}  [{}]",
                r.kernel, r.shape, r.ms, r.rate, r.backend
            );
        }
    }
    let pr = &report.probe;
    println!(
        "  {:>34} {:>12}  {:>9.3} ms = {:.2} x {:.3} ms fwd+bwd\n  {:>47}  forward {:.1} + base {:.1} + probe_bwd {:.1} + probe_fwd {:.1} + stats {:.1} ms",
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
    println!(
        "  {:>34} {:>12}  {:>9.3} ms on 1 thread, {:.3} ms on {}; {} of {} pairs fell back",
        "Model::new",
        init.model,
        init.model_new_t1_ms,
        init.model_new_ms,
        report.machine.threads,
        init.fallbacks,
        init.pairs
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

    /// A valid full-shape report of a machine dispatching AVX2.
    fn valid() -> Report {
        Report {
            schema: SCHEMA,
            generated_by: "bench_gemm".to_string(),
            smoke: false,
            machine: Machine {
                arch: "x86_64".to_string(),
                cpu_features: ["pclmulqdq", "avx2", "fma"].map(String::from).to_vec(),
                simd_compiled: true,
                simd_backend: "avx2".to_string(),
                simd_lanes: 8,
                threads: 2,
            },
            gemm: table(&[
                ("matmul", "256x768x768"),
                ("qgemm", "256x768x768"),
                ("qgemm_nt", "256x768x768"),
            ]),
            decode: table(&[("decode_fp4", "256x768"), ("decode_fp8", "256x768")]),
            pack: table(&[
                ("pack_fp4_tile1x128_stochastic_t1", "256x768"),
                ("pack_fp8_block128x128_nearest_t2", "2048x768"),
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
            init: InitTable {
                fill: table(&[
                    ("fill_gaussian_t1", "2048x768"),
                    ("fill_gaussian_t2", "2048x768"),
                ]),
                libm: Row {
                    backend: "libm".to_string(),
                    kernel: "next_gaussian".to_string(),
                    shape: "2048x768".to_string(),
                    ms: 40.0,
                    rate: 2.0 * 2.5,
                },
                model: "bench-768x2".to_string(),
                model_new_t1_ms: 120.0,
                model_new_ms: 110.0,
                pairs: 7_471_104,
                fallbacks: 6,
            },
            // The fold at 3x the table.
            crc: table(&[("crc32", "65536"), ("crc32", "59784192")])
                .into_iter()
                .map(|row| Row {
                    rate: if row.backend == "scalar" { 1.5 } else { 4.5 },
                    ..row
                })
                .collect(),
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
        assert!(summary.contains("6 gemm, 4 decode, 4 pack, 4 init, 4 crc rows over avx2/scalar"));
        assert!(summary.contains("6 of 7471104 pairs fell back"));
    }

    #[test]
    fn a_tier_missing_one_case_is_rejected() {
        let mut r = valid();
        r.gemm
            .retain(|row| !(row.backend == "avx2" && row.kernel == "qgemm_nt"));
        rejects(&r, "`qgemm_nt 256x768x768` is in only one");
    }

    #[test]
    fn an_nt_row_at_its_budget_passes() {
        let mut r = valid();
        for row in r.gemm.iter_mut().filter(|row| row.kernel == "qgemm_nt") {
            row.ms = 1.5 * MAX_NT_OVER_NN;
        }
        check(&r).expect("nt at exactly the budget");
    }

    #[test]
    fn an_nt_row_over_its_budget_is_rejected() {
        let mut r = valid();
        r.gemm[5].ms = 1.5 * 1.3;
        rejects(
            &r,
            "gemm qgemm_nt 256x768x768 [avx2] takes 1.30x `qgemm` (1.950 vs 1.500 ms)",
        );
        // Smoke shapes are all fixed cost: the budget does not apply.
        r.smoke = true;
        check(&r).expect("smoke nt is not budgeted");
    }

    #[test]
    fn an_nt_row_without_its_nn_row_is_rejected() {
        let mut r = valid();
        r.gemm.retain(|row| row.kernel != "qgemm");
        rejects(&r, "gemm qgemm_nt 256x768x768 [scalar] has no `qgemm` row");
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
        rejects(&r, "schema 8, expected 12");
    }

    #[test]
    fn a_schema_9_file_without_init_is_rejected() {
        let mut r = valid();
        r.schema = 9;
        rejects(&r, "schema 9, expected 12");
    }

    #[test]
    fn a_schema_10_file_without_crc_is_rejected() {
        let mut r = valid();
        r.schema = 10;
        rejects(&r, "schema 10, expected 12");
    }

    #[test]
    fn a_schema_11_file_without_split_pack_rows_is_rejected() {
        let mut r = valid();
        r.schema = 11;
        rejects(&r, "schema 11, expected 12");
    }

    #[test]
    fn a_dispatched_crc_row_under_three_times_the_table_is_rejected() {
        let mut r = valid();
        r.crc[3].rate = 4.4;
        rejects(
            &r,
            "crc: crc32 59784192 [avx2] is 2.93x the table row (4.40 vs 1.50 GB/s), floor 3",
        );
        // A machine whose vector row is the table has no floor.
        r.machine.cpu_features.retain(|f| f != "pclmulqdq");
        check(&r).expect("no fold, no floor");
        r.crc.retain(|row| row.backend != "avx2");
        rejects(&r, "crc is missing the dispatched backend `avx2`");
    }

    #[test]
    fn a_vector_fill_under_twice_libm_is_rejected() {
        let mut r = valid();
        // The libm row takes 5 ns/output; 2.5 is exactly the floor.
        check(&r).expect("a vector fill at the floor passes");
        let avx2_t1 = |row: &Row| row.backend == "avx2" && row.kernel == "fill_gaussian_t1";
        r.init
            .fill
            .iter_mut()
            .filter(|row| avx2_t1(row))
            .for_each(|row| row.rate = 2.6);
        rejects(
            &r,
            "init: fill_gaussian_t1 2048x768 [avx2] is 1.92x the libm row",
        );
        // Scalar is the reference tier and the pool rows are not floored.
        let mut r = valid();
        for row in r.init.fill.iter_mut().filter(|row| !avx2_t1(row)) {
            row.rate = 4.9;
        }
        check(&r).expect("scalar and t2 rows are not floored");
    }

    #[test]
    fn a_fallback_rate_over_the_ceiling_is_rejected() {
        let mut r = valid();
        r.init.fallbacks = 75;
        rejects(
            &r,
            "init: 75 of 7471104 pairs fell back (1.00e-5), ceiling 1e-5",
        );
        r.init.pairs = 0;
        rejects(&r, "init: pairs = 0");
    }

    /// The bench fixture's `Model::new` draws its 7.47 M pairs with at most
    /// [`MAX_FALLBACK_RATE`] of them recomputed by libm (≈ 6 expected): a
    /// fast path that always fell back would draw the same bits, and fail
    /// here.
    #[test]
    fn the_fixture_model_falls_back_below_the_ceiling() {
        let [pairs, fallbacks] = gaussian_counts(|| {
            let model = snip_bench::fixtures::bench_model(false);
            snip_nn::Model::new(model, 0).expect("valid fixture");
        });
        assert_eq!(
            pairs, 7_471_104,
            "the fixture's Gaussian parameters, in pairs"
        );
        assert!(
            fallbacks as f64 <= MAX_FALLBACK_RATE * pairs as f64,
            "{fallbacks} of {pairs} pairs fell back"
        );
    }
}
