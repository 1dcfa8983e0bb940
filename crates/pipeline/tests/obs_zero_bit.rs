//! The telemetry **zero-bit contract**: turning `SNIP_TRACE` collection on
//! must not change a single bit of any numeric result. Telemetry only ever
//! *reads* — signal extraction decodes packed bodies it does not own, spans
//! read clocks, counters live outside tensor memory — so every kernel,
//! quantizer, transport collective and full training step must be
//! bit-identical with collection on and off. These tests pin that, with
//! proptest driving shapes, seeds and codecs.
//!
//! Collection state is process-global, so every test serializes on one
//! mutex and flips state only through the RAII scope guard.

use proptest::prelude::*;
use snip_core::{Scheme, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_pipeline::collective::{QuantizePolicy, Wire};
use snip_pipeline::transport::threaded_all_reduce;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{PackedQuantize, Precision, Quantizer, Rounding};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;
use std::sync::Mutex;

/// Serializes every test in this binary that touches the process-global
/// collection state.
static OBS_STATE: Mutex<()> = Mutex::new(());

/// Runs `f` twice — collection off, then on — and returns both results.
/// The caller asserts bitwise equality.
fn off_then_on<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _serial = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let off = {
        let _scope = snip_obs::enabled_scope(false);
        f()
    };
    let on = {
        let _scope = snip_obs::enabled_scope(true);
        f()
    };
    (off, on)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every quantizer family, covering every packable `Recipe` and both element
/// grids (and both rounding modes for the codebook path).
fn all_quantizers() -> Vec<(&'static str, Box<dyn PackedQuantize>)> {
    let fp4 = |r| Quantizer::new(FloatFormat::e2m1(), Granularity::Tile { nb: 16 }, r);
    vec![
        (
            "fp4-nearest",
            Box::new(fp4(Rounding::Nearest)) as Box<dyn PackedQuantize>,
        ),
        ("fp4-stochastic", Box::new(fp4(Rounding::Stochastic))),
        (
            "int8",
            Box::new(Quantizer::new(
                IntFormat::new(8),
                Granularity::Tile { nb: 16 },
                Rounding::Nearest,
            )),
        ),
        ("mxfp4", Box::new(Quantizer::mxfp4())),
        (
            "rht-fp4",
            Box::new(fp4(Rounding::Stochastic).with_rht(16, 7)),
        ),
        (
            "ol-fp4",
            Box::new(fp4(Rounding::Nearest).with_outliers(0.02)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantizer_packs_are_bit_identical_with_collection_on(
        rows in 1usize..5,
        cols in 1usize..70,
        seed in 0u64..1_000_000,
    ) {
        for (label, q) in all_quantizers() {
            let mut rng = Rng::seed_from(seed);
            let t = Tensor::randn(rows, cols, 1.0, &mut rng);
            let (off, on) = off_then_on(|| {
                let mut rng = Rng::seed_from(seed ^ 0x51);
                let packed = q.pack(&t, &mut rng).expect("all test codecs pack");
                let wire = packed.to_wire_bytes().expect("wire serializes");
                (wire, bits(&packed.dequantize()))
            });
            prop_assert_eq!(&off.0, &on.0, "{}: wire bytes differ", label);
            prop_assert_eq!(&off.1, &on.1, "{}: dequantized bits differ", label);
        }
    }

    #[test]
    fn gemm_kernels_are_bit_identical_with_collection_on(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let bt = Tensor::randn(n, k, 1.0, &mut rng);
        let at = Tensor::randn(k, m, 1.0, &mut rng);
        let (off, on) = off_then_on(|| {
            (
                bits(&matmul(&a, &b)),
                bits(&matmul_nt(&a, &bt)),
                bits(&matmul_tn(&at, &b)),
            )
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn transport_all_reduce_is_bit_identical_with_collection_on(
        world in 2usize..5,
        n in 1usize..60,
        seed in 0u64..1_000_000,
    ) {
        // fp4 with stochastic wire draws and a ragged 16-wide group: the
        // most telemetry-exposed codec (packed signals + RNG consumption).
        let wire = Wire::fp4(16);
        let mut rng = Rng::seed_from(seed);
        let grads: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect();
        let rngs: Vec<Rng> = (0..world).map(|r| Rng::seed_from(seed ^ r as u64)).collect();
        let (off, on) = off_then_on(|| {
            let (result, stats) =
                threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &rngs);
            let payload: Vec<Vec<u32>> = result
                .iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect();
            (payload, stats.total_payload_bytes())
        });
        prop_assert_eq!(off, on);
    }
}

/// GEMMs large enough to split the B-tile cache's build, in both of its
/// builds (row-major bands for `nn` / `tn`, per-tile transposes for `nt`),
/// unsplit and split: bit-identical with collection on, and the
/// `gemm.btile.build_ns` counter that times the builds moves only then.
#[test]
fn bcache_builds_are_bit_identical_and_timed_only_with_collection_on() {
    use snip_tensor::pool;
    let (m, k, n) = (131, 77, 203);
    let mut rng = Rng::seed_from(9);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let at = Tensor::randn(k, m, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let bt = Tensor::randn(n, k, 1.0, &mut rng);
    let (off, on) = off_then_on(|| {
        let before = snip_obs::counter_value("gemm.btile.build_ns");
        let out = [1, 2].map(|split| {
            pool::with_threads(split, || {
                [
                    bits(&matmul(&a, &b)),
                    bits(&matmul_nt(&a, &bt)),
                    bits(&matmul_tn(&at, &b)),
                ]
            })
        });
        (out, snip_obs::counter_value("gemm.btile.build_ns") > before)
    });
    assert_eq!(off.0, on.0, "telemetry changed a GEMM");
    assert!(!off.1, "B-tile builds timed with collection off");
    assert!(on.1, "no B-tile build timed with collection on");
}

/// The phase spans of the attention passes.
const ATTENTION_SPANS: [&str; 2] = ["nn.attention.fwd", "nn.attention.bwd"];

/// Spans named `name` recorded so far, on every thread.
fn spans_recorded(name: &str) -> u64 {
    snip_obs::hist_snapshot(name).map_or(0, |h| h.count)
}

#[test]
fn training_steps_are_bit_identical_with_collection_on() {
    // End to end: a quantized model under full instrumentation (model.step
    // span, attention phase spans, quantizer timers, pack signals,
    // pool/gemm counters) must retrace the uninstrumented run's losses
    // exactly.
    let (off, on) = off_then_on(|| {
        let before = ATTENTION_SPANS.map(spans_recorded);
        let mut t = Trainer::new(TrainerConfig::tiny()).expect("tiny trainer");
        t.apply_scheme(&Scheme::uniform(
            Precision::Fp4,
            t.config().model.n_linear_layers(),
        ));
        let losses: Vec<u64> = (0..3).map(|_| t.train_step().to_bits()).collect();
        let spans = ATTENTION_SPANS.map(spans_recorded);
        (losses, [0, 1].map(|i| spans[i] - before[i]))
    });
    assert_eq!(off.0, on.0, "telemetry changed a training trajectory");
    assert_eq!(
        off.1,
        [0, 0],
        "attention spans recorded with collection off"
    );
    // One forward and one backward per block and step: 2 blocks, 3 steps.
    assert_eq!(on.1, [6, 6], "attention spans with collection on");
}

/// One SNIP update under collection (the `snip.measure*` spans wrap every
/// staged pass and the pooled statistics, `snip.solve` wraps analyze + ILP): the measurement — every
/// `f64` —, the scheme solved from it and the trainer it ran on must come
/// out the same with telemetry on and off.
#[test]
fn snip_updates_are_bit_identical_with_collection_on() {
    let (off, on) = off_then_on(|| {
        let mut t = Trainer::new(TrainerConfig::tiny()).expect("tiny trainer");
        let _ = t.train(3);
        let batch = t.peek_batch();
        let mut rng = Rng::seed_from(0x5712);
        let m = snip_core::measure(&mut t.model, &t.optimizer, &batch, &mut rng, 1e-2);
        let engine = SnipEngine::new(SnipConfig::default(), t.config().model.clone());
        let scheme = engine.analyze_and_solve(&m, "s").expect("feasible target");
        (m, scheme, rng, t.train_step().to_bits())
    });
    assert_eq!(off, on, "telemetry changed a SNIP update");
}

/// The vector pack engine under collection: on every SIMD tier this
/// process can run — and under a forced 3-way pool split —
/// packing with telemetry on must leave the same code bytes, scales and
/// RNG position as with it off, and must not write to the source tensor
/// (signal extraction only reads the pack it is handed).
#[test]
fn vector_packs_are_bit_identical_with_collection_on() {
    use snip_tensor::{pool, simd};
    let mut rng = Rng::seed_from(0x0B5);
    // Wider than every lane width and one stochastic draw chunk, ragged.
    let t = Tensor::randn(9, 301, 1.0, &mut rng);
    let before = bits(&t);
    for backend in simd::available_backends() {
        for (label, q) in all_quantizers() {
            let (off, on) = off_then_on(|| {
                simd::with_forced_backend(backend, || {
                    pool::with_threads(3, || {
                        let mut rng = Rng::seed_from(0x51);
                        let packed = q.pack(&t, &mut rng).expect("all test codecs pack");
                        let codes = packed.codes();
                        let scales: Vec<u32> = codes.scales().iter().map(|s| s.to_bits()).collect();
                        (codes.packed_data().to_vec(), scales, rng)
                    })
                })
            });
            assert_eq!(off, on, "{label} @ {}: pack differs", backend.name());
            assert_eq!(bits(&t), before, "{label}: telemetry wrote to the source");
        }
    }
}
