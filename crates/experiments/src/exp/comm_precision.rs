//! **Future work: low-precision reduce-scatter** (§2.2) — the paper calls
//! extending low-precision support to reduce-scatter "promising but
//! challenging". This experiment measures the two quantities that decide
//! it: bytes saved and error injected, for a ring reduce-scatter whose
//! per-hop payloads are quantized to the wire format, run for real over
//! data-parallel ranks exchanging serialized frames — on OS threads by
//! default, in socket-connected worker processes under `--transport
//! process` — with bytes taken from the measured per-link payload counters.
//! Both transports print the same table, byte for byte (same per-rank
//! seeds, same codecs, same frames); `--chaos <seed>` replays every row
//! under a seeded delay-only fault schedule and asserts it bit-identical to
//! the calm run. Gradients come from a real checkpoint step (per-rank
//! variants are its dW plus small per-rank Gaussian noise, emulating
//! different microbatches).

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_pipeline::collective::{QuantizePolicy, Wire};
use snip_pipeline::transport::{run_ranks, ChaosPlan, RankChunk};
use snip_tensor::ops::relative_error;
use snip_tensor::rng::Rng;

/// Per-frame delay bound (microseconds) for the `--chaos` schedule — large
/// enough to shuffle rank interleavings, small enough that the sweep still
/// finishes promptly.
const CHAOS_DELAY_MICROS: u64 = 300;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let (transport, chaos_seed) = (ctx.transport, ctx.chaos);
    #[cfg(not(unix))]
    assert!(
        transport != Transport::Process,
        "--transport process needs Unix sockets"
    );
    println!("# Low-precision ring reduce-scatter: error vs bytes (paper §2.2 future work)");
    println!(
        "# transport: {}",
        match transport {
            Transport::Threads => "threads (OS-thread ranks, serialized frames, measured bytes)",
            Transport::Process =>
                "process (socket-connected rank workers, serialized frames, measured bytes)",
        }
    );
    if let Some(seed) = chaos_seed {
        println!(
            "# chaos: delay-only schedule, seed {seed}, ≤{CHAOS_DELAY_MICROS}µs per frame — \
             every row is cross-checked bit-identical to the calm run"
        );
    }
    println!();
    let study = Study::at(ctx, ModelConfig::tinyllama_1b_sim(), p.ckpt_unit);
    // One long gradient vector: every layer's dW of a BF16 step.
    let flat = study.weight_grads();
    println!(
        "gradient vector: {} elements from {} linear layers\n",
        flat.len(),
        study.cfg().n_linear_layers()
    );
    let grads_for = |ranks: usize| -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(0xC0);
        let sigma = (flat.iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / flat.len() as f64)
            .sqrt() as f32;
        (0..ranks)
            .map(|_| {
                flat.iter()
                    .map(|&v| v + 0.1 * sigma * rng.next_gaussian() as f32)
                    .collect()
            })
            .collect()
    };

    // One reduce-scatter on the chosen transport, rank `r` drawing from
    // seed `0x2000 + r`: every rank's owned chunk and the measured payload
    // bytes. Under `--chaos` the identical collective is replayed under a
    // seeded delay-only schedule: link delays may reorder rank wakeups but
    // never frames, so every chunk and every byte counter must come back
    // unchanged.
    let reduce = |grads: &[Vec<f32>], wire: &Wire, policy: QuantizePolicy| {
        const FAULT_FREE: &str = "reduce-scatter (delay-only chaos must not fail a rank)";
        let run = |plan: Option<&ChaosPlan>| -> (Vec<RankChunk>, u64) {
            let (chunks, stats) = match transport {
                #[cfg(unix)]
                Transport::Process => {
                    use snip_pipeline::transport::proc::{launch, Task, TaskOutput};
                    let tasks = grads
                        .iter()
                        .enumerate()
                        .map(|(r, grad)| Task::ReduceScatter {
                            wire: *wire,
                            policy,
                            seed: 0x2000 + r as u64,
                            grad: grad.into(),
                        });
                    let (outputs, stats) = launch(tasks.collect(), plan).expect(FAULT_FREE);
                    let chunks = outputs.into_iter().map(|output| match output {
                        TaskOutput::ReduceScatter { lo, hi, data, .. } => RankChunk { lo, hi, data },
                        other => unreachable!("launch matches outputs to tasks, got {other:?}"),
                    });
                    (chunks.collect(), stats)
                }
                #[cfg(not(unix))]
                Transport::Process => unreachable!("rejected above"),
                Transport::Threads => run_ranks(grads.len(), plan, |ep| {
                    let mut rng = Rng::seed_from(0x2000 + ep.rank() as u64);
                    ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
                        .expect(FAULT_FREE)
                }),
            };
            (chunks, stats.total_payload_bytes())
        };
        let calm = run(None);
        if let Some(seed) = chaos_seed {
            let plan = ChaosPlan::delay_all_links(seed, grads.len(), CHAOS_DELAY_MICROS);
            let (chunks, bytes) = run(Some(&plan));
            for (rank, (got, want)) in chunks.iter().zip(&calm.0).enumerate() {
                assert_eq!(
                    (got.lo, got.hi),
                    (want.lo, want.hi),
                    "chaos delay changed chunk bounds"
                );
                assert!(
                    got.data.iter().map(|v| v.to_bits()).eq(want.data.iter().map(|v| v.to_bits())),
                    "chaos delay changed rank {rank}'s reduce-scatter bits"
                );
            }
            assert_eq!(bytes, calm.1, "chaos delay changed bytes on the wire");
        }
        calm
    };

    let nb = study.cfg().quant_group;
    println!(
        "{:<8} {:<8} {:<12} {:>12} {:>12} {:>10}",
        "ranks", "wire", "policy", "rel. error", "bytes", "saving"
    );
    for ranks in [2usize, 4, 8, 16] {
        let grads = grads_for(ranks);
        let mut exact = vec![0.0f32; flat.len()];
        for g in &grads {
            for (s, v) in exact.iter_mut().zip(g) {
                *s += v;
            }
        }
        // The first row, BF16 every-hop, is the reference the savings are
        // quoted against.
        let mut bf16_bytes = None;
        for (wire, policy, plabel) in [
            (Wire::bf16(), QuantizePolicy::EveryHop, "every-hop"),
            (Wire::fp8(nb), QuantizePolicy::EveryHop, "every-hop"),
            (Wire::fp4(nb), QuantizePolicy::EveryHop, "every-hop"),
            // The §5.2 alternative quantizers as wire codecs, all shipping
            // byte-accurate packed volumes through PackedQuantize: MX's
            // one-byte E8M0 block scales, RHT's rotation (identical bytes
            // to plain FP4), and the outlier split's 6 B sparse entries.
            (Wire::mxfp4(), QuantizePolicy::EveryHop, "every-hop"),
            (Wire::rht_fp4(nb, 17), QuantizePolicy::EveryHop, "every-hop"),
            (
                Wire::outlier_fp4(nb, 1.0 / 256.0),
                QuantizePolicy::EveryHop,
                "every-hop",
            ),
            (Wire::fp4(nb), QuantizePolicy::FinalOnly, "final-only"),
        ] {
            let (mut chunks, bytes) = reduce(&grads, &wire, policy);
            // The owned chunks tile the vector; in position order they are
            // the reduced gradient.
            chunks.sort_by_key(|c| c.lo);
            let reduced: Vec<f32> = chunks.into_iter().flat_map(|c| c.data).collect();
            let err = relative_error(&reduced, &exact);
            let saving = *bf16_bytes.get_or_insert(bytes) as f64 / bytes.max(1) as f64;
            println!(
                "{ranks:<8} {:<8} {plabel:<12} {err:>12.2e} {bytes:>12} {saving:>9.2}x",
                wire.label(),
            );
        }
        println!();
    }
    println!("# Expected shape: BF16 wires are numerically free; FP8 wires cost");
    println!("# ~1e-2 relative error at 2x byte saving; FP4 every-hop error grows");
    println!("# with ring size (partial sums re-quantized R-1 times) — the");
    println!("# challenge the paper alludes to. final-only (reduce exactly, then");
    println!("# quantize the stored result once) is a ring-size-independent");
    println!("# storage floor; every-hop starts below it on small rings because");
    println!("# the receiver's own addend is never quantized, and crosses it as");
    println!("# R grows — here around R = 16.");
    println!("# The alternative codecs trade within the FP4 budget: mxfp4 ships");
    println!("# the smallest payloads (1-byte E8M0 block scales vs 4-byte f32");
    println!("# tile scales); rht-fp4 and ol-fp4 spend the same (or near-same)");
    println!("# bytes as plain fp4 to buy error robustness on outlier-heavy");
    println!("# gradients.");
    train_step_timing_table();
}

/// The communication numbers above only matter relative to compute, so
/// close with a per-step wall-time breakdown: `StepOutput`'s
/// `step_ns`/`quantize_ns`/`gemm_ns`, collected by the `snip-obs` spans
/// inside `Model::step`. Telemetry collection is forced on for this table
/// (and restored after); the zero-bit contract guarantees the losses are
/// the ones an uninstrumented run would print.
fn train_step_timing_table() {
    use snip_core::{Scheme, Trainer, TrainerConfig};
    use snip_quant::Precision;

    println!("\n# Train-step wall-time breakdown (snip-obs spans, TrainerConfig::tiny)");
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "step", "loss", "step_ms", "quant_ms", "gemm_ms"
    );
    let was = snip_obs::set_enabled(true);
    for (label, precision) in [("bf16", Precision::Bf16), ("fp4", Precision::Fp4)] {
        let mut t = Trainer::new(TrainerConfig::tiny()).expect("tiny trainer");
        t.apply_scheme(&Scheme::uniform(
            precision,
            t.config().model.n_linear_layers(),
        ));
        for step in 1..=3u32 {
            let out = t.train_step_output_with_grad_hook(&mut |_| {});
            println!(
                "{label:<8} {step:>6} {:>10.4} {:>10.3} {:>10.3} {:>10.3}",
                out.loss,
                out.step_ns as f64 / 1e6,
                out.quantize_ns as f64 / 1e6,
                out.gemm_ns as f64 / 1e6
            );
        }
    }
    snip_obs::set_enabled(was);
    println!("# quant_ms/gemm_ms are the quantizer / GEMM shares of step_ms; the");
    println!("# fp4 rows show what packed quantization adds per step and what the");
    println!("# wire savings above have to amortize.");
}
