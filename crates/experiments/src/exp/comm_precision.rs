//! **Future work: low-precision reduce-scatter** (§2.2) — the paper calls
//! extending low-precision support to reduce-scatter "promising but
//! challenging". This binary measures the two quantities that decide it:
//! bytes saved and error injected, for a ring reduce-scatter over simulated
//! data-parallel ranks whose per-hop payloads are quantized to the wire
//! format. Gradients come from a real checkpoint record (per-rank variants
//! are the recorded dW plus small per-rank Gaussian noise, emulating
//! different microbatches).

use crate::harness::*;
use snip_nn::ModelConfig;
use snip_pipeline::collective::{
    exact_sum, relative_error, ring_reduce_scatter, CollectiveResult, QuantizePolicy, Wire,
};
use snip_pipeline::transport::{run_ranks, ChaosPlan};
use snip_tensor::rng::Rng;

/// Per-frame delay bound (microseconds) for the `--chaos` schedule — large
/// enough to shuffle thread interleavings, small enough that the sweep
/// still finishes promptly.
const CHAOS_DELAY_MICROS: u64 = 300;

pub fn run(ctx: &Ctx) {
    let p = &ctx.params;
    let chaos_seed = ctx.chaos;
    let transport = match (ctx.transport, chaos_seed) {
        // The chaos schedule decorates a real fabric; the in-proc oracle
        // has no links to delay, so `--chaos` implies the threaded mesh.
        (Transport::Simulated, Some(_)) => Transport::Threads,
        (t, _) => t,
    };
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
            Transport::Simulated => "simulated (in-proc oracle, analytic bytes)",
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
    let record = study.record();

    // One long gradient vector: all dW tensors concatenated.
    let flat: Vec<f32> = record
        .linears
        .iter()
        .flat_map(|lr| lr.dw.as_slice().iter().copied())
        .collect();
    println!(
        "gradient vector: {} elements from {} linear layers\n",
        flat.len(),
        record.linears.len()
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

    // One reduce-scatter: simulated in-proc, or run for real on OS-thread
    // ranks or socket-connected worker processes. All report a
    // CollectiveResult; the real transports' bytes come from measured
    // per-link payload counters, and the two real backends must agree
    // byte-for-byte (same seeds, same codecs, same frames).
    let reduce = |grads: &[Vec<f32>], wire: &Wire, policy: QuantizePolicy| -> CollectiveResult {
        match transport {
            #[cfg(unix)]
            Transport::Process => {
                use snip_pipeline::transport::proc::{launch, ProcCollective, Task};
                let tasks = grads
                    .iter()
                    .enumerate()
                    .map(|(r, grad)| Task::ReduceScatter {
                        wire: *wire,
                        policy,
                        seed: 0x2000 + r as u64,
                        grad: grad.clone(),
                    });
                let (outputs, stats) =
                    launch(tasks.collect(), None).expect("process-transport reduce-scatter");
                ProcCollective::from_outputs(outputs, stats).result
            }
            #[cfg(not(unix))]
            Transport::Process => unreachable!("rejected above"),
            Transport::Threads => {
                let rngs: Vec<Rng> = (0..grads.len())
                    .map(|r| Rng::seed_from(0x2000 + r as u64))
                    .collect();
                let run = |plan: Option<&ChaosPlan>| {
                    run_ranks(grads.len(), plan, |ep| {
                        let mut rng = rngs[ep.rank()].clone();
                        ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
                            .expect(
                                "threaded reduce-scatter (delay-only chaos must not fail a rank)",
                            )
                    })
                };
                let (calm, calm_stats) = run(None);
                if let Some(seed) = chaos_seed {
                    // Replay the identical collective under a seeded
                    // delay-only chaos schedule: link delays may reorder
                    // thread wakeups but never frames, so every shard and
                    // every byte counter must come back unchanged.
                    let plan = ChaosPlan::delay_all_links(seed, grads.len(), CHAOS_DELAY_MICROS);
                    let (chaos, stats) = run(Some(&plan));
                    for (rank, (chunk, calm)) in chaos.iter().zip(&calm).enumerate() {
                        assert_eq!(
                            (chunk.lo, chunk.hi),
                            (calm.lo, calm.hi),
                            "chaos delay changed rank {rank}'s chunk bounds"
                        );
                        assert_eq!(
                            chunk.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            calm.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "chaos delay changed rank {rank}'s reduce-scatter bits"
                        );
                    }
                    assert_eq!(
                        stats.total_payload_bytes(),
                        calm_stats.total_payload_bytes(),
                        "chaos delay changed bytes on the wire"
                    );
                }
                CollectiveResult {
                    owned: calm.iter().map(|c| (c.lo, c.hi)).collect(),
                    per_rank: calm.into_iter().map(|c| c.data).collect(),
                    bytes_on_wire: calm_stats.total_payload_bytes(),
                }
            }
            Transport::Simulated => {
                let mut rng = Rng::seed_from(2);
                ring_reduce_scatter(grads, wire, policy, &mut rng)
            }
        }
    };

    let nb = study.cfg().quant_group;
    println!(
        "{:<8} {:<8} {:<12} {:>12} {:>12} {:>10}",
        "ranks", "wire", "policy", "rel. error", "bytes", "saving"
    );
    for ranks in [2usize, 4, 8, 16] {
        let grads = grads_for(ranks);
        let exact = exact_sum(&grads);
        let bf16_bytes = reduce(&grads, &Wire::bf16(), QuantizePolicy::EveryHop).bytes_on_wire;
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
            let rs = reduce(&grads, &wire, policy);
            let err = relative_error(&rs, &exact);
            let saving = bf16_bytes as f64 / rs.bytes_on_wire.max(1) as f64;
            println!(
                "{ranks:<8} {:<8} {plabel:<12} {err:>12.2e} {:>12} {saving:>9.2}x",
                wire.label(),
                rs.bytes_on_wire
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
    if transport == Transport::Simulated {
        println!("# Re-run with `--transport threads` (OS threads + serialized frames)");
        println!("# or `--transport process` (socket-connected worker processes) to");
        println!("# exercise a real multi-rank transport; byte columns are then");
        println!("# measured per-link counters and must agree with these numbers —");
        println!("# and with each other, byte for byte.");
    }
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
