//! End-to-end fingerprints: recorded values, not agreements.
//!
//! Every other identity suite compares two paths (packed vs dense, SIMD vs
//! scalar, split vs split, fabric vs fabric). A change to a body both sides
//! share — the tile kernel, `CodeGrid`, a scale rule, AdamW, the ring
//! schedule, the probe's statistics — moves both together and passes them
//! all. This suite pins the numbers themselves: miniatures of the four
//! benchmark workloads (BF16, FP4, the adaptive loop, two-rank data
//! parallelism on a lossy and an exact wire), one `SnipMeasurement` and one
//! solved `Scheme`, each reduced to CRC-32s (`snip_quant::crc32`, whose
//! algorithm is fixed, unlike `DefaultHasher`'s) of the final parameter
//! bits, the loss sequence and the RNG positions, compared against
//! checked-in constants.
//!
//! A change that moves numerics *by design* updates the constants here: a
//! failure prints the new ones as Rust source, so the move is a reviewed
//! diff. Anything else that moves them is a bug.

use serde::{Content, Serialize};
use snip::core::{measure, PolicyConfig, Scheme, SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip::nn::ModelConfig;
use snip::pipeline::{data_parallel_train, QuantizePolicy, Wire};
use snip::quant::wire::{decode_message, FieldError, Fields, FILE_ENVELOPE_BYTES};
use snip::quant::{crc32, Precision};
use snip::tensor::rng::Rng;
use std::fmt;

/// One run, reduced: CRC-32 of the final parameter bits (in
/// `Model::visit_params_mut` order), of the loss bits, and of the trainer's
/// two RNG positions (its rounding/probe stream and the batch-stream
/// cursor).
#[derive(PartialEq)]
struct Print {
    params: u32,
    losses: u32,
    rngs: u32,
}

/// Paste-ready: a failure message is the new constant.
impl fmt::Debug for Print {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Print {{ params: {:#010x}, losses: {:#010x}, rngs: {:#010x} }}",
            self.params, self.losses, self.rngs
        )
    }
}

/// Appends a serialized value to `out`, one tag byte per node so that
/// different trees never produce the same bytes. Floats contribute their
/// bits.
fn content_bytes(c: &Content, out: &mut Vec<u8>) {
    let len = |out: &mut Vec<u8>, n: usize| out.extend((n as u64).to_le_bytes());
    match c {
        Content::Null => out.push(0),
        Content::Bool(b) => out.extend([1, u8::from(*b)]),
        Content::U64(v) => {
            out.push(2);
            out.extend(v.to_le_bytes());
        }
        Content::I64(v) => {
            out.push(3);
            out.extend(v.to_le_bytes());
        }
        Content::F64(v) => {
            out.push(4);
            out.extend(v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            out.push(5);
            len(out, s.len());
            out.extend(s.as_bytes());
        }
        Content::Seq(items) => {
            out.push(6);
            len(out, items.len());
            items.iter().for_each(|i| content_bytes(i, out));
        }
        Content::Map(entries) => {
            out.push(7);
            len(out, entries.len());
            for (k, v) in entries {
                content_bytes(&Content::Str(k.clone()), out);
                content_bytes(v, out);
            }
        }
    }
}

fn crc_of(value: &impl Serialize) -> u32 {
    let mut bytes = Vec::new();
    content_bytes(&value.to_content(), &mut bytes);
    crc32(&bytes)
}

fn print(t: &mut Trainer, losses: &[f64]) -> Print {
    let mut params = Vec::new();
    t.model.visit_params_mut(&mut |p| {
        for v in p.value().as_slice() {
            params.extend(v.to_bits().to_le_bytes());
        }
    });
    let losses: Vec<u8> = losses
        .iter()
        .flat_map(|l| l.to_bits().to_le_bytes())
        .collect();
    // The trainer keeps both streams private; its checkpoint holds them,
    // after the configuration, the step, `last_loss` and the scheme error.
    // Each is reduced as the map `{state: [u64; 4], gauss_spare}` it was
    // recorded as.
    let checkpoint = t.checkpoint_bytes();
    let rngs = decode_message(&checkpoint[FILE_ENVELOPE_BYTES..], |f| {
        let _: TrainerConfig = f.json()?;
        let _step_and_loss = (f.u64()?, f.u64()?);
        if f.u8()? == 1 {
            f.bytes()?;
        }
        let mut rngs = Vec::new();
        for _ in 0..2 {
            content_bytes(&rng_content(f)?, &mut rngs);
        }
        f.rest()?;
        Ok(rngs)
    })
    .expect("a trainer's checkpoint decodes");
    Print {
        params: crc32(&params),
        losses: crc32(&losses),
        rngs: crc32(&rngs),
    }
}

/// One RNG of a checkpoint, as the map its fingerprint was recorded from.
fn rng_content(f: &mut Fields<&[u8]>) -> Result<Content, FieldError> {
    let mut state = Vec::new();
    for _ in 0..4 {
        state.push(Content::U64(f.u64()?));
    }
    let spare = match f.u8()? {
        0 => Content::Null,
        _ => Content::U64(f.u64()?),
    };
    Ok(Content::Map(vec![
        ("state".into(), Content::Seq(state)),
        ("gauss_spare".into(), spare),
    ]))
}

fn check<T: PartialEq + fmt::Debug>(name: &str, got: T, want: T) {
    assert!(
        got == want,
        "the {name} fingerprint moved. If the move is by design, replace the constant with\n\
         {got:#x?}\n(it was {want:#x?})"
    );
}

const STEPS: u64 = 4;

fn tiny() -> Trainer {
    Trainer::new(TrainerConfig::tiny()).expect("tiny trainer")
}

fn scheme_run(p: Precision) -> Print {
    let mut t = tiny();
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&Scheme::uniform(p, n));
    let losses = t.train(STEPS);
    print(&mut t, &losses)
}

#[test]
fn bf16_training() {
    check(
        "BF16",
        scheme_run(Precision::Bf16),
        Print {
            // Moved from 0x5aa684d5 when the GEMM tile update became one fused
            // multiply-add per k-step (one rounding instead of two).
            params: 0x964e458d,
            losses: 0x76b6366a,
            rngs: 0x9b1d434d,
        },
    );
}

#[test]
fn fp4_training() {
    check(
        "FP4",
        scheme_run(Precision::Fp4),
        Print {
            // Moved from 0xa4eae9a3 when the GEMM tile update became one fused
            // multiply-add per k-step (one rounding instead of two).
            params: 0x4564a097,
            losses: 0x242b2394,
            rngs: 0xdaa2ad85,
        },
    );
}

/// A trainer whose every activation, weight and gradient buffer holds at
/// least 32 Ki floats (hidden 256 × 4 × 64 tokens, FFN 1024, vocab 512; one block keeps
/// the debug build quick), so
/// the step's tensor storage is recycled between steps. The `tiny()` prints
/// above sit below that size and never reuse a buffer.
fn wide() -> Trainer {
    let mut cfg = TrainerConfig::tiny();
    cfg.model = ModelConfig {
        name: "wide-256".into(),
        vocab_size: 512,
        hidden: 256,
        n_layers: 1,
        n_heads: 4,
        ffn_hidden: 1024,
        max_seq: 64,
        rope_theta: 10_000.0,
        quant_group: 128,
    };
    (cfg.batch_size, cfg.seq_len) = (4, 64);
    Trainer::new(cfg).expect("wide trainer")
}

/// Four BF16 steps, then four FP4 steps on the same trainer: a step whose
/// buffers come back with stale contents must initialize every one of them.
#[test]
fn recycled_buffers_training() {
    let mut t = wide();
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&Scheme::uniform(Precision::Bf16, n));
    let mut losses = t.train(STEPS);
    t.apply_scheme(&Scheme::uniform(Precision::Fp4, n));
    losses.extend(t.train(STEPS));
    check(
        "recycled-buffers",
        print(&mut t, &losses),
        Print {
            params: 0x67fdaed3,
            losses: 0x833a18c8,
            rngs: 0xb4951841,
        },
    );
}

/// Updates at steps 2 and 4 of 5: two measured, solved and installed
/// schemes, then a step under the second.
#[test]
fn adaptive_training() {
    let engine = SnipEngine::new(
        SnipConfig {
            policy: PolicyConfig {
                target_fp4: 0.5,
                ..Default::default()
            },
            update_period: 2,
            ..Default::default()
        },
        TrainerConfig::tiny().model,
    );
    let mut t = tiny();
    let losses = t.train_with_engine(5, &engine);
    assert_eq!(t.last_scheme_error(), None);
    let scheme = crc_of(&Scheme::new("final", t.model.scheme()));
    check(
        "adaptive",
        (print(&mut t, &losses), scheme),
        (
            Print {
                // Moved from 0x78b60af2 when the GEMM tile update became one
                // fused multiply-add per k-step (one rounding instead of two).
                params: 0x5e4774b5,
                losses: 0xadb9d630,
                rngs: 0xd3647b1a,
            },
            0x14ee52bd,
        ),
    );
}

/// Two ranks on distinct data, all-reducing every step over `wire`; one
/// print per rank.
fn dp_run(wire: &Wire) -> Vec<Print> {
    let ranks = (0..2)
        .map(|rank| {
            let mut cfg = TrainerConfig::tiny();
            cfg.data_seed = 100 + rank;
            Trainer::new(cfg).expect("tiny trainer")
        })
        .collect();
    let (mut trainers, losses, _) =
        data_parallel_train(ranks, STEPS, wire, QuantizePolicy::EveryHop, 0xD9);
    trainers
        .iter_mut()
        .zip(&losses)
        .map(|(t, l)| print(t, l))
        .collect()
}

/// Each all-gathered chunk is encoded once, by its owner, which keeps the
/// decode of that frame like every other rank, so the replicas stay equal.
#[test]
fn data_parallel_fp4_wire() {
    let got = dp_run(&Wire::fp4(8));
    assert_eq!(
        got[0].params, got[1].params,
        "a lossy wire keeps replicas equal too"
    );
    check(
        "DP FP4-wire",
        got,
        vec![
            // Moved from 0x45842a2e / 0x2dc4220c (and the losses from
            // 0x122bbb70 / 0xf99c87b9) when the owner of an all-gathered
            // chunk stopped keeping its unquantized copy.
            Print {
                params: 0x66d2d4ce,
                losses: 0x7b0b7235,
                rngs: 0x34cd0d49,
            },
            Print {
                params: 0x66d2d4ce,
                losses: 0x35bb21b8,
                rngs: 0x5b6ad6c5,
            },
        ],
    );
}

#[test]
fn data_parallel_exact_wire() {
    let got = dp_run(&Wire::exact());
    assert_eq!(
        got[0].params, got[1].params,
        "an exact wire keeps replicas equal"
    );
    check(
        "DP exact-wire",
        got,
        vec![
            Print {
                params: 0x2405854f,
                losses: 0x8c07d00e,
                rngs: 0x34cd0d49,
            },
            Print {
                params: 0x2405854f,
                losses: 0x076d834b,
                rngs: 0x5b6ad6c5,
            },
        ],
    );
}

/// One probe (Steps 1–3) on a warmed trainer, and the scheme Steps 4–5
/// solve from it.
#[test]
fn measurement_and_solved_scheme() {
    let mut t = tiny();
    let _ = t.train(2);
    let batch = t.peek_batch();
    let optimizer = t.optimizer.clone();
    let m = measure(
        &mut t.model,
        &optimizer,
        &batch,
        &mut Rng::seed_from(3),
        1e-2,
    );
    let engine = SnipEngine::new(SnipConfig::default(), t.config().model.clone());
    let scheme = engine
        .analyze_and_solve(&m, "fingerprint")
        .expect("feasible");
    // Moved from 0x421837e1 with the fused multiply-add tile update; the
    // scheme solved from it did not move.
    check("measurement", crc_of(&m), 0xaaece343);
    check("scheme", crc_of(&scheme), 0x50e746ae);
}
