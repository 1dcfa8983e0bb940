//! Test support: the in-proc ring simulator that is the transports' oracle.
//!
//! The simulator holds all `R` ranks in one address space, each with its
//! own RNG stream, and ships every hop through the transports' frame codec
//! ([`Wire::transmit`]). The all-gather encodes each reduced chunk once:
//! the owner adopts the decode of its frame, and the ring forwards those
//! bytes unchanged, so every rank ends an all-reduce with the same bits.
//! Both fabrics are pinned against it bit for bit — reduced gradients, RNG
//! streams, payload bytes — and what that pins is the ring schedule; the
//! codec is shared by construction.
//!
//! Its tests also pin the qualitative answers to the paper's open question
//! (§2.2): BF16 wires are essentially free; every-hop FP4 error grows with
//! ring size (partial sums are re-quantized `R − 1` times); and the
//! *final-only* policy (reduce exactly, quantize the stored result once) is
//! a storage-error floor that is independent of ring size — every-hop
//! starts **below** that floor on small rings, because the receiver's own
//! addend is never quantized, and crosses it as `R` grows.
//!
//! Each test binary pulls this file in with `mod support;`; the crate's
//! unit tests include it by path.

#![allow(dead_code)]

use snip_pipeline::collective::{chunk_bounds, QuantizePolicy, Wire};
#[cfg(unix)]
use snip_pipeline::transport::proc::TaskOutput;
#[cfg(unix)]
use snip_pipeline::transport::TransportStats;
use snip_tensor::rng::Rng;
use std::collections::BTreeMap;

/// Outcome of a collective, simulated or reshaped from a transport's.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveResult {
    /// Per-rank payload: the owned reduced chunk (reduce-scatter) or the
    /// full reduced vector (all-reduce).
    pub per_rank: Vec<Vec<f32>>,
    /// Chunk ownership: `owned[r] = (start, end)` of rank `r`'s chunk.
    pub owned: Vec<(usize, usize)>,
    /// Total payload bytes that crossed the ring (all ranks, all hops).
    pub bytes_on_wire: u64,
}

/// The exact elementwise sum of all ranks' gradients (the collective's
/// numerical reference).
pub fn exact_sum(grads: &[Vec<f32>]) -> Vec<f32> {
    assert!(!grads.is_empty(), "no ranks");
    let mut sum = vec![0.0f32; grads[0].len()];
    for g in grads {
        for (s, v) in sum.iter_mut().zip(g) {
            *s += v;
        }
    }
    sum
}

/// What each hop ships through: `wire` itself under
/// [`QuantizePolicy::EveryHop`], full-precision f32 otherwise.
fn hop_wire(wire: &Wire, policy: QuantizePolicy) -> Wire {
    match policy {
        QuantizePolicy::EveryHop => *wire,
        QuantizePolicy::FinalOnly => Wire::exact(),
    }
}

/// Simulates a ring reduce-scatter over `R = grads.len()` ranks, rank `r`
/// drawing its stochastic-rounding randomness from `rngs[r]` — exactly the
/// draws its own sends (and, under [`QuantizePolicy::FinalOnly`], its own
/// stored chunk) require, as in the transports, whose ranks each own their
/// stream. After `R − 1` hops rank `r` owns the fully reduced chunk
/// `(r + 1) mod R`.
///
/// # Panics
///
/// Panics if `grads` is empty, ranks disagree on the gradient length, or
/// `rngs.len() != grads.len()`.
pub fn ring_reduce_scatter(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    let r_count = grads.len();
    assert_eq!(rngs.len(), r_count, "need exactly one RNG stream per rank");
    assert!(r_count > 0, "no ranks");
    let n = grads[0].len();
    assert!(
        grads.iter().all(|g| g.len() == n),
        "ranks disagree on gradient length"
    );
    let bounds = chunk_bounds(n, r_count);
    let hop_wire = hop_wire(wire, policy);
    let mut local: Vec<Vec<f32>> = grads.to_vec();
    let mut bytes = 0u64;
    for s in 0..r_count.saturating_sub(1) {
        // Every rank sends before any receive lands (ranks act in lockstep).
        let sent: Vec<(usize, Vec<f32>)> = (0..r_count)
            .map(|r| {
                let (lo, hi) = bounds[(r + r_count - s) % r_count];
                let mut payload = local[r][lo..hi].to_vec();
                bytes += hop_wire.transmit(&mut payload, &mut rngs[r]);
                (lo, payload)
            })
            .collect();
        for (r, (lo, payload)) in sent.into_iter().enumerate() {
            for (l, v) in local[(r + 1) % r_count][lo..].iter_mut().zip(payload) {
                *l += v;
            }
        }
    }
    let owned: Vec<(usize, usize)> = (0..r_count).map(|r| bounds[(r + 1) % r_count]).collect();
    let per_rank = (owned.iter().zip(local).zip(rngs))
        .map(|((&(lo, hi), sums), rng)| {
            let mut chunk = sums[lo..hi].to_vec();
            if policy == QuantizePolicy::FinalOnly {
                wire.quantize(&mut chunk, rng);
            }
            chunk
        })
        .collect();
    CollectiveResult {
        per_rank,
        owned,
        bytes_on_wire: bytes,
    }
}

/// Simulates the ring all-gather that follows a reduce-scatter, giving every
/// rank the full reduced vector, with one RNG stream per rank (see
/// [`ring_reduce_scatter`]). Rank `r` encodes its chunk once through the hop
/// wire, drawing from `rngs[r]`, and every rank — the owner included — holds
/// the decode of that one frame, so all ranks end with the same bits. The
/// ring forwards the frame unchanged across `R − 1` links, which is what
/// `bytes_on_wire` charges; forwarding moves no value, so the simulator
/// does not replay it.
///
/// # Panics
///
/// Panics if `rngs.len()` differs from the number of ranks.
pub fn ring_all_gather(
    scattered: &CollectiveResult,
    n: usize,
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    let r_count = scattered.per_rank.len();
    assert!(r_count > 0, "no ranks");
    assert_eq!(rngs.len(), r_count, "need exactly one RNG stream per rank");
    let bounds = chunk_bounds(n, r_count);
    let hop_wire = hop_wire(wire, policy);
    let hops = r_count as u64 - 1;
    let mut full = vec![0.0f32; n];
    let mut bytes = 0u64;
    for (r, (chunk, rng)) in scattered.per_rank.iter().zip(rngs).enumerate() {
        let (lo, hi) = bounds[(r + 1) % r_count];
        let mut own = chunk.clone();
        if hops > 0 {
            bytes += hops * hop_wire.transmit(&mut own, rng);
        }
        full[lo..hi].copy_from_slice(&own);
    }
    CollectiveResult {
        per_rank: vec![full; r_count],
        owned: vec![(0, n); r_count],
        bytes_on_wire: bytes,
    }
}

/// Reduce-scatter followed by all-gather: a full all-reduce, one RNG stream
/// per rank. Returns every rank's reduced vector and the combined bytes on
/// the wire.
///
/// # Panics
///
/// Panics if `rngs.len() != grads.len()`.
pub fn ring_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    let n = grads[0].len();
    let rs = ring_reduce_scatter(grads, wire, policy, rngs);
    let mut ag = ring_all_gather(&rs, n, wire, policy, rngs);
    ag.bytes_on_wire += rs.bytes_on_wire;
    ag
}

/// Relative L2 error of a reduced result against the exact sum, over the
/// positions each rank owns (reduce-scatter) or the full vector
/// (all-reduce).
pub fn relative_error(result: &CollectiveResult, exact: &[f32]) -> f64 {
    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (&(lo, _), chunk) in result.owned.iter().zip(&result.per_rank) {
        for (got, want) in chunk.iter().zip(&exact[lo..]) {
            err2 += (*got as f64 - *want as f64).powi(2);
            ref2 += (*want as f64).powi(2);
        }
    }
    if ref2 == 0.0 {
        0.0
    } else {
        (err2 / ref2).sqrt()
    }
}

/// A collective launched over the process fabric, in the simulator's result
/// shape (`bytes_on_wire` from the measured payload counters).
#[cfg(unix)]
#[derive(Clone, Debug)]
pub struct ProcCollective {
    /// Per-rank reduced payloads and chunk ownership.
    pub result: CollectiveResult,
    /// Each rank's `rng.next_u64()` drawn after the collective — pins that
    /// the per-rank RNG streams advanced exactly as the oracle's did.
    pub rng_fingerprints: Vec<u64>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

#[cfg(unix)]
impl ProcCollective {
    /// Reshapes what `proc::launch` returned for reduce-scatter or
    /// all-reduce tasks.
    pub fn from_launch((outputs, stats): (Vec<TaskOutput>, TransportStats)) -> Self {
        let mut result = CollectiveResult {
            per_rank: Vec::new(),
            owned: Vec::new(),
            bytes_on_wire: stats.total_payload_bytes(),
        };
        let mut rng_fingerprints = Vec::new();
        for output in outputs {
            let (owned, fingerprint, data) = match output {
                TaskOutput::ReduceScatter {
                    lo,
                    hi,
                    rng_fingerprint,
                    data,
                } => ((lo, hi), rng_fingerprint, data),
                TaskOutput::AllReduce {
                    rng_fingerprint,
                    data,
                } => ((0, data.len()), rng_fingerprint, data),
                other => panic!("not a collective's output: {other:?}"),
            };
            result.owned.push(owned);
            result.per_rank.push(data);
            rng_fingerprints.push(fingerprint);
        }
        ProcCollective {
            result,
            rng_fingerprints,
            stats,
        }
    }
}

/// Runs `f` with telemetry collection on and returns its result beside the
/// transport failure counters it moved, each with its increment: every
/// `transport.*` counter but the traffic totals, which a thread run
/// publishes even when a rank fails and a failed launch never does.
/// Counters are process-global, so callers must not run other transport
/// work meanwhile.
pub fn failure_counters_moved_by<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let _telemetry = snip_obs::enabled_scope(true);
    let traffic = ["payload_bytes", "envelope_bytes", "frames"].map(|n| format!("transport.{n}"));
    let read = || {
        let mut counters = snip_obs::registry::snapshot().counters;
        counters.retain(|name, _| name.starts_with("transport.") && !traffic.contains(name));
        counters
    };
    let before = read();
    let output = f();
    let mut moved = read();
    for (name, value) in &mut moved {
        *value -= before.get(name).copied().unwrap_or(0);
    }
    moved.retain(|_, increment| *increment > 0);
    (output, moved)
}
