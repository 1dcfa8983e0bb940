//! Numerical simulation of low-precision collectives.
//!
//! The paper flags *"extending low-precision support to reduce-scatter"* as
//! promising-but-challenging future work (§2.2). [`crate::comm`] accounts
//! for the bytes such a kernel would save; this module simulates the
//! *numerics*: a ring reduce-scatter / all-gather over `R` simulated data-
//! parallel ranks where every hop's payload is quantized to a wire format.
//! Partial sums accumulate in f32 at each receiver (the realistic design —
//! accumulating *in* FP4/FP8 diverges immediately), so the open question the
//! paper points at becomes measurable: how much error do `R − 1` payload
//! quantizations inject into the reduced gradient, for which wire format,
//! and at how many ranks?
//!
//! The `comm_precision` experiment sweeps exactly that; tests pin the
//! qualitative answers: BF16 wires are essentially free; every-hop FP4
//! error grows with ring size (partial sums are re-quantized `R − 1`
//! times); and the *final-only* policy (reduce exactly, quantize the stored
//! result once) is a storage-error floor that is independent of ring size —
//! every-hop starts **below** that floor on small rings, because the
//! receiver's own addend is never quantized, and crosses it as `R` grows.

use serde::{Deserialize, Serialize};
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::{PackedQuantize, Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

/// A collective wire format: payload width plus the quantizer emulating it.
/// Every §5.2 quantization option can serve as a wire codec: the payload
/// that crosses the ring is the quantizer's canonical packed form, and its
/// byte volume is whatever that form measures.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Wire {
    bits: u32,
    codec: Option<Quantizer>,
    label: &'static str,
}

impl Wire {
    /// Lossless f32 wires (the numerical reference; 32 bits on the wire).
    pub fn exact() -> Self {
        Wire {
            bits: 32,
            codec: None,
            label: "exact",
        }
    }

    fn lossy(bits: u32, label: &'static str, codec: Quantizer) -> Self {
        Wire {
            bits,
            codec: Some(codec),
            label,
        }
    }

    /// E2M1 under `1×nb` tile scaling with stochastic rounding (the paper's
    /// recipe for FP4 gradients, §6.1 — unbiasedness matters even more when
    /// payloads are summed across ranks): the base of every FP4 wire.
    fn fp4_tiles(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Stochastic,
        )
    }

    /// BF16 wires — today's default for gradient collectives.
    pub fn bf16() -> Self {
        let codec = Quantizer::unscaled(FloatFormat::bf16(), Rounding::Nearest);
        Wire::lossy(16, "bf16", codec)
    }

    /// FP8 (E4M3) wires with `1×nb` tile scaling.
    pub fn fp8(nb: usize) -> Self {
        let codec = Quantizer::new(
            FloatFormat::e4m3(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        );
        Wire::lossy(8, "fp8", codec)
    }

    /// FP4 (E2M1) wires with `1×nb` tile scaling and stochastic rounding.
    pub fn fp4(nb: usize) -> Self {
        Wire::lossy(4, "fp4", Wire::fp4_tiles(nb))
    }

    /// MXFP4 wires: E2M1 codes under one-byte E8M0 scales per 32-block,
    /// stochastic element rounding.
    pub fn mxfp4() -> Self {
        let codec = Quantizer::mxfp4().with_rounding(Rounding::Stochastic);
        Wire::lossy(4, "mxfp4", codec)
    }

    /// RHT-rotated FP4 wires: payloads rotate, quantize at `1×nb` tiles with
    /// stochastic rounding, and the receiver inverts the rotation (the seed
    /// is shared configuration, not payload).
    pub fn rht_fp4(nb: usize, seed: u64) -> Self {
        let codec = Wire::fp4_tiles(nb).with_rht(nb.next_power_of_two(), seed);
        Wire::lossy(4, "rht-fp4", codec)
    }

    /// FP4 wires with a sparse BF16 outlier side-channel: the top
    /// `fraction` magnitudes ship at 6 B each (u32 index + BF16 value) and
    /// stop inflating the dense tile scales.
    pub fn outlier_fp4(nb: usize, fraction: f64) -> Self {
        Wire::lossy(4, "ol-fp4", Wire::fp4_tiles(nb).with_outliers(fraction))
    }

    /// INT8 wires with `1×nb` tile scaling.
    pub fn int8(nb: usize) -> Self {
        Wire::lossy(8, "int8", Quantizer::int8_tile(nb))
    }

    /// Payload width in bits (element codes only; subbyte wires also move
    /// per-tile scales, which [`Wire::transmit`] accounts for exactly).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Short name for tables.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The quantizer behind this wire (`None` for exact f32 wires).
    pub fn codec(&self) -> Option<&Quantizer> {
        self.codec.as_ref()
    }

    /// Quantizes a payload in place (no-op for exact wires), through the
    /// canonical codes path ([`PackedQuantize::quantize`] — decode of the
    /// packed form, falling back to the dense oracle for BF16). Numerically
    /// identical to what a receiver decodes after [`Wire::transmit`], and
    /// like `transmit` it leaves the caller's buffer untouched if the codec
    /// panics (the tensor is built from a copy).
    pub fn quantize(&self, payload: &mut Vec<f32>, rng: &mut Rng) {
        if let Some(codec) = &self.codec {
            let t = Tensor::from_vec(1, payload.len(), payload.clone());
            *payload = codec.quantize(&t, rng).into_vec();
        }
    }

    /// Sends a payload across the wire: packs it through the codec's
    /// [`PackedQuantize`] path and returns the **actual bytes moved** — the
    /// packed form's own accounting (codes + scales, one-byte E8M0 scales
    /// for MX, 6-byte sparse entries for outliers), two bytes per element
    /// for unpackable BF16, four for exact wires. This is what makes the
    /// simulator's communication volumes byte-accurate instead of
    /// `len × bits / 8` estimates; the threaded transport in
    /// [`crate::transport`] serializes the same packed form and must measure
    /// the same number.
    ///
    /// The caller's buffer is only replaced once the codec has finished: a
    /// panicking codec leaves `payload` exactly as it was (the tensor is
    /// built from a copy, never by stealing the allocation).
    pub fn transmit(&self, payload: &mut Vec<f32>, rng: &mut Rng) -> u64 {
        let Some(codec) = &self.codec else {
            return payload.len() as u64 * 4;
        };
        let t = Tensor::from_vec(1, payload.len(), payload.clone());
        let (decoded, bytes) = match codec.pack(&t, rng) {
            Some(packed) => {
                let bytes = packed.wire_bytes();
                (packed.dequantize(), bytes)
            }
            // BF16: not packable, 2 bytes per element on the wire.
            None => {
                let fq = codec.fake_reference(&t, rng);
                let bytes = fq.len() as u64 * 2;
                (fq, bytes)
            }
        };
        *payload = decoded.into_vec();
        bytes
    }
}

/// When payloads are quantized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizePolicy {
    /// Every hop's payload is quantized — the true wire-precision design
    /// whose feasibility the paper leaves open. Partial sums are re-
    /// quantized `R − 1` times.
    EveryHop,
    /// Hops run at full precision; only each rank's final owned chunk is
    /// quantized once (models "reduce in BF16, store low-precision" — the
    /// conservative bracket).
    FinalOnly,
}

/// Outcome of a simulated collective.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectiveResult {
    /// Per-rank payload: the owned reduced chunk (reduce-scatter) or the
    /// full reduced vector (all-reduce).
    pub per_rank: Vec<Vec<f32>>,
    /// Chunk ownership: `owned[r] = (start, end)` of rank `r`'s chunk.
    pub owned: Vec<(usize, usize)>,
    /// Total payload bytes that crossed the ring (all ranks, all hops).
    pub bytes_on_wire: u64,
}

/// Chunk boundaries distributing `n` elements over `r` ranks (chunk `i` is
/// `[i·n/r, (i+1)·n/r)`, remainder spread evenly).
pub fn chunk_bounds(n: usize, r: usize) -> Vec<(usize, usize)> {
    assert!(r > 0, "need at least one rank");
    (0..r).map(|i| (i * n / r, (i + 1) * n / r)).collect()
}

fn exact_reference(grads: &[Vec<f32>]) -> Vec<f32> {
    let n = grads[0].len();
    let mut sum = vec![0.0f32; n];
    for g in grads {
        for (s, v) in sum.iter_mut().zip(g) {
            *s += v;
        }
    }
    sum
}

/// The exact elementwise sum of all ranks' gradients (the collective's
/// numerical reference).
pub fn exact_sum(grads: &[Vec<f32>]) -> Vec<f32> {
    assert!(!grads.is_empty(), "no ranks");
    exact_reference(grads)
}

/// The randomness a simulated collective draws from: one stream shared by
/// every rank (the historical single-`Rng` API), or one independent stream
/// per rank — the shape a real multi-rank runtime has, where each rank owns
/// its RNG and the `_ranked` variants serve as the bit-exact oracle for
/// [`crate::transport`].
enum RngBank<'a> {
    Shared(&'a mut Rng),
    PerRank(&'a mut [Rng]),
}

impl RngBank<'_> {
    fn for_rank(&mut self, r: usize) -> &mut Rng {
        match self {
            RngBank::Shared(rng) => rng,
            RngBank::PerRank(rngs) => &mut rngs[r],
        }
    }

    fn check_world(&self, r_count: usize) {
        if let RngBank::PerRank(rngs) = self {
            assert_eq!(rngs.len(), r_count, "need exactly one RNG stream per rank");
        }
    }
}

/// Simulates a ring reduce-scatter: after `R − 1` hops rank `r` owns the
/// fully reduced chunk `(r + 1) mod R`.
///
/// All ranks draw stochastic-rounding randomness from the one shared `rng`
/// in rank order; see [`ring_reduce_scatter_ranked`] for independent
/// per-rank streams.
///
/// # Panics
///
/// Panics if `grads` is empty or ranks disagree on the gradient length.
pub fn ring_reduce_scatter(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rng: &mut Rng,
) -> CollectiveResult {
    ring_reduce_scatter_impl(grads, wire, policy, RngBank::Shared(rng))
}

/// [`ring_reduce_scatter`] with one independent RNG stream per rank — the
/// oracle configuration for the threaded transport, whose ranks each own
/// their stream. Rank `r` consumes exactly the draws its own sends (and,
/// under [`QuantizePolicy::FinalOnly`], its own stored chunk) require.
///
/// # Panics
///
/// Additionally panics if `rngs.len() != grads.len()`.
pub fn ring_reduce_scatter_ranked(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    ring_reduce_scatter_impl(grads, wire, policy, RngBank::PerRank(rngs))
}

// Ranks act in lockstep on parallel per-rank state; indexing by rank id
// across several arrays at once is the natural expression here.
#[allow(clippy::needless_range_loop)]
fn ring_reduce_scatter_impl(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    mut rng: RngBank<'_>,
) -> CollectiveResult {
    let r_count = grads.len();
    rng.check_world(r_count);
    assert!(r_count > 0, "no ranks");
    let n = grads[0].len();
    assert!(
        grads.iter().all(|g| g.len() == n),
        "ranks disagree on gradient length"
    );
    let bounds = chunk_bounds(n, r_count);
    let mut local: Vec<Vec<f32>> = grads.to_vec();
    let mut bytes = 0u64;

    for s in 0..r_count.saturating_sub(1) {
        // All sends are computed before any receive lands (ranks progress
        // in lockstep).
        let mut payloads: Vec<(usize, Vec<f32>)> = Vec::with_capacity(r_count);
        for r in 0..r_count {
            let c = (r + r_count - s % r_count) % r_count;
            let (lo, hi) = bounds[c];
            let mut payload = local[r][lo..hi].to_vec();
            if policy == QuantizePolicy::EveryHop {
                bytes += wire.transmit(&mut payload, rng.for_rank(r));
            } else {
                bytes += payload.len() as u64 * 4;
            }
            payloads.push((c, payload));
        }
        for r in 0..r_count {
            let dst = (r + 1) % r_count;
            let (c, payload) = &payloads[r];
            let (lo, _) = bounds[*c];
            for (i, v) in payload.iter().enumerate() {
                local[dst][lo + i] += v;
            }
        }
    }

    let mut per_rank = Vec::with_capacity(r_count);
    let mut owned = Vec::with_capacity(r_count);
    for r in 0..r_count {
        let c = (r + 1) % r_count;
        let (lo, hi) = bounds[c];
        let mut chunk = local[r][lo..hi].to_vec();
        if policy == QuantizePolicy::FinalOnly {
            wire.quantize(&mut chunk, rng.for_rank(r));
        }
        per_rank.push(chunk);
        owned.push((lo, hi));
    }
    CollectiveResult {
        per_rank,
        owned,
        bytes_on_wire: bytes,
    }
}

/// Simulates the ring all-gather that follows a reduce-scatter, giving every
/// rank the full reduced vector. Payloads are quantized per hop under
/// [`QuantizePolicy::EveryHop`] (idempotent for already-quantized chunks
/// under nearest rounding) and passed through otherwise.
pub fn ring_all_gather(
    scattered: &CollectiveResult,
    n: usize,
    wire: &Wire,
    policy: QuantizePolicy,
    rng: &mut Rng,
) -> CollectiveResult {
    ring_all_gather_impl(scattered, n, wire, policy, RngBank::Shared(rng))
}

/// [`ring_all_gather`] with one independent RNG stream per rank (the
/// threaded-transport oracle; see [`ring_reduce_scatter_ranked`]).
///
/// # Panics
///
/// Panics if `rngs.len()` differs from the number of ranks.
pub fn ring_all_gather_ranked(
    scattered: &CollectiveResult,
    n: usize,
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    ring_all_gather_impl(scattered, n, wire, policy, RngBank::PerRank(rngs))
}

// Ranks act in lockstep on parallel per-rank state; indexing by rank id
// across several arrays at once is the natural expression here.
#[allow(clippy::needless_range_loop)]
fn ring_all_gather_impl(
    scattered: &CollectiveResult,
    n: usize,
    wire: &Wire,
    policy: QuantizePolicy,
    mut rng: RngBank<'_>,
) -> CollectiveResult {
    let r_count = scattered.per_rank.len();
    assert!(r_count > 0, "no ranks");
    rng.check_world(r_count);
    let bounds = chunk_bounds(n, r_count);
    // have[r][c] = Some(chunk c's data) once rank r holds it.
    let mut have: Vec<Vec<Option<Vec<f32>>>> = vec![vec![None; r_count]; r_count];
    for r in 0..r_count {
        let c = (r + 1) % r_count;
        have[r][c] = Some(scattered.per_rank[r].clone());
    }
    let mut bytes = 0u64;
    for s in 0..r_count.saturating_sub(1) {
        let mut payloads: Vec<(usize, Vec<f32>)> = Vec::with_capacity(r_count);
        for r in 0..r_count {
            let c = (r + 1 + r_count - s % r_count) % r_count;
            let mut payload = have[r][c]
                .as_ref()
                .expect("ring schedule guarantees possession")
                .clone();
            if policy == QuantizePolicy::EveryHop {
                bytes += wire.transmit(&mut payload, rng.for_rank(r));
            } else {
                bytes += payload.len() as u64 * 4;
            }
            payloads.push((c, payload));
        }
        for r in 0..r_count {
            let dst = (r + 1) % r_count;
            let (c, payload) = payloads[r].clone();
            have[dst][c] = Some(payload);
        }
    }
    let per_rank: Vec<Vec<f32>> = (0..r_count)
        .map(|r| {
            let mut full = vec![0.0f32; n];
            for c in 0..r_count {
                let (lo, hi) = bounds[c];
                let chunk = have[r][c].as_ref().expect("all chunks gathered");
                full[lo..hi].copy_from_slice(chunk);
            }
            full
        })
        .collect();
    CollectiveResult {
        per_rank,
        owned: vec![(0, n); r_count],
        bytes_on_wire: bytes,
    }
}

/// Reduce-scatter followed by all-gather: a full all-reduce. Returns every
/// rank's reduced vector and the combined bytes on the wire.
pub fn ring_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rng: &mut Rng,
) -> CollectiveResult {
    let n = grads[0].len();
    let rs = ring_reduce_scatter(grads, wire, policy, rng);
    let mut ag = ring_all_gather(&rs, n, wire, policy, rng);
    ag.bytes_on_wire += rs.bytes_on_wire;
    ag
}

/// [`ring_all_reduce`] with one independent RNG stream per rank (the
/// threaded-transport oracle; see [`ring_reduce_scatter_ranked`]).
///
/// # Panics
///
/// Panics if `rngs.len() != grads.len()`.
pub fn ring_all_reduce_ranked(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &mut [Rng],
) -> CollectiveResult {
    let n = grads[0].len();
    let rs = ring_reduce_scatter_ranked(grads, wire, policy, rngs);
    let mut ag = ring_all_gather_ranked(&rs, n, wire, policy, rngs);
    ag.bytes_on_wire += rs.bytes_on_wire;
    ag
}

/// Relative L2 error of a reduced result against the exact sum, over the
/// positions each rank owns (reduce-scatter) or the full vector
/// (all-reduce).
pub fn relative_error(result: &CollectiveResult, exact: &[f32]) -> f64 {
    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (rank, (lo, hi)) in result.owned.iter().enumerate() {
        for (i, got) in result.per_rank[rank].iter().enumerate() {
            let want = exact[lo + i] as f64;
            err2 += (*got as f64 - want).powi(2);
            ref2 += want.powi(2);
        }
        debug_assert_eq!(hi - lo, result.per_rank[rank].len());
    }
    if ref2 == 0.0 {
        0.0
    } else {
        (err2 / ref2).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(seed);
        (0..ranks)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn exact_wire_reduce_scatter_matches_reference() {
        let grads = make_grads(4, 64, 1);
        let exact = exact_sum(&grads);
        let mut rng = Rng::seed_from(2);
        let rs = ring_reduce_scatter(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut rng);
        for (r, (lo, hi)) in rs.owned.iter().enumerate() {
            for i in *lo..*hi {
                let got = rs.per_rank[r][i - lo];
                assert!(
                    (got - exact[i]).abs() < 1e-5,
                    "rank {r} pos {i}: {got} vs {}",
                    exact[i]
                );
            }
        }
        assert!(relative_error(&rs, &exact) < 1e-6);
    }

    #[test]
    fn ownership_covers_the_vector_exactly_once() {
        let grads = make_grads(5, 33, 3); // deliberately not divisible
        let mut rng = Rng::seed_from(4);
        let rs = ring_reduce_scatter(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut rng);
        let mut covered = vec![0u8; 33];
        for (lo, hi) in &rs.owned {
            for c in covered.iter_mut().take(*hi).skip(*lo) {
                *c += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
    }

    #[test]
    fn all_reduce_gives_every_rank_the_full_sum() {
        let grads = make_grads(4, 40, 5);
        let exact = exact_sum(&grads);
        let mut rng = Rng::seed_from(6);
        let ar = ring_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut rng);
        assert_eq!(ar.per_rank.len(), 4);
        for rank in &ar.per_rank {
            for (got, want) in rank.iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn wire_error_ordering_fp4_fp8_bf16() {
        let grads = make_grads(8, 256, 7);
        let exact = exact_sum(&grads);
        let err = |wire: Wire| {
            let mut rng = Rng::seed_from(8);
            let rs = ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut rng);
            relative_error(&rs, &exact)
        };
        let e_bf16 = err(Wire::bf16());
        let e_fp8 = err(Wire::fp8(32));
        let e_fp4 = err(Wire::fp4(32));
        assert!(e_bf16 < e_fp8, "bf16 {e_bf16} !< fp8 {e_fp8}");
        assert!(e_fp8 < e_fp4, "fp8 {e_fp8} !< fp4 {e_fp4}");
        assert!(e_bf16 < 1e-2, "bf16 wires are essentially free: {e_bf16}");
    }

    #[test]
    fn fp4_error_grows_with_ring_size() {
        let err_at = |ranks: usize| {
            let grads = make_grads(ranks, 512, 11);
            let exact = exact_sum(&grads);
            let mut rng = Rng::seed_from(12);
            let rs =
                ring_reduce_scatter(&grads, &Wire::fp4(64), QuantizePolicy::EveryHop, &mut rng);
            relative_error(&rs, &exact)
        };
        let e2 = err_at(2);
        let e16 = err_at(16);
        assert!(
            e16 > e2,
            "more hops, more requantization error: {e2} → {e16}"
        );
    }

    #[test]
    fn final_only_is_a_ring_size_independent_storage_floor() {
        // Quantizing only the stored result costs (to first order) the FP4
        // error of the reduced tensor, whatever the ring size.
        let err_at = |ranks: usize| {
            let grads = make_grads(ranks, 512, 13);
            let exact = exact_sum(&grads);
            let mut rng = Rng::seed_from(14);
            let rs =
                ring_reduce_scatter(&grads, &Wire::fp4(32), QuantizePolicy::FinalOnly, &mut rng);
            relative_error(&rs, &exact)
        };
        let (e2, e16) = (err_at(2), err_at(16));
        assert!(
            (e2 / e16).ln().abs() < 0.7,
            "floor should be ~flat in ring size: {e2} vs {e16}"
        );
    }

    #[test]
    fn every_hop_beats_the_floor_on_tiny_rings() {
        // At R = 2 only one addend is ever quantized (the receiver's own
        // contribution stays exact), so every-hop sits below the
        // quantize-the-result floor; re-quantization makes it cross the
        // floor as rings grow.
        let grads = make_grads(2, 512, 15);
        let exact = exact_sum(&grads);
        let mut rng = Rng::seed_from(16);
        let every = ring_reduce_scatter(&grads, &Wire::fp4(32), QuantizePolicy::EveryHop, &mut rng);
        let finale =
            ring_reduce_scatter(&grads, &Wire::fp4(32), QuantizePolicy::FinalOnly, &mut rng);
        assert!(relative_error(&every, &exact) < relative_error(&finale, &exact));
    }

    #[test]
    fn bytes_accounting_is_byte_accurate() {
        // R = 4 ranks, N = 64 elements: reduce-scatter moves (R−1)·N = 192
        // elements in 3·4 = 12 payloads of 16 elements. Each payload carries
        // its packed codes *and* its 1×16-tile scale factor (one f32), so
        // subbyte wires are charged for scales, not just element bits.
        let grads = make_grads(4, 64, 15);
        let mut rng = Rng::seed_from(16);
        let rs = ring_reduce_scatter(&grads, &Wire::fp8(16), QuantizePolicy::EveryHop, &mut rng);
        assert_eq!(rs.bytes_on_wire, 12 * (16 + 4)); // 1 B/elem + scale
        let rs4 = ring_reduce_scatter(&grads, &Wire::fp4(16), QuantizePolicy::EveryHop, &mut rng);
        assert_eq!(rs4.bytes_on_wire, 12 * (8 + 4)); // 0.5 B/elem + scale
        let rsb = ring_reduce_scatter(&grads, &Wire::bf16(), QuantizePolicy::EveryHop, &mut rng);
        assert_eq!(rsb.bytes_on_wire, 12 * 16 * 2); // 2 B/elem, no scales
                                                    // FinalOnly pays full f32 on the wire.
        let rsf = ring_reduce_scatter(&grads, &Wire::fp4(16), QuantizePolicy::FinalOnly, &mut rng);
        assert_eq!(rsf.bytes_on_wire, 3 * 64 * 4);
    }

    #[test]
    fn transmit_decodes_to_the_fake_quantized_payload() {
        // The packed wire must be numerically invisible: transmit's decode
        // equals the fake-quantization of the same payload, bit for bit.
        let mut payload: Vec<f32> = (0..48).map(|i| (i as f32 - 20.0) * 0.37).collect();
        let mut reference = payload.clone();
        let wire = Wire::fp4(16);
        let mut r1 = Rng::seed_from(9);
        let mut r2 = Rng::seed_from(9);
        let bytes = wire.transmit(&mut payload, &mut r1);
        wire.quantize(&mut reference, &mut r2);
        assert_eq!(bytes, 24 + 3 * 4);
        for (a, b) in payload.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn alternative_quantizer_wires_transmit_byte_accurately() {
        // Every §5.2 option rides the same PackedQuantize path: transmitted
        // bytes equal the codec's analytic packed volume, and the decoded
        // payload equals the derived quantization bit-for-bit.
        let n = 96usize;
        let mut base: Vec<f32> = (0..n).map(|i| (i as f32 - 40.0) * 0.21).collect();
        base[7] = 50.0; // an outlier for the split wire
        for wire in [
            Wire::mxfp4(),
            Wire::rht_fp4(32, 5),
            Wire::outlier_fp4(32, 0.02),
            Wire::int8(32),
        ] {
            let mut payload = base.clone();
            let mut reference = base.clone();
            let mut r1 = Rng::seed_from(21);
            let mut r2 = Rng::seed_from(21);
            let bytes = wire.transmit(&mut payload, &mut r1);
            wire.quantize(&mut reference, &mut r2);
            assert_eq!(
                Some(bytes),
                wire.codec().unwrap().packed_wire_bytes(1, n),
                "{}",
                wire.label()
            );
            for (a, b) in payload.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs {b}", wire.label());
            }
        }
        // MX wires are cheaper than plain FP4 wires at the same element
        // width: E8M0 block scales cost 1 B against f32 tile scales' 4 B.
        let mx = Wire::mxfp4().codec().unwrap().packed_wire_bytes(1, n);
        let fp4 = Wire::fp4(32).codec().unwrap().packed_wire_bytes(1, n);
        assert!(mx < fp4, "mx {mx:?} !< fp4 {fp4:?}");
    }

    #[test]
    fn rht_wire_reduces_error_on_outlier_heavy_gradients() {
        // The point of shipping RHT as a wire option: spike-contaminated
        // gradients quantize better after rotation, at identical bytes.
        let mut rng = Rng::seed_from(31);
        let n = 512;
        let grads: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                let mut g: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                for s in 0..4 {
                    g[s * 128 + 17] = 60.0;
                }
                g
            })
            .collect();
        let exact = exact_sum(&grads);
        let err = |wire: Wire| {
            let mut r = Rng::seed_from(32);
            let rs = ring_reduce_scatter(&grads, &wire, QuantizePolicy::EveryHop, &mut r);
            relative_error(&rs, &exact)
        };
        let plain = err(Wire::fp4(128));
        let rht = err(Wire::rht_fp4(128, 9));
        let split = err(Wire::outlier_fp4(128, 4.0 / 512.0));
        assert!(rht < plain, "rht {rht} !< plain fp4 {plain}");
        assert!(split < plain, "outlier {split} !< plain fp4 {plain}");
        let b_plain = {
            let mut r = Rng::seed_from(33);
            ring_reduce_scatter(&grads, &Wire::fp4(128), QuantizePolicy::EveryHop, &mut r)
                .bytes_on_wire
        };
        let b_rht = {
            let mut r = Rng::seed_from(33);
            ring_reduce_scatter(
                &grads,
                &Wire::rht_fp4(128, 9),
                QuantizePolicy::EveryHop,
                &mut r,
            )
            .bytes_on_wire
        };
        assert_eq!(b_plain, b_rht, "rotation must not change wire volume");
    }

    #[test]
    fn ranked_rng_oracle_matches_shared_stream_under_nearest_rounding() {
        // FP8 wires round to nearest, so no stream is ever consumed and the
        // per-rank-RNG oracle must agree with the shared-stream simulator
        // bit for bit — results, ownership and byte counters.
        let grads = make_grads(4, 50, 19);
        let mut shared = Rng::seed_from(1);
        let a = ring_all_reduce(
            &grads,
            &Wire::fp8(16),
            QuantizePolicy::EveryHop,
            &mut shared,
        );
        let mut rngs: Vec<Rng> = (0..4).map(|r| Rng::seed_from(100 + r as u64)).collect();
        let b = ring_all_reduce_ranked(&grads, &Wire::fp8(16), QuantizePolicy::EveryHop, &mut rngs);
        assert_eq!(a, b);
    }

    #[test]
    fn ranked_stochastic_wires_draw_only_each_ranks_own_sends() {
        // Under stochastic FP4 each rank's stream advances only for its own
        // transmissions: re-running with the same per-rank seeds reproduces
        // the result exactly, and byte accounting matches the shared path.
        let grads = make_grads(3, 48, 23);
        let run = || {
            let mut rngs: Vec<Rng> = (0..3).map(|r| Rng::seed_from(7 + r as u64)).collect();
            ring_reduce_scatter_ranked(&grads, &Wire::fp4(16), QuantizePolicy::EveryHop, &mut rngs)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "ranked runs must be deterministic");
        let mut shared = Rng::seed_from(5);
        let s = ring_reduce_scatter(
            &grads,
            &Wire::fp4(16),
            QuantizePolicy::EveryHop,
            &mut shared,
        );
        assert_eq!(a.bytes_on_wire, s.bytes_on_wire);
        assert_eq!(a.owned, s.owned);
    }

    #[test]
    #[should_panic(expected = "one RNG stream per rank")]
    fn ranked_requires_one_rng_per_rank() {
        let grads = make_grads(3, 16, 27);
        let mut rngs = vec![Rng::seed_from(0); 2];
        let _ =
            ring_reduce_scatter_ranked(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &mut rngs);
    }

    #[test]
    fn transmit_leaves_payload_length_and_allocation_semantics_intact() {
        // transmit never steals the caller's buffer: the length is
        // preserved on every codec path, including the unpackable BF16 one.
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let mut payload: Vec<f32> = (0..40).map(|i| i as f32 * 0.11 - 2.0).collect();
            let mut rng = Rng::seed_from(3);
            let _ = wire.transmit(&mut payload, &mut rng);
            assert_eq!(payload.len(), 40, "{}", wire.label());
        }
    }

    #[test]
    fn single_rank_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let mut rng = Rng::seed_from(18);
        let rs = ring_reduce_scatter(&grads, &Wire::fp4(8), QuantizePolicy::EveryHop, &mut rng);
        assert_eq!(rs.bytes_on_wire, 0);
        assert_eq!(rs.owned, vec![(0, 16)]);
        assert_eq!(rs.per_rank[0], grads[0]);
    }

    #[test]
    fn stochastic_fp4_wire_sum_is_unbiased() {
        // Average the all-reduced value over many seeds: stochastic
        // rounding keeps the expectation at the exact sum.
        let grads = vec![vec![0.37f32; 32], vec![0.11f32; 32]];
        let exact = exact_sum(&grads);
        let trials = 400;
        let mut acc = vec![0.0f64; 32];
        for seed in 0..trials {
            let mut rng = Rng::seed_from(seed);
            let rs =
                ring_reduce_scatter(&grads, &Wire::fp4(32), QuantizePolicy::EveryHop, &mut rng);
            for (r, (lo, _)) in rs.owned.iter().enumerate() {
                for (i, v) in rs.per_rank[r].iter().enumerate() {
                    acc[lo + i] += *v as f64;
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - exact[i] as f64).abs() < 0.02,
                "pos {i}: mean {mean} vs exact {}",
                exact[i]
            );
        }
    }
}
