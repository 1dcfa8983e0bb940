//! The cache-blocked GEMM engine behind both the dense and the packed
//! kernels.
//!
//! One implementation serves all three orientations and all four operand
//! combinations (dense×dense through packed×packed): operands are
//! [`QOperandRef`]s. The B-side tile cache is materialized **once per
//! GEMM** and shared read-only by every row chunk; each chunk's A block is
//! borrowed in place (dense, row-major) or decoded **once per block sweep**
//! into reusable per-worker scratch (the old `qgemm_nt` panel loop
//! re-decoded every packed A row ⌈n/32⌉ times). Because the dense and
//! packed kernels literally share this code, the 0-ULP packed-vs-dense
//! identity holds by construction.
//!
//! Every orientation reduces to the same tile kernel: an `mb×k` row-major
//! A block times a `k×nb` k-major B tile, accumulated into an `mb×nb`
//! output tile as rank-1 updates — the vectorizable form (the naive
//! dot-product `nt` kernel was a serial FMA latency chain; rewriting it as
//! rank-1 updates over a transposed B tile is the single largest win in
//! this engine). The tile kernel has two bodies behind one dispatch
//! table: the portable scalar kernel in [`scalar`] (always compiled, always
//! the reference) and one vector kernel, written once in `simd_ops` over a
//! per-ISA vector-op table and instantiated for AVX2 (`simd_x86`), AVX-512
//! (`simd_x86_512`) and NEON (`simd_neon`) when the `simd` cargo feature is
//! on. [`simd::active_kernels`] resolves the table row — tile update,
//! decodes, abs-max and encode kernels as plain function pointers — for
//! the tier runtime detection, `SNIP_SIMD` and `with_forced_backend`
//! select; it is the only place a vector kernel is reached from.
//!
//! # The accumulation-order constraint
//!
//! Every output element is accumulated **serially over `k`, ascending, in a
//! single f32 accumulator** — terms are added one at a time (`acc += a0·b0;
//! acc += a1·b1; …`), never as a fused `a0·b0 + a1·b1` tree. Blocking over
//! output tiles only reorders *which elements* are computed when, never the
//! order of additions within one element, so any M×N tiling is bit-exact
//! with any other (and with the serial kernel) at every thread count.
//! Splitting `k` across tasks or summing it through trees/SIMD horizontal
//! adds would break both the packed-vs-dense identity and cross-split
//! determinism.
//!
//! The SIMD kernels obey the same rule by vectorizing **across output
//! elements only**: each lane owns one output column's accumulator and the
//! `k` loop stays serial inside every lane, with a plain multiply followed
//! by a plain add per term (no FMA — a fused multiply-add skips the
//! intermediate rounding and would diverge from the scalar kernel by an
//! ULP). Lane `j` of the vector performs exactly the scalar kernel's
//! operation sequence for element `(i, j0 + j)`, so SIMD-vs-scalar equality
//! is 0 ULP lane-by-lane (property-tested in `tests/simd_scalar.rs`).

use crate::matmul::{for_each_row_chunk, thread_count};
use crate::packed::{prep, QOperandRef};
use crate::pool::{self, AlignedVec};
use crate::Tensor;
use std::cell::RefCell;

mod scalar;
pub mod simd;
pub mod simd_encode;
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod simd_neon;
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod simd_ops;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd_x86;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd_x86_512;

/// Output rows per block (bounds A-side scratch to `MC × k` floats).
const MC: usize = 64;
/// Output columns per tile: bounds B-side scratch to `NC × k` floats and
/// keeps a 64×64 f32 output tile (16 KiB) L1-resident.
const NC: usize = 64;

/// What happens to each output element at tile-store time.
///
/// `Bf16` folds the round-to-nearest-even BF16 rounding of
/// [`crate::bf16::round`] into the final store of the tile kernel instead
/// of a second pass over the output. Each element is rounded exactly once,
/// after its full `k` accumulation (the engine calls the tile kernel once
/// per output tile with the whole `k` extent), so the fused store is
/// bit-identical to `Round::Keep` followed by
/// [`crate::bf16::round_slice`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// Store the raw f32 accumulators.
    Keep,
    /// Round every stored element to BF16 (kept in f32 storage).
    Bf16,
}

thread_local! {
    /// Per-worker scratch, reused across GEMM calls for the lifetime of the
    /// pool worker (or calling thread): A block, B tile (cache-line aligned
    /// for SIMD tile-row streaming), and a row staging buffer for
    /// transposes.
    static SCRATCH: RefCell<(Vec<f32>, AlignedVec, Vec<f32>)> =
        const { RefCell::new((Vec::new(), AlignedVec::new(), Vec::new())) };
}

fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut AlignedVec, &mut Vec<f32>) -> R) -> R {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let (a, b, r) = &mut *s;
        f(a, b, r)
    })
}

/// The shared tile kernel: `C[i0.., j0..] += Ablock · Btile` where `ablock`
/// is `mb×k` row-major, `btile` is `k×nb` k-major, and `chunk` holds the
/// caller's output rows (`row0` = first tile row's index within the chunk,
/// `n` = full output row stride). Terms are added one at a time, `k`
/// ascending, per element — see the module docs.
///
/// Calls through the active row of the kernel table
/// ([`simd::active_kernels`]): a vector row folds [`Round::Bf16`] into the
/// tile store, the scalar row rounds in a second pass over the tile.
#[allow(clippy::too_many_arguments)]
fn tile_kernel(
    round: Round,
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
    k: usize,
    ablock: &[f32],
    btile: &[f32],
) {
    let kernels = simd::active_kernels();
    let tile = match round {
        Round::Keep => kernels.tile_keep,
        Round::Bf16 => kernels.tile_bf16,
    };
    tile(chunk, n, row0, j0, mb, nb, k, ablock, btile);
}

/// How the B operand's elements map onto the k-major `k×nb` tile.
#[derive(Clone, Copy)]
enum BSide {
    /// B is `K×N`: tile row `kk` is the column segment `[j0, j1)` of B row
    /// `kk` (`nn`/`tn` orientations).
    RowMajor,
    /// B is `N×K` (`nt` orientation): tile row `kk` gathers element `kk`
    /// of B rows `[j0, j1)` — built by transposing whole B rows through the
    /// staging buffer, each row touched once per tile.
    Transposed,
}

/// Largest B operand (in elements) whose tile cache is pre-materialized
/// once per GEMM and shared read-only by every row chunk. Beyond it (64 MiB
/// of tiles) workers fall back to building tiles per block sweep from their
/// own bounded scratch.
const B_CACHE_LIMIT: usize = 1 << 24;

/// Materializes the `k×nb` k-major B tile for columns `[j0, j1)` into
/// `tile` (length `k * nb`).
fn build_btile_into(
    b: &QOperandRef<'_>,
    side: BSide,
    k: usize,
    j0: usize,
    j1: usize,
    tile: &mut [f32],
    staging: &mut Vec<f32>,
) {
    let nb = j1 - j0;
    debug_assert_eq!(tile.len(), k * nb);
    match side {
        BSide::RowMajor => match b {
            QOperandRef::Dense(t) => {
                for (kk, dst) in tile.chunks_exact_mut(nb).enumerate() {
                    dst.copy_from_slice(&t.row(kk)[j0..j1]);
                }
            }
            QOperandRef::Packed(t) => {
                for (kk, dst) in tile.chunks_exact_mut(nb).enumerate() {
                    t.decode_row_range_into(kk, j0, j1, dst);
                }
            }
        },
        BSide::Transposed => {
            for j in j0..j1 {
                let row = match b {
                    QOperandRef::Dense(t) => t.row(j),
                    QOperandRef::Packed(t) => {
                        let buf = prep(staging, k);
                        t.decode_row_into(j, buf);
                        &*buf
                    }
                };
                for (kk, &v) in row.iter().enumerate() {
                    tile[kk * nb + (j - j0)] = v;
                }
            }
        }
    }
}

/// How the A operand's elements map onto the row-major `mb×k` A block.
#[derive(Clone, Copy)]
enum ASide {
    /// A is `M×K`: block rows are operand rows `[i0, i1)` (`nn`/`nt`).
    RowMajor,
    /// A is `K×M` (`tn` orientation): block row `i` gathers column `i0 + i`
    /// across all `k` operand rows.
    Transposed,
}

/// Materializes the `mb×k` row-major A block for output rows `[i0, i1)` —
/// a direct borrow for dense row-major operands, one decode (or transpose)
/// per block sweep otherwise.
fn build_ablock<'s>(
    a: &'s QOperandRef<'s>,
    side: ASide,
    k: usize,
    i0: usize,
    i1: usize,
    scratch: &'s mut Vec<f32>,
    staging: &mut Vec<f32>,
) -> &'s [f32] {
    let mb = i1 - i0;
    match side {
        ASide::RowMajor => a.rows_block(i0, i1, scratch),
        ASide::Transposed => {
            let block = prep(scratch, mb * k);
            for kk in 0..k {
                let seg = match a {
                    QOperandRef::Dense(t) => &t.row(kk)[i0..i1],
                    QOperandRef::Packed(t) => {
                        let buf = prep(staging, mb);
                        t.decode_row_range_into(kk, i0, i1, buf);
                        &*buf
                    }
                };
                for (i, &v) in seg.iter().enumerate() {
                    block[i * k + kk] = v;
                }
            }
            block
        }
    }
}

/// One chunk's block sweep: `MC×NC` output tiles over rows `[start, end)`
/// of the output, the A block materialized once per sweep, B tiles served
/// from the shared cache when present and built into per-thread scratch
/// otherwise. `chunk` holds exactly rows `[start, end)`. Every pool split
/// runs this one body over its rows — that is what makes the result the
/// same at every thread count.
#[allow(clippy::too_many_arguments)]
fn sweep_rows(
    a: &QOperandRef<'_>,
    a_side: ASide,
    b: &QOperandRef<'_>,
    b_side: BSide,
    n: usize,
    k: usize,
    round: Round,
    bcache: Option<&[f32]>,
    start: usize,
    end: usize,
    chunk: &mut [f32],
) {
    // Hoisted so the tile loop pays the telemetry gate once per sweep, not
    // per tile (and nothing at all beyond this load when collection is off).
    let obs = snip_obs::enabled();
    with_scratch(|sa, sb, sr| {
        let mut i0 = start;
        while i0 < end {
            let i1 = (i0 + MC).min(end);
            let ablock = build_ablock(a, a_side, k, i0, i1, sa, sr);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + NC).min(n);
                let btile: &[f32] = match bcache {
                    Some(cache) => {
                        if obs {
                            snip_obs::counter_add("gemm.btile.cache_hits", 1);
                        }
                        &cache[j0 * k..j1 * k]
                    }
                    None => {
                        if obs {
                            snip_obs::counter_add("gemm.btile.scratch_builds", 1);
                        }
                        let tile = sb.prep(k * (j1 - j0));
                        build_btile_into(b, b_side, k, j0, j1, tile, sr);
                        tile
                    }
                };
                tile_kernel(
                    round,
                    chunk,
                    n,
                    i0 - start,
                    j0,
                    i1 - i0,
                    j1 - j0,
                    k,
                    ablock,
                    btile,
                );
                j0 = j1;
            }
            i0 = i1;
        }
    });
}

/// The blocked driver shared by all three orientations: pre-materialize
/// the B-side tile cache (tiles are j-aligned, so one build serves every
/// row chunk — B-side decode/transpose work is a single pass over B
/// regardless of `m` or the chunk count), then row-chunk the output across
/// the pool, sweeping `MC×NC` output tiles per chunk with the A block
/// materialized once per sweep. Oversized B operands skip the shared cache
/// and build tiles per sweep from bounded per-worker scratch.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &QOperandRef<'_>,
    a_side: ASide,
    b: &QOperandRef<'_>,
    b_side: BSide,
    round: Round,
    m: usize,
    n: usize,
    k: usize,
) -> Tensor {
    // Telemetry wrapper: one relaxed load when collection is off; when on,
    // count the call against the active backend and accumulate wall time
    // on the dispatching thread (`gemm.ns` backs `StepOutput::gemm_ns`).
    if !snip_obs::enabled() {
        return gemm_blocked_inner(a, a_side, b, b_side, round, m, n, k);
    }
    let dispatch = match simd::active_backend() {
        simd::Backend::Scalar => "gemm.dispatch.scalar",
        simd::Backend::Neon => "gemm.dispatch.neon",
        simd::Backend::Avx2 => "gemm.dispatch.avx2",
        simd::Backend::Avx512 => "gemm.dispatch.avx512",
    };
    snip_obs::counter_add("gemm.calls", 1);
    snip_obs::counter_add(dispatch, 1);
    let t0 = snip_obs::trace::now_ns();
    let c = gemm_blocked_inner(a, a_side, b, b_side, round, m, n, k);
    snip_obs::counter_add("gemm.ns", snip_obs::trace::now_ns().saturating_sub(t0));
    c
}

#[allow(clippy::too_many_arguments)]
fn gemm_blocked_inner(
    a: &QOperandRef<'_>,
    a_side: ASide,
    b: &QOperandRef<'_>,
    b_side: BSide,
    round: Round,
    m: usize,
    n: usize,
    k: usize,
) -> Tensor {
    let mut c = Tensor::zeros(m, n);
    if m == 0 {
        return c;
    }
    let parts = thread_count(m * n * k);
    // The shared cache only pays when some sweep will re-read a tile: more
    // than one i-block per chunk, or several chunks sharing B. A skinny
    // single-sweep product (e.g. a matvec) streams B straight through
    // per-worker scratch instead — same traffic as reading B once, no
    // up-front allocation.
    let reused = m > MC || (parts > 1 && m > 1);
    let bcache: Option<AlignedVec> = if reused && k * n > 0 && k * n <= B_CACHE_LIMIT {
        // Tiles are stored back to back: the tile starting at column `j0`
        // occupies `cache[j0 * k..j1 * k]` — disjoint slices, so when the
        // GEMM itself will run parallel the build fans out across the pool
        // too (one task per tile; tile contents depend only on position,
        // so the cache is identical at every split).
        let mut cache = AlignedVec::new();
        let tiles: Vec<&mut [f32]> = cache.prep(k * n).chunks_mut(NC * k).collect();
        let build = |t: usize, tile: &mut [f32], staging: &mut Vec<f32>| {
            let j0 = t * NC;
            build_btile_into(b, b_side, k, j0, j0 + tile.len() / k, tile, staging);
        };
        if parts > 1 {
            pool::for_each_owned(tiles, |t, tile| build(t, tile, &mut Vec::new()));
        } else {
            let mut staging = Vec::new();
            for (t, tile) in tiles.into_iter().enumerate() {
                build(t, tile, &mut staging);
            }
        }
        if snip_obs::enabled() {
            snip_obs::counter_add("gemm.bcache.builds", 1);
        }
        Some(cache)
    } else {
        None
    };
    let btiles = bcache.as_ref().map(|cache| cache.as_slice());
    let cdata = c.as_mut_slice();
    for_each_row_chunk(m, parts, cdata, n, |start, end, chunk| {
        sweep_rows(a, a_side, b, b_side, n, k, round, btiles, start, end, chunk);
    });
    c
}

/// `C = A · B` (`A`: `M×K`, `B`: `K×N`). Inner dims must already be
/// validated by the public wrappers.
pub(crate) fn gemm_nn(a: &QOperandRef<'_>, b: &QOperandRef<'_>, round: Round) -> Tensor {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    debug_assert_eq!(k, kb);
    gemm_blocked(a, ASide::RowMajor, b, BSide::RowMajor, round, m, n, k)
}

/// `C = A · Bᵀ` (`A`: `M×K`, `B`: `N×K`).
pub(crate) fn gemm_nt(a: &QOperandRef<'_>, b: &QOperandRef<'_>, round: Round) -> Tensor {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    debug_assert_eq!(k, kb);
    gemm_blocked(a, ASide::RowMajor, b, BSide::Transposed, round, m, n, k)
}

/// `C = Aᵀ · B` (`A`: `K×M`, `B`: `K×N`).
pub(crate) fn gemm_tn(a: &QOperandRef<'_>, b: &QOperandRef<'_>, round: Round) -> Tensor {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    debug_assert_eq!(k, kb);
    gemm_blocked(a, ASide::Transposed, b, BSide::RowMajor, round, m, n, k)
}
