//! The cache-blocked GEMM engine behind both the dense and the packed
//! kernels.
//!
//! # One path, and every GEMM stores its output
//!
//! One implementation serves all three [`Orientation`]s, both [`Round`]ings
//! and every operand combination, behind two entry points: [`gemm_into`]
//! writes a product into a caller's tensor (a linear layer writes its
//! weight gradient this way), and [`gemm`] returns it (a linear layer's
//! forward and input-gradient GEMMs). [`gemm`] takes its output from
//! [`arena::take`]; the six plain kernels — `matmul`, `matmul_nt`,
//! `matmul_tn` ([`crate::matmul`]) and `qgemm{,_nt,_tn}`
//! ([`crate::packed`]) — are [`gemm`] at one orientation with
//! [`Round::Keep`], and both entry points run the same driver,
//! [`write_product`]. No output is zero-filled first: the tile kernel
//! *stores* `C = A·B`, every accumulator starting at +0 ([`tile_kernel`]),
//! and nothing reads an output element before its tile is written.
//! Starting at +0 gives the bits of adding the product into a zero-filled
//! `C`, because the engine calls the tile kernel once per output tile with
//! the whole `k` extent. [`gemm_into`]'s store also adds +0
//! ([`STORE_PLUS_ZERO`]), so that writing a gradient is bit for bit the
//! `0 + dW` that accumulating it into a zeroed one was.
//!
//! # Operands
//!
//! Operands are [`QOperandRef`]s, of two classes. An operand stored as f32
//! — dense, or dense storage read through BF16 rounding — is *read in
//! place* ([`in_place`]): the builders below move its rows straight into
//! blocks and tiles through the kernel table's band moves, which round a
//! BF16-rounded operand in registers with the tile store's own rounding.
//! A packed operand is *decoded* row segment by row segment through
//! [`QOperandRef::decode_row_range_into`] (packed FP4 rows decode two
//! elements per byte load through the codebook's pair table,
//! [`crate::QTensor::pair_table`]). Either way a builder only changes
//! *where* a value comes from, so the 0-ULP identity of a GEMM over a
//! rounded or decoded operand with the dense GEMM over its rounded or
//! decoded values holds by construction.
//!
//! # Blocking and the pool
//!
//! Every orientation reduces to the same tile kernel: an `mb×k` row-major
//! A block times a `k×nb` k-major B tile, stored into an `mb×nb` output
//! tile ([`MC`]`×`[`NC`] at most) as rank-1 updates — the vectorizable form
//! (the old dot-product `nt` kernel was a serial FMA latency chain;
//! rewriting it as rank-1 updates over a transposed B tile is the single
//! largest win in this engine). The `k` loop is register-blocked, one
//! fused multiply-add per term.
//!
//! - **The B side** of every GEMM is materialized **once** into the
//!   calling thread's tile cache ([`BCACHE`], [`build_bcache`]), and every
//!   sweep of every row chunk reads its tiles from there: tiles are
//!   j-aligned, so one build serves all of them, and B's decode or
//!   transpose is one pass over B whatever `m` or the chunk count. A split
//!   GEMM builds on the pool, one task per band of source rows, an unsplit
//!   one on the calling thread. A row-major B ([`BSide::RowMajor`]: the
//!   weight of every `dX` GEMM, the activation of every weight gradient)
//!   bands its `k` rows, each band written straight into every tile
//!   ([`decode_row_band`]); a transposed B ([`BSide::Transposed`]: the
//!   weight of every forward) bands its `n` rows by whole tiles, each band
//!   transposed tile by tile. A B beyond [`B_CACHE_LIMIT`] elements is
//!   built and swept in column panels of whole tiles, each within the
//!   bound, so the cache stays bounded through the same path.
//! - **The A side** is borrowed in place when dense and row-major, and
//!   otherwise rounded, decoded or transposed **once per block sweep** into
//!   per-thread scratch ([`build_ablock`]; the old `qgemm_nt` panel loop
//!   re-decoded every packed A row ⌈n/32⌉ times).
//! - **The output** is split into contiguous row chunks over the
//!   persistent worker pool ([`crate::pool`]) above [`PARALLEL_THRESHOLD`]
//!   multiply–accumulates; each chunk owns its rows. [`pool::with_threads`]
//!   forces a split for tests and benches.
//! - **Scratch** — A blocks, transpose staging ([`SCRATCH`]) and the B-tile
//!   cache ([`BCACHE`]) — is plain per-thread `Vec<f32>` that only grows and
//!   is kept across GEMMs, every slice of it a [`window`] starting on a
//!   64-byte line. The alignment is a speed contract only (the kernels
//!   load unaligned), pinned by its unit test.
//!
//! The two transposed operand sides — B of `nt` ([`BSide::Transposed`]:
//! every forward, the attention scores) and A of `tn` ([`ASide::Transposed`]:
//! every weight gradient) — share one blocked transpose,
//! [`transpose_into`]: source rows in bands of [`TB`] (borrowed when read
//! in place, decoded once into staging when packed), each band moved by
//! the kernel table's `transpose` — `TB` rows of `LANES` columns loaded,
//! rounded if the operand is BF16-rounded, and shuffled in registers on a
//! vector tier; `TB×TB` blocks through fixed-size row references, in safe
//! code, on the scalar one. A transpose only moves (and rounds) values,
//! so every orientation hands the tile kernel the same values in the same
//! `k` order as `nn` over the transposed operand, and
//! `matmul_nt(a, b) == matmul(a, bᵀ)` holds bit for bit;
//! `tests/pool_determinism.rs` checks that independently of the transpose.
//!
//! # Kernels and tiers
//!
//! The tile kernel and the band moves have two bodies behind one dispatch
//! table: the portable scalar kernels in [`scalar`] (always compiled,
//! always the reference; the tile kernel's `fma` build whenever the CPU
//! has `fma`) and one vector body each, written once in `simd_ops` over a
//! per-ISA vector-op table and instantiated for AVX2 (`simd_x86`), AVX-512
//! (`simd_x86_512`) and NEON (`simd_neon`) when the `simd` cargo feature
//! is on. [`simd::active_kernels`] resolves the table row — tile update,
//! band transpose and copy, decodes, abs-max and encode kernels as plain
//! function pointers — for the tier runtime detection, `SNIP_SIMD` and
//! [`simd::with_forced_backend`] select; it is the only place a vector
//! kernel is reached from. `SNIP_SIMD` caps dispatch (`0` / `off` /
//! `scalar`, `avx2`, `neon`, `avx512`), and a forced tier propagates to the
//! pool workers serving the region. The lane rules, and how to add a
//! backend, are in the `simd_ops` docs.
//!
//! # The accumulation-order constraint
//!
//! Every output element is accumulated **serially over `k`, ascending, in a
//! single f32 accumulator**, with **one fused multiply-add per k-step**
//! (`acc = a0·b0 + acc`, rounded once; then `acc = a1·b1 + acc`; …) —
//! never as an `a0·b0 + a1·b1` tree. This is the accumulate the paper's
//! tensor-core GEMMs perform. Blocking over output tiles only reorders
//! *which elements* are computed when, never the order of the steps within
//! one element, so any M×N tiling is bit-exact with any other (and with the
//! serial kernel) at every thread count. Splitting `k` across tasks or
//! summing it through trees/SIMD horizontal adds would break both the
//! packed-vs-dense identity and cross-split determinism
//! (`tests/pool_determinism.rs` pins every kernel at splits 1 / 2 / max /
//! max+3). The kernels never skip `a == 0` terms: the skip defeated
//! vectorization and dropped `0 × NaN/Inf` propagation.
//!
//! The SIMD kernels obey the same rule by vectorizing **across output
//! elements only**: each lane owns one output column's accumulator and the
//! `k` loop stays serial inside every lane, one vector fused multiply-add
//! per term. IEEE fusedMultiplyAdd has exactly one correctly rounded
//! result, so lane `j` of the vector computes bit for bit what the scalar
//! kernel's `f32::mul_add` computes for element `(i, j0 + j)`, and
//! SIMD-vs-scalar equality is 0 ULP lane-by-lane (property-tested in
//! `tests/simd_scalar.rs`). What matters for agreement is that every tier
//! fuses — a tier that rounded the product separately would diverge by an
//! ULP. The accepted cost: an x86-64 CPU without `fma` runs every tier
//! scalar, and the scalar body there pays a libm `fmaf` call per element.
//!
//! # Measured
//!
//! `BENCH_gemm.json` at the repository root (written by `bench_gemm`) holds
//! the numbers: per backend tier, the `gemm` table times all six
//! orientations at the three linear-layer shapes, `decode` and `pack` the
//! codecs, `probe` SNIP's measurement against a plain step, and `init` the
//! Gaussian init (the kernel table's `gaussian` row, [`crate::math`]). Its
//! `--check` holds every `nt` row to `MAX_NT_OVER_NN` times its `nn` row.

use crate::arena;
use crate::packed::QOperandRef;
use crate::pool;
use crate::Tensor;
use std::cell::{Cell, RefCell};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod crc_x86;
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

/// GEMMs of fewer multiply–accumulates than this run on the calling thread;
/// larger ones split their output rows over the pool (the elementwise ops
/// have their own floor, [`crate::PARALLEL_ELEMENTS`]). Dispatch on the
/// persistent pool costs a queue push plus a condvar wake (single-digit
/// microseconds), so a split pays once the serial kernel takes a few
/// hundred microseconds. The benchmark fixture (`benchmark/`, 256 tokens
/// per step) sits far from the line on both sides:
/// - per-head attention GEMMs are 64×64×64 = 262 144 MACs and run serially;
/// - every linear-layer GEMM splits: 256×768×768 ≈ 151 M MACs (attention
///   projections), 256×2048×768 ≈ 403 M (FFN) and 256×768×512 ≈ 101 M
///   (LM head).
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Output rows per block (bounds A-side scratch to `MC × k` floats).
const MC: usize = 64;
/// Output columns per tile: a B tile is `NC × k` floats, and a 64×64 f32
/// output tile (16 KiB) stays L1-resident.
const NC: usize = 64;

/// Which operands a GEMM reads transposed: the three products of a linear
/// layer (paper Fig. 5; [`crate::matmul`] names them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// `C = A · B` (`A`: `M×K`, `B`: `K×N`): the input gradient `dX = dY · W`.
    Nn,
    /// `C = A · Bᵀ` (`A`: `M×K`, `B`: `N×K`): the forward `Y = X · Wᵀ`.
    Nt,
    /// `C = Aᵀ · B` (`A`: `K×M`, `B`: `K×N`): the weight gradient
    /// `dW = dYᵀ · X`.
    Tn,
}

/// What happens to each output element at tile-store time.
///
/// `Bf16` folds the round-to-nearest-even BF16 rounding of
/// [`crate::bf16::round`] into the final store of the tile kernel instead
/// of a second pass over the output. Each element is rounded exactly once,
/// after its full `k` accumulation (the engine calls the tile kernel once
/// per output tile with the whole `k` extent), so the fused store is
/// bit-identical to `Round::Keep` followed by
/// [`crate::bf16::round_slice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round {
    /// Store the raw f32 accumulators.
    Keep,
    /// Round every stored element to BF16 (kept in f32 storage).
    Bf16,
}

/// What the tile store does to each finished accumulator: a set of the
/// `STORE_*` flags, and a const generic of the vector tile bodies.
pub(crate) type Store = u8;
/// Round to BF16 ([`Round::Bf16`]).
pub(crate) const STORE_BF16: Store = 1;
/// Add +0, after any rounding: −0 becomes +0, every other value (NaN
/// included) stays as it is. [`gemm_into`] stores this way, so that
/// writing a product equals adding it into a zeroed tensor — the kernels
/// start their accumulators at +0, but a negative sum too small for f32
/// (or a BF16-rounded one) still comes out as −0.
pub(crate) const STORE_PLUS_ZERO: Store = 2;

/// `v` finished as `store` says: the scalar form of the vector stores.
#[inline(always)]
pub(crate) fn finish(store: Store, v: f32) -> f32 {
    let v = if store & STORE_BF16 != 0 {
        crate::bf16::round(v)
    } else {
        v
    };
    if store & STORE_PLUS_ZERO != 0 {
        v + 0.0
    } else {
        v
    }
}

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// The `len`-float window of `buf` that starts on the buffer's first
/// 64-byte cache line: every scratch slice of the engine — A blocks, the
/// B-tile cache, transpose staging — comes from here.
///
/// Why aligned: the tile kernels stream k-major B-tile rows with
/// full-width vector loads, and a load that straddles two cache lines costs
/// two line accesses. Tiles start at multiples of 64 floats into the
/// window, so an aligned window keeps every tile row on its own lines; an
/// unaligned `Vec<f32>` made every AVX2 and AVX-512 `bench_gemm` `gemm`
/// row slower (CHANGES.md has the measured factors). The kernels use
/// unaligned loads, so alignment changes speed, never bits: an offset
/// `align_offset` cannot compute falls back to 0.
///
/// A buffer too short for the window is replaced by exactly `len + LINE −
/// 1` zeros (no round-up: a 6 MiB B-tile cache stays 6 MiB); a longer one
/// is reused, and the window keeps whatever the last user left there —
/// callers overwrite every element. The buffer never shrinks.
fn window(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len + LINE - 1 {
        // Nothing in a too-short buffer is worth copying: free it before
        // taking the replacement, so the two never coexist.
        *buf = Vec::new();
        *buf = vec![0.0; len + LINE - 1];
    }
    let off = match buf.as_ptr().align_offset(LINE * std::mem::size_of::<f32>()) {
        off if off < LINE => off,
        _ => 0,
    };
    &mut buf[off..off + len]
}

/// One thread's sweep scratch, every slice of it a [`window`]. Named
/// fields: the buffers share a type, so a positional tuple could swap them
/// silently.
struct Scratch {
    /// The A block of the current sweep, when it is decoded or transposed.
    ablock: Vec<f32>,
    /// One band of `TB` decoded packed rows for [`transpose_into`].
    staging: Vec<f32>,
}

thread_local! {
    /// Per-thread scratch, reused across GEMM calls for the lifetime of the
    /// pool worker (or calling thread).
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch { ablock: Vec::new(), staging: Vec::new() })
    };

    /// The calling thread's B-tile cache ([`gemm_blocked`]): per-thread
    /// scratch like [`SCRATCH`], it only grows and is kept after every
    /// GEMM. A GEMM takes it out for its duration and puts it back, so a
    /// nested call on the same thread builds its own instead of aliasing
    /// it.
    static BCACHE: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The shared tile kernel: `C[row0.., j0..] = Ablock · Btile` where
/// `ablock` is `mb×k` row-major, `btile` is `k×nb` k-major, and `chunk`
/// holds the caller's output rows (`row0` = first tile row's index within
/// the chunk, `n` = full output row stride). Every accumulator starts at
/// +0 and takes one fused multiply-add per term, `k` ascending — see the
/// module docs. The tile's previous contents are never read: the kernel
/// *stores* its output, it does not add into it.
///
/// Calls through the active row of the kernel table
/// ([`simd::active_kernels`]): a vector row folds the `store` flags into
/// the tile store, the scalar row applies them in a second pass over the
/// tile.
#[allow(clippy::too_many_arguments)]
fn tile_kernel(
    store: Store,
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
    (simd::active_kernels().tile)(store, chunk, n, row0, j0, mb, nb, k, ablock, btile);
}

/// Source rows per band of a band move, and the edge of one square
/// transpose block: a block is read as `TB` row segments and written as
/// contiguous `TB`-float runs ([`transpose_into`]).
const TB: usize = 8;

/// The storage of an operand read in place, its row stride, and whether
/// its values are rounded to BF16 on the way into a block or tile:
/// `Dense` as it is, `Bf16Rounded` rounded — in registers, by the band
/// kernels. `None` for a packed operand, whose rows are decoded instead.
fn in_place<'a>(op: &QOperandRef<'a>) -> Option<(&'a [f32], usize, bool)> {
    match *op {
        QOperandRef::Dense(t) => Some((t.as_slice(), t.cols(), false)),
        QOperandRef::Bf16Rounded(t) => Some((t.as_slice(), t.cols(), true)),
        QOperandRef::Packed(_) => None,
    }
}

/// Writes the transpose of the window rows `[r0, r1)` × columns `[c0, c1)`
/// of `src` into `dst`, which is `(c1 − c0) × (r1 − r0)` row-major:
/// `dst[c * (r1 − r0) + r] = src[r0 + r][c0 + c]`. The one transpose of the
/// engine, behind both transposed sides ([`BSide::Transposed`],
/// [`ASide::Transposed`]).
///
/// Source rows are walked in bands of [`TB`]: a dense or BF16-rounded band
/// is the borrowed rows themselves, a packed band is decoded into
/// `staging` (`TB × (c1 − c0)` floats), each row once. Each band goes
/// through the kernel table's `transpose` — `TB×TB` blocks in registers on
/// a vector tier, the fixed-size row segments of `scalar::transpose` on
/// the scalar one — which rounds a BF16-rounded band on the way. It only
/// moves (and rounds) values, so the result cannot depend on the band or
/// block size.
fn transpose_into(
    src: &QOperandRef<'_>,
    (r0, r1): (usize, usize),
    (c0, c1): (usize, usize),
    dst: &mut [f32],
    staging: &mut Vec<f32>,
) {
    let (rows, w) = (r1 - r0, c1 - c0);
    debug_assert_eq!(dst.len(), rows * w);
    if rows == 0 || w == 0 {
        return;
    }
    let transpose = simd::active_kernels().transpose;
    let mut rb = r0;
    while rb < r1 {
        let re = (rb + TB).min(r1);
        // The band as `re − rb` rows of stride `ld`, each `w` wide.
        let (band, ld, round): (&[f32], usize, bool) = match in_place(src) {
            Some((data, ld, round)) => (&data[rb * ld + c0..(re - 1) * ld + c1], ld, round),
            None => {
                let buf = window(staging, (re - rb) * w);
                for (r, row) in buf.chunks_exact_mut(w).enumerate() {
                    src.decode_row_range_into(rb + r, c0, c1, row);
                }
                (&*buf, w, false)
            }
        };
        transpose(round, band, ld, re - rb, w, &mut dst[rb - r0..], rows);
        rb = re;
    }
}

/// How the B operand's elements map onto the k-major `k×nb` tile.
#[derive(Clone, Copy)]
enum BSide {
    /// B is `K×N`: tile row `kk` is the column segment `[j0, j1)` of B row
    /// `kk` (`nn`/`tn` orientations).
    RowMajor,
    /// B is `N×K` (`nt` orientation): tile row `kk` gathers element `kk`
    /// of B rows `[j0, j1)` — the band transpose ([`transpose_into`]) of
    /// B rows `[j0, j1)`, each B row read (or decoded) once per tile.
    Transposed,
}

/// Most elements of B one tile-cache build holds (64 MiB of tiles). A
/// larger B is built and swept in column panels of whole [`NC`] tiles, each
/// within this bound (one tile at least) — [`gemm_blocked`].
const B_CACHE_LIMIT: usize = 1 << 24;

/// Writes rows `[r0, r1)` of a row-major B into their row band of each
/// k-major tile across the columns `[j0, j1)`: `bands[t]` is rows `[r0,
/// r1)` of the tile at columns `[j0 + t·NC, min(j0 + (t+1)·NC, j1))`, so
/// `(r1 − r0) × nb` floats. The source streams left to right: a packed
/// row is decoded segment by segment straight into its tiles
/// ([`QOperandRef::decode_row_range_into`]); an operand read in place
/// moves [`TB`] rows at a time through the kernel table's `copy`, one
/// `TB × nb` block per tile, rounded in registers when BF16-rounded.
/// Reading a tile's `k` rows as `k` strided segments is the same work in
/// the other loop order, and it is slower: the row order streams the
/// source.
fn decode_row_band(
    b: &QOperandRef<'_>,
    (r0, r1): (usize, usize),
    (j0, j1): (usize, usize),
    bands: &mut [&mut [f32]],
) {
    let segment = |t: usize| {
        let c0 = j0 + t * NC;
        (c0, (c0 + NC).min(j1))
    };
    let Some((data, ld, round)) = in_place(b) else {
        for r in 0..r1 - r0 {
            for (t, band) in bands.iter_mut().enumerate() {
                let (c0, c1) = segment(t);
                let nb = c1 - c0;
                b.decode_row_range_into(r0 + r, c0, c1, &mut band[r * nb..(r + 1) * nb]);
            }
        }
        return;
    };
    let copy = simd::active_kernels().copy;
    let mut rb = r0;
    while rb < r1 {
        let re = (rb + TB).min(r1);
        for (t, band) in bands.iter_mut().enumerate() {
            let (c0, c1) = segment(t);
            let nb = c1 - c0;
            let src = &data[rb * ld + c0..(re - 1) * ld + c1];
            copy(
                round,
                src,
                ld,
                re - rb,
                nb,
                &mut band[(rb - r0) * nb..(re - r0) * nb],
                nb,
            );
        }
        rb = re;
    }
}

/// Builds the B-tile cache of columns `[p0, p1)` of a `k×n` (row-major) or
/// `n×k` (transposed) B into `tiles`: the tiles back to back, the one
/// starting at column `j0` occupying `tiles[(j0 − p0) * k..(j1 − p0) * k]`.
/// The build writes every element, so a reused cache is not cleared first.
/// Either side splits by bands of source rows, `parts` bands at most, one
/// pool task each (a single band runs on the calling thread):
/// - a row-major B's band is `k / parts` of its rows, and each task
///   writes its row band of *every* tile ([`decode_row_band`]) through
///   owned slices;
/// - a transposed B's source rows are the tiles' columns, so its band is
///   a run of whole tiles, one contiguous slice of the cache; each task
///   transposes its tiles in turn, staging a packed B through the
///   `SCRATCH` of whichever thread runs it. No `SCRATCH` borrow is held
///   across the dispatch, since the calling thread runs tasks too.
fn build_bcache(
    b: &QOperandRef<'_>,
    side: BSide,
    k: usize,
    (p0, p1): (usize, usize),
    parts: usize,
    tiles: &mut [f32],
) {
    debug_assert_eq!(tiles.len(), k * (p1 - p0));
    // `k = 0` or no columns: nothing to build (and `chunks_mut(0)` panics).
    if tiles.is_empty() {
        return;
    }
    match side {
        BSide::RowMajor => {
            let rows = k.div_ceil(parts);
            // `bands[i][t]`: source rows `[i·rows, …)` of tile `t`.
            let mut bands: Vec<Vec<&mut [f32]>> =
                (0..k.div_ceil(rows)).map(|_| Vec::new()).collect();
            for tile in tiles.chunks_mut(NC * k) {
                let nb = tile.len() / k;
                for (band, seg) in bands.iter_mut().zip(tile.chunks_mut(rows * nb)) {
                    band.push(seg);
                }
            }
            pool::for_each_owned(bands, |i, mut band| {
                let r0 = i * rows;
                decode_row_band(b, (r0, (r0 + rows).min(k)), (p0, p1), &mut band);
            });
        }
        BSide::Transposed => {
            let per = (p1 - p0).div_ceil(NC).div_ceil(parts) * NC;
            let bands: Vec<&mut [f32]> = tiles.chunks_mut(per * k).collect();
            pool::for_each_owned(bands, |i, band| {
                SCRATCH.with_borrow_mut(|s| {
                    for (t, tile) in band.chunks_mut(NC * k).enumerate() {
                        let j0 = p0 + i * per + t * NC;
                        transpose_into(b, (j0, j0 + tile.len() / k), (0, k), tile, &mut s.staging);
                    }
                });
            });
        }
    }
}

/// How the A operand's elements map onto the row-major `mb×k` A block.
#[derive(Clone, Copy)]
enum ASide {
    /// A is `M×K`: block rows are operand rows `[i0, i1)` (`nn`/`nt`).
    RowMajor,
    /// A is `K×M` (`tn` orientation): block row `i` gathers column `i0 + i`
    /// across all `k` operand rows — the band transpose
    /// ([`transpose_into`]) of columns `[i0, i1)` of all `k` operand rows.
    Transposed,
}

/// Materializes the `mb×k` row-major A block for output rows `[i0, i1)` —
/// a direct borrow for dense row-major operands (their rows are already
/// contiguous), one decode, rounding copy or transpose per block sweep
/// otherwise: this is what bounds row decoding to one decode per sweep. A
/// BF16-rounded row-major block is one span of `mb × k` floats in the
/// source, rounded through the kernel table's `copy` in one call.
fn build_ablock<'s>(
    a: &'s QOperandRef<'s>,
    side: ASide,
    k: usize,
    i0: usize,
    i1: usize,
    scratch: &'s mut Vec<f32>,
    staging: &mut Vec<f32>,
) -> &'s [f32] {
    match (side, a) {
        (ASide::RowMajor, QOperandRef::Dense(t)) => &t.as_slice()[i0 * k..i1 * k],
        (ASide::RowMajor, _) => {
            let block = window(scratch, (i1 - i0) * k);
            if let Some((data, _, round)) = in_place(a) {
                let span = &data[i0 * k..i1 * k];
                (simd::active_kernels().copy)(round, span, 0, 1, span.len(), block, 0);
                return block;
            }
            // Indexed, not `chunks_exact_mut(k)`: `k` may be 0.
            for r in 0..i1 - i0 {
                a.decode_row_range_into(i0 + r, 0, k, &mut block[r * k..(r + 1) * k]);
            }
            block
        }
        (ASide::Transposed, _) => {
            let block = window(scratch, (i1 - i0) * k);
            transpose_into(a, (0, k), (i0, i1), block, staging);
            block
        }
    }
}

/// One chunk's block sweep over one column panel: `MC×NC` output tiles
/// over rows `[start, end)` and columns `[p0, p1)` of the `n`-column
/// output, the A block materialized once per sweep, every B tile read from
/// `tiles`, the panel's cache ([`build_bcache`]). `chunk` holds exactly
/// rows `[start, end)`. Every pool split runs this one body over its rows
/// — that is what makes the result the same at every thread count.
#[allow(clippy::too_many_arguments)]
fn sweep_rows(
    a: &QOperandRef<'_>,
    a_side: ASide,
    (n, k): (usize, usize),
    (p0, p1): (usize, usize),
    store: Store,
    tiles: &[f32],
    (start, end): (usize, usize),
    chunk: &mut [f32],
) {
    SCRATCH.with_borrow_mut(|s| {
        let mut i0 = start;
        while i0 < end {
            let i1 = (i0 + MC).min(end);
            let ablock = build_ablock(a, a_side, k, i0, i1, &mut s.ablock, &mut s.staging);
            let mut j0 = p0;
            while j0 < p1 {
                let j1 = (j0 + NC).min(p1);
                let btile = &tiles[(j0 - p0) * k..(j1 - p0) * k];
                tile_kernel(
                    store,
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

/// Splits `rows` into `parts` contiguous chunks and runs `f(start, end,
/// chunk)` for each chunk — on the persistent worker pool when `parts > 1`.
/// Each chunk owns the disjoint output slice for its rows, so which worker
/// runs it cannot affect the result.
///
/// # Panics
///
/// Panics if `out.len() != rows * cols`.
fn for_each_row_chunk(
    rows: usize,
    parts: usize,
    out: &mut [f32],
    cols: usize,
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    assert_eq!(out.len(), rows * cols, "output buffer shape mismatch");
    // One band — or a zero-width output, which has no bands to cut
    // (`chunks_mut(0)` panics).
    if parts <= 1 || rows <= 1 || cols == 0 {
        f(0, rows, out);
        return;
    }
    let chunk_rows = rows.div_ceil(parts);
    let bands: Vec<&mut [f32]> = out.chunks_mut(chunk_rows * cols).collect();
    pool::for_each_owned(bands, |ci, chunk| {
        let start = ci * chunk_rows;
        f(start, start + chunk.len() / cols, chunk);
    });
}

/// `(m, n, k)` of an `orientation` product of `a` and `b`.
///
/// # Panics
///
/// Panics, naming the kernel `what`, if the operands' shared dimension
/// differs.
fn dims(
    what: &str,
    orientation: Orientation,
    a: &QOperandRef<'_>,
    b: &QOperandRef<'_>,
) -> (usize, usize, usize) {
    let ((ar, ac), (br, bc)) = (a.shape(), b.shape());
    match orientation {
        Orientation::Nn => {
            assert_eq!(ac, br, "{what}: inner dims differ ({ac} vs {br})");
            (ar, bc, ac)
        }
        Orientation::Nt => {
            assert_eq!(ac, bc, "{what}: inner dims differ ({ac} vs {bc})");
            (ar, br, ac)
        }
        Orientation::Tn => {
            assert_eq!(ar, br, "{what}: outer dims differ ({ar} vs {br})");
            (ac, bc, ar)
        }
    }
}

/// Writes the `orientation` product of `a` and `b` into `c`, rounded as
/// `round` says: the engine's entry point for a caller's tensor. Every
/// element of `c` is overwritten and none is read, so `c` may hold
/// anything — last step's gradient, say.
///
/// The bits are `0 + C` for the `C` that [`gemm`] computes at the same
/// orientation and rounding: exactly what adding the product into a
/// zeroed `c` gave. The store adds +0, which changes nothing but the −0 of
/// a negative sum too small to represent.
///
/// # Panics
///
/// Panics if the operands' shared dimension differs or `c` is not `m × n`.
pub fn gemm_into(
    c: &mut Tensor,
    a: QOperandRef<'_>,
    b: QOperandRef<'_>,
    orientation: Orientation,
    round: Round,
) {
    let store = store_of(round) | STORE_PLUS_ZERO;
    write_product("gemm_into", c, &a, &b, orientation, store);
}

fn store_of(round: Round) -> Store {
    match round {
        Round::Keep => 0,
        Round::Bf16 => STORE_BF16,
    }
}

/// The `orientation` product of `a` and `b` as a new tensor, rounded as
/// `round` says: the engine's returning entry point. The storage comes
/// from [`arena::take`] with no zero fill; every element is stored.
///
/// Bit-for-bit identical to the same product over the operands' decoded
/// values (`Dense` of a dequantized or rounded copy) — not by analogy but
/// by construction: every operand class runs the one blocked driver, which
/// visits `k` in ascending order per output element. [`Round::Bf16`] is
/// bit-identical to [`Round::Keep`] followed by
/// [`crate::bf16::round_slice`], without the second pass.
///
/// # Panics
///
/// Panics if the operands' shared dimension differs.
pub fn gemm(
    a: QOperandRef<'_>,
    b: QOperandRef<'_>,
    orientation: Orientation,
    round: Round,
) -> Tensor {
    let (m, n, _) = dims("gemm", orientation, &a, &b);
    let mut c = Tensor::from_vec(m, n, arena::take(m * n));
    write_product("gemm", &mut c, &a, &b, orientation, store_of(round));
    c
}

/// The one GEMM path: shape checks naming the kernel `what`, then the
/// telemetry wrapper around [`gemm_blocked`], which stores as `store`
/// says.
fn write_product(
    what: &str,
    c: &mut Tensor,
    a: &QOperandRef<'_>,
    b: &QOperandRef<'_>,
    orientation: Orientation,
    store: Store,
) {
    let (m, n, k) = dims(what, orientation, a, b);
    assert_eq!(
        c.shape(),
        (m, n),
        "{what}: output shape differs from the {m}×{n} product"
    );
    let (a_side, b_side) = sides(orientation);
    let out = c.as_mut_slice();
    // Telemetry wrapper: one relaxed load when collection is off; when on,
    // count the call against the active backend and accumulate wall time
    // on the dispatching thread (`gemm.ns` backs `StepOutput::gemm_ns`).
    if !snip_obs::enabled() {
        return gemm_blocked(a, a_side, b, b_side, store, (m, n, k), out, B_CACHE_LIMIT);
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
    gemm_blocked(a, a_side, b, b_side, store, (m, n, k), out, B_CACHE_LIMIT);
    snip_obs::counter_add("gemm.ns", snip_obs::trace::now_ns().saturating_sub(t0));
}

/// How an `orientation` product reads its A and B operands.
fn sides(orientation: Orientation) -> (ASide, BSide) {
    match orientation {
        Orientation::Nn => (ASide::RowMajor, BSide::RowMajor),
        Orientation::Nt => (ASide::RowMajor, BSide::Transposed),
        Orientation::Tn => (ASide::Transposed, BSide::RowMajor),
    }
}

/// The blocked driver shared by all three orientations. B is built once
/// into the calling thread's tile cache ([`BCACHE`], [`build_bcache`]):
/// tiles are j-aligned, so one build serves every row chunk, and B's decode
/// or transpose is a single pass over B whatever `m` or the chunk count.
/// Then the output `c` (`m × n`, contents ignored) is row-chunked across the
/// pool, each chunk sweeping `MC×NC` output tiles with its A block
/// materialized once per sweep. A B of more than `limit` elements
/// ([`B_CACHE_LIMIT`] from [`write_product`]) is built and swept in column
/// panels of whole `NC` tiles, each at most `limit` elements (one tile at
/// least); a panel computes each of its output elements exactly as the
/// whole product does, so the bits cannot depend on `limit`.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &QOperandRef<'_>,
    a_side: ASide,
    b: &QOperandRef<'_>,
    b_side: BSide,
    store: Store,
    (m, n, k): (usize, usize, usize),
    c: &mut [f32],
    limit: usize,
) {
    if m == 0 {
        return;
    }
    let parts = pool::parts_for(m * n * k, PARALLEL_THRESHOLD);
    let panel = (limit / (k.max(1) * NC)).max(1) * NC;
    let obs = snip_obs::enabled();
    let mut cache = BCACHE.take();
    let used = window(&mut cache, k * panel.min(n));
    for p0 in (0..n).step_by(panel) {
        let p1 = (p0 + panel).min(n);
        let tiles = &mut used[..k * (p1 - p0)];
        let t0 = if obs { snip_obs::trace::now_ns() } else { 0 };
        build_bcache(b, b_side, k, (p0, p1), parts, tiles);
        if obs {
            snip_obs::counter_add("gemm.bcache.builds", 1);
            snip_obs::counter_add(
                "gemm.btile.build_ns",
                snip_obs::trace::now_ns().saturating_sub(t0),
            );
        }
        let tiles = &*tiles;
        for_each_row_chunk(m, parts, c, n, |start, end, chunk| {
            sweep_rows(
                a,
                a_side,
                (n, k),
                (p0, p1),
                store,
                tiles,
                (start, end),
                chunk,
            );
        });
    }
    // Every element this GEMM wrote is poisoned before the next GEMM can
    // read it, like the arena's kept buffers.
    if cfg!(debug_assertions) {
        used.fill(f32::NAN);
    }
    BCACHE.set(cache);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::QTensor;

    /// The tile kernels' speed depends on every scratch window starting on
    /// a cache line, and nothing else fails when that is lost: pin it for
    /// every length from one float to past three lines, across growth and
    /// reuse, together with exact, zeroed growth.
    #[test]
    fn scratch_windows_are_line_aligned_exact_and_reused() {
        let line = LINE * std::mem::size_of::<f32>();
        let mut grown = Vec::new();
        for len in 1..=3 * LINE + 1 {
            let s = window(&mut grown, len);
            assert_eq!(s.len(), len);
            assert_eq!(s.as_ptr() as usize % line, 0, "growth to {len}");
            assert!(s.iter().all(|&x| x == 0.0), "growth to {len} is zeroed");
            assert_eq!(grown.capacity(), len + LINE - 1, "growth to {len} is exact");
            grown.fill(3.5);
        }
        let ptr = grown.as_ptr();
        for len in (1..=3 * LINE + 1).rev() {
            let s = window(&mut grown, len);
            assert_eq!(s.len(), len);
            assert_eq!(s.as_ptr() as usize % line, 0, "reuse at {len}");
            assert!(s.iter().all(|&x| x == 3.5), "reuse at {len} keeps contents");
            assert_eq!(grown.as_ptr(), ptr, "reuse at {len} reallocated");
        }
    }

    /// The row-major cache build splits by bands of source rows, each band
    /// written into every tile. Into a NaN-filled buffer, at band counts
    /// that do not divide `k` (and more bands than rows), it must lay out
    /// exactly the tiles the layout defines — tile `t` holds B rows `0..k`
    /// of columns `[t·NC, …)`, k-major — for a dense and a decoded B; so
    /// must a column panel's build from tile 3 on.
    #[test]
    fn row_band_build_lays_out_every_tile() {
        let (k, n) = (77, 203);
        let b = Tensor::randn(k, n, 1.0, &mut Rng::seed_from(6));
        let mut rounded = b.clone();
        crate::bf16::round_slice(rounded.as_mut_slice());
        for (op, values) in [
            (QOperandRef::Dense(&b), &b),
            (QOperandRef::Bf16Rounded(&b), &rounded),
        ] {
            let mut want = vec![0.0f32; k * n];
            for j0 in (0..n).step_by(NC) {
                let nb = NC.min(n - j0);
                for kk in 0..k {
                    for j in 0..nb {
                        want[j0 * k + kk * nb + j] = values[(kk, j0 + j)];
                    }
                }
            }
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            for parts in [1, 2, 3, 5, 76, 77, 80] {
                let mut cache = vec![f32::NAN; k * n];
                build_bcache(&op, BSide::RowMajor, k, (0, n), parts, &mut cache);
                let got: Vec<u32> = cache.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{parts} bands");
                let j0 = 3 * NC;
                let mut panel = vec![f32::NAN; k * (n - j0)];
                build_bcache(&op, BSide::RowMajor, k, (j0, n), parts, &mut panel);
                let got: Vec<u32> = panel.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want[j0 * k..], "panel, {parts} bands");
            }
        }
    }

    /// A packed `rows × cols` operand with codes drawn at random: 4-bit
    /// codes over a mirrored FP4-style table, or byte codes over an
    /// irregular 256-entry one, five-column scale groups.
    fn random_packed(rows: usize, cols: usize, width: crate::CodeWidth, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from(seed);
        let (lut, codes): (Vec<f32>, u64) = match width {
            crate::CodeWidth::U4 => (
                (0..16)
                    .map(|i| (i % 8) as f32 * 0.5 * if i < 8 { 1.0 } else { -1.0 })
                    .collect(),
                16,
            ),
            crate::CodeWidth::U8 => (
                (0..256)
                    .map(|i| (i as f32 - 128.0) * 0.03125 + (i as f32).sin() * 1e-3)
                    .collect(),
                256,
            ),
        };
        let layout = crate::GroupLayout::Tile { nb: 5 };
        let scales = (0..layout.group_count(rows, cols))
            .map(|_| 0.25 + rng.next_f32())
            .collect();
        let mut q = QTensor::new_zeroed(rows, cols, width, lut, layout, scales);
        for r in 0..rows {
            for c in 0..cols {
                q.set_code(r, c, (rng.next_u64() % codes) as u8);
            }
        }
        q
    }

    /// The transposed cache build splits by bands of whole tiles and moves
    /// each `TB`-row band through the kernel table's transpose. Into a
    /// NaN-filled buffer, with `k` and `n` multiples of neither 8 nor 16
    /// (so every build has short bands, vector blocks and scalar tail
    /// columns), at band counts 1, 2 and more bands than tiles, on every
    /// backend tier, it must lay out exactly the tiles the layout defines
    /// — tile `t` holds B columns `0..k` of B rows `[t·NC, …)`, k-major —
    /// for a dense, a BF16-rounded, a packed FP4 and a packed FP8 B; so
    /// must a column panel's build from tile 3 on.
    #[test]
    fn transposed_band_build_lays_out_every_tile() {
        use crate::CodeWidth::{U4, U8};
        let (n, k) = (203, 45);
        let b = Tensor::randn(n, k, 1.0, &mut Rng::seed_from(7));
        let mut rounded = b.clone();
        crate::bf16::round_slice(rounded.as_mut_slice());
        let (q4, q8) = (random_packed(n, k, U4, 8), random_packed(n, k, U8, 9));
        let (d4, d8) = (q4.dequantize(), q8.dequantize());
        for (what, op, values) in [
            ("dense", QOperandRef::Dense(&b), &b),
            ("bf16-rounded", QOperandRef::Bf16Rounded(&b), &rounded),
            ("fp4", QOperandRef::Packed(&q4), &d4),
            ("fp8", QOperandRef::Packed(&q8), &d8),
        ] {
            let mut want = vec![0.0f32; k * n];
            for j0 in (0..n).step_by(NC) {
                let nb = NC.min(n - j0);
                for kk in 0..k {
                    for j in 0..nb {
                        want[j0 * k + kk * nb + j] = values[(j0 + j, kk)];
                    }
                }
            }
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            for backend in simd::available_backends() {
                simd::with_forced_backend(backend, || {
                    for parts in [1, 2, pool::size() + 3] {
                        let mut cache = vec![f32::NAN; k * n];
                        build_bcache(&op, BSide::Transposed, k, (0, n), parts, &mut cache);
                        let got: Vec<u32> = cache.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(got, want, "{what}, {parts} bands ({backend:?})");
                        let j0 = 3 * NC;
                        let mut panel = vec![f32::NAN; k * (n - j0)];
                        build_bcache(&op, BSide::Transposed, k, (j0, n), parts, &mut panel);
                        let got: Vec<u32> = panel.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(
                            got,
                            want[j0 * k..],
                            "{what}, panel, {parts} bands ({backend:?})"
                        );
                    }
                });
            }
        }
    }

    /// A B-tile cache kept from an earlier GEMM is refilled without being
    /// cleared. Each case starts from its own NaN-filled cache, so any
    /// element the build failed to write would reach the output; its bits
    /// must equal those of the same case on a fresh, empty cache on forced
    /// scalar, at every split, on every tier, in every orientation, for
    /// products of many sweeps and of one (`m ≤ MC`), for a B built whole
    /// and in column panels (the driver's bound crossed at two tiles per
    /// panel). The test thread never opens an arena scope: the cache is
    /// kept after every GEMM all the same, and the next GEMM reuses it.
    #[test]
    fn a_reused_nan_filled_bcache_gives_fresh_bits() {
        // Ragged against MC, NC and TB on every side; `m1 ≤ MC` rows.
        let (m, m1, k, n) = (131, 41, 77, 203);
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let at = Tensor::randn(k, m, 1.0, &mut rng);
        let a1 = Tensor::randn(m1, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let bt = Tensor::randn(n, k, 1.0, &mut rng);
        let (dense, rounded) = (QOperandRef::Dense, QOperandRef::Bf16Rounded);
        let cases = [
            (dense(&a), dense(&b), Orientation::Nn, 0),
            (dense(&a), dense(&bt), Orientation::Nt, 0),
            (dense(&at), dense(&b), Orientation::Tn, 0),
            (dense(&a), dense(&b), Orientation::Nn, STORE_BF16),
            // Decoded row-major B: the row bands decode into the cache.
            (dense(&a), rounded(&b), Orientation::Nn, STORE_BF16),
            (dense(&at), rounded(&b), Orientation::Tn, STORE_PLUS_ZERO),
            // One sweep: a single row block.
            (dense(&a1), dense(&b), Orientation::Nn, 0),
            (rounded(&a1), rounded(&bt), Orientation::Nt, STORE_BF16),
        ];
        // One GEMM of case `i` with `cache` as the thread's tile cache on
        // entry: the output bits and the cache the GEMM left behind.
        let gemm = |i: usize, cache: Vec<f32>, limit: usize| {
            let (a, b, orientation, store) = cases[i];
            let (m, n, k) = dims("test", orientation, &a, &b);
            let (a_side, b_side) = sides(orientation);
            let mut c = vec![f32::NAN; m * n];
            BCACHE.set(cache);
            gemm_blocked(&a, a_side, &b, b_side, store, (m, n, k), &mut c, limit);
            let bits = c.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            (bits, BCACHE.take())
        };
        let fresh: Vec<Vec<u32>> = (0..cases.len())
            .map(|i| {
                let (bits, kept) = simd::with_forced_backend(simd::Backend::Scalar, || {
                    pool::with_threads(1, || gemm(i, Vec::new(), B_CACHE_LIMIT))
                });
                assert!(
                    !kept.is_empty(),
                    "case {i}: a GEMM outside a scope keeps its cache"
                );
                bits
            })
            .collect();
        let max = pool::size();
        for backend in simd::available_backends() {
            for split in [1, 2, max, max + 3] {
                for limit in [B_CACHE_LIMIT, 2 * NC * k] {
                    for (i, want) in fresh.iter().enumerate() {
                        let stale = vec![f32::NAN; 2 * k * n];
                        let ptr = stale.as_ptr();
                        let (got, kept) = simd::with_forced_backend(backend, || {
                            pool::with_threads(split, || gemm(i, stale, limit))
                        });
                        let what = format!("case {i}, {backend:?}, split {split}, bound {limit}");
                        assert_eq!(kept.as_ptr(), ptr, "{what}: not kept and reused");
                        // Every element a GEMM wrote is poisoned in debug builds.
                        assert_eq!(
                            kept.iter().all(|x| x.is_nan()),
                            cfg!(debug_assertions),
                            "{what}"
                        );
                        assert!(got == *want, "{what}: bits differ from a fresh cache");
                    }
                }
            }
        }
    }
}
