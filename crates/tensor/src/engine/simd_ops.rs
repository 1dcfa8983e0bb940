//! The per-ISA vector-op table ([`SimdOps`]) and the vector kernels,
//! each written once over it.
//!
//! Each vector backend (`simd_x86`, `simd_x86_512`, `simd_neon`) is an
//! implementation of [`SimdOps`] — loads, stores, a dozen float/integer
//! lane operations, per-lane predicates, the two code-narrowing shuffles —
//! plus the decode routines that are genuinely ISA-shaped. The kernels
//! themselves — the rank-1 tile update with its fused BF16 store
//! ([`tile`]), the abs-max fold ([`abs_max_bits`]) and the code writers
//! ([`encode`]; lane rules in the [`super::simd_encode`] docs) — exist
//! once, here, generic over the table, so the body an Arm machine runs is
//! the body the x86 tiers test.
//!
//! # How one body becomes three tiers
//!
//! A backend's ops are `#[inline(always)]` wrappers around intrinsics
//! (table rows, through [`op_rows!`]), and every generic function between
//! them and the backend's `#[target_feature]` entry points is
//! `#[inline(always)]` too. The entry points are instantiated where the
//! kernel table is built ([`super::simd::active_kernels`]). The whole
//! kernel therefore inlines into the entry point, where the instruction
//! set is enabled and the intrinsics lower to single instructions. A generic function here that is *not*
//! inlined would still be correct, only slow (the intrinsics would become
//! calls) — `bench_gemm`'s per-backend rows are the check.
//!
//! # Why this is bit-identical to the scalar kernel
//!
//! Each vector lane owns exactly one output element. A k-step is a
//! broadcast of `a[kk]`, one multiply and one add — the same two IEEE-754
//! operations, in the same operand order, that the scalar kernel performs
//! for that element. There is **no FMA** (a fused multiply-add skips the
//! intermediate rounding; on aarch64 that rules out `vmlaq_f32` /
//! `vfmaq_f32`) and there are **no horizontal reductions**: the `k` loop
//! stays serial inside every lane, ascending, as the accumulation-order
//! contract in the engine docs requires. Lanes never interact, so a strip
//! is just `LANES` scalar element loops in lock-step. The one thing *not*
//! pinned is which operand's NaN payload survives when both inputs are
//! NaN — LLVM may commute the scalar multiply, so the scalar reference
//! itself leaves that unspecified.

use super::simd_encode::{
    abs_max_bits_scalar, encode_u4_pairs_scalar, encode_u8_scalar, CodeGrid, ABS_MASK, INF_BITS,
    MAGIC, MAGIC_BITS,
};

/// Writes a backend's one-intrinsic ops as table rows:
/// `fn name(args) -> Ret = expr;` becomes the `#[inline(always)] unsafe fn`
/// that [`SimdOps`] declares — so no row can forget the attribute the
/// whole scheme rests on (see the module docs).
macro_rules! op_rows {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:expr;)*) => {$(
        $(#[$attr])*
        #[inline(always)]
        unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
            $body
        }
    )*};
}
pub(super) use op_rows;

/// One ISA's vector operations over `LANES` 32-bit lanes.
///
/// # Safety
///
/// Every method requires the implementing ISA's instruction set to be
/// available on the running CPU; pointer arguments must be valid for
/// `LANES` elements (or the byte count a method names). Implementations
/// mark every method `#[inline(always)]` — see the module docs.
pub(super) trait SimdOps {
    /// `LANES` `f32` values.
    type F: Copy;
    /// `LANES` 32-bit integers (bit patterns; every value the kernels
    /// compare or min/max is non-negative as an `i32`, except the `-1`
    /// [`gt_i`](Self::gt_i) floor).
    type I: Copy;
    /// A per-lane predicate.
    type M: Copy;
    /// Output elements per vector register.
    const LANES: usize;
    /// Widest column strip of the tile kernel, in registers per output
    /// row (4 or 2): the ladder runs `MAX_STRIP`, …, 2, 1, then
    /// [`tile_tail`](Self::tile_tail). 4 rows × `MAX_STRIP` accumulators +
    /// `MAX_STRIP` B loads + 1 broadcast must fit the register file.
    const MAX_STRIP: usize;

    unsafe fn loadu(p: *const f32) -> Self::F;
    unsafe fn storeu(p: *mut f32, v: Self::F);
    unsafe fn splat(x: f32) -> Self::F;
    unsafe fn mul(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn add(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn sub(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn bits(v: Self::F) -> Self::I;
    unsafe fn from_bits(v: Self::I) -> Self::F;
    /// `v as i32` per lane (truncation; inputs are `0 ≤ v ≤ 2^8`).
    unsafe fn trunc(v: Self::F) -> Self::I;
    /// `v as f32` per lane (same input range, so exact).
    unsafe fn to_f32(v: Self::I) -> Self::F;

    unsafe fn splat_i(x: u32) -> Self::I;
    unsafe fn and(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn or(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn add_i(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn sub_i(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn min_i(a: Self::I, b: Self::I) -> Self::I;
    unsafe fn max_i(a: Self::I, b: Self::I) -> Self::I;
    /// Logical right shift of every lane by `n < 32` (the count-in-register
    /// form: it folds to the immediate encoding wherever `n` is a constant
    /// after inlining, and spares the table a const-generic whose type
    /// differs between ISAs).
    unsafe fn shr(v: Self::I, n: u32) -> Self::I;
    /// Left shift of every lane by `n < 32`.
    unsafe fn shl(v: Self::I, n: u32) -> Self::I;
    /// The largest lane, as an unsigned value.
    unsafe fn max_lane(v: Self::I) -> u32;

    /// `a > b` per lane (ordered: false when either is NaN).
    unsafe fn gt_f(a: Self::F, b: Self::F) -> Self::M;
    /// `a > b` per lane, lanes read as `i32`.
    unsafe fn gt_i(a: Self::I, b: Self::I) -> Self::M;
    /// Lanes that are not NaN.
    unsafe fn ordered(v: Self::F) -> Self::M;
    /// `a` where `m` holds, `b` elsewhere.
    unsafe fn select(m: Self::M, a: Self::F, b: Self::F) -> Self::F;
    /// `v` where `m` holds, zero elsewhere.
    unsafe fn keep_i(m: Self::M, v: Self::I) -> Self::I;
    /// `v + 1` where `m` holds, `v` elsewhere.
    unsafe fn inc_where(v: Self::I, m: Self::M) -> Self::I;

    /// Narrows each lane to its low byte and writes the `LANES` bytes to
    /// `p`, lane order.
    unsafe fn store_code_bytes(p: *mut u8, codes: Self::I);
    /// Pairs 4-bit codes — even lane in the low nibble, the following odd
    /// lane in the high nibble — and writes the `LANES / 2` bytes to `p`.
    unsafe fn store_nibble_pairs(p: *mut u8, codes: Self::I);

    /// Finishes the tile columns `[j, nb)` that no whole-register strip
    /// covers, for the `MR` rows at `c` / `a` (see [`strips`]). The
    /// default is the scalar element loop; an ISA with masked loads and
    /// stores overrides it.
    #[inline(always)]
    unsafe fn tile_tail<const MR: usize, const ROUND: bool>(
        c: &[*mut f32; MR],
        a: &[*const f32; MR],
        k: usize,
        btile: *const f32,
        nb: usize,
        j: usize,
    ) {
        for j in j..nb {
            for r in 0..MR {
                let mut acc = *c[r].add(j);
                let mut bp = btile.add(j);
                for kk in 0..k {
                    acc += *a[r].add(kk) * *bp;
                    bp = bp.add(nb);
                }
                *c[r].add(j) = if ROUND { crate::bf16::round(acc) } else { acc };
            }
        }
    }
}

/// Rounds each lane to BF16 (kept in f32) — the vector form of
/// [`crate::bf16::round`]: NaN lanes pass through payload-intact, other
/// lanes add the round-to-nearest-even bias and truncate the low mantissa
/// half.
#[inline(always)]
pub(super) unsafe fn bf16_round<V: SimdOps>(x: V::F) -> V::F {
    let bits = V::bits(x);
    let lsb = V::and(V::shr(bits, 16), V::splat_i(1));
    let rounded = V::add_i(bits, V::add_i(lsb, V::splat_i(0x7FFF)));
    let rounded = V::and(rounded, V::splat_i(0xFFFF_0000));
    V::select(V::ordered(x), V::from_bits(rounded), x)
}

/// The vector tile kernel — same contract as `engine::tile_kernel`, with
/// `ROUND` fusing the BF16 rounding into the store. Rows are processed in
/// register blocks of 4/2/1; columns in the ISA's strip ladder, every
/// active lane owning one output element end-to-end.
///
/// # Safety
///
/// `V`'s instruction set must be available. The bounds every pointer
/// access relies on are asserted.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(super) unsafe fn tile<V: SimdOps, const ROUND: bool>(
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
    assert!((row0 + mb) * n <= chunk.len() && j0 + nb <= n);
    assert!(mb * k <= ablock.len() && k * nb <= btile.len());
    let cbase = chunk.as_mut_ptr();
    let abase = ablock.as_ptr();
    let bbase = btile.as_ptr();
    let mut i = 0;
    while i + 4 <= mb {
        row_block::<V, 4, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
        i += 4;
    }
    while i + 2 <= mb {
        row_block::<V, 2, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
        i += 2;
    }
    if i < mb {
        row_block::<V, 1, ROUND>(cbase, n, row0 + i, j0, abase.add(i * k), k, bbase, nb);
    }
}

/// `MR` output rows against the whole `k×nb` B tile: the strip ladder,
/// widest first, then the ISA's tail — all with the identical per-element
/// operation sequence.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn row_block<V: SimdOps, const MR: usize, const ROUND: bool>(
    cbase: *mut f32,
    n: usize,
    row: usize,
    j0: usize,
    arows: *const f32,
    k: usize,
    btile: *const f32,
    nb: usize,
) {
    let mut c = [std::ptr::null_mut::<f32>(); MR];
    let mut a = [std::ptr::null::<f32>(); MR];
    for r in 0..MR {
        c[r] = cbase.add((row + r) * n + j0);
        a[r] = arows.add(r * k);
    }
    let mut j = 0;
    if V::MAX_STRIP >= 4 {
        j = strips::<V, MR, 4, ROUND>(&c, &a, k, btile, nb, j);
    }
    j = strips::<V, MR, 2, ROUND>(&c, &a, k, btile, nb, j);
    j = strips::<V, MR, 1, ROUND>(&c, &a, k, btile, nb, j);
    if j < nb {
        V::tile_tail::<MR, ROUND>(&c, &a, k, btile, nb, j);
    }
}

/// Runs column strips of `S` registers per row from column `j` while a
/// whole strip fits in `nb`; returns the first column left over. `c[r]` /
/// `a[r]` point at row `r`'s output tile row and A row. `MR × S`
/// accumulators load from C, take one broadcast-multiply-add per `kk`
/// against `S` B-row loads shared by all rows, and store back.
#[inline(always)]
unsafe fn strips<V: SimdOps, const MR: usize, const S: usize, const ROUND: bool>(
    c: &[*mut f32; MR],
    a: &[*const f32; MR],
    k: usize,
    btile: *const f32,
    nb: usize,
    mut j: usize,
) -> usize {
    while j + S * V::LANES <= nb {
        let mut acc = [[V::splat(0.0); S]; MR];
        for r in 0..MR {
            for (s, v) in acc[r].iter_mut().enumerate() {
                *v = V::loadu(c[r].add(j + s * V::LANES));
            }
        }
        let mut bp = btile.add(j);
        for kk in 0..k {
            let mut b = [V::splat(0.0); S];
            for (s, v) in b.iter_mut().enumerate() {
                *v = V::loadu(bp.add(s * V::LANES));
            }
            for r in 0..MR {
                let av = V::splat(*a[r].add(kk));
                for s in 0..S {
                    acc[r][s] = V::add(acc[r][s], V::mul(av, b[s]));
                }
            }
            bp = bp.add(nb);
        }
        for r in 0..MR {
            for (s, &v) in acc[r].iter().enumerate() {
                let v = if ROUND { bf16_round::<V>(v) } else { v };
                V::storeu(c[r].add(j + s * V::LANES), v);
            }
        }
        j += S * V::LANES;
    }
    j
}

/// The vector abs-max fold — see `Encoder::abs_max`. Integer max over
/// the magnitude bit patterns with NaN lanes zeroed; max is exact, so the
/// horizontal reduction at the end reassociates nothing.
///
/// # Safety
///
/// `V`'s instruction set must be available.
#[inline(always)]
pub(super) unsafe fn abs_max_bits<V: SimdOps>(seg: &[f32], acc: u32) -> u32 {
    let abs = V::splat_i(ABS_MASK);
    let past_inf = V::splat_i(INF_BITS + 1);
    let mut m = V::splat_i(0);
    let mut chunks = seg.chunks_exact(V::LANES);
    for chunk in &mut chunks {
        let a = V::and(V::bits(V::loadu(chunk.as_ptr())), abs);
        m = V::max_i(m, V::keep_i(V::gt_i(past_inf, a), a));
    }
    abs_max_bits_scalar(chunks.remainder(), acc.max(V::max_lane(m)))
}

/// Broadcast constants of one encode call.
struct EncodeConsts<V: SimdOps> {
    scale: V::F,
    abs: V::I,
    /// `INF_BITS + 1`: magnitude bit patterns below it are not NaN.
    past_inf: V::I,
    max_bits: V::I,
    emin_biased: V::I,
    /// `man_bits + 254`: minus the clamped biased exponent, this is the
    /// biased exponent of the exact factor `2^(m − e_eff)`.
    exp_base: V::I,
    man_bits: u32,
    magic: V::F,
    magic_bits: V::I,
    half: V::I,
    /// Magnitude bit patterns above this are non-zero codes' inputs: `-1`
    /// keeps an exact zero's sign offset (`signed_zero`), `0` clears it.
    zero_floor: V::I,
}

impl<V: SimdOps> EncodeConsts<V> {
    #[inline(always)]
    unsafe fn new(grid: &CodeGrid, scale: f32) -> Self {
        EncodeConsts {
            scale: V::splat(scale),
            abs: V::splat_i(ABS_MASK),
            past_inf: V::splat_i(INF_BITS + 1),
            max_bits: V::splat_i(grid.max_bits),
            emin_biased: V::splat_i(grid.emin_biased),
            exp_base: V::splat_i(grid.man_bits + 254),
            man_bits: grid.man_bits,
            magic: V::splat(MAGIC),
            magic_bits: V::splat_i(MAGIC_BITS),
            half: V::splat_i(grid.half),
            zero_floor: V::splat_i(if grid.signed_zero { u32::MAX } else { 0 }),
        }
    }
}

/// `LANES` elements → `LANES` codes (one per 32-bit lane): the
/// lane-parallel form of `CodeGrid::code`. `SIGN_SHIFT` moves the sign bit
/// onto the width's sign offset (28 → bit 3 for 4-bit codes, 24 → bit 7
/// for bytes).
#[inline(always)]
unsafe fn codes<V: SimdOps, const STOCH: bool, const SIGN_SHIFT: u32>(
    x: V::F,
    u: V::F,
    c: &EncodeConsts<V>,
) -> V::I {
    let bits = V::bits(V::mul(x, c.scale));
    let a = V::and(bits, c.abs);
    // Saturation: a magnitude clamped to the top value encodes as the top
    // index (NaN lanes too; they are cleared below).
    let ac = V::min_i(a, c.max_bits);
    let e = V::max_i(V::shr(ac, 23), c.emin_biased);
    let pow2 = V::shl(V::sub_i(c.exp_base, e), 23);
    let r = V::mul(V::from_bits(ac), V::from_bits(pow2));
    let k = if STOCH {
        let ki = V::trunc(r);
        V::inc_where(ki, V::gt_f(V::sub(r, V::to_f32(ki)), u))
    } else {
        V::sub_i(V::bits(V::add(r, c.magic)), c.magic_bits)
    };
    let binade = V::shl(V::sub_i(e, c.emin_biased), c.man_bits);
    let neg = V::and(V::shr(bits, SIGN_SHIFT), c.half);
    let code = V::or(V::add_i(binade, k), neg);
    let nonzero = V::gt_i(a, c.zero_floor);
    V::keep_i(V::gt_i(c.past_inf, a), V::keep_i(nonzero, code))
}

/// The vector code writers: byte-wide codes (`Encoder::encode_u8`), or
/// with `NIBBLES` whole bytes of 4-bit pairs (the aligned middle of
/// `Encoder::encode_u4`). With `uniforms` the rounding is stochastic,
/// otherwise nearest-even.
///
/// # Safety
///
/// `V`'s instruction set must be available. The length relations every
/// pointer access relies on are asserted.
#[inline(always)]
pub(super) unsafe fn encode<V: SimdOps, const NIBBLES: bool>(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: Option<&[f32]>,
    out: &mut [u8],
) {
    match uniforms {
        Some(u) => encode_rounded::<V, true, NIBBLES>(grid, seg, scale, u, out),
        None => encode_rounded::<V, false, NIBBLES>(grid, seg, scale, &[], out),
    }
}

#[inline(always)]
unsafe fn encode_rounded<V: SimdOps, const STOCH: bool, const NIBBLES: bool>(
    grid: &CodeGrid,
    seg: &[f32],
    scale: f32,
    uniforms: &[f32],
    out: &mut [u8],
) {
    let per_byte = if NIBBLES { 2 } else { 1 };
    assert_eq!(seg.len(), per_byte * out.len());
    assert!(!STOCH || uniforms.len() == seg.len());
    let c = EncodeConsts::<V>::new(grid, scale);
    let (sp, up, op) = (seg.as_ptr(), uniforms.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + V::LANES <= seg.len() {
        let x = V::loadu(sp.add(i));
        let u = if STOCH {
            V::loadu(up.add(i))
        } else {
            V::splat(0.0)
        };
        if NIBBLES {
            V::store_nibble_pairs(op.add(i / 2), codes::<V, STOCH, 28>(x, u, &c));
        } else {
            V::store_code_bytes(op.add(i), codes::<V, STOCH, 24>(x, u, &c));
        }
        i += V::LANES;
    }
    // `LANES` is even, so the tail starts on a whole byte either way.
    let us = STOCH.then(|| &uniforms[i..]);
    if NIBBLES {
        encode_u4_pairs_scalar(grid, &seg[i..], scale, us, &mut out[i / 2..]);
    } else {
        encode_u8_scalar(grid, &seg[i..], scale, us, &mut out[i..]);
    }
}
