//! Runtime SIMD backend selection and introspection for the GEMM engine,
//! and the engine's one dispatch point.
//!
//! Every backend is a row of function pointers (`Kernels`: tile update
//! keep/BF16, the band transpose and copy, the two decodes, abs-max, the
//! two code writers, the Box–Muller transform, the CRC-32 update); the
//! scalar reference is one more row.
//! `active_kernels` hands out the row of the tier active on the calling
//! thread and is the only function that builds a vector row — so, with
//! the scalar row's `fma` check beside it (`scalar_tile`), the only place
//! that states "this CPU feature was detected" and the only code naming
//! the ISA modules. Callers (the tile loop and band moves in `engine.rs`,
//! the decode shims at the bottom of this file, `encode::Encoder`) are
//! plain safe code.
//!
//! The `simd` cargo feature compiles the vector kernels (one generic body
//! per kernel in `simd_ops`, instantiated for AVX2 and AVX-512 on
//! `x86_64`, NEON on `aarch64`); this module decides — **once per
//! process** — which tier runs:
//!
//! 1. the feature must be compiled in ([`compiled`]),
//! 2. the `SNIP_SIMD` environment variable may cap or disable the tier
//!    (see below; read once at first use),
//! 3. the CPU must report the instruction set (`is_x86_feature_detected!`
//!    on x86_64, where both vector tiers also need `fma`; NEON is baseline
//!    on aarch64).
//!
//! # `SNIP_SIMD` accepted values
//!
//! | value (any case, trimmed)        | effect                               |
//! |----------------------------------|--------------------------------------|
//! | unset, empty, `1`, `on`, `true`  | full dispatch (best detected tier)   |
//! | `0`, `off`, `false`, `scalar`    | scalar kernels only                  |
//! | `avx2`, `neon`                   | cap at the 1st vector tier (AVX2/NEON) |
//! | `avx512`                         | cap at the 2nd vector tier (AVX-512) |
//!
//! A cap names a *tier*, not a requirement: `SNIP_SIMD=avx512` on an
//! AVX2-only box still runs AVX2, and `SNIP_SIMD=avx2` on aarch64 runs
//! NEON (both are tier-1 backends). `SNIP_SIMD=avx2` on an AVX-512 machine
//! pins the 8-lane backend for A/B comparisons. Any other value warns once
//! to stderr and behaves like full dispatch (the historical behavior,
//! now no longer silent).
//!
//! The scalar kernels are always compiled and are always the reference:
//! the vector kernels assign one output element per lane and replay the
//! scalar operation sequence inside each lane (one fused multiply-add per
//! k-step, `k` ascending, no horizontal reduction, no k-splitting), so
//! switching backends can never change a result bit (`tests/simd_scalar.rs`
//! pins this at 0 ULP; only NaN *payloads* are exempt, because IEEE leaves
//! which input NaN propagates to the implementation, so the scalar
//! reference itself does not pin them). That makes the selection here a
//! pure performance decision — which is exactly why it is allowed to
//! depend on the machine. The scalar row itself comes in two builds of one
//! body (see `engine/scalar.rs`): with `fma` enabled when the CPU reports
//! it, and the baseline build (a libm `fmaf` per element) otherwise — the
//! same bits either way.
//!
//! [`with_forced_backend`] pins the current thread (and, for the duration
//! of any pool dispatch it issues, the workers that serve it) to a specific
//! tier so tests and benchmarks can compare every compiled backend in one
//! process; `bench_gemm` records [`backend`], [`lane_width`] and
//! [`detected_features`] in `BENCH_gemm.json` so numbers from different
//! boxes stay comparable.

use super::scalar;
use super::simd_encode::{abs_max_bits_scalar, encode_u4_pairs_scalar, encode_u8_scalar, CodeGrid};
use super::Store;
use crate::{crc, math};
use std::cell::Cell;
use std::sync::OnceLock;

/// A kernel backend tier. Backends are ordered by tier (vector width):
/// scalar is tier 0, NEON and AVX2 are the first vector tier, AVX-512 the
/// second. On any given machine the usable backends form a chain
/// ([`available_backends`]); [`with_forced_backend`] clamps requests into
/// that chain so a test matrix written for the widest machine still runs
/// (degenerately) everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// The portable reference kernels. Always available.
    Scalar,
    /// 4-lane NEON (aarch64 baseline).
    Neon,
    /// 8-lane AVX2 (x86_64).
    Avx2,
    /// 16-lane AVX-512 (x86_64, `avx512f`).
    Avx512,
}

impl Backend {
    /// The name recorded in benchmarks and accepted by `SNIP_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Neon => "neon",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Output elements one vector register owns in this backend's tile
    /// kernel.
    pub fn lane_width(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Neon => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 16,
        }
    }

    /// Vector-width tier: 0 = scalar, 1 = 128/256-bit (NEON, AVX2),
    /// 2 = 512-bit (AVX-512). `SNIP_SIMD` caps and `with_forced_backend`
    /// clamp by tier, so the same request means the same thing on every
    /// architecture.
    fn tier(self) -> u8 {
        match self {
            Backend::Scalar => 0,
            Backend::Neon | Backend::Avx2 => 1,
            Backend::Avx512 => 2,
        }
    }
}

/// Whether the `simd` cargo feature was compiled in. Runtime dispatch can
/// still land on `"scalar"` (unsupported CPU or `SNIP_SIMD` override).
pub fn compiled() -> bool {
    cfg!(feature = "simd")
}

/// Accepted-value table for `SNIP_SIMD`, shown by the warn-once path.
const SNIP_SIMD_ACCEPTED: &str = "1|on|true (full dispatch), 0|off|false|scalar, \
     avx2|neon (tier-1 cap), avx512 (tier-2 cap)";

/// The pure classification behind [`env_tier_cap`]: a recognized value's
/// tier cap, or `None` for anything undocumented.
fn tier_cap_of(v: &str) -> Option<u8> {
    const FULL: u8 = u8::MAX;
    if v == "0"
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("scalar")
    {
        return Some(0);
    }
    if v.eq_ignore_ascii_case("avx2") || v.eq_ignore_ascii_case("neon") {
        return Some(1);
    }
    if v.eq_ignore_ascii_case("avx512") {
        return Some(2);
    }
    if v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("true") {
        return Some(FULL);
    }
    None
}

/// How an environment value for `SNIP_SIMD` parses: a tier cap, plus
/// whether the value was unrecognized (warned once at backend init).
/// Classification (unset/blank → default, trimming) goes through the
/// shared [`crate::env`] helper that `SNIP_THREADS` and `SNIP_TRACE` use.
fn env_tier_cap(value: Option<&str>) -> (u8, bool) {
    use snip_obs::env::EnvValue;
    const FULL: u8 = u8::MAX;
    match snip_obs::env::parse(value, tier_cap_of) {
        EnvValue::Parsed(cap) => (cap, false),
        EnvValue::Unset => (FULL, false),
        EnvValue::Unrecognized => (FULL, true),
    }
}

/// The widest backend the CPU supports (ignoring `SNIP_SIMD`), or scalar
/// when the feature is compiled out.
fn detect_cpu_backend() -> Backend {
    if !compiled() {
        return Backend::Scalar;
    }
    // The tile update is one fused multiply-add per k-step on every tier,
    // so both x86 vector tiers need `fma` (AVX-512 includes it; asking keeps
    // the AVX2 rung beneath it sound).
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Backend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    return Backend::Neon;
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// Lowers `detected` to `tier`: tier 0 is scalar, tier 1 is the
/// architecture's first vector backend, and any higher tier keeps
/// `detected` (the chain has at most three rungs per arch).
fn at_tier(detected: Backend, tier: u8) -> Backend {
    match tier {
        0 => Backend::Scalar,
        1 => match detected {
            Backend::Avx512 => Backend::Avx2,
            other => other,
        },
        _ => detected,
    }
}

fn detect_backend() -> Backend {
    let raw = std::env::var("SNIP_SIMD").ok();
    let (cap, unrecognized) = env_tier_cap(raw.as_deref());
    if unrecognized {
        snip_obs::env::warn_unrecognized(
            "SNIP_SIMD",
            raw.as_deref().unwrap_or(""),
            SNIP_SIMD_ACCEPTED,
        );
    }
    let detected = detect_cpu_backend();
    at_tier(detected, cap.min(detected.tier()))
}

/// The process-wide SIMD backend (cargo feature + `SNIP_SIMD` cap + CPU
/// detection). Resolved once at first use and cached; the unrecognized-
/// value warning, if any, is emitted exactly once here.
pub fn backend_kind() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect_backend)
}

/// The process-wide SIMD backend's name: `"avx512"`, `"avx2"`, `"neon"`
/// or `"scalar"`.
pub fn backend() -> &'static str {
    backend_kind().name()
}

/// Output elements one vector register owns in the active backend's tile
/// kernel: 16 for AVX-512, 8 for AVX2, 4 for NEON, 1 for scalar.
pub fn lane_width() -> usize {
    backend_kind().lane_width()
}

/// Every backend tier usable in this process, scalar first, widest last —
/// the process backend and each lower tier. This is the sweep domain for
/// the per-backend test suites and `bench_gemm`'s backend matrix: on an
/// AVX-512 box it is `[Scalar, Avx2, Avx512]`, under `SNIP_SIMD=avx2` it
/// shrinks to `[Scalar, Avx2]`, and with `SNIP_SIMD=0` only `[Scalar]`.
pub fn available_backends() -> Vec<Backend> {
    let top = backend_kind();
    (0..=top.tier()).map(|t| at_tier(top, t)).collect()
}

/// Instruction-set extensions detected on this CPU (independent of which
/// backend is active) — machine context for benchmark records.
pub fn detected_features() -> Vec<&'static str> {
    let mut feats = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, have) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            (
                "pclmulqdq",
                std::arch::is_x86_feature_detected!("pclmulqdq"),
            ),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                feats.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    feats.push("neon");
    feats
}

thread_local! {
    /// Set inside [`with_forced_backend`]: this thread dispatches to the
    /// stored backend regardless of the process-wide one. Always holds a
    /// value already clamped into this machine's chain.
    static FORCED: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend every kernel dispatch on this thread uses right now: the
/// forced backend if one is installed, the process backend otherwise. A
/// non-scalar result implies the backend's instruction set was
/// runtime-detected.
#[inline]
pub(crate) fn active_backend() -> Backend {
    FORCED.with(|f| f.get()).unwrap_or_else(backend_kind)
}

/// The forced backend installed on this thread, if any — captured by
/// `pool::run` so workers serving a forced caller dispatch the same tier.
pub(crate) fn forced_backend() -> Option<Backend> {
    FORCED.with(|f| f.get())
}

/// Installs an already-clamped forced-backend value for the duration of
/// `f` (restoring the previous one after) — the raw form `pool` workers
/// use to mirror the submitting thread. [`with_forced_backend`] is the
/// public, clamping entry point.
pub(crate) fn with_forced_raw<R>(forced: Option<Backend>, f: impl FnOnce() -> R) -> R {
    let prev = FORCED.with(|c| c.replace(forced));
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with every kernel dispatch on this thread — and on pool
/// workers serving dispatches this thread issues while inside `f` — pinned
/// to `requested`, then restores the previous setting. The request is
/// clamped by *tier* to what this process can run (`Scalar` always works;
/// `Avx512` on an AVX2-only box runs AVX2; `Avx2` on aarch64 runs NEON;
/// a `SNIP_SIMD` cap lowers the ceiling the same way), so sweeping
/// [`available_backends`] — or any fixed list — is portable. Results are
/// bit-identical across backends by contract; this hook exists so
/// `tests/simd_scalar.rs` can prove that for every tier in one process.
pub fn with_forced_backend<R>(requested: Backend, f: impl FnOnce() -> R) -> R {
    let top = backend_kind();
    let effective = at_tier(top, requested.tier().min(top.tier()));
    with_forced_raw(Some(effective), f)
}

/// The tile-kernel signature — argument contract in `engine::tile_kernel`.
type TileFn = fn(Store, &mut [f32], usize, usize, usize, usize, usize, usize, &[f32], &[f32]);
/// A 4-bit pair decoder: `(bytes, lut, pair, scale, out)`.
type DecodePairsFn = fn(&[u8], &[f32], &[f32], f32, &mut [f32]);
/// A code writer: `(grid, seg, scale, uniforms, out)`.
type EncodeFn = fn(&CodeGrid, &[f32], f32, Option<&[f32]>, &mut [u8]);
/// A band move: `(round, src, ld, rows, w, dst, ldd)` — the `rows × w`
/// band at `src` (row stride `ld`, `rows ≤ TB`) into `dst` (row stride
/// `ldd`), rounded to BF16 when `round`.
type BandFn = fn(bool, &[f32], usize, usize, usize, &mut [f32], usize);

/// A Box–Muller transform: `(pairs, std, out)`, returning the fallbacks.
type GaussianFn = fn(&[[f64; 2]], f32, &mut [f32]) -> usize;

/// One backend's kernels as plain function pointers — the single dispatch
/// point of the engine. [`active_kernels`] resolves the row for the
/// current thread; the GEMM engine, the decode shims below and
/// [`super::simd_encode::Encoder`] call through it.
#[derive(Debug)]
pub(crate) struct Kernels {
    /// The tile update, finishing each stored element as its `Store`
    /// flags say (`engine::finish`).
    pub(crate) tile: TileFn,
    /// A band transposed, `dst[c · ldd + r] = src[r · ld + c]`: the
    /// transposed operand sides' `TB×TB` blocks (`engine::transpose_into`).
    pub(crate) transpose: BandFn,
    /// A band copied row for row, `dst[r · ldd + c] = src[r · ld + c]`: the
    /// row-major B tiles and the A blocks of an operand read in place.
    pub(crate) copy: BandFn,
    /// See [`decode_u4_pairs`].
    pub(crate) decode_u4_pairs: DecodePairsFn,
    /// See [`decode_u8_run`].
    pub(crate) decode_u8_run: fn(&[u8], &[f32], f32, &mut [f32]),
    /// Bit pattern of `acc.max(|v|)` over a segment, NaN ignored.
    pub(crate) abs_max_bits: fn(&[f32], u32) -> u32,
    /// One byte-wide code per element.
    pub(crate) encode_u8: EncodeFn,
    /// Whole bytes of 4-bit code pairs (two elements per output byte).
    pub(crate) encode_u4_pairs: EncodeFn,
    /// See [`gaussian_pairs`].
    pub(crate) gaussian: GaussianFn,
    /// See [`crc32_update`].
    pub(crate) crc32: fn(u32, &[u8]) -> u32,
}

/// The scalar row: the always-compiled reference every other row must
/// match bit for bit (the tile kernel finishes its elements in a second
/// pass over the tile where the vector rows fuse that into the store).
static SCALAR: Kernels = Kernels {
    tile: |store, chunk, n, row0, j0, mb, nb, k, ablock, btile| {
        scalar_tile(chunk, n, row0, j0, mb, nb, k, ablock, btile);
        scalar::finish_tile(store, chunk, n, row0, j0, mb, nb);
    },
    transpose: scalar::transpose,
    copy: scalar::copy,
    decode_u4_pairs: decode_u4_pairs_scalar,
    decode_u8_run: decode_u8_run_scalar,
    abs_max_bits: abs_max_bits_scalar,
    encode_u8: encode_u8_scalar,
    encode_u4_pairs: encode_u4_pairs_scalar,
    gaussian: |pairs, std, out| math::gaussian_pairs(pairs, std, out, math::GAUSSIAN_DELTA),
    crc32: crc::update_table,
};

/// The scalar tile kernel in the build this CPU runs fastest: compiled for
/// `fma` when the CPU reports it, the baseline build (a libm `fmaf` per
/// element) otherwise — the same bits either way.
#[allow(clippy::too_many_arguments)]
fn scalar_tile(
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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU reports `fma`, all `tile_kernel_fma` requires.
        return unsafe { scalar::tile_kernel_fma(chunk, n, row0, j0, mb, nb, k, ablock, btile) };
    }
    scalar::tile_kernel(chunk, n, row0, j0, mb, nb, k, ablock, btile)
}

/// The kernel table every dispatch on this thread uses right now — the
/// row of [`active_backend`]. This function is the only place a vector
/// row is built: it instantiates the shared kernels of [`super::simd_ops`]
/// for an ISA's op table under that ISA's `#[target_feature]`, and it is
/// the only code that names the ISA modules.
pub(crate) fn active_kernels() -> &'static Kernels {
    // SAFETY (every `unsafe` block in a row): the entry points and the
    // ISA decodes require their instruction set and nothing else — slice
    // bounds are asserted inside the kernels. `active_backend` returns a
    // vector tier only after `detect_cpu_backend` saw the CPU report it,
    // plus `fma` on x86_64 (NEON is baseline on aarch64), and forcing or
    // capping can only lower the tier within that detected chain.
    /// The vector rows' `crc32`: on x86_64 the carry-less-multiply fold
    /// when the CPU reports `pclmulqdq` (which no tier's detection
    /// implies), the table otherwise and on aarch64.
    #[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn vector_crc32(state: u32, bytes: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the CPU reports `pclmulqdq`, all `crc_x86::update`
            // requires.
            return unsafe { super::crc_x86::update(state, bytes) };
        }
        crc::update_table(state, bytes)
    }
    #[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
    macro_rules! vector_row {
        ($isa:ident :: $ops:ident, $feature:literal) => {{
            use super::{simd_ops, $isa, STORE_BF16, STORE_PLUS_ZERO};
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $feature)]
            unsafe fn tile<const STORE: Store>(
                c: &mut [f32],
                n: usize,
                r: usize,
                j: usize,
                mb: usize,
                nb: usize,
                k: usize,
                a: &[f32],
                b: &[f32],
            ) {
                simd_ops::tile::<$isa::$ops, STORE>(c, n, r, j, mb, nb, k, a, b)
            }
            #[target_feature(enable = $feature)]
            unsafe fn band<const TRANSPOSE: bool, const STORE: Store>(
                src: &[f32],
                ld: usize,
                rows: usize,
                w: usize,
                dst: &mut [f32],
                ldd: usize,
            ) {
                simd_ops::band::<$isa::$ops, TRANSPOSE, STORE>(src, ld, rows, w, dst, ldd)
            }
            #[target_feature(enable = $feature)]
            unsafe fn abs_max_bits(seg: &[f32], acc: u32) -> u32 {
                simd_ops::abs_max_bits::<$isa::$ops>(seg, acc)
            }
            #[target_feature(enable = $feature)]
            unsafe fn encode<const NIBBLES: bool>(
                grid: &CodeGrid,
                seg: &[f32],
                scale: f32,
                uniforms: Option<&[f32]>,
                out: &mut [u8],
            ) {
                simd_ops::encode::<$isa::$ops, NIBBLES>(grid, seg, scale, uniforms, out)
            }
            #[target_feature(enable = $feature)]
            unsafe fn gaussian(pairs: &[[f64; 2]], std: f32, out: &mut [f32]) -> usize {
                math::gaussian_pairs(pairs, std, out, math::GAUSSIAN_DELTA)
            }
            static ROW: Kernels = Kernels {
                tile: |store, c, n, r, j, mb, nb, k, a, b| unsafe {
                    let tile = match store {
                        0 => tile::<0>,
                        STORE_BF16 => tile::<STORE_BF16>,
                        STORE_PLUS_ZERO => tile::<STORE_PLUS_ZERO>,
                        _ => tile::<{ STORE_BF16 | STORE_PLUS_ZERO }>,
                    };
                    tile(c, n, r, j, mb, nb, k, a, b)
                },
                transpose: |round, src, ld, rows, w, dst, ldd| unsafe {
                    let band = if round {
                        band::<true, STORE_BF16>
                    } else {
                        band::<true, 0>
                    };
                    band(src, ld, rows, w, dst, ldd)
                },
                copy: |round, src, ld, rows, w, dst, ldd| unsafe {
                    let band = if round {
                        band::<false, STORE_BF16>
                    } else {
                        band::<false, 0>
                    };
                    band(src, ld, rows, w, dst, ldd)
                },
                decode_u4_pairs: |bytes, lut, pair, scale, out| unsafe {
                    $isa::decode_u4_pairs(bytes, lut, pair, scale, out)
                },
                decode_u8_run: |codes, lut, scale, out| unsafe {
                    $isa::decode_u8_run(codes, lut, scale, out)
                },
                abs_max_bits: |seg, acc| unsafe { abs_max_bits(seg, acc) },
                encode_u8: |grid, seg, scale, uniforms, out| unsafe {
                    encode::<false>(grid, seg, scale, uniforms, out)
                },
                encode_u4_pairs: |grid, seg, scale, uniforms, out| unsafe {
                    encode::<true>(grid, seg, scale, uniforms, out)
                },
                gaussian: |pairs, std, out| unsafe { gaussian(pairs, std, out) },
                crc32: vector_crc32,
            };
            &ROW
        }};
    }
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Avx512 => vector_row!(simd_x86_512::Avx512, "avx512f"),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Avx2 => vector_row!(simd_x86::Avx2, "avx2,fma"),
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        Backend::Neon => vector_row!(simd_neon::Neon, "neon"),
        _ => &SCALAR,
    }
}

/// Decodes `bytes.len()` packed 4-bit code pairs into `out` (length
/// `2 * bytes.len()`): `out[2i] = lut[bytes[i] & 0xF] * scale`,
/// `out[2i+1] = lut[bytes[i] >> 4] * scale`. `pair` is the byte → value
/// pair expansion of `lut` ([`crate::QTensor::pair_table`]); the scalar
/// row (and every vector row's tail) reads it, the vector rows re-derive
/// both nibble values from `lut` directly with in-register permutes/table
/// lookups (same table entries, same multiply — bit-identical).
pub(crate) fn decode_u4_pairs(
    bytes: &[u8],
    lut: &[f32],
    pair: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(pair.len(), 512);
    (active_kernels().decode_u4_pairs)(bytes, lut, pair, scale, out)
}

pub(super) fn decode_u4_pairs_scalar(
    bytes: &[u8],
    _lut: &[f32],
    pair: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(out.len(), bytes.len() * 2);
    for (ob, &byte) in out.chunks_exact_mut(2).zip(bytes) {
        let p = &pair[(byte as usize) * 2..(byte as usize) * 2 + 2];
        ob[0] = p[0] * scale;
        ob[1] = p[1] * scale;
    }
}

/// Writes the Box–Muller outputs of `pairs` into `out` (two per pair),
/// bit for bit `(c as f32) · std, (s as f32) · std` of the libm transform
/// [`math::box_muller`], and returns how many pairs were recomputed by it.
/// Every row runs the one body, [`math::gaussian_pairs`]: the vector rows
/// compile it under their `#[target_feature]`, where its loop over pairs
/// vectorizes one pair per lane, the scalar row at baseline. The certified
/// values are the in-tree math's, identical on every row, so rows differ
/// in speed only.
pub(crate) fn gaussian_pairs(pairs: &[[f64; 2]], std: f32, out: &mut [f32]) -> usize {
    (active_kernels().gaussian)(pairs, std, out)
}

/// `state` — a CRC-32 register before its final inversion — advanced over
/// `bytes` by the active row ([`crate::crc`]); every row returns the
/// slice-by-16 table's value.
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    (active_kernels().crc32)(state, bytes)
}

/// Decodes a run of one-byte codes: `out[i] = lut[codes[i]] * scale`
/// (`lut` has 256 entries — FP8/INT8 formats). The vector rows gather a
/// register's worth of table entries per step; same loads, same multiply,
/// bit-identical.
pub(crate) fn decode_u8_run(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    (active_kernels().decode_u8_run)(codes, lut, scale, out)
}

pub(super) fn decode_u8_run_scalar(codes: &[u8], lut: &[f32], scale: f32, out: &mut [f32]) {
    assert!(lut.len() == 256 && out.len() == codes.len());
    for (o, &code) in out.iter_mut().zip(codes) {
        *o = lut[code as usize] * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_as_documented() {
        const FULL: u8 = u8::MAX;
        for (value, want) in [
            (None, FULL),
            (Some("1"), FULL),
            (Some("on"), FULL),
            (Some("TRUE"), FULL),
            (Some(""), FULL),
            (Some("  "), FULL),
            (Some("0"), 0),
            (Some("off"), 0),
            (Some("OFF"), 0),
            (Some("false"), 0),
            (Some("False"), 0),
            (Some("scalar"), 0),
            (Some(" scalar "), 0),
            (Some("  0\t"), 0),
            (Some("avx2"), 1),
            (Some("AVX2"), 1),
            (Some("neon"), 1),
            (Some("avx512"), 2),
            (Some(" AVX512 "), 2),
        ] {
            let (cap, unrecognized) = env_tier_cap(value);
            assert_eq!(cap, want, "{value:?} should cap at tier {want}");
            assert!(!unrecognized, "{value:?} is a documented value");
        }
        for value in [Some("yes"), Some("2"), Some("sse"), Some("amx")] {
            let (cap, unrecognized) = env_tier_cap(value);
            assert_eq!(cap, FULL, "{value:?} must fall back to full dispatch");
            assert!(unrecognized, "{value:?} should be flagged for the warning");
        }
    }

    #[test]
    fn backend_and_lane_width_are_consistent() {
        let b = backend_kind();
        assert_eq!(backend(), b.name());
        assert_eq!(lane_width(), b.lane_width());
        match b {
            Backend::Avx512 => assert_eq!(lane_width(), 16),
            Backend::Avx2 => assert_eq!(lane_width(), 8),
            Backend::Neon => assert_eq!(lane_width(), 4),
            Backend::Scalar => assert_eq!(lane_width(), 1),
        }
        if !compiled() {
            assert_eq!(b, Backend::Scalar);
        }
    }

    #[test]
    fn available_backends_form_a_chain() {
        let avail = available_backends();
        assert_eq!(avail.first(), Some(&Backend::Scalar));
        assert_eq!(avail.last(), Some(&backend_kind()));
        for pair in avail.windows(2) {
            assert!(pair[0].tier() < pair[1].tier(), "tiers ascend: {avail:?}");
        }
    }

    #[test]
    fn tier_clamping_is_total() {
        // Every (detected, requested) pair lands on a backend the machine
        // can run, at min(tier) — the portability contract for sweeps.
        use Backend::*;
        for det in [Scalar, Neon, Avx2, Avx512] {
            for req in [Scalar, Neon, Avx2, Avx512] {
                let eff = at_tier(det, req.tier().min(det.tier()));
                assert_eq!(eff.tier(), req.tier().min(det.tier()));
                assert!(at_tier(det, eff.tier()) == eff, "{det:?} {req:?}");
            }
        }
        assert_eq!(at_tier(Avx512, 1), Avx2);
        assert_eq!(at_tier(Avx512, 0), Scalar);
        assert_eq!(at_tier(Neon, 1), Neon);
    }

    #[test]
    fn forced_backend_nests_and_restores() {
        let outer = active_backend();
        with_forced_backend(Backend::Scalar, || {
            assert_eq!(active_backend(), Backend::Scalar);
            with_forced_backend(Backend::Avx512, || {
                // Clamped to the process chain, but never above the request.
                let b = active_backend();
                assert_eq!(b.tier(), 2.min(backend_kind().tier()));
            });
            assert_eq!(active_backend(), Backend::Scalar);
        });
        assert_eq!(active_backend(), outer);
    }
}
