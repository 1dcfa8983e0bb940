//! Codebooks: the bridge between number formats and packed storage.
//!
//! A subbyte format has at most 2⁸ representable values, so a packed tensor
//! stores each element as an index — a **code** — into the format's value
//! table. Codes are sign-magnitude: the top bit of the code space is the
//! sign, the low bits index the sorted non-negative value list. Code 0 is
//! always +0, so zero-initialized packed storage decodes to zero.
//!
//! ```text
//!   FP4 E2M1 (CodeWidth::U4):
//!     code  0..=7  → {0, 0.5, 1, 1.5, 2, 3, 4, 6}
//!     code  8..=15 → {-0, -0.5, -1, -1.5, -2, -3, -4, -6}
//!   FP8 / INT8 (CodeWidth::U8): same shape with a 128-entry half.
//! ```
//!
//! `Codebook::pack_rounded_with` (crate-internal; [`crate::Quantizer`]
//! calls it for every recipe) is the one way a tensor becomes codes: it
//! computes each code straight from the scaled element on the encode
//! kernels of `snip_tensor::encode`, and the decode table it emits holds
//! the value the format's rounding rule gives, bit for bit. The tests check
//! both against a two-step reference (round onto the grid, then look the
//! code up) kept in `tests/support/oracle.rs`. A large pack splits across
//! the worker pool in runs of whole scale-group rows; why that moves no
//! bit is in the method's docs.

use crate::format::ElementFormat;
use crate::granularity::Granularity;
use crate::quantizer::Rounding;
use snip_tensor::encode::{CodeGrid, Encoder};
use snip_tensor::rng::Rng;
use snip_tensor::{pool, CodeWidth, QTensor, Tensor, PARALLEL_ELEMENTS};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The interned codebooks, indexed by the format's wire id (ids no format
/// has stay empty). A codebook is immutable format metadata, built on first
/// use; every later lookup is one `OnceLock` load — no lock, no allocation —
/// so packing from many threads never contends.
static BOOKS: [OnceLock<Codebook>; ElementFormat::WIRE_ID_END as usize] =
    [const { OnceLock::new() }; ElementFormat::WIRE_ID_END as usize];

impl ElementFormat {
    /// The interned codebook of this format, or `None` for BF16, the one
    /// format wider than 8 bits.
    pub fn codebook(self) -> Option<&'static Codebook> {
        let slot = &BOOKS[usize::from(self.wire_id()?)];
        Some(slot.get_or_init(|| Codebook::build(self)))
    }
}

/// Uniform draws buffered per stochastic kernel call (see
/// [`Codebook::pack_rounded_with`]). Even, so a chunk boundary never
/// splits a nibble pair of an even-aligned segment.
const DRAW_CHUNK: usize = 256;

/// A sign-magnitude code table for one subbyte format, with every derived
/// table a packer or decoder needs. Obtained through
/// [`ElementFormat::codebook`], which interns one instance per format.
#[derive(Debug)]
pub struct Codebook {
    /// Non-negative representable values, ascending, starting at 0.
    nonneg: Vec<f32>,
    width: CodeWidth,
    /// Decode table: `lut[code] = value`.
    lut: Arc<[f32]>,
    /// Byte → value-pair expansion of `lut` (empty for byte-wide codes).
    pair: Arc<[f32]>,
    /// The code space as the encode kernels compute it.
    grid: CodeGrid,
}

impl Codebook {
    fn build(format: ElementFormat) -> Codebook {
        // An integer grid is the all-subnormal case of the float index
        // arithmetic (quantum 1 up to `qmax`); it keeps the sign of an
        // exact −0 input where the float formats collapse it to +0.
        let (nonneg, man_bits, emin, signed_zero): (Vec<f32>, _, _, _) = match format {
            ElementFormat::Float(fmt) => (
                fmt.enumerate_non_negative(),
                fmt.man_bits(),
                fmt.emin(),
                false,
            ),
            ElementFormat::Int(fmt) => (
                (0..=fmt.qmax() as i64).map(|i| i as f32).collect(),
                fmt.bits() - 1,
                fmt.bits() as i32 - 1,
                true,
            ),
        };
        assert!(
            !nonneg.is_empty() && nonneg[0] == 0.0,
            "table must start at 0"
        );
        assert!(
            nonneg.windows(2).all(|w| w[0] < w[1]),
            "table must be strictly ascending"
        );
        let width = if nonneg.len() <= 8 {
            CodeWidth::U4
        } else {
            assert!(
                nonneg.len() <= 128,
                "format has {} non-negative values; codes would not fit a byte",
                nonneg.len()
            );
            CodeWidth::U8
        };
        let lut: Arc<[f32]> = Self::build_lut(&nonneg, width).into();
        let top = nonneg.len() - 1;
        Codebook {
            width,
            pair: QTensor::pair_table(&lut).into(),
            lut,
            grid: CodeGrid::new(width, man_bits, emin, nonneg[top], top as u8, signed_zero),
            nonneg,
        }
    }

    fn build_lut(nonneg: &[f32], width: CodeWidth) -> Vec<f32> {
        let len = width.lut_len();
        let half = len / 2;
        let mut lut = vec![0.0f32; len];
        for (i, &v) in nonneg.iter().enumerate() {
            lut[i] = v;
            lut[half + i] = -v;
        }
        lut
    }

    /// The packed storage width codes of this book need.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// Number of distinct non-negative values (codes actually in use are
    /// `0..values()` and `half..half + values()`).
    pub fn values(&self) -> usize {
        self.nonneg.len()
    }

    /// The decode table: `lut[code] = value`. Unused codes decode to 0.
    ///
    /// The table lives in the interned codebook, so every packed tensor of
    /// one format shares a single allocation — decode tables are format
    /// metadata and cost nothing per tensor.
    ///
    /// The table's length and layout are a contract with the SIMD decode
    /// kernels in `snip-tensor`: exactly 16 entries for 4-bit formats (the
    /// AVX2 path holds `lut[0..8]` and `lut[8..16]` in two vector registers
    /// and selects between them on code bit 3 — which is the sign bit of
    /// this sign-magnitude code space, so the split falls on the
    /// positive/negative halves) and exactly 256 for byte-wide formats
    /// (gathered directly). `build_lut`'s mirrored-halves layout is what
    /// makes the 4-bit split legal.
    pub fn lut(&self) -> Arc<[f32]> {
        self.lut.clone()
    }

    /// [`Codebook::lut`] borrowed — for per-frame lookups that only compare.
    pub(crate) fn lut_slice(&self) -> &[f32] {
        &self.lut
    }

    /// The byte → value-pair expansion of this format's decode table (the
    /// branch-free 4-bit decode path reads it; empty for byte-wide codes),
    /// shared per format like [`Codebook::lut`].
    pub(crate) fn pair_lut(&self) -> Arc<[f32]> {
        self.pair.clone()
    }

    /// Quantizes `t` into packed storage — the one pack path. Per scale
    /// group, the group's max-abs is scanned, `scale_of` maps it to
    /// `(encode_multiplier, decode_multiplier)` (`Quantizer` passes its
    /// recipe's rule; the decode multiplier is the stored scale), and each
    /// element's code is written from `v · encode_multiplier` on the vector
    /// encode kernels of `snip_tensor::encode`.
    ///
    /// The code is computed directly from the exponent and rounded mantissa
    /// of the scaled bit pattern (`snip_tensor::encode::CodeGrid`), with no
    /// grid value in between and no search, for float and integer grids
    /// alike, under either [`Rounding`]. Codes are bit-identical on every
    /// backend (`tests/pack_simd.rs`) and equal the two-step reference,
    /// round onto the grid then look the code up
    /// (`tests/packed_equivalence.rs`).
    ///
    /// The stochastic RNG contract: **one `next_f32()` draw per element,
    /// unconditionally** (zero, NaN and saturating elements included), in
    /// [`Granularity::for_each_group`] row-major-within-group order. The
    /// draws are made a bounded chunk of a row segment at a time, into a
    /// scratch buffer the kernel then consumes — so the stream and its
    /// final position do not depend on the vector width. Nearest rounding
    /// never touches `rng`.
    ///
    /// **The split.** A tensor of at least `snip_tensor::PARALLEL_ELEMENTS`
    /// elements whose groups come in rows (`Block { nb }` in `nb`-row
    /// bands, `Tile` and `Rowwise` in rows) is cut into contiguous runs of
    /// whole group rows, as many as the pool splits that many elements into
    /// (`pool::parts_for`), and the runs pack on the pool. A run is a
    /// contiguous stretch of the group walk: it computes each of its groups
    /// exactly as the serial walk does and writes its own rows of codes
    /// (whole bytes: a 4-bit row is padded to a byte, so rows never share
    /// one) and its own contiguous slice of scales. Under stochastic
    /// rounding a run starting at row `r` draws from its own copy of `rng`
    /// moved `r · cols` draws ahead ([`Rng::advance`]) — the draws the
    /// serial walk makes before reaching it — and the last run ends where
    /// the serial walk ends, which becomes `rng`'s state. So no code, scale
    /// or draw depends on the split. `Tensorwise` and `Columnwise` groups
    /// span every row and pack as one run, as does a `1 × n` wire payload.
    pub(crate) fn pack_rounded_with(
        &self,
        t: &Tensor,
        granularity: Granularity,
        rounding: Rounding,
        rng: &mut Rng,
        scale_of: impl Fn(f32) -> (f32, f32) + Sync,
    ) -> QTensor {
        let (rows, cols) = t.shape();
        let row_bytes = self.width.row_bytes(cols);
        let mut data = vec![0u8; rows * row_bytes];
        let mut scales = vec![0.0f32; granularity.group_count(rows, cols)];
        let walk = Walk {
            book: self,
            enc: Encoder::current(),
            t,
            granularity,
            rounding,
            scale_of,
        };
        match Self::runs(granularity, rows, cols) {
            None => walk.band(0..rows, &mut scales, &mut data, rng),
            Some((run_rows, run_groups)) => {
                let mut rngs = vec![rng.clone(); rows.div_ceil(run_rows)];
                let runs = data
                    .chunks_mut(run_rows * row_bytes)
                    .zip(scales.chunks_mut(run_groups))
                    .zip(&mut rngs);
                pool::for_each_owned(runs.collect(), |i, ((codes, scales), rng)| {
                    let rr = i * run_rows..rows.min((i + 1) * run_rows);
                    if rounding == Rounding::Stochastic {
                        rng.advance((rr.start * cols) as u64);
                    }
                    walk.band(rr, scales, codes, rng);
                });
                *rng = rngs.pop().expect("a split has runs");
            }
        }
        QTensor::from_parts_with_pair(
            rows,
            cols,
            self.width,
            self.lut(),
            self.pair_lut(),
            granularity,
            scales,
            data,
        )
    }

    /// How a `rows × cols` pack under `granularity` splits: `Some((rows,
    /// scale groups))` per run, every run but the last that long, or `None`
    /// for one run — groups that span every row, or fewer than two runs
    /// from the pool's rule.
    fn runs(granularity: Granularity, rows: usize, cols: usize) -> Option<(usize, usize)> {
        let group_rows = match granularity {
            Granularity::Block { nb } => nb,
            Granularity::Tile { .. } | Granularity::Rowwise => 1,
            Granularity::Tensorwise | Granularity::Columnwise => return None,
        };
        let group_bands = rows.div_ceil(group_rows);
        let parts = pool::parts_for(rows * cols, PARALLEL_ELEMENTS).min(group_bands);
        if parts < 2 || cols == 0 {
            return None;
        }
        let per_run = group_bands.div_ceil(parts);
        Some((per_run * group_rows, per_run * granularity.col_groups(cols)))
    }

    /// One row segment through the encode kernels at this book's width.
    fn encode_seg(
        &self,
        enc: &Encoder,
        seg: &[f32],
        scale: f32,
        uniforms: Option<&[f32]>,
        cstart: usize,
        row: &mut [u8],
    ) {
        match self.width {
            CodeWidth::U4 => enc.encode_u4(&self.grid, seg, scale, uniforms, cstart, row),
            CodeWidth::U8 => {
                let out = &mut row[cstart..cstart + seg.len()];
                enc.encode_u8(&self.grid, seg, scale, uniforms, out)
            }
        }
    }
}

/// One pack's fixed inputs: the group walk of
/// [`Codebook::pack_rounded_with`], over the whole tensor or one run.
struct Walk<'a, S> {
    book: &'a Codebook,
    enc: Encoder,
    t: &'a Tensor,
    granularity: Granularity,
    rounding: Rounding,
    scale_of: S,
}

impl<S: Fn(f32) -> (f32, f32)> Walk<'_, S> {
    /// Packs rows `rr`, which start a group row, into `codes` (their packed
    /// rows) and `scales` (their groups' decode scales, in walk order). Per
    /// group, the row segments are scanned for the max-abs, then encoded
    /// row-major within the group (the draw order) — scan and encode are
    /// fused per group, so a group is read from memory once and re-read
    /// cache-hot. 4-bit segments of adjacent groups can share a byte of the
    /// zero-initialized row.
    fn band(&self, rr: Range<usize>, scales: &mut [f32], codes: &mut [u8], rng: &mut Rng) {
        let (book, enc) = (self.book, &self.enc);
        let cols = self.t.cols();
        let row_bytes = book.width.row_bytes(cols);
        let mut slots = scales.iter_mut();
        let mut draws = [0.0f32; DRAW_CHUNK];
        self.granularity.for_each_group(rr.len(), cols, |gr, cr| {
            let seg = |r: usize| &self.t.row(rr.start + r)[cr.clone()];
            let max_abs = gr.clone().fold(0.0, |m, r| enc.abs_max(seg(r), m));
            let (enc_scale, dec_scale) = (self.scale_of)(max_abs);
            *slots.next().expect("one scale per group") = dec_scale;
            for r in gr {
                let row = &mut codes[r * row_bytes..(r + 1) * row_bytes];
                match self.rounding {
                    Rounding::Nearest => {
                        book.encode_seg(enc, seg(r), enc_scale, None, cr.start, row)
                    }
                    Rounding::Stochastic => {
                        for (i, chunk) in seg(r).chunks(DRAW_CHUNK).enumerate() {
                            let us = &mut draws[..chunk.len()];
                            us.iter_mut().for_each(|u| *u = rng.next_f32());
                            let at = cr.start + i * DRAW_CHUNK;
                            book.encode_seg(enc, chunk, enc_scale, Some(us), at, row);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::int::IntFormat;
    use crate::oracle::{Oracle, ReferencePack};

    fn book(fmt: impl Into<ElementFormat>) -> &'static Codebook {
        fmt.into().codebook().expect("packable")
    }

    #[test]
    fn fp4_codebook_is_the_mx_table() {
        let cb = book(FloatFormat::e2m1());
        assert_eq!(cb.width(), CodeWidth::U4);
        assert_eq!(cb.values(), 8);
        let lut = cb.lut();
        assert_eq!(&lut[0..8], &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
        assert_eq!(lut[9], -0.5);
        assert_eq!(lut[15], -6.0);
    }

    #[test]
    fn fp8_codebooks_fit_a_byte() {
        for fmt in [
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let cb = book(fmt);
            assert_eq!(cb.width(), CodeWidth::U8, "{fmt}");
            assert!(cb.values() <= 128, "{fmt}: {}", cb.values());
        }
    }

    #[test]
    fn bf16_is_not_packable() {
        assert!(ElementFormat::from(FloatFormat::bf16())
            .codebook()
            .is_none());
    }

    #[test]
    fn int_codebooks() {
        let cb = book(IntFormat::int4());
        assert_eq!(cb.width(), CodeWidth::U4);
        assert_eq!(cb.values(), 8);
        let cb8 = book(IntFormat::int8());
        assert_eq!(cb8.width(), CodeWidth::U8);
        assert_eq!(cb8.values(), 128);
    }

    #[test]
    fn encode_decode_round_trips_every_representable_value() {
        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let cb = book(fmt);
            let lut = cb.lut();
            for v in fmt.enumerate_non_negative() {
                assert_eq!(
                    lut[cb.encode(v) as usize].to_bits(),
                    v.to_bits(),
                    "{fmt}: {v}"
                );
                if v != 0.0 {
                    let n = -v;
                    assert_eq!(
                        lut[cb.encode(n) as usize].to_bits(),
                        n.to_bits(),
                        "{fmt}: {n}"
                    );
                }
            }
        }
    }

    /// The fused nearest-rounding path must agree with the dense oracle
    /// on the hardest inputs: exact rounding-tie
    /// midpoints (both signs), every grid value, signed zeros, NaN and
    /// infinities. Continuous random data (the property tests) essentially
    /// never lands on a tie, so this pins the boundary semantics directly.
    #[test]
    fn fused_nearest_path_matches_oracle_on_exact_ties() {
        use crate::quantizer::Quantizer;

        fn tie_inputs(nonneg: &[f32], grid_max: f32) -> Vec<f32> {
            let mut vals = vec![grid_max]; // pins the group scale at exactly 1
            for w in nonneg.windows(2) {
                let m = (w[0] + w[1]) / 2.0;
                vals.push(m);
                vals.push(-m);
            }
            vals.extend_from_slice(nonneg);
            vals.extend(nonneg.iter().map(|v| -v));
            vals.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            vals
        }

        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let nonneg = fmt.enumerate_non_negative();
            let vals = tie_inputs(&nonneg, fmt.max_value());
            let t = Tensor::from_vec(1, vals.len(), vals);
            let q = Quantizer::new(fmt, Granularity::Tensorwise, Rounding::Nearest);
            let mut r1 = Rng::seed_from(0);
            let mut r2 = Rng::seed_from(0);
            let fake = q.fake_quantize(&t, &mut r1);
            let packed = q.quantize_packed(&t, &mut r2).expect("packable");
            for (i, (a, b)) in fake
                .as_slice()
                .iter()
                .zip(packed.dequantize().as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{fmt}: element {i}: {a} vs {b}");
            }
        }

        for bits in [3u32, 4, 8] {
            let ifmt = IntFormat::new(bits);
            let nonneg: Vec<f32> = (0..=ifmt.qmax() as i64).map(|i| i as f32).collect();
            let vals = tie_inputs(&nonneg, ifmt.qmax());
            let t = Tensor::from_vec(1, vals.len(), vals);
            let q = Quantizer::new(ifmt, Granularity::Tensorwise, Rounding::Nearest);
            let mut r1 = Rng::seed_from(0);
            let mut r2 = Rng::seed_from(0);
            let fake = q.fake_quantize(&t, &mut r1);
            let packed = q.quantize_packed(&t, &mut r2).expect("packable");
            for (i, (a, b)) in fake
                .as_slice()
                .iter()
                .zip(packed.dequantize().as_slice())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "int{bits}: element {i}: {a} vs {b}"
                );
            }
        }
    }

    /// The SIMD decode kernels rely on every decode table being exactly
    /// `lut_len` long with mirrored sign-magnitude halves (`lut[half + i]
    /// == -lut[i]` bitwise): the AVX2 4-bit path splits the 16-entry table
    /// into two 8-entry permute registers selected by code bit 3, and the
    /// byte-wide gather indexes all 256 entries unconditionally. Pin the
    /// layout for every format we ship.
    #[test]
    fn decode_tables_satisfy_the_simd_layout_contract() {
        let books: Vec<&Codebook> = [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ]
        .into_iter()
        .map(|f| book(f))
        .chain(
            [IntFormat::int4(), IntFormat::int8(), IntFormat::new(3)]
                .into_iter()
                .map(|f| book(f)),
        )
        .collect();
        for cb in &books {
            let lut = cb.lut();
            assert_eq!(lut.len(), cb.width().lut_len());
            let half = lut.len() / 2;
            for i in 0..half {
                if i < cb.values() {
                    assert_eq!(
                        lut[half + i].to_bits(),
                        (-lut[i]).to_bits(),
                        "halves must mirror at index {i}"
                    );
                } else {
                    // Unused codes decode to +0 in both halves.
                    assert_eq!(lut[i].to_bits(), 0);
                    assert_eq!(lut[half + i].to_bits(), 0);
                }
            }
            match cb.width() {
                CodeWidth::U4 => assert_eq!(cb.pair_lut().len(), 512),
                CodeWidth::U8 => assert!(cb.pair_lut().is_empty()),
            }
        }
    }

    #[test]
    fn signed_zeros_round_trip_bitwise() {
        let cb = book(FloatFormat::e2m1());
        let lut = cb.lut();
        assert_eq!(cb.encode(0.0), 0);
        assert_eq!(lut[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(cb.encode(-0.0), 8);
        assert_eq!(lut[8].to_bits(), (-0.0f32).to_bits());
    }
}
