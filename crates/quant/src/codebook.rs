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
//! [`Codebook::encode`] maps a value that is *already on the format grid*
//! (the output of `quantize_nearest`/`quantize_stochastic`) to its code;
//! the decode table it emits reproduces that value bit-for-bit, which is
//! what makes the packed pipeline exactly equivalent to fake quantization.

use crate::format::ElementFormat;
use crate::granularity::Granularity;
use crate::quantizer::Rounding;
use snip_tensor::encode::{encode_u4_with, CodeGrid, Encoder};
use snip_tensor::rng::Rng;
use snip_tensor::{pool, CodeWidth, QTensor, Tensor};
use std::sync::{Arc, OnceLock};

/// The interned codebooks, indexed by the format's wire id (ids no format
/// has stay empty). A codebook is immutable format metadata, built on first
/// use; every later lookup is one `OnceLock` load — no lock, no allocation —
/// so packing from many threads never contends.
static BOOKS: [OnceLock<Codebook>; ElementFormat::WIRE_ID_END as usize] =
    [const { OnceLock::new() }; ElementFormat::WIRE_ID_END as usize];

impl ElementFormat {
    /// The interned codebook of this format, or `None` if the format is
    /// wider than 8 bits (BF16 and the wide integer grids are not
    /// packable).
    pub fn codebook(self) -> Option<&'static Codebook> {
        let slot = &BOOKS[usize::from(self.wire_id()?)];
        Some(slot.get_or_init(|| Codebook::build(self)))
    }
}

/// Sentinel in the encode table for keys no grid value occupies. Valid
/// magnitude indices are `< 128`, so `0xFF` can never collide with one.
const ENC_EMPTY: u8 = u8::MAX;

/// Elements from which a nearest-rounding pack splits over the worker pool
/// (see [`Codebook::pack_rounded_with`]). Measured on the 2-core reference
/// box: a 2-way split runs 1.07–1.20× at 256×768 (just below), 1.24–1.40×
/// at 384×768 (just above) and 1.7–1.8× at 2048×768.
pub const PACK_PARALLEL_THRESHOLD: usize = 1 << 18;

/// Uniform draws buffered per stochastic kernel call (see
/// [`Codebook::pack_rounded_with`]). Even, so a chunk boundary never
/// splits a nibble pair of an even-aligned segment.
const DRAW_CHUNK: usize = 256;

/// A sign-magnitude code table for one subbyte format, with every derived
/// table a packer or decoder needs. Obtained through
/// [`ElementFormat::codebook`], which interns one instance per format.
#[derive(Debug)]
pub struct Codebook {
    format: ElementFormat,
    /// Non-negative representable values, ascending, starting at 0.
    nonneg: Vec<f32>,
    width: CodeWidth,
    /// Right-shift applied to a value's f32 bit pattern to form its encode
    /// key: keeps the exponent and exactly the mantissa bits any grid value
    /// uses, so distinct grid values get distinct keys.
    enc_shift: u32,
    /// Direct map from shifted magnitude bits to the non-negative value
    /// index ([`ENC_EMPTY`] where no grid value lands).
    enc_table: Vec<u8>,
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
        let enc_shift = Self::enc_shift_for(&nonneg);
        let lut: Arc<[f32]> = Self::build_lut(&nonneg, width).into();
        let top = nonneg.len() - 1;
        Codebook {
            format,
            width,
            enc_shift,
            enc_table: Self::build_enc_table(&nonneg, enc_shift),
            pair: QTensor::pair_table(&lut).into(),
            lut,
            grid: CodeGrid::new(width, man_bits, emin, nonneg[top], top as u8, signed_zero),
            nonneg,
        }
    }

    /// The bit-pattern shift under which every grid value keeps all of its
    /// significant mantissa bits (and its full exponent), so the shifted
    /// bits of distinct grid values are distinct.
    fn enc_shift_for(nonneg: &[f32]) -> u32 {
        let mut needed = 0u32;
        for &v in nonneg {
            let mantissa = v.to_bits() & 0x7F_FFFF;
            if mantissa != 0 {
                needed = needed.max(23 - mantissa.trailing_zeros());
            }
        }
        23 - needed
    }

    fn build_enc_table(nonneg: &[f32], shift: u32) -> Vec<u8> {
        let max_key = (nonneg.last().expect("non-empty table").to_bits() >> shift) as usize;
        let mut table = vec![ENC_EMPTY; max_key + 1];
        for (i, &v) in nonneg.iter().enumerate() {
            // Zero occupies key 0 like any other grid value (no nonzero
            // value can collide: a normal float's bits shifted by ≤ 23 are
            // nonzero), so the hot encode path needs no zero special-case.
            let k = (v.to_bits() >> shift) as usize;
            debug_assert_eq!(table[k], ENC_EMPTY, "encode keys must be distinct");
            table[k] = i as u8;
        }
        table
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
    pub fn pair_lut(&self) -> Arc<[f32]> {
        self.pair.clone()
    }

    /// Quantizes `t` into packed storage with a **caller-supplied
    /// rounding function**: per scale group, compute
    /// `scale = grid_max / max|group|`, then write each element's code
    /// `encode(quantize(v * scale, rng))` straight into the packed byte
    /// buffer. Elements are visited in [`Granularity::for_each_group`]
    /// order — the same element order (and the same stochastic-draw order)
    /// as the fake-quantization path, which is what keeps the two
    /// bit-identical.
    ///
    /// `quantize` maps an already-scaled value onto the format grid,
    /// consuming `rng` only for stochastic rounding. This closure-driven
    /// form runs scalar; it is the two-step reference the fused kernels of
    /// [`Codebook::pack_rounded_with`] are tested against, and the path for
    /// rounding rules the kernels do not implement.
    pub fn pack(
        &self,
        t: &Tensor,
        granularity: Granularity,
        grid_max: f32,
        rng: &mut Rng,
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor {
        let max_abs_scale = |max_abs| {
            let scale = Granularity::group_scale(grid_max, max_abs);
            (scale, 1.0 / scale)
        };
        self.pack_with(t, granularity, rng, max_abs_scale, quantize)
    }

    /// [`Codebook::pack`] with caller-supplied scaling: `scale_of` maps a
    /// group's max-abs to `(encode_multiplier, decode_multiplier)`. The
    /// standard max-abs recipe uses `(scale, 1/scale)`; MX-style quantizers
    /// use `(1/s, s)` with a power-of-two `s` so the *decode* side is the
    /// exact E8M0 scale. Both multipliers must reproduce the corresponding
    /// fake-quantization expressions bit-for-bit.
    pub fn pack_with(
        &self,
        t: &Tensor,
        granularity: Granularity,
        rng: &mut Rng,
        scale_of: impl Fn(f32) -> (f32, f32),
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor {
        self.pack_groups(t, granularity, scale_of, |_, seg, scale, cstart, row| {
            let mut code = |v: f32| self.encode(quantize(v * scale, rng));
            match self.width {
                CodeWidth::U4 => encode_u4_with(seg, cstart, row, code),
                CodeWidth::U8 => {
                    for (&v, o) in seg.iter().zip(&mut row[cstart..cstart + seg.len()]) {
                        *o = code(v);
                    }
                }
            }
        })
    }

    /// Quantizes `t` into packed storage with **this format's own
    /// rounding** — the production path: scan, scale and encode run on the
    /// vector encode kernels of `snip_tensor::encode`, under the caller's
    /// scale rule (`scale_of` as in [`Codebook::pack_with`];
    /// `Quantizer` passes its recipe's).
    ///
    /// The quantize→encode pair is fused: an element's code is computed
    /// directly from the exponent and rounded mantissa of its scaled bit
    /// pattern (`snip_tensor::encode::CodeGrid`) — no grid-value
    /// reconstruction, no encode-table lookup. Codes are bit-identical to
    /// the two-step `encode(quantize_nearest(..))` /
    /// `encode(quantize_stochastic(..))` composition on every backend
    /// (`tests/pack_simd.rs`, `tests/packed_equivalence.rs`).
    ///
    /// The stochastic RNG contract is the fake-quant oracle's exactly:
    /// **one `next_f32()` draw per element, unconditionally** (zero, NaN
    /// and saturating elements included), in
    /// [`Granularity::for_each_group`] row-major-within-group order. The
    /// draws are made serially, a bounded chunk of a row segment at a
    /// time, into a scratch buffer the kernel then consumes — so the
    /// stream and its final position do not depend on the vector width.
    /// Nearest rounding never touches `rng`; from
    /// [`PACK_PARALLEL_THRESHOLD`] elements it splits over the worker pool
    /// in bands of whole scale-group rows (identical bytes at any split).
    ///
    /// Stochastic rounding of *integer* grids floors the signed value
    /// (`IntFormat::quantize_stochastic`), which the sign-magnitude
    /// kernels do not model; it takes the scalar closure path.
    pub fn pack_rounded_with(
        &self,
        t: &Tensor,
        granularity: Granularity,
        rounding: Rounding,
        rng: &mut Rng,
        scale_of: impl Fn(f32) -> (f32, f32) + Sync,
    ) -> QTensor {
        match (rounding, self.format) {
            (Rounding::Nearest, _) => self.pack_nearest(t, granularity, scale_of),
            (Rounding::Stochastic, ElementFormat::Float(_)) => {
                let mut draws = [0.0f32; DRAW_CHUNK];
                self.pack_groups(t, granularity, scale_of, |enc, seg, scale, cstart, row| {
                    for (i, chunk) in seg.chunks(DRAW_CHUNK).enumerate() {
                        let us = &mut draws[..chunk.len()];
                        us.iter_mut().for_each(|u| *u = rng.next_f32());
                        let at = cstart + i * DRAW_CHUNK;
                        self.encode_seg(enc, chunk, scale, Some(us), at, row);
                    }
                })
            }
            (Rounding::Stochastic, ElementFormat::Int(fmt)) => {
                self.pack_with(t, granularity, rng, scale_of, |scaled, rng| {
                    fmt.quantize_stochastic(scaled, rng.next_f32())
                })
            }
        }
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

    /// Packs every group through one segment encoder, on this thread.
    fn pack_groups(
        &self,
        t: &Tensor,
        granularity: Granularity,
        scale_of: impl Fn(f32) -> (f32, f32),
        encode_seg: impl FnMut(&Encoder, &[f32], f32, usize, &mut [u8]),
    ) -> QTensor {
        let (rows, cols) = t.shape();
        let mut data = vec![0u8; rows * self.width.row_bytes(cols)];
        let mut scales = vec![0.0f32; granularity.group_count(rows, cols)];
        self.pack_band(
            t,
            0..rows,
            granularity,
            &scale_of,
            encode_seg,
            &mut data,
            &mut scales,
        );
        self.finish(t, granularity, scales, data)
    }

    /// Nearest-rounding pack, split over the worker pool in bands of whole
    /// scale-group rows once the tensor is large enough to pay for the
    /// dispatch. Every band owns disjoint `data` / `scales` ranges and a
    /// group's codes depend on that group alone, so the bytes are the same
    /// at every split (`tests/pack_simd.rs` pins 1 / 2 / max / max + 3).
    /// Stochastic packs never split: their draws are one serial stream.
    fn pack_nearest(
        &self,
        t: &Tensor,
        granularity: Granularity,
        scale_of: impl Fn(f32) -> (f32, f32) + Sync,
    ) -> QTensor {
        let nearest = |enc: &Encoder, seg: &[f32], scale: f32, cstart: usize, row: &mut [u8]| {
            self.encode_seg(enc, seg, scale, None, cstart, row)
        };
        let (rows, cols) = t.shape();
        let group_rows = match granularity {
            Granularity::Rowwise | Granularity::Tile { .. } => 1,
            Granularity::Block { nb } => nb,
            Granularity::Tensorwise | Granularity::Columnwise => rows,
        };
        let parts = pool::parts_for(rows * cols, PACK_PARALLEL_THRESHOLD);
        let band_rows = rows.div_ceil(parts).next_multiple_of(group_rows.max(1));
        if band_rows >= rows || cols == 0 {
            return self.pack_groups(t, granularity, scale_of, nearest);
        }
        let mut data = vec![0u8; rows * self.width.row_bytes(cols)];
        let mut scales = vec![0.0f32; granularity.group_count(rows, cols)];
        let bands = data
            .chunks_mut(band_rows * self.width.row_bytes(cols))
            .zip(scales.chunks_mut(granularity.group_count(band_rows, cols)))
            .collect();
        pool::for_each_owned(bands, |i, (data, scales): (&mut [u8], &mut [f32])| {
            let band = i * band_rows..((i + 1) * band_rows).min(rows);
            self.pack_band(t, band, granularity, &scale_of, nearest, data, scales);
        });
        self.finish(t, granularity, scales, data)
    }

    /// The one group walk behind every packing path, over the row band
    /// `band` (whole scale groups) into that band's `data` / `scales`:
    /// per scale group, scan the group's contiguous row segments for the
    /// max-abs, derive the scales, then hand each segment to
    /// `encode_seg(encoder, segment, encode_scale, first_column,
    /// packed_row)` — scan and encode are fused per group, so a group is
    /// read from memory once and re-read cache-hot. Segments are visited
    /// row-major within each group, the same order (and so the same
    /// stochastic-draw order) as fake quantization. `packed_row` is the
    /// segment's whole zero-initialized packed row: 4-bit segments of
    /// adjacent groups can share a byte.
    #[allow(clippy::too_many_arguments)]
    fn pack_band(
        &self,
        t: &Tensor,
        band: std::ops::Range<usize>,
        granularity: Granularity,
        scale_of: &impl Fn(f32) -> (f32, f32),
        mut encode_seg: impl FnMut(&Encoder, &[f32], f32, usize, &mut [u8]),
        data: &mut [u8],
        scales: &mut [f32],
    ) {
        let enc = Encoder::current();
        let row_bytes = self.width.row_bytes(t.cols());
        let mut scales = scales.iter_mut();
        granularity.for_each_group(band.len(), t.cols(), |rr, cr| {
            let seg = |r: usize| &t.row(band.start + r)[cr.clone()];
            let max_abs = rr.clone().fold(0.0, |m, r| enc.abs_max(seg(r), m));
            let (enc_scale, dec_scale) = scale_of(max_abs);
            *scales.next().expect("one scale slot per group") = dec_scale;
            for r in rr {
                let row = &mut data[r * row_bytes..(r + 1) * row_bytes];
                encode_seg(&enc, seg(r), enc_scale, cr.start, row);
            }
        });
    }

    fn finish(
        &self,
        t: &Tensor,
        granularity: Granularity,
        scales: Vec<f32>,
        data: Vec<u8>,
    ) -> QTensor {
        QTensor::from_parts_with_pair(
            t.rows(),
            t.cols(),
            self.width,
            self.lut(),
            self.pair_lut(),
            granularity,
            scales,
            data,
        )
    }

    /// Encodes a value that lies on the format grid, via the direct-map
    /// table: one shift and one load per element, with a **branchless**
    /// sign-bit fold (gradient signs are coin flips the predictor cannot
    /// learn). Signed zeros round-trip bitwise: zero occupies key 0 of the
    /// table, so `-0.0` folds to code `half` like any negative.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `q` is not a representable value; release builds
    /// fall back to the nearest table entry.
    #[inline]
    pub fn encode(&self, q: f32) -> u8 {
        let half = (self.width.lut_len() / 2) as u8;
        let bits = q.to_bits();
        let sign = ((bits >> 31) as u8) * half;
        let key = ((bits & 0x7FFF_FFFF) >> self.enc_shift) as usize;
        if let Some(&idx) = self.enc_table.get(key) {
            if idx != ENC_EMPTY {
                debug_assert_eq!(
                    self.nonneg[idx as usize].to_bits(),
                    bits & 0x7FFF_FFFF,
                    "{q} is not on the format grid"
                );
                return sign + idx;
            }
        }
        self.encode_binary_search(q)
    }

    /// The reference encode path: per-element binary search over the sorted
    /// value table. [`Codebook::encode`] must agree with it code-for-code on
    /// every grid value (property-tested); it also serves as the fallback
    /// for off-grid inputs, where it picks the nearest table entry.
    pub fn encode_binary_search(&self, q: f32) -> u8 {
        let half = (self.width.lut_len() / 2) as u8;
        let sign = if q.is_sign_negative() { half } else { 0 };
        if q == 0.0 {
            // Signed zeros round-trip bitwise: lut[half] is -0.0.
            return sign;
        }
        let a = q.abs();
        let idx = match self
            .nonneg
            .binary_search_by(|v| v.partial_cmp(&a).expect("table values are finite"))
        {
            Ok(i) => i,
            Err(i) => {
                debug_assert!(false, "{a} is not on the format grid");
                // Nearest neighbour as a safe fallback.
                if i == 0 {
                    0
                } else if i >= self.nonneg.len() {
                    self.nonneg.len() - 1
                } else if a - self.nonneg[i - 1] <= self.nonneg[i] - a {
                    i - 1
                } else {
                    i
                }
            }
        };
        sign + idx as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::int::IntFormat;

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
        assert!(ElementFormat::from(IntFormat::new(16)).codebook().is_none());
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

    /// The fused nearest-rounding path must agree with the two-step
    /// quantize→encode oracle on the hardest inputs: exact rounding-tie
    /// midpoints (both signs), every grid value, signed zeros, NaN and
    /// infinities. Continuous random data (the property tests) essentially
    /// never lands on a tie, so this pins the boundary semantics directly.
    #[test]
    fn fused_nearest_path_matches_oracle_on_exact_ties() {
        use crate::quantizer::{Quantizer, Rounding};

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

    #[test]
    fn direct_map_encode_matches_binary_search_on_every_grid_value() {
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
            for code in 0..cb.values() {
                let v = lut[code];
                assert_eq!(cb.encode(v), cb.encode_binary_search(v));
                assert_eq!(cb.encode(-v), cb.encode_binary_search(-v));
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
