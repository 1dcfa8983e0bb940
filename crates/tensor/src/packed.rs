//! Bit-packed subbyte tensors and the quantized GEMM kernels that consume
//! them.
//!
//! The fake-quantization path emulates low-precision GEMMs by rounding
//! operands and immediately re-materializing them as dense `f32` — it gets
//! the *numerics* right but none of the *systems* benefit. [`QTensor`] is
//! the real representation: each element is a small integer **code** (a
//! nibble for 4-bit formats, a byte for 8-bit), decoded through a per-format
//! lookup table and a per-group scale:
//!
//! ```text
//!              ┌ data: packed codes, row-major ───────────────┐
//!   4-bit      │ byte 0: [c1|c0]  byte 1: [c3|c2]  …          │  0.5 B/elem
//!   8-bit      │ byte 0:  c0      byte 1:  c1      …          │  1   B/elem
//!              └──────────────────────────────────────────────┘
//!   lut:    code → representable value        (16 or 256 × f32)
//!   scales: group → decode multiplier         (one f32 per scale group)
//!
//!   value(r, c) = lut[code(r, c)] * scales[group(r, c)]
//! ```
//!
//! The GEMM kernels ([`qgemm`], [`qgemm_nt`], [`qgemm_tn`]) are the *same
//! code* as the dense kernels in [`crate::matmul`]: both families wrap the
//! cache-blocked engine in `crate::engine`, which borrows dense rows in
//! place and decodes packed rows block-wise into reusable per-worker
//! scratch (each packed row is decoded once per block sweep). The
//! per-element accumulation order is therefore *identical*, so a quantized
//! GEMM over packed operands returns bit-for-bit the same result as the
//! dense GEMM over the dequantized operands. Mixed packed×dense products
//! are supported through [`QOperandRef`].
//!
//! 4-bit rows decode through a 256-entry byte → value-pair table
//! ([`QTensor::pair_table`]): one byte load yields both decoded elements
//! with no per-element parity branch.
//!
//! This crate stays format-agnostic: the lookup table and scales are built
//! by `snip-quant`, which knows about FP4/FP8/INT codecs. [`GroupLayout`]
//! (`crate::granularity`) says which elements share a scale and in what
//! order the scales are stored.

use crate::engine::Round;
use crate::granularity::GroupLayout;
use crate::matmul::{for_each_row_chunk, DECODE_PARALLEL_THRESHOLD};
use crate::pool::parts_for;
use crate::Tensor;
use serde::{de_field, Content, Deserialize, Error as SerdeError, Serialize};
use std::sync::Arc;

/// Storage width of one code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeWidth {
    /// 4-bit codes, two per byte (FP4 E2M1, INT4, narrower integer grids).
    U4,
    /// 8-bit codes, one per byte (FP8 variants, INT8).
    U8,
}

impl CodeWidth {
    /// Number of entries a decode table for this width must have.
    pub fn lut_len(self) -> usize {
        match self {
            CodeWidth::U4 => 16,
            CodeWidth::U8 => 256,
        }
    }

    /// Storage bits per element.
    pub fn bits(self) -> u32 {
        match self {
            CodeWidth::U4 => 4,
            CodeWidth::U8 => 8,
        }
    }

    /// Packed bytes needed for one row of `cols` codes (4-bit rows are
    /// padded to whole bytes so rows stay independently addressable).
    pub fn row_bytes(self, cols: usize) -> usize {
        match self {
            CodeWidth::U4 => cols.div_ceil(2),
            CodeWidth::U8 => cols,
        }
    }
}

/// A bit-packed low-precision tensor: codes + decode table + group scales.
///
/// Invariants: `lut.len() == width.lut_len()`, `scales.len() ==
/// layout.group_count(rows, cols)`, and every stored code indexes a valid
/// table entry. Quantizers construct through
/// [`QTensor::from_parts_with_pair`] (a filled code buffer);
/// [`QTensor::new_zeroed`] + [`QTensor::set_code`] is the element-wise
/// form (all-zero codes are valid: code 0 decodes to 0).
///
/// Serialization stores the codes, scales and decode table verbatim, so a
/// deserialized tensor decodes bit-for-bit identically (packed optimizer
/// state survives checkpoint round trips exactly); the decode table (and
/// the pair table derived from it) loses its cross-tensor interning until
/// the owning format re-quantizes.
#[derive(Clone, Debug, PartialEq)]
pub struct QTensor {
    rows: usize,
    cols: usize,
    width: CodeWidth,
    /// Packed codes, row-major, rows padded to whole bytes.
    data: Vec<u8>,
    /// Code → representable value. Shared per format (a decode table is
    /// format metadata, not per-tensor data), so cloning a `QTensor` or
    /// quantizing many tensors of one format stores the table once.
    lut: Arc<[f32]>,
    /// Byte → decoded `[low nibble, high nibble]` value pairs, flattened
    /// (`pair[2b]`, `pair[2b + 1]`), for 4-bit codes; empty for byte-wide
    /// codes. Derived from `lut` (see [`QTensor::pair_table`]), shared per
    /// format like `lut` when built through a quantizer, and never
    /// serialized — deserialization rebuilds it.
    pair: Arc<[f32]>,
    layout: GroupLayout,
    /// Cached `layout.col_groups(cols)`.
    col_groups: usize,
    /// Group → decode multiplier.
    scales: Vec<f32>,
}

impl Serialize for QTensor {
    fn to_content(&self) -> Content {
        // Field-for-field what `#[derive(Serialize)]` emitted before the
        // derived `pair` table existed — the serialized form is unchanged.
        Content::Map(vec![
            (String::from("rows"), self.rows.to_content()),
            (String::from("cols"), self.cols.to_content()),
            (String::from("width"), self.width.to_content()),
            (String::from("data"), self.data.to_content()),
            (String::from("lut"), self.lut.to_content()),
            (String::from("layout"), self.layout.to_content()),
            (String::from("col_groups"), self.col_groups.to_content()),
            (String::from("scales"), self.scales.to_content()),
        ])
    }
}

impl Deserialize for QTensor {
    fn from_content(c: &Content) -> Result<Self, SerdeError> {
        let lut: Arc<[f32]> = de_field(c, "lut")?;
        Ok(QTensor {
            rows: de_field(c, "rows")?,
            cols: de_field(c, "cols")?,
            width: de_field(c, "width")?,
            data: de_field(c, "data")?,
            pair: QTensor::pair_table(&lut).into(),
            lut,
            layout: de_field(c, "layout")?,
            col_groups: de_field(c, "col_groups")?,
            scales: de_field(c, "scales")?,
        })
    }
}

impl QTensor {
    /// Creates a packed tensor with all codes zero.
    ///
    /// # Panics
    ///
    /// Panics if the lookup table or scale vector lengths do not match the
    /// width/layout.
    pub fn new_zeroed(
        rows: usize,
        cols: usize,
        width: CodeWidth,
        lut: impl Into<Arc<[f32]>>,
        layout: GroupLayout,
        scales: Vec<f32>,
    ) -> Self {
        let lut = lut.into();
        assert_eq!(
            lut.len(),
            width.lut_len(),
            "decode table must have {} entries",
            width.lut_len()
        );
        assert_eq!(
            scales.len(),
            layout.group_count(rows, cols),
            "scale count must match {layout:?} on {rows}x{cols}"
        );
        QTensor {
            rows,
            cols,
            width,
            data: vec![0u8; rows * width.row_bytes(cols)],
            pair: QTensor::pair_table(&lut).into(),
            lut,
            layout,
            col_groups: layout.col_groups(cols),
            scales,
        }
    }

    /// The byte → value-pair expansion of a 4-bit decode table: entry `2b`
    /// is the low-nibble value of byte `b`, entry `2b + 1` the high-nibble
    /// value. This is the table the branch-free 4-bit decode loop reads —
    /// one byte load yields both elements. Tables longer than 16 entries
    /// (byte-wide codes) have no pair expansion and yield an empty vector.
    ///
    /// Quantizers intern the expansion per format (it is format metadata,
    /// exactly like the decode table itself) and pass it through
    /// [`QTensor::from_parts_with_pair`]; the plain constructors build a
    /// private copy.
    pub fn pair_table(lut: &[f32]) -> Vec<f32> {
        if lut.len() != CodeWidth::U4.lut_len() {
            return Vec::new();
        }
        let mut pair = vec![0.0f32; 512];
        for (b, p) in pair.chunks_exact_mut(2).enumerate() {
            p[0] = lut[b & 0x0F];
            p[1] = lut[b >> 4];
        }
        pair
    }

    /// Expected pair-table length for a width: 512 for 4-bit codes (256
    /// bytes × 2 elements), 0 for byte-wide codes.
    fn pair_len(width: CodeWidth) -> usize {
        match width {
            CodeWidth::U4 => 512,
            CodeWidth::U8 => 0,
        }
    }

    /// Creates a packed tensor from an already-filled code buffer (the bulk
    /// construction path quantizers use — no per-element `set_code` calls)
    /// and a caller-supplied (typically interned) pair table, so quantizers
    /// share one expansion per format instead of rebuilding 2 KiB per
    /// tensor. The table must be exactly [`QTensor::pair_table`] of `lut`.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length does not match the shape/width/layout,
    /// or (debug) if `pair` disagrees with `lut`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_with_pair(
        rows: usize,
        cols: usize,
        width: CodeWidth,
        lut: impl Into<Arc<[f32]>>,
        pair: Arc<[f32]>,
        layout: GroupLayout,
        scales: Vec<f32>,
        data: Vec<u8>,
    ) -> Self {
        let lut = lut.into();
        assert_eq!(
            data.len(),
            rows * width.row_bytes(cols),
            "code buffer length must match {rows}x{cols} at {width:?}"
        );
        assert_eq!(
            lut.len(),
            width.lut_len(),
            "decode table must have {} entries",
            width.lut_len()
        );
        assert_eq!(
            pair.len(),
            Self::pair_len(width),
            "pair table length must match {width:?}"
        );
        debug_assert!(
            pair.iter()
                .zip(QTensor::pair_table(&lut))
                .all(|(&a, b)| a.to_bits() == b.to_bits()),
            "pair table must be the expansion of the decode table"
        );
        assert_eq!(
            scales.len(),
            layout.group_count(rows, cols),
            "scale count must match {layout:?} on {rows}x{cols}"
        );
        QTensor {
            rows,
            cols,
            width,
            data,
            lut,
            pair,
            layout,
            col_groups: layout.col_groups(cols),
            scales,
        }
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code storage width.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// The scale-group layout.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// The decode table.
    pub fn lut(&self) -> &[f32] {
        &self.lut
    }

    /// The per-group decode multipliers.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The packed code bytes.
    pub fn packed_data(&self) -> &[u8] {
        &self.data
    }

    /// Stores a code at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or the code does not fit the width.
    #[inline]
    pub fn set_code(&mut self, r: usize, c: usize, code: u8) {
        assert!(r < self.rows && c < self.cols, "({r}, {c}) out of bounds");
        match self.width {
            CodeWidth::U4 => {
                assert!(code < 16, "code {code} does not fit 4 bits");
                let byte = &mut self.data[r * self.cols.div_ceil(2) + c / 2];
                if c.is_multiple_of(2) {
                    *byte = (*byte & 0xF0) | code;
                } else {
                    *byte = (*byte & 0x0F) | (code << 4);
                }
            }
            CodeWidth::U8 => self.data[r * self.cols + c] = code,
        }
    }

    /// Reads the code at `(r, c)`.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> u8 {
        debug_assert!(r < self.rows && c < self.cols);
        match self.width {
            CodeWidth::U4 => {
                let byte = self.data[r * self.cols.div_ceil(2) + c / 2];
                if c.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                }
            }
            CodeWidth::U8 => self.data[r * self.cols + c],
        }
    }

    /// Decodes the element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let scale = self.scales[self.layout.group_index(r, c, self.col_groups)];
        self.lut[self.code(r, c) as usize] * scale
    }

    /// Decodes row `r` into `out` (length `cols`). This is the hot decode
    /// path of the GEMM engine; scales are applied per constant-scale run
    /// rather than per element, and 4-bit runs decode two elements per byte
    /// load through the pair table with no parity branch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols` or `r` is out of bounds.
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "decode buffer length mismatch");
        self.decode_row_range_into(r, 0, self.cols, out);
    }

    /// Decodes the column range `[c0, c1)` of row `r` into `out` (length
    /// `c1 - c0`) — the tile-segment decode of the blocked GEMM engine.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`, the range is out of bounds or reversed, or
    /// `out.len() != c1 - c0`.
    pub fn decode_row_range_into(&self, r: usize, c0: usize, c1: usize, out: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of bounds");
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "range {c0}..{c1} out of bounds"
        );
        assert_eq!(out.len(), c1 - c0, "decode buffer length mismatch");
        let mut c = c0;
        while c < c1 {
            let run_end = (c + self.layout.run_len(c, self.cols)).min(c1);
            let scale = self.scales[self.layout.group_index(r, c, self.col_groups)];
            match self.width {
                CodeWidth::U8 => {
                    let base = r * self.cols;
                    crate::engine::simd::decode_u8_run(
                        &self.data[base + c..base + run_end],
                        &self.lut,
                        scale,
                        &mut out[c - c0..run_end - c0],
                    );
                }
                CodeWidth::U4 => {
                    self.decode_u4_run(r, c, run_end, scale, &mut out[c - c0..run_end - c0])
                }
            }
            c = run_end;
        }
    }

    /// Decodes the 4-bit run `[c, end)` of row `r` (one constant scale)
    /// via the pair table: an optional unaligned head nibble, then **two
    /// elements per byte load with no parity branch**, then an optional
    /// tail nibble.
    fn decode_u4_run(&self, r: usize, c: usize, end: usize, scale: f32, out: &mut [f32]) {
        let stride = self.cols.div_ceil(2);
        let row = &self.data[r * stride..(r + 1) * stride];
        let pair = &self.pair;
        let mut c = c;
        let mut o = 0;
        if c % 2 == 1 && c < end {
            out[o] = pair[(row[c / 2] as usize) * 2 + 1] * scale;
            c += 1;
            o += 1;
        }
        let pairs = (end - c) / 2;
        let bytes = &row[c / 2..c / 2 + pairs];
        crate::engine::simd::decode_u4_pairs(
            bytes,
            &self.lut,
            pair,
            scale,
            &mut out[o..o + 2 * pairs],
        );
        if (end - c) % 2 == 1 {
            out[o + 2 * pairs] = pair[(row[(end - 1) / 2] as usize) * 2] * scale;
        }
    }

    /// Decodes the whole tensor into a dense `f32` tensor. Bit-for-bit
    /// identical to what the packing quantizer's fake-quantization path
    /// would have produced. Multi-megabyte tensors decode their row ranges
    /// in parallel on the worker pool (rows are independent, so the result
    /// is identical at every pool size).
    pub fn dequantize(&self) -> Tensor {
        let mut t = Tensor::zeros(self.rows, self.cols);
        let parts = parts_for(self.len(), DECODE_PARALLEL_THRESHOLD);
        let cols = self.cols;
        for_each_row_chunk(
            self.rows,
            parts,
            t.as_mut_slice(),
            cols,
            |start, end, chunk| {
                for r in start..end {
                    self.decode_row_into(r, &mut chunk[(r - start) * cols..(r - start + 1) * cols]);
                }
            },
        );
        t
    }

    /// Bytes of packed code storage (what HBM would hold for the elements).
    pub fn packed_data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes of scale storage.
    pub fn scale_bytes(&self) -> usize {
        self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Bytes a collective must move for this tensor: codes + scales (the
    /// decode table is format metadata, shared per format, not per tensor).
    pub fn wire_bytes(&self) -> u64 {
        (self.packed_data_bytes() + self.scale_bytes()) as u64
    }

    /// Total resident bytes of this value: codes, scales and the container
    /// itself. The decode table is shared per format (an `Arc` owned by the
    /// format's codebook), so it amortizes to zero across tensors and is
    /// not charged here.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.packed_data_bytes() + self.scale_bytes()
    }
}

/// One GEMM operand: either a dense `f32` tensor (borrowed rows, no copy)
/// or a packed tensor (rows decoded into caller scratch on demand).
#[derive(Clone, Copy, Debug)]
pub enum QOperandRef<'a> {
    /// Dense operand.
    Dense(&'a Tensor),
    /// Packed operand.
    Packed(&'a QTensor),
}

impl<'a> From<&'a Tensor> for QOperandRef<'a> {
    fn from(t: &'a Tensor) -> Self {
        QOperandRef::Dense(t)
    }
}

impl<'a> From<&'a QTensor> for QOperandRef<'a> {
    fn from(t: &'a QTensor) -> Self {
        QOperandRef::Packed(t)
    }
}

impl QOperandRef<'_> {
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            QOperandRef::Dense(t) => t.shape(),
            QOperandRef::Packed(t) => t.shape(),
        }
    }

    /// The element at `(r, c)` (decoded if packed).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        match self {
            QOperandRef::Dense(t) => t[(r, c)],
            QOperandRef::Packed(t) => t.get(r, c),
        }
    }

    /// Rows `[r0, r1)` as one contiguous row-major block: a direct borrow
    /// for dense operands (their rows are already contiguous), a block
    /// decode into `scratch` for packed ones. Called once per block sweep
    /// by the GEMM engine — this is what bounds packed-row decoding to one
    /// decode per sweep.
    pub(crate) fn rows_block<'s>(
        &'s self,
        r0: usize,
        r1: usize,
        scratch: &'s mut Vec<f32>,
    ) -> &'s [f32] {
        match self {
            QOperandRef::Dense(t) => &t.as_slice()[r0 * t.cols()..r1 * t.cols()],
            QOperandRef::Packed(t) => {
                let cols = t.cols();
                let buf = prep(scratch, (r1 - r0) * cols);
                for r in r0..r1 {
                    t.decode_row_into(r, &mut buf[(r - r0) * cols..(r - r0 + 1) * cols]);
                }
                buf
            }
        }
    }
}

/// Grows `scratch` to at least `len` and returns the `len`-prefix. Contents
/// are unspecified — callers overwrite every element. Never shrinks, so a
/// pool worker's scratch reaches a steady state and stops allocating.
pub(crate) fn prep(scratch: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
}

/// `C = A · B` over packed/dense operands (`A`: `M×K`, `B`: `K×N`).
///
/// Bit-for-bit identical to `matmul(&a.dequantize(), &b.dequantize())` —
/// not by analogy but by construction: both run the cache-blocked engine in
/// `crate::engine`, which visits `k` in ascending order per output element
/// regardless of operand storage.
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn qgemm(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (_, k) = a.shape();
    let (kb, _) = b.shape();
    assert_eq!(k, kb, "qgemm: inner dims differ ({k} vs {kb})");
    crate::engine::gemm_nn(&a, &b, Round::Keep)
}

/// [`qgemm`] with the BF16 output rounding fused into the tile store:
/// bit-identical to `qgemm` followed by [`crate::bf16::round_slice`] on
/// the result, without the second pass over the output. This is the
/// quantized-GEMM form SNIP's linear layers use — their outputs live in
/// BF16 "high precision" (paper Fig. 5).
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn qgemm_bf16(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (_, k) = a.shape();
    let (kb, _) = b.shape();
    assert_eq!(k, kb, "qgemm_bf16: inner dims differ ({k} vs {kb})");
    crate::engine::gemm_nn(&a, &b, Round::Bf16)
}

/// `C = A · Bᵀ` over packed/dense operands (`A`: `M×K`, `B`: `N×K`) — the
/// forward GEMM of a linear layer with `out × in` weights. Each output
/// element is a single sequential dot product over `k`; packed rows are
/// decoded once per block sweep. Bit-identical to `matmul_nt` on the
/// dequantized operands (shared engine).
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn qgemm_nt(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (_, k) = a.shape();
    let (_, kb) = b.shape();
    assert_eq!(k, kb, "qgemm_nt: inner dims differ ({k} vs {kb})");
    crate::engine::gemm_nt(&a, &b, Round::Keep)
}

/// [`qgemm_nt`] with fused BF16 output rounding — see [`qgemm_bf16`].
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn qgemm_nt_bf16(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (_, k) = a.shape();
    let (_, kb) = b.shape();
    assert_eq!(k, kb, "qgemm_nt_bf16: inner dims differ ({k} vs {kb})");
    crate::engine::gemm_nt(&a, &b, Round::Bf16)
}

/// `C = Aᵀ · B` over packed/dense operands (`A`: `K×M`, `B`: `K×N`) — the
/// weight-gradient GEMM `dW = dYᵀ · X`. Bit-identical to `matmul_tn` on
/// the dequantized operands (shared engine).
///
/// # Panics
///
/// Panics if outer dimensions differ.
pub fn qgemm_tn(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (k, _) = a.shape();
    let (kb, _) = b.shape();
    assert_eq!(k, kb, "qgemm_tn: outer dims differ ({k} vs {kb})");
    crate::engine::gemm_tn(&a, &b, Round::Keep)
}

/// [`qgemm_tn`] with fused BF16 output rounding — see [`qgemm_bf16`].
///
/// # Panics
///
/// Panics if outer dimensions differ.
pub fn qgemm_tn_bf16(a: QOperandRef<'_>, b: QOperandRef<'_>) -> Tensor {
    let (k, _) = a.shape();
    let (kb, _) = b.shape();
    assert_eq!(k, kb, "qgemm_tn_bf16: outer dims differ ({k} vs {kb})");
    crate::engine::gemm_tn(&a, &b, Round::Bf16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{matmul, matmul_nt, matmul_tn};
    use crate::rng::Rng;

    /// A little 4-bit sign-magnitude codebook over {0, 0.5, 1, 1.5, …}:
    /// enough structure to exercise packing without snip-quant.
    fn test_lut_u4() -> Vec<f32> {
        let mut lut = vec![0.0f32; 16];
        for i in 0..8 {
            lut[i] = i as f32 * 0.5;
            lut[8 + i] = -(i as f32 * 0.5);
        }
        lut
    }

    fn random_qtensor(rows: usize, cols: usize, layout: GroupLayout, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from(seed);
        let groups = layout.group_count(rows, cols);
        let scales: Vec<f32> = (0..groups).map(|_| 0.25 + rng.next_f32()).collect();
        let mut q = QTensor::new_zeroed(rows, cols, CodeWidth::U4, test_lut_u4(), layout, scales);
        for r in 0..rows {
            for c in 0..cols {
                q.set_code(r, c, (rng.next_u64() % 16) as u8);
            }
        }
        q
    }

    #[test]
    fn codes_round_trip_u4_and_u8() {
        for width in [CodeWidth::U4, CodeWidth::U8] {
            let lut = vec![0.0f32; width.lut_len()];
            let mut q = QTensor::new_zeroed(3, 5, width, lut, GroupLayout::Tensorwise, vec![1.0]);
            let limit = match width {
                CodeWidth::U4 => 16u8,
                CodeWidth::U8 => 255,
            };
            for r in 0..3 {
                for c in 0..5 {
                    q.set_code(r, c, ((r * 5 + c) as u8 * 7) % limit);
                }
            }
            for r in 0..3 {
                for c in 0..5 {
                    assert_eq!(q.code(r, c), ((r * 5 + c) as u8 * 7) % limit, "{width:?}");
                }
            }
        }
    }

    #[test]
    fn set_code_does_not_disturb_nibble_neighbours() {
        let mut q = QTensor::new_zeroed(
            1,
            4,
            CodeWidth::U4,
            test_lut_u4(),
            GroupLayout::Tensorwise,
            vec![1.0],
        );
        q.set_code(0, 0, 0xA);
        q.set_code(0, 1, 0x3);
        q.set_code(0, 0, 0x5); // rewrite low nibble
        assert_eq!(q.code(0, 0), 0x5);
        assert_eq!(q.code(0, 1), 0x3);
    }

    #[test]
    fn decode_row_matches_get_for_every_layout() {
        for layout in [
            GroupLayout::Tensorwise,
            GroupLayout::Rowwise,
            GroupLayout::Columnwise,
            GroupLayout::Block { nb: 3 },
            GroupLayout::Tile { nb: 3 },
        ] {
            let q = random_qtensor(5, 7, layout, 11);
            let d = q.dequantize();
            for r in 0..5 {
                for c in 0..7 {
                    assert_eq!(d[(r, c)], q.get(r, c), "{layout:?} at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn group_counts_and_indices_are_consistent() {
        for layout in [
            GroupLayout::Tensorwise,
            GroupLayout::Rowwise,
            GroupLayout::Columnwise,
            GroupLayout::Block { nb: 4 },
            GroupLayout::Tile { nb: 4 },
        ] {
            let (rows, cols) = (6, 10);
            let count = layout.group_count(rows, cols);
            let cg = layout.col_groups(cols);
            for r in 0..rows {
                for c in 0..cols {
                    let g = layout.group_index(r, c, cg);
                    assert!(g < count, "{layout:?}: index {g} >= count {count}");
                }
            }
        }
        assert_eq!(GroupLayout::Tensorwise.group_count(0, 8), 0);
    }

    #[test]
    fn packed_storage_is_half_byte_per_element() {
        let q = random_qtensor(64, 128, GroupLayout::Tile { nb: 32 }, 5);
        assert_eq!(q.packed_data_bytes(), 64 * 64);
        assert_eq!(q.scale_bytes(), 64 * 4 * 4);
        let per_elem = q.resident_bytes() as f64 / q.len() as f64;
        assert!(per_elem < 0.7, "bytes/element = {per_elem}");
    }

    #[test]
    fn odd_width_rows_are_padded_per_row() {
        let q = random_qtensor(3, 5, GroupLayout::Rowwise, 6);
        // Each 5-code row occupies 3 bytes; rows must not share bytes.
        assert_eq!(q.packed_data_bytes(), 9);
        let d = q.dequantize();
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(d[(r, c)], q.get(r, c));
            }
        }
    }

    fn gemm_trio_matches_dense(layout_a: GroupLayout, layout_b: GroupLayout, seed: u64) {
        let (m, k, n) = (9, 14, 11);
        let a = random_qtensor(m, k, layout_a, seed);
        let b = random_qtensor(k, n, layout_b, seed + 1);
        let (da, db) = (a.dequantize(), b.dequantize());

        let c = qgemm(QOperandRef::from(&a), QOperandRef::from(&b));
        assert_eq!(c, matmul(&da, &db), "qgemm {layout_a:?}x{layout_b:?}");

        let bt = random_qtensor(n, k, layout_b, seed + 2);
        let dbt = bt.dequantize();
        let c = qgemm_nt(QOperandRef::from(&a), QOperandRef::from(&bt));
        assert_eq!(
            c,
            matmul_nt(&da, &dbt),
            "qgemm_nt {layout_a:?}x{layout_b:?}"
        );

        let at = random_qtensor(k, m, layout_a, seed + 3);
        let dat = at.dequantize();
        let c = qgemm_tn(QOperandRef::from(&at), QOperandRef::from(&b));
        assert_eq!(
            c,
            matmul_tn(&dat, &db),
            "qgemm_tn {layout_a:?}x{layout_b:?}"
        );
    }

    #[test]
    fn qgemm_kernels_bit_match_dense_kernels() {
        gemm_trio_matches_dense(
            GroupLayout::Tile { nb: 4 },
            GroupLayout::Block { nb: 4 },
            21,
        );
        gemm_trio_matches_dense(GroupLayout::Rowwise, GroupLayout::Columnwise, 22);
        gemm_trio_matches_dense(GroupLayout::Tensorwise, GroupLayout::Tile { nb: 5 }, 23);
    }

    #[test]
    fn mixed_packed_dense_operands_bit_match() {
        let mut rng = Rng::seed_from(31);
        let a = random_qtensor(8, 12, GroupLayout::Tile { nb: 4 }, 32);
        let da = a.dequantize();
        let b = Tensor::randn(12, 10, 1.0, &mut rng);
        assert_eq!(
            qgemm(QOperandRef::from(&a), QOperandRef::from(&b)),
            matmul(&da, &b)
        );
        assert_eq!(
            qgemm(QOperandRef::from(&da), QOperandRef::from(&b)),
            matmul(&da, &b)
        );
        let bt = Tensor::randn(10, 12, 1.0, &mut rng);
        assert_eq!(
            qgemm_nt(QOperandRef::from(&a), QOperandRef::from(&bt)),
            matmul_nt(&da, &bt)
        );
    }

    #[test]
    fn large_parallel_qgemm_bit_matches() {
        // Big enough to cross the threading threshold in matmul.
        let a = random_qtensor(128, 160, GroupLayout::Tile { nb: 32 }, 41);
        let b = random_qtensor(160, 112, GroupLayout::Block { nb: 32 }, 42);
        let (da, db) = (a.dequantize(), b.dequantize());
        assert_eq!(
            qgemm(QOperandRef::from(&a), QOperandRef::from(&b)),
            matmul(&da, &db)
        );
        let bt = random_qtensor(112, 160, GroupLayout::Tile { nb: 32 }, 43);
        let dbt = bt.dequantize();
        assert_eq!(
            qgemm_nt(QOperandRef::from(&a), QOperandRef::from(&bt)),
            matmul_nt(&da, &dbt)
        );
        let at = random_qtensor(160, 128, GroupLayout::Block { nb: 32 }, 44);
        let dat = at.dequantize();
        assert_eq!(
            qgemm_tn(QOperandRef::from(&at), QOperandRef::from(&b)),
            matmul_tn(&dat, &db)
        );
    }

    #[test]
    fn empty_dims_work() {
        let a = QTensor::new_zeroed(
            0,
            4,
            CodeWidth::U4,
            test_lut_u4(),
            GroupLayout::Rowwise,
            vec![],
        );
        let b = random_qtensor(4, 3, GroupLayout::Rowwise, 51);
        let wide = random_qtensor(3, 4, GroupLayout::Rowwise, 52);
        let none = QTensor::new_zeroed(
            4,
            0,
            CodeWidth::U4,
            test_lut_u4(),
            GroupLayout::Rowwise,
            vec![],
        );
        // Serial, and with the pool split forced (no band may be cut from
        // a zero-width output).
        for split in [1, 2] {
            crate::pool::with_threads(split, || {
                let c = qgemm(QOperandRef::from(&a), QOperandRef::from(&b));
                assert_eq!(c.shape(), (0, 3));
                let c = qgemm(QOperandRef::from(&wide), QOperandRef::from(&none));
                assert_eq!(c.shape(), (3, 0));
                assert_eq!(none.dequantize().shape(), (4, 0));
            });
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn shape_mismatch_panics() {
        let a = random_qtensor(2, 3, GroupLayout::Rowwise, 61);
        let b = random_qtensor(4, 2, GroupLayout::Rowwise, 62);
        let _ = qgemm(QOperandRef::from(&a), QOperandRef::from(&b));
    }

    #[test]
    fn decode_row_range_matches_get_for_every_layout_and_range() {
        for layout in [
            GroupLayout::Tensorwise,
            GroupLayout::Rowwise,
            GroupLayout::Columnwise,
            GroupLayout::Block { nb: 3 },
            GroupLayout::Tile { nb: 3 },
        ] {
            let q = random_qtensor(4, 11, layout, 83);
            for c0 in 0..=11 {
                for c1 in c0..=11 {
                    let mut out = vec![0.0f32; c1 - c0];
                    for r in 0..4 {
                        q.decode_row_range_into(r, c0, c1, &mut out);
                        for (i, &v) in out.iter().enumerate() {
                            assert_eq!(
                                v.to_bits(),
                                q.get(r, c0 + i).to_bits(),
                                "{layout:?} row {r} range {c0}..{c1} elem {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_table_decode_matches_per_code_lut() {
        // Every byte value must decode to exactly lut[low], lut[high].
        let lut = test_lut_u4();
        let pair = QTensor::pair_table(&lut);
        assert_eq!(pair.len(), 512);
        for b in 0..256usize {
            assert_eq!(pair[2 * b].to_bits(), lut[b & 0x0F].to_bits());
            assert_eq!(pair[2 * b + 1].to_bits(), lut[b >> 4].to_bits());
        }
        // Byte-wide tables have no pair expansion.
        assert!(QTensor::pair_table(&vec![0.0f32; 256]).is_empty());
    }

    #[test]
    fn serde_round_trip_preserves_decode_and_format() {
        // The `pair` table is derived state: it is not serialized, and a
        // deserialized tensor must rebuild it and decode bit-identically.
        let q = random_qtensor(5, 9, GroupLayout::Tile { nb: 4 }, 91);
        let json = serde_json::to_string(&q).expect("serialize");
        assert!(!json.contains("pair"), "pair table must not be serialized");
        let back: QTensor = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, q);
        let (d0, d1) = (q.dequantize(), back.dequantize());
        for (a, b) in d0.as_slice().iter().zip(d1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Packed codes always decode to finite values, but the *dense* side of
    /// a mixed product can carry NaN/Inf — and a packed zero code must not
    /// mask it (`0 × NaN = NaN`). The old kernels skipped zero A elements
    /// and dropped exactly this propagation; dense and packed kernels now
    /// share one engine with no zero-skip.
    #[test]
    fn packed_zeros_do_not_mask_non_finite_dense_operands() {
        // A: packed, all-zero codes (decodes to exact 0.0 everywhere).
        let a = QTensor::new_zeroed(
            3,
            4,
            CodeWidth::U4,
            test_lut_u4(),
            GroupLayout::Rowwise,
            vec![1.0; 3],
        );
        let mut b = Tensor::zeros(4, 5);
        b[(1, 2)] = f32::NAN;
        b[(3, 0)] = f32::INFINITY;
        let c = qgemm(QOperandRef::from(&a), QOperandRef::from(&b));
        assert!(c[(0, 2)].is_nan(), "0-code · NaN must propagate");
        assert!(c[(0, 0)].is_nan(), "0-code · Inf must yield NaN");
        assert_eq!(c[(1, 1)], 0.0);

        // Same through the tn orientation.
        let at = QTensor::new_zeroed(
            4,
            3,
            CodeWidth::U4,
            test_lut_u4(),
            GroupLayout::Rowwise,
            vec![1.0; 4],
        );
        let c = qgemm_tn(QOperandRef::from(&at), QOperandRef::from(&b));
        assert!(c[(2, 2)].is_nan());
        assert!(c[(1, 0)].is_nan());
    }

    #[test]
    fn wire_bytes_counts_codes_and_scales() {
        let q = random_qtensor(4, 32, GroupLayout::Tile { nb: 16 }, 71);
        assert_eq!(q.wire_bytes(), (4 * 16 + 4 * 2 * 4) as u64);
    }
}
