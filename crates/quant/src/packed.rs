//! The codes-based canonical quantization path.
//!
//! Every [`crate::Quantizer`] packs into one canonical representation,
//! [`PackedTensor`], through one trait, [`PackedQuantize`], and fake
//! quantization is *derived* from it (decode of the packed form).
//! `Quantizer::fake_quantize` remains as the reference oracle — the packed
//! path is bit- and RNG-stream-identical to it, which the property tests in
//! `tests/packed_equivalence.rs` pin format × granularity × rounding ×
//! recipe.
//!
//! Each scaled [`crate::Recipe`] contributes one packed shape:
//!
//! * `MaxAbs` — codes plus per-group f32 scales ([`PackedTensor::Codes`]).
//! * `Mx` — codes under `1×32` tiles with **power-of-two E8M0** decode
//!   scales ([`PackedTensor::Mx`]; one byte per scale on the wire).
//! * `Rht` — codes of the *rotated* domain plus the rotation block length
//!   and seed ([`PackedTensor::Rotated`]); decode inverts the rotation.
//! * `Outlier` — a packed dense body whose scales saw only inliers, plus a
//!   sparse BF16 outlier list ([`PackedTensor::Split`]).
//!
//! To add a quantization method in tree, add a `Recipe` arm and, if its
//! packed form needs new metadata, a `PackedTensor` shape. Out of tree,
//! implementing [`PackedQuantize`] reaches only the code that is generic
//! over it — today the analytic comm-volume accounting
//! (`snip_pipeline::comm::codec_wire_bytes`). Linear-layer caches,
//! optimizer moments and collective wires hold the concrete
//! [`crate::Quantizer`].

use crate::rht;
use snip_tensor::rng::Rng;
use snip_tensor::{QTensor, Tensor};

/// One high-precision element carved out of a packed dense body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PackedOutlier {
    /// Flat row-major element index.
    pub index: u32,
    /// BF16-rounded value (held as f32; 2 bytes on the wire).
    pub value: f32,
}

/// The canonical packed representation every quantizer produces.
///
/// All variants carry their element codes in a [`QTensor`]; they differ in
/// the metadata needed to decode back to the oracle's dense result.
#[derive(Clone, Debug, PartialEq)]
pub enum PackedTensor {
    /// Plain codes + per-group f32 scales (max-abs recipes: FP4/FP8/INT).
    Codes(QTensor),
    /// Codes whose stored scales are power-of-two E8M0 block scales (MX).
    /// Identical in-memory emulation to [`PackedTensor::Codes`], but a wire
    /// ships each scale as its one-byte E8M0 exponent, not an f32.
    Mx(QTensor),
    /// Codes of the RHT-rotated domain; decoding inverts the rotation
    /// reconstructed from `block` and `seed`.
    Rotated {
        /// Packed codes of the rotated tensor.
        codes: QTensor,
        /// Rotation chunk length (power of two).
        block: usize,
        /// Rotation seed (per-length rotations derive from `seed ^ len`).
        seed: u64,
    },
    /// Packed dense body (outlier positions hold code 0) plus the sparse
    /// high-precision outlier list.
    Split {
        /// Packed inlier body; its group scales saw only inliers.
        body: QTensor,
        /// Outliers in ascending index order.
        outliers: Vec<PackedOutlier>,
    },
}

impl PackedTensor {
    /// `(rows, cols)` of the described tensor.
    pub fn shape(&self) -> (usize, usize) {
        self.codes().shape()
    }

    /// The underlying code tensor.
    pub fn codes(&self) -> &QTensor {
        match self {
            PackedTensor::Codes(q) | PackedTensor::Mx(q) => q,
            PackedTensor::Rotated { codes, .. } => codes,
            PackedTensor::Split { body, .. } => body,
        }
    }

    /// Decodes to a dense tensor — bit-for-bit what the producing
    /// quantizer's fake-quantization oracle returns for the same input and
    /// RNG state.
    pub fn dequantize(&self) -> Tensor {
        match self {
            PackedTensor::Codes(q) | PackedTensor::Mx(q) => q.dequantize(),
            PackedTensor::Rotated { codes, block, seed } => {
                let mut t = codes.dequantize();
                rht::rotate_rows(&mut t, *block, *seed, false);
                t
            }
            PackedTensor::Split { body, outliers } => {
                let mut t = body.dequantize();
                let slice = t.as_mut_slice();
                for o in outliers {
                    slice[o.index as usize] = o.value;
                }
                t
            }
        }
    }

    /// Bytes a collective must move for this tensor: packed codes plus
    /// scale factors (f32 for max-abs scales, one E8M0 byte for MX) plus
    /// `4 + 2` bytes per sparse outlier (u32 index + BF16 value). Rotation
    /// block/seed are configuration shared by all tensors of a scheme, like
    /// decode tables, and are not charged per tensor.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            PackedTensor::Codes(q) => q.wire_bytes(),
            PackedTensor::Mx(q) => (q.packed_data_bytes() + q.scales().len()) as u64,
            PackedTensor::Rotated { codes, .. } => codes.wire_bytes(),
            PackedTensor::Split { body, outliers } => body.wire_bytes() + outliers.len() as u64 * 6,
        }
    }

    /// Total resident bytes of the emulation's in-memory value (the MX
    /// variant holds its power-of-two scales as f32 like every other
    /// `QTensor`, so residency is uniform even though wires are not).
    pub fn resident_bytes(&self) -> usize {
        let meta = std::mem::size_of::<Self>() - std::mem::size_of::<QTensor>();
        match self {
            PackedTensor::Codes(q) | PackedTensor::Mx(q) => meta + q.resident_bytes(),
            PackedTensor::Rotated { codes, .. } => meta + codes.resident_bytes(),
            PackedTensor::Split { body, outliers } => {
                meta + body.resident_bytes() + outliers.len() * std::mem::size_of::<PackedOutlier>()
            }
        }
    }

    /// `‖dequantize() − t‖_F` without materialising the dense tensor: rows
    /// are decoded one at a time — bit for bit the rows
    /// [`PackedTensor::dequantize`] produces — so the result equals
    /// `dequantize().distance(t)` exactly.
    pub(crate) fn distance(&self, t: &Tensor) -> f64 {
        assert_eq!(self.shape(), t.shape(), "distance between unlike shapes");
        let cols = t.cols();
        let codes = self.codes();
        let rotation = match self {
            PackedTensor::Rotated { block, seed, .. } => {
                Some(rht::RowRotation::new(cols, *block, *seed))
            }
            _ => None,
        };
        // Ascending indices: each row takes the next run.
        let mut outliers = match self {
            PackedTensor::Split { outliers, .. } => outliers.iter().peekable(),
            _ => [].iter().peekable(),
        };
        streamed_error_norm(t, |r, row| {
            codes.decode_row_into(r, row);
            if let Some(rotation) = &rotation {
                rotation.apply(row, false);
            }
            let end = (r + 1) * cols;
            while let Some(o) = outliers.next_if(|o| (o.index as usize) < end) {
                row[o.index as usize - r * cols] = o.value;
            }
        })
    }
}

/// `‖q(t) − t‖_F` with `q(t)` produced one row at a time, rows ascending:
/// `quantized_row(r, row)` fills `row` with row `r` of `q(t)`. Differences
/// are squared and summed in `f64` in row-major order — [`Tensor::distance`]'s
/// order, so the result equals `q(t).distance(t)` bit for bit.
pub(crate) fn streamed_error_norm(
    t: &Tensor,
    mut quantized_row: impl FnMut(usize, &mut [f32]),
) -> f64 {
    let mut row = vec![0.0f32; t.cols()];
    // `-0.0` is the identity `Iterator::sum` folds from; starting there
    // keeps the equality on an empty tensor too.
    let mut sq = -0.0f64;
    for r in 0..t.rows() {
        quantized_row(r, &mut row);
        for (&q, &x) in row.iter().zip(t.row(r)) {
            let d = (q - x) as f64;
            sq += d * d;
        }
    }
    sq.sqrt()
}

/// The unified quantization interface: packed codes are the canonical
/// output, dense fake quantization is derived by decoding them.
///
/// Implementations guarantee, for every input tensor and RNG state:
///
/// 1. `pack(t, rng).dequantize()` is **bit-identical** to
///    `fake_reference(t, rng')` started from the same RNG state, and
/// 2. both consume the same number of stochastic-rounding draws, so a
///    training trajectory cannot tell which storage was used.
pub trait PackedQuantize {
    /// Quantizes into the canonical packed representation, or `None` when
    /// the target format has no ≤ 8-bit code table (BF16 emulation). A
    /// `None` return consumes no RNG draws.
    fn pack(&self, t: &Tensor, rng: &mut Rng) -> Option<PackedTensor>;

    /// The legacy dense fake-quantization oracle this packed path must
    /// reproduce bit-for-bit. Kept callable forever: the equivalence tests
    /// compare against it.
    fn fake_reference(&self, t: &Tensor, rng: &mut Rng) -> Tensor;

    /// Canonical quantization: decode-of-packed when packable, the dense
    /// oracle otherwise. This is the method generic consumers (wires,
    /// caches) should call when they need a dense result.
    fn quantize(&self, t: &Tensor, rng: &mut Rng) -> Tensor {
        match self.pack(t, rng) {
            Some(p) => p.dequantize(),
            None => self.fake_reference(t, rng),
        }
    }

    /// Analytic wire size of this quantizer's packed output for a
    /// `rows × cols` tensor, matching `pack(..).wire_bytes()` exactly, or
    /// `None` when not packable. Lets comm-volume models account bytes
    /// without materializing data.
    fn packed_wire_bytes(&self, rows: usize, cols: usize) -> Option<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::int::IntFormat;
    use crate::quantizer::{Quantizer, Rounding};

    fn fp4_tile(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    fn assert_bit_identical(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn derived_quantize_equals_oracle_for_all_quantizer_kinds() {
        let mut data_rng = Rng::seed_from(3);
        let mut t = Tensor::randn(6, 40, 1.0, &mut data_rng);
        t[(2, 7)] = 25.0; // give the outlier split something to find
        let q = fp4_tile(8);
        let kinds: Vec<(&str, Box<dyn PackedQuantize>)> = vec![
            ("plain", Box::new(q)),
            (
                "int",
                Box::new(Quantizer::new(
                    IntFormat::int4(),
                    Granularity::Tile { nb: 8 },
                    Rounding::Nearest,
                )),
            ),
            ("mx", Box::new(Quantizer::mxfp4())),
            ("rht", Box::new(q.with_rht(8, 11))),
            ("outlier", Box::new(q.with_outliers(0.01))),
        ];
        for (name, k) in &kinds {
            let mut r1 = Rng::seed_from(5);
            let mut r2 = Rng::seed_from(5);
            let derived = k.quantize(&t, &mut r1);
            let oracle = k.fake_reference(&t, &mut r2);
            assert_bit_identical(&derived, &oracle, name);
            assert_eq!(r1.next_u64(), r2.next_u64(), "{name}: rng stream diverged");
        }
    }

    #[test]
    fn packed_wire_bytes_matches_actual_pack() {
        let mut data_rng = Rng::seed_from(9);
        let t = Tensor::randn(7, 50, 1.5, &mut data_rng);
        let q = fp4_tile(16);
        let kinds: Vec<(&str, Box<dyn PackedQuantize>)> = vec![
            ("plain", Box::new(q)),
            ("int", Box::new(Quantizer::int8_tile(16))),
            ("mx", Box::new(Quantizer::mxfp8())),
            ("rht", Box::new(q.with_rht(16, 3))),
            ("outlier", Box::new(q.with_outliers(0.02))),
        ];
        for (name, k) in &kinds {
            let mut rng = Rng::seed_from(1);
            let packed = k.pack(&t, &mut rng).expect("packable");
            assert_eq!(
                Some(packed.wire_bytes()),
                k.packed_wire_bytes(7, 50),
                "{name}"
            );
        }
    }

    #[test]
    fn unpackable_configs_return_none_and_fall_back() {
        let bf16 = Quantizer::unscaled(FloatFormat::bf16(), Rounding::Nearest);
        let t = Tensor::from_vec(1, 3, vec![0.1, -0.4, 2.5]);
        let mut rng = Rng::seed_from(2);
        assert!(bf16.pack(&t, &mut rng).is_none());
        assert!(bf16.packed_wire_bytes(1, 3).is_none());
        // So does a scaled 16-bit grid, under every recipe.
        let wide = Quantizer::new(FloatFormat::bf16(), Granularity::Rowwise, Rounding::Nearest);
        let rht = wide.with_rht(2, 0);
        assert!(rht.pack(&t, &mut rng).is_none());
        let split = wide.with_outliers(0.1);
        assert!(split.pack(&t, &mut rng).is_none());
        // The derived quantize still works through the oracle.
        let out = split.quantize(&t, &mut rng);
        assert_eq!(out.shape(), (1, 3));
    }

    #[test]
    fn mx_wire_charges_one_byte_per_scale() {
        let mut rng = Rng::seed_from(4);
        let t = Tensor::randn(2, 64, 1.0, &mut rng);
        let packed = Quantizer::mxfp4().pack(&t, &mut rng).unwrap();
        // 2 rows × 32 packed bytes + 2×2 block scales at 1 B each.
        assert_eq!(packed.wire_bytes(), 2 * 32 + 4);
        // Residency still holds f32 scales like every QTensor.
        assert!(packed.resident_bytes() >= 2 * 32 + 4 * 4);
    }

    #[test]
    fn split_outliers_survive_decode_at_bf16() {
        let mut rng = Rng::seed_from(6);
        let mut t = Tensor::randn(4, 32, 0.5, &mut rng);
        t[(1, 7)] = 100.0;
        t[(3, 20)] = -80.0;
        let q = fp4_tile(8).with_outliers(2.0 / 128.0);
        let packed = q.pack(&t, &mut Rng::seed_from(1)).unwrap();
        let out = packed.dequantize();
        assert_eq!(out[(1, 7)], 100.0);
        assert_eq!(out[(3, 20)], -80.0);
        if let PackedTensor::Split { outliers, .. } = &packed {
            assert_eq!(outliers.len(), 2);
            assert!(outliers.windows(2).all(|w| w[0].index < w[1].index));
        } else {
            panic!("expected a split representation");
        }
    }

    #[test]
    fn rotated_decode_inverts_the_rotation() {
        let mut rng = Rng::seed_from(8);
        let t = Tensor::randn(5, 48, 1.0, &mut rng);
        let rht = fp4_tile(16).with_rht(16, 21);
        let mut r1 = Rng::seed_from(13);
        let mut r2 = Rng::seed_from(13);
        let packed = rht.pack(&t, &mut r1).unwrap();
        let oracle = rht.fake_quantize(&t, &mut r2);
        assert_bit_identical(&packed.dequantize(), &oracle, "rht");
    }
}
