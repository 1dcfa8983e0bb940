//! Analytic wire volume (paper §2.2 and future work).
//!
//! The paper notes that "extending low-precision support to reduce-scatter
//! is a promising but challenging direction for future work".
//! [`codec_wire_bytes`] answers how many payload bytes one operand occupies
//! on such a wire; the transports measure the same quantity per link
//! ([`crate::transport::TransportStats`]), and the loopback tests hold the
//! two equal for every codec, ragged tails included.
//!
//! Volumes are **byte-accurate** for the packed wire representation: a
//! subbyte operand moves its packed codes (4-bit rows padded to whole
//! bytes, exactly as [`snip_tensor::QTensor`] stores them) *plus* its
//! scales. BF16 operands move two bytes per element and no scales.

use snip_quant::PackedQuantize;

/// Payload bytes one `rows × cols` operand occupies on the wire: the
/// analytic packed volume of any [`PackedQuantize`] codec (exactly
/// `pack(..).wire_bytes()`), or the fallback at `fallback_bits` per element
/// when the codec is not packable. The fallback rounds **up per row** —
/// subbyte rows pad to whole bytes exactly as [`snip_tensor::QTensor`]
/// stores (and a wire ships) them, so element counts not divisible by
/// `8 / bits` are never under-counted.
pub fn codec_wire_bytes(
    codec: &impl PackedQuantize,
    rows: usize,
    cols: usize,
    fallback_bits: u32,
) -> u64 {
    codec
        .packed_wire_bytes(rows, cols)
        .unwrap_or_else(|| rows as u64 * (cols as u64 * u64::from(fallback_bits)).div_ceil(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::{Precision, TensorRole};

    #[test]
    fn operand_wire_bytes_hand_check() {
        let at = |p: Precision, role, rows, cols| {
            codec_wire_bytes(&p.quantizer_with_group(role, 8), rows, cols, p.bits())
        };
        // 16×16 FP4 gradient at 1×8 tiles: 16 rows × 8 packed bytes
        // + 16·2 scales × 4 B.
        let b = at(Precision::Fp4, TensorRole::OutputGrad, 16, 16);
        assert_eq!(b, 16 * 8 + 32 * 4);
        // Same operand as an FP8 weight at 8×8 blocks: 256 code bytes
        // + 4 blocks × 4 B.
        let b = at(Precision::Fp8, TensorRole::Weight, 16, 16);
        assert_eq!(b, 256 + 4 * 4);
        // BF16: two bytes per element, no scales.
        let b = at(Precision::Bf16, TensorRole::Weight, 16, 16);
        assert_eq!(b, 512);
        // Odd FP4 rows pad to whole bytes, exactly like QTensor storage.
        let b = at(Precision::Fp4, TensorRole::OutputGrad, 3, 5);
        assert_eq!(b, 3 * 3 + 3 * 4);
    }

    #[test]
    fn codec_wire_bytes_covers_alternative_quantizers() {
        use snip_quant::Quantizer;
        // MX: 0.5 B/elem + one E8M0 byte per 32-block.
        let b = codec_wire_bytes(&Quantizer::mxfp4(), 2, 64, 16);
        assert_eq!(b, 2 * 32 + 2 * 2);
        // Outlier split over an FP4 tile body: body bytes + 6 B per outlier.
        let dense = Precision::Fp4.quantizer_with_group(TensorRole::OutputGrad, 8);
        let split = dense.with_outliers(2.0 / 128.0);
        let body = codec_wire_bytes(&dense, 8, 16, 16);
        assert_eq!(codec_wire_bytes(&split, 8, 16, 16), body + 2 * 6);
        // Unpackable codecs fall back to the given wire width.
        let bf16 = Precision::Bf16.quantizer_with_group(TensorRole::Weight, 8);
        assert_eq!(codec_wire_bytes(&bf16, 4, 4, 16), 32);
    }

    #[test]
    fn subbyte_fallback_rounds_up_per_row() {
        // Regression: the fallback used to floor (rows·cols·bits)/8, which
        // under-counted ragged subbyte rows. 3×5 at 4 bits is 3 bytes per
        // row (QTensor pads rows to whole bytes), not floor(60/8) = 7.
        let bf16 = Precision::Bf16.quantizer_with_group(TensorRole::Weight, 8);
        assert_eq!(codec_wire_bytes(&bf16, 3, 5, 4), 9);
        // 1×1 at 4 bits is one whole byte, not zero.
        assert_eq!(codec_wire_bytes(&bf16, 1, 1, 4), 1);
        // Byte-aligned shapes are unchanged.
        assert_eq!(codec_wire_bytes(&bf16, 2, 8, 4), 8);
        assert_eq!(codec_wire_bytes(&bf16, 2, 8, 16), 32);
    }
}
