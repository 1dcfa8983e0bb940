//! Payload frame codec: the byte representation of one transport message.
//!
//! A frame is one tag byte plus a body, written by one
//! [`snip_quant::wire::Writer`] and read by [`decode_message`] — the field
//! codec of control pipes and checkpoints:
//!
//! ```text
//! tag 0  exact : Writer::f32s   — u32 element count + count × f32 bits
//! tag 1  bf16  : Writer::bf16s  — u32 element count + count × u16 (upper BF16 bits)
//! tag 2  packed: Writer::packed — a snip_quant::wire frame (header + codes + scales + …)
//! ```
//!
//! Decoding is **total**: every structural defect — an empty buffer, an
//! unknown tag, a count that disagrees with the buffer length, a malformed
//! packed frame — is a [`FrameError::Malformed`] carrying the codec's
//! message, never a panic, so a corrupt or truncated peer message surfaces
//! as an error the worker can report upstream.

use crate::collective::Wire;
use snip_quant::wire::{decode_message, Fields, Writer};
use snip_quant::{PackedQuantize, WIRE_HEADER_BYTES};
use snip_tensor::rng::Rng;
use snip_tensor::{arena, Tensor};

const TAG_EXACT: u8 = 0;
const TAG_BF16: u8 = 1;
const TAG_PACKED: u8 = 2;

/// One encoded hop as the fabrics move it: its bytes and the CRC-32 the
/// [`Writer`] took as it wrote them, which the socket envelope carries — so
/// neither a send nor an all-gather forward hashes a hop again.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The frame's bytes: a tag byte, then its body.
    pub bytes: Vec<u8>,
    /// [`snip_quant::crc32`] of `bytes`.
    pub crc: u32,
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A structurally invalid payload frame (corruption or truncation by the
/// peer, or a peer speaking a different protocol version).
#[derive(Clone, Debug, PartialEq)]
pub enum FrameError {
    /// The bytes are not one well-formed hop frame: the codec's message.
    Malformed(String),
    /// A well-formed frame whose element count is not the length of the
    /// ring chunk it must fill: the two ranks disagree on the vector's size.
    Elements {
        /// Elements of the chunk the ring schedule expects.
        expect: usize,
        /// Elements the frame carried.
        got: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "{m}"),
            FrameError::Elements { expect, got } => {
                write!(f, "{got} elements for a chunk of {expect}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Serializes a payload for one hop of `wire` — the one hop codec, shared by
/// the fabrics and [`Wire::transmit`]. Returns the frame and its accounted
/// payload bytes.
pub(crate) fn encode_frame(wire: &Wire, payload: &[f32], rng: &mut Rng) -> (Frame, u64) {
    let n = payload.len();
    // A writer that has written `tag`, over a buffer of the frame's size
    // (a capacity hint only: the codec lays the bytes out).
    let tagged = |tag: u8, len: usize| {
        let mut w = Writer::new(Vec::with_capacity(len));
        w.u8(tag);
        w
    };
    let (w, bytes) = match wire.codec() {
        None => {
            let mut w = tagged(TAG_EXACT, 5 + 4 * n);
            w.f32s(payload);
            (w, 4 * n as u64)
        }
        // A codec that does not pack is the BF16 quantizer: round to
        // nearest, which draws nothing — 2 bytes per element, narrowed
        // straight from the payload.
        Some(codec) if !codec.packable() => {
            let mut w = tagged(TAG_BF16, 5 + 2 * n);
            w.bf16s(payload);
            (w, 2 * n as u64)
        }
        Some(codec) => {
            let mut copy = arena::take(n);
            copy.copy_from_slice(payload);
            let packed = codec
                .pack(&Tensor::from_vec(1, n, copy), rng)
                .expect("a packable codec packs");
            let bytes = packed.wire_bytes();
            let mut w = tagged(TAG_PACKED, 1 + WIRE_HEADER_BYTES + bytes as usize);
            w.packed(&packed);
            (w, bytes)
        }
    };
    let (frame, crc) = w
        .finish()
        .expect("a hop's count fits its u32 field and its codec is a built-in format");
    (Frame { bytes: frame, crc }, bytes)
}

/// Decodes a frame back to the dense payload the receiver consumes plus the
/// frame's accounted **payload** bytes (the same number [`encode_frame`]
/// reported on the sending side, so both ends of a link count identical
/// volumes). The payload comes from the [`arena`]: a receiver inside a
/// training step hands it back with [`arena::give`] once consumed.
///
/// # Errors
///
/// [`FrameError::Malformed`] for every structural defect; never panics.
pub(crate) fn decode_frame(frame: &[u8]) -> Result<(Vec<f32>, u64), FrameError> {
    decode_message(frame, |f: &mut Fields<&[u8]>| match f.u8()? {
        TAG_EXACT => {
            let payload = f.f32s()?;
            let bytes = 4 * payload.len() as u64;
            Ok((payload, bytes))
        }
        TAG_BF16 => {
            let payload = f.bf16s()?;
            let bytes = 2 * payload.len() as u64;
            Ok((payload, bytes))
        }
        TAG_PACKED => {
            let packed = f.packed()?;
            Ok((packed.dequantize().into_vec(), packed.wire_bytes()))
        }
        tag => Err(format!("unknown frame tag {tag:#04x}").into()),
    })
    .map_err(|e| FrameError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::oracle::Oracle;
    use proptest::prelude::*;
    use snip_quant::wire::bf16_bits;

    #[test]
    fn corrupt_frames_yield_typed_errors_not_panics() {
        // The codec's message for a frame that must not decode.
        let malformed = |bytes: &[u8]| match decode_frame(bytes) {
            Err(FrameError::Malformed(m)) => m,
            other => panic!("{bytes:?} decoded to {other:?}"),
        };
        // An empty frame has no tag.
        assert_eq!(
            malformed(&[]),
            "message truncated: a 1-byte field with 0 bytes left"
        );
        assert_eq!(malformed(&[7]), "unknown frame tag 0x07");
        assert_eq!(malformed(&[0xFF]), "unknown frame tag 0xff");
        // Count field cut off.
        assert_eq!(
            malformed(&[TAG_EXACT, 1, 0]),
            "message truncated: a 4-byte field with 2 bytes left"
        );
        // Count promises more elements than the body carries.
        assert_eq!(
            malformed(&[TAG_EXACT, 2, 0, 0, 0, 1, 2, 3, 4]),
            "2 values of 4 bytes declared, 4 bytes left"
        );
        // Trailing garbage after a complete body is also corruption.
        assert_eq!(
            malformed(&[TAG_BF16, 1, 0, 0, 0, 1, 2, 3]),
            "1 bytes left after the message"
        );
        // A packed frame whose wire body is damaged.
        assert_eq!(
            malformed(&[TAG_PACKED, b'X', b'P', 1]),
            "packed frame: frame too short: need 36 bytes, got 3"
        );
    }

    /// The full bytes and the accounted payload bytes of one hop frame per
    /// frame kind — exact, BF16, tilewise FP4 and MXFP4 — over a fixed
    /// 10-element payload at a fixed seed. Recorded before the hop codec
    /// moved onto the field codec: the data-link layout is a contract of
    /// that move.
    #[test]
    fn golden_hop_frames() {
        let payload: Vec<f32> = (0..10).map(|i| (i as f32 - 4.5) * 0.37).collect();
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        // Tag 0: count, raw f32 bits. Tag 1: count, BF16 halves. Tag 2: the
        // 36-byte packed header (magic, version, variant, format, layout,
        // reserved; rows, cols, group; RHT block, seed; outliers), codes,
        // then f32 tile scales or E8M0 bytes.
        let golden = [
            (
                Wire::exact(),
                concat!(
                    "00",
                    "0a000000",
                    "b81ed5bf90c2a5bfcdcc6cbf7b140ebfa4703dbe",
                    "a4703d3e7b140e3fcdcc6c3f90c2a53fb81ed53f"
                ),
                40,
            ),
            (
                Wire::bf16(),
                concat!("01", "0a000000", "d5bfa6bf6dbf0ebf3dbe3d3e0e3f6d3fa63fd53f"),
                20,
            ),
            (
                Wire::fp4(8),
                concat!(
                    "02",
                    "5350010000040000",
                    "010000000a00000008000000",
                    "00000000",
                    "0000000000000000",
                    "00000000",
                    "ffcd196476",
                    "7b148e3e7b148e3e"
                ),
                13,
            ),
            (
                Wire::mxfp4(),
                concat!(
                    "02",
                    "5350010100040000",
                    "010000000a00000020000000",
                    "00000000",
                    "0000000000000000",
                    "00000000",
                    "deab184264",
                    "7e"
                ),
                6,
            ),
        ];
        for (wire, want, want_bytes) in golden {
            let (frame, bytes) = encode_frame(&wire, &payload, &mut Rng::seed_from(7));
            assert_eq!(hex(&frame), want, "{}", wire.label());
            assert_eq!(bytes, want_bytes, "{}", wire.label());
        }
    }

    /// A BF16 frame carries `bf16_bits` of the codec's fake-quantized
    /// payload, element for element, and draws nothing: quiet and
    /// signalling NaNs of both signs, ±Inf, ±0, subnormals, exact ties
    /// rounding down and up to even (normal and subnormal), and finite
    /// values that round to ±Inf.
    #[test]
    fn bf16_frames_narrow_the_fake_quantized_payload() {
        let tie = 2f32.powi(-8); // half a BF16 ulp at 1.0
        let payload = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC1_2345),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x0000_8000),
            f32::from_bits(0x0001_8000),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            1.0 + tie,
            1.0 + 3.0 * tie,
            -(1.0 + tie),
            f32::MAX,
            -f32::MAX,
            0.1,
            -123.456,
        ];
        let wire = Wire::bf16();
        let mut rng = Rng::seed_from(3);
        let (frame, bytes) = encode_frame(&wire, &payload, &mut rng);

        let mut rng_ref = Rng::seed_from(3);
        let t = Tensor::from_vec(1, payload.len(), payload.clone());
        let fq = wire.codec().expect("lossy").fake_quantize(&t, &mut rng_ref);
        let mut want = vec![TAG_BF16];
        want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        for &v in fq.as_slice() {
            want.extend_from_slice(&bf16_bits(v).to_le_bytes());
        }
        assert_eq!(frame.bytes, want);
        assert_eq!(frame.crc, snip_quant::crc32(&want));
        assert_eq!(bytes, 2 * payload.len() as u64);
        assert!(rng == rng_ref, "a BF16 frame drew from the rng");
    }

    proptest! {
        /// No byte soup may panic the decoder — every outcome is a value.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
            let _ = decode_frame(&bytes);
        }

        /// Valid frames survive any single-byte truncation as a typed error.
        #[test]
        fn truncated_valid_frames_error_cleanly(n in 0usize..20, cut in 0usize..80) {
            let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut rng = Rng::seed_from(1);
            let (frame, _) = encode_frame(&Wire::fp4(8), &payload, &mut rng);
            if cut < frame.len() {
                prop_assert!(decode_frame(&frame[..cut]).is_err());
            }
        }

        /// Chaos corruption at the frame layer: XOR one byte of a valid
        /// frame of every wire kind. The decoder must return a *value* —
        /// a typed error for structural damage, or a decoded payload when
        /// only content bytes changed (content integrity is the stream
        /// envelope CRC's job, pinned in snip-quant's `wire_stream`
        /// tests). A lying element count is always a typed error.
        #[test]
        fn single_byte_flips_never_panic_and_count_lies_are_caught(
            n in 0usize..20,
            at_sel in 0usize..200,
            flip in 1u8..=255,
            kind in 0usize..4,
        ) {
            let wires = [Wire::exact(), Wire::bf16(), Wire::fp4(8), Wire::fp8(16)];
            let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.37 - 2.0).collect();
            let mut rng = Rng::seed_from(9);
            let (frame, _) = encode_frame(&wires[kind], &payload, &mut rng);
            let mut frame = frame.bytes;
            let tag = frame[0];
            let at = at_sel % frame.len();
            frame[at] ^= flip;
            let outcome = decode_frame(&frame);
            if (tag == TAG_EXACT || tag == TAG_BF16) && (1..5).contains(&at) {
                // The element count now disagrees with the frame length.
                prop_assert!(matches!(outcome, Err(FrameError::Malformed(_))));
            }
        }
    }
}
