//! Property tests for the length-prefixed, CRC-checked stream frame codec.
//!
//! A socket delivers bytes in arbitrary chunks: a frame may be split inside
//! its envelope, inside its body, or arrive glued to its neighbours — and a
//! damaged link can flip, drop, or lie about any byte in flight. These
//! tests pin the decoder's contract under that adversarial input: **any**
//! split of a valid frame sequence reassembles to exactly the original
//! frames, while truncation, garbage prefixes, and chaos-generated
//! corruption (bit flips, length-prefix lies) surface a typed
//! `StreamError` — never a panic, never an out-of-bounds read, never a
//! silently damaged frame.

use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::{
    crc32, stream_frame, Crc32, PackedQuantize, PackedTensor, Quantizer, Rounding, StreamDecoder,
    StreamError, STREAM_ENVELOPE_BYTES, STREAM_MAX_FRAME_BYTES,
};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

/// Feeds `bytes` to a fresh decoder in chunks whose sizes cycle through
/// `chunk_sizes` (interpreted mod a small bound, so any u8 works), pulling
/// every completed frame as it goes.
fn decode_chunked(bytes: &[u8], chunk_sizes: &[u8]) -> Result<Vec<Vec<u8>>, StreamError> {
    let mut dec = StreamDecoder::new();
    let mut frames = Vec::new();
    let mut at = 0;
    let mut k = 0;
    while at < bytes.len() {
        let step = if chunk_sizes.is_empty() {
            1
        } else {
            1 + (chunk_sizes[k % chunk_sizes.len()] as usize) % 13
        };
        k += 1;
        let end = (at + step).min(bytes.len());
        dec.feed(&bytes[at..end]);
        at = end;
        while let Some(frame) = dec.next_frame()? {
            frames.push(frame);
        }
    }
    dec.finish()?;
    Ok(frames)
}

fn bodies_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..40), 0..8)
}

/// The byte-at-a-time IEEE CRC32, bit by bit: the reference the sliced
/// `crc32` must equal on every input.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sliced CRC equals the byte loop over every length 0..=300 —
    /// so every `len % 16` tail, with and without whole blocks before it —
    /// taken at any start offset inside a larger buffer, so the 16-byte
    /// blocks fall on every alignment.
    #[test]
    fn crc32_equals_the_byte_loop_at_every_length_and_offset(
        buf in proptest::collection::vec(0u8..=255, 316),
        offset in 0usize..16,
    ) {
        for len in 0..=300 {
            let bytes = &buf[offset..offset + len];
            prop_assert_eq!(crc32(bytes), crc32_reference(bytes), "len {}", len);
        }
    }

    /// The incremental hasher fed in any split gives the CRC of the whole:
    /// a reader may hash a body in whatever pieces its reads return.
    #[test]
    fn the_incremental_crc_is_split_invariant(
        buf in proptest::collection::vec(0u8..=255, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(buf.len())).collect();
        cuts.sort_unstable();
        let mut hasher = Crc32::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([buf.len()]) {
            hasher.update(&buf[at..cut]);
            at = cut;
        }
        prop_assert_eq!(hasher.finish(), crc32_reference(&buf));
    }

    /// Any split of a valid frame sequence round-trips: the decoder yields
    /// exactly the original bodies whatever the read chunking was — this
    /// covers short writes too, since a writer's chunk boundaries are just
    /// the reader's chunk boundaries.
    #[test]
    fn any_split_of_a_valid_sequence_round_trips(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&stream_frame(body));
        }
        let decoded = decode_chunked(&stream, &chunks).expect("valid stream");
        prop_assert_eq!(decoded, bodies);
    }

    /// A truncated stream (cut anywhere strictly inside a frame) yields
    /// `Truncated` from `finish`, and every frame decoded before the cut is
    /// one of the originals — never a fabricated frame, never a panic.
    #[test]
    fn truncated_streams_error_cleanly(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
        cut_sel in 0usize..10_000,
    ) {
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&stream_frame(body));
        }
        if !stream.is_empty() {
            let cut = cut_sel % stream.len();
            match decode_chunked(&stream[..cut], &chunks) {
                Ok(decoded) => {
                    // The cut landed exactly on a frame boundary: a clean
                    // prefix of the original sequence.
                    prop_assert_eq!(decoded.as_slice(), &bodies[..decoded.len()]);
                }
                Err(StreamError::Truncated { need, got }) => prop_assert!(got < need),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }

    /// A garbage prefix whose length field is implausible is rejected as
    /// `Oversize` instead of triggering a giant allocation, whatever the
    /// chunking.
    #[test]
    fn garbage_length_prefixes_are_rejected(
        tail in proptest::collection::vec(0u8..=255, 0..40),
        chunks in proptest::collection::vec(0u8..=255, 0..8),
        huge in (STREAM_MAX_FRAME_BYTES as u64 + 1)..u32::MAX as u64,
    ) {
        let mut stream = (huge as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&tail);
        prop_assert_eq!(
            decode_chunked(&stream, &chunks),
            Err(StreamError::Oversize { len: huge as u32 })
        );
    }

    /// Chaos corruption: XOR one byte anywhere in a valid stream — body,
    /// checksum, or length prefix — and decoding reports a typed error
    /// (`Crc` for payload damage, `Truncated`/`Oversize` when the length
    /// field lies), never a panic and never a silently altered frame. Any
    /// frames decoded before the damage are bit-exact originals.
    #[test]
    fn single_byte_corruption_is_always_caught(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
        at_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&stream_frame(body));
        }
        if !stream.is_empty() {
            let at = at_sel % stream.len();
            stream[at] ^= flip;
            match decode_chunked(&stream, &chunks) {
                Ok(_) => panic!("corruption at byte {at} went undetected"),
                Err(StreamError::Crc { expect, got }) => prop_assert_ne!(expect, got),
                Err(StreamError::Truncated { need, got }) => prop_assert!(got < need),
                Err(StreamError::Oversize { len }) => {
                    prop_assert!(len as usize > STREAM_MAX_FRAME_BYTES)
                }
            }
        }
    }

    /// Length-prefix lies *within* the sanity bound: rewrite a frame's
    /// length field to a different plausible value (keeping the stream's
    /// byte count). The shifted frame boundary breaks either the checksum
    /// or the framing — a typed error, never a fabricated frame.
    #[test]
    fn in_bounds_length_lies_are_caught(
        body in proptest::collection::vec(0u8..=255, 0..60),
        lie in 0u32..2_000,
        chunks in proptest::collection::vec(0u8..=255, 0..8),
    ) {
        if lie as usize != body.len() {
            let mut stream = stream_frame(&body);
            stream[..4].copy_from_slice(&lie.to_le_bytes());
            match decode_chunked(&stream, &chunks) {
                Ok(_) => {
                    panic!("length lie {lie} for a {}-byte body went undetected", body.len())
                }
                Err(StreamError::Crc { .. }) | Err(StreamError::Truncated { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
}

#[test]
fn crc32_matches_the_ieee_check_vector() {
    // The canonical CRC-32/ISO-HDLC check value: crc32("123456789").
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
}

#[test]
fn packed_wire_frames_survive_stream_chunking() {
    // The end-to-end composition a socket link runs: PackedTensor wire
    // frames inside stream frames, reassembled from 1-byte reads.
    let q = Quantizer::new(
        FloatFormat::e2m1(),
        Granularity::Tile { nb: 8 },
        Rounding::Nearest,
    );
    let t = Tensor::randn(3, 21, 1.0, &mut Rng::seed_from(4));
    let packed = q.pack(&t, &mut Rng::seed_from(5)).expect("packable");
    let frame = packed.to_wire_bytes().expect("built-in format");
    let mut stream = Vec::new();
    for _ in 0..3 {
        stream.extend_from_slice(&stream_frame(&frame));
    }
    let frames = decode_chunked(&stream, &[0]).expect("valid stream");
    assert_eq!(frames.len(), 3);
    for f in frames {
        let back = PackedTensor::from_wire_bytes(&f).expect("round trip");
        let (a, b) = (packed.dequantize(), back.dequantize());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn empty_and_boundary_streams() {
    let mut dec = StreamDecoder::new();
    assert_eq!(dec.next_frame(), Ok(None));
    assert_eq!(dec.finish(), Ok(()));
    // A lone empty frame is a bare envelope: zero length + crc of nothing.
    let empty = stream_frame(&[]);
    assert_eq!(empty.len(), STREAM_ENVELOPE_BYTES);
    dec.feed(&empty);
    assert_eq!(dec.next_frame(), Ok(Some(Vec::new())));
    assert_eq!(dec.next_frame(), Ok(None));
    assert_eq!(dec.finish(), Ok(()));
    // A bare partial prefix is truncation.
    dec.feed(&[1, 0]);
    assert_eq!(
        dec.finish(),
        Err(StreamError::Truncated {
            need: STREAM_ENVELOPE_BYTES,
            got: 2
        })
    );
}
