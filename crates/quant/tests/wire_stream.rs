//! Property tests for the length-prefixed, CRC-checked stream frame codec,
//! read the way a socket link reads it: [`read_stream_frame`] over a stream
//! whose reads return arbitrary pieces.
//!
//! A socket delivers bytes in arbitrary chunks: a frame may be split inside
//! its envelope, inside its body, or arrive glued to its neighbours — and a
//! damaged link can flip, drop, or lie about any byte in flight. These
//! tests pin the reader's contract under that adversarial input: **any**
//! chunking of a valid frame sequence reads back exactly the original
//! frames, each with the CRC its envelope carried, while truncation,
//! garbage prefixes, and chaos-generated corruption (bit flips,
//! length-prefix lies) surface a typed `StreamError` — never a panic,
//! never an out-of-bounds read, never a silently damaged frame. One
//! property holds the one-buffer `StreamDecoder` to the same frames.
//!
//! The binary counts its allocations (the shared counting allocator), so
//! an implausible length prefix is shown to be refused before anything is
//! allocated for it.

#[path = "../../core/tests/support/counting.rs"]
mod counting;

use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::wire::{read_stream_frame, ReadError};
use snip_quant::{
    crc32, stream_frame, Crc32, PackedQuantize, PackedTensor, Quantizer, Rounding, StreamDecoder,
    StreamError, STREAM_ENVELOPE_BYTES, STREAM_MAX_FRAME_BYTES, STREAM_PREFIX_BYTES,
};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;
use std::io::Read;

/// A `Read` over `bytes` whose reads return at most 1–13 bytes each, the
/// sizes cycling through `sizes` (interpreted mod 13, so any `u8` works;
/// one byte per read when empty): a socket delivering a stream in whatever
/// pieces it likes.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: &'a [u8],
    call: usize,
}

impl<'a> Chunked<'a> {
    fn new(bytes: &'a [u8], sizes: &'a [u8]) -> Self {
        Chunked {
            bytes,
            sizes,
            call: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = match self.sizes {
            [] => 1,
            sizes => 1 + usize::from(sizes[self.call % sizes.len()]) % 13,
        };
        self.call += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Reads every frame of `from` with the link reader until the stream ends
/// on a frame boundary: the bodies, each released with the CRC of its
/// bytes, or the defect that ended the stream.
fn read_all(from: &mut impl Read) -> Result<Vec<Vec<u8>>, StreamError> {
    let mut frames = Vec::new();
    loop {
        match read_stream_frame(from) {
            Ok(Some((body, crc))) => {
                assert_eq!(crc, crc32(&body), "a frame is released with its own CRC");
                frames.push(body);
            }
            Ok(None) => return Ok(frames),
            Err(ReadError::Stream(e)) => return Err(e),
            Err(ReadError::Io(e)) => panic!("an in-memory read failed: {e}"),
        }
    }
}

/// [`read_all`] over `bytes` delivered in `chunk_sizes` pieces.
fn read_chunked(bytes: &[u8], chunk_sizes: &[u8]) -> Result<Vec<Vec<u8>>, StreamError> {
    read_all(&mut Chunked::new(bytes, chunk_sizes))
}

/// `bodies` as one stream of frames.
fn framed(bodies: &[Vec<u8>]) -> Vec<u8> {
    bodies.iter().flat_map(|body| stream_frame(body)).collect()
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

    /// Any chunking of a valid frame sequence round-trips: the reader
    /// yields exactly the original bodies whatever the read sizes were —
    /// this covers short writes too, since a writer's chunk boundaries are
    /// just the reader's chunk boundaries.
    #[test]
    fn any_split_of_a_valid_sequence_round_trips(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        prop_assert_eq!(read_chunked(&framed(&bodies), &chunks), Ok(bodies));
    }

    /// The one-buffer decoder, fed the same chunks, reassembles the same
    /// frames.
    #[test]
    fn stream_decoder_reassembles_any_split(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        let stream = framed(&bodies);
        let mut from = Chunked::new(&stream, &chunks);
        let (mut dec, mut piece, mut decoded) = (StreamDecoder::new(), [0u8; 13], Vec::new());
        loop {
            let n = from.read(&mut piece).expect("in-memory read");
            if n == 0 {
                break;
            }
            dec.feed(&piece[..n]);
            while let Some(frame) = dec.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, bodies);
    }

    /// A stream cut anywhere strictly inside a frame is `Truncated` with
    /// fewer bytes than the frame needs; a cut on a frame boundary reads a
    /// clean prefix of the original sequence — never a fabricated frame,
    /// never a panic.
    #[test]
    fn truncated_streams_error_cleanly(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
        cut_sel in 0usize..10_000,
    ) {
        let stream = framed(&bodies);
        if !stream.is_empty() {
            let cut = cut_sel % stream.len();
            match read_chunked(&stream[..cut], &chunks) {
                Ok(decoded) => {
                    prop_assert_eq!(decoded.as_slice(), &bodies[..decoded.len()]);
                }
                Err(StreamError::Truncated { need, got }) => prop_assert!(got < need),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }

    /// A garbage prefix whose length field is implausible is rejected as
    /// `Oversize` from the prefix alone, whatever the chunking: the reader
    /// takes no byte past the prefix and allocates nothing for the length.
    #[test]
    fn garbage_length_prefixes_are_rejected(
        tail in proptest::collection::vec(0u8..=255, 0..40),
        chunks in proptest::collection::vec(0u8..=255, 0..8),
        huge in (STREAM_MAX_FRAME_BYTES as u64 + 1)..u32::MAX as u64,
    ) {
        let mut stream = (huge as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&tail);
        let mut from = Chunked::new(&stream, &chunks);
        let ([.., calls, _], read) =
            counting::large_allocations(1 << 20, || read_stream_frame(&mut from));
        prop_assert!(
            matches!(read, Err(ReadError::Stream(StreamError::Oversize { len })) if len == huge as u32)
        );
        prop_assert_eq!(calls, 0, "a byte buffer was allocated for the length");
        prop_assert_eq!(from.bytes.len(), tail.len(), "only the prefix is read");
    }

    /// Chaos corruption: XOR one byte anywhere in a valid stream — body,
    /// checksum, or length prefix — and reading reports a typed error
    /// (`Crc` for payload damage, `Truncated`/`Oversize` when the length
    /// field lies), never a panic and never a silently altered frame.
    #[test]
    fn single_byte_corruption_is_always_caught(
        bodies in bodies_strategy(),
        chunks in proptest::collection::vec(0u8..=255, 0..24),
        at_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let mut stream = framed(&bodies);
        if !stream.is_empty() {
            let at = at_sel % stream.len();
            stream[at] ^= flip;
            match read_chunked(&stream, &chunks) {
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
            match read_chunked(&stream, &chunks) {
                Ok(_) => {
                    panic!("length lie {lie} for a {}-byte body went undetected", body.len())
                }
                Err(StreamError::Crc { .. }) | Err(StreamError::Truncated { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }

    /// No byte soup panics the reader: every outcome is a value.
    #[test]
    fn byte_soup_never_panics(
        soup in proptest::collection::vec(0u8..=255, 0..200),
        chunks in proptest::collection::vec(0u8..=255, 0..8),
    ) {
        let _ = read_chunked(&soup, &chunks);
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
    // frames inside stream frames, read back from 1-byte reads.
    let q = Quantizer::new(
        FloatFormat::e2m1(),
        Granularity::Tile { nb: 8 },
        Rounding::Nearest,
    );
    let t = Tensor::randn(3, 21, 1.0, &mut Rng::seed_from(4));
    let packed = q.pack(&t, &mut Rng::seed_from(5)).expect("packable");
    let frame = packed.to_wire_bytes().expect("built-in format");
    let frames =
        read_chunked(&framed(&[frame.clone(), frame.clone(), frame]), &[0]).expect("valid stream");
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
    assert_eq!(read_chunked(&[], &[]), Ok(Vec::new()));
    // A lone empty frame is a bare envelope: zero length + crc of nothing.
    let empty = stream_frame(&[]);
    assert_eq!(empty.len(), STREAM_ENVELOPE_BYTES);
    assert_eq!(read_chunked(&empty, &[]), Ok(vec![Vec::new()]));
    // A bare partial prefix is truncation of the envelope.
    assert_eq!(
        read_chunked(&[1, 0], &[]),
        Err(StreamError::Truncated {
            need: STREAM_ENVELOPE_BYTES,
            got: 2
        })
    );
    // A whole prefix cut inside its CRC field needs the body it declared.
    assert_eq!(
        read_chunked(&[3, 0, 0, 0, 9], &[]),
        Err(StreamError::Truncated {
            need: STREAM_ENVELOPE_BYTES + 3,
            got: STREAM_PREFIX_BYTES + 1
        })
    );
}
