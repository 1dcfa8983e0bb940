//! The workspace's one binary codec: what crosses a process boundary or
//! goes to disk is written and read here.
//!
//! Four pieces, each written by [`Writer`] and read by [`Fields`] or the
//! one envelope reader:
//!
//! 1. **The [`PackedTensor`] frame** — the canonical bytes of a packed
//!    tensor, whose payload is byte for byte the volume
//!    [`PackedTensor::wire_bytes`] (and therefore
//!    [`crate::PackedQuantize::packed_wire_bytes`]) accounts. One writer,
//!    [`Writer::packed`], and one reader, [`Fields::packed`], serve all four
//!    variants: [`PackedTensor::to_wire_bytes`] /
//!    [`PackedTensor::from_wire_bytes`] and the checkpoint's
//!    [`Writer::codes`] / [`Fields::codes`] are those two. Collective hops
//!    ship packed gradients in it.
//! 2. **The stream envelope** — a length prefix and a CRC32 of the body, so
//!    a socket or pipe can delimit frames and a damaged body is a typed
//!    [`StreamError`] before anything in it is interpreted. One envelope
//!    reader serves both kinds of stream: [`read_frame`] decodes a control
//!    pipe's one frame as it streams, [`read_stream_frame`] reads a socket
//!    link's frames one at a time.
//! 3. **The field codec** — [`Writer`] and [`Fields`]: a message as a
//!    sequence of typed fields, written and read as they stream.
//! 4. **The file frame** — the field codec's message in a file
//!    ([`write_file_frame`], [`read_file_frame`]); a trainer checkpoint is
//!    one.
//!
//! All multi-byte fields are **little-endian**. Floats always travel as
//! their raw bits, so NaN payloads, ±Inf and −0 survive every layer.
//!
//! # The packed-tensor frame
//!
//! A frame is a fixed [`WIRE_HEADER_BYTES`]-byte header followed by the
//! payload.
//!
//! ```text
//! offset size field
//!  0     2   magic "SP"
//!  2     1   version (currently 1)
//!  3     1   variant: 0 Codes · 1 Mx · 2 Rotated · 3 Split
//!  4     1   format id: 0 E2M1 · 1 E4M3 · 2 E5M2 · 3 E3M4 · 0x10|bits INT
//!  5     1   scale layout: 0 tensorwise · 1 rowwise · 2 columnwise ·
//!            3 block · 4 tile
//!  6     2   reserved (zero)
//!  8     4   rows
//! 12     4   cols
//! 16     4   layout group length `nb` (zero for non-block/tile layouts)
//! 20     4   RHT rotation block length (zero unless variant = Rotated)
//! 24     8   RHT rotation seed      (zero unless variant = Rotated)
//! 32     4   outlier count          (zero unless variant = Split)
//! ```
//!
//! The payload is, in order:
//!
//! 1. **codes** — `rows × row_bytes(cols)` packed code bytes, verbatim from
//!    [`QTensor::packed_data`] (4-bit rows padded to whole bytes);
//! 2. **scales** — one byte per scale for the `Mx` variant (the E8M0
//!    exponent: byte `b` decodes to `2^(b − 127)`, byte 0 to the subnormal
//!    `2^-127`), four f32 bytes per scale for every other variant;
//! 3. **outliers** (`Split` only) — `count` entries of 6 bytes each: u32
//!    flat row-major index + the BF16 value's upper 16 bits ([`bf16_bits`]).
//!
//! So `frame.len() == WIRE_HEADER_BYTES + wire_bytes()` always: the payload
//! *is* the accounted wire volume, and the header is per-message envelope
//! metadata (like the decode tables and rotation seeds it describes —
//! configuration, not data).
//!
//! The decode table itself never crosses the wire: the header's format id
//! names it, and [`from_wire_bytes`](PackedTensor::from_wire_bytes) rebuilds
//! it through the interned per-format [`crate::Codebook`], so a
//! deserialized tensor shares the same table allocation as locally packed
//! ones. Custom code tables outside the built-in FP4/FP8/INT formats are
//! rejected: the [`Writer`] keeps the defect as its error, before a byte of
//! the frame is written. A damaged frame reads as a
//! [`FieldError::Malformed`] naming its defect. Round trips are bit-exact,
//! property-tested across every quantizer and ragged shapes
//! (`tests/wire_roundtrip.rs`, which also pins golden headers).
//!
//! # The stream envelope
//!
//! ```text
//! [u32 body length][u32 crc32(body)][body]
//! ```
//!
//! [`stream_envelope_of`] is the one place those bytes are laid out, for a
//! body whose CRC a [`Writer`] took as it wrote it ([`stream_envelope`]
//! hashes a finished body first). One envelope reader judges them, and it
//! judges the length from the prefix alone: a length above
//! [`STREAM_MAX_FRAME_BYTES`] is corruption ([`StreamError::Oversize`]),
//! refused before anything is allocated for it. A process's control pipe
//! carries exactly one frame, decoded as it streams by [`read_frame`]. A
//! socket link carries a sequence, each frame read whole by
//! [`read_stream_frame`] and released with its CRC once the CRC matches, so
//! a rank that forwards it frames it again without hashing it.
//! [`stream_frame`] and [`StreamDecoder`] (a buffer fed chunks) are the
//! one-buffer forms; no transport path uses them.
//!
//! # The field codec
//!
//! A message is a sequence of fields. Each [`Writer`] method appends one,
//! and the [`Fields`] method of the same name reads it back:
//!
//! | method | bytes |
//! |---|---|
//! | `u8`, `u32`, `u64` | the value |
//! | `usize` | as a `u64` |
//! | `bytes` | `u32` length, then the bytes |
//! | `json` | `bytes` of the value's JSON — serde-derived configuration |
//! | `f32s`, `f64s` | `u32` count, then the raw bits |
//! | `bf16s` | `u32` count, then each value rounded to BF16, as its upper 16 bits ([`bf16_bits`]) |
//! | `packed`, `codes` | a [`PackedTensor`] frame (`codes`: a [`PackedTensor::Codes`] one), its length fixed by its header |
//!
//! A [`Writer`] hashes every byte it writes with one [`Crc32`], so framing
//! its message takes no second pass ([`stream_envelope_of`]), and it moves
//! float vectors through one [`STAGE_BYTES`] buffer straight from the
//! caller's slice. [`Fields`] reads straight from a byte stream into each
//! field's final value: it never reads past the length the message
//! declares, checks every count against the bytes left before it
//! allocates, and fills float vectors through one stage buffer
//! ([`Fields::f32s_into`] in place; [`Fields::f32s`] and [`Fields::bf16s`]
//! into a buffer from [`snip_tensor::arena`]). Over
//! a stream or file frame, nothing decoded is released until, in this
//! order, the message ended exactly at its declared length, the stream is
//! at EOF, and the CRC of the bytes read matches: a short, long, polluted
//! or damaged input is a typed [`FieldError`], never a message.
//! [`decode_message`] reads a bare encoding the same way, without hashing
//! it.
//!
//! # The file frame and the checkpoint layout
//!
//! ```text
//! [FILE_MAGIC: 8 bytes][u64 body length][u32 crc32(body)][body]
//! ```
//!
//! The length is a `u64`: a file is not bound by
//! [`STREAM_MAX_FRAME_BYTES`]. [`write_file_frame`] streams the body
//! through a [`Writer`] and then seeks back to fill in the envelope; the
//! last digit of [`FILE_MAGIC`] is the layout version.
//!
//! A trainer checkpoint (`snip_core::Trainer::save`) is one file frame
//! whose body holds exactly the state a resume needs, in this order:
//!
//! 1. the trainer configuration, `json`;
//! 2. the step, then the last step's loss as `f64` bits, both `u64`;
//! 3. the last scheme-update error: a `u8` flag, then its text as `bytes`;
//! 4. the trainer RNG, then the batch stream's cursor: four `u64` state
//!    words, a `u8` flag and, when set, the cached Gaussian's bits;
//! 5. the model: every parameter's value as `f32s`, in the model's
//!    parameter order; then per linear layer — each block's Q, K, V, O,
//!    Gate, Up, Down, then the LM head — its input, weight and gradient
//!    precision (`u8` each) and its exact-mode flag (`u8`);
//! 6. the optimizer: its step count and learning rate (`u64`, the latter
//!    `f64` bits), the number of parameters with moments (`usize`; 0 before
//!    the first update), then per parameter `m` and `v` — `f32s`, or under
//!    packed FP8 moments one `codes` frame each, whose format id names the
//!    decode table.
//!
//! Gradients, forward caches and derived tables (RoPE, the synthetic
//! language) are not state: loading builds a trainer from the
//! configuration and overwrites its state as the file streams in. So the
//! file is 12 bytes per parameter with f32 moments and about 6 with packed
//! FP8 moments, plus the configuration and a fixed header.

use crate::format::ElementFormat;
use crate::packed::{PackedOutlier, PackedTensor};
use serde::{Deserialize, Serialize};
/// The workspace's CRC-32, which every stream frame and file frame
/// carries: defined with its kernel rows in [`snip_tensor::crc`] and
/// re-exported here unchanged.
pub use snip_tensor::crc::{crc32, Crc32};
use snip_tensor::{arena, bf16, GroupLayout, QTensor};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};

/// Size of the fixed frame header preceding the payload.
pub const WIRE_HEADER_BYTES: usize = 36;

/// Bytes of the little-endian `u32` length prefix at the head of each
/// stream frame envelope.
pub const STREAM_PREFIX_BYTES: usize = 4;

/// Bytes of the little-endian `u32` CRC32 checksum that follows the length
/// prefix and covers the frame body.
pub const STREAM_CRC_BYTES: usize = 4;

/// Total per-frame stream overhead: `[u32 length][u32 crc32(body)]`. The
/// checksum catches in-flight payload corruption at the framing layer —
/// before any frame content is interpreted, and long before a damaged
/// gradient could be silently reduced.
pub const STREAM_ENVELOPE_BYTES: usize = STREAM_PREFIX_BYTES + STREAM_CRC_BYTES;

/// Upper bound on a single stream frame's body. A length prefix above this
/// is treated as corruption ([`StreamError::Oversize`]) rather than an
/// allocation request — the cheap sanity check that makes garbage prefixes
/// fail fast instead of OOM-ing the receiver.
pub const STREAM_MAX_FRAME_BYTES: usize = 1 << 30;

const MAGIC: [u8; 2] = *b"SP";
const VERSION: u8 = 1;

/// A packed frame's own defect as the field codec's error: a reader's
/// [`FieldError::Malformed`], a writer's kept I/O error.
fn malformed(defect: impl std::fmt::Display) -> String {
    format!("packed frame: {defect}")
}

/// A header byte out of its field's range.
fn bad_tag(field: &str, value: u8) -> String {
    malformed(format_args!("bad {field} byte {value:#04x}"))
}

/// Identifies the format whose decode table matches `q`'s, among
/// everything a frame can name (every format with a wire id). Locally
/// packed tensors share the interned per-format table, so the match is
/// usually a pointer comparison; tensors built over a copy of a table
/// match by bitwise content.
fn identify(q: &QTensor) -> Result<ElementFormat, String> {
    let lut = q.lut();
    (0..ElementFormat::WIRE_ID_END)
        .filter_map(ElementFormat::from_wire_id)
        .find(|fmt| {
            let book = fmt.codebook().expect("formats with a wire id pack");
            let cand = book.lut_slice();
            std::ptr::eq(cand, lut)
                || (cand.len() == lut.len()
                    && cand
                        .iter()
                        .zip(lut)
                        .all(|(a, b)| a.to_bits() == b.to_bits()))
        })
        .ok_or_else(|| malformed("code table is not a built-in wire format"))
}

fn layout_tag(layout: GroupLayout) -> (u8, u32) {
    match layout {
        GroupLayout::Tensorwise => (0, 0),
        GroupLayout::Rowwise => (1, 0),
        GroupLayout::Columnwise => (2, 0),
        GroupLayout::Block { nb } => (3, nb as u32),
        GroupLayout::Tile { nb } => (4, nb as u32),
    }
}

fn layout_of(tag: u8, nb: u32) -> Result<GroupLayout, String> {
    match tag {
        0 => Ok(GroupLayout::Tensorwise),
        1 => Ok(GroupLayout::Rowwise),
        2 => Ok(GroupLayout::Columnwise),
        3 if nb > 0 => Ok(GroupLayout::Block { nb: nb as usize }),
        4 if nb > 0 => Ok(GroupLayout::Tile { nb: nb as usize }),
        _ => Err(bad_tag("layout", tag)),
    }
}

/// Encodes a power-of-two decode scale as its E8M0 exponent byte
/// (`2^(b − 127)`; byte 0 is the subnormal `2^-127`, byte 255 is invalid).
fn e8m0_encode(scale: f32) -> Result<u8, String> {
    let bits = scale.to_bits();
    if bits == 1u32 << 22 {
        return Ok(0); // 2^-127, stored subnormal
    }
    let exp = (bits >> 23) & 0xFF;
    if scale > 0.0 && bits & 0x7F_FFFF == 0 && exp != 0 && exp != 0xFF {
        Ok(exp as u8) // value = 2^(exp − 127)
    } else {
        Err(malformed(format_args!(
            "MX scale {scale} is not an E8M0 power of two"
        )))
    }
}

/// Inverse of [`e8m0_encode`], bit-exact.
fn e8m0_decode(byte: u8) -> Result<f32, String> {
    match byte {
        0 => Ok(f32::from_bits(1 << 22)),
        255 => Err(bad_tag("e8m0 scale", byte)),
        b => Ok(f32::from_bits(u32::from(b) << 23)),
    }
}

/// The BF16 wire encoding of a BF16-rounded `f32`: its upper 16 bits. A
/// NaN whose payload sits only in the low half would truncate to ±Inf, so
/// NaN ships with the quiet bit set — it arrives a NaN, payload bits exempt.
/// Both BF16 sites of the workspace (outlier entries here, BF16 transport
/// frames) narrow through this one function.
pub fn bf16_bits(x: f32) -> u16 {
    let upper = (x.to_bits() >> 16) as u16;
    if x.is_nan() {
        upper | 0x0040
    } else {
        upper
    }
}

impl PackedTensor {
    /// Serializes this tensor into a self-describing byte frame (see the
    /// [module docs](crate::wire) for the layout) through
    /// [`Writer::packed`]. The returned buffer is exactly
    /// [`WIRE_HEADER_BYTES`]` + self.wire_bytes()` long — the payload is
    /// byte-for-byte the accounted wire volume.
    ///
    /// # Errors
    ///
    /// The error [`Writer::packed`] keeps: the code table is not a
    /// built-in format, or an MX scale is not an E8M0 power of two.
    pub fn to_wire_bytes(&self) -> std::io::Result<Vec<u8>> {
        let mut w = Writer::new(Vec::with_capacity(
            WIRE_HEADER_BYTES + self.wire_bytes() as usize,
        ));
        w.packed(self);
        Ok(w.finish()?.0)
    }

    /// Reconstructs a tensor from a frame produced by
    /// [`PackedTensor::to_wire_bytes`], through [`Fields::packed`]'s
    /// reader. The result decodes **bit-for-bit** identically to the
    /// original (property-tested across every quantizer), and its decode
    /// table is the interned per-format allocation.
    ///
    /// # Errors
    ///
    /// [`FieldError::Malformed`] naming any structural defect:
    /// short/overlong buffers, bad magic or version, unknown
    /// variant/format/layout bytes, a shape too large to address, invalid
    /// E8M0 scale bytes, and out-of-bounds or unsorted outlier entries.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<PackedTensor, FieldError> {
        let mut f = Fields::new(bytes, bytes.len(), false);
        let packed = f.packed()?;
        if f.left > 0 {
            let (expect, got) = (bytes.len() - f.left, bytes.len());
            return Err(malformed(format_args!(
                "frame length {got} does not match header (expect {expect})"
            ))
            .into());
        }
        Ok(packed)
    }
}

/// Everything that can go wrong at the byte-stream framing layer (the
/// length-prefixed encoding a socket transport uses to delimit frames on a
/// continuous stream). Deliberately separate from a frame's own defects
/// ([`FieldError::Malformed`]): a stream error means the *transport bytes*
/// are damaged, before any frame content is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// A length prefix exceeds [`STREAM_MAX_FRAME_BYTES`] — a corrupt or
    /// adversarial prefix, never a legitimate frame.
    Oversize {
        /// The declared body length.
        len: u32,
    },
    /// The stream ended mid-frame (peer closed or truncated the stream).
    Truncated {
        /// Bytes the pending frame still needs (envelope + body).
        need: usize,
        /// Bytes actually buffered for it.
        got: usize,
    },
    /// The frame body does not hash to the CRC32 in its envelope — bytes
    /// were damaged in flight.
    Crc {
        /// The checksum the envelope carries.
        expect: u32,
        /// The checksum the received body hashes to.
        got: u32,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Oversize { len } => {
                write!(f, "stream frame length {len} exceeds the sanity bound")
            }
            StreamError::Truncated { need, got } => {
                write!(f, "stream ended mid-frame: need {need} bytes, got {got}")
            }
            StreamError::Crc { expect, got } => {
                write!(
                    f,
                    "stream frame crc mismatch: envelope says {expect:#010x}, body hashes to {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// The stream envelope of `body`: little-endian `u32` length, then
/// little-endian `u32` [`crc32`] of the body — [`stream_envelope_of`] after
/// hashing `body`.
///
/// # Panics
///
/// Panics if `body` exceeds [`STREAM_MAX_FRAME_BYTES`] (no frame this crate
/// produces comes near it).
pub fn stream_envelope(body: &[u8]) -> [u8; STREAM_ENVELOPE_BYTES] {
    stream_envelope_of(body.len(), crc32(body))
}

/// The stream envelope of a `len`-byte body whose [`crc32`] is `crc`: the
/// only place those bytes are laid out, for a body a [`Writer`] hashed as
/// it wrote it, so that framing it takes no second pass.
///
/// # Panics
///
/// Panics if `len` exceeds [`STREAM_MAX_FRAME_BYTES`].
pub fn stream_envelope_of(len: usize, crc: u32) -> [u8; STREAM_ENVELOPE_BYTES] {
    assert!(
        len <= STREAM_MAX_FRAME_BYTES,
        "frame body of {len} bytes exceeds the stream bound"
    );
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    envelope[..STREAM_PREFIX_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    envelope[STREAM_PREFIX_BYTES..].copy_from_slice(&crc.to_le_bytes());
    envelope
}

/// Checks `got`, the [`crc32`] of a received body, against `expect`, the
/// checksum its envelope carries.
fn check_crc(expect: u32, got: u32) -> Result<(), StreamError> {
    if got != expect {
        return Err(StreamError::Crc { expect, got });
    }
    Ok(())
}

/// Wraps a frame body for a byte stream: its [`stream_envelope`] followed by
/// the body, in one buffer. [`read_stream_frame`] reads a sequence of them
/// back.
///
/// # Panics
///
/// Panics if `body` exceeds [`STREAM_MAX_FRAME_BYTES`].
pub fn stream_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(STREAM_ENVELOPE_BYTES + body.len());
    out.extend_from_slice(&stream_envelope(body));
    out.extend_from_slice(body);
    out
}

/// A buffer of [`stream_frame`]-encoded frames, fed whatever chunks arrive,
/// from which complete frame bodies are pulled with
/// [`StreamDecoder::next_frame`] through [`read_stream_frame`]. No
/// transport path reads with it; the benchmark times it.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Bytes fed and not yet popped as a frame.
    buf: Vec<u8>,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed, [`StreamError::Oversize`] if the pending length prefix is
    /// not a plausible frame, or [`StreamError::Crc`] if the body fails its
    /// envelope checksum.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        let mut pending = &self.buf[..];
        let body = match read_stream_frame(&mut pending) {
            Ok(frame) => frame.map(|(body, _)| body),
            // The rest of the frame has not been fed yet.
            Err(ReadError::Stream(StreamError::Truncated { .. })) => return Ok(None),
            Err(ReadError::Stream(e)) => return Err(e),
            Err(ReadError::Io(e)) => unreachable!("a slice reads without error: {e}"),
        };
        let popped = self.buf.len() - pending.len();
        self.buf.drain(..popped);
        Ok(body)
    }
}

/// Why a stream did not yield its next frame.
#[derive(Debug)]
pub enum ReadError {
    /// Reading the stream failed.
    Io(std::io::Error),
    /// The bytes read are not one intact frame.
    Stream(StreamError),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<StreamError> for ReadError {
    fn from(e: StreamError) -> Self {
        ReadError::Stream(e)
    }
}

/// The one stream-envelope reader: the body length, judged from the prefix
/// alone — an implausible one fails before the CRC field is read — and the
/// CRC; `None` at EOF before the first byte. An envelope cut short is
/// [`StreamError::Truncated`].
fn read_envelope(from: &mut impl Read) -> Result<Option<(usize, u32)>, ReadError> {
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    let got = read_up_to(from, &mut envelope[..STREAM_PREFIX_BYTES])?;
    if got == 0 {
        return Ok(None);
    }
    let need = STREAM_ENVELOPE_BYTES;
    if got < STREAM_PREFIX_BYTES {
        return Err(StreamError::Truncated { need, got }.into());
    }
    let len = u32::from_le_bytes(envelope[..STREAM_PREFIX_BYTES].try_into().expect("prefix"));
    if len as usize > STREAM_MAX_FRAME_BYTES {
        return Err(StreamError::Oversize { len }.into());
    }
    let len = len as usize;
    let got = got + read_up_to(from, &mut envelope[STREAM_PREFIX_BYTES..])?;
    if got < need {
        return Err(StreamError::Truncated {
            need: need + len,
            got,
        }
        .into());
    }
    let crc = envelope[STREAM_PREFIX_BYTES..]
        .try_into()
        .expect("crc field");
    Ok(Some((len, u32::from_le_bytes(crc))))
}

/// Reads the next frame of a stream of frames — a socket link — whole,
/// through [`read_frame`]'s envelope reader, hashing the body one
/// [`STAGE_BYTES`] piece at a time as it lands. The body is released with
/// the CRC its envelope carried once that CRC matches, so a rank forwarding
/// it envelopes it again without hashing it. `Ok(None)` when the stream
/// ends on a frame boundary.
///
/// # Errors
///
/// [`ReadError::Io`] for a failed read; [`ReadError::Stream`] for an
/// [`StreamError::Oversize`] length (refused before anything is allocated),
/// a stream cut mid-frame ([`StreamError::Truncated`]) or a damaged body
/// ([`StreamError::Crc`]).
pub fn read_stream_frame(from: &mut impl Read) -> Result<Option<(Vec<u8>, u32)>, ReadError> {
    let Some((len, crc)) = read_envelope(from)? else {
        return Ok(None);
    };
    let mut body = Vec::with_capacity(len);
    let mut hash = Crc32::new();
    while body.len() < len {
        let at = body.len();
        body.resize(len.min(at + STAGE_BYTES), 0);
        let got = read_up_to(from, &mut body[at..])?;
        hash.update(&body[at..at + got]);
        if at + got < body.len() {
            return Err(StreamError::Truncated {
                need: STREAM_ENVELOPE_BYTES + len,
                got: STREAM_ENVELOPE_BYTES + at + got,
            }
            .into());
        }
    }
    check_crc(crc, hash.finish())?;
    Ok(Some((body, crc)))
}

// ---------------------------------------------------------------------------
// The field codec: messages and files read as they stream.
// ---------------------------------------------------------------------------

/// Why a stream did not yield one intact message.
#[derive(Debug)]
pub enum FieldError {
    /// EOF before the first byte: the writer left no frame at all.
    Empty,
    /// Reading the stream failed.
    Io(std::io::Error),
    /// The bytes are not one intact frame holding one well-formed message.
    Malformed(String),
}

impl From<String> for FieldError {
    fn from(message: String) -> Self {
        FieldError::Malformed(message)
    }
}

impl From<std::io::Error> for FieldError {
    fn from(e: std::io::Error) -> Self {
        FieldError::Io(e)
    }
}

impl From<ReadError> for FieldError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => FieldError::Io(e),
            ReadError::Stream(e) => FieldError::Malformed(e.to_string()),
        }
    }
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::Empty => write!(f, "0 bytes, no frame envelope"),
            FieldError::Io(e) => write!(f, "{e}"),
            FieldError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FieldError {}

/// Bytes a [`Writer`] or [`Fields`] moves per pass of a float vector: whole
/// `f32`s and `f64`s, and the capacity of a default Linux pipe.
pub const STAGE_BYTES: usize = 64 * 1024;

/// Fills `buf` from `from` until it is full or the stream ends; the count
/// read.
fn read_up_to(from: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match from.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// The write side of the field codec: each method appends what the
/// [`Fields`] method of the same name reads back, and every byte written
/// goes through one incremental [`Crc32`], so a frame's checksum needs no
/// second pass over its body. Float vectors move through one
/// [`STAGE_BYTES`] buffer per call, straight from the caller's slice.
///
/// A write never fails on the spot: the first error (an I/O error, a field
/// too long for its `u32` prefix, codes of a table no frame can name, an
/// MX scale that is not an E8M0 power of two) is
/// kept, every later write is skipped, and [`Writer::finish`] returns it.
pub struct Writer<W> {
    to: W,
    written: u64,
    crc: Crc32,
    error: Option<std::io::Error>,
}

impl<W: Write> Writer<W> {
    /// A writer appending to `to`.
    pub fn new(to: W) -> Self {
        Writer {
            to,
            written: 0,
            crc: Crc32::new(),
            error: None,
        }
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Keeps `error` unless an earlier one is kept already.
    fn fail(&mut self, error: std::io::Error) {
        self.error.get_or_insert(error);
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        match self.to.write_all(bytes) {
            Ok(()) => {
                self.crc.update(bytes);
                self.written += bytes.len() as u64;
            }
            Err(e) => self.fail(e),
        }
    }

    /// A `u32` length or count prefix.
    fn count(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.u32(n),
            Err(_) => self.fail(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("a field of {n} items overflows its u32 count"),
            )),
        }
    }

    /// `vs` as `N`-byte little-endian values, through the stage buffer.
    fn values<T, const N: usize>(&mut self, vs: &[T], le_bytes: impl Fn(&T) -> [u8; N]) {
        let mut stage = vec![0u8; (N * vs.len()).min(STAGE_BYTES)];
        for chunk in vs.chunks(STAGE_BYTES / N) {
            let bytes = &mut stage[..N * chunk.len()];
            for (slot, v) in bytes.chunks_exact_mut(N).zip(chunk) {
                slot.copy_from_slice(&le_bytes(v));
            }
            self.put(bytes);
        }
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: &u64) {
        self.put(&v.to_le_bytes());
    }

    /// A `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: &usize) {
        self.u64(&(*v as u64));
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.count(v.len());
        self.put(v);
    }

    /// A length-prefixed JSON blob — how serde-derived configuration rides
    /// inside binary messages.
    pub fn json<T: Serialize>(&mut self, v: &T) {
        self.bytes(&serde_json::to_vec(v).expect("config types serialize"));
    }

    /// A count-prefixed vector of `f32`s as their raw little-endian bits,
    /// so NaN payloads, ±Inf and −0 survive.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.f32s_joined(&[vs]);
    }

    /// `parts` as one count-prefixed `f32` vector: byte for byte what
    /// [`Writer::f32s`] writes for their concatenation, without building
    /// it.
    pub fn f32s_joined(&mut self, parts: &[&[f32]]) {
        self.count(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            self.values(part, |v| v.to_le_bytes());
        }
    }

    /// A count-prefixed vector of `f64`s as their raw little-endian bits.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.count(vs.len());
        self.values(vs, |v| v.to_le_bytes());
    }

    /// A count-prefixed vector of `vs` rounded to BF16 (nearest, ties to
    /// even), each value as its upper 16 bits ([`bf16_bits`]): half the
    /// bytes of [`Writer::f32s`], narrowed straight from the caller's slice.
    pub fn bf16s(&mut self, vs: &[f32]) {
        self.count(vs.len());
        self.values(vs, |&v| bf16_bits(bf16::round(v)).to_le_bytes());
    }

    /// `p` as its wire frame (the [module docs](crate::wire) give the
    /// layout) — the one packed-frame writer: the header, then the codes,
    /// scales and outliers straight from `p`. Its length is fixed by the
    /// header, so it carries no prefix of its own.
    ///
    /// A code table that is not a built-in format, or an MX scale that is
    /// not an E8M0 power of two, is found before a byte is written and
    /// kept as the writer's error ([`Writer::finish`] returns it).
    pub fn packed(&mut self, p: &PackedTensor) {
        let (variant, block, seed, outliers) = match p {
            PackedTensor::Codes(_) => (0, 0, 0, &[][..]),
            PackedTensor::Mx(_) => (1, 0, 0, &[][..]),
            PackedTensor::Rotated { block, seed, .. } => (2, *block as u32, *seed, &[][..]),
            PackedTensor::Split { outliers, .. } => (3, 0, 0, &outliers[..]),
        };
        self.frame(p.codes(), variant, block, seed, outliers)
    }

    /// `q` as the wire frame of [`PackedTensor::Codes`]: what
    /// [`Writer::packed`] writes for it, a table no frame can name kept as
    /// the writer's error.
    pub fn codes(&mut self, q: &QTensor) {
        self.frame(q, 0, 0, 0, &[]);
    }

    /// The frame of `q`'s codes as `variant`, with that variant's RHT
    /// block and seed and outliers (zero and empty where they do not
    /// apply).
    fn frame(
        &mut self,
        q: &QTensor,
        variant: u8,
        block: u32,
        seed: u64,
        outliers: &[PackedOutlier],
    ) {
        let checked = identify(q).and_then(|format| {
            let mx_scales = (variant == 1)
                .then(|| q.scales().iter().map(|&s| e8m0_encode(s)).collect())
                .transpose()?;
            Ok((
                format.wire_id().expect("identified by its code table"),
                mx_scales,
            ))
        });
        let (format, mx_scales): (u8, Option<Vec<u8>>) = match checked {
            Ok(checked) => checked,
            Err(defect) => return self.fail(std::io::Error::new(ErrorKind::InvalidInput, defect)),
        };
        let ((rows, cols), (layout, nb)) = (q.shape(), layout_tag(q.layout()));
        self.put(&MAGIC);
        // Then two reserved (zero) bytes.
        self.put(&[VERSION, variant, format, layout, 0, 0]);
        for field in [rows as u32, cols as u32, nb, block] {
            self.u32(field);
        }
        self.u64(&seed);
        self.u32(u32::try_from(outliers.len()).expect("u32 outliers"));
        self.put(q.packed_data());
        match mx_scales {
            Some(bytes) => self.put(&bytes),
            None => self.values(q.scales(), |s| s.to_le_bytes()),
        }
        self.values(outliers, |o| {
            let mut entry = [0u8; 6];
            entry[..4].copy_from_slice(&o.index.to_le_bytes());
            entry[4..].copy_from_slice(&bf16_bits(o.value).to_le_bytes());
            entry
        });
    }

    /// The sink and the [`crc32`] of everything written, or the first
    /// error a write met.
    ///
    /// # Errors
    ///
    /// The error kept by the first write that failed.
    pub fn finish(self) -> std::io::Result<(W, u32)> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.to, self.crc.finish())),
        }
    }
}

/// The read side of the field codec: reads the fields of one message
/// straight from a byte stream into their final values, hashing every byte
/// it takes. It never reads past the `left` bytes the message declares,
/// and it checks every length field against them before allocating for
/// it. Over a pipe the message is the body of one stream frame
/// ([`read_frame`]), in a file the body of one file frame
/// ([`read_file_frame`]), and over a slice a bare encoding
/// ([`decode_message`]).
pub struct Fields<R> {
    from: R,
    /// Message bytes not yet read.
    left: usize,
    /// The CRC of the bytes read, when a frame's envelope carries one.
    crc: Option<Crc32>,
}

impl<R: Read> Fields<R> {
    fn new(from: R, len: usize, hash: bool) -> Self {
        Fields {
            from,
            left: len,
            crc: hash.then(Crc32::new),
        }
    }

    /// Message bytes not yet read: what a length read from the message may
    /// claim at most.
    pub fn left(&self) -> usize {
        self.left
    }

    /// The next `n` message bytes may be read: a field no longer than
    /// what is left of the message.
    fn claim(&self, n: usize) -> Result<(), FieldError> {
        if n > self.left {
            return Err(format!(
                "message truncated: a {n}-byte field with {} bytes left",
                self.left
            )
            .into());
        }
        Ok(())
    }

    /// Reads exactly `buf.len()` message bytes into `buf`.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), FieldError> {
        self.claim(buf.len())?;
        let got = read_up_to(&mut self.from, buf)?;
        self.left -= got;
        if let Some(crc) = &mut self.crc {
            crc.update(&buf[..got]);
        }
        if got < buf.len() {
            return Err(format!("stream ended {} bytes before its frame did", self.left).into());
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FieldError> {
        let mut bytes = [0u8; N];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FieldError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FieldError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FieldError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `usize` written as a `u64`; one that does not fit is malformed.
    pub fn usize(&mut self) -> Result<usize, FieldError> {
        Ok(usize::try_from(self.u64()?).map_err(|e| format!("index field: {e}"))?)
    }

    /// `n` message bytes as one buffer.
    fn take(&mut self, n: usize) -> Result<Vec<u8>, FieldError> {
        self.claim(n)?;
        let mut bytes = vec![0u8; n];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FieldError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length-prefixed JSON blob.
    pub fn json<T: Deserialize>(&mut self) -> Result<T, FieldError> {
        Ok(serde_json::from_slice(&self.bytes()?).map_err(|e| format!("embedded json: {e:?}"))?)
    }

    /// Everything left of the message.
    pub fn rest(&mut self) -> Result<Vec<u8>, FieldError> {
        self.take(self.left)
    }

    /// A count-prefixed vector of `f32`s, in a buffer from
    /// [`snip_tensor::arena`]: recycled inside a training step, a fresh
    /// allocation anywhere else.
    pub fn f32s(&mut self) -> Result<Vec<f32>, FieldError> {
        let count = self.u32()? as usize;
        self.values(count, arena::take, f32::from_le_bytes)
    }

    /// A count-prefixed vector of `f64`s.
    pub fn f64s(&mut self) -> Result<Vec<f64>, FieldError> {
        let count = self.u32()? as usize;
        self.values(count, Vec::with_capacity, f64::from_le_bytes)
    }

    /// What [`Writer::bf16s`] wrote, each value widened to the `f32` its
    /// BF16 bits stand for, in a buffer from the arena as in
    /// [`Fields::f32s`].
    pub fn bf16s(&mut self) -> Result<Vec<f32>, FieldError> {
        let count = self.u32()? as usize;
        self.values(count, arena::take, |half: [u8; 2]| {
            f32::from_bits(u32::from(u16::from_le_bytes(half)) << 16)
        })
    }

    /// A count-prefixed vector of `f32`s read in place into `dst`, whose
    /// length the count must equal: no allocation beyond the stage buffer.
    pub fn f32s_into(&mut self, dst: &mut [f32]) -> Result<(), FieldError> {
        let count = self.u32()? as usize;
        if count != dst.len() {
            return Err(format!("{count} values where {} belong", dst.len()).into());
        }
        let mut slots = dst.iter_mut();
        self.staged(count, f32::from_le_bytes, |values| {
            // `values` first: a zip takes from its left side before it
            // finds the right one empty.
            for (v, slot) in values.zip(slots.by_ref()) {
                *slot = v;
            }
        })
    }

    /// The byte length of `count` `W`-byte values, if it fits what is left
    /// of the message.
    fn judge<const W: usize>(&self, count: usize) -> Result<usize, FieldError> {
        let len = count.checked_mul(W).filter(|&len| len <= self.left);
        len.ok_or_else(|| {
            format!(
                "{count} values of {W} bytes declared, {} bytes left",
                self.left
            )
            .into()
        })
    }

    /// `count` `W`-byte little-endian values, read into the buffer `alloc`
    /// makes for that count (cleared first) — made only once the count fits
    /// what is left of the message.
    fn values<T, const W: usize>(
        &mut self,
        count: usize,
        alloc: impl FnOnce(usize) -> Vec<T>,
        from_le: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, FieldError> {
        self.judge::<W>(count)?;
        let mut values = alloc(count);
        values.clear();
        self.staged(count, from_le, |more| values.extend(more))?;
        Ok(values)
    }

    /// Reads `count` `W`-byte values through one [`STAGE_BYTES`] buffer,
    /// handing `sink` each pass's values; the count is judged against the
    /// bytes left before the stage is allocated.
    fn staged<T, const W: usize>(
        &mut self,
        count: usize,
        from_le: fn([u8; W]) -> T,
        mut sink: impl FnMut(&mut dyn Iterator<Item = T>),
    ) -> Result<(), FieldError> {
        let len = self.judge::<W>(count)?;
        let mut stage = vec![0u8; len.min(STAGE_BYTES)];
        let mut todo = len;
        while todo > 0 {
            let piece = &mut stage[..todo.min(STAGE_BYTES)];
            self.fill(piece)?;
            sink(
                &mut piece
                    .chunks_exact(W)
                    .map(|b| from_le(b.try_into().expect("W-byte chunk"))),
            );
            todo -= piece.len();
        }
        Ok(())
    }

    /// A frame [`Writer::packed`] wrote — the one packed-frame reader: the
    /// header is judged first, and the codes, scales and outliers are read
    /// into the tensor's own buffers, sized by the header once its payload
    /// fits what is left of the message. The decode tables are the
    /// format's interned ones.
    ///
    /// # Errors
    ///
    /// [`FieldError::Malformed`] naming the frame's defect (a short or bad
    /// header, a shape too large to address, a payload longer than the
    /// message, bad scale bytes or outliers), or the error of the read
    /// that failed.
    pub fn packed(&mut self) -> Result<PackedTensor, FieldError> {
        let left = self.left;
        if left < WIRE_HEADER_BYTES {
            let need = WIRE_HEADER_BYTES;
            return Err(malformed(format_args!(
                "frame too short: need {need} bytes, got {left}"
            ))
            .into());
        }
        let [m0, m1, version, variant, format, layout, _, _] = self.array()?;
        if [m0, m1] != MAGIC || version != VERSION {
            return Err(malformed("bad frame magic or version").into());
        }
        let book = ElementFormat::from_wire_id(format)
            .and_then(ElementFormat::codebook)
            .ok_or_else(|| bad_tag("format", format))?;
        let (rows, cols, nb) = (self.u32()? as usize, self.u32()? as usize, self.u32()?);
        let layout = layout_of(layout, nb)?;
        let (block, seed, outlier_count) = (self.u32()?, self.u64()?, self.u32()? as usize);

        // Untrusted: a product of two `u32` fields fits a 64-bit `usize`, but
        // scaling and summing them may overflow — rejected, not wrapped.
        let too_large = || malformed("header shape is too large to address");
        let bad_outlier = |index| {
            malformed(format_args!(
                "outlier index {index} out of bounds or out of order"
            ))
        };
        let code_bytes = rows * book.width().row_bytes(cols);
        let groups = layout.group_count(rows, cols);
        let scale_bytes = groups
            .checked_mul(if variant == 1 { 1 } else { 4 })
            .ok_or_else(too_large)?;
        let outlier_bytes = if variant == 3 { outlier_count * 6 } else { 0 };
        if variant == 3 && outlier_count > rows * cols {
            return Err(bad_outlier(outlier_count as u32).into());
        }
        let payload = [code_bytes, scale_bytes, outlier_bytes]
            .into_iter()
            .try_fold(0, usize::checked_add)
            .filter(|p| p.checked_add(WIRE_HEADER_BYTES).is_some())
            .ok_or_else(too_large)?;
        if payload > self.left {
            let expect = WIRE_HEADER_BYTES + payload;
            return Err(malformed(format_args!(
                "frame length {left} does not match header (expect {expect})"
            ))
            .into());
        }

        let data = self.take(code_bytes)?;
        let scales = if variant == 1 {
            let bytes = self.take(groups)?;
            bytes
                .into_iter()
                .map(e8m0_decode)
                .collect::<Result<_, _>>()?
        } else {
            self.values(groups, Vec::with_capacity, f32::from_le_bytes)?
        };
        let (width, lut, pair) = (book.width(), book.lut(), book.pair_lut());
        let q = QTensor::from_parts_with_pair(rows, cols, width, lut, pair, layout, scales, data);
        Ok(match variant {
            0 => PackedTensor::Codes(q),
            1 => PackedTensor::Mx(q),
            2 if block.is_power_of_two() => PackedTensor::Rotated {
                codes: q,
                block: block as usize,
                seed,
            },
            3 => {
                let entries = self.values(outlier_count, Vec::with_capacity, |e: [u8; 6]| {
                    let [i0, i1, i2, i3, v0, v1] = e;
                    let index = u32::from_le_bytes([i0, i1, i2, i3]);
                    (index, u16::from_le_bytes([v0, v1]))
                })?;
                let mut outliers = Vec::with_capacity(entries.len());
                for (index, bf16) in entries {
                    let last = outliers.last().map(|o: &PackedOutlier| o.index);
                    if index as usize >= rows * cols || last.is_some_and(|p| p >= index) {
                        return Err(bad_outlier(index).into());
                    }
                    let value = f32::from_bits(u32::from(bf16) << 16);
                    outliers.push(PackedOutlier { index, value });
                }
                PackedTensor::Split { body: q, outliers }
            }
            // The low byte of the rotation block field.
            2 => Err(bad_tag("rotation block", block as u8))?,
            value => Err(bad_tag("variant", value))?,
        })
    }

    /// A frame [`Writer::codes`] wrote: [`Fields::packed`], which must be
    /// plain codes.
    pub fn codes(&mut self) -> Result<QTensor, FieldError> {
        match self.packed()? {
            PackedTensor::Codes(q) => Ok(q),
            _ => Err(
                "packed codes: a frame of another variant is not plain codes"
                    .to_string()
                    .into(),
            ),
        }
    }

    /// Runs `read` over the message; it must end exactly where the message
    /// does.
    fn whole<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, FieldError>,
    ) -> Result<T, FieldError> {
        let message = read(self)?;
        if self.left > 0 {
            return Err(format!("{} bytes left after the message", self.left).into());
        }
        Ok(message)
    }
}

/// Reads the `len`-byte message `from` holds through `read`, then requires,
/// in this order, that the message ended exactly at `len`, that the stream
/// is at EOF, and that the bytes read hash to `crc`. Only then is the
/// message released: a short, long, polluted or damaged stream is an
/// error, never a message.
fn read_body<R: Read, T>(
    from: R,
    len: usize,
    crc: u32,
    read: impl FnOnce(&mut Fields<R>) -> Result<T, FieldError>,
) -> Result<T, FieldError> {
    let mut fields = Fields::new(from, len, true);
    let message = fields.whole(read)?;
    if read_up_to(&mut fields.from, &mut [0u8; 1])? > 0 {
        return Err(format!("stray bytes after the frame of {len} bytes").into());
    }
    let got = fields.crc.as_ref().map_or(crc, Crc32::finish);
    check_crc(crc, got).map_err(|e| e.to_string())?;
    Ok(message)
}

/// Decodes a bare encoding — no envelope, so no CRC and no hashing —
/// through `read`, which must consume it exactly.
///
/// # Errors
///
/// [`FieldError::Malformed`] for truncated input, trailing bytes or
/// whatever `read` rejects.
pub fn decode_message<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Fields<&'a [u8]>) -> Result<T, FieldError>,
) -> Result<T, FieldError> {
    Fields::new(bytes, bytes.len(), false).whole(read)
}

/// Reads the one [`stream_frame`] `from` carries — a control pipe — and
/// decodes its body through `read` as it streams: the envelope is read by
/// the one envelope reader [`read_stream_frame`] uses, its length judged
/// before anything else, every body byte goes through the CRC as it is
/// read, and the raw body is never held whole. The decoded message is
/// returned only once, in this order, the body ended exactly at its
/// declared length, the stream is at EOF, and the CRC matches.
///
/// # Errors
///
/// [`FieldError::Empty`] for a stream that ended before its first byte,
/// [`FieldError::Io`] for a failed read, [`FieldError::Malformed`] for
/// anything else that is not one intact frame holding one message.
pub fn read_frame<R: Read, T>(
    mut from: R,
    read: impl FnOnce(&mut Fields<R>) -> Result<T, FieldError>,
) -> Result<T, FieldError> {
    let (len, crc) = read_envelope(&mut from)?.ok_or(FieldError::Empty)?;
    read_body(from, len, crc, read)
}

/// The first bytes of a file frame: names the file kind and its layout
/// version (the trailing digit).
pub const FILE_MAGIC: [u8; 8] = *b"SNIPCKP1";

/// Bytes of a file frame's envelope: [`FILE_MAGIC`], the `u64` body
/// length and the `u32` [`crc32`] of the body, little-endian.
pub const FILE_ENVELOPE_BYTES: usize = 20;

/// Writes one file frame to `to`: a placeholder envelope, the body `write`
/// streams through a [`Writer`], then — seeking back — the envelope with
/// the body's length and CRC. Unlike a [`stream_frame`], a file frame has
/// a `u64` length and no size bound. Returns `to`, positioned after the
/// envelope; flushing and syncing it are the caller's.
///
/// # Errors
///
/// The first error writing the body met, or one writing or seeking `to`.
pub fn write_file_frame<W: Write + Seek>(
    mut to: W,
    write: impl FnOnce(&mut Writer<&mut W>),
) -> std::io::Result<W> {
    to.write_all(&[0; FILE_ENVELOPE_BYTES])?;
    let mut body = Writer::new(&mut to);
    write(&mut body);
    let len = body.written();
    let (_, crc) = body.finish()?;
    to.seek(SeekFrom::Start(0))?;
    to.write_all(&FILE_MAGIC)?;
    to.write_all(&len.to_le_bytes())?;
    to.write_all(&crc.to_le_bytes())?;
    Ok(to)
}

/// Reads the file frame [`write_file_frame`] wrote, decoding its body
/// through `read` as it streams, with [`read_frame`]'s rules: the envelope
/// is judged first, counts are checked against the bytes left before
/// anything is allocated for them, and the message is released only once
/// it ended at the declared length, the file is at EOF and the CRC
/// matches.
///
/// # Errors
///
/// As [`read_frame`]; an envelope without [`FILE_MAGIC`] is
/// [`FieldError::Malformed`].
pub fn read_file_frame<R: Read, T>(
    mut from: R,
    read: impl FnOnce(&mut Fields<R>) -> Result<T, FieldError>,
) -> Result<T, FieldError> {
    let mut envelope = [0u8; FILE_ENVELOPE_BYTES];
    let got = read_up_to(&mut from, &mut envelope)?;
    if got == 0 {
        return Err(FieldError::Empty);
    }
    if got < FILE_ENVELOPE_BYTES || envelope[..8] != FILE_MAGIC {
        return Err(format!("{got} bytes with no {FILE_ENVELOPE_BYTES}-byte file envelope").into());
    }
    let len = u64::from_le_bytes(envelope[8..16].try_into().expect("length"));
    let len = usize::try_from(len).map_err(|_| format!("a body of {len} bytes"))?;
    let crc = u32::from_le_bytes(envelope[16..].try_into().expect("crc"));
    read_body(from, len, crc, read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;
    use crate::granularity::Granularity;
    use crate::int::IntFormat;
    use crate::quantizer::{Quantizer, Rounding};
    use crate::PackedQuantize;
    use snip_tensor::rng::Rng;
    use snip_tensor::Tensor;

    fn fp4_tile(nb: usize) -> Quantizer {
        Quantizer::new(
            FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    fn all_kinds() -> Vec<(&'static str, Box<dyn PackedQuantize>)> {
        let q = fp4_tile(8);
        vec![
            ("fp4", Box::new(q)),
            (
                "fp8_block",
                Box::new(Quantizer::new(
                    FloatFormat::e4m3(),
                    Granularity::Block { nb: 8 },
                    Rounding::Nearest,
                )),
            ),
            (
                "int4",
                Box::new(Quantizer::new(
                    IntFormat::int4(),
                    Granularity::Tile { nb: 8 },
                    Rounding::Nearest,
                )),
            ),
            ("int8", Box::new(Quantizer::int8_tile(8))),
            ("mxfp4", Box::new(Quantizer::mxfp4())),
            ("mxfp8", Box::new(Quantizer::mxfp8())),
            ("rht", Box::new(q.with_rht(8, 77))),
            ("outlier", Box::new(q.with_outliers(0.03))),
        ]
    }

    #[test]
    fn round_trip_is_bit_identical_for_every_quantizer() {
        let mut data_rng = Rng::seed_from(3);
        // Ragged shape: cols not divisible by any scale group in use.
        let mut t = Tensor::randn(5, 43, 1.0, &mut data_rng);
        t[(2, 11)] = 40.0; // feed the outlier split
        for (name, k) in &all_kinds() {
            let packed = k.pack(&t, &mut Rng::seed_from(9)).expect("packable");
            let frame = packed.to_wire_bytes().expect(name);
            assert_eq!(
                frame.len() as u64,
                WIRE_HEADER_BYTES as u64 + packed.wire_bytes(),
                "{name}: payload must be exactly the accounted volume"
            );
            let back = PackedTensor::from_wire_bytes(&frame).expect(name);
            let (a, b) = (packed.dequantize(), back.dequantize());
            assert_eq!(a.shape(), b.shape(), "{name}");
            for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: element {i}: {x} vs {y}");
            }
            // Deserialized wire accounting matches too.
            assert_eq!(back.wire_bytes(), packed.wire_bytes(), "{name}");
        }
    }

    #[test]
    fn rotated_and_split_metadata_survive() {
        let mut t = Tensor::randn(3, 32, 1.0, &mut Rng::seed_from(1));
        t[(0, 5)] = 90.0;
        let rht = fp4_tile(16).with_rht(16, 0xDEAD_BEEF);
        let packed = rht.pack(&t, &mut Rng::seed_from(2)).unwrap();
        let back = PackedTensor::from_wire_bytes(&packed.to_wire_bytes().unwrap()).unwrap();
        match back {
            PackedTensor::Rotated { block, seed, .. } => {
                assert_eq!(block, 16);
                assert_eq!(seed, 0xDEAD_BEEF);
            }
            other => panic!("expected Rotated, got {other:?}"),
        }
        let split = fp4_tile(16).with_outliers(2.0 / 96.0);
        let packed = split.pack(&t, &mut Rng::seed_from(2)).unwrap();
        let back = PackedTensor::from_wire_bytes(&packed.to_wire_bytes().unwrap()).unwrap();
        match (&packed, &back) {
            (PackedTensor::Split { outliers: a, .. }, PackedTensor::Split { outliers: b, .. }) => {
                assert_eq!(a, b);
            }
            other => panic!("expected Split pair, got {other:?}"),
        }
    }

    #[test]
    fn nan_outliers_arrive_as_nan() {
        // A NaN whose payload sits only in the low 16 bits is the first
        // outlier picked; truncating it to BF16 would ship ±Inf.
        let mut t = Tensor::randn(2, 16, 1.0, &mut Rng::seed_from(10));
        t[(1, 3)] = f32::from_bits(0x7F80_0001);
        let packed = fp4_tile(8)
            .with_outliers(1.0 / 32.0)
            .pack(&t, &mut Rng::seed_from(11))
            .unwrap();
        let back = PackedTensor::from_wire_bytes(&packed.to_wire_bytes().unwrap()).unwrap();
        let (a, b) = (packed.dequantize(), back.dequantize());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            if i == 16 + 3 {
                assert!(x.is_nan() && y.is_nan(), "{x} -> {y}");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "element {i}");
            }
        }
        assert_eq!(bf16_bits(f32::from_bits(0xFF80_0001)), 0xFFC0);
        assert_eq!(bf16_bits(-1.5), 0xBFC0);
        assert_eq!(bf16_bits(f32::INFINITY), 0x7F80);
    }

    #[test]
    fn e8m0_bytes_round_trip_the_full_exponent_range() {
        for e in -127i32..=127 {
            let scale = if e == -127 {
                f32::from_bits(1 << 22)
            } else {
                f32::from_bits(((e + 127) as u32) << 23)
            };
            let byte = e8m0_encode(scale).unwrap();
            assert_eq!(
                e8m0_decode(byte).unwrap().to_bits(),
                scale.to_bits(),
                "2^{e}"
            );
        }
        assert!(e8m0_encode(3.0).is_err());
        assert!(e8m0_encode(-2.0).is_err());
        assert!(e8m0_encode(0.0).is_err());
        assert!(e8m0_decode(255).is_err());
    }

    #[test]
    fn mx_scales_ship_one_byte_each() {
        let t = Tensor::randn(2, 64, 1.0, &mut Rng::seed_from(4));
        let packed = Quantizer::mxfp4().pack(&t, &mut Rng::seed_from(5)).unwrap();
        let frame = packed.to_wire_bytes().unwrap();
        // 2 rows × 32 code bytes + 4 block scales × 1 B.
        assert_eq!(frame.len(), WIRE_HEADER_BYTES + 2 * 32 + 4);
    }

    /// The defect a frame read reports.
    fn defect(read: Result<PackedTensor, FieldError>) -> String {
        match read {
            Err(FieldError::Malformed(m)) => m,
            other => panic!("expected a malformed frame, got {other:?}"),
        }
    }

    #[test]
    fn structural_defects_are_rejected() {
        let t = Tensor::randn(2, 16, 1.0, &mut Rng::seed_from(6));
        let packed = fp4_tile(8).pack(&t, &mut Rng::seed_from(7)).unwrap();
        let frame = packed.to_wire_bytes().unwrap();
        let len = frame.len();

        assert_eq!(
            defect(PackedTensor::from_wire_bytes(&frame[..10])),
            "packed frame: frame too short: need 36 bytes, got 10"
        );
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(
            defect(PackedTensor::from_wire_bytes(&bad)),
            "packed frame: bad frame magic or version"
        );
        let mut bad = frame.clone();
        bad[4] = 0x77;
        assert_eq!(
            defect(PackedTensor::from_wire_bytes(&bad)),
            "packed frame: bad format byte 0x77"
        );
        let mut truncated = frame.clone();
        truncated.pop();
        assert_eq!(
            defect(PackedTensor::from_wire_bytes(&truncated)),
            format!(
                "packed frame: frame length {} does not match header (expect {len})",
                len - 1
            )
        );
        let mut overlong = frame;
        overlong.push(0);
        assert_eq!(
            defect(PackedTensor::from_wire_bytes(&overlong)),
            format!(
                "packed frame: frame length {} does not match header (expect {len})",
                len + 1
            )
        );
    }

    /// A 1×4 rowwise tensor of zero codes over `lut`, scaled by `scale`.
    fn zero_codes(lut: impl Into<std::sync::Arc<[f32]>>, scale: f32) -> QTensor {
        use snip_tensor::CodeWidth;
        QTensor::new_zeroed(1, 4, CodeWidth::U4, lut, GroupLayout::Rowwise, vec![scale])
    }

    fn custom_lut() -> Vec<f32> {
        (0..16).map(|i| i as f32 * 0.3).collect()
    }

    #[test]
    fn custom_code_tables_cannot_serialize() {
        let q = zero_codes(custom_lut(), 1.0);
        let e = PackedTensor::Codes(q).to_wire_bytes().unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidInput);
        assert_eq!(
            e.to_string(),
            "packed frame: code table is not a built-in wire format"
        );
    }

    /// What `finish` returns after `write` met a frame no header can
    /// describe, checking that not a byte reached the sink.
    fn unwritable(write: impl FnOnce(&mut Writer<&mut Vec<u8>>)) -> std::io::Error {
        let mut sink = Vec::new();
        let mut w = Writer::new(&mut sink);
        write(&mut w);
        assert_eq!(w.written(), 0);
        let e = w.finish().map(|_| ()).unwrap_err();
        assert!(sink.is_empty(), "no byte reaches the sink");
        assert_eq!(e.kind(), ErrorKind::InvalidInput);
        e
    }

    /// A code table or MX scale no frame can carry is found before a byte
    /// is written, and `finish` returns the kept error naming the defect.
    #[test]
    fn unwritable_frames_write_nothing_and_finish_with_the_defect() {
        let e2m1 = ElementFormat::from_wire_id(0)
            .and_then(ElementFormat::codebook)
            .expect("E2M1 has a wire id");
        let mx = PackedTensor::Mx(zero_codes(e2m1.lut(), 3.0));
        assert_eq!(
            unwritable(|w| w.packed(&mx)).to_string(),
            "packed frame: MX scale 3 is not an E8M0 power of two"
        );
        let custom = zero_codes(custom_lut(), 1.0);
        assert_eq!(
            unwritable(|w| w.codes(&custom)).to_string(),
            "packed frame: code table is not a built-in wire format"
        );
    }

    #[test]
    fn empty_tensors_serialize() {
        let t = Tensor::zeros(0, 8);
        let packed = fp4_tile(8).pack(&t, &mut Rng::seed_from(8)).unwrap();
        let frame = packed.to_wire_bytes().unwrap();
        assert_eq!(frame.len(), WIRE_HEADER_BYTES);
        let back = PackedTensor::from_wire_bytes(&frame).unwrap();
        assert_eq!(back.shape(), (0, 8));
    }

    /// The bytes `write` writes through a fresh [`Writer`].
    fn written(write: impl FnOnce(&mut Writer<Vec<u8>>)) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        write(&mut w);
        let len = w.written();
        let (bytes, crc) = w.finish().expect("in-memory write");
        assert_eq!((len as usize, crc), (bytes.len(), crc32(&bytes)));
        bytes
    }

    #[test]
    fn joined_parts_are_the_vector_of_their_concatenation() {
        // Parts shorter than, across and longer than a stage buffer, and
        // an empty one.
        let floats = STAGE_BYTES / 4;
        let parts: Vec<Vec<f32>> = [3, 0, floats - 1, 2 * floats + 5, 1]
            .iter()
            .enumerate()
            .map(|(p, &len)| (0..len).map(|i| (i * 7 + p) as f32 - 0.5).collect())
            .collect();
        let slices: Vec<&[f32]> = parts.iter().map(Vec::as_slice).collect();
        assert!(written(|w| w.f32s_joined(&slices)) == written(|w| w.f32s(&parts.concat())));
        assert_eq!(written(|w| w.f32s_joined(&[])), written(|w| w.f32s(&[])));
    }

    #[test]
    fn streamed_codes_are_the_wire_frame() {
        // Code buffers and scale vectors both wider than a stage buffer.
        for (fmt, rows, cols) in [
            (FloatFormat::e4m3(), 3, 200),
            (FloatFormat::e5m2(), 300, 1000),
            (FloatFormat::e2m1(), 301, 999),
            (FloatFormat::e4m3(), 0, 5),
        ] {
            let q = Quantizer::new(fmt, Granularity::Tile { nb: 2 }, Rounding::Nearest);
            let t = Tensor::randn(rows, cols, 2.0, &mut Rng::seed_from(rows as u64));
            let packed = q.quantize_packed(&t, &mut Rng::seed_from(1)).unwrap();
            let bytes = written(|w| w.codes(&packed));
            let frame = PackedTensor::Codes(packed.clone()).to_wire_bytes().unwrap();
            assert!(bytes == frame, "{rows}x{cols}");
            let back = decode_message(&bytes, Fields::codes).expect("codes decode");
            assert_eq!(back, packed);
            assert!(std::ptr::eq(back.lut(), packed.lut()), "the interned table");
        }
        // Another variant's frame is not plain codes.
        let mx = crate::Quantizer::mxfp4()
            .pack(&Tensor::full(2, 32, 1.0), &mut Rng::seed_from(2))
            .unwrap();
        let frame = mx.to_wire_bytes().unwrap();
        let refused = decode_message(&frame, Fields::codes)
            .unwrap_err()
            .to_string();
        assert!(refused.contains("not plain codes"), "{refused}");
    }

    #[test]
    fn float_vectors_cross_stage_buffers_bit_for_bit() {
        let nan32 = f32::from_bits(0x7FA1_2345);
        let nan64 = f64::from_bits(0xFFF0_0000_0000_0BAD);
        for n in [
            0,
            1,
            STAGE_BYTES / 4 - 1,
            STAGE_BYTES / 4,
            3 * STAGE_BYTES / 4 + 5,
        ] {
            let f32s: Vec<f32> = (0..n)
                .map(|i| if i % 7 == 0 { nan32 } else { i as f32 - 0.5 })
                .collect();
            let f64s: Vec<f64> = (0..n)
                .map(|i| if i % 5 == 0 { nan64 } else { -(i as f64) })
                .collect();
            let bytes = written(|w| {
                w.f32s(&f32s);
                w.f64s(&f64s);
                w.f32s(&f32s);
            });
            let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (a, b, c) = decode_message(&bytes, |f| {
                let mut into = vec![0.0f32; n];
                let read = (f.f32s()?, f.f64s()?, f.f32s_into(&mut into));
                Ok((read.0, read.1, read.2.map(|()| into)?))
            })
            .expect("vectors decode");
            assert!(
                bits32(&a) == bits32(&f32s) && bits32(&c) == bits32(&f32s),
                "{n}"
            );
            assert!(
                b.iter().zip(&f64s).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{n}"
            );
        }
        // A count that is not the destination's length is refused before a
        // byte of values is read.
        let bytes = written(|w| w.f32s(&[1.0, 2.0]));
        let refused = decode_message(&bytes, |f| f.f32s_into(&mut [0.0; 3])).unwrap_err();
        assert!(
            refused.to_string().contains("2 values where 3 belong"),
            "{refused}"
        );
    }

    #[test]
    fn file_frames_release_nothing_that_fails_length_eof_or_crc() {
        let write = |w: &mut Writer<&mut std::io::Cursor<Vec<u8>>>| {
            w.u64(&7);
            w.f32s(&[1.0; 40_000]);
        };
        let file = write_file_frame(std::io::Cursor::new(Vec::new()), write)
            .expect("in-memory write")
            .into_inner();
        assert_eq!(file.len(), FILE_ENVELOPE_BYTES + 8 + 4 + 160_000);
        assert_eq!(file[..8], FILE_MAGIC);
        let read = |bytes: &[u8]| {
            read_file_frame(bytes, |f| Ok((f.u64()?, f.f32s()?.len()))).map_err(|e| e.to_string())
        };
        assert_eq!(read(&file), Ok((7, 40_000)));
        assert!(matches!(
            read_file_frame(&[][..], |f| f.u8()),
            Err(FieldError::Empty)
        ));
        for cut in [
            1,
            8,
            FILE_ENVELOPE_BYTES - 1,
            FILE_ENVELOPE_BYTES + 9,
            file.len() - 1,
        ] {
            assert!(read(&file[..cut]).is_err(), "cut at {cut}");
        }
        let extended = [&file[..], b"\n"].concat();
        assert!(read(&extended).unwrap_err().contains("stray bytes"));
        let mut flipped = file.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x40;
        assert!(read(&flipped).unwrap_err().contains("crc mismatch"));
        let mut magic = file.clone();
        magic[7] = b'0';
        assert!(read(&magic)
            .unwrap_err()
            .contains("no 20-byte file envelope"));
        // A declared length past what the file holds runs out; one short
        // of it leaves the message unfinished.
        let mut long = file.clone();
        long[8..16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(read(&long).is_err());
        let mut short = file;
        short[8..16].copy_from_slice(&12u64.to_le_bytes());
        assert!(read(&short)
            .unwrap_err()
            .contains("values of 4 bytes declared"));
    }
}
