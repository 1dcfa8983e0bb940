//! The workspace's one binary codec: what crosses a process boundary or
//! goes to disk is written and read here.
//!
//! Four layers, each built on the one before:
//!
//! 1. **The [`PackedTensor`] frame** — the canonical bytes of a packed
//!    tensor ([`PackedTensor::to_wire_bytes`] /
//!    [`PackedTensor::from_wire_bytes`]), whose payload is byte for byte the
//!    volume [`PackedTensor::wire_bytes`] (and therefore
//!    [`crate::PackedQuantize::packed_wire_bytes`]) accounts. Collective
//!    hops ship packed gradients in it.
//! 2. **The stream envelope** — a length prefix and a CRC32 of the body
//!    ([`stream_frame`], [`StreamDecoder`]), so a socket or pipe can
//!    delimit frames and a damaged body is a typed [`StreamError::Crc`]
//!    before anything in it is interpreted.
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
//! rejected with [`WireError::UnknownLut`]. Round trips are bit-exact,
//! property-tested across every quantizer and ragged shapes
//! (`tests/wire_roundtrip.rs`, which also pins golden headers).
//!
//! # The stream envelope
//!
//! ```text
//! [u32 body length][u32 crc32(body)][body]
//! ```
//!
//! [`stream_envelope`] is the one place those bytes are laid out;
//! [`stream_body_len`] and [`stream_check_crc`] are the one place they are
//! judged. A length above [`STREAM_MAX_FRAME_BYTES`] is corruption
//! ([`StreamError::Oversize`]), refused before anything is allocated for
//! it. Socket links reassemble frames from arbitrarily chunked reads with
//! a [`StreamDecoder`]; a process's control pipe carries exactly one frame,
//! read by [`read_frame`].
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
//! | `codes` | a [`PackedTensor::Codes`] frame, its length fixed by its header |
//!
//! A [`Writer`] hashes every byte it writes with one [`Crc32`], so framing
//! its message takes no second pass ([`stream_envelope_of`]), and it moves
//! float vectors through one [`STAGE_BYTES`] buffer straight from the
//! caller's slice. [`Fields`] reads straight from a byte stream into each
//! field's final value: it never reads past the length the message
//! declares, checks every count against the bytes left before it
//! allocates, and fills float vectors through one stage buffer
//! ([`Fields::f32s_into`] in place). Over a stream or file frame,
//! nothing decoded is released until, in this order, the message ended
//! exactly at its declared length, the stream is at EOF, and the CRC of
//! the bytes read matches: a short, long, polluted or damaged input is a
//! typed [`FieldError`], never a message. [`decode_message`] reads a bare
//! encoding the same way, without a CRC.
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

use crate::codebook::Codebook;
use crate::format::ElementFormat;
use crate::packed::{PackedOutlier, PackedTensor};
use serde::{Deserialize, Serialize};
/// The workspace's CRC-32, which every stream frame and file frame
/// carries: defined with its kernel rows in [`snip_tensor::crc`] and
/// re-exported here unchanged.
pub use snip_tensor::crc::{crc32, Crc32};
use snip_tensor::{GroupLayout, QTensor};
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

/// Everything that can go wrong serializing or deserializing a frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The code table is not one of the built-in formats.
    UnknownLut,
    /// A scale is not an E8M0-representable power of two.
    BadMxScale(f32),
    /// Buffer shorter than the fixed header.
    TooShort {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// The magic bytes or version do not match.
    BadHeader,
    /// An enum byte (variant/format/layout) is out of range.
    BadTag {
        /// Which field was malformed.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The header's shape implies a frame too large to address.
    ShapeTooLarge,
    /// Total frame length disagrees with the header's shape.
    LengthMismatch {
        /// Length the header implies.
        expect: usize,
        /// Length received.
        got: usize,
    },
    /// An outlier entry is out of bounds or out of order.
    BadOutlier {
        /// The offending flat index.
        index: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownLut => write!(f, "code table is not a built-in wire format"),
            WireError::BadMxScale(s) => write!(f, "MX scale {s} is not an E8M0 power of two"),
            WireError::TooShort { need, got } => {
                write!(f, "frame too short: need {need} bytes, got {got}")
            }
            WireError::BadHeader => write!(f, "bad frame magic or version"),
            WireError::BadTag { field, value } => write!(f, "bad {field} byte {value:#04x}"),
            WireError::ShapeTooLarge => write!(f, "header shape is too large to address"),
            WireError::LengthMismatch { expect, got } => {
                write!(
                    f,
                    "frame length {got} does not match header (expect {expect})"
                )
            }
            WireError::BadOutlier { index } => {
                write!(f, "outlier index {index} out of bounds or out of order")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Identifies the format whose decode table matches `q`'s, among
/// everything a frame can name (every format with a wire id). Locally
/// packed tensors share the interned per-format table, so the match is
/// usually a pointer comparison; tensors built over a copy of a table
/// match by bitwise content.
fn identify(q: &QTensor) -> Result<ElementFormat, WireError> {
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
        .ok_or(WireError::UnknownLut)
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

fn layout_of(tag: u8, nb: u32) -> Result<GroupLayout, WireError> {
    let bad = || WireError::BadTag {
        field: "layout",
        value: tag,
    };
    match tag {
        0 => Ok(GroupLayout::Tensorwise),
        1 => Ok(GroupLayout::Rowwise),
        2 => Ok(GroupLayout::Columnwise),
        3 if nb > 0 => Ok(GroupLayout::Block { nb: nb as usize }),
        4 if nb > 0 => Ok(GroupLayout::Tile { nb: nb as usize }),
        _ => Err(bad()),
    }
}

/// Encodes a power-of-two decode scale as its E8M0 exponent byte
/// (`2^(b − 127)`; byte 0 is the subnormal `2^-127`, byte 255 is invalid).
fn e8m0_encode(scale: f32) -> Result<u8, WireError> {
    let bits = scale.to_bits();
    if bits == 1u32 << 22 {
        return Ok(0); // 2^-127, stored subnormal
    }
    let exp = (bits >> 23) & 0xFF;
    if scale > 0.0 && bits & 0x7F_FFFF == 0 && exp != 0 && exp != 0xFF {
        Ok(exp as u8) // value = 2^(exp − 127)
    } else {
        Err(WireError::BadMxScale(scale))
    }
}

/// Inverse of [`e8m0_encode`], bit-exact.
fn e8m0_decode(byte: u8) -> Result<f32, WireError> {
    match byte {
        0 => Ok(f32::from_bits(1 << 22)),
        255 => Err(WireError::BadTag {
            field: "e8m0 scale",
            value: byte,
        }),
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

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// The fixed header of a frame holding `q`'s codes as `variant`, with that
/// variant's RHT block and seed and outlier count (zero where they do not
/// apply).
fn header(
    q: &QTensor,
    variant: u8,
    block: u32,
    seed: u64,
    outlier_count: u32,
) -> Result<[u8; WIRE_HEADER_BYTES], WireError> {
    let fmt = identify(q)?;
    let (rows, cols) = q.shape();
    let (ltag, lnb) = layout_tag(q.layout());
    let mut h = [0u8; WIRE_HEADER_BYTES];
    h[0..2].copy_from_slice(&MAGIC);
    h[2] = VERSION;
    h[3] = variant;
    h[4] = fmt.wire_id().expect("identified by its code table");
    h[5] = ltag;
    // Bytes 6..8 are reserved (zero).
    h[8..12].copy_from_slice(&(rows as u32).to_le_bytes());
    h[12..16].copy_from_slice(&(cols as u32).to_le_bytes());
    h[16..20].copy_from_slice(&lnb.to_le_bytes());
    h[20..24].copy_from_slice(&block.to_le_bytes());
    h[24..32].copy_from_slice(&seed.to_le_bytes());
    h[32..36].copy_from_slice(&outlier_count.to_le_bytes());
    Ok(h)
}

/// A frame header, judged: its tags resolved and the length of every
/// payload section it implies computed without overflow.
struct Header {
    variant: u8,
    codebook: &'static Codebook,
    layout: GroupLayout,
    rows: usize,
    cols: usize,
    block: usize,
    seed: u64,
    outlier_count: usize,
    code_bytes: usize,
    groups: usize,
    scale_bytes: usize,
    /// Codes, scales and outliers: everything after the header.
    payload: usize,
}

impl Header {
    fn parse(bytes: &[u8; WIRE_HEADER_BYTES]) -> Result<Header, WireError> {
        if bytes[0..2] != MAGIC || bytes[2] != VERSION {
            return Err(WireError::BadHeader);
        }
        let variant = bytes[3];
        let bad_format = WireError::BadTag {
            field: "format",
            value: bytes[4],
        };
        let codebook = ElementFormat::from_wire_id(bytes[4])
            .and_then(ElementFormat::codebook)
            .ok_or(bad_format)?;
        let layout = layout_of(bytes[5], get_u32(bytes, 16))?;
        let rows = get_u32(bytes, 8) as usize;
        let cols = get_u32(bytes, 12) as usize;
        let outlier_count = get_u32(bytes, 32) as usize;

        // Untrusted: a product of two `u32` fields fits a 64-bit `usize`,
        // but scaling and summing them may overflow — rejected, not wrapped.
        let code_bytes = rows * codebook.width().row_bytes(cols);
        let groups = layout.group_count(rows, cols);
        let scale_bytes = groups
            .checked_mul(if variant == 1 { 1 } else { 4 })
            .ok_or(WireError::ShapeTooLarge)?;
        let outlier_bytes = if variant == 3 { outlier_count * 6 } else { 0 };
        if variant == 3 && outlier_count > rows * cols {
            return Err(WireError::BadOutlier {
                index: outlier_count as u32,
            });
        }
        let payload = [code_bytes, scale_bytes, outlier_bytes]
            .into_iter()
            .try_fold(0, usize::checked_add)
            .filter(|p| p.checked_add(WIRE_HEADER_BYTES).is_some())
            .ok_or(WireError::ShapeTooLarge)?;
        Ok(Header {
            variant,
            codebook,
            layout,
            rows,
            cols,
            block: get_u32(bytes, 20) as usize,
            seed: get_u64(bytes, 24),
            outlier_count,
            code_bytes,
            groups,
            scale_bytes,
            payload,
        })
    }

    /// The frame's codes tensor over its code bytes and decoded scales,
    /// whose lengths the header fixed; the decode tables are the
    /// format's interned ones.
    fn codes(&self, data: Vec<u8>, scales: Vec<f32>) -> QTensor {
        let cb = self.codebook;
        QTensor::from_parts_with_pair(
            self.rows,
            self.cols,
            cb.width(),
            cb.lut(),
            cb.pair_lut(),
            self.layout,
            scales,
            data,
        )
    }
}

impl PackedTensor {
    /// Serializes this tensor into a self-describing byte frame (see the
    /// [module docs](crate::wire) for the layout). The returned buffer is
    /// exactly [`WIRE_HEADER_BYTES`]` + self.wire_bytes()` long — the
    /// payload is byte-for-byte the accounted wire volume.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownLut`] when the code table is not a built-in
    /// format, [`WireError::BadMxScale`] when an MX scale is not an E8M0
    /// power of two.
    pub fn to_wire_bytes(&self) -> Result<Vec<u8>, WireError> {
        let q = self.codes();
        let (variant, block, seed, outlier_count) = match self {
            PackedTensor::Codes(_) => (0u8, 0u32, 0u64, 0u32),
            PackedTensor::Mx(_) => (1, 0, 0, 0),
            PackedTensor::Rotated { block, seed, .. } => (2, *block as u32, *seed, 0),
            PackedTensor::Split { outliers, .. } => (
                3,
                0,
                0,
                u32::try_from(outliers.len()).expect("u32 outliers"),
            ),
        };
        let mut buf = Vec::with_capacity(WIRE_HEADER_BYTES + self.wire_bytes() as usize);
        buf.extend_from_slice(&header(q, variant, block, seed, outlier_count)?);
        buf.extend_from_slice(q.packed_data());
        if matches!(self, PackedTensor::Mx(_)) {
            for &s in q.scales() {
                buf.push(e8m0_encode(s)?);
            }
        } else {
            for &s in q.scales() {
                buf.extend_from_slice(&s.to_le_bytes());
            }
        }
        if let PackedTensor::Split { outliers, .. } = self {
            for o in outliers {
                buf.extend_from_slice(&o.index.to_le_bytes());
                buf.extend_from_slice(&bf16_bits(o.value).to_le_bytes());
            }
        }
        debug_assert_eq!(buf.len(), WIRE_HEADER_BYTES + self.wire_bytes() as usize);
        Ok(buf)
    }

    /// Reconstructs a tensor from a frame produced by
    /// [`PackedTensor::to_wire_bytes`]. The result decodes **bit-for-bit**
    /// identically to the original (property-tested across every quantizer),
    /// and its decode table is the interned per-format allocation.
    ///
    /// # Errors
    ///
    /// Any structural defect: short/overlong buffers, bad magic or version,
    /// unknown variant/format/layout bytes, a shape too large to address,
    /// invalid E8M0 scale bytes, and out-of-bounds or unsorted outlier
    /// entries.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<PackedTensor, WireError> {
        let Some((head, body)) = bytes.split_first_chunk::<WIRE_HEADER_BYTES>() else {
            return Err(WireError::TooShort {
                need: WIRE_HEADER_BYTES,
                got: bytes.len(),
            });
        };
        let h = Header::parse(head)?;
        if body.len() != h.payload {
            return Err(WireError::LengthMismatch {
                expect: WIRE_HEADER_BYTES + h.payload,
                got: bytes.len(),
            });
        }
        let (codes, rest) = body.split_at(h.code_bytes);
        let (scales, outliers) = rest.split_at(h.scale_bytes);
        let scales: Vec<f32> = if h.variant == 1 {
            scales
                .iter()
                .map(|&b| e8m0_decode(b))
                .collect::<Result<_, _>>()?
        } else {
            scales
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect()
        };
        let q = h.codes(codes.to_vec(), scales);

        match h.variant {
            0 => Ok(PackedTensor::Codes(q)),
            1 => Ok(PackedTensor::Mx(q)),
            2 => {
                if !h.block.is_power_of_two() {
                    return Err(WireError::BadTag {
                        field: "rotation block",
                        value: head[20],
                    });
                }
                Ok(PackedTensor::Rotated {
                    codes: q,
                    block: h.block,
                    seed: h.seed,
                })
            }
            3 => {
                let mut parsed = Vec::with_capacity(h.outlier_count);
                let mut prev: Option<u32> = None;
                for entry in outliers.chunks_exact(6) {
                    let index = get_u32(entry, 0);
                    let bf16 = u16::from_le_bytes([entry[4], entry[5]]);
                    if index as usize >= h.rows * h.cols || prev.is_some_and(|p| p >= index) {
                        return Err(WireError::BadOutlier { index });
                    }
                    prev = Some(index);
                    parsed.push(PackedOutlier {
                        index,
                        value: f32::from_bits(u32::from(bf16) << 16),
                    });
                }
                Ok(PackedTensor::Split {
                    body: q,
                    outliers: parsed,
                })
            }
            v => Err(WireError::BadTag {
                field: "variant",
                value: v,
            }),
        }
    }
}

/// Everything that can go wrong at the byte-stream framing layer (the
/// length-prefixed encoding a socket transport uses to delimit frames on a
/// continuous stream). Deliberately separate from [`WireError`]: a stream
/// error means the *transport bytes* are damaged, before any frame content
/// is interpreted.
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
/// little-endian `u32` [`crc32`] of the body. This function is the only
/// place those bytes are laid out; [`stream_body_len`] and
/// [`stream_check_crc`] are the only place they are judged. A writer that
/// owns its body sends envelope and body as two writes (the socket fabric);
/// [`stream_frame`] is the one-buffer form.
///
/// # Panics
///
/// Panics if `body` exceeds [`STREAM_MAX_FRAME_BYTES`] (no frame this crate
/// produces comes near it).
pub fn stream_envelope(body: &[u8]) -> [u8; STREAM_ENVELOPE_BYTES] {
    stream_envelope_of(body.len(), crc32(body))
}

/// The [`stream_envelope`] of a `len`-byte body whose [`crc32`] is `crc`:
/// for a body a [`Writer`] hashed as it wrote it, so that framing it takes
/// no second pass.
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

/// The length field of an envelope, unjudged.
fn declared_len(envelope: &[u8]) -> u32 {
    let prefix = envelope[..STREAM_PREFIX_BYTES].try_into().expect("prefix");
    u32::from_le_bytes(prefix)
}

/// The body length an envelope declares — judged from its first
/// [`STREAM_PREFIX_BYTES`] bytes alone, so an implausible prefix fails
/// before the rest of the envelope has arrived.
///
/// # Panics
///
/// Panics if `envelope` holds fewer than [`STREAM_PREFIX_BYTES`] bytes.
pub fn stream_body_len(envelope: &[u8]) -> Result<usize, StreamError> {
    let len = declared_len(envelope);
    if len as usize > STREAM_MAX_FRAME_BYTES {
        return Err(StreamError::Oversize { len });
    }
    Ok(len as usize)
}

/// Checks `got`, the [`crc32`] of a received body, against the checksum its
/// `envelope` carries.
///
/// # Panics
///
/// Panics if `envelope` holds fewer than [`STREAM_ENVELOPE_BYTES`] bytes.
pub fn stream_check_crc(envelope: &[u8], got: u32) -> Result<(), StreamError> {
    let field = envelope[STREAM_PREFIX_BYTES..STREAM_ENVELOPE_BYTES]
        .try_into()
        .expect("crc field");
    let expect = u32::from_le_bytes(field);
    if got != expect {
        return Err(StreamError::Crc { expect, got });
    }
    Ok(())
}

/// Wraps a frame body for a byte stream: its [`stream_envelope`] followed by
/// the body. The inverse is [`StreamDecoder`], which reassembles frames
/// from arbitrarily chunked reads and verifies the checksum before
/// releasing a body.
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

/// Incremental decoder for a stream of [`stream_frame`]-encoded frames.
///
/// Feed it whatever byte chunks arrive — a socket read may split a frame
/// anywhere, including inside the length prefix — and pull complete frame
/// bodies out with [`StreamDecoder::next_frame`]. Any split of a valid
/// frame sequence reassembles to the same frames (property-tested);
/// corruption surfaces as a typed [`StreamError`], never a panic.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily to keep feeds amortized
    /// O(bytes)).
    read: usize,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.read > 0 && self.read == self.buf.len() {
            self.buf.clear();
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending_len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed, [`StreamError::Oversize`] if the pending length prefix is
    /// not a plausible frame, or [`StreamError::Crc`] if the body fails its
    /// envelope checksum.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        if self.pending_len() < STREAM_PREFIX_BYTES {
            return Ok(None);
        }
        let pending = &self.buf[self.read..];
        let len = stream_body_len(pending)?;
        if pending.len() < STREAM_ENVELOPE_BYTES + len {
            return Ok(None);
        }
        let body = pending[STREAM_ENVELOPE_BYTES..STREAM_ENVELOPE_BYTES + len].to_vec();
        stream_check_crc(pending, crc32(&body))?;
        self.read += STREAM_ENVELOPE_BYTES + len;
        // Compact once the consumed prefix dominates, so the buffer does not
        // grow without bound across a long-lived link.
        if self.read > 4096 && self.read * 2 > self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        Ok(Some(body))
    }

    /// Call at end of stream: `Ok(())` if the stream ended exactly on a
    /// frame boundary, [`StreamError::Truncated`] if a frame was cut off.
    pub fn finish(&self) -> Result<(), StreamError> {
        let pending = self.pending_len();
        if pending == 0 {
            return Ok(());
        }
        let need = if pending >= STREAM_PREFIX_BYTES {
            STREAM_ENVELOPE_BYTES + declared_len(&self.buf[self.read..]) as usize
        } else {
            STREAM_ENVELOPE_BYTES
        };
        Err(StreamError::Truncated { need, got: pending })
    }
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
fn read_up_to(from: &mut impl Read, buf: &mut [u8]) -> Result<usize, FieldError> {
    let mut got = 0;
    while got < buf.len() {
        match from.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FieldError::Io(e)),
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
/// too long for its `u32` prefix, codes of a table no frame can name) is
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

    /// `q` as the wire frame of [`PackedTensor::Codes`] — byte for byte
    /// what [`PackedTensor::to_wire_bytes`] returns for it — streamed: the
    /// header, then the codes and scales straight from `q`. Its length is
    /// fixed by the header, so it carries no prefix of its own.
    pub fn codes(&mut self, q: &QTensor) {
        match header(q, 0, 0, 0, 0) {
            Ok(h) => {
                self.put(&h);
                self.put(q.packed_data());
                self.values(q.scales(), |s| s.to_le_bytes());
            }
            Err(e) => self.fail(std::io::Error::new(ErrorKind::InvalidInput, e)),
        }
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
    crc: Crc32,
}

impl<R: Read> Fields<R> {
    fn new(from: R, len: usize) -> Self {
        Fields {
            from,
            left: len,
            crc: Crc32::new(),
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
        self.crc.update(&buf[..got]);
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

    /// A count-prefixed vector of `f32`s.
    pub fn f32s(&mut self) -> Result<Vec<f32>, FieldError> {
        let count = self.u32()? as usize;
        self.values(count, f32::from_le_bytes)
    }

    /// A count-prefixed vector of `f64`s.
    pub fn f64s(&mut self) -> Result<Vec<f64>, FieldError> {
        let count = self.u32()? as usize;
        self.values(count, f64::from_le_bytes)
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

    /// `count` `W`-byte little-endian values, read into one allocation of
    /// that count — made only once the count fits what is left of the
    /// message.
    fn values<T, const W: usize>(
        &mut self,
        count: usize,
        from_le: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, FieldError> {
        self.judge::<W>(count)?;
        let mut values = Vec::with_capacity(count);
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

    /// A frame [`Writer::codes`] wrote: the header is judged first, and
    /// the codes and scales are read into the tensor's own buffers, sized
    /// by the header once its payload fits what is left of the message.
    /// The decode tables are the format's interned ones.
    pub fn codes(&mut self) -> Result<QTensor, FieldError> {
        let bad = |e: WireError| format!("packed codes: {e}");
        let h = Header::parse(&self.array()?).map_err(bad)?;
        if h.variant != 0 {
            let variant = h.variant;
            return Err(format!("packed codes: variant {variant} is not plain codes").into());
        }
        self.claim(h.payload)?;
        let data = self.take(h.code_bytes)?;
        let scales = self.values(h.groups, f32::from_le_bytes)?;
        Ok(h.codes(data, scales))
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
    let mut fields = Fields::new(from, len);
    let message = fields.whole(read)?;
    if read_up_to(&mut fields.from, &mut [0u8; 1])? > 0 {
        return Err(format!("stray bytes after the frame of {len} bytes").into());
    }
    let got = fields.crc.finish();
    if got != crc {
        return Err(StreamError::Crc { expect: crc, got }.to_string().into());
    }
    Ok(message)
}

/// Decodes a bare encoding — no envelope, so no CRC — through `read`,
/// which must consume it exactly.
///
/// # Errors
///
/// [`FieldError::Malformed`] for truncated input, trailing bytes or
/// whatever `read` rejects.
pub fn decode_message<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Fields<&'a [u8]>) -> Result<T, FieldError>,
) -> Result<T, FieldError> {
    Fields::new(bytes, bytes.len()).whole(read)
}

/// Reads the one [`stream_frame`] `from` carries — a control pipe — and
/// decodes its body through `read` as it streams: the length prefix is
/// judged before anything else ([`stream_body_len`]), every body byte goes
/// through the CRC as it is read, and the raw body is never held whole.
/// The decoded message is returned only once, in this order, the body
/// ended exactly at its declared length, the stream is at EOF, and the
/// CRC matches.
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
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    let (prefix, crc_field) = envelope.split_at_mut(STREAM_PREFIX_BYTES);
    let got = read_up_to(&mut from, prefix)?;
    if got == 0 {
        return Err(FieldError::Empty);
    }
    let len = if got < prefix.len() {
        Err(format!("{got} bytes, no frame envelope"))
    } else {
        stream_body_len(prefix).map_err(|e| e.to_string())
    }?;
    let got = read_up_to(&mut from, crc_field)?;
    if got < crc_field.len() {
        return Err(format!("{} bytes, no frame envelope", STREAM_PREFIX_BYTES + got).into());
    }
    let crc = u32::from_le_bytes(envelope[STREAM_PREFIX_BYTES..].try_into().expect("crc"));
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

    #[test]
    fn structural_defects_are_rejected() {
        let t = Tensor::randn(2, 16, 1.0, &mut Rng::seed_from(6));
        let packed = fp4_tile(8).pack(&t, &mut Rng::seed_from(7)).unwrap();
        let frame = packed.to_wire_bytes().unwrap();

        assert!(matches!(
            PackedTensor::from_wire_bytes(&frame[..10]),
            Err(WireError::TooShort { .. })
        ));
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(
            PackedTensor::from_wire_bytes(&bad),
            Err(WireError::BadHeader)
        );
        let mut bad = frame.clone();
        bad[4] = 0x77;
        assert!(matches!(
            PackedTensor::from_wire_bytes(&bad),
            Err(WireError::BadTag {
                field: "format",
                ..
            })
        ));
        let mut truncated = frame.clone();
        truncated.pop();
        assert!(matches!(
            PackedTensor::from_wire_bytes(&truncated),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut overlong = frame;
        overlong.push(0);
        assert!(matches!(
            PackedTensor::from_wire_bytes(&overlong),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn custom_code_tables_cannot_serialize() {
        use snip_tensor::{CodeWidth, QTensor};
        let lut: Vec<f32> = (0..16).map(|i| i as f32 * 0.3).collect();
        let q = QTensor::new_zeroed(1, 4, CodeWidth::U4, lut, GroupLayout::Rowwise, vec![1.0]);
        assert_eq!(
            PackedTensor::Codes(q).to_wire_bytes(),
            Err(WireError::UnknownLut)
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
