//! Canonical byte serialization of [`PackedTensor`] — the wire codec.
//!
//! The comm simulator accounts packed byte volumes analytically; a *real*
//! transport needs the packed form as an actual byte buffer that can cross a
//! process/rank boundary and decode bit-identically on the other side. This
//! module defines that buffer: [`PackedTensor::to_wire_bytes`] /
//! [`PackedTensor::from_wire_bytes`] round-trip every packed representation
//! the crate produces, and the payload section is byte-for-byte the volume
//! [`PackedTensor::wire_bytes`] (and therefore
//! [`crate::PackedQuantize::packed_wire_bytes`]) accounts.
//!
//! # Serialized layout
//!
//! A frame is a fixed [`WIRE_HEADER_BYTES`]-byte header followed by the
//! payload. All multi-byte fields are **little-endian**.
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
//!    flat row-major index + the BF16 value's upper 16 bits.
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
//! rejected with [`WireError::UnknownLut`].

use crate::format::ElementFormat;
use crate::packed::{PackedOutlier, PackedTensor};
use snip_tensor::{GroupLayout, QTensor};

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
/// usually a pointer comparison; tensors whose table lost its interning
/// (serde round trips) match by bitwise content.
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

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
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
        let fmt = identify(q)?;
        let (rows, cols) = q.shape();
        let (ltag, lnb) = layout_tag(q.layout());
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
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(variant);
        buf.push(fmt.wire_id().expect("identified by its code table"));
        buf.push(ltag);
        buf.extend_from_slice(&[0, 0]); // reserved
        put_u32(&mut buf, rows as u32);
        put_u32(&mut buf, cols as u32);
        put_u32(&mut buf, lnb);
        put_u32(&mut buf, block);
        buf.extend_from_slice(&seed.to_le_bytes());
        put_u32(&mut buf, outlier_count);
        debug_assert_eq!(buf.len(), WIRE_HEADER_BYTES);

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
                put_u32(&mut buf, o.index);
                let bf16 = (o.value.to_bits() >> 16) as u16;
                buf.extend_from_slice(&bf16.to_le_bytes());
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
    /// unknown variant/format/layout bytes, invalid E8M0 scale bytes, and
    /// out-of-bounds or unsorted outlier entries.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<PackedTensor, WireError> {
        if bytes.len() < WIRE_HEADER_BYTES {
            return Err(WireError::TooShort {
                need: WIRE_HEADER_BYTES,
                got: bytes.len(),
            });
        }
        if bytes[0..2] != MAGIC || bytes[2] != VERSION {
            return Err(WireError::BadHeader);
        }
        let variant = bytes[3];
        let bad_format = WireError::BadTag {
            field: "format",
            value: bytes[4],
        };
        let cb = ElementFormat::from_wire_id(bytes[4])
            .and_then(ElementFormat::codebook)
            .ok_or(bad_format)?;
        let layout = layout_of(bytes[5], get_u32(bytes, 16))?;
        let rows = get_u32(bytes, 8) as usize;
        let cols = get_u32(bytes, 12) as usize;
        let block = get_u32(bytes, 20) as usize;
        let seed = get_u64(bytes, 24);
        let outlier_count = get_u32(bytes, 32) as usize;

        let width = cb.width();
        let code_bytes = rows * width.row_bytes(cols);
        let groups = layout.group_count(rows, cols);
        let scale_bytes = if variant == 1 { groups } else { groups * 4 };
        let outlier_bytes = if variant == 3 { outlier_count * 6 } else { 0 };
        if variant == 3 && outlier_count > rows * cols {
            return Err(WireError::BadOutlier {
                index: outlier_count as u32,
            });
        }
        let expect = WIRE_HEADER_BYTES + code_bytes + scale_bytes + outlier_bytes;
        if bytes.len() != expect {
            return Err(WireError::LengthMismatch {
                expect,
                got: bytes.len(),
            });
        }

        let data = bytes[WIRE_HEADER_BYTES..WIRE_HEADER_BYTES + code_bytes].to_vec();
        let scales_at = WIRE_HEADER_BYTES + code_bytes;
        let scales: Vec<f32> = if variant == 1 {
            bytes[scales_at..scales_at + groups]
                .iter()
                .map(|&b| e8m0_decode(b))
                .collect::<Result<_, _>>()?
        } else {
            (0..groups)
                .map(|g| f32::from_bits(get_u32(bytes, scales_at + g * 4)))
                .collect()
        };
        let q = QTensor::from_parts_with_pair(
            rows,
            cols,
            width,
            cb.lut(),
            cb.pair_lut(),
            layout,
            scales,
            data,
        );

        match variant {
            0 => Ok(PackedTensor::Codes(q)),
            1 => Ok(PackedTensor::Mx(q)),
            2 => {
                if !block.is_power_of_two() {
                    return Err(WireError::BadTag {
                        field: "rotation block",
                        value: bytes[20],
                    });
                }
                Ok(PackedTensor::Rotated {
                    codes: q,
                    block,
                    seed,
                })
            }
            3 => {
                let at = scales_at + scale_bytes;
                let mut outliers = Vec::with_capacity(outlier_count);
                let mut prev: Option<u32> = None;
                for i in 0..outlier_count {
                    let index = get_u32(bytes, at + i * 6);
                    let bf16 = u16::from_le_bytes(
                        bytes[at + i * 6 + 4..at + i * 6 + 6].try_into().unwrap(),
                    );
                    if index as usize >= rows * cols || prev.is_some_and(|p| p >= index) {
                        return Err(WireError::BadOutlier { index });
                    }
                    prev = Some(index);
                    outliers.push(PackedOutlier {
                        index,
                        value: f32::from_bits(u32::from(bf16) << 16),
                    });
                }
                Ok(PackedTensor::Split { body: q, outliers })
            }
            v => Err(WireError::BadTag {
                field: "variant",
                value: v,
            }),
        }
    }
}

/// IEEE 802.3 CRC32 lookup table (reflected polynomial `0xEDB88320`),
/// built at compile time — the dependency-free checksum behind the stream
/// envelope.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the zlib/Ethernet polynomial) of `bytes`. Table-driven and
/// dependency-free; used by [`stream_frame`] / [`StreamDecoder`] to detect
/// payload corruption at the framing layer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
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
/// [`stream_check_body`] are the only place they are judged. A writer that
/// owns its body sends envelope and body as two writes (the socket fabric);
/// [`stream_frame`] is the one-buffer form.
///
/// # Panics
///
/// Panics if `body` exceeds [`STREAM_MAX_FRAME_BYTES`] (no frame this crate
/// produces comes near it).
pub fn stream_envelope(body: &[u8]) -> [u8; STREAM_ENVELOPE_BYTES] {
    assert!(
        body.len() <= STREAM_MAX_FRAME_BYTES,
        "frame body of {} bytes exceeds the stream bound",
        body.len()
    );
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    envelope[..STREAM_PREFIX_BYTES].copy_from_slice(&(body.len() as u32).to_le_bytes());
    envelope[STREAM_PREFIX_BYTES..].copy_from_slice(&crc32(body).to_le_bytes());
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

/// Checks a received `body` against the checksum its `envelope` carries.
///
/// # Panics
///
/// Panics if `envelope` holds fewer than [`STREAM_ENVELOPE_BYTES`] bytes.
pub fn stream_check_body(envelope: &[u8], body: &[u8]) -> Result<(), StreamError> {
    let field = envelope[STREAM_PREFIX_BYTES..STREAM_ENVELOPE_BYTES]
        .try_into()
        .expect("crc field");
    let (expect, got) = (u32::from_le_bytes(field), crc32(body));
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
        stream_check_body(pending, &body)?;
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
}
