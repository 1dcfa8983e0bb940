//! CRC-32 (IEEE 802.3, the zlib/Ethernet polynomial): the checksum of
//! every stream frame, control-pipe report, mesh link and checkpoint in
//! the workspace. `snip-quant` re-exports [`Crc32`] and [`crc32`] as its
//! own (`snip_quant::crc32`, `snip_quant::wire::Crc32`).
//!
//! # The `crc32` kernel row
//!
//! [`Crc32::update`] runs through the engine's kernel table like every
//! other kernel ([`crate::simd`]), so `SNIP_SIMD` and
//! [`crate::simd::with_forced_backend`] pick its row:
//!
//! * the **scalar** row is slice-by-16: each step folds 16 bytes (four
//!   little-endian `u32` loads) through 16 compile-time lookup tables,
//!   with independent lookups the CPU can overlap; the `len % 16` tail
//!   runs the byte loop. It is portable and the reference every other row
//!   must match, bit for bit, for every input and every split;
//! * the **x86_64 vector** rows (AVX2 and AVX-512) fold when the CPU
//!   reports `pclmulqdq`: four 128-bit lanes each take a 16-byte word per
//!   step through two carry-less multiplies, so one step consumes 64
//!   bytes; the lanes then fold into one, and a Barrett reduction brings
//!   its 128 bits down to the same 32-bit state the table keeps. Inputs
//!   under 64 bytes, and the `len % 16` tail, take the table. Without
//!   `pclmulqdq` these rows are the table too;
//! * the **NEON** row is the table.
//!
//! # Fold constants
//!
//! Everything is in the reflected domain the table works in: bit 0 of a
//! byte is the highest-degree coefficient. Carrying a 64-bit half-lane
//! `h` forward over `n` message bits multiplies it by `xⁿ`; the fold
//! multiplies by `xⁿ mod P` instead, which leaves the remainder unchanged.
//! A carry-less product of two bit-reflected operands lands one bit
//! position short of the reflected product, so each key is
//! `reflect₃₂(xᵏ mod P) << 1`, with `k` the distance carried: 4·128 ± 32
//! bits for the 64-byte step (the low, earlier half-lane travels 64 bits
//! further than the high one), 128 ± 32 bits for folding one lane into the
//! next and for 16-byte steps (the 128 − 32 key also brings the last lane's
//! 128 bits to 96), and 64 bits to bring 96 bits to 64. The Barrett step
//! needs `P` itself and `μ = ⌊x⁶⁴ / P⌋`, both reflected over their 33
//! bits. The `const fn`s of `crc::fold` (`fold_key`, `barrett_poly`,
//! `barrett_mu`) compute them at compile time from the polynomial the
//! tables are built from; no constant is pasted in.

/// The reflected CRC-32 polynomial (`x³² + x²⁶ + … + 1` without its
/// `x³²` term, bit-reversed): the tables and the fold constants both
/// derive from it.
pub(crate) const POLY: u32 = 0xEDB8_8320;

/// Lookup table for one byte: entry `b` is the CRC contribution of byte
/// `b`, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The slice-by-16 tables: row 0 is [`TABLE`], and row `k` advances row
/// `k − 1`'s entry by one zero byte, so `SLICES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const SLICES: [[u32; 256]; 16] = {
    let mut slices = [[0u32; 256]; 16];
    slices[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// The fold's constants, derived from [`POLY`] (module docs). Only the
/// x86_64 vector row folds; other builds compile them for the tests.
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
pub(crate) mod fold {
    use super::POLY;

    /// `xⁿ mod P` in the normal (unreflected) bit order: `x⁰` multiplied by
    /// `x` `n` times, reducing by `P` whenever the `x³²` term appears.
    const fn x_pow_mod(n: u32) -> u32 {
        let normal = POLY.reverse_bits();
        let mut r: u32 = 1;
        let mut i = 0;
        while i < n {
            r = if r & 0x8000_0000 != 0 {
                (r << 1) ^ normal
            } else {
                r << 1
            };
            i += 1;
        }
        r
    }

    /// The fold key that carries a reflected half-lane `bits` bits forward:
    /// `reflect₃₂(x^bits mod P) << 1` (see the module docs for the shift).
    pub(crate) const fn fold_key(bits: u32) -> u64 {
        (x_pow_mod(bits).reverse_bits() as u64) << 1
    }

    /// `P` with its `x³²` term, reflected over 33 bits: the Barrett step's
    /// divisor.
    pub(crate) const fn barrett_poly() -> u64 {
        ((POLY as u64) << 1) | 1
    }

    /// `μ = ⌊x⁶⁴ / P⌋` reflected over its 33 bits: the Barrett step's
    /// reciprocal, by long division over GF(2).
    pub(crate) const fn barrett_mu() -> u64 {
        let divisor = (1u128 << 32) | POLY.reverse_bits() as u128;
        let mut rem: u128 = 1 << 64;
        let mut quotient: u64 = 0;
        let mut degree = 64;
        while degree >= 32 {
            if rem >> degree & 1 != 0 {
                rem ^= divisor << (degree - 32);
                quotient |= 1 << (degree - 32);
            }
            degree -= 1;
        }
        quotient.reverse_bits() >> (64 - 33)
    }
}

/// The scalar row, and the reference of every other: slice-by-16 from
/// the running `state` (the register before its final inversion).
pub(crate) fn update_table(state: u32, bytes: &[u8]) -> u32 {
    let lane = |x: u32, k: usize| SLICES[k][(x & 0xFF) as usize];
    let word = |b: &[u8; 4]| u32::from_le_bytes(*b);
    let mut c = state;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let (words, _) = block.as_chunks::<4>();
        let (a, b) = (word(&words[0]) ^ c, word(&words[1]));
        let (d, e) = (word(&words[2]), word(&words[3]));
        c = lane(a, 15)
            ^ lane(a >> 8, 14)
            ^ lane(a >> 16, 13)
            ^ lane(a >> 24, 12)
            ^ lane(b, 11)
            ^ lane(b >> 8, 10)
            ^ lane(b >> 16, 9)
            ^ lane(b >> 24, 8)
            ^ lane(d, 7)
            ^ lane(d >> 8, 6)
            ^ lane(d >> 16, 5)
            ^ lane(d >> 24, 4)
            ^ lane(e, 3)
            ^ lane(e >> 8, 2)
            ^ lane(e >> 16, 1)
            ^ lane(e >> 24, 0);
    }
    for &b in tail {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC32 of `bytes`: one [`Crc32`] fed the whole slice. Its
/// throughput is the benchmark's `quant.crc32_gbps` row.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// An incremental [`crc32`]: feeding a byte string in any split gives the
/// CRC of the whole, so a reader can hash a body as it streams in. Every
/// [`Crc32::update`] runs the `crc32` row of the kernel table active on
/// the calling thread (module docs); every row gives the same state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The hasher of the empty string.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = crate::engine::simd::crc32_update(self.0, bytes);
    }

    /// The CRC32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::fold::*;
    use super::*;

    #[test]
    fn derived_constants_match_the_published_ones() {
        // The values of Intel's "Fast CRC Computation for Generic
        // Polynomials Using PCLMULQDQ" (and of zlib and Linux) for this
        // polynomial, as an independent check of the derivation.
        let keys = [544, 480, 160, 96, 64].map(fold_key);
        assert_eq!(
            keys,
            [
                0x1_5444_2BD4,
                0x1_C6E4_1596,
                0x1_7519_97D0,
                0x0_CCAA_009E,
                0x1_63CD_6124
            ]
        );
        assert_eq!(barrett_poly(), 0x1_DB71_0641);
        assert_eq!(barrett_mu(), 0x1_F701_1641);
    }

    #[test]
    fn slice_table_row_zero_is_the_byte_table() {
        assert_eq!(SLICES[0], TABLE);
    }

    #[test]
    fn the_table_row_gives_the_check_value() {
        // The CRC-32 catalogue's check value of "123456789".
        assert_eq!(!update_table(!0, b"123456789"), 0xCBF4_3926);
        assert_eq!(!update_table(!0, b""), 0);
    }
}
