//! The `crc32` kernel row on every compiled backend tier against the
//! forced-scalar slice-by-16 table: the same value for every length
//! 0..=1024, for random lengths up to 4 MiB + 13 at every start offset
//! mod 16, and for random incremental splits of one input (a hasher fed
//! in pieces must give the whole's CRC). Under `SNIP_SIMD=0` the sweep
//! degenerates to the table against itself; under `SNIP_SIMD=avx2` it
//! pins the AVX2 row.

use snip_tensor::crc::{crc32, Crc32};
use snip_tensor::rng::Rng;
use snip_tensor::simd::{self, Backend};

/// Random bytes, `len` of them.
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from(seed);
    let mut b = vec![0u8; len];
    for chunk in b.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    b
}

/// The table's CRC of `b`.
fn reference(b: &[u8]) -> u32 {
    simd::with_forced_backend(Backend::Scalar, || crc32(b))
}

/// Asserts every tier hashes `b` to `want`, naming `what` on failure.
fn every_tier_gives(b: &[u8], want: u32, what: &str) {
    for tier in simd::available_backends() {
        let got = simd::with_forced_backend(tier, || crc32(b));
        assert_eq!(got, want, "{what} on {}", tier.name());
    }
}

#[test]
fn every_row_is_the_table_for_every_short_length() {
    println!("crc32 rows over {:?}", simd::available_backends());
    let b = bytes(1024 + 15, 1);
    for offset in [0, 5] {
        for len in 0..=1024 {
            let b = &b[offset..offset + len];
            every_tier_gives(b, reference(b), &format!("{len} bytes at +{offset}"));
        }
    }
    // The catalogue check value pins the reference itself.
    every_tier_gives(b"123456789", 0xCBF4_3926, "the check string");
}

#[test]
fn every_row_is_the_table_for_long_inputs_at_every_offset() {
    const MAX: usize = (4 << 20) + 13;
    let b = bytes(MAX, 2);
    let mut rng = Rng::seed_from(3);
    let mut cases = vec![(0, MAX), (13, MAX - 13)];
    for offset in 0..16 {
        cases.push((offset, rng.below(MAX - offset + 1)));
    }
    for (offset, len) in cases {
        let b = &b[offset..offset + len];
        every_tier_gives(b, reference(b), &format!("{len} bytes at +{offset}"));
    }
}

#[test]
fn every_row_hashes_any_split_to_the_whole() {
    let b = bytes(300_000, 4);
    let whole = reference(&b);
    let mut rng = Rng::seed_from(5);
    for tier in simd::available_backends() {
        for _ in 0..24 {
            // Short and long pieces alike: some under the fold's 64 bytes.
            let mut cuts: Vec<usize> = (0..rng.below(40))
                .map(|_| match rng.below(3) {
                    0 => rng.below(64),
                    1 => rng.below(4096),
                    _ => rng.below(b.len()),
                })
                .collect();
            cuts.sort_unstable();
            let got = simd::with_forced_backend(tier, || {
                let mut h = Crc32::new();
                let mut at = 0;
                for cut in cuts.iter().copied().chain([b.len()]) {
                    h.update(&b[at..cut]);
                    at = cut;
                }
                h.finish()
            });
            assert_eq!(got, whole, "split {cuts:?} on {}", tier.name());
        }
    }
}
