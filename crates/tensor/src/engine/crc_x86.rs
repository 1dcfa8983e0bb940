//! The x86_64 vector `crc32` row: the carry-less-multiply fold of
//! [`crate::crc`] (whose module docs derive its constants).
//!
//! Every function here needs `pclmulqdq` (SSE2 is baseline on x86_64);
//! [`super::simd::active_kernels`] calls [`update`] only after
//! `is_x86_feature_detected!` confirmed it.

use crate::crc::fold::{barrett_mu, barrett_poly, fold_key};
use crate::crc::update_table;
use std::arch::x86_64::*;

/// Bytes the fold's main loop takes per step: four 16-byte lanes.
const STEP: usize = 64;

/// Carries a lane forward 64 bytes: low half-lane by `x^(512+32)`, high
/// by `x^(512−32)`.
const BY_STEP: (u64, u64) = (fold_key(4 * 128 + 32), fold_key(4 * 128 - 32));
/// Carries a lane forward 16 bytes.
const BY_WORD: (u64, u64) = (fold_key(128 + 32), fold_key(128 - 32));
/// Brings 96 bits to 64.
const BY_64: u64 = fold_key(64);

/// One 16-byte word as a lane.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn load(word: &[u8; 16]) -> __m128i {
    // SAFETY: `word` is 16 readable bytes, and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(word.as_ptr().cast()) }
}

/// `(low, high)` as the two 64-bit halves of a register.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn keys((low, high): (u64, u64)) -> __m128i {
    _mm_set_epi64x(high as i64, low as i64)
}

/// `lane` carried forward by `keys`' distance, plus `word`: the low
/// half-lane times the low key, the high half-lane times the high key.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(lane: __m128i, keys: __m128i, word: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(lane, keys);
    let high = _mm_clmulepi64_si128::<0x11>(lane, keys);
    _mm_xor_si128(_mm_xor_si128(low, high), word)
}

/// The 32-bit state a folded lane stands for: 128 bits to 96 with the
/// 16-byte fold's high key, 96 to 64 with [`BY_64`], then a Barrett
/// reduction (the bit-reflected form: the state is the upper half of the
/// 64-bit result).
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn reduce(lane: __m128i) -> u32 {
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(lane, keys(BY_WORD)),
        _mm_srli_si128::<8>(lane),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), keys((BY_64, 0))),
        _mm_srli_si128::<4>(x),
    );
    let barrett = keys((barrett_poly(), barrett_mu()));
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
}

/// The vector row: `state` advanced over `bytes`, the table's value for
/// every input. Inputs under [`STEP`] bytes and the `len % 16` tail run
/// the table. Calling it is sound only on a CPU with `pclmulqdq`.
#[target_feature(enable = "pclmulqdq")]
pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
    if bytes.len() < STEP {
        return update_table(state, bytes);
    }
    let (words, tail) = bytes.as_chunks::<16>();
    let (first, rest) = words.split_at(4);
    let mut lanes = [0, 1, 2, 3].map(|i| load(&first[i]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
    let (steps, words) = rest.as_chunks::<4>();
    let by_step = keys(BY_STEP);
    for step in steps {
        for (lane, word) in lanes.iter_mut().zip(step) {
            *lane = fold(*lane, by_step, load(word));
        }
    }
    let by_word = keys(BY_WORD);
    let mut acc = lanes[0];
    for &lane in &lanes[1..] {
        acc = fold(acc, by_word, lane);
    }
    for word in words {
        acc = fold(acc, by_word, load(word));
    }
    update_table(reduce(acc), tail)
}
