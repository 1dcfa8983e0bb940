//! Deterministic random number generation.
//!
//! SNIP's experiments must be reproducible bit-for-bit: checkpoints, noise
//! probes (paper Fig. 6, Steps 2–3) and stochastic rounding all consume
//! randomness. We implement xoshiro256++ seeded through SplitMix64 rather
//! than depending on an external RNG crate so the streams are stable across
//! platforms and dependency upgrades.

use crate::math::box_muller;
use crate::simd;
use std::sync::OnceLock;

/// A deterministic xoshiro256++ random number generator.
///
/// # Example
///
/// ```
/// use snip_tensor::rng::Rng;
/// let mut a = Rng::seed_from(7);
/// let mut b = Rng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<u64>,
}

/// Uniform pairs [`Rng::fill_gaussian`] draws ahead of one transform, into
/// a stack buffer of 16 KiB. The fill runs on the calling thread: the
/// certified transform costs about what the serial draws do, and a pool
/// split of it measured below 1.05× at the fixture's weight sizes — the
/// `fill_gaussian_t1` against the `fill_gaussian_t<threads>` rows of
/// `BENCH_gemm.json`'s `init` table.
pub const GAUSSIAN_BLOCK_PAIRS: usize = 1024;

/// The xoshiro256 state transition: the linear half of
/// [`Rng::next_u64`].
#[inline]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// A linear map of the 256-bit state as its columns: column `j` is the
/// image of the state whose only set bit is bit `j % 64` of word `j / 64`.
type Transition = [[u64; 4]; 256];

/// `m · v`: the XOR of the columns of `m` at the set bits of `v`.
fn apply(m: &Transition, v: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (j, col) in m.iter().enumerate() {
        let mask = 0u64.wrapping_sub((v[j / 64] >> (j % 64)) & 1);
        for (o, c) in out.iter_mut().zip(col) {
            *o ^= c & mask;
        }
    }
    out
}

/// The smallest `k` whose `2^k` steps [`Rng::advance`] takes as one jump;
/// fewer steps are cheaper stepped one by one than one [`apply`].
const FIRST_JUMP: usize = 6;

/// The jump tables, built on first use: `JUMPS[k]` is `2^k` steps of the
/// state transition (8 KiB each; entries below [`FIRST_JUMP`] stay empty).
static JUMPS: [OnceLock<Box<Transition>>; 64] = [const { OnceLock::new() }; 64];

/// `2^k` steps of the state transition, `k ≥ FIRST_JUMP`: stepped from
/// each basis state at the first level, the previous level squared above.
fn jump(k: usize) -> &'static Transition {
    JUMPS[k].get_or_init(|| {
        let mut m = Box::new([[0u64; 4]; 256]);
        for (j, col) in m.iter_mut().enumerate() {
            if k == FIRST_JUMP {
                col[j / 64] = 1 << (j % 64);
                for _ in 0..1u64 << k {
                    step(col);
                }
            } else {
                let half = jump(k - 1);
                *col = apply(half, &half[j]);
            }
        }
        m
    })
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators built from the same seed produce identical streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Rng {
            state,
            gauss_spare: None,
        }
    }

    /// The generator's whole state: the xoshiro256++ words and the cached
    /// second Box–Muller output (its `f64` bits), as [`Rng::from_state`]
    /// takes them back — how a checkpoint stores a stream position.
    pub fn state(&self) -> ([u64; 4], Option<u64>) {
        (self.state, self.gauss_spare)
    }

    /// The generator whose [`Rng::state`] is `(state, gauss_spare)`: it
    /// continues that stream exactly.
    pub fn from_state(state: [u64; 4], gauss_spare: Option<u64>) -> Self {
        Rng { state, gauss_spare }
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        step(&mut self.state);
        result
    }

    /// Moves the stream `n` draws ahead: the state `n` calls of
    /// [`Rng::next_u64`] (or [`Rng::next_f32`] / [`Rng::next_f64`], one
    /// draw each) would leave, in time logarithmic in `n`. The pending
    /// Box–Muller spare is kept. A parallel consumer of one stream starts
    /// each part at its own offset this way — the pack engine's stochastic
    /// runs in `snip-quant` — and every draw is the one the serial loop
    /// would have made.
    pub fn advance(&mut self, n: u64) {
        // The state transition is linear over GF(2), so `2^k` steps are one
        // matrix product: the low bits step, the high bits jump.
        for _ in 0..n % (1 << FIRST_JUMP) {
            step(&mut self.state);
        }
        for k in FIRST_JUMP..u64::BITS as usize {
            if (n >> k) & 1 == 1 {
                self.state = apply(jump(k), &self.state);
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free enough for simulation purposes:
        // 64-bit multiply-shift gives negligible bias for bound << 2^64.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(bits) = self.gauss_spare.take() {
            return f64::from_bits(bits);
        }
        let (c, s) = box_muller(self.uniform_pair());
        self.gauss_spare = Some(s.to_bits());
        c
    }

    /// The two uniforms one Box–Muller pair consumes: `u1` drawn until it
    /// is strictly positive (so `ln(u1)` is finite), then `u2`.
    #[inline]
    fn uniform_pair(&mut self) -> [f64; 2] {
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        [u1, self.next_f64()]
    }

    /// Fills `out` with i.i.d. normal samples of the given standard deviation:
    /// the values, and the generator state left behind, of one
    /// `(next_gaussian() as f32) * std` per element.
    ///
    /// The uniforms are drawn serially, [`GAUSSIAN_BLOCK_PAIRS`] pairs at a
    /// time, and each block goes through the kernel table's certified
    /// Box–Muller transform ([`crate::math`]), which reproduces the libm
    /// pair's outputs bit for bit on every tier. With collection on, the
    /// pairs transformed and those the certificate sent back to libm are
    /// counted as `rng.gaussian.pairs` and `rng.gaussian.fallbacks`.
    pub fn fill_gaussian(&mut self, mut out: &mut [f32], std: f32) {
        if out.is_empty() {
            return;
        }
        if let Some(bits) = self.gauss_spare.take() {
            out[0] = (f64::from_bits(bits) as f32) * std;
            out = &mut out[1..];
        }
        let (body, tail) = out.split_at_mut(out.len() & !1);
        let mut drawn = [[0.0; 2]; GAUSSIAN_BLOCK_PAIRS];
        let mut fallbacks = 0;
        for block in body.chunks_mut(2 * GAUSSIAN_BLOCK_PAIRS) {
            let drawn = &mut drawn[..block.len() / 2];
            drawn.fill_with(|| self.uniform_pair());
            fallbacks += simd::gaussian_pairs(drawn, std, block);
        }
        if snip_obs::enabled() {
            snip_obs::counter_add("rng.gaussian.pairs", body.len() as u64 / 2);
            snip_obs::counter_add("rng.gaussian.fallbacks", fallbacks as u64);
        }
        if let [last] = tail {
            let (c, s) = box_muller(self.uniform_pair());
            *last = (c as f32) * std;
            self.gauss_spare = Some(s.to_bits());
        }
    }

    /// Samples an index according to the (unnormalized) weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

impl Default for Rng {
    fn default() -> Self {
        Rng::seed_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `advance(n)` leaves the state `n` draws leave, around every jump
    /// level's edges, and two advances compose; the Box–Muller spare is
    /// kept.
    #[test]
    fn advance_equals_that_many_draws() {
        let start = Rng::seed_from(31);
        let mut drawn = start.clone();
        let mut at = 0u64;
        for n in [
            0u64,
            1,
            2,
            63,
            64,
            65,
            127,
            128,
            1000,
            4095,
            4096,
            70_001,
            1 << 18,
        ] {
            while at < n {
                drawn.next_u64();
                at += 1;
            }
            let mut jumped = start.clone();
            jumped.advance(n);
            assert_eq!(jumped, drawn, "{n} draws");
        }
        let mut twice = start.clone();
        twice.advance(1 << 17);
        twice.advance((1 << 18) - (1 << 17));
        assert_eq!(twice, drawn);
        let mut spare = Rng::seed_from(5);
        spare.next_gaussian();
        let pending = spare.state().1;
        spare.advance(99);
        assert_eq!(spare.state().1, pending);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_unit_interval() {
        let mut rng = Rng::seed_from(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(17);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.next_gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.below(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_sampling_prefers_heavy_weight() {
        let mut rng = Rng::seed_from(11);
        let weights = [0.05, 0.9, 0.05];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[rng.sample_weighted(&weights)] += 1;
        }
        assert!(counts[1] > counts[0] + counts[2]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_round_trip_preserves_stream() {
        let mut rng = Rng::seed_from(77);
        rng.next_gaussian(); // populate spare
        let (state, spare) = rng.state();
        assert!(spare.is_some());
        let mut restored = Rng::from_state(state, spare);
        assert_eq!(restored, rng);
        assert_eq!(rng.next_gaussian(), restored.next_gaussian());
        assert_eq!(rng.next_u64(), restored.next_u64());
    }
}
