//! Deterministic random number generation.
//!
//! SNIP's experiments must be reproducible bit-for-bit: checkpoints, noise
//! probes (paper Fig. 6, Steps 2–3) and stochastic rounding all consume
//! randomness. We implement xoshiro256++ seeded through SplitMix64 rather
//! than depending on an external RNG crate so the streams are stable across
//! platforms and dependency upgrades.

use serde::{Deserialize, Serialize};

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
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    #[serde(default)]
    gauss_spare: Option<u64>,
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

    /// Derives an independent child generator; useful for giving each
    /// subsystem (data, init, rounding, probes) its own stream.
    pub fn fork(&mut self, stream: u64) -> Self {
        let a = self.next_u64();
        Rng::seed_from(a ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
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
        // Draw until u1 is strictly positive so ln(u1) is finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let (s, c) = theta.sin_cos();
        self.gauss_spare = Some((r * s).to_bits());
        r * c
    }

    /// Fills `out` with i.i.d. normal samples of the given standard deviation.
    pub fn fill_gaussian(&mut self, out: &mut [f32], std: f32) {
        for v in out.iter_mut() {
            *v = (self.next_gaussian() as f32) * std;
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
    fn fork_gives_independent_stream() {
        let mut parent = Rng::seed_from(5);
        let mut child = parent.fork(1);
        let a: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
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
    fn serde_round_trip_preserves_stream() {
        let mut rng = Rng::seed_from(77);
        rng.next_gaussian(); // populate spare
        let json = serde_json::to_string(&rng).unwrap();
        let mut restored: Rng = serde_json::from_str(&json).unwrap();
        assert_eq!(rng.next_u64(), restored.next_u64());
    }
}
