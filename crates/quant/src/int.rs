//! Symmetric integer quantization (INT8 / INT4).
//!
//! The paper's related work trains transformers with INT8 data flow
//! (Jetfire, §7 \[77\]) and SNIP explicitly treats quantization methods as
//! pluggable options (§5.2: "new methods can be incorporated as additional
//! quantization options"). This module provides the integer element grid;
//! [`crate::Quantizer`] takes it wherever it takes a float format
//! (`Quantizer::new(IntFormat::int4(), …)`, `Quantizer::int8_tile`), so
//! integer options enter SNIP's ILP as extra per-layer choices — see
//! `examples/custom_quantizer.rs`.
//!
//! Integer quantization maps a scale group onto the symmetric grid
//! `{-qmax, …, -1, 0, 1, …, qmax}` with `qmax = 2^(bits-1) - 1`:
//!
//! ```text
//! scale = qmax / max(abs(group))
//! y     = round(x * scale) / scale
//! ```
//!
//! `round` is either [`crate::Rounding`]: nearest-even, or the one
//! sign-magnitude stochastic rule the float grids use too. The codebook
//! packs an integer grid on the same encode kernels as a float one — it is
//! the all-subnormal case of the code arithmetic.
//!
//! Compared with FP4 E2M1, INT4 has *uniform* resolution across the range —
//! better near the group maximum, worse near zero — which is exactly the
//! trade-off the ILP can arbitrate per layer.

use serde::{de_field, Content, Deserialize, Serialize};

/// A symmetric signed-integer element format of 2–8 bits — the widths with
/// a code table (wire ids `0x12..=0x18`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct IntFormat {
    bits: u32,
}

/// A decoded width passes [`IntFormat::new`]'s check: a START message or a
/// checkpoint cannot name a grid the constructor refuses.
impl Deserialize for IntFormat {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        IntFormat::checked(de_field(c, "bits")?).map_err(serde::Error::custom)
    }
}

impl IntFormat {
    /// INT8 (the Jetfire training format).
    pub const fn int8() -> Self {
        IntFormat { bits: 8 }
    }

    /// INT4 — the integer subbyte counterpart of FP4 E2M1.
    pub const fn int4() -> Self {
        IntFormat { bits: 4 }
    }

    /// A custom width.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8` (1 bit leaves no magnitude levels;
    /// beyond 8 there is no code table to pack into).
    pub fn new(bits: u32) -> Self {
        IntFormat::checked(bits).unwrap_or_else(|e| panic!("{e}"))
    }

    fn checked(bits: u32) -> Result<Self, String> {
        if !(2..=8).contains(&bits) {
            return Err(format!("unsupported integer width {bits}"));
        }
        Ok(IntFormat { bits })
    }

    /// Storage bits per element.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The largest representable magnitude on the integer grid
    /// (`2^(bits-1) - 1`; the grid is symmetric, the most negative two's
    /// complement code is unused as in standard symmetric quantization).
    pub fn qmax(self) -> f32 {
        ((1i32 << (self.bits - 1)) - 1) as f32
    }
}

impl std::fmt::Display for IntFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "int{}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::granularity::Granularity;
    use crate::oracle::{ElementRule, Oracle};
    use crate::{Quantizer, Rounding};
    use snip_tensor::rng::Rng;
    use snip_tensor::Tensor;

    fn rng() -> Rng {
        Rng::seed_from(7)
    }

    fn int4_tile(nb: usize) -> Quantizer {
        Quantizer::new(
            IntFormat::int4(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        )
    }

    #[test]
    fn qmax_values() {
        assert_eq!(IntFormat::int8().qmax(), 127.0);
        assert_eq!(IntFormat::int4().qmax(), 7.0);
        assert_eq!(IntFormat::new(2).qmax(), 1.0);
    }

    #[test]
    #[should_panic(expected = "unsupported integer width")]
    fn one_bit_rejected() {
        let _ = IntFormat::new(1);
    }

    #[test]
    #[should_panic(expected = "unsupported integer width 12")]
    fn int12_rejected() {
        let _ = IntFormat::new(12);
    }

    #[test]
    fn decoded_widths_keep_the_constructors_check() {
        for bits in 2..=8 {
            let json = format!(r#"{{"bits":{bits}}}"#);
            assert_eq!(
                serde_json::from_str::<IntFormat>(&json).unwrap(),
                IntFormat::new(bits)
            );
        }
        for bits in [0, 1, 9, 12, 16] {
            let json = format!(r#"{{"bits":{bits}}}"#);
            let err = serde_json::from_str::<IntFormat>(&json).unwrap_err();
            assert!(
                err.to_string().contains("unsupported integer width"),
                "{err}"
            );
        }
    }

    #[test]
    fn nearest_rounding_saturates() {
        let f = IntFormat::int4();
        assert_eq!(f.quantize_nearest(6.4), 6.0);
        assert_eq!(f.quantize_nearest(6.6), 7.0);
        assert_eq!(f.quantize_nearest(100.0), 7.0);
        assert_eq!(f.quantize_nearest(-100.0), -7.0);
        assert_eq!(f.quantize_nearest(f32::NAN), 0.0);
        // Ties to even, like the float codecs.
        assert_eq!(f.quantize_nearest(2.5), 2.0);
        assert_eq!(f.quantize_nearest(3.5), 4.0);
    }

    #[test]
    fn stochastic_is_unbiased() {
        let f = IntFormat::int8();
        let mut r = rng();
        let v = 41.3f32;
        let n = 40_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += f.quantize_stochastic(v, r.next_f32()) as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - v as f64).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn group_max_round_trips_exactly() {
        // The group max maps to qmax, an exact grid point.
        let q = int4_tile(4);
        let t = Tensor::from_vec(1, 4, vec![0.3, -1.7, 0.2, 0.05]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert!((fq[(0, 1)] - -1.7).abs() < 1e-6);
    }

    #[test]
    fn int8_beats_int4() {
        let mut r = rng();
        let t = Tensor::randn(32, 64, 1.0, &mut r);
        let e8 = Quantizer::int8_tile(16).error_norm(&t);
        let e4 = int4_tile(16).error_norm(&t);
        assert!(
            e8 < e4 / 8.0,
            "int8 error {e8} should be far below int4 error {e4}"
        );
    }

    #[test]
    fn per_element_error_bounded_by_half_step() {
        let q = Quantizer::new(IntFormat::int4(), Granularity::Rowwise, Rounding::Nearest);
        let mut r = rng();
        let t = Tensor::randn(8, 32, 2.0, &mut r);
        let fq = q.fake_quantize(&t, &mut r);
        for row in 0..8 {
            let max_abs = t.row(row).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = max_abs / IntFormat::int4().qmax();
            for c in 0..32 {
                let err = (fq[(row, c)] - t[(row, c)]).abs();
                assert!(
                    err <= step / 2.0 + 1e-6,
                    "row {row} col {c}: err {err} > half-step {}",
                    step / 2.0
                );
            }
        }
    }

    #[test]
    fn zero_tensor_is_exact() {
        let q = Quantizer::int8_tile(8);
        let t = Tensor::zeros(4, 16);
        assert_eq!(q.fake_quantize(&t, &mut rng()), t);
        assert_eq!(q.error_norm(&t), 0.0);
        assert_eq!(q.relative_error(&t), 0.0);
    }

    #[test]
    fn idempotent_under_nearest() {
        let mut r = rng();
        let t = Tensor::randn(8, 8, 1.5, &mut r);
        let q = Quantizer::new(
            IntFormat::int4(),
            Granularity::Block { nb: 4 },
            Rounding::Nearest,
        );
        let once = q.fake_quantize(&t, &mut r);
        let twice = q.fake_quantize(&once, &mut r);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn infinite_inputs_do_not_poison_group() {
        let q = Quantizer::int8_tile(4);
        let t = Tensor::from_vec(1, 4, vec![f32::INFINITY, 1.0, -2.0, 0.5]);
        let fq = q.fake_quantize(&t, &mut rng());
        assert!(fq.all_finite());
    }

    #[test]
    fn int4_and_fp4_trade_places_by_distribution() {
        // Uniform-ish data favors the uniform INT4 grid; heavy-tailed data
        // favors FP4's logarithmic spacing near zero. We only pin the first
        // half (the robust one) and sanity-check both produce finite errors.
        let mut r = rng();
        let nb = 16;
        let int4 = int4_tile(nb);
        let fp4 = Quantizer::new(
            crate::format::FloatFormat::e2m1(),
            Granularity::Tile { nb },
            Rounding::Nearest,
        );
        // Uniform in [-1, 1]: INT4's 15 evenly spaced levels beat FP4's 15
        // exponentially spaced ones.
        let mut u = Tensor::zeros(16, 64);
        for v in u.as_mut_slice() {
            *v = r.next_f32() * 2.0 - 1.0;
        }
        assert!(int4.error_norm(&u) < fp4.error_norm(&u));
        let g = Tensor::randn(16, 64, 1.0, &mut r);
        assert!(int4.error_norm(&g).is_finite() && fp4.error_norm(&g).is_finite());
    }

    #[test]
    fn display() {
        assert_eq!(IntFormat::int8().to_string(), "int8");
        assert_eq!(IntFormat::int4().to_string(), "int4");
    }

    #[test]
    fn packed_path_is_bit_identical_to_fake_quantization() {
        let mut data_rng = rng();
        let t = Tensor::randn(10, 24, 2.0, &mut data_rng);
        for fmt in [IntFormat::int4(), IntFormat::int8(), IntFormat::new(3)] {
            for g in [
                Granularity::Rowwise,
                Granularity::Block { nb: 6 },
                Granularity::Tile { nb: 6 },
            ] {
                for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                    let q = Quantizer::new(fmt, g, rounding);
                    let mut rng_fake = Rng::seed_from(4);
                    let mut rng_packed = Rng::seed_from(4);
                    let fake = q.fake_quantize(&t, &mut rng_fake);
                    let packed = q.quantize_packed(&t, &mut rng_packed).expect("packable");
                    let deq = packed.dequantize();
                    for (i, (x, y)) in fake.as_slice().iter().zip(deq.as_slice()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{fmt} {g} {rounding:?}: element {i}: {x} vs {y}"
                        );
                    }
                    assert_eq!(rng_fake.next_u64(), rng_packed.next_u64());
                }
            }
        }
    }
}
