//! Low-precision floating-point formats (ExMy).
//!
//! The paper adopts the MX-specification FP4 **E2M1** format and the FP8
//! formats studied in the literature (E4M3, E5M2, E3M4), plus BF16 as the
//! high-precision baseline (§2.3). All subbyte formats here use *saturating*
//! semantics — values beyond the representable range clamp to ±max — which is
//! how training-oriented quantizers handle overflow after scaling.

use crate::int::IntFormat;
use serde::{de_field, Content, Deserialize, Serialize};
use std::fmt;

/// Identifier for the supported number formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FormatKind {
    /// FP4 E2M1 (MX specification).
    E2M1,
    /// FP8 E4M3 (OCP specification, max 448).
    E4M3,
    /// FP8 E5M2 (IEEE-like, max 57344).
    E5M2,
    /// FP8 E3M4.
    E3M4,
    /// bfloat16.
    Bf16,
}

/// A floating-point format described by its exponent/mantissa split.
///
/// `FloatFormat` captures everything the quantizer needs: the exponent bias,
/// the minimum normal exponent, and the largest representable magnitude
/// (which differs between specifications even for the same bit split — e.g.
/// OCP E4M3 tops out at 448 because `S.1111.111` is reserved for NaN).
///
/// # Example
///
/// ```
/// use snip_quant::format::FloatFormat;
/// let fp4 = FloatFormat::e2m1();
/// assert_eq!(fp4.max_value(), 6.0);
/// assert_eq!(fp4.quantize_nearest(2.6), 3.0);
/// assert_eq!(fp4.quantize_nearest(-100.0), -6.0); // saturates
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct FloatFormat {
    kind: FormatKind,
    exp_bits: u32,
    man_bits: u32,
    /// Exponent of the largest binade, after any reserved encodings.
    emax: i32,
    /// Minimum normal exponent (`1 - bias`).
    emin: i32,
    /// Largest representable magnitude.
    max_value: f32,
}

/// The serialized form spells out every field, but only `kind` is free:
/// the codebook is keyed by it while the rounding rules read the fields, so
/// a value whose fields contradict its kind would pack as one format and
/// fake-quantize as another. Such input (a START message, a checkpoint) is
/// rejected.
impl Deserialize for FloatFormat {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        let fmt = FloatFormat::from(de_field::<FormatKind>(c, "kind")?);
        let fields = (
            de_field::<u32>(c, "exp_bits")?,
            de_field::<u32>(c, "man_bits")?,
            de_field::<i32>(c, "emax")?,
            de_field::<i32>(c, "emin")?,
            de_field::<f32>(c, "max_value")?,
        );
        if fields
            != (
                fmt.exp_bits,
                fmt.man_bits,
                fmt.emax,
                fmt.emin,
                fmt.max_value,
            )
        {
            return Err(serde::Error::custom(format!(
                "FloatFormat fields {fields:?} contradict kind {:?}",
                fmt.kind
            )));
        }
        Ok(fmt)
    }
}

impl From<FormatKind> for FloatFormat {
    fn from(kind: FormatKind) -> Self {
        match kind {
            FormatKind::E2M1 => FloatFormat::e2m1(),
            FormatKind::E4M3 => FloatFormat::e4m3(),
            FormatKind::E5M2 => FloatFormat::e5m2(),
            FormatKind::E3M4 => FloatFormat::e3m4(),
            FormatKind::Bf16 => FloatFormat::bf16(),
        }
    }
}

impl FloatFormat {
    /// FP4 E2M1 per the MX specification: values {0, ±0.5, ±1, ±1.5, ±2, ±3,
    /// ±4, ±6}, no infinities or NaNs.
    pub const fn e2m1() -> Self {
        FloatFormat {
            kind: FormatKind::E2M1,
            exp_bits: 2,
            man_bits: 1,
            emax: 2,
            emin: 0,
            max_value: 6.0,
        }
    }

    /// FP8 E4M3 per the OCP FP8 specification (max 448; `S.1111.111` is NaN).
    pub const fn e4m3() -> Self {
        FloatFormat {
            kind: FormatKind::E4M3,
            exp_bits: 4,
            man_bits: 3,
            emax: 8,
            emin: -6,
            max_value: 448.0,
        }
    }

    /// FP8 E5M2, IEEE-like (top exponent reserved for inf/NaN, max 57344).
    pub const fn e5m2() -> Self {
        FloatFormat {
            kind: FormatKind::E5M2,
            exp_bits: 5,
            man_bits: 2,
            emax: 15,
            emin: -14,
            max_value: 57344.0,
        }
    }

    /// FP8 E3M4 (all exponents usable, max `2^4 × (2 − 2^-4) = 31`).
    pub const fn e3m4() -> Self {
        FloatFormat {
            kind: FormatKind::E3M4,
            exp_bits: 3,
            man_bits: 4,
            emax: 4,
            emin: -2,
            max_value: 31.0,
        }
    }

    /// BF16 expressed in the same framework (e8m7, IEEE exponent range).
    ///
    /// The fast bit-twiddling path in [`snip_tensor::bf16::round`] should
    /// be preferred for inner loops; this constant exists so BF16
    /// participates uniformly in error analysis.
    pub const fn bf16() -> Self {
        FloatFormat {
            kind: FormatKind::Bf16,
            exp_bits: 8,
            man_bits: 7,
            emax: 127,
            emin: -126,
            max_value: 3.3895314e38,
        }
    }

    /// Short lowercase name, e.g. `"e2m1"`.
    pub fn name(&self) -> &'static str {
        match self.kind {
            FormatKind::E2M1 => "e2m1",
            FormatKind::E4M3 => "e4m3",
            FormatKind::E5M2 => "e5m2",
            FormatKind::E3M4 => "e3m4",
            FormatKind::Bf16 => "bf16",
        }
    }

    /// The format identifier.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// Number of exponent bits.
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Number of mantissa bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Total storage bits (1 sign + exponent + mantissa).
    pub fn bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Largest representable magnitude (`FPX_MAX` in the paper).
    pub fn max_value(&self) -> f32 {
        self.max_value
    }

    /// Minimum normal exponent.
    pub fn emin(&self) -> i32 {
        self.emin
    }

    /// Smallest positive (subnormal) magnitude.
    pub fn min_subnormal(&self) -> f32 {
        exp2i(self.emin - self.man_bits as i32)
    }

    /// Quantizes with round-to-nearest-even. Non-finite inputs saturate
    /// (NaN maps to 0).
    #[inline]
    pub fn quantize_nearest(&self, x: f32) -> f32 {
        self.quantize_with(x, |r| r.round_ties_even())
    }

    /// Quantizes with stochastic rounding driven by `u ∈ [0, 1)`: the value
    /// rounds up with probability equal to its fractional progress between
    /// the two neighbouring representable values, which makes the rounding
    /// unbiased in expectation (paper §6.1, used for FP4 output gradients).
    #[inline]
    pub fn quantize_stochastic(&self, x: f32, u: f32) -> f32 {
        self.quantize_with(x, |r| {
            let floor = r.floor();
            if (r - floor) > u {
                floor + 1.0
            } else {
                floor
            }
        })
    }

    /// Core quantization: decompose, round the mantissa-scaled magnitude with
    /// `round`, reassemble, saturate.
    #[inline]
    fn quantize_with(&self, x: f32, round: impl Fn(f32) -> f32) -> f32 {
        if x == 0.0 {
            return 0.0;
        }
        if x.is_nan() {
            return 0.0;
        }
        let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
        let a = x.abs();
        if a >= self.max_value {
            return sign * self.max_value;
        }
        // Exponent of `a` from the bit pattern; f32 subnormals are treated as
        // exponent -127 which quantizes to zero or the target's smallest
        // subnormal, both correct.
        let bits = a.to_bits();
        let exp_field = ((bits >> 23) & 0xFF) as i32;
        let e = if exp_field == 0 {
            -127
        } else {
            exp_field - 127
        };
        let e_eff = e.max(self.emin);
        // Representable values at this binade are multiples of the quantum.
        let quantum = exp2i(e_eff - self.man_bits as i32);
        let k = round(a / quantum);
        let q = k * quantum;
        sign * q.min(self.max_value)
    }

    /// All non-negative representable values, smallest to largest. Intended
    /// for tests and tooling on subbyte formats.
    ///
    /// # Panics
    ///
    /// Panics if the format has more than 8 total bits (the enumeration
    /// would be impractically large).
    pub fn enumerate_non_negative(&self) -> Vec<f32> {
        assert!(
            self.bits() <= 8,
            "enumeration only supported for subbyte/byte formats"
        );
        let mut values = vec![0.0];
        let m = self.man_bits;
        // Subnormals: j * 2^(emin - m), j = 1..2^m
        for j in 1..(1u32 << m) {
            values.push(j as f32 * exp2i(self.emin - m as i32));
        }
        // Normals: (2^m + j) * 2^(e - m)
        let mut e = self.emin;
        loop {
            for j in 0..(1u32 << m) {
                let v = ((1u32 << m) + j) as f32 * exp2i(e - m as i32);
                if v > self.max_value {
                    return values;
                }
                values.push(v);
            }
            if e >= self.emax {
                return values;
            }
            e += 1;
        }
    }
}

impl fmt::Display for FloatFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The element grid a [`crate::Quantizer`] rounds onto — the crate's one
/// enumeration of element formats. Everything that depends on *which*
/// format a tensor holds hangs off it: the grid itself (`bits`, `max_value`,
/// the two rounding rules), the id a wire frame names it by, and (in
/// [`crate::codebook`]) the interned [`crate::Codebook`] it packs through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ElementFormat {
    /// A floating-point ExMy grid.
    Float(FloatFormat),
    /// A symmetric signed-integer grid.
    Int(IntFormat),
}

impl From<FloatFormat> for ElementFormat {
    fn from(fmt: FloatFormat) -> Self {
        ElementFormat::Float(fmt)
    }
}

impl From<IntFormat> for ElementFormat {
    fn from(fmt: IntFormat) -> Self {
        ElementFormat::Int(fmt)
    }
}

impl ElementFormat {
    /// Storage bits per element.
    pub fn bits(self) -> u32 {
        match self {
            ElementFormat::Float(f) => f.bits(),
            ElementFormat::Int(f) => f.bits(),
        }
    }

    /// Largest representable magnitude — the grid maximum a scale group's
    /// max-abs is mapped onto (`FPX_MAX`, or `qmax` for integer grids).
    pub fn max_value(self) -> f32 {
        match self {
            ElementFormat::Float(f) => f.max_value(),
            ElementFormat::Int(f) => f.qmax(),
        }
    }

    /// Rounds an already-scaled value to the nearest grid point (ties to
    /// even), saturating; NaN maps to 0.
    #[inline]
    pub fn quantize_nearest(self, x: f32) -> f32 {
        match self {
            ElementFormat::Float(f) => f.quantize_nearest(x),
            ElementFormat::Int(f) => f.quantize_nearest(x),
        }
    }

    /// Stochastic rounding of an already-scaled value, driven by
    /// `u ∈ [0, 1)`.
    #[inline]
    pub fn quantize_stochastic(self, x: f32, u: f32) -> f32 {
        match self {
            ElementFormat::Float(f) => f.quantize_stochastic(x, u),
            ElementFormat::Int(f) => f.quantize_stochastic(x, u),
        }
    }

    /// The byte a wire frame names this format by — `0..=3` for the four
    /// packable float formats, `0x10 | bits` for integer widths `2..=8` —
    /// or `None` when the format is wider than 8 bits and has no code
    /// table. The numbering is a wire contract
    /// (`tests/wire_roundtrip.rs` pins it) and doubles as the codebook
    /// intern key.
    pub(crate) fn wire_id(self) -> Option<u8> {
        match self {
            ElementFormat::Float(f) => match f.kind() {
                FormatKind::E2M1 => Some(0),
                FormatKind::E4M3 => Some(1),
                FormatKind::E5M2 => Some(2),
                FormatKind::E3M4 => Some(3),
                FormatKind::Bf16 => None,
            },
            ElementFormat::Int(f) => (f.bits() <= 8).then(|| 0x10 | f.bits() as u8),
        }
    }

    /// One past the largest [`ElementFormat::wire_id`] (INT8's `0x18`).
    pub(crate) const WIRE_ID_END: u8 = 0x19;

    /// Inverse of [`ElementFormat::wire_id`].
    pub(crate) fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(FloatFormat::e2m1().into()),
            1 => Some(FloatFormat::e4m3().into()),
            2 => Some(FloatFormat::e5m2().into()),
            3 => Some(FloatFormat::e3m4().into()),
            0x12..=0x18 => Some(IntFormat::new(u32::from(id & 0x0F)).into()),
            _ => None,
        }
    }
}

// The derive stub has no tuple variants; this is real serde's encoding of
// them (`{"Float": {...}}`).
impl Serialize for ElementFormat {
    fn to_content(&self) -> Content {
        let (tag, body) = match self {
            ElementFormat::Float(f) => ("Float", f.to_content()),
            ElementFormat::Int(f) => ("Int", f.to_content()),
        };
        Content::Map(vec![(tag.to_string(), body)])
    }
}

impl Deserialize for ElementFormat {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        if let Some(f) = c.get("Float") {
            FloatFormat::from_content(f).map(ElementFormat::Float)
        } else if let Some(f) = c.get("Int") {
            IntFormat::from_content(f).map(ElementFormat::Int)
        } else {
            Err(serde::Error::custom(
                "expected ElementFormat variant `Float` or `Int`",
            ))
        }
    }
}

/// `2^e` as f32 without going through `powi` (exact for the exponent ranges
/// used here).
#[inline]
fn exp2i(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else {
        (e as f32).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::bf16;

    #[test]
    fn e2m1_value_set_matches_mx_spec() {
        let vals = FloatFormat::e2m1().enumerate_non_negative();
        assert_eq!(vals, vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn e2m1_rounding_examples() {
        let f = FloatFormat::e2m1();
        assert_eq!(f.quantize_nearest(0.24), 0.0); // ties-even at 0.25 goes to 0.0? 0.24 < midpoint
        assert_eq!(f.quantize_nearest(0.26), 0.5);
        assert_eq!(f.quantize_nearest(1.2), 1.0);
        assert_eq!(f.quantize_nearest(1.3), 1.5);
        assert_eq!(f.quantize_nearest(2.5), 2.0); // tie, round to even mantissa (2.0)
        assert_eq!(f.quantize_nearest(3.5), 4.0); // tie, round to even (4.0)
        assert_eq!(f.quantize_nearest(5.1), 6.0);
        assert_eq!(f.quantize_nearest(-2.9), -3.0);
    }

    #[test]
    fn saturation_and_specials() {
        let f = FloatFormat::e4m3();
        assert_eq!(f.quantize_nearest(1e9), 448.0);
        assert_eq!(f.quantize_nearest(-1e9), -448.0);
        assert_eq!(f.quantize_nearest(f32::INFINITY), 448.0);
        assert_eq!(f.quantize_nearest(f32::NEG_INFINITY), -448.0);
        assert_eq!(f.quantize_nearest(f32::NAN), 0.0);
        assert_eq!(f.quantize_nearest(0.0), 0.0);
    }

    #[test]
    fn representable_values_are_fixed_points() {
        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e3m4(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
        ] {
            for v in fmt.enumerate_non_negative() {
                assert_eq!(fmt.quantize_nearest(v), v, "{fmt}: {v}");
                assert_eq!(fmt.quantize_nearest(-v), -v, "{fmt}: -{v}");
            }
        }
    }

    #[test]
    fn nearest_picks_closest_representable() {
        let fmt = FloatFormat::e2m1();
        let vals = fmt.enumerate_non_negative();
        let mut probe = 0.0f32;
        while probe < 7.0 {
            let q = fmt.quantize_nearest(probe);
            let best = vals
                .iter()
                .copied()
                .min_by(|a, b| (a - probe).abs().partial_cmp(&(b - probe).abs()).unwrap())
                .unwrap();
            assert!(
                (q - probe).abs() <= (best - probe).abs() + 1e-7,
                "probe {probe}: got {q}, best {best}"
            );
            probe += 0.013;
        }
    }

    #[test]
    fn e4m3_max_and_quantum() {
        let f = FloatFormat::e4m3();
        assert_eq!(f.max_value(), 448.0);
        assert_eq!(f.quantize_nearest(447.0), 448.0);
        assert_eq!(f.quantize_nearest(420.0), 416.0); // quantum at 2^8 binade = 32
        assert_eq!(f.min_subnormal(), 2f32.powi(-9));
    }

    #[test]
    fn e5m2_range() {
        let f = FloatFormat::e5m2();
        assert_eq!(f.max_value(), 57344.0);
        assert_eq!(f.quantize_nearest(60000.0), 57344.0);
        assert_eq!(f.min_subnormal(), 2f32.powi(-16));
    }

    #[test]
    fn stochastic_rounding_hits_neighbours_only() {
        let f = FloatFormat::e2m1();
        // 2.4 sits between 2.0 and 3.0 with progress 0.4
        let lo = f.quantize_stochastic(2.4, 0.9);
        let hi = f.quantize_stochastic(2.4, 0.1);
        assert_eq!(lo, 2.0);
        assert_eq!(hi, 3.0);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        use snip_tensor::rng::Rng;
        let f = FloatFormat::e2m1();
        let mut rng = Rng::seed_from(99);
        let x = 2.3f32;
        let n = 40_000;
        let mean: f64 = (0..n)
            .map(|_| f.quantize_stochastic(x, rng.next_f32()) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - x as f64).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn bf16_round_matches_known_values() {
        assert_eq!(bf16::round(1.0), 1.0);
        assert_eq!(bf16::round(0.0), 0.0);
        // 1 + 2^-8 is exactly between 1.0 and 1.00390625 (next bf16);
        // ties-to-even keeps 1.0.
        assert_eq!(bf16::round(1.0 + 2f32.powi(-8)), 1.0);
        // 1 + 3*2^-9 rounds up.
        assert_eq!(bf16::round(1.0 + 3.0 * 2f32.powi(-9)), 1.0 + 2f32.powi(-7));
        // The fast bit path agrees with the generic codec on normal values.
        let generic = FloatFormat::bf16();
        for &x in &[3.0e38f32, 1.5e-20, -7.25, 0.333, 123_456.79] {
            assert_eq!(bf16::round(x), generic.quantize_nearest(x), "x = {x}");
        }
        assert!(bf16::round(f32::NAN).is_nan());
    }

    #[test]
    fn bf16_is_idempotent() {
        let mut x = -0.1f32;
        for _ in 0..100 {
            let once = bf16::round(x);
            assert_eq!(bf16::round(once), once);
            x += 0.37;
        }
    }

    #[test]
    fn bits_accounting() {
        assert_eq!(FloatFormat::e2m1().bits(), 4);
        assert_eq!(FloatFormat::e4m3().bits(), 8);
        assert_eq!(FloatFormat::e5m2().bits(), 8);
        assert_eq!(FloatFormat::e3m4().bits(), 8);
        assert_eq!(FloatFormat::bf16().bits(), 16);
    }
}
