//! In-tree `f64` transcendentals, and the certified Box–Muller body the
//! kernel table's `gaussian` row runs.
//!
//! # The functions
//!
//! [`ln`] and `sin_cos` are written once, as safe branch-free lane
//! bodies: every step is one IEEE operation on one value (integer work on
//! its bit pattern, `+ − × ÷ √`, and selects), with no fused multiply-add
//! and no reassociation, so a loop over them vectorizes one value per lane
//! under a `#[target_feature]` and cannot change a bit. Their results
//! therefore do not depend on the SIMD tier that runs them, nor on the
//! platform's libm.
//!
//! - [`ln`] is the fdlibm method: split `x = 2^k · m` with
//!   `m ∈ [√2/2, √2)`, then `ln m = f − f²/2 + s·(f²/2 + R(s²))` with
//!   `f = m − 1`, `s = f / (2 + f)` and fdlibm's degree-14 minimax `R`, and
//!   `k · ln 2` added in two parts.
//! - `sin_cos` reduces `x` by `π/2` in three Cody–Waite parts (after
//!   fdlibm's `__rem_pio2` medium case, with all three parts applied
//!   unconditionally and each part's rounding error kept, the remainder a
//!   double-double `y0 + y1`), then evaluates fdlibm's sine and cosine
//!   kernel polynomials on `[−π/4, π/4]` and picks sine and cosine by the
//!   quadrant.
//!
//! Both are within a couple of ULP of the correctly rounded result on
//! their domains: [`ln`] on positive normal finite inputs, `sin_cos` on
//! `[0, 2π]` (the three-part reduction is exact enough only for small
//! quotients). That is all the Box–Muller transform asks of them.
//!
//! # The certified transform
//!
//! [`Rng::next_gaussian`](crate::rng::Rng::next_gaussian) computes one
//! pair with the platform's libm (`box_muller`, the reference), and a
//! fill must reproduce its bits. The fast path computes the same pair as
//! `c`, `s` from [`ln`] and `sin_cos`, and a fast value `v` is kept only
//! if `v·(1 − δ)` and `v·(1 + δ)` narrow to the same `f32`, with
//! `δ` = `GAUSSIAN_DELTA` = 2⁻⁴⁶. Narrowing is monotone, so when the libm
//! value lies within `|v|·(δ − 2⁻⁵²)` of `v` (the `2⁻⁵²` covers the rounding of
//! the two products) it narrows to the same `f32` too, and the output
//! `(v as f32) · std` is the reference's bit for bit. A pair with either
//! value uncertified is recomputed by `box_muller`. At this `δ` about one
//! pair in a million falls back (`BENCH_gemm.json` records the count at
//! the bench fixture as `init.fallbacks` of `init.pairs`).
//!
//! **The δ derivation.** The fast `c = r·cos θ` differs from libm's by the
//! relative errors of `ln` (halved by the square root) and of the cosine,
//! each a couple of ULP against the correctly rounded result, plus libm's
//! own. Two tests measure `|fast − libm| / |fast|` and assert it is at
//! most `δ/4`, so that `δ` is at least four times the measured maximum:
//! `gaussian_error_stays_within_a_quarter_of_delta` over 2²⁰ drawn pairs
//! (it prints the maximum in ULP of 1.0 under `--nocapture`), and
//! `edge_cases_stay_within_a_quarter_of_delta` at `u1 ∈ {2⁻⁵³, 1 − 2⁻⁵³}`,
//! `u2 = 0` and each quadrant boundary ± 1 ULP. A wider `δ` costs only
//! fallbacks (each one a libm pair), a narrower one risks the certificate.

/// The relative half-width `δ` of the certification interval: `2⁻⁴⁶`, 64
/// ULP of 1.0. See the module docs for its derivation.
pub(crate) const GAUSSIAN_DELTA: f64 = 1.0 / (1u64 << 46) as f64;

/// Pairs of one step of the Box–Muller body: the certificates of a step
/// are checked together, so one step costs one branch.
const BLOCK: usize = 64;

/// The Box–Muller transform of one uniform pair through the platform's
/// libm: `(r·cos θ, r·sin θ)` with `r = √(−2 ln u1)` and `θ = 2π·u2`, in
/// the order [`Rng::next_gaussian`](crate::rng::Rng::next_gaussian) hands
/// them out (the sine term is the spare). The reference every fast pair is
/// certified against, and the fallback.
#[inline]
pub(crate) fn box_muller([u1, u2]: [f64; 2]) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    let (s, c) = theta.sin_cos();
    (r * c, r * s)
}

/// Natural logarithm of a positive normal finite `x`.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    // fdlibm's `ln2_hi`, `ln2_lo` and `Lg1`–`Lg7`, as their bit patterns.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // The high word of √2/2: the mantissa is moved into [√2/2, √2) and the
    // exponent k bumped when it lies above √2.
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e << 32;
    let bits = x.to_bits() + ((0x3ff0_0000 << 32) - SQRT_HALF_HI);
    // k + 1023 as an exact f64: 2⁵² + e − (2⁵² + 1023).
    let k =
        f64::from_bits(0x4330_0000_0000_0000 | (bits >> 52)) - (4_503_599_627_370_496.0 + 1023.0);
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) + SQRT_HALF_HI);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// Sine and cosine of `x` in `[0, 2π]`.
#[inline(always)]
pub(crate) fn sin_cos(x: f64) -> (f64, f64) {
    // fdlibm's `invpio2` and `pio2_{1,2,3,3t}`, as their bit patterns:
    // π/2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T, the first three of 33 bits
    // each, so `n · PIO2_i` is exact for the quotients of [0, 2π].
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
    const PIO2_3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);
    // 1.5 · 2⁵²: adding it rounds to the nearest integer, whose low bits
    // then sit in the mantissa.
    const TO_INT: f64 = 6_755_399_441_055_744.0;
    let q = x * INV_PIO2 + TO_INT;
    let n = q.to_bits();
    let nf = q - TO_INT;
    // x − n·PIO2_1 is exact (Sterbenz); each later part's product is
    // subtracted with its rounding error kept (`r1 − w2 = r2 + e2`), so
    // that x − n·π/2 = r3 − w to far below one ULP of the remainder.
    let r1 = x - nf * PIO2_1;
    let w2 = nf * PIO2_2;
    let r2 = r1 - w2;
    let e2 = (r1 - r2) - w2;
    let w3 = nf * PIO2_3;
    let r3 = r2 - w3;
    let e3 = (r2 - r3) - w3;
    let w = nf * PIO2_3T - (e2 + e3);
    let y0 = r3 - w;
    let y1 = (r3 - y0) - w;
    let (s, c) = (sin_kernel(y0, y1), cos_kernel(y0, y1));
    // Quadrant n: sin = (S, C, −S, −C), cos = (C, −S, −C, S).
    let (sin, cos) = if n & 1 == 0 { (s, c) } else { (c, s) };
    let sin = f64::from_bits(sin.to_bits() ^ ((n & 2) << 62));
    let cos = f64::from_bits(cos.to_bits() ^ ((n.wrapping_add(1) & 2) << 62));
    (sin, cos)
}

/// fdlibm's `__kernel_sin` of `x + y`, `|x| ≤ π/4`, `y` the tail of `x`.
#[inline(always)]
fn sin_kernel(x: f64, y: f64) -> f64 {
    // fdlibm's `S1`–`S6`, as their bit patterns.
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// fdlibm's `__kernel_cos` of `x + y`, `|x| ≤ π/4`, `y` the tail of `x`.
#[inline(always)]
fn cos_kernel(x: f64, y: f64) -> f64 {
    // fdlibm's `C1`–`C6`, as their bit patterns.
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// The fast pair of `(u1, u2)`: [`box_muller`] through [`ln`] and
/// `sin_cos`.
#[inline(always)]
fn fast_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln(u1)).sqrt();
    let (s, c) = sin_cos(2.0 * std::f64::consts::PI * u2);
    (r * c, r * s)
}

/// Whether `v·(1 − delta)` and `v·(1 + delta)` narrow to the same `f32`.
#[inline(always)]
fn narrows_alike(v: f64, delta: f64) -> bool {
    ((v * (1.0 - delta)) as f32).to_bits() == ((v * (1.0 + delta)) as f32).to_bits()
}

/// The Box–Muller body of the kernel table's `gaussian` row: for every
/// pair, `out[2i] = (c as f32) · std` and `out[2i + 1] = (s as f32) · std`
/// with `(c, s)` = [`box_muller`]`(pairs[i])`, bit for bit — fast and
/// certified at half-width `delta` ([`GAUSSIAN_DELTA`] in the row), else
/// recomputed by [`box_muller`]. Returns how many pairs were recomputed.
///
/// Every `u1` must lie in `(0, 1)` and every `u2` in `[0, 1)`, as
/// [`Rng`](crate::rng::Rng) draws them.
#[inline(always)]
pub(crate) fn gaussian_pairs(pairs: &[[f64; 2]], std: f32, out: &mut [f32], delta: f64) -> usize {
    let (out, rest) = out.as_chunks_mut::<2>();
    assert!(
        rest.is_empty() && out.len() == pairs.len(),
        "two outputs per pair"
    );
    let mut fallbacks = 0;
    for (p, o) in pairs.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        let mut certified = [false; BLOCK];
        // The loop the compiler vectorizes: one pair per lane.
        for ((o, &[u1, u2]), ok) in o.iter_mut().zip(p).zip(&mut certified) {
            let (c, s) = fast_pair(u1, u2);
            *o = [(c as f32) * std, (s as f32) * std];
            *ok = narrows_alike(c, delta) & narrows_alike(s, delta);
        }
        if certified[..p.len()].iter().all(|&ok| ok) {
            continue;
        }
        for ((o, &pair), _) in o.iter_mut().zip(p).zip(certified).filter(|(_, ok)| !ok) {
            let (c, s) = box_muller(pair);
            *o = [(c as f32) * std, (s as f32) * std];
            fallbacks += 1;
        }
    }
    fallbacks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|fast − libm| / |fast|`, 0 where both are 0.
    fn rel(fast: f64, libm: f64) -> f64 {
        if fast == libm {
            0.0
        } else {
            (fast - libm).abs() / fast.abs()
        }
    }

    /// The certification's edge cases: `u1` at both ends of its range
    /// against `u2 = 0`, and `u2` at each quadrant boundary ± 1 ULP.
    fn edge_pairs() -> Vec<[f64; 2]> {
        let eps = f64::EPSILON / 2.0; // 2⁻⁵³, the uniforms' quantum
        let mut pairs = Vec::new();
        for u1 in [eps, 1.0 - eps, 0.5] {
            pairs.push([u1, 0.0]);
            for q in [0.25f64, 0.5, 0.75] {
                for u2 in [q.next_down(), q, q.next_up()] {
                    pairs.push([u1, u2]);
                }
            }
            pairs.push([u1, 1.0 - eps]);
        }
        pairs
    }

    #[test]
    fn edge_cases_stay_within_a_quarter_of_delta() {
        for pair in edge_pairs() {
            let (c, s) = fast_pair(pair[0], pair[1]);
            let (lc, ls) = box_muller(pair);
            for (what, fast, libm) in [("c", c, lc), ("s", s, ls)] {
                let e = rel(fast, libm);
                assert!(
                    e <= GAUSSIAN_DELTA / 4.0,
                    "{pair:?} {what}: {fast} vs libm {libm}, rel {e:e}"
                );
            }
        }
    }

    #[test]
    fn gaussian_error_stays_within_a_quarter_of_delta() {
        let mut rng = crate::rng::Rng::seed_from(0xDE17A);
        let mut worst = 0.0f64;
        for _ in 0..1 << 20 {
            let mut u1 = rng.next_f64();
            while u1 == 0.0 {
                u1 = rng.next_f64();
            }
            let pair = [u1, rng.next_f64()];
            let (c, s) = fast_pair(pair[0], pair[1]);
            let (lc, ls) = box_muller(pair);
            worst = worst.max(rel(c, lc)).max(rel(s, ls));
        }
        let ulps = worst / f64::EPSILON;
        eprintln!("max |fast - libm| / |fast| = {ulps:.3} ULP of 1.0");
        assert!(
            worst <= GAUSSIAN_DELTA / 4.0,
            "measured {ulps:.2} ULP, δ/4 is 16"
        );
    }

    #[test]
    fn ln_and_sin_cos_track_libm() {
        for x in [
            f64::MIN_POSITIVE,
            1e-300,
            2f64.powi(-53),
            0.1,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            0.9999,
            1.5,
            1e300,
            f64::MAX,
        ] {
            assert!(
                rel(ln(x), x.ln()) <= 4.0 * f64::EPSILON,
                "ln({x}) = {}, libm {}",
                ln(x),
                x.ln()
            );
        }
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        for t in [
            0.0, 1e-300, 1e-9, 0.5, 1.0, FRAC_PI_2, 3.0, PI, 4.0, 5.5, TAU,
        ] {
            let (s, c) = sin_cos(t);
            assert!(
                rel(s, t.sin()) <= 4.0 * f64::EPSILON,
                "sin({t}) = {s}, libm {}",
                t.sin()
            );
            assert!(
                rel(c, t.cos()) <= 4.0 * f64::EPSILON,
                "cos({t}) = {c}, libm {}",
                t.cos()
            );
        }
    }

    /// The certificate refuses a value whose interval holds an `f32`
    /// rounding boundary, and keeps one whose interval does not.
    #[test]
    fn the_certificate_refuses_values_near_an_f32_rounding_boundary() {
        let tie = 1.0 + f64::from(f32::EPSILON) / 2.0; // between 1 and its f32 successor
        for v in [
            tie,
            tie * (1.0 + GAUSSIAN_DELTA / 2.0),
            tie * (1.0 - GAUSSIAN_DELTA / 2.0),
        ] {
            assert!(!narrows_alike(v, GAUSSIAN_DELTA), "{v:e} straddles the tie");
            assert!(
                !narrows_alike(-v, GAUSSIAN_DELTA),
                "{:e} straddles the tie",
                -v
            );
        }
        for v in [1.0, tie * (1.0 + 4.0 * GAUSSIAN_DELTA), 0.0, -0.0] {
            assert!(
                narrows_alike(v, GAUSSIAN_DELTA),
                "{v:e} is clear of every tie"
            );
        }
    }

    /// Every pair certified or not, the body writes the libm pair's bits.
    fn libm_bits(pairs: &[[f64; 2]], std: f32) -> Vec<u32> {
        pairs
            .iter()
            .flat_map(|&p| {
                let (c, s) = box_muller(p);
                [((c as f32) * std).to_bits(), ((s as f32) * std).to_bits()]
            })
            .collect()
    }

    #[test]
    fn forcing_every_pair_to_fall_back_is_bit_identical() {
        let mut pairs = edge_pairs();
        let mut rng = crate::rng::Rng::seed_from(5);
        pairs.extend((0..1000).map(|_| [rng.next_f64().max(f64::EPSILON), rng.next_f64()]));
        let std = 0.02f32;
        let want = libm_bits(&pairs, std);
        for (delta, all) in [(0.5, true), (GAUSSIAN_DELTA, false)] {
            let mut out = vec![f32::NAN; 2 * pairs.len()];
            let fallbacks = gaussian_pairs(&pairs, std, &mut out, delta);
            if all {
                assert_eq!(fallbacks, pairs.len(), "δ = {delta} certifies nothing");
            }
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert!(got == want, "δ = {delta}: bits differ");
        }
    }
}
