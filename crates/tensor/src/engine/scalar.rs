//! The portable scalar tile kernel — always compiled, always the
//! reference the SIMD backends are property-tested against.
//!
//! Per output element the arithmetic is exactly the engine contract: start
//! the accumulator at +0, fold in `a[kk] · b[kk]` terms one at a time with
//! `kk` ascending — each one fused multiply-add, `f32::mul_add`, rounded
//! once — and store. The accumulators live in the output rows themselves,
//! which the kernel zeroes before its `k` loop; it never reads what the
//! caller left there. The register blocking below (two output rows per
//! pass, `k` in quads) only changes *which* elements are in flight
//! together, never the order of the steps within one element.
//!
//! One body, two instantiations. Compiled for baseline x86-64,
//! `f32::mul_add` is a libm `fmaf` call per element; [`tile_kernel_fma`]
//! is the same body under `#[target_feature(enable = "fma")]`, where it
//! lowers to `vfmadd` and vectorises. IEEE fusedMultiplyAdd has one
//! correctly rounded answer, so the two agree bit for bit (unit-tested
//! below); the kernel table picks the `fma` one whenever the CPU reports
//! the flag. On a CPU without it every tier is scalar and each element
//! pays the libm call — the accepted cost of one accumulate everywhere.

/// `C[row0.., j0..] = Ablock · Btile` — see `engine::tile_kernel` for the
/// argument contract. The baseline instantiation of the kernel body.
#[allow(clippy::too_many_arguments)]
pub(super) fn tile_kernel(
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
    k: usize,
    ablock: &[f32],
    btile: &[f32],
) {
    tile_body(chunk, n, row0, j0, mb, nb, k, ablock, btile)
}

/// [`tile_kernel`] compiled with `fma` enabled, so each `f32::mul_add` is
/// one `vfmadd` instead of a libm call; bit-identical to it.
///
/// # Safety
///
/// The CPU must support `fma`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
pub(super) unsafe fn tile_kernel_fma(
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
    k: usize,
    ablock: &[f32],
    btile: &[f32],
) {
    tile_body(chunk, n, row0, j0, mb, nb, k, ablock, btile)
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_body(
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
    k: usize,
    ablock: &[f32],
    btile: &[f32],
) {
    // Two output rows per pass: the four B-tile rows of each k-quad are
    // loaded once and feed both rows' updates, halving the dominant B-side
    // read traffic. Each row's elements still accumulate independently.
    let mut i = 0;
    while i + 2 <= mb {
        let arow0 = &ablock[i * k..(i + 1) * k];
        let arow1 = &ablock[(i + 1) * k..(i + 2) * k];
        let (head, tail) = chunk.split_at_mut((row0 + i + 1) * n);
        let crow0 = &mut head[(row0 + i) * n + j0..(row0 + i) * n + j0 + nb];
        let crow1 = &mut tail[j0..j0 + nb];
        crow0.fill(0.0);
        crow1.fill(0.0);
        let mut kk = 0;
        while kk + 4 <= k {
            let (a00, a01, a02, a03) = (arow0[kk], arow0[kk + 1], arow0[kk + 2], arow0[kk + 3]);
            let (a10, a11, a12, a13) = (arow1[kk], arow1[kk + 1], arow1[kk + 2], arow1[kk + 3]);
            let b0 = &btile[kk * nb..(kk + 1) * nb];
            let b1 = &btile[(kk + 1) * nb..(kk + 2) * nb];
            let b2 = &btile[(kk + 2) * nb..(kk + 3) * nb];
            let b3 = &btile[(kk + 3) * nb..(kk + 4) * nb];
            for (((((cv0, cv1), &v0), &v1), &v2), &v3) in crow0
                .iter_mut()
                .zip(crow1.iter_mut())
                .zip(b0)
                .zip(b1)
                .zip(b2)
                .zip(b3)
            {
                let mut acc0 = *cv0;
                acc0 = a00.mul_add(v0, acc0);
                acc0 = a01.mul_add(v1, acc0);
                acc0 = a02.mul_add(v2, acc0);
                acc0 = a03.mul_add(v3, acc0);
                *cv0 = acc0;
                let mut acc1 = *cv1;
                acc1 = a10.mul_add(v0, acc1);
                acc1 = a11.mul_add(v1, acc1);
                acc1 = a12.mul_add(v2, acc1);
                acc1 = a13.mul_add(v3, acc1);
                *cv1 = acc1;
            }
            kk += 4;
        }
        while kk < k {
            let a0 = arow0[kk];
            let a1 = arow1[kk];
            let b0 = &btile[kk * nb..(kk + 1) * nb];
            for ((cv0, cv1), &bv) in crow0.iter_mut().zip(crow1.iter_mut()).zip(b0) {
                *cv0 = a0.mul_add(bv, *cv0);
                *cv1 = a1.mul_add(bv, *cv1);
            }
            kk += 1;
        }
        i += 2;
    }
    if i < mb {
        let arow = &ablock[i * k..(i + 1) * k];
        let crow = &mut chunk[(row0 + i) * n + j0..(row0 + i) * n + j0 + nb];
        crow.fill(0.0);
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
            let b0 = &btile[kk * nb..(kk + 1) * nb];
            let b1 = &btile[(kk + 1) * nb..(kk + 2) * nb];
            let b2 = &btile[(kk + 2) * nb..(kk + 3) * nb];
            let b3 = &btile[(kk + 3) * nb..(kk + 4) * nb];
            for ((((cv, &v0), &v1), &v2), &v3) in crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut acc = *cv;
                acc = a0.mul_add(v0, acc);
                acc = a1.mul_add(v1, acc);
                acc = a2.mul_add(v2, acc);
                acc = a3.mul_add(v3, acc);
                *cv = acc;
            }
            kk += 4;
        }
        while kk < k {
            let a0 = arow[kk];
            let b0 = &btile[kk * nb..(kk + 1) * nb];
            for (cv, &bv) in crow.iter_mut().zip(b0) {
                *cv = a0.mul_add(bv, *cv);
            }
            kk += 1;
        }
    }
}

/// Moves the `rows × w` band at `src` (row `r` at `src[r * ld..][..w]`,
/// `rows ≤ TB`) into `dst` transposed, `dst[c * ldd + r]`, each value
/// rounded to BF16 when `round` (`engine::finish`) — the scalar row of the
/// kernel table's `transpose`, and the reference every vector row matches.
///
/// A whole band is read `TB×TB` block by block through `TB` fixed-size row
/// segments and written as `TB` contiguous `TB`-float runs, instead of one
/// element at a destination-row stride (a block staged through a local
/// `[[f32; TB]; TB]` measured slower); a short band and the `w % TB` tail
/// columns take an element-wise loop. It only moves values, so the result
/// cannot depend on the block size.
///
/// # Panics
///
/// Panics if `src` or `dst` is too short for the band.
pub(super) fn transpose(
    round: bool,
    src: &[f32],
    ld: usize,
    rows: usize,
    w: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    // One instantiation per store, so the element loops carry no branch.
    if round {
        transpose_as::<{ super::STORE_BF16 }>(src, ld, rows, w, dst, ldd)
    } else {
        transpose_as::<0>(src, ld, rows, w, dst, ldd)
    }
}

#[inline(always)]
fn transpose_as<const STORE: super::Store>(
    src: &[f32],
    ld: usize,
    rows: usize,
    w: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    const TB: usize = super::TB;
    let mut c = 0;
    if rows == TB {
        while c + TB <= w {
            // Fixed-size row segments: the block below unrolls fully, with
            // no bounds check per element.
            let block: [&[f32; TB]; TB] = std::array::from_fn(|r| {
                let s = r * ld + c;
                src[s..s + TB].try_into().expect("TB floats")
            });
            for i in 0..TB {
                let d = (c + i) * ldd;
                for (slot, seg) in dst[d..d + TB].iter_mut().zip(block) {
                    *slot = super::finish(STORE, seg[i]);
                }
            }
            c += TB;
        }
    }
    for c in c..w {
        for r in 0..rows {
            dst[c * ldd + r] = super::finish(STORE, src[r * ld + c]);
        }
    }
}

/// Copies the `rows × w` band at `src` (row `r` at `src[r * ld..][..w]`)
/// into `dst` row for row, `dst[r * ldd + c]`, each value rounded to BF16
/// when `round` — the scalar row of the kernel table's `copy`.
///
/// # Panics
///
/// Panics if `src` or `dst` is too short for the band.
pub(super) fn copy(
    round: bool,
    src: &[f32],
    ld: usize,
    rows: usize,
    w: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    for r in 0..rows {
        let (s, d) = (&src[r * ld..r * ld + w], &mut dst[r * ldd..r * ldd + w]);
        if round {
            for (slot, &v) in d.iter_mut().zip(s) {
                *slot = crate::bf16::round(v);
            }
        } else {
            d.copy_from_slice(s);
        }
    }
}

/// Finishes the `mb×nb` output tile at (`row0`, `j0`) in place as `store`
/// says (`engine::finish`) — the scalar counterpart of the SIMD kernels'
/// fused store. The tile kernel runs once per output tile with the full
/// `k` extent, so every element is final when this pass runs; finishing
/// after the store is therefore bit-identical to finishing inside it.
pub(super) fn finish_tile(
    store: super::Store,
    chunk: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mb: usize,
    nb: usize,
) {
    if store == 0 {
        return;
    }
    for i in 0..mb {
        let row = &mut chunk[(row0 + i) * n + j0..(row0 + i) * n + j0 + nb];
        for v in row {
            *v = super::finish(store, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic operand stream in `[-2, 6)` with NaN, ±Inf, ±0 and
    /// a tiny value mixed in.
    fn operands(len: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-30];
        let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                if i % 29 == 7 {
                    SPECIAL[(s % SPECIAL.len() as u32) as usize]
                } else {
                    (s >> 8) as f32 / (1u32 << 23) as f32 * 4.0 - 2.0
                }
            })
            .collect()
    }

    /// Every tile element of `chunk` as the contract states it: +0, then one
    /// serial `mul_add` per `kk`, ascending. What the chunk held is ignored.
    fn reference(
        chunk: &mut [f32],
        n: usize,
        mb: usize,
        nb: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) {
        for i in 0..mb {
            for j in 0..nb {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * nb + j], acc);
                }
                chunk[i * n + j] = acc;
            }
        }
    }

    /// NaN payloads are implementation-defined; every other bit is pinned.
    fn same_bits(x: &[f32], y: &[f32]) -> bool {
        x.iter()
            .zip(y)
            .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
    }

    #[test]
    fn both_instantiations_agree_with_the_serial_fused_reference() {
        // Ragged rows (odd `mb` takes the single-row pass), columns and
        // `k` (every residue of the k-quad loop, and no terms at all).
        for (mb, nb, k) in [
            (3, 5, 0),
            (1, 1, 1),
            (2, 3, 4),
            (3, 5, 7),
            (4, 17, 9),
            (5, 64, 6),
            (7, 13, 33),
        ] {
            let n = nb + 2;
            let mut a = operands(mb * k, (mb * 131 + k) as u32);
            let mut b = operands(k * nb, (nb * 71 + k) as u32);
            // What the output held before the call — NaN, ±Inf, −0 — must
            // not reach the result: the kernel stores, it does not add.
            let mut c0 = operands(mb * n, 5);
            for (i, v) in c0.iter_mut().enumerate() {
                match i % 3 {
                    0 => *v = -0.0,
                    1 => *v = f32::NAN,
                    _ => {}
                }
            }
            if k > 0 {
                // `0 × ±Inf` in the first step of element (0, 0), whatever
                // the stream drew there.
                a[0] = 0.0;
                b[0] = if k % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }

            let mut want = c0.clone();
            reference(&mut want, n, mb, nb, k, &a, &b);
            assert_eq!(want[0].is_nan(), k > 0, "0 × ±Inf must poison the element");
            if k == 0 {
                // No terms: +0, never the −0 the chunk held there.
                assert_eq!(want[0].to_bits(), 0);
            }

            let mut got = c0.clone();
            tile_kernel(&mut got, n, 0, 0, mb, nb, k, &a, &b);
            assert!(same_bits(&got, &want), "baseline body at {mb}×{nb}×{k}");

            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("fma") {
                let mut fused = c0.clone();
                // SAFETY: the CPU reports `fma`.
                unsafe { tile_kernel_fma(&mut fused, n, 0, 0, mb, nb, k, &a, &b) };
                assert!(same_bits(&fused, &got), "fma body at {mb}×{nb}×{k}");
            }
        }
    }
}
