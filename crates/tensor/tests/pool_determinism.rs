//! Determinism of the pool-backed GEMM engine: all six kernels must return
//! **bit-identical** results for every task split — serial, 2-way, the full
//! pool size, and an oversubscribed split larger than the pool — including
//! ragged shapes whose row count does not divide evenly (leaving some
//! workers idle or short). The split is forced with
//! [`snip_tensor::pool::with_threads`], which is exactly what `SNIP_THREADS`
//! pins at pool init, but scoped per test case.
//!
//! The packed kernels are additionally checked against the dense kernels
//! over dequantized operands at every split (the 0-ULP identity must not
//! depend on chunk boundaries).

use proptest::prelude::*;
use snip_tensor::rng::Rng;
use snip_tensor::{matmul, pool, CodeWidth, GroupLayout, QOperandRef, QTensor, Tensor};

/// A 4-bit sign-magnitude test codebook over {0, 0.5, …, 3.5}.
fn test_lut_u4() -> Vec<f32> {
    let mut lut = vec![0.0f32; 16];
    for i in 0..8 {
        lut[i] = i as f32 * 0.5;
        lut[8 + i] = -(i as f32 * 0.5);
    }
    lut
}

fn random_qtensor(rows: usize, cols: usize, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from(seed);
    let layout = GroupLayout::Tile { nb: 5 };
    let groups = layout.group_count(rows, cols);
    let scales: Vec<f32> = (0..groups).map(|_| 0.25 + rng.next_f32()).collect();
    let mut q = QTensor::new_zeroed(rows, cols, CodeWidth::U4, test_lut_u4(), layout, scales);
    for r in 0..rows {
        for c in 0..cols {
            q.set_code(r, c, (rng.next_u64() % 16) as u8);
        }
    }
    q
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// The splits every kernel is checked at: serial, two-way, the pool size,
/// and more tasks than the pool has workers.
fn splits() -> Vec<usize> {
    let max = pool::size();
    vec![1, 2, max, max + 3]
}

fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let bt = Tensor::randn(n, k, 1.0, &mut rng);
    let at = Tensor::randn(k, m, 1.0, &mut rng);
    let qa = random_qtensor(m, k, seed ^ 1);
    let qb = random_qtensor(k, n, seed ^ 2);
    let qbt = random_qtensor(n, k, seed ^ 3);
    let qat = random_qtensor(k, m, seed ^ 4);
    let (da, db, dbt, dat) = (
        qa.dequantize(),
        qb.dequantize(),
        qbt.dequantize(),
        qat.dequantize(),
    );

    // Serial results are the reference for every split.
    let reference = pool::with_threads(1, || {
        (
            matmul::matmul(&a, &b),
            matmul::matmul_nt(&a, &bt),
            matmul::matmul_tn(&at, &b),
            snip_tensor::packed::qgemm(QOperandRef::from(&qa), QOperandRef::from(&qb)),
            snip_tensor::packed::qgemm_nt(QOperandRef::from(&qa), QOperandRef::from(&qbt)),
            snip_tensor::packed::qgemm_tn(QOperandRef::from(&qat), QOperandRef::from(&qb)),
        )
    });

    // The packed kernels must bit-match the dense kernels over the
    // dequantized operands, independent of split.
    assert_bits_eq(&reference.3, &matmul::matmul(&da, &db), "qgemm vs dense");
    assert_bits_eq(
        &reference.4,
        &matmul::matmul_nt(&da, &dbt),
        "qgemm_nt vs dense",
    );
    assert_bits_eq(
        &reference.5,
        &matmul::matmul_tn(&dat, &db),
        "qgemm_tn vs dense",
    );

    for split in splits() {
        let got = pool::with_threads(split, || {
            (
                matmul::matmul(&a, &b),
                matmul::matmul_nt(&a, &bt),
                matmul::matmul_tn(&at, &b),
                snip_tensor::packed::qgemm(QOperandRef::from(&qa), QOperandRef::from(&qb)),
                snip_tensor::packed::qgemm_nt(QOperandRef::from(&qa), QOperandRef::from(&qbt)),
                snip_tensor::packed::qgemm_tn(QOperandRef::from(&qat), QOperandRef::from(&qb)),
            )
        });
        let what = format!("split {split} of {m}x{k}x{n}");
        assert_bits_eq(&got.0, &reference.0, &format!("matmul, {what}"));
        assert_bits_eq(&got.1, &reference.1, &format!("matmul_nt, {what}"));
        assert_bits_eq(&got.2, &reference.2, &format!("matmul_tn, {what}"));
        assert_bits_eq(&got.3, &reference.3, &format!("qgemm, {what}"));
        assert_bits_eq(&got.4, &reference.4, &format!("qgemm_nt, {what}"));
        assert_bits_eq(&got.5, &reference.5, &format!("qgemm_tn, {what}"));

        // Parallel dequantize must also be split-invariant.
        let dq = pool::with_threads(split, || qa.dequantize());
        assert_bits_eq(&dq, &da, &format!("dequantize, {what}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kernels_are_bit_identical_at_every_split(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        check_all_kernels(m, k, n, seed);
    }
}

/// Deliberately ragged fixed shapes: fewer rows than tasks (idle workers),
/// one row, prime sizes straddling block boundaries, and a shape large
/// enough to span several `MC`/`NC` blocks per chunk.
#[test]
fn ragged_and_blocky_shapes_are_split_invariant() {
    for &(m, k, n) in &[
        (1, 7, 9),
        (2, 1, 1),
        (3, 17, 130),
        (5, 40, 3),
        (67, 33, 129),
        (130, 96, 67),
    ] {
        check_all_kernels(m, k, n, 0xC0FFEE ^ ((m * 1000 + k * 10 + n) as u64));
    }
}

/// The full split-invariance suite must also hold with every backend tier
/// pinned — determinism may not depend on which microkernel runs. The
/// forced backend propagates through `pool::run` to the workers serving
/// the region, so each leg here really does run its tier on every thread
/// of every split (pinned separately below).
#[test]
fn forced_backend_kernels_are_split_invariant() {
    for bk in snip_tensor::simd::available_backends() {
        snip_tensor::simd::with_forced_backend(bk, || {
            for &(m, k, n) in &[(3, 17, 130), (67, 33, 129)] {
                check_all_kernels(m, k, n, 0x5CA1A2 ^ ((m * 1000 + k * 10 + n) as u64));
            }
        });
    }
}

/// The forced backend must reach pool workers: a parallel region dispatched
/// under `with_forced_backend` runs that tier on whichever thread claims
/// each task. Observed directly via `simd::backend_kind` equality inside
/// the tasks would need crate internals, so this pins the observable
/// contract instead: a forced-scalar parallel GEMM equals the serial
/// forced-scalar GEMM bit-for-bit *and* the forced-backend results equal
/// each other across splits (already 0-ULP by the kernel contract — this
/// test exists to exercise the propagation machinery itself on a
/// many-task split).
#[test]
fn forced_backend_propagates_to_pool_workers() {
    let mut rng = Rng::seed_from(0xF0);
    let a = Tensor::randn(40, 24, 1.0, &mut rng);
    let b = Tensor::randn(24, 33, 1.0, &mut rng);
    for bk in snip_tensor::simd::available_backends() {
        let serial = snip_tensor::simd::with_forced_backend(bk, || {
            pool::with_threads(1, || matmul::matmul(&a, &b))
        });
        let parallel = snip_tensor::simd::with_forced_backend(bk, || {
            pool::with_threads(pool::size() + 3, || matmul::matmul(&a, &b))
        });
        assert_bits_eq(
            &parallel,
            &serial,
            &format!("forced {} across pool workers", bk.name()),
        );
    }
}

/// `SNIP_THREADS`-style splits wider than the row count collapse to
/// one-row chunks without panicking or changing results.
#[test]
fn oversubscribed_split_handles_tiny_problems() {
    let mut rng = Rng::seed_from(9);
    let a = Tensor::randn(2, 3, 1.0, &mut rng);
    let b = Tensor::randn(3, 2, 1.0, &mut rng);
    let want = pool::with_threads(1, || matmul::matmul(&a, &b));
    let got = pool::with_threads(64, || matmul::matmul(&a, &b));
    assert_bits_eq(&got, &want, "64-way split of 2x3x2");
}
