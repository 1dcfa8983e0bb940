//! Determinism of the pool-backed GEMM engine: all six kernels must return
//! **bit-identical** results for every task split — serial, 2-way, the full
//! pool size, and an oversubscribed split larger than the pool — including
//! ragged shapes whose row count does not divide evenly (leaving some
//! workers idle or short). The split is forced with
//! [`snip_tensor::pool::with_threads`], which is exactly what `SNIP_THREADS`
//! pins at pool init, but scoped per test case.
//!
//! The banded elementwise ops (`Tensor::map`, `zip`, `add_assign`) are held
//! to the same rule at lengths around their size floor
//! ([`snip_tensor::PARALLEL_ELEMENTS`]) and around the split count.
//!
//! The packed kernels are additionally checked against the dense kernels
//! over dequantized operands at every split (the 0-ULP identity must not
//! depend on chunk boundaries), and every `nt` / `tn` kernel against
//! `matmul` over the explicitly transposed operand — the one check that is
//! independent of the transpose the dense and packed paths share.
//!
//! The Gaussian fill (`Rng::fill_gaussian`, whose certified transform runs
//! through the kernel table) must equal the per-element `next_gaussian`
//! loop — every output bit and the generator state it leaves — at every
//! split, around its draw-block size, with a Box–Muller spare pending or
//! not, and at a million outputs on every forced tier.
//!
//! The rounded operand (`QOperandRef::Bf16Rounded`) is held to the same
//! construction: on either side of every kernel it must equal the GEMM over
//! `Dense` of a rounded copy, at every split and on the forced scalar tier,
//! over inputs that carry rounding ties, subnormals, ±Inf and NaN.

use proptest::prelude::*;
use snip_tensor::rng::{Rng, GAUSSIAN_BLOCK_PAIRS};
use snip_tensor::{
    gemm, gemm_into, matmul, pool, simd, CodeWidth, GroupLayout, Orientation, QOperandRef, QTensor,
    Round, Tensor, PARALLEL_ELEMENTS,
};

/// A 4-bit sign-magnitude test codebook over {0, 0.5, …, 3.5}.
fn test_lut_u4() -> Vec<f32> {
    let mut lut = vec![0.0f32; 16];
    for i in 0..8 {
        lut[i] = i as f32 * 0.5;
        lut[8 + i] = -(i as f32 * 0.5);
    }
    lut
}

/// An 8-bit test codebook: 256 distinct values, none of them a grid a
/// 4-bit table could reach.
fn test_lut_u8() -> Vec<f32> {
    (0..256)
        .map(|i| (i as f32 - 128.0) * 0.03125 + (i as f32 * 0.7).sin() * 0.001)
        .collect()
}

/// A random FP4-shaped (`U4`) or FP8-shaped (`U8`) packed tensor.
fn random_qtensor(rows: usize, cols: usize, width: CodeWidth, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from(seed);
    let layout = GroupLayout::Tile { nb: 5 };
    let groups = layout.group_count(rows, cols);
    let scales: Vec<f32> = (0..groups).map(|_| 0.25 + rng.next_f32()).collect();
    let (lut, codes) = match width {
        CodeWidth::U4 => (test_lut_u4(), 16),
        CodeWidth::U8 => (test_lut_u8(), 256),
    };
    let mut q = QTensor::new_zeroed(rows, cols, width, lut, layout, scales);
    for r in 0..rows {
        for c in 0..cols {
            q.set_code(r, c, (rng.next_u64() % codes) as u8);
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
    use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
    let mut rng = Rng::seed_from(seed);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let bt = Tensor::randn(n, k, 1.0, &mut rng);
    let at = Tensor::randn(k, m, 1.0, &mut rng);
    let qa = random_qtensor(m, k, CodeWidth::U4, seed ^ 1);
    let qb = random_qtensor(k, n, CodeWidth::U4, seed ^ 2);
    let qbt = random_qtensor(n, k, CodeWidth::U4, seed ^ 3);
    let qat = random_qtensor(k, m, CodeWidth::U4, seed ^ 4);
    let qb8 = random_qtensor(k, n, CodeWidth::U8, seed ^ 5);
    let qbt8 = random_qtensor(n, k, CodeWidth::U8, seed ^ 6);
    let (da, db, dbt, dat, db8, dbt8) = (
        qa.dequantize(),
        qb.dequantize(),
        qbt.dequantize(),
        qat.dequantize(),
        qb8.dequantize(),
        qbt8.dequantize(),
    );
    let (q, d) = (QOperandRef::from, QOperandRef::from);
    let kernels = || {
        [
            ("matmul", matmul::matmul(&a, &b)),
            ("matmul_nt", matmul::matmul_nt(&a, &bt)),
            ("matmul_tn", matmul::matmul_tn(&at, &b)),
            ("qgemm", qgemm(q(&qa), q(&qb))),
            ("qgemm_nt", qgemm_nt(q(&qa), q(&qbt))),
            ("qgemm_tn", qgemm_tn(q(&qat), q(&qb))),
            ("qgemm_nt fp8 B", qgemm_nt(q(&qa), q(&qbt8))),
            ("qgemm_tn fp8 B", qgemm_tn(q(&qat), q(&qb8))),
            ("qgemm_nt dense A", qgemm_nt(d(&a), q(&qbt8))),
        ]
    };

    // Serial results are the reference for every split.
    let reference = pool::with_threads(1, kernels);

    // The packed kernels must bit-match the dense kernels over the
    // dequantized operands, independent of split.
    assert_bits_eq(&reference[3].1, &matmul::matmul(&da, &db), "qgemm vs dense");
    assert_bits_eq(
        &reference[4].1,
        &matmul::matmul_nt(&da, &dbt),
        "qgemm_nt vs dense",
    );
    assert_bits_eq(
        &reference[5].1,
        &matmul::matmul_tn(&dat, &db),
        "qgemm_tn vs dense",
    );

    // Every orientation is `nn` over the explicitly transposed operand, bit
    // for bit: the transposed sides feed the tile kernel the same values in
    // the same `k` order. Dense and packed share the transpose, so only
    // this comparison against `matmul` can catch a wrong one.
    let shape = format!("{m}x{k}x{n}");
    let (btt, att) = (bt.transposed(), at.transposed());
    let (dbtt, datt, dbt8t) = (dbt.transposed(), dat.transposed(), dbt8.transposed());
    for (i, lhs, rhs) in [
        (1, &a, &btt),
        (2, &att, &b),
        (4, &da, &dbtt),
        (5, &datt, &db),
        (6, &da, &dbt8t),
        (7, &datt, &db8),
        (8, &a, &dbt8t),
    ] {
        let (name, got) = &reference[i];
        let what = format!("{name} vs matmul over the transposed operand, {shape}");
        assert_bits_eq(got, &matmul::matmul(lhs, rhs), &what);
    }

    for split in splits() {
        let got = pool::with_threads(split, kernels);
        let what = format!("split {split} of {shape}");
        for ((name, got), (_, want)) in got.iter().zip(&reference) {
            assert_bits_eq(got, want, &format!("{name}, {what}"));
        }
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

/// A Gaussian tensor salted with the values BF16 rounding treats
/// specially: ties to even in both directions, subnormals (ones that round
/// to zero and ones that carry into the normal range), the largest finite
/// f32 (rounds to infinity), ±Inf and NaNs with payloads. Non-finite values
/// are rarer, so most outputs stay finite.
fn bf16_edge_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    const FINITE: [u32; 6] = [
        0x3F80_8000, // 1 + 2^-8: a tie, stays at 1.0 (even)
        0xBF81_8000, // a negative tie that rounds away to even
        0x0000_8001, // a subnormal that rounds up
        0x0000_7FFF, // a subnormal that rounds to +0
        0x807F_FFFF, // the largest negative subnormal, carries into the normal range
        0x7F7F_FFFF, // f32::MAX, rounds to +Inf
    ];
    const NON_FINITE: [u32; 4] = [0x7F80_0000, 0xFF80_0000, 0x7FC0_0000, 0xFF81_2345];
    let mut rng = Rng::seed_from(seed);
    let mut t = Tensor::randn(rows, cols, 1.0, &mut rng);
    for v in t.as_mut_slice() {
        let draw = rng.next_u64();
        *v = match draw % 64 {
            0..=5 => f32::from_bits(FINITE[(draw >> 8) as usize % FINITE.len()]),
            6 => f32::from_bits(NON_FINITE[(draw >> 8) as usize % NON_FINITE.len()]),
            _ => *v,
        };
    }
    t
}

/// Every kernel, plain and BF16-rounding, with `Bf16Rounded` on the A side, on
/// the B side and on both, against the same kernel over `Dense` of
/// `bf16::round_slice`d copies at the same split — every split, and the
/// scalar tier forced. The reference runs at the same split and tier
/// because where NaNs of different payloads meet, which payload an FMA
/// propagates depends on the instruction; every other bit is also pinned
/// across splits by the kernel checks above.
fn check_rounded_operand(m: usize, k: usize, n: usize, seed: u64) {
    use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
    type Kernel = fn(QOperandRef<'_>, QOperandRef<'_>) -> Tensor;
    let rounded_copy = |t: &Tensor| {
        let mut c = t.clone();
        snip_tensor::bf16::round_slice(c.as_mut_slice());
        c
    };
    let a = bf16_edge_tensor(m, k, seed ^ 1);
    let at = bf16_edge_tensor(k, m, seed ^ 2);
    let b = bf16_edge_tensor(k, n, seed ^ 3);
    let bt = bf16_edge_tensor(n, k, seed ^ 4);
    // (name, kernel, A, B) in each kernel's orientation.
    let cases: [(&str, Kernel, &Tensor, &Tensor); 6] = [
        ("qgemm", qgemm, &a, &b),
        (
            "gemm nn bf16",
            |a, b| gemm(a, b, Orientation::Nn, Round::Bf16),
            &a,
            &b,
        ),
        ("qgemm_nt", qgemm_nt, &a, &bt),
        (
            "gemm nt bf16",
            |a, b| gemm(a, b, Orientation::Nt, Round::Bf16),
            &a,
            &bt,
        ),
        ("qgemm_tn", qgemm_tn, &at, &b),
        (
            "gemm tn bf16",
            |a, b| gemm(a, b, Orientation::Tn, Round::Bf16),
            &at,
            &b,
        ),
    ];
    let shape = format!("{m}x{k}x{n}");
    for (name, kernel, lhs, rhs) in cases {
        let (rl, rr) = (rounded_copy(lhs), rounded_copy(rhs));
        let (dense, rounded) = (QOperandRef::Dense, QOperandRef::Bf16Rounded);
        for (side, got_of, want_of) in [
            ("A", [rounded(lhs), dense(rhs)], [dense(&rl), dense(rhs)]),
            ("B", [dense(lhs), rounded(rhs)], [dense(lhs), dense(&rr)]),
            (
                "A and B",
                [rounded(lhs), rounded(rhs)],
                [dense(&rl), dense(&rr)],
            ),
        ] {
            let what = format!("{name}, Bf16Rounded {side}, {shape}");
            let run =
                |split| [got_of, want_of].map(|[l, r]| pool::with_threads(split, || kernel(l, r)));
            for split in splits() {
                let [got, want] = run(split);
                assert_bits_eq(&got, &want, &format!("{what}, split {split}"));
            }
            let [got, want] =
                snip_tensor::simd::with_forced_backend(snip_tensor::simd::Backend::Scalar, || {
                    run(2)
                });
            assert_bits_eq(&got, &want, &format!("{what}, forced scalar"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `m` and `n` reach past one `MC`/`NC` block, so the shared B-tile
    /// cache and its per-tile parallel build are exercised as well as the
    /// per-sweep scratch tiles.
    #[test]
    fn the_rounded_operand_equals_the_dense_gemm_over_a_rounded_copy(
        m in 1usize..140,
        k in 1usize..48,
        n in 1usize..140,
        seed in 0u64..1_000_000,
    ) {
        check_rounded_operand(m, k, n, seed);
    }
}

/// [`bf16_edge_tensor`] with −0 mixed in as well.
fn special_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = bf16_edge_tensor(rows, cols, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if (i as u64 ^ seed).is_multiple_of(13) {
            *v = -0.0;
        }
    }
    t
}

/// The engine contract computed directly, over dense `m×k` and `k×n`
/// values: each element starts at +0 and takes one `mul_add` per `k` step,
/// ascending — what every kernel stored when its output was zero-filled
/// and accumulated into — then BF16 rounding for the `Round::Bf16` kernels.
fn reference_product(a: &Tensor, b: &Tensor, round: Round) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    Tensor::from_fn(m, n, |i, j| {
        let acc = (0..k).fold(0.0f32, |acc, kk| a[(i, kk)].mul_add(b[(kk, j)], acc));
        match round {
            Round::Keep => acc,
            Round::Bf16 => snip_tensor::bf16::round(acc),
        }
    })
}

/// Bit equality where NaN payloads are exempt (which input NaN an FMA
/// propagates depends on the instruction); −0 against +0 is a mismatch.
fn assert_bits_eq_nan(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{what}: element {i}: {a:e} vs {b:e}"
        );
    }
}

/// Every kernel stores its output instead of adding into it. The
/// returning kernels (`matmul*`, `qgemm*`) give the bits the contract
/// gives from a zeroed output ([`reference_product`]), for each
/// orientation and rounding over dense, `Bf16Rounded` and packed operands.
/// [`gemm_into`], writing into a NaN-poisoned destination at every split
/// and on the forced scalar tier, gives `0 + C` of those bits — what a
/// zeroed gradient accumulating a returned `dW` held. The two differ only
/// where a negative sum too small for f32 (or for BF16) came out as −0,
/// which `0 + C` turns into +0; the special-valued inputs reach that.
/// `k` is 0, 1 and ragged.
fn check_stores_into_poison(m: usize, k: usize, n: usize, seed: u64) {
    use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
    type Kernel = fn(QOperandRef<'_>, QOperandRef<'_>) -> Tensor;
    let kernels: [(Orientation, Round, Kernel); 6] = [
        (Orientation::Nn, Round::Keep, qgemm),
        (Orientation::Nn, Round::Bf16, |a, b| {
            gemm(a, b, Orientation::Nn, Round::Bf16)
        }),
        (Orientation::Nt, Round::Keep, qgemm_nt),
        (Orientation::Nt, Round::Bf16, |a, b| {
            gemm(a, b, Orientation::Nt, Round::Bf16)
        }),
        (Orientation::Tn, Round::Keep, qgemm_tn),
        (Orientation::Tn, Round::Bf16, |a, b| {
            gemm(a, b, Orientation::Tn, Round::Bf16)
        }),
    ];
    let rounded_copy = |t: &Tensor| {
        let mut c = t.clone();
        snip_tensor::bf16::round_slice(c.as_mut_slice());
        c
    };
    for (orientation, round, kernel) in kernels {
        // Operand shapes in this orientation, and the `nn` view of each.
        let (ashape, bshape) = match orientation {
            Orientation::Nn => ((m, k), (k, n)),
            Orientation::Nt => ((m, k), (n, k)),
            Orientation::Tn => ((k, m), (k, n)),
        };
        let nn_a = |t: Tensor| match orientation {
            Orientation::Tn => t.transposed(),
            _ => t,
        };
        let nn_b = |t: Tensor| match orientation {
            Orientation::Nt => t.transposed(),
            _ => t,
        };
        let a = special_tensor(ashape.0, ashape.1, seed ^ 1);
        let b = special_tensor(bshape.0, bshape.1, seed ^ 2);
        let qa = random_qtensor(ashape.0, ashape.1, CodeWidth::U4, seed ^ 3);
        let qb = random_qtensor(bshape.0, bshape.1, CodeWidth::U8, seed ^ 4);
        // (label, A, B, their decoded values).
        let cases = [
            (
                "dense",
                QOperandRef::Dense(&a),
                QOperandRef::Dense(&b),
                a.clone(),
                b.clone(),
            ),
            (
                "rounded A, packed B",
                QOperandRef::Bf16Rounded(&a),
                QOperandRef::Packed(&qb),
                rounded_copy(&a),
                qb.dequantize(),
            ),
            (
                "packed A, rounded B",
                QOperandRef::Packed(&qa),
                QOperandRef::Bf16Rounded(&b),
                qa.dequantize(),
                rounded_copy(&b),
            ),
        ];
        for (label, lhs, rhs, da, db) in cases {
            let what = format!("{orientation:?} {round:?} {label}, {m}x{k}x{n}");
            let want = reference_product(&nn_a(da), &nn_b(db), round);
            let mut want_written = Tensor::zeros(m, n);
            want_written.add_assign(&want);
            let write = || {
                let mut c = Tensor::full(m, n, f32::NAN);
                gemm_into(&mut c, lhs, rhs, orientation, round);
                c
            };
            for split in splits() {
                let got = pool::with_threads(split, write);
                assert_bits_eq_nan(&got, &want_written, &format!("{what}, split {split}"));
            }
            let got =
                snip_tensor::simd::with_forced_backend(snip_tensor::simd::Backend::Scalar, || {
                    pool::with_threads(2, write)
                });
            assert_bits_eq_nan(&got, &want_written, &format!("{what}, forced scalar"));

            let returned = kernel(lhs, rhs);
            assert_bits_eq_nan(&returned, &want, &format!("{what}, returned"));
            if label == "dense" && round == Round::Keep {
                let dense = match orientation {
                    Orientation::Nn => matmul::matmul,
                    Orientation::Nt => matmul::matmul_nt,
                    Orientation::Tn => matmul::matmul_tn,
                };
                assert_bits_eq_nan(&dense(&a, &b), &want, &format!("{what}, dense kernel"));
            }
            let mut accumulated = Tensor::zeros(m, n);
            accumulated.add_assign(&returned);
            assert_bits_eq_nan(&write(), &accumulated, &format!("{what}, write vs 0 + C"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `m` and `n` reach past one `MC`/`NC` block, so both the shared
    /// B-tile cache (row bands and transposed tiles) and the per-sweep
    /// scratch tiles write the output.
    #[test]
    fn every_kernel_stores_its_output_over_a_poisoned_destination(
        m in 1usize..100,
        k in 2usize..40,
        n in 1usize..100,
        seed in 0u64..1_000_000,
    ) {
        for k in [0, 1, k] {
            check_stores_into_poison(m, k, n, seed);
        }
    }
}

/// The returning kernels take their output from the arena without
/// clearing it: with NaN-filled buffers of exactly the output's length
/// (large enough to be kept) waiting there, every kernel still returns the
/// bits of a fresh output.
#[test]
fn returned_outputs_from_nan_filled_arena_buffers_are_fresh() {
    use snip_tensor::arena;
    let (m, k, n) = (131, 37, 263);
    assert!(m * n >= arena::FLOOR);
    let a = special_tensor(m, k, 1);
    let at = special_tensor(k, m, 2);
    let b = special_tensor(k, n, 3);
    let bt = special_tensor(n, k, 4);
    let (d, r) = (QOperandRef::Dense, QOperandRef::Bf16Rounded);
    let run = || {
        [
            matmul::matmul(&a, &b),
            matmul::matmul_nt(&a, &bt),
            matmul::matmul_tn(&at, &b),
            gemm(d(&a), r(&b), Orientation::Nn, Round::Bf16),
            gemm(r(&a), d(&bt), Orientation::Nt, Round::Bf16),
            gemm(d(&at), r(&b), Orientation::Tn, Round::Bf16),
        ]
    };
    let fresh = run();
    let _step = arena::scope();
    for _ in 0..fresh.len() {
        arena::give(vec![f32::NAN; m * n]);
    }
    for (i, (got, want)) in run().iter().zip(&fresh).enumerate() {
        assert_bits_eq_nan(got, want, &format!("kernel {i}"));
    }
}

/// `map`, `zip` and `add_assign` on a `1 × len` tensor at every split
/// (and unforced, where the size floor decides) against one plain serial
/// loop per op.
fn check_elementwise(len: usize, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let a = Tensor::randn(1, len, 2.0, &mut rng);
    let b = Tensor::randn(1, len, 2.0, &mut rng);
    let silu = |x: f32| x / (1.0 + (-x).exp());
    let glu = |g: f32, u: f32| silu(g) * u - g;
    let (xs, ys) = (a.as_slice(), b.as_slice());
    let want_map = Tensor::from_vec(1, len, xs.iter().map(|&x| silu(x)).collect());
    let want_zip = Tensor::from_vec(
        1,
        len,
        xs.iter().zip(ys).map(|(&g, &u)| glu(g, u)).collect(),
    );
    let want_sum = Tensor::from_vec(1, len, xs.iter().zip(ys).map(|(&x, &y)| x + y).collect());
    let ops = || {
        let mut sum = a.clone();
        sum.add_assign(&b);
        [a.map(silu), a.zip(&b, glu), sum]
    };
    let unforced = ops();
    let forced = splits()
        .into_iter()
        .map(|split| (split, pool::with_threads(split, ops)));
    for (split, got) in std::iter::once((0, unforced)).chain(forced) {
        for (name, got, want) in [
            ("map", &got[0], &want_map),
            ("zip", &got[1], &want_zip),
            ("add_assign", &got[2], &want_sum),
        ] {
            assert_bits_eq(got, want, &format!("{name}, len {len}, split {split}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lengths just around the split count (more tasks than elements, one
    /// element per band, ragged last bands) and just around the size floor.
    #[test]
    fn elementwise_ops_are_bit_identical_at_every_split(
        near_floor in 0usize..2,
        delta in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let len = if near_floor == 1 {
            PARALLEL_ELEMENTS - 6 + delta
        } else {
            delta
        };
        check_elementwise(len, seed);
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

/// The orientation identities at every transpose band and block edge: `n`
/// and `k` straddle the 8-row band and the 64-wide `NC` tile, and `m` takes
/// both B-tile paths — per-sweep scratch builds at one split (`m ≤ 64`) and
/// the shared per-GEMM cache (`m > 64`).
#[test]
fn orientations_match_nn_at_transpose_edges() {
    const EDGES: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 130];
    for m in [9, 67] {
        for k in EDGES {
            for n in EDGES {
                check_all_kernels(m, k, n, 0x7A5E ^ ((m * 1_000_000 + k * 1000 + n) as u64));
            }
        }
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

/// `Rng::fill_gaussian` is one `(next_gaussian() as f32) * std` per
/// element: output bits and the final `Rng::state()` (the xoshiro words and
/// the pending spare) at lengths 0–3 and at one draw block −1, 0 and +1
/// pairs, odd and even, starting with a spare pending and without, on the
/// unforced split and at 1, 2 and pool size + 3.
#[test]
fn gaussian_fill_equals_the_per_element_draws() {
    let mut lens: Vec<usize> = (0..4).collect();
    for pairs in [
        GAUSSIAN_BLOCK_PAIRS - 1,
        GAUSSIAN_BLOCK_PAIRS,
        GAUSSIAN_BLOCK_PAIRS + 1,
    ] {
        lens.extend([2 * pairs, 2 * pairs + 1]);
    }
    let std = 0.7f32;
    for len in lens {
        for spare in [false, true] {
            let mut start = Rng::seed_from(0x6A55 ^ len as u64);
            if spare {
                start.next_gaussian();
            }
            assert_eq!(start.state().1.is_some(), spare);
            let mut want_rng = start.clone();
            let want: Vec<u32> = (0..len)
                .map(|_| ((want_rng.next_gaussian() as f32) * std).to_bits())
                .collect();
            for split in [None, Some(1), Some(2), Some(pool::size() + 3)] {
                let mut rng = start.clone();
                let mut got = vec![f32::NAN; len];
                let mut fill = || rng.fill_gaussian(&mut got, std);
                match split {
                    None => fill(),
                    Some(n) => pool::with_threads(n, fill),
                }
                let what = format!("len {len}, spare {spare}, split {split:?}");
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "{what}: output bits differ");
                assert_eq!(rng.state(), want_rng.state(), "{what}: state");
            }
        }
    }
}

/// At a million outputs (about one fallback to libm expected per seed) on
/// three seeds, the fill equals the per-element draws on every forced
/// tier: output bits, the final state, and a fallback rate within the
/// `BENCH_gemm.json` `--check` ceiling of 10⁻⁵ per pair — a fast path that
/// fell back on every pair would still match the bits, and fail here.
#[test]
fn gaussian_fill_equals_the_draws_at_a_million_outputs_on_every_tier() {
    let len = (1 << 20) + 1;
    let std = 0.02f32;
    for seed in [1u64, 0x5EED, u64::MAX] {
        let start = Rng::seed_from(seed);
        let mut want_rng = start.clone();
        let want: Vec<u32> = (0..len)
            .map(|_| ((want_rng.next_gaussian() as f32) * std).to_bits())
            .collect();
        for tier in simd::available_backends() {
            let mut rng = start.clone();
            let mut got = vec![f32::NAN; len];
            let counters = ["rng.gaussian.pairs", "rng.gaussian.fallbacks"];
            let before = counters.map(snip_obs::counter_value);
            {
                let _collect = snip_obs::enabled_scope(true);
                simd::with_forced_backend(tier, || rng.fill_gaussian(&mut got, std));
            }
            let [pairs, fallbacks] =
                std::array::from_fn(|i| snip_obs::counter_value(counters[i]) - before[i]);
            let what = format!("seed {seed:#x}, {}", tier.name());
            assert!(
                got.iter().map(|v| v.to_bits()).eq(want.iter().copied()),
                "{what}: bits"
            );
            assert_eq!(rng.state(), want_rng.state(), "{what}: state");
            // Other tests' fills may count while collection is on: a rate,
            // not an exact count.
            assert!(pairs >= len as u64 / 2, "{what}: {pairs} pairs counted");
            assert!(
                fallbacks as f64 <= 1e-5 * pairs as f64,
                "{what}: {fallbacks} of {pairs} pairs fell back"
            );
        }
    }
}
