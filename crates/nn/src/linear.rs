//! Mixed-precision linear layer (paper Fig. 5).
//!
//! The forward GEMM consumes quantized activations and weights; the two
//! backward GEMMs consume the quantized output gradient together with the
//! quantized weight (for `dX`) or quantized input (for `dW`). GEMM outputs
//! are rounded to BF16, and the FP32 master weight is only touched by the
//! optimizer:
//!
//! ```text
//!  forward:  Y  = Q_x(X) · Q_w(W)ᵀ           (output BF16)
//!  backward: dX = Q_g(dY) · Q_w(W)           (output BF16)
//!            dW = Q_g(dY)ᵀ · Q_x(X)          (output BF16, written FP32)
//! ```
//!
//! `dW` is not a temporary: the weight-gradient GEMM stores it straight
//! into the weight's FP32 gradient ([`Param::grad_to_write`]), which holds
//! nothing else — each weight meets exactly one weight-gradient GEMM per
//! pass, so there is nothing to accumulate and nothing to zero first.
//!
//! The FP32 master weight is never copied for a GEMM. A packable weight
//! precision (FP8/FP4) packs it once per forward into the cache; BF16 — the
//! one non-packable weight precision — and exact mode read the master
//! weight in place, BF16 through the engine's rounded operand
//! ([`QOperandRef::Bf16Rounded`], bit-identical to a GEMM over a rounded
//! copy). A [`LinearCache`] therefore describes its layer's weight *as it
//! was at forward*, and must be consumed before that weight changes (debug
//! builds check a CRC of the weight bits at backward). A training step,
//! SNIP's probe (one forward, several backward passes) and the
//! data-parallel gradient hook all finish their backward passes before the
//! optimizer touches a weight.
//!
//! These three GEMMs — `qgemm_nt_bf16`, `qgemm_bf16`, and the `tn`
//! product written in place through [`gemm_into`] — are the hottest loops
//! of every training step. They dispatch into
//! `snip-tensor`'s pool-backed, cache-blocked GEMM engine with the BF16
//! output rounding fused into the tile store (bit-identical to rounding in
//! a second pass, without touching the output twice): packed operands are
//! decoded block-wise (once per block sweep, through the byte-pair table
//! for FP4), large products are split across the persistent worker pool,
//! and results are bit-identical at every pool size / `SNIP_THREADS` /
//! SIMD-backend setting — so the training trajectory never depends on the
//! machine's parallelism or instruction set.

use crate::param::Param;
use serde::{Deserialize, Serialize};
use snip_quant::{LinearPrecision, Quantizer, TensorRole};
use snip_tensor::{
    gemm_into,
    packed::{qgemm, qgemm_bf16, qgemm_nt, qgemm_nt_bf16},
    rng::Rng,
    Orientation, QOperandRef, QTensor, Round, Tensor,
};

/// A linear layer `y = x · Wᵀ` with per-operand quantization.
///
/// The weight is stored `out_features × in_features`; no bias (Llama-style).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    precision: LinearPrecision,
    quant_group: usize,
    /// When `true`, bypass all quantization and BF16 rounding (exact f32
    /// math). Used by gradient-check tests and as an FP32 reference mode.
    #[serde(default)]
    exact: bool,
}

/// A quantized activation held for the backward pass (the input `X`, and
/// the output gradient inside [`Linear::backward`]): bit-packed when the
/// operand's precision supports it (FP4/FP8 — 8× / 4× smaller than f32),
/// dense only for BF16 emulation and exact mode.
#[derive(Clone, Debug)]
pub enum QCache {
    /// Dense f32 storage (BF16-emulated or exact-mode operands).
    Dense(Tensor),
    /// Bit-packed subbyte storage with per-group scales.
    Packed(QTensor),
}

impl QCache {
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            QCache::Dense(t) => t.shape(),
            QCache::Packed(t) => t.shape(),
        }
    }

    /// Whether the operand is stored bit-packed.
    pub fn is_packed(&self) -> bool {
        matches!(self, QCache::Packed(_))
    }

    /// A GEMM operand view (no decode for dense, on-the-fly decode for
    /// packed).
    pub fn operand(&self) -> QOperandRef<'_> {
        match self {
            QCache::Dense(t) => QOperandRef::Dense(t),
            QCache::Packed(t) => QOperandRef::Packed(t),
        }
    }

    /// The operand itself when it is stored dense — every BF16-emulated
    /// operand is, which is what lets SNIP's probe borrow its statistics
    /// inputs from the forward caches instead of copying them.
    pub fn as_dense(&self) -> Option<&Tensor> {
        match self {
            QCache::Dense(t) => Some(t),
            QCache::Packed(_) => None,
        }
    }

    /// Materializes the operand as a dense tensor — bit-for-bit what the
    /// fake-quantization path would have produced. Probes and statistics
    /// read the cache through this.
    pub fn dequantize(&self) -> Tensor {
        match self {
            QCache::Dense(t) => t.clone(),
            QCache::Packed(t) => t.dequantize(),
        }
    }

    /// Resident bytes of this cached operand: codes, scales and the
    /// container for packed storage ([`QTensor::resident_bytes`]; the
    /// decode table is shared per format and not charged), the raw buffer
    /// and the container for dense.
    pub fn resident_bytes(&self) -> usize {
        match self {
            QCache::Dense(t) => std::mem::size_of::<Tensor>() + t.len() * 4,
            QCache::Packed(t) => t.resident_bytes(),
        }
    }
}

/// How the backward `dX` GEMM reads its layer's weight — recorded by
/// [`Linear::forward`], so a precision change between forward and backward
/// cannot switch the read mid-step.
#[derive(Clone, Debug)]
pub enum WeightCache {
    /// The quantized weight, bit-packed: the packable precisions (FP8/FP4).
    Packed(QTensor),
    /// The master weight, read in place through BF16 rounding
    /// ([`QOperandRef::Bf16Rounded`]): BF16, which rounds to nearest and
    /// draws nothing, so the rounded read equals the fake-quantized copy.
    Bf16Rounded,
    /// The master weight, read in place as is (exact mode).
    Exact,
}

impl WeightCache {
    /// Whether the weight is held bit-packed.
    pub fn is_packed(&self) -> bool {
        matches!(self, WeightCache::Packed(_))
    }

    /// The GEMM operand: the packed codes, or `weight` — the layer's
    /// master weight — read the recorded way.
    fn operand<'a>(&'a self, weight: &'a Tensor) -> QOperandRef<'a> {
        match self {
            WeightCache::Packed(q) => QOperandRef::Packed(q),
            WeightCache::Bf16Rounded => QOperandRef::Bf16Rounded(weight),
            WeightCache::Exact => QOperandRef::Dense(weight),
        }
    }

    /// The packed weight, decoded — bit for bit the fake-quantized weight.
    /// An in-place read holds no values of its own (they are
    /// [`Linear::weight`]'s, read the recorded way), so it yields an empty
    /// `0 × 0` tensor.
    pub fn dequantize(&self) -> Tensor {
        match self {
            WeightCache::Packed(q) => q.dequantize(),
            WeightCache::Bf16Rounded | WeightCache::Exact => Tensor::zeros(0, 0),
        }
    }

    /// Resident bytes: those of the packed weight ([`QTensor::resident_bytes`]),
    /// 0 for an in-place read — it holds no copy.
    pub fn resident_bytes(&self) -> usize {
        match self {
            WeightCache::Packed(q) => q.resident_bytes(),
            WeightCache::Bf16Rounded | WeightCache::Exact => 0,
        }
    }
}

/// What [`Linear::forward`] saves for the backward pass.
///
/// `qx` is the *quantized* input — exactly what the `dW` GEMM consumes,
/// and (during BF16 statistics collection) numerically equal to the BF16
/// activations. `qw` says how the `dX` GEMM reads the weight: packed codes
/// under FP8/FP4, the master weight in place under BF16 and exact mode.
/// Subbyte operands stay bit-packed here, which is where the packed
/// representation pays off: the dominant activation memory of the backward
/// pass shrinks by ~8× under FP4.
///
/// A cache is only valid until its layer's weight changes (see the module
/// docs); debug builds check that at backward.
#[derive(Clone, Debug)]
pub struct LinearCache {
    /// Quantized input activations, `tokens × in_features`.
    pub qx: QCache,
    /// The weight read of the backward `dX` GEMM.
    pub qw: WeightCache,
    /// CRC-32 of the weight bits at forward.
    #[cfg(debug_assertions)]
    weight_crc: u32,
}

impl LinearCache {
    fn new(qx: QCache, qw: WeightCache, _weight: &Tensor) -> Self {
        LinearCache {
            qx,
            qw,
            #[cfg(debug_assertions)]
            weight_crc: weight_crc(_weight),
        }
    }

    /// Total resident bytes of the saved operands.
    pub fn resident_bytes(&self) -> usize {
        self.qx.resident_bytes() + self.qw.resident_bytes()
    }

    /// Debug builds: panics unless `_weight` still has the bits the forward
    /// read.
    fn check_weight(&self, _weight: &Tensor) {
        #[cfg(debug_assertions)]
        assert_eq!(
            weight_crc(_weight),
            self.weight_crc,
            "the layer's weight changed between forward and backward"
        );
    }
}

/// CRC-32 of a weight's element bits.
#[cfg(debug_assertions)]
fn weight_crc(w: &Tensor) -> u32 {
    let bytes: Vec<u8> = w.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    snip_quant::wire::crc32(&bytes)
}

impl Linear {
    /// Creates a linear layer with scaled Gaussian init
    /// (`std = gain / sqrt(in_features)`).
    pub fn new(
        name: impl Into<String>,
        out_features: usize,
        in_features: usize,
        gain: f32,
        quant_group: usize,
        rng: &mut Rng,
    ) -> Self {
        let std = gain / (in_features as f32).sqrt();
        Linear {
            weight: Param::randn(name, out_features, in_features, std, rng),
            precision: LinearPrecision::default(),
            quant_group,
            exact: false,
        }
    }

    /// Enables or disables exact (f32, quantization-free) math.
    pub fn set_exact_mode(&mut self, exact: bool) {
        self.exact = exact;
    }

    /// `(out_features, in_features)`.
    pub fn dims(&self) -> (usize, usize) {
        self.weight.value().shape()
    }

    /// Current precision assignment.
    pub fn precision(&self) -> LinearPrecision {
        self.precision
    }

    /// Reassigns the layer's precision (SNIP Step 6 applies new schemes here).
    pub fn set_precision(&mut self, p: LinearPrecision) {
        self.precision = p;
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter (optimizer use).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    fn quantizer(&self, role: TensorRole) -> Quantizer {
        let p = match role {
            TensorRole::Input => self.precision.input,
            TensorRole::Weight => self.precision.weight,
            TensorRole::OutputGrad => self.precision.grad,
        };
        p.quantizer_with_group(role, self.quant_group)
    }

    /// Quantizes one GEMM operand, bit-packed when the precision allows.
    /// The packed and fake-quantized forms are numerically identical and
    /// consume identical stochastic-rounding draws, so which storage is
    /// chosen never changes the training trajectory.
    fn quantize_cached(&self, role: TensorRole, t: &Tensor, rng: &mut Rng) -> QCache {
        let q = self.quantizer(role);
        match q.quantize_packed(t, rng) {
            Some(packed) => QCache::Packed(packed),
            None => QCache::Dense(q.fake_quantize(t, rng)),
        }
    }

    /// Forward pass: quantizes `x` and `W` (bit-packed for subbyte
    /// precisions; a BF16 weight is read in place through rounding), runs
    /// the quantized GEMM, rounds the output to BF16. Returns the output
    /// and the cache for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features`.
    pub fn forward(&self, x: &Tensor, rng: &mut Rng) -> (Tensor, LinearCache) {
        let w = self.weight.value();
        if self.exact {
            let qx = QCache::Dense(x.clone());
            let y = qgemm_nt(qx.operand(), QOperandRef::Dense(w));
            return (y, LinearCache::new(qx, WeightCache::Exact, w));
        }
        let qx = self.quantize_cached(TensorRole::Input, x, rng);
        let q = self.quantizer(TensorRole::Weight);
        let qw = if q.packable() {
            let packed = q.quantize_packed(w, rng);
            WeightCache::Packed(packed.expect("a layer quantizer packs to plain codes"))
        } else {
            // BF16, the one non-packable weight precision.
            WeightCache::Bf16Rounded
        };
        // The `_bf16` kernel folds the BF16 rounding into the tile store —
        // bit-identical to rounding the plain qgemm output in a second pass.
        let y = qgemm_nt_bf16(qx.operand(), qw.operand(w));
        (y, LinearCache::new(qx, qw, w))
    }

    /// Backward pass: quantizes `dy` once and returns `dX`. `dW` — BF16
    /// rounded, plain in exact mode — is written straight into the weight's
    /// gradient, replacing whatever it held ([`Param::grad_to_write`]):
    /// bit for bit what adding it into a zeroed gradient gave, since
    /// [`gemm_into`] stores `0 + dW`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the cached forward, and in
    /// debug builds if the weight changed since the forward that made
    /// `cache`, or if the gradient was already written since the last
    /// [`crate::model::Model::zero_grads`].
    pub fn backward(&mut self, dy: &Tensor, cache: &LinearCache, rng: &mut Rng) -> Tensor {
        let w = self.weight.value();
        cache.check_weight(w);
        if self.exact {
            let dx = qgemm(QOperandRef::from(dy), cache.qw.operand(w));
            let dw = self.weight.grad_to_write();
            gemm_into(
                dw,
                dy.into(),
                cache.qx.operand(),
                Orientation::Tn,
                Round::Keep,
            );
            return dx;
        }
        let qdy = self.quantize_cached(TensorRole::OutputGrad, dy, rng);
        let dx = qgemm_bf16(qdy.operand(), cache.qw.operand(w));
        let dw = self.weight.grad_to_write();
        gemm_into(
            dw,
            qdy.operand(),
            cache.qx.operand(),
            Orientation::Tn,
            Round::Bf16,
        );
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::Precision;

    fn finite_difference_check(precision: LinearPrecision) {
        // With BF16 ("effectively exact" at these magnitudes) the manual
        // backward must match finite differences of the scalar loss
        // L = sum(Y ⊙ R) for a fixed random R.
        let mut rng = Rng::seed_from(21);
        let mut lin = Linear::new("w", 5, 4, 1.0, 4, &mut rng);
        lin.set_precision(precision);
        let x = Tensor::randn(3, 4, 0.5, &mut rng);
        let r = Tensor::randn(3, 5, 0.5, &mut rng);

        let (y, cache) = lin.forward(&x, &mut rng);
        assert_eq!(y.shape(), (3, 5));
        let dx = lin.backward(&r, &cache, &mut rng);

        // dL/dx[i,j] via central differences
        let loss = |lin: &Linear, x: &Tensor, rng: &mut Rng| -> f64 {
            let (y, _) = lin.forward(x, rng);
            y.mul(&r).sum()
        };
        for &(i, j) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let h = 5e-2f32;
            let mut xp = x.clone();
            xp[(i, j)] += h;
            let mut xm = x.clone();
            xm[(i, j)] -= h;
            let fd = (loss(&lin, &xp, &mut rng) - loss(&lin, &xm, &mut rng)) / (2.0 * h as f64);
            let an = dx[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 1e-1 * (1.0 + an.abs()),
                "dx[{i},{j}]: fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences_bf16() {
        finite_difference_check(LinearPrecision::uniform(Precision::Bf16));
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(22);
        let mut lin = Linear::new("w", 4, 3, 1.0, 4, &mut rng);
        let x = Tensor::randn(6, 3, 0.5, &mut rng);
        let r = Tensor::randn(6, 4, 0.5, &mut rng);

        lin.weight_mut().zero_grad();
        let (_, cache) = lin.forward(&x, &mut rng);
        let _ = lin.backward(&r, &cache, &mut rng);
        let dw = lin.weight().grad().clone();

        for &(i, j) in &[(0usize, 0usize), (2, 1), (3, 2)] {
            let h = 5e-2f32;
            let mut lp = lin.clone();
            lp.weight_mut().value_mut()[(i, j)] += h;
            let mut lm = lin.clone();
            lm.weight_mut().value_mut()[(i, j)] -= h;
            let (yp, _) = lp.forward(&x, &mut rng);
            let (ym, _) = lm.forward(&x, &mut rng);
            let fd = (yp.mul(&r).sum() - ym.mul(&r).sum()) / (2.0 * h as f64);
            let an = dw[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 1e-1 * (1.0 + an.abs()),
                "dw[{i},{j}]: fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn quantized_forward_approximates_exact_forward() {
        let mut rng = Rng::seed_from(23);
        let mut lin = Linear::new("w", 16, 16, 1.0, 8, &mut rng);
        let x = Tensor::randn(8, 16, 1.0, &mut rng);
        let (y_ref, _) = lin.forward(&x, &mut rng); // bf16 default

        lin.set_precision(LinearPrecision::uniform(Precision::Fp8));
        let (y8, _) = lin.forward(&x, &mut rng);
        lin.set_precision(LinearPrecision::uniform(Precision::Fp4));
        let (y4, _) = lin.forward(&x, &mut rng);

        let e8 = y8.distance(&y_ref) / y_ref.frobenius_norm();
        let e4 = y4.distance(&y_ref) / y_ref.frobenius_norm();
        assert!(e8 < 0.05, "fp8 relative error {e8}");
        assert!(e4 < 0.5, "fp4 relative error {e4}");
        assert!(e4 > e8, "fp4 ({e4}) should be noisier than fp8 ({e8})");
    }

    /// A weight's gradient is written, not accumulated: a second backward
    /// with no reset in between would silently replace the first `dW`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written twice without zero_grads in between")]
    fn a_second_backward_without_a_reset_trips_the_written_once_check() {
        let mut rng = Rng::seed_from(24);
        let mut lin = Linear::new("w", 3, 3, 1.0, 4, &mut rng);
        let x = Tensor::randn(2, 3, 1.0, &mut rng);
        let dy = Tensor::randn(2, 3, 1.0, &mut rng);
        let (_, cache) = lin.forward(&x, &mut rng);
        let _ = lin.backward(&dy, &cache, &mut rng);
        let _ = lin.backward(&dy, &cache, &mut rng);
    }

    /// backward → reset → backward on the same inputs and draws writes the
    /// same gradient bits: the write depends on nothing the gradient held.
    #[test]
    fn backward_reset_backward_gives_bit_identical_gradients() {
        for precision in [
            LinearPrecision::uniform(Precision::Bf16),
            LinearPrecision::uniform(Precision::Fp4),
        ] {
            for exact in [false, true] {
                let mut rng = Rng::seed_from(24);
                let mut lin = Linear::new("w", 5, 6, 1.0, 4, &mut rng);
                lin.set_precision(precision);
                lin.set_exact_mode(exact);
                let x = Tensor::randn(3, 6, 1.0, &mut rng);
                let dy = Tensor::randn(3, 5, 1.0, &mut rng);
                let (_, cache) = lin.forward(&x, &mut rng);
                let bits = |lin: &Linear| -> Vec<u32> {
                    lin.weight()
                        .grad()
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                let _ = lin.backward(&dy, &cache, &mut rng.clone());
                let first = bits(&lin);
                lin.weight_mut().rearm_grad();
                let _ = lin.backward(&dy, &cache, &mut rng.clone());
                assert_eq!(bits(&lin), first, "{precision}, exact {exact}");
                assert!(
                    first.iter().any(|&b| b != 0),
                    "{precision}: a zero gradient"
                );
            }
        }
    }

    #[test]
    fn packed_pipeline_bit_matches_the_fake_quant_reference() {
        // The packed path must reproduce the seed's fake-quantization
        // implementation exactly — same outputs, same gradients, same RNG
        // stream — so training trajectories are unchanged.
        use snip_quant::format::bf16_round_slice;
        use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};
        for precision in [
            LinearPrecision::uniform(Precision::Fp4),
            LinearPrecision::uniform(Precision::Fp8),
            LinearPrecision {
                input: Precision::Fp4,
                weight: Precision::Fp8,
                grad: Precision::Fp4,
            },
            LinearPrecision::uniform(Precision::Bf16),
        ] {
            let mut rng = Rng::seed_from(31);
            let mut lin = Linear::new("w", 12, 16, 1.0, 8, &mut rng);
            lin.set_precision(precision);
            let x = Tensor::randn(6, 16, 1.0, &mut rng);
            let dy = Tensor::randn(6, 12, 1.0, &mut rng);

            let mut rng_new = Rng::seed_from(77);
            let (y, cache) = lin.forward(&x, &mut rng_new);
            let dx = lin.backward(&dy, &cache, &mut rng_new);
            let dw = lin.weight().grad().clone();

            // Reference: the fake-quantization data flow of the seed.
            let mut rng_ref = Rng::seed_from(77);
            let qx = lin
                .quantizer(TensorRole::Input)
                .fake_quantize(&x, &mut rng_ref);
            let qw = lin
                .quantizer(TensorRole::Weight)
                .fake_quantize(lin.weight().value(), &mut rng_ref);
            let mut y_ref = matmul_nt(&qx, &qw);
            bf16_round_slice(y_ref.as_mut_slice());
            let qdy = lin
                .quantizer(TensorRole::OutputGrad)
                .fake_quantize(&dy, &mut rng_ref);
            let mut dx_ref = matmul(&qdy, &qw);
            bf16_round_slice(dx_ref.as_mut_slice());
            let mut dw_ref = matmul_tn(&qdy, &qx);
            bf16_round_slice(dw_ref.as_mut_slice());

            for (got, want) in [(&y, &y_ref), (&dx, &dx_ref), (&dw, &dw_ref)] {
                assert_eq!(got.shape(), want.shape());
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{precision}: {a} vs {b}");
                }
            }
            // Same stochastic draws consumed.
            assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "{precision}");
            // The operands the GEMMs read reproduce the fake-quant ones: the
            // input through its cache, the weight the way `qw` recorded —
            // its packed codes, or the master weight read in place (an
            // in-place read's `dequantize` is empty: it holds no values).
            let read = cache.qw.operand(lin.weight().value());
            let (rows, cols) = read.shape();
            let mut w_read = Tensor::zeros(rows, cols);
            for r in 0..rows {
                read.decode_row_range_into(r, 0, cols, w_read.row_mut(r));
            }
            let mut pairs = vec![(cache.qx.dequantize(), &qx), (w_read, &qw)];
            if cache.qw.is_packed() {
                pairs.push((cache.qw.dequantize(), &qw));
            }
            for (got, want) in pairs {
                assert_eq!(got.shape(), want.shape(), "{precision} cache");
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{precision} cache");
                }
            }
        }
    }

    #[test]
    fn fp4_backward_cache_is_packed_and_at_least_7x_smaller() {
        let mut rng = Rng::seed_from(41);
        let mut lin = Linear::new("w", 128, 256, 1.0, 128, &mut rng);
        lin.set_precision(LinearPrecision::uniform(Precision::Fp4));
        let x = Tensor::randn(64, 256, 1.0, &mut rng);
        let (_, cache) = lin.forward(&x, &mut rng);

        assert!(cache.qx.is_packed(), "FP4 activations must be packed");
        assert!(cache.qw.is_packed(), "FP4 weights must be packed");

        // ≤ 0.5 B/element + scale overhead (4 B per 1×128 tile) + small
        // constant metadata (decode table + container).
        let elems = 64 * 256;
        let budget = 0.5 * elems as f64 + 4.0 * (64 * 2) as f64 + 256.0;
        let got = cache.qx.resident_bytes() as f64;
        assert!(got <= budget, "qx resident {got} B > budget {budget} B");

        // ≥ ~7× smaller than the seed's dense f32 cache.
        let dense = (elems * 4) as f64;
        assert!(
            dense / got >= 7.0,
            "packed cache only {}x smaller than f32",
            dense / got
        );

        // BF16 falls back to dense storage.
        lin.set_precision(LinearPrecision::uniform(Precision::Bf16));
        let (_, cache16) = lin.forward(&x, &mut rng);
        assert!(!cache16.qx.is_packed());
    }

    /// A cache describes its layer's weight as the forward read it: an
    /// edit before the backward trips the debug CRC check instead of
    /// silently mixing two weights into one step.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "weight changed between forward and backward")]
    fn a_weight_edited_between_forward_and_backward_trips_the_crc_check() {
        let mut rng = Rng::seed_from(26);
        let mut lin = Linear::new("w", 3, 4, 1.0, 4, &mut rng);
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        let dy = Tensor::randn(2, 3, 1.0, &mut rng);
        let (_, cache) = lin.forward(&x, &mut rng);
        lin.weight_mut().value_mut()[(1, 2)] += 1.0;
        let _ = lin.backward(&dy, &cache, &mut rng);
    }

    /// A tapped backward hands the tap the `dW` it wrote: each layer's
    /// recorded `dw` is that layer's gradient.
    #[test]
    fn recorded_backward_returns_dw() {
        use crate::model::{Model, StepOptions};
        use crate::{Batch, LayerId, ModelConfig};
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 25).unwrap();
        let batch = Batch::from_sequences(&[vec![1, 2, 3, 4, 5, 6, 7, 8, 9]], 8);
        model.zero_grads();
        let out = model.step(&batch, &mut Rng::seed_from(25), &StepOptions::record());
        let record = out.record.expect("recording requested");
        for i in 0..cfg.n_linear_layers() {
            let id = LayerId::from_linear_index(i);
            assert_eq!(
                &record.layer(id).dw,
                model.linear(id).weight().grad(),
                "layer {i}"
            );
        }
    }

    /// `dW` lands in the gradient, and equals `0 + dW` — the gradient a
    /// zeroed accumulator gave — bit for bit, whatever the gradient held
    /// before (here NaN), in BF16 and exact mode.
    #[test]
    fn backward_writes_dw_into_the_gradient() {
        use snip_tensor::packed::{qgemm_tn, qgemm_tn_bf16};
        for exact in [false, true] {
            let mut rng = Rng::seed_from(25);
            let mut lin = Linear::new("w", 3, 4, 1.0, 4, &mut rng);
            lin.set_exact_mode(exact);
            let x = Tensor::randn(2, 4, 1.0, &mut rng);
            let dy = Tensor::randn(2, 3, 1.0, &mut rng);
            lin.weight_mut().grad_mut().as_mut_slice().fill(f32::NAN);
            let (_, cache) = lin.forward(&x, &mut rng);
            let mut draws = rng.clone();
            let _ = lin.backward(&dy, &cache, &mut rng);

            let mut want = Tensor::zeros(3, 4);
            if exact {
                want.add_assign(&qgemm_tn(QOperandRef::from(&dy), cache.qx.operand()));
            } else {
                let qdy = lin
                    .quantizer(TensorRole::OutputGrad)
                    .fake_quantize(&dy, &mut draws);
                want.add_assign(&qgemm_tn_bf16(QOperandRef::from(&qdy), cache.qx.operand()));
            }
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(lin.weight().grad()), bits(&want), "exact {exact}");
        }
    }
}
