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
//!            dW = Q_g(dY)ᵀ · Q_x(X)          (output BF16, accumulated FP32)
//! ```
//!
//! These three calls — `qgemm_nt_bf16`, `qgemm_bf16`, `qgemm_tn_bf16` —
//! are the hottest loops of every training step. They dispatch into
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
    packed::{qgemm, qgemm_bf16, qgemm_nt, qgemm_nt_bf16, qgemm_tn, qgemm_tn_bf16},
    rng::Rng,
    QOperandRef, QTensor, Tensor,
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

/// A quantized GEMM operand held for the backward pass: bit-packed when the
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

    /// Resident bytes of this cached operand (codes + scales + decode table
    /// for packed storage, raw buffer for dense).
    pub fn resident_bytes(&self) -> usize {
        match self {
            QCache::Dense(t) => std::mem::size_of::<Tensor>() + t.len() * 4,
            QCache::Packed(t) => t.resident_bytes(),
        }
    }
}

/// Activations saved by [`Linear::forward`] for the backward pass.
///
/// `qx`/`qw` are the *quantized* operands — exactly what the backward GEMMs
/// consume, and (during BF16 statistics collection) numerically equal to the
/// BF16 activations/weights. Subbyte operands stay bit-packed here, which
/// is where the packed representation pays off: the dominant activation
/// memory of the backward pass shrinks by ~8× under FP4.
#[derive(Clone, Debug)]
pub struct LinearCache {
    /// Quantized input activations, `tokens × in_features`.
    pub qx: QCache,
    /// Quantized weight, `out_features × in_features`.
    pub qw: QCache,
}

impl LinearCache {
    /// Total resident bytes of the saved operands.
    pub fn resident_bytes(&self) -> usize {
        self.qx.resident_bytes() + self.qw.resident_bytes()
    }
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
    /// precisions), runs the quantized GEMM, rounds the output to BF16.
    /// Returns the output and the cache for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features`.
    pub fn forward(&self, x: &Tensor, rng: &mut Rng) -> (Tensor, LinearCache) {
        if self.exact {
            let qx = QCache::Dense(x.clone());
            let qw = QCache::Dense(self.weight.value().clone());
            let y = qgemm_nt(qx.operand(), qw.operand());
            return (y, LinearCache { qx, qw });
        }
        let qx = self.quantize_cached(TensorRole::Input, x, rng);
        let qw = self.quantize_cached(TensorRole::Weight, self.weight.value(), rng);
        // The `_bf16` kernel folds the BF16 rounding into the tile store —
        // bit-identical to rounding the plain qgemm output in a second pass.
        let y = qgemm_nt_bf16(qx.operand(), qw.operand());
        (y, LinearCache { qx, qw })
    }

    /// Backward pass: quantizes `dy` once, computes `dX` (returned) and `dW`
    /// (accumulated into the weight's FP32 gradient).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the cached forward.
    pub fn backward(&mut self, dy: &Tensor, cache: &LinearCache, rng: &mut Rng) -> Tensor {
        self.backward_recorded(dy, cache, rng).0
    }

    /// Backward pass that also returns the (BF16-rounded) `dW` tensor for
    /// recording; gradient accumulation still happens.
    pub fn backward_recorded(
        &mut self,
        dy: &Tensor,
        cache: &LinearCache,
        rng: &mut Rng,
    ) -> (Tensor, Tensor) {
        if self.exact {
            let dx = qgemm(QOperandRef::from(dy), cache.qw.operand());
            let dw = qgemm_tn(QOperandRef::from(dy), cache.qx.operand());
            self.weight.accumulate_grad(&dw);
            return (dx, dw);
        }
        let qdy = self.quantize_cached(TensorRole::OutputGrad, dy, rng);
        let dx = qgemm_bf16(qdy.operand(), cache.qw.operand());
        let dw = qgemm_tn_bf16(qdy.operand(), cache.qx.operand());
        self.weight.accumulate_grad(&dw);
        (dx, dw)
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

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = Rng::seed_from(24);
        let mut lin = Linear::new("w", 3, 3, 1.0, 4, &mut rng);
        let x = Tensor::randn(2, 3, 1.0, &mut rng);
        let dy = Tensor::randn(2, 3, 1.0, &mut rng);
        let (_, cache) = lin.forward(&x, &mut rng);
        let _ = lin.backward(&dy, &cache, &mut rng);
        let g1 = lin.weight().grad().frobenius_norm();
        let _ = lin.backward(&dy, &cache, &mut rng);
        let g2 = lin.weight().grad().frobenius_norm();
        assert!((g2 - 2.0 * g1).abs() < 1e-6 * g1.max(1.0));
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
            lin.weight_mut().zero_grad();
            let (dx, dw) = lin.backward_recorded(&dy, &cache, &mut rng_new);

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
            // Cache dequantization reproduces the fake-quant operands.
            for (got, want) in [(cache.qx.dequantize(), qx), (cache.qw.dequantize(), qw)] {
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

    #[test]
    fn recorded_backward_returns_dw() {
        let mut rng = Rng::seed_from(25);
        let mut lin = Linear::new("w", 3, 4, 1.0, 4, &mut rng);
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        let dy = Tensor::randn(2, 3, 1.0, &mut rng);
        lin.weight_mut().zero_grad();
        let (_, cache) = lin.forward(&x, &mut rng);
        let (_, dw) = lin.backward_recorded(&dy, &cache, &mut rng);
        assert_eq!(&dw, lin.weight().grad());
    }
}
