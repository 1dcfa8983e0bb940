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
//! pass, so there is nothing to accumulate and nothing to zero first. A
//! caller may lend another destination instead ([`Linear::backward_to`]):
//! SNIP's probe passes write into one reused scratch buffer, so the weight
//! gradients keep the statistics pass's `dW`.
//!
//! # Operands are packed or read in place, never copied
//!
//! Each of the three operands `X`, `W` and `dY` is a [`QOperand`], picked
//! the same way for every role: bit-packed codes under a packable
//! precision (FP8/FP4), otherwise its source tensor read in place — BF16
//! through the engine's rounded operand ([`QOperandRef::Bf16Rounded`],
//! bit-identical to a GEMM over a rounded copy), exact mode as is. BF16 is
//! unscaled round-to-nearest and draws nothing, so the in-place read equals
//! the fake-quantized copy it replaces, draw for draw. The sources are the
//! FP32 master weight, the `dy` argument of [`Linear::backward`], and the
//! layer input, which [`Linear::forward`] takes as a shared handle
//! (`Arc<Tensor>`): layers fed the same input (Q, K and V; Gate and Up)
//! hold one tensor between them, and a packed layer holds none — its clone
//! of the handle is dropped once the codes exist.
//!
//! A [`LinearCache`] describes its layer's weight *as it was at forward*,
//! and must be consumed before that weight changes (debug builds check a
//! CRC of the weight bits at backward). A training step, SNIP's probe (one
//! forward, several backward passes) and the data-parallel gradient hook
//! all finish their backward passes before the optimizer touches a weight.
//!
//! These three GEMMs — the forward and `dX` products through [`gemm`], the
//! `dW` product written in place through [`gemm_into`] — are the hottest
//! loops of every training step. They dispatch into
//! `snip-tensor`'s pool-backed, cache-blocked GEMM engine with the BF16
//! output rounding fused into the tile store (bit-identical to rounding in
//! a second pass, without touching the output twice): packed operands are
//! decoded block-wise (once per block sweep, through the byte-pair table
//! for FP4), large products are split across the persistent worker pool,
//! and results are bit-identical at every pool size / `SNIP_THREADS` /
//! SIMD-backend setting — so the training trajectory never depends on the
//! machine's parallelism or instruction set.

use crate::param::{Init, Param};
use snip_quant::{LinearPrecision, Quantizer, TensorRole};
use snip_tensor::{
    bf16, gemm, gemm_into, rng::Rng, Orientation, QOperandRef, QTensor, Round, Tensor,
};
use std::ops::Deref;
use std::sync::Arc;

/// A linear layer `y = x · Wᵀ` with per-operand quantization.
///
/// The weight is stored `out_features × in_features`; no bias (Llama-style).
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Param,
    precision: LinearPrecision,
    quant_group: usize,
    /// When `true`, bypass all quantization and BF16 rounding (exact f32
    /// math). Used by gradient-check tests and as an FP32 reference mode.
    exact: bool,
}

/// One GEMM operand of a linear layer — its input `X`, weight `W` or
/// output gradient `dY` — as the layer reads it: bit-packed codes, or the
/// source tensor `S` read in place. [`Linear`] picks the variant the same
/// way for every role (see the module docs).
///
/// The input's source is the shared layer input (`S = Arc<Tensor>`), the
/// output gradient's the `dy` argument (`S = &Tensor`); the cached weight
/// read holds no source (`S = ()`), because its source is the layer's
/// master weight.
#[derive(Clone, Debug)]
pub enum QOperand<S> {
    /// Bit-packed codes with per-group scales: the packable precisions
    /// (FP8/FP4), 4× / 8× smaller than f32.
    Packed(QTensor),
    /// The source read through BF16 rounding: BF16, which rounds to
    /// nearest and draws nothing, so the read equals the fake-quantized
    /// copy.
    Bf16Rounded(S),
    /// The source read as is (exact mode).
    Exact(S),
}

impl<S> QOperand<S> {
    /// Whether the operand is held bit-packed.
    pub fn is_packed(&self) -> bool {
        matches!(self, QOperand::Packed(_))
    }

    /// The source an in-place read holds (`None` when packed).
    pub fn source(&self) -> Option<&S> {
        match self {
            QOperand::Packed(_) => None,
            QOperand::Bf16Rounded(s) | QOperand::Exact(s) => Some(s),
        }
    }

    /// The GEMM operand: the packed codes, or `source` read the recorded
    /// way.
    fn read<'a>(&'a self, source: &'a Tensor) -> QOperandRef<'a> {
        match self {
            QOperand::Packed(q) => QOperandRef::Packed(q),
            QOperand::Bf16Rounded(_) => QOperandRef::Bf16Rounded(source),
            QOperand::Exact(_) => QOperandRef::Dense(source),
        }
    }

    /// The same read with the source dropped: how a cache records the
    /// weight read, whose source is the layer's master weight.
    fn without_source(self) -> QOperand<()> {
        match self {
            QOperand::Packed(q) => QOperand::Packed(q),
            QOperand::Bf16Rounded(_) => QOperand::Bf16Rounded(()),
            QOperand::Exact(_) => QOperand::Exact(()),
        }
    }

    /// Resident bytes of the packed codes ([`QTensor::resident_bytes`]; the
    /// decode table is shared per format and not charged), 0 for an
    /// in-place read: its source belongs to someone else, and a step's
    /// accounting counts a held input once.
    pub fn resident_bytes(&self) -> usize {
        match self {
            QOperand::Packed(q) => q.resident_bytes(),
            QOperand::Bf16Rounded(_) | QOperand::Exact(_) => 0,
        }
    }
}

impl<S: Deref<Target = Tensor>> QOperand<S> {
    /// The GEMM operand over the held source.
    pub fn operand(&self) -> QOperandRef<'_> {
        match self {
            QOperand::Packed(q) => QOperandRef::Packed(q),
            QOperand::Bf16Rounded(s) | QOperand::Exact(s) => self.read(s),
        }
    }

    /// The operand as a dense tensor, bit for bit the values the GEMM reads
    /// — the fake-quantized tensor. Statistics and taps read an input
    /// through this.
    pub fn dequantize(&self) -> Tensor {
        match self {
            QOperand::Packed(q) => q.dequantize(),
            QOperand::Bf16Rounded(s) => s.map(bf16::round),
            QOperand::Exact(s) => Tensor::clone(s),
        }
    }
}

/// What [`Linear::forward`] saves for the backward pass.
///
/// `qx` is the input as the forward GEMM read it — exactly what the `dW`
/// GEMM consumes: packed codes under FP8/FP4, where the dominant activation
/// memory of the backward pass shrinks by ~8× (FP4) and the cache keeps
/// no f32 input, or the shared layer input itself under BF16 and exact
/// mode. `qw` says how the `dX` GEMM reads the weight: packed codes
/// under FP8/FP4, the master weight in place under BF16 and exact mode.
///
/// A cache is only valid until its layer's weight changes (see the module
/// docs); debug builds check that at backward.
#[derive(Clone, Debug)]
pub struct LinearCache {
    /// The input read, `tokens × in_features`.
    pub qx: QOperand<Arc<Tensor>>,
    /// The weight read of the backward `dX` GEMM.
    pub qw: QOperand<()>,
    /// CRC-32 of the weight bits at forward.
    #[cfg(debug_assertions)]
    weight_crc: u32,
}

impl LinearCache {
    fn new(qx: QOperand<Arc<Tensor>>, qw: QOperand<()>, _weight: &Tensor) -> Self {
        LinearCache {
            qx,
            qw,
            #[cfg(debug_assertions)]
            weight_crc: weight_crc(_weight),
        }
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

/// The layer inputs `caches` hold in place, each once however many caches
/// share it (Q, K and V share one, Gate and Up another; its first reader
/// stands for it), and per cache the index of its input — `None` if packed.
pub fn held_inputs<'a>(
    caches: impl IntoIterator<Item = &'a LinearCache>,
) -> (Vec<&'a QOperand<Arc<Tensor>>>, Vec<Option<usize>>) {
    let mut held: Vec<&QOperand<Arc<Tensor>>> = Vec::new();
    let mut slot = |qx: &'a QOperand<Arc<Tensor>>| {
        let x = qx.source()?;
        let i = held
            .iter()
            .position(|h| h.source().is_some_and(|s| Arc::ptr_eq(s, x)));
        Some(i.unwrap_or_else(|| {
            held.push(qx);
            held.len() - 1
        }))
    };
    let slots = caches.into_iter().map(|c| slot(&c.qx)).collect();
    (held, slots)
}

/// Resident bytes of `caches` together: every packed operand, and every
/// [held input](held_inputs) — its buffer and container — once.
pub(crate) fn cache_bytes(caches: &[&LinearCache]) -> usize {
    let (held, _) = held_inputs(caches.iter().copied());
    let held = held.iter().filter_map(|x| x.source());
    let packed = caches
        .iter()
        .map(|c| c.qx.resident_bytes() + c.qw.resident_bytes());
    held.map(|x| std::mem::size_of::<Tensor>() + x.len() * 4)
        .chain(packed)
        .sum()
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
        let init = &mut Init::Draw(rng);
        Linear::init(name, out_features, in_features, gain, quant_group, init)
    }

    /// [`Linear::new`] with its weight from `init`.
    pub(crate) fn init(
        name: impl Into<String>,
        out_features: usize,
        in_features: usize,
        gain: f32,
        quant_group: usize,
        init: &mut Init,
    ) -> Self {
        let std = gain / (in_features as f32).sqrt();
        Linear {
            weight: init.param(name.into(), out_features, in_features, std),
            precision: LinearPrecision::default(),
            quant_group,
            exact: false,
        }
    }

    /// Enables or disables exact (f32, quantization-free) math.
    pub fn set_exact_mode(&mut self, exact: bool) {
        self.exact = exact;
    }

    /// Whether the layer runs exact (f32, quantization-free) math.
    pub fn exact(&self) -> bool {
        self.exact
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

    /// The operand `role` reads from `source`: exact mode reads it as is,
    /// a packable precision packs it (drawing what the fake-quantized copy
    /// would draw), and BF16 — the one precision without codes — reads it
    /// through rounding, drawing nothing.
    fn quantize<S: Deref<Target = Tensor>>(
        &self,
        role: TensorRole,
        source: S,
        rng: &mut Rng,
    ) -> QOperand<S> {
        if self.exact {
            return QOperand::Exact(source);
        }
        match self.quantizer(role).quantize_packed(&source, rng) {
            Some(codes) => QOperand::Packed(codes),
            None => QOperand::Bf16Rounded(source),
        }
    }

    pub(crate) fn quantizer(&self, role: TensorRole) -> Quantizer {
        let p = match role {
            TensorRole::Input => self.precision.input,
            TensorRole::Weight => self.precision.weight,
            TensorRole::OutputGrad => self.precision.grad,
        };
        p.quantizer_with_group(role, self.quant_group)
    }

    /// How every GEMM output of the layer is stored: BF16, or as computed
    /// in exact mode.
    fn output_round(&self) -> Round {
        if self.exact {
            Round::Keep
        } else {
            Round::Bf16
        }
    }

    /// Forward pass: reads `x` and `W` as their precisions say (packed, or
    /// in place through rounding), runs the GEMM with its output rounded
    /// to BF16. Returns the output and the cache for backward, which keeps
    /// `x` only if the input is read in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features`.
    pub fn forward(&self, x: Arc<Tensor>, rng: &mut Rng) -> (Tensor, LinearCache) {
        let w = self.weight.value();
        let qx = self.quantize(TensorRole::Input, x, rng);
        let qw = self.quantize(TensorRole::Weight, w, rng);
        let y = gemm(
            qx.operand(),
            qw.operand(),
            Orientation::Nt,
            self.output_round(),
        );
        (y, LinearCache::new(qx, qw.without_source(), w))
    }

    /// Backward pass: reads `dy` once (packed, or in place) and returns
    /// `dX`. `dW` is written straight into the weight's gradient, replacing
    /// whatever it held ([`Param::grad_to_write`]): bit for bit what adding
    /// it into a zeroed gradient gave, since [`gemm_into`] stores `0 + dW`.
    /// Both outputs are BF16 rounded, plain in exact mode.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the cached forward, and in
    /// debug builds if the weight changed since the forward that made
    /// `cache`, or if the gradient was already written since the last
    /// [`crate::model::Model::zero_grads`].
    pub fn backward(&mut self, dy: &Tensor, cache: &LinearCache, rng: &mut Rng) -> Tensor {
        self.backward_to(dy, cache, rng, None)
    }

    /// [`Linear::backward`] with `dW` written into `dw` when given — an
    /// `out × in` buffer the caller lends, whose bits it takes whole —
    /// and into the weight's gradient otherwise. A lent write leaves the
    /// gradient, and its written-once check, as they were; `dX`, `dW` and
    /// the draws from `rng` are the same either way.
    ///
    /// # Panics
    ///
    /// As [`Linear::backward`], and if `dw` is not `out × in`.
    pub fn backward_to(
        &mut self,
        dy: &Tensor,
        cache: &LinearCache,
        rng: &mut Rng,
        dw: Option<&mut Tensor>,
    ) -> Tensor {
        let w = self.weight.value();
        cache.check_weight(w);
        let round = self.output_round();
        let qdy = self.quantize(TensorRole::OutputGrad, dy, rng);
        let dx = gemm(qdy.operand(), cache.qw.read(w), Orientation::Nn, round);
        gemm_into(
            dw.unwrap_or_else(|| self.weight.grad_to_write()),
            qdy.operand(),
            cache.qx.operand(),
            Orientation::Tn,
            round,
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

        let (y, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
        assert_eq!(y.shape(), (3, 5));
        let dx = lin.backward(&r, &cache, &mut rng);

        // dL/dx[i,j] via central differences
        let loss = |lin: &Linear, x: &Tensor, rng: &mut Rng| -> f64 {
            let (y, _) = lin.forward(Arc::new(x.clone()), rng);
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
        let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
        let _ = lin.backward(&r, &cache, &mut rng);
        let dw = lin.weight().grad().clone();

        for &(i, j) in &[(0usize, 0usize), (2, 1), (3, 2)] {
            let h = 5e-2f32;
            let mut lp = lin.clone();
            lp.weight_mut().value_mut()[(i, j)] += h;
            let mut lm = lin.clone();
            lm.weight_mut().value_mut()[(i, j)] -= h;
            let (yp, _) = lp.forward(Arc::new(x.clone()), &mut rng);
            let (ym, _) = lm.forward(Arc::new(x.clone()), &mut rng);
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
        let (y_ref, _) = lin.forward(Arc::new(x.clone()), &mut rng); // bf16 default

        lin.set_precision(LinearPrecision::uniform(Precision::Fp8));
        let (y8, _) = lin.forward(Arc::new(x.clone()), &mut rng);
        lin.set_precision(LinearPrecision::uniform(Precision::Fp4));
        let (y4, _) = lin.forward(Arc::new(x.clone()), &mut rng);

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
        let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
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
                let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
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
        use snip_tensor::bf16::round_slice;
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
            LinearPrecision {
                input: Precision::Bf16,
                weight: Precision::Fp4,
                grad: Precision::Bf16,
            },
        ] {
            let mut rng = Rng::seed_from(31);
            let mut lin = Linear::new("w", 12, 16, 1.0, 8, &mut rng);
            lin.set_precision(precision);
            let x = Tensor::randn(6, 16, 1.0, &mut rng);
            let dy = Tensor::randn(6, 12, 1.0, &mut rng);

            let mut rng_new = Rng::seed_from(77);
            let (y, cache) = lin.forward(Arc::new(x.clone()), &mut rng_new);
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
            round_slice(y_ref.as_mut_slice());
            let qdy = lin
                .quantizer(TensorRole::OutputGrad)
                .fake_quantize(&dy, &mut rng_ref);
            let mut dx_ref = matmul(&qdy, &qw);
            round_slice(dx_ref.as_mut_slice());
            let mut dw_ref = matmul_tn(&qdy, &qx);
            round_slice(dw_ref.as_mut_slice());

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
            // its packed codes, or the master weight read in place.
            let read = cache.qw.read(lin.weight().value());
            let (rows, cols) = read.shape();
            let mut w_read = Tensor::zeros(rows, cols);
            for r in 0..rows {
                read.decode_row_range_into(r, 0, cols, w_read.row_mut(r));
            }
            for (got, want) in [(cache.qx.dequantize(), &qx), (w_read, &qw)] {
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
        let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);

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

        // BF16 reads the input in place.
        lin.set_precision(LinearPrecision::uniform(Precision::Bf16));
        let (_, cache16) = lin.forward(Arc::new(x.clone()), &mut rng);
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
        let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
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

    /// A lent destination takes the `dW` the gradient would have got, bit
    /// for bit, with the same `dX` and draws, and leaves the gradient alone:
    /// its bits (here NaN) and its written-once state — the default write
    /// that follows would panic in a debug build had the lent one armed it.
    #[test]
    fn a_lent_destination_takes_dw_and_leaves_the_gradient_alone() {
        for (precision, exact) in [
            (LinearPrecision::uniform(Precision::Bf16), false),
            (LinearPrecision::uniform(Precision::Fp4), false),
            (LinearPrecision::uniform(Precision::Bf16), true),
        ] {
            let mut rng = Rng::seed_from(27);
            let mut lin = Linear::new("w", 6, 8, 1.0, 4, &mut rng);
            lin.set_precision(precision);
            lin.set_exact_mode(exact);
            let x = Tensor::randn(5, 8, 1.0, &mut rng);
            let dy = Tensor::randn(5, 6, 1.0, &mut rng);
            let (_, cache) = lin.forward(Arc::new(x), &mut rng);
            lin.weight_mut().grad_mut().as_mut_slice().fill(f32::NAN);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let nan = bits(lin.weight().grad());

            let mut lent_rng = rng.clone();
            let mut lent = Tensor::full(6, 8, f32::NAN);
            let lent_dx = lin.backward_to(&dy, &cache, &mut lent_rng, Some(&mut lent));
            assert_eq!(bits(lin.weight().grad()), nan, "{precision}, exact {exact}");

            let dx = lin.backward(&dy, &cache, &mut rng);
            let what = format!("{precision}, exact {exact}");
            assert_eq!(bits(&lent), bits(lin.weight().grad()), "{what}: dW");
            assert_eq!(bits(&lent_dx), bits(&dx), "{what}: dX");
            assert_eq!(lent_rng.next_u64(), rng.next_u64(), "{what}: draws");
        }
    }

    /// `dW` lands in the gradient, and equals `0 + dW` — the gradient a
    /// zeroed accumulator gave — bit for bit, whatever the gradient held
    /// before (here NaN), in BF16 and exact mode.
    #[test]
    fn backward_writes_dw_into_the_gradient() {
        for exact in [false, true] {
            let mut rng = Rng::seed_from(25);
            let mut lin = Linear::new("w", 3, 4, 1.0, 4, &mut rng);
            lin.set_exact_mode(exact);
            let x = Tensor::randn(2, 4, 1.0, &mut rng);
            let dy = Tensor::randn(2, 3, 1.0, &mut rng);
            lin.weight_mut().grad_mut().as_mut_slice().fill(f32::NAN);
            let (_, cache) = lin.forward(Arc::new(x.clone()), &mut rng);
            let mut draws = rng.clone();
            let _ = lin.backward(&dy, &cache, &mut rng);

            let mut want = Tensor::zeros(3, 4);
            if exact {
                want.add_assign(&gemm(
                    QOperandRef::from(&dy),
                    cache.qx.operand(),
                    Orientation::Tn,
                    Round::Keep,
                ));
            } else {
                let qdy = lin
                    .quantizer(TensorRole::OutputGrad)
                    .fake_quantize(&dy, &mut draws);
                want.add_assign(&gemm(
                    QOperandRef::from(&qdy),
                    cache.qx.operand(),
                    Orientation::Tn,
                    Round::Bf16,
                ));
            }
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(lin.weight().grad()), bits(&want), "exact {exact}");
        }
    }
}
