//! Llama transformer block (paper Fig. 4): RMSNorm → Q/K/V → attention → O,
//! then RMSNorm → Gate/Up → SwiGLU → Down, with residual connections.

use crate::attention::{Attention, AttentionCache};
use crate::config::ModelConfig;
use crate::layers::{LayerId, LayerKind};
use crate::linear::{self, Linear, LinearCache};
use crate::norm::{RmsNorm, RmsNormCache};
use crate::param::{Init, Param};
use crate::record::LayerTap;
use snip_tensor::{
    ops::{silu, silu_grad},
    rng::Rng,
    Tensor,
};
use std::sync::Arc;

/// Trainable parameters per block: two norm gains and seven linear weights
/// ([`Block::params_mut`]).
pub(crate) const PARAMS_PER_BLOCK: usize = 9;

/// One transformer block with its seven quantizable linear layers.
#[derive(Clone, Debug)]
pub struct Block {
    index: usize,
    attn_norm: RmsNorm,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    attention: Attention,
    mlp_norm: RmsNorm,
    gate: Linear,
    up: Linear,
    down: Linear,
}

/// Saved forward state of one block.
#[derive(Clone, Debug)]
pub struct BlockCache {
    nc1: RmsNormCache,
    qc: LinearCache,
    kc: LinearCache,
    vc: LinearCache,
    ac: AttentionCache,
    oc: LinearCache,
    nc2: RmsNormCache,
    gc: LinearCache,
    uc: LinearCache,
    dc: LinearCache,
    /// Gate pre-activation output.
    gate_out: Tensor,
    /// Up projection output.
    up_out: Tensor,
}

impl BlockCache {
    /// The saved quantized operands of one linear layer of the block.
    pub fn linear(&self, kind: LayerKind) -> &LinearCache {
        match kind {
            LayerKind::Q => &self.qc,
            LayerKind::K => &self.kc,
            LayerKind::V => &self.vc,
            LayerKind::O => &self.oc,
            LayerKind::Gate => &self.gc,
            LayerKind::Up => &self.uc,
            LayerKind::Down => &self.dc,
        }
    }

    /// Resident bytes of the seven linear layers' saved operands — the
    /// part of the backward-pass footprint the packed representation
    /// shrinks (subbyte precisions store `qx`/`qw` bit-packed). An input
    /// held in place counts once, however many layers read it
    /// ([`linear::held_inputs`]).
    pub fn linear_cache_bytes(&self) -> usize {
        linear::cache_bytes(&LayerKind::ALL.map(|kind| self.linear(kind)))
    }
}

impl Block {
    /// Builds block `index` of a model. Residual-writing projections (O and
    /// Down) use a `1/√(2·n_layers)` init gain for depth stability.
    pub fn new(index: usize, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        Block::init(index, cfg, &mut Init::Draw(rng))
    }

    /// [`Block::new`] with its linear weights from `init`.
    pub(crate) fn init(index: usize, cfg: &ModelConfig, init: &mut Init) -> Self {
        let h = cfg.hidden;
        let f = cfg.ffn_hidden;
        let residual_gain = 1.0 / (2.0 * cfg.n_layers as f32).sqrt();
        let g = cfg.quant_group;
        let name = |k: &str| format!("block{index}.{k}");
        Block {
            index,
            attn_norm: RmsNorm::new(name("attn_norm"), h),
            wq: Linear::init(name("q"), h, h, 1.0, g, init),
            wk: Linear::init(name("k"), h, h, 1.0, g, init),
            wv: Linear::init(name("v"), h, h, 1.0, g, init),
            wo: Linear::init(name("o"), h, h, residual_gain, g, init),
            attention: Attention::new(cfg.n_heads, cfg.head_dim(), cfg.max_seq, cfg.rope_theta),
            mlp_norm: RmsNorm::new(name("mlp_norm"), h),
            gate: Linear::init(name("gate"), f, h, 1.0, g, init),
            up: Linear::init(name("up"), f, h, 1.0, g, init),
            down: Linear::init(name("down"), h, f, residual_gain, g, init),
        }
    }

    /// Block position in the model.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Immutable access to a linear layer by kind.
    pub fn linear(&self, kind: LayerKind) -> &Linear {
        match kind {
            LayerKind::Q => &self.wq,
            LayerKind::K => &self.wk,
            LayerKind::V => &self.wv,
            LayerKind::O => &self.wo,
            LayerKind::Gate => &self.gate,
            LayerKind::Up => &self.up,
            LayerKind::Down => &self.down,
        }
    }

    /// Mutable access to a linear layer by kind.
    pub(crate) fn linear_mut(&mut self, kind: LayerKind) -> &mut Linear {
        match kind {
            LayerKind::Q => &mut self.wq,
            LayerKind::K => &mut self.wk,
            LayerKind::V => &mut self.wv,
            LayerKind::O => &mut self.wo,
            LayerKind::Gate => &mut self.gate,
            LayerKind::Up => &mut self.up,
            LayerKind::Down => &mut self.down,
        }
    }

    /// The seven linear layers in [`LayerKind::ALL`] order.
    pub(crate) fn linears_mut(&mut self) -> [&mut Linear; 7] {
        [
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.gate,
            &mut self.up,
            &mut self.down,
        ]
    }

    /// Switches every linear layer of the block to exact (f32) math.
    pub fn set_exact_mode(&mut self, exact: bool) {
        for kind in LayerKind::ALL {
            self.linear_mut(kind).set_exact_mode(exact);
        }
    }

    /// Every trainable parameter of the block in its fixed order:
    /// `attn_norm`, the seven linear weights in [`LayerKind::ALL`] order,
    /// `mlp_norm`.
    pub fn params_mut(&mut self) -> [&mut Param; PARAMS_PER_BLOCK] {
        [
            self.attn_norm.gain_mut(),
            self.wq.weight_mut(),
            self.wk.weight_mut(),
            self.wv.weight_mut(),
            self.wo.weight_mut(),
            self.gate.weight_mut(),
            self.up.weight_mut(),
            self.down.weight_mut(),
            self.mlp_norm.gain_mut(),
        ]
    }

    /// [`Block::params_mut`], read-only.
    pub fn params(&self) -> [&Param; PARAMS_PER_BLOCK] {
        [
            self.attn_norm.gain(),
            self.wq.weight(),
            self.wk.weight(),
            self.wv.weight(),
            self.wo.weight(),
            self.gate.weight(),
            self.up.weight(),
            self.down.weight(),
            self.mlp_norm.gain(),
        ]
    }

    /// Visits every trainable parameter of the block in
    /// [`Block::params_mut`] order.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    fn fwd_linear(
        &self,
        kind: LayerKind,
        x: Arc<Tensor>,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> (Tensor, LinearCache) {
        let lin = self.linear(kind);
        let (y, cache) = lin.forward(x, rng);
        if let Some(tap) = tap {
            tap.forward(LayerId::new(self.index, kind), lin, &cache, &y);
        }
        (y, cache)
    }

    fn bwd_linear(
        &mut self,
        kind: LayerKind,
        dy: &Tensor,
        cache: &LinearCache,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> Tensor {
        let id = LayerId::new(self.index, kind);
        let lin = self.linear_mut(kind);
        let mut lent = tap.as_mut().and_then(|tap| tap.lend_dw(id, lin.dims()));
        let dx = lin.backward_to(dy, cache, rng, lent.as_mut());
        if let Some(tap) = tap {
            tap.backward(id, dy, lent.as_ref().unwrap_or(lin.weight().grad()), &dx);
            if let Some(dw) = lent {
                tap.reclaim_dw(dw);
            }
        }
        dx
    }

    /// Forward pass over `(batch·seq) × hidden` activations. Each layer
    /// input is made once and shared by the layers that read it (a handle
    /// each); the block input and `x2` move into the norm caches, and the
    /// residual sums `o + x`, `d + x2` read them back from there (the bits
    /// of `x + o`, `x2 + d` but for a NaN payload, which Rust leaves open).
    pub fn forward(
        &self,
        x: Tensor,
        batch: usize,
        seq: usize,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> (Tensor, BlockCache) {
        // Attention half.
        let (xn1, nc1) = self.attn_norm.forward(x);
        let xn1 = Arc::new(xn1);
        let (q, qc) = self.fwd_linear(LayerKind::Q, xn1.clone(), rng, tap);
        let (k, kc) = self.fwd_linear(LayerKind::K, xn1.clone(), rng, tap);
        let (v, vc) = self.fwd_linear(LayerKind::V, xn1, rng, tap);
        let (attn_out, ac) = self.attention.forward(&q, &k, &v, batch, seq);
        let (mut x2, oc) = self.fwd_linear(LayerKind::O, Arc::new(attn_out), rng, tap);
        x2.add_assign(&nc1.x); // o + x: the residual

        // MLP half (SwiGLU).
        let (xn2, nc2) = self.mlp_norm.forward(x2);
        let xn2 = Arc::new(xn2);
        let (gate_out, gc) = self.fwd_linear(LayerKind::Gate, xn2.clone(), rng, tap);
        let (up_out, uc) = self.fwd_linear(LayerKind::Up, xn2, rng, tap);
        let a = gate_out.zip(&up_out, |g, u| silu(g) * u);
        let (mut y, dc) = self.fwd_linear(LayerKind::Down, Arc::new(a), rng, tap);
        y.add_assign(&nc2.x); // d + x2: the residual

        (
            y,
            BlockCache {
                nc1,
                qc,
                kc,
                vc,
                ac,
                oc,
                nc2,
                gc,
                uc,
                dc,
                gate_out,
                up_out,
            },
        )
    }

    /// Backward pass; returns the gradient w.r.t. the block input, writes
    /// the linear weights' gradients and accumulates the norm gains'.
    pub fn backward(
        &mut self,
        dy: &Tensor,
        cache: &BlockCache,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> Tensor {
        // y = x2 + down(a)
        let da = self.bwd_linear(LayerKind::Down, dy, &cache.dc, rng, tap);
        // a = silu(gate_out) ⊙ up_out
        let dgate = da
            .zip(&cache.up_out, |d, u| d * u)
            .zip(&cache.gate_out, |d, g| d * silu_grad(g));
        let dup = da.zip(&cache.gate_out, |d, g| d * silu(g));
        let mut dxn2 = self.bwd_linear(LayerKind::Gate, &dgate, &cache.gc, rng, tap);
        dxn2.add_assign(&self.bwd_linear(LayerKind::Up, &dup, &cache.uc, rng, tap));
        let mut dx2 = self.mlp_norm.backward(&dxn2, &cache.nc2);
        dx2.add_assign(dy); // residual path

        // x2 = x + o(attn_out)
        let dattn_out = self.bwd_linear(LayerKind::O, &dx2, &cache.oc, rng, tap);
        let (dq, dk, dv) = self.attention.backward(&dattn_out, &cache.ac);
        let mut dxn1 = self.bwd_linear(LayerKind::Q, &dq, &cache.qc, rng, tap);
        dxn1.add_assign(&self.bwd_linear(LayerKind::K, &dk, &cache.kc, rng, tap));
        dxn1.add_assign(&self.bwd_linear(LayerKind::V, &dv, &cache.vc, rng, tap));
        let mut dx = self.attn_norm.backward(&dxn1, &cache.nc1);
        dx.add_assign(&dx2); // residual path

        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use snip_quant::{LinearPrecision, TensorRole};
    use snip_tensor::bf16::round_slice;
    use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn};

    fn tiny_block() -> (Block, ModelConfig, Rng) {
        let cfg = ModelConfig::tiny_test();
        let mut rng = Rng::seed_from(81);
        let block = Block::new(0, &cfg, &mut rng);
        (block, cfg, rng)
    }

    #[test]
    fn forward_preserves_shape_and_is_finite() {
        let (block, cfg, mut rng) = tiny_block();
        let x = Tensor::randn(2 * 8, cfg.hidden, 1.0, &mut rng);
        let (y, _) = block.forward(x.clone(), 2, 8, &mut rng, &mut None);
        assert_eq!(y.shape(), x.shape());
        assert!(y.all_finite());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (mut block, cfg, mut rng) = tiny_block();
        block.set_exact_mode(true);
        let x = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        let r = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        let (_, cache) = block.forward(x.clone(), 1, 4, &mut rng, &mut None);
        let dx = block.backward(&r, &cache, &mut rng, &mut None);

        let loss = |block: &Block, x: &Tensor, rng: &mut Rng| -> f64 {
            block
                .forward(x.clone(), 1, 4, rng, &mut None)
                .0
                .mul(&r)
                .sum()
        };
        for &(i, j) in &[(0usize, 0usize), (1, 7), (3, 15)] {
            let h = 1e-2f32;
            let mut p = x.clone();
            p[(i, j)] += h;
            let mut m = x.clone();
            m[(i, j)] -= h;
            let fd = (loss(&block, &p, &mut rng) - loss(&block, &m, &mut rng)) / (2.0 * h as f64);
            let an = dx[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "dx[{i},{j}]: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let (mut block, cfg, mut rng) = tiny_block();
        block.set_exact_mode(true);
        let x = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        let r = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        block.visit_params_mut(&mut |p| p.zero_grad());
        let (_, cache) = block.forward(x.clone(), 1, 4, &mut rng, &mut None);
        let _ = block.backward(&r, &cache, &mut rng, &mut None);

        // Check one weight entry in several layers, including V and Down
        // (the sensitive layers per paper Fig. 10).
        for kind in [LayerKind::V, LayerKind::Down, LayerKind::Gate, LayerKind::O] {
            let an = block.linear(kind).weight().grad()[(0, 1)] as f64;
            let h = 1e-2f32;
            let mut bp = block.clone();
            bp.linear_mut(kind).weight_mut().value_mut()[(0, 1)] += h;
            let mut bm = block.clone();
            bm.linear_mut(kind).weight_mut().value_mut()[(0, 1)] -= h;
            let lp = bp
                .forward(x.clone(), 1, 4, &mut rng, &mut None)
                .0
                .mul(&r)
                .sum();
            let lm = bm
                .forward(x.clone(), 1, 4, &mut rng, &mut None)
                .0
                .mul(&r)
                .sum();
            let fd = (lp - lm) / (2.0 * h as f64);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "{kind}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn recording_captures_all_seven_layers() {
        let (mut block, cfg, mut rng) = tiny_block();
        let x = Tensor::randn(4, cfg.hidden, 1.0, &mut rng);
        let mut rec = crate::record::StepRecord::with_layers(14);
        {
            let mut rec_ref: Option<&mut dyn LayerTap> = Some(&mut rec);
            let (y, cache) = block.forward(x.clone(), 1, 4, &mut rng, &mut rec_ref);
            let _ = block.backward(&y, &cache, &mut rng, &mut rec_ref);
        }
        for kind in LayerKind::ALL {
            let lr = rec.layer(LayerId::new(0, kind));
            assert!(lr.x.frobenius_norm() > 0.0, "{kind} x missing");
            assert!(lr.w.frobenius_norm() > 0.0, "{kind} w missing");
            assert!(lr.dy.frobenius_norm() > 0.0, "{kind} dy missing");
            assert!(lr.dw.frobenius_norm() > 0.0, "{kind} dw missing");
            assert!(lr.y_norm > 0.0, "{kind} y_norm missing");
            assert!(lr.dx_norm > 0.0, "{kind} dx_norm missing");
        }
        // Block 1's records remain untouched.
        let untouched = rec.layer(LayerId::new(1, LayerKind::Q));
        assert_eq!(untouched.x.frobenius_norm(), 0.0);
    }

    /// The fake-quantization data flow of one linear layer: it
    /// fake-quantizes its own copy of each operand (exact mode: takes them
    /// as they are) and rounds each GEMM output to BF16 (exact: keeps it).
    struct FakeQuant(bool);

    impl FakeQuant {
        fn quantize(&self, lin: &Linear, role: TensorRole, t: &Tensor, rng: &mut Rng) -> Tensor {
            if self.0 {
                t.clone()
            } else {
                lin.quantizer(role).fake_quantize(t, rng)
            }
        }

        fn round(&self, mut t: Tensor) -> Tensor {
            if !self.0 {
                round_slice(t.as_mut_slice());
            }
            t
        }

        /// `Y` and the operand copies.
        fn forward(&self, lin: &Linear, x: &Tensor, rng: &mut Rng) -> (Tensor, [Tensor; 2]) {
            let qx = self.quantize(lin, TensorRole::Input, x, rng);
            let qw = self.quantize(lin, TensorRole::Weight, lin.weight().value(), rng);
            (self.round(matmul_nt(&qx, &qw)), [qx, qw])
        }

        /// `dX` and `0 + dW`, the gradient a zeroed accumulator held.
        fn backward(
            &self,
            lin: &Linear,
            dy: &Tensor,
            [qx, qw]: &[Tensor; 2],
            rng: &mut Rng,
        ) -> (Tensor, Tensor) {
            let qdy = self.quantize(lin, TensorRole::OutputGrad, dy, rng);
            let dw = self.round(matmul_tn(&qdy, qx)).map(|v| 0.0 + v);
            (self.round(matmul(&qdy, qw)), dw)
        }
    }

    /// [`Block::forward`] and [`Block::backward`] written out over
    /// [`FakeQuant`] layers — every layer with its own operand copies, the
    /// residual sums as `x + o` and `x2 + d` — on a clone of `block`.
    /// Returns `Y`, `dX` and the seven `dW` in [`LayerKind::ALL`] order.
    fn fake_quant_pass(
        block: &Block,
        exact: bool,
        x: &Tensor,
        dy: &Tensor,
        rng: &mut Rng,
    ) -> (Tensor, Tensor, Vec<Tensor>) {
        let f = FakeQuant(exact);
        let mut b = block.clone();
        let (xn1, nc1) = b.attn_norm.forward(x.clone());
        let (q, cq) = f.forward(&b.wq, &xn1, rng);
        let (k, ck) = f.forward(&b.wk, &xn1, rng);
        let (v, cv) = f.forward(&b.wv, &xn1, rng);
        let (attn_out, ac) = b.attention.forward(&q, &k, &v, 1, x.rows());
        let (o, co) = f.forward(&b.wo, &attn_out, rng);
        let x2 = x.add(&o);
        let (xn2, nc2) = b.mlp_norm.forward(x2.clone());
        let (g, cg) = f.forward(&b.gate, &xn2, rng);
        let (u, cu) = f.forward(&b.up, &xn2, rng);
        let a = g.zip(&u, |g, u| silu(g) * u);
        let (d, cd) = f.forward(&b.down, &a, rng);
        let y = x2.add(&d);

        let (da, dw_down) = f.backward(&b.down, dy, &cd, rng);
        let dgate = da.zip(&u, |d, u| d * u).zip(&g, |d, g| d * silu_grad(g));
        let dup = da.zip(&g, |d, g| d * silu(g));
        let (mut dxn2, dw_gate) = f.backward(&b.gate, &dgate, &cg, rng);
        let (dxn2_up, dw_up) = f.backward(&b.up, &dup, &cu, rng);
        dxn2.add_assign(&dxn2_up);
        let mut dx2 = b.mlp_norm.backward(&dxn2, &nc2);
        dx2.add_assign(dy);
        let (dattn_out, dw_o) = f.backward(&b.wo, &dx2, &co, rng);
        let (dq, dk, dv) = b.attention.backward(&dattn_out, &ac);
        let (mut dxn1, dw_q) = f.backward(&b.wq, &dq, &cq, rng);
        let (dxn1_k, dw_k) = f.backward(&b.wk, &dk, &ck, rng);
        let (dxn1_v, dw_v) = f.backward(&b.wv, &dv, &cv, rng);
        dxn1.add_assign(&dxn1_k);
        dxn1.add_assign(&dxn1_v);
        let mut dx = b.attn_norm.backward(&dxn1, &nc1);
        dx.add_assign(&dx2);
        (y, dx, vec![dw_q, dw_k, dw_v, dw_o, dw_gate, dw_up, dw_down])
    }

    /// Q, K and V share one input handle, Gate and Up another, under a
    /// scheme that mixes in-place reads with packed ones: outputs, `dX`,
    /// every `dW` and the draws equal the data flow in which each layer
    /// fake-quantizes its own copy, bit for bit, and in exact mode too.
    #[test]
    fn shared_inputs_match_the_fake_quant_data_flow_bit_for_bit() {
        use snip_quant::Precision::{Bf16, Fp4, Fp8};
        let scheme = [Bf16, Fp4, Bf16, Fp8, Bf16, Fp4, Bf16];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for exact in [false, true] {
            let (mut block, cfg, mut rng) = tiny_block();
            for (kind, p) in LayerKind::ALL.into_iter().zip(scheme) {
                block
                    .linear_mut(kind)
                    .set_precision(LinearPrecision::uniform(p));
            }
            block.set_exact_mode(exact);
            let x = Tensor::randn(8, cfg.hidden, 1.0, &mut rng);
            let dy = Tensor::randn(8, cfg.hidden, 1.0, &mut rng);
            let mut rng_ref = rng.clone();
            let (y_ref, dx_ref, dw_ref) = fake_quant_pass(&block, exact, &x, &dy, &mut rng_ref);

            let (y, cache) = block.forward(x, 1, 8, &mut rng, &mut None);
            let held = |kind| cache.linear(kind).qx.source().map(Arc::as_ptr);
            assert_eq!(held(LayerKind::Q), held(LayerKind::V), "exact {exact}");
            assert!(held(LayerKind::Q).is_some(), "exact {exact}");
            assert_eq!(held(LayerKind::K).is_some(), exact);
            let dx = block.backward(&dy, &cache, &mut rng, &mut None);

            assert_eq!(bits(&y), bits(&y_ref), "Y, exact {exact}");
            assert_eq!(bits(&dx), bits(&dx_ref), "dX, exact {exact}");
            for (kind, want) in LayerKind::ALL.into_iter().zip(&dw_ref) {
                let got = block.linear(kind).weight().grad();
                assert_eq!(bits(got), bits(want), "dW {kind}, exact {exact}");
            }
            assert_eq!(rng.next_u64(), rng_ref.next_u64(), "draws, exact {exact}");
        }
    }

    #[test]
    fn precision_is_per_layer() {
        use snip_quant::Precision;
        let (mut block, _, _) = tiny_block();
        block
            .linear_mut(LayerKind::V)
            .set_precision(LinearPrecision::uniform(Precision::Fp4));
        assert_eq!(
            block.linear(LayerKind::V).precision(),
            LinearPrecision::uniform(Precision::Fp4)
        );
        assert_eq!(
            block.linear(LayerKind::Q).precision(),
            LinearPrecision::default()
        );
    }
}
