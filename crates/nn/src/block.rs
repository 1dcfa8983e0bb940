//! Llama transformer block (paper Fig. 4): RMSNorm → Q/K/V → attention → O,
//! then RMSNorm → Gate/Up → SwiGLU → Down, with residual connections.

use crate::attention::{Attention, AttentionCache};
use crate::config::ModelConfig;
use crate::layers::{LayerId, LayerKind};
use crate::linear::{Linear, LinearCache};
use crate::norm::{RmsNorm, RmsNormCache};
use crate::param::Param;
use crate::record::LayerTap;
use serde::{Deserialize, Serialize};
use snip_tensor::{
    ops::{silu, silu_grad},
    rng::Rng,
    Tensor,
};

/// One transformer block with its seven quantizable linear layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
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

    /// Resident bytes of the seven saved linear-layer operand pairs — the
    /// part of the backward-pass footprint the packed representation
    /// shrinks (subbyte precisions store `qx`/`qw` bit-packed).
    pub fn linear_cache_bytes(&self) -> usize {
        LayerKind::ALL
            .iter()
            .map(|&kind| self.linear(kind).resident_bytes())
            .sum()
    }
}

impl Block {
    /// Builds block `index` of a model. Residual-writing projections (O and
    /// Down) use a `1/√(2·n_layers)` init gain for depth stability.
    pub fn new(index: usize, cfg: &ModelConfig, rng: &mut Rng) -> Self {
        let h = cfg.hidden;
        let f = cfg.ffn_hidden;
        let residual_gain = 1.0 / (2.0 * cfg.n_layers as f32).sqrt();
        let g = cfg.quant_group;
        let name = |k: &str| format!("block{index}.{k}");
        Block {
            index,
            attn_norm: RmsNorm::new(name("attn_norm"), h),
            wq: Linear::new(name("q"), h, h, 1.0, g, rng),
            wk: Linear::new(name("k"), h, h, 1.0, g, rng),
            wv: Linear::new(name("v"), h, h, 1.0, g, rng),
            wo: Linear::new(name("o"), h, h, residual_gain, g, rng),
            attention: Attention::new(cfg.n_heads, cfg.head_dim(), cfg.max_seq, cfg.rope_theta),
            mlp_norm: RmsNorm::new(name("mlp_norm"), h),
            gate: Linear::new(name("gate"), f, h, 1.0, g, rng),
            up: Linear::new(name("up"), f, h, 1.0, g, rng),
            down: Linear::new(name("down"), h, f, residual_gain, g, rng),
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
    pub fn linear_mut(&mut self, kind: LayerKind) -> &mut Linear {
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

    /// Switches every linear layer of the block to exact (f32) math.
    pub fn set_exact_mode(&mut self, exact: bool) {
        for kind in LayerKind::ALL {
            self.linear_mut(kind).set_exact_mode(exact);
        }
    }

    /// Visits every trainable parameter of the block in a fixed order.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(self.attn_norm.gain_mut());
        for kind in LayerKind::ALL {
            f(self.linear_mut(kind).weight_mut());
        }
        f(self.mlp_norm.gain_mut());
    }

    fn fwd_linear(
        &self,
        kind: LayerKind,
        x: &Tensor,
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
        match tap {
            Some(tap) => {
                let (dx, dw) = lin.backward_recorded(dy, cache, rng);
                tap.backward(id, dy, dw, &dx);
                dx
            }
            None => lin.backward(dy, cache, rng),
        }
    }

    /// Forward pass over `(batch·seq) × hidden` activations.
    pub fn forward(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        rng: &mut Rng,
        tap: &mut Option<&mut dyn LayerTap>,
    ) -> (Tensor, BlockCache) {
        // Attention half.
        let (xn1, nc1) = self.attn_norm.forward(x);
        let (q, qc) = self.fwd_linear(LayerKind::Q, &xn1, rng, tap);
        let (k, kc) = self.fwd_linear(LayerKind::K, &xn1, rng, tap);
        let (v, vc) = self.fwd_linear(LayerKind::V, &xn1, rng, tap);
        let (attn_out, ac) = self.attention.forward(&q, &k, &v, batch, seq);
        let (o, oc) = self.fwd_linear(LayerKind::O, &attn_out, rng, tap);
        let x2 = x.add(&o);

        // MLP half (SwiGLU).
        let (xn2, nc2) = self.mlp_norm.forward(&x2);
        let (gate_out, gc) = self.fwd_linear(LayerKind::Gate, &xn2, rng, tap);
        let (up_out, uc) = self.fwd_linear(LayerKind::Up, &xn2, rng, tap);
        let a = gate_out.zip(&up_out, |g, u| silu(g) * u);
        let (d, dc) = self.fwd_linear(LayerKind::Down, &a, rng, tap);
        let y = x2.add(&d);

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

    /// Backward pass; returns the gradient w.r.t. the block input and
    /// accumulates parameter gradients.
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
    use snip_quant::LinearPrecision;

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
        let (y, _) = block.forward(&x, 2, 8, &mut rng, &mut None);
        assert_eq!(y.shape(), x.shape());
        assert!(y.all_finite());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (mut block, cfg, mut rng) = tiny_block();
        block.set_exact_mode(true);
        let x = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        let r = Tensor::randn(4, cfg.hidden, 0.5, &mut rng);
        let (_, cache) = block.forward(&x, 1, 4, &mut rng, &mut None);
        let dx = block.backward(&r, &cache, &mut rng, &mut None);

        let loss = |block: &Block, x: &Tensor, rng: &mut Rng| -> f64 {
            block.forward(x, 1, 4, rng, &mut None).0.mul(&r).sum()
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
        let (_, cache) = block.forward(&x, 1, 4, &mut rng, &mut None);
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
            let lp = bp.forward(&x, 1, 4, &mut rng, &mut None).0.mul(&r).sum();
            let lm = bm.forward(&x, 1, 4, &mut rng, &mut None).0.mul(&r).sum();
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
            let (y, cache) = block.forward(&x, 1, 4, &mut rng, &mut rec_ref);
            let _ = block.backward(&y, &cache, &mut rng, &mut rec_ref);
        }
        for kind in LayerKind::ALL {
            let lr = rec.layer(LayerId::new(0, kind));
            assert!(lr.x_norm() > 0.0, "{kind} x missing");
            assert!(lr.w_norm() > 0.0, "{kind} w missing");
            assert!(lr.dy_norm() > 0.0, "{kind} dy missing");
            assert!(lr.dw_norm() > 0.0, "{kind} dw missing");
            assert!(lr.y_norm > 0.0, "{kind} y_norm missing");
            assert!(lr.dx_norm > 0.0, "{kind} dx_norm missing");
        }
        // Block 1's records remain untouched.
        assert_eq!(rec.layer(LayerId::new(1, LayerKind::Q)).x_norm(), 0.0);
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
