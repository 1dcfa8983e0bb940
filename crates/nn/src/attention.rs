//! Multi-head causal self-attention (computed in high precision — the paper
//! quantizes only the Q/K/V/O *projections*, not the attention math, §2.2).

use crate::rope::Rope;
use snip_tensor::{
    matmul::{matmul, matmul_nt, matmul_tn},
    ops::softmax_rows_inplace,
    Tensor,
};

/// Scaled-dot-product multi-head attention with causal masking and RoPE.
///
/// Operates on already-projected Q/K/V activations of shape
/// `(batch·seq) × hidden`; heads are interpreted as contiguous column blocks
/// of width `head_dim`.
#[derive(Clone, Debug)]
pub struct Attention {
    n_heads: usize,
    head_dim: usize,
    rope: Rope,
}

/// Saved forward state for the backward pass.
#[derive(Clone, Debug)]
pub struct AttentionCache {
    /// Post-RoPE queries, `(batch·seq) × hidden`.
    q_rot: Tensor,
    /// Post-RoPE keys.
    k_rot: Tensor,
    /// Values.
    v: Tensor,
    /// Softmax probabilities per `(batch, head)`, each `seq × seq`.
    probs: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl Attention {
    /// Creates an attention module.
    pub fn new(n_heads: usize, head_dim: usize, max_seq: usize, rope_theta: f32) -> Self {
        Attention {
            n_heads,
            head_dim,
            rope: Rope::new(head_dim, max_seq, rope_theta),
        }
    }

    /// Hidden width (`n_heads · head_dim`).
    pub fn hidden(&self) -> usize {
        self.n_heads * self.head_dim
    }

    /// Copies head `h` of sequence `b` out of a `(batch·seq) × hidden` tensor.
    fn head(&self, x: &Tensor, b: usize, h: usize, seq: usize) -> Tensor {
        let mut out = Tensor::zeros(seq, self.head_dim);
        for t in 0..seq {
            let src = &x.row(b * seq + t)[h * self.head_dim..(h + 1) * self.head_dim];
            out.row_mut(t).copy_from_slice(src);
        }
        out
    }

    /// Writes a `seq × head_dim` slice back into place.
    fn set_head(&self, x: &mut Tensor, b: usize, h: usize, seq: usize, slice: &Tensor) {
        for t in 0..seq {
            let dst = &mut x.row_mut(b * seq + t)[h * self.head_dim..(h + 1) * self.head_dim];
            dst.copy_from_slice(slice.row(t));
        }
    }

    /// Adds a `seq × head_dim` slice into place (for gradient accumulation).
    fn add_head(&self, x: &mut Tensor, b: usize, h: usize, seq: usize, slice: &Tensor) {
        for t in 0..seq {
            let dst = &mut x.row_mut(b * seq + t)[h * self.head_dim..(h + 1) * self.head_dim];
            for (d, s) in dst.iter_mut().zip(slice.row(t)) {
                *d += s;
            }
        }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes are inconsistent with `batch·seq` rows of
    /// `hidden` columns.
    pub fn forward(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        batch: usize,
        seq: usize,
    ) -> (Tensor, AttentionCache) {
        let hidden = self.hidden();
        assert_eq!(q.shape(), (batch * seq, hidden), "bad q shape");
        assert_eq!(k.shape(), q.shape(), "bad k shape");
        assert_eq!(v.shape(), q.shape(), "bad v shape");
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        // Apply RoPE to q and k, head by head.
        let mut q_rot = q.clone();
        let mut k_rot = k.clone();
        let mut out = Tensor::zeros(batch * seq, hidden);
        let mut probs = Vec::with_capacity(batch * self.n_heads);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let mut qh = self.head(q, b, h, seq);
                let mut kh = self.head(k, b, h, seq);
                self.rope.apply(&mut qh);
                self.rope.apply(&mut kh);
                self.set_head(&mut q_rot, b, h, seq, &qh);
                self.set_head(&mut k_rot, b, h, seq, &kh);

                let vh = self.head(v, b, h, seq);
                let mut scores = matmul_nt(&qh, &kh);
                scores.scale(scale);
                // Causal mask: position i attends to j ≤ i.
                for i in 0..seq {
                    let row = scores.row_mut(i);
                    for v in &mut row[i + 1..] {
                        *v = f32::NEG_INFINITY;
                    }
                }
                softmax_rows_inplace(&mut scores);
                let attended = matmul(&scores, &vh);
                self.set_head(&mut out, b, h, seq, &attended);
                probs.push(scores);
            }
        }
        (
            out,
            AttentionCache {
                q_rot,
                k_rot,
                v: v.clone(),
                probs,
                batch,
                seq,
            },
        )
    }

    /// Backward pass: gradient w.r.t. the *pre-RoPE* q, k and v.
    pub fn backward(&self, dout: &Tensor, cache: &AttentionCache) -> (Tensor, Tensor, Tensor) {
        let (batch, seq) = (cache.batch, cache.seq);
        let hidden = self.hidden();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut dq = Tensor::zeros(batch * seq, hidden);
        let mut dk = Tensor::zeros(batch * seq, hidden);
        let mut dv = Tensor::zeros(batch * seq, hidden);

        for b in 0..batch {
            for h in 0..self.n_heads {
                let p = &cache.probs[b * self.n_heads + h];
                let da = self.head(dout, b, h, seq);
                let qh = self.head(&cache.q_rot, b, h, seq);
                let kh = self.head(&cache.k_rot, b, h, seq);
                let vh = self.head(&cache.v, b, h, seq);

                // dV = Pᵀ · dA
                let dvh = matmul_tn(p, &da);
                // dP = dA · Vᵀ
                let dp = matmul_nt(&da, &vh);
                // Softmax backward per row: dS = P ⊙ (dP − rowsum(dP ⊙ P)).
                let mut ds = Tensor::zeros(seq, seq);
                for i in 0..seq {
                    let pi = p.row(i);
                    let dpi = dp.row(i);
                    let dot: f32 = pi.iter().zip(dpi).map(|(&a, &b)| a * b).sum();
                    let dsi = ds.row_mut(i);
                    for j in 0..seq {
                        dsi[j] = pi[j] * (dpi[j] - dot);
                    }
                }
                ds.scale(scale);
                // dQ_rot = dS · K ; dK_rot = dSᵀ · Q
                let mut dqh = matmul(&ds, &kh);
                let mut dkh = matmul_tn(&ds, &qh);
                // Undo RoPE (adjoint).
                self.rope.apply_transposed(&mut dqh);
                self.rope.apply_transposed(&mut dkh);

                self.add_head(&mut dq, b, h, seq, &dqh);
                self.add_head(&mut dk, b, h, seq, &dkh);
                self.add_head(&mut dv, b, h, seq, &dvh);
            }
        }
        (dq, dk, dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::rng::Rng;

    fn setup(batch: usize, seq: usize) -> (Attention, Tensor, Tensor, Tensor, Tensor) {
        let mut rng = Rng::seed_from(51);
        let attn = Attention::new(2, 4, seq, 10_000.0);
        let h = attn.hidden();
        let q = Tensor::randn(batch * seq, h, 0.7, &mut rng);
        let k = Tensor::randn(batch * seq, h, 0.7, &mut rng);
        let v = Tensor::randn(batch * seq, h, 0.7, &mut rng);
        let r = Tensor::randn(batch * seq, h, 0.7, &mut rng);
        (attn, q, k, v, r)
    }

    #[test]
    fn causality_first_token_attends_only_itself() {
        let (attn, q, k, v, _) = setup(1, 5);
        let (out, cache) = attn.forward(&q, &k, &v, 1, 5);
        assert_eq!(out.shape(), (5, 8));
        // Row 0 of each probability matrix must be one-hot on position 0.
        for p in &cache.probs {
            assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
            for j in 1..5 {
                assert_eq!(p[(0, j)], 0.0);
            }
            // And later rows must not attend to the future.
            for i in 0..5 {
                for j in (i + 1)..5 {
                    assert_eq!(p[(i, j)], 0.0, "P[{i},{j}]");
                }
            }
        }
    }

    #[test]
    fn future_tokens_do_not_affect_past_outputs() {
        let (attn, q, k, mut v, _) = setup(1, 6);
        let (out1, _) = attn.forward(&q, &k, &v, 1, 6);
        // Perturb the last position's value strongly.
        for c in 0..8 {
            v[(5, c)] += 100.0;
        }
        let (out2, _) = attn.forward(&q, &k, &v, 1, 6);
        for t in 0..5 {
            for c in 0..8 {
                assert!(
                    (out1[(t, c)] - out2[(t, c)]).abs() < 1e-5,
                    "output at t={t} changed"
                );
            }
        }
    }

    #[test]
    fn batches_are_independent() {
        let (attn, q, k, v, _) = setup(2, 4);
        let (out, _) = attn.forward(&q, &k, &v, 2, 4);
        // Re-run with only the first sequence.
        let h = attn.hidden();
        let take = |t: &Tensor| {
            let mut s = Tensor::zeros(4, h);
            for r in 0..4 {
                s.row_mut(r).copy_from_slice(t.row(r));
            }
            s
        };
        let (out_single, _) = attn.forward(&take(&q), &take(&k), &take(&v), 1, 4);
        for r in 0..4 {
            for c in 0..h {
                assert!((out[(r, c)] - out_single[(r, c)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (attn, q, k, v, r) = setup(1, 4);
        let (_, cache) = attn.forward(&q, &k, &v, 1, 4);
        let (dq, dk, dv) = attn.backward(&r, &cache);

        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| -> f64 {
            attn.forward(q, k, v, 1, 4).0.mul(&r).sum()
        };
        let h = 1e-3f32;
        // dQ
        for &(i, j) in &[(0usize, 0usize), (2, 5), (3, 7)] {
            let mut p = q.clone();
            p[(i, j)] += h;
            let mut m = q.clone();
            m[(i, j)] -= h;
            let fd = (loss(&p, &k, &v) - loss(&m, &k, &v)) / (2.0 * h as f64);
            let an = dq[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "dq fd={fd} an={an}"
            );
        }
        // dK
        for &(i, j) in &[(1usize, 1usize), (3, 4)] {
            let mut p = k.clone();
            p[(i, j)] += h;
            let mut m = k.clone();
            m[(i, j)] -= h;
            let fd = (loss(&q, &p, &v) - loss(&q, &m, &v)) / (2.0 * h as f64);
            let an = dk[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "dk fd={fd} an={an}"
            );
        }
        // dV
        for &(i, j) in &[(0usize, 3usize), (2, 6)] {
            let mut p = v.clone();
            p[(i, j)] += h;
            let mut m = v.clone();
            m[(i, j)] -= h;
            let fd = (loss(&q, &k, &p) - loss(&q, &k, &m)) / (2.0 * h as f64);
            let an = dv[(i, j)] as f64;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "dv fd={fd} an={an}"
            );
        }
    }
}
