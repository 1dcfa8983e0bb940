//! Multi-head causal self-attention (computed in high precision — the paper
//! quantizes only the Q/K/V/O *projections*, not the attention math, §2.2).

use crate::rope::Rope;
use snip_tensor::{
    gemm_into,
    matmul::{matmul, matmul_nt, matmul_tn},
    ops::softmax_rows_inplace,
    pool, Tensor,
};
use snip_tensor::{Orientation::Nt, Round::Keep};

/// Scaled-dot-product multi-head attention with causal masking and RoPE.
///
/// Operates on already-projected Q/K/V activations of shape
/// `(batch·seq) × hidden`; heads are interpreted as contiguous column blocks
/// of width `head_dim`.
///
/// Sequences are independent, so both passes run one pool task per
/// sequence: a task owns that sequence's row band of every tensor it writes
/// and walks the heads in order, computing exactly what a batch of one
/// would. Results are bit-identical on every pool split. The probabilities
/// a cache keeps are allocated on the calling thread, not by a pool worker.
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

/// The row bands of `t`, `band` elements (one sequence) each; none for
/// empty sequences (`chunks_mut(0)` would panic).
fn bands(t: &mut Tensor, band: usize) -> std::slice::ChunksMut<'_, f32> {
    t.as_mut_slice().chunks_mut(band.max(1))
}

/// Row band `b` of `t`, `band` elements (one sequence) long.
fn band(t: &Tensor, b: usize, band: usize) -> &[f32] {
    &t.as_slice()[b * band..(b + 1) * band]
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

    /// Head `h`'s columns of each row of a `seq × hidden` band, as a
    /// `seq × head_dim` tensor.
    fn head(&self, band: &[f32], h: usize) -> Tensor {
        let cols = h * self.head_dim..(h + 1) * self.head_dim;
        let mut out = Tensor::zeros(band.len() / self.hidden(), self.head_dim);
        let rows = out.as_mut_slice().chunks_exact_mut(self.head_dim);
        for (dst, src) in rows.zip(band.chunks_exact(self.hidden())) {
            dst.copy_from_slice(&src[cols.clone()]);
        }
        out
    }

    /// `f(band element, head element)` over head `h`'s columns of a band.
    fn write_head(&self, band: &mut [f32], h: usize, slice: &Tensor, f: impl Fn(&mut f32, f32)) {
        let cols = h * self.head_dim..(h + 1) * self.head_dim;
        let rows = band.chunks_exact_mut(self.hidden());
        for (dst, src) in rows.zip(slice.as_slice().chunks_exact(self.head_dim)) {
            for (d, &s) in dst[cols.clone()].iter_mut().zip(src) {
                f(d, s);
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
        let _span = snip_obs::span("nn.attention.fwd");
        let hidden = self.hidden();
        assert_eq!(q.shape(), (batch * seq, hidden), "bad q shape");
        assert_eq!(k.shape(), q.shape(), "bad k shape");
        assert_eq!(v.shape(), q.shape(), "bad v shape");
        let width = seq * hidden;

        // RoPE rotates q and k in place, head by head.
        let mut q_rot = q.clone();
        let mut k_rot = k.clone();
        let mut out = Tensor::zeros(batch * seq, hidden);
        let mut probs = vec![Tensor::zeros(seq, seq); batch * self.n_heads];
        let tasks = bands(&mut out, width)
            .zip(bands(&mut q_rot, width))
            .zip(bands(&mut k_rot, width))
            .zip(probs.chunks_mut(self.n_heads.max(1)))
            .map(|(((o, q), k), p)| (o, q, k, p))
            .collect();
        pool::for_each_owned(tasks, |b, (out, q_rot, k_rot, probs)| {
            self.forward_sequence(q_rot, k_rot, band(v, b, width), out, probs);
        });
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

    /// The forward pass of one sequence, heads in order: rotates its
    /// `q_rot` / `k_rot` bands (copies of q and k) in place, writes its
    /// `out` band and writes each head's probabilities into `probs`.
    fn forward_sequence(
        &self,
        q_rot: &mut [f32],
        k_rot: &mut [f32],
        v: &[f32],
        out: &mut [f32],
        probs: &mut [Tensor],
    ) {
        let seq = v.len() / self.hidden();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        for (h, scores) in probs.iter_mut().enumerate() {
            let mut qh = self.head(q_rot, h);
            let mut kh = self.head(k_rot, h);
            self.rope.apply(&mut qh);
            self.rope.apply(&mut kh);
            self.write_head(q_rot, h, &qh, |d, s| *d = s);
            self.write_head(k_rot, h, &kh, |d, s| *d = s);

            let vh = self.head(v, h);
            gemm_into(scores, (&qh).into(), (&kh).into(), Nt, Keep);
            scores.scale(scale);
            // Causal mask: position i attends to j ≤ i.
            for i in 0..seq {
                let row = scores.row_mut(i);
                for v in &mut row[i + 1..] {
                    *v = f32::NEG_INFINITY;
                }
            }
            softmax_rows_inplace(scores);
            let attended = matmul(scores, &vh);
            self.write_head(out, h, &attended, |d, s| *d = s);
        }
    }

    /// Backward pass: gradient w.r.t. the *pre-RoPE* q, k and v.
    pub fn backward(&self, dout: &Tensor, cache: &AttentionCache) -> (Tensor, Tensor, Tensor) {
        let _span = snip_obs::span("nn.attention.bwd");
        let (batch, seq) = (cache.batch, cache.seq);
        let hidden = self.hidden();
        let width = seq * hidden;
        let mut dq = Tensor::zeros(batch * seq, hidden);
        let mut dk = Tensor::zeros(batch * seq, hidden);
        let mut dv = Tensor::zeros(batch * seq, hidden);
        let tasks = bands(&mut dq, width)
            .zip(bands(&mut dk, width))
            .zip(bands(&mut dv, width))
            .map(|((dq, dk), dv)| [dq, dk, dv])
            .collect();
        pool::for_each_owned(tasks, |b, grads| {
            let heads = b * self.n_heads..(b + 1) * self.n_heads;
            let [dout, q_rot, k_rot, v] =
                [dout, &cache.q_rot, &cache.k_rot, &cache.v].map(|t| band(t, b, width));
            self.backward_sequence(dout, [q_rot, k_rot, v], &cache.probs[heads], grads);
        });
        (dq, dk, dv)
    }

    /// The backward pass of one sequence, heads in order: adds each head's
    /// `[dq, dk, dv]` into the sequence's (zeroed) gradient bands.
    fn backward_sequence(
        &self,
        dout: &[f32],
        [q_rot, k_rot, v]: [&[f32]; 3],
        probs: &[Tensor],
        [dq, dk, dv]: [&mut [f32]; 3],
    ) {
        let seq = v.len() / self.hidden();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let add = |d: &mut f32, s: f32| *d += s;
        for (h, p) in probs.iter().enumerate() {
            let da = self.head(dout, h);
            let qh = self.head(q_rot, h);
            let kh = self.head(k_rot, h);
            let vh = self.head(v, h);

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

            self.write_head(dq, h, &dqh, add);
            self.write_head(dk, h, &dkh, add);
            self.write_head(dv, h, &dvh, add);
        }
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

    /// Rows `b·seq .. (b+1)·seq` of `t`: sequence `b` of a batch.
    fn sequence(t: &Tensor, b: usize, seq: usize) -> Tensor {
        Tensor::from_fn(seq, t.cols(), |r, c| t[(b * seq + r, c)])
    }

    fn bits<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> Vec<u32> {
        ts.into_iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Forward outputs, the cache's `probs` and backward `dq` / `dk` / `dv`
    /// over a batch equal, bit for bit, the single-sequence calls stacked
    /// (the oracle runs on one thread), at splits 1, 2, the pool size and
    /// the pool size + 3.
    fn check_against_single_sequences(attn: &Attention, batch: usize, seq: usize, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let [q, k, v, dout] =
            [(); 4].map(|_| Tensor::randn(batch * seq, attn.hidden(), 0.7, &mut rng));
        let singles: Vec<_> = pool::with_threads(1, || {
            (0..batch)
                .map(|b| {
                    let [q, k, v, dout] = [&q, &k, &v, &dout].map(|t| sequence(t, b, seq));
                    let (out, cache) = attn.forward(&q, &k, &v, 1, seq);
                    let grads = attn.backward(&dout, &cache);
                    (out, cache.probs, grads)
                })
                .collect()
        });
        let want = [
            bits(singles.iter().map(|s| &s.0)),
            bits(singles.iter().flat_map(|s| &s.1)),
            bits(singles.iter().map(|s| &s.2 .0)),
            bits(singles.iter().map(|s| &s.2 .1)),
            bits(singles.iter().map(|s| &s.2 .2)),
        ];
        for split in [1, 2, pool::size(), pool::size() + 3] {
            let (out, cache, (dq, dk, dv)) = pool::with_threads(split, || {
                let (out, cache) = attn.forward(&q, &k, &v, batch, seq);
                let grads = attn.backward(&dout, &cache);
                (out, cache, grads)
            });
            assert_eq!(cache.probs.len(), batch * attn.n_heads);
            let got = [
                bits([&out]),
                bits(&cache.probs),
                bits([&dq]),
                bits([&dk]),
                bits([&dv]),
            ];
            let names = ["out", "probs", "dq", "dk", "dv"];
            for ((name, got), want) in names.iter().zip(&got).zip(&want) {
                assert!(
                    got == want,
                    "{name} differs at split {split} (batch {batch}, seq {seq})"
                );
            }
        }
    }

    #[test]
    fn attention_batches_equal_stacked_single_sequences() {
        let cfg = crate::config::ModelConfig::tiny_test();
        let tiny = Attention::new(cfg.n_heads, cfg.head_dim(), cfg.max_seq, cfg.rope_theta);
        check_against_single_sequences(&tiny, 2, 16, 61);
        check_against_single_sequences(&tiny, 3, 5, 62);
        let wide = Attention::new(12, 64, 64, 10_000.0);
        check_against_single_sequences(&wide, 4, 64, 63);
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
