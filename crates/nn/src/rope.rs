//! Rotary positional embeddings (RoPE), applied to Q and K projections.

use snip_tensor::Tensor;

/// Precomputed RoPE rotation tables for a maximum sequence length and head
/// dimension.
#[derive(Clone, Debug)]
pub(crate) struct Rope {
    head_dim: usize,
    max_seq: usize,
    /// `cos[t][i]`, `sin[t][i]` for pair index `i < head_dim/2`.
    cos: Vec<Vec<f32>>,
    sin: Vec<Vec<f32>>,
}

impl Rope {
    /// Builds tables for positions `0..max_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd.
    pub fn new(head_dim: usize, max_seq: usize, theta: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "head_dim must be even");
        let half = head_dim / 2;
        let mut cos = Vec::with_capacity(max_seq);
        let mut sin = Vec::with_capacity(max_seq);
        for t in 0..max_seq {
            let mut ct = Vec::with_capacity(half);
            let mut st = Vec::with_capacity(half);
            for i in 0..half {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let angle = t as f32 * freq;
                ct.push(angle.cos());
                st.push(angle.sin());
            }
            cos.push(ct);
            sin.push(st);
        }
        Rope {
            head_dim,
            max_seq,
            cos,
            sin,
        }
    }

    /// Rotates each row of a `seq × head_dim` tensor by its position's angle.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is wider than `head_dim` or longer than `max_seq`.
    pub fn apply(&self, x: &mut Tensor) {
        self.rotate(x, false);
    }

    /// Inverse rotation — the exact adjoint of [`Rope::apply`], used in the
    /// backward pass (rotations are orthonormal, so the adjoint is the
    /// rotation by the negated angle).
    pub(crate) fn apply_transposed(&self, x: &mut Tensor) {
        self.rotate(x, true);
    }

    fn rotate(&self, x: &mut Tensor, inverse: bool) {
        let (seq, dim) = x.shape();
        assert_eq!(dim, self.head_dim, "width mismatch");
        assert!(seq <= self.max_seq, "sequence longer than RoPE table");
        let half = dim / 2;
        for t in 0..seq {
            let row = x.row_mut(t);
            let (c, s) = (&self.cos[t], &self.sin[t]);
            for i in 0..half {
                let (a, b) = (row[2 * i], row[2 * i + 1]);
                let (ci, si) = (c[i], if inverse { -s[i] } else { s[i] });
                row[2 * i] = a * ci - b * si;
                row[2 * i + 1] = a * si + b * ci;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::rng::Rng;

    #[test]
    fn rotation_preserves_norm() {
        let mut rng = Rng::seed_from(41);
        let rope = Rope::new(8, 16, 10_000.0);
        let x = Tensor::randn(16, 8, 1.0, &mut rng);
        let mut y = x.clone();
        rope.apply(&mut y);
        for t in 0..16 {
            let nx: f32 = x.row(t).iter().map(|v| v * v).sum();
            let ny: f32 = y.row(t).iter().map(|v| v * v).sum();
            assert!((nx - ny).abs() < 1e-4, "t={t}");
        }
    }

    #[test]
    fn position_zero_is_identity() {
        let mut rng = Rng::seed_from(42);
        let rope = Rope::new(8, 4, 10_000.0);
        let x = Tensor::randn(1, 8, 1.0, &mut rng);
        let mut y = x.clone();
        rope.apply(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn inverse_rotation_round_trips() {
        let mut rng = Rng::seed_from(43);
        let rope = Rope::new(6, 12, 10_000.0);
        let x = Tensor::randn(12, 6, 1.0, &mut rng);
        let mut y = x.clone();
        rope.apply(&mut y);
        rope.apply_transposed(&mut y);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn adjoint_property() {
        // <R x, y> == <x, Rᵀ y>
        let mut rng = Rng::seed_from(44);
        let rope = Rope::new(4, 8, 10_000.0);
        let x = Tensor::randn(8, 4, 1.0, &mut rng);
        let y = Tensor::randn(8, 4, 1.0, &mut rng);
        let mut rx = x.clone();
        rope.apply(&mut rx);
        let mut rty = y.clone();
        rope.apply_transposed(&mut rty);
        let lhs = snip_tensor::ops::dot(rx.as_slice(), y.as_slice());
        let rhs = snip_tensor::ops::dot(x.as_slice(), rty.as_slice());
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn relative_position_property() {
        // RoPE inner products depend only on relative position: the dot of
        // rotated vectors at (t1, t2) equals that at (t1+d, t2+d).
        let rope = Rope::new(4, 32, 10_000.0);
        let q = vec![0.3f32, -0.7, 1.1, 0.2];
        let k = vec![-0.5f32, 0.4, 0.9, -1.3];
        let dot_at = |tq: usize, tk: usize| -> f32 {
            let mut qq = Tensor::zeros(tq + 1, 4);
            qq.row_mut(tq).copy_from_slice(&q);
            let mut kk = Tensor::zeros(tk + 1, 4);
            kk.row_mut(tk).copy_from_slice(&k);
            rope.apply(&mut qq);
            rope.apply(&mut kk);
            qq.row(tq).iter().zip(kk.row(tk)).map(|(a, b)| a * b).sum()
        };
        let d1 = dot_at(5, 3);
        let d2 = dot_at(9, 7);
        assert!((d1 - d2).abs() < 1e-4, "{d1} vs {d2}");
    }
}
