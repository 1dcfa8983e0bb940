//! Token embedding table.

use crate::param::{Init, Param};
use snip_tensor::Tensor;

/// A `vocab × hidden` embedding lookup (kept in high precision).
#[derive(Clone, Debug)]
pub(crate) struct Embedding {
    table: Param,
}

impl Embedding {
    /// Creates a `vocab × hidden` table from `init` (Gaussian with standard
    /// deviation `std` when it draws).
    pub(crate) fn init(
        name: impl Into<String>,
        vocab: usize,
        hidden: usize,
        std: f32,
        init: &mut Init,
    ) -> Self {
        Embedding {
            table: init.param(name.into(), vocab, hidden, std),
        }
    }

    /// The table parameter.
    pub fn table(&self) -> &Param {
        &self.table
    }

    /// Mutable access to the table parameter.
    pub(crate) fn table_mut(&mut self) -> &mut Param {
        &mut self.table
    }

    /// Gathers rows for the given token ids.
    ///
    /// # Panics
    ///
    /// Panics if a token id is out of range.
    pub fn forward(&self, tokens: &[u32]) -> Tensor {
        let (vocab, hidden) = self.table.value().shape();
        let mut out = Tensor::zeros(tokens.len(), hidden);
        for (r, &tok) in tokens.iter().enumerate() {
            assert!((tok as usize) < vocab, "token {tok} out of range {vocab}");
            out.row_mut(r)
                .copy_from_slice(self.table.value().row(tok as usize));
        }
        out
    }

    /// Scatter-adds `dout` into the table gradient.
    pub fn backward(&mut self, tokens: &[u32], dout: &Tensor) {
        let grad = self.table.grad_mut();
        for (r, &tok) in tokens.iter().enumerate() {
            let dst = grad.row_mut(tok as usize);
            for (d, s) in dst.iter_mut().zip(dout.row(r)) {
                *d += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::rng::Rng;

    #[test]
    fn gather_matches_table_rows() {
        let mut rng = Rng::seed_from(61);
        let emb = Embedding::init("e", 10, 4, 1.0, &mut Init::Draw(&mut rng));
        let out = emb.forward(&[3, 7, 3]);
        assert_eq!(out.row(0), emb.table().value().row(3));
        assert_eq!(out.row(1), emb.table().value().row(7));
        assert_eq!(out.row(0), out.row(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        let mut rng = Rng::seed_from(62);
        let emb = Embedding::init("e", 4, 2, 1.0, &mut Init::Draw(&mut rng));
        let _ = emb.forward(&[4]);
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut rng = Rng::seed_from(63);
        let mut emb = Embedding::init("e", 5, 3, 1.0, &mut Init::Draw(&mut rng));
        let dout = Tensor::from_vec(3, 3, vec![1.0; 9]);
        emb.backward(&[2, 2, 4], &dout);
        assert_eq!(emb.table().grad().row(2), &[2.0, 2.0, 2.0]);
        assert_eq!(emb.table().grad().row(4), &[1.0, 1.0, 1.0]);
        assert_eq!(emb.table().grad().row(0), &[0.0, 0.0, 0.0]);
    }
}
