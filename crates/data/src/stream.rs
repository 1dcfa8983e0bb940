//! Token streams and batch iterators.

use crate::synthetic::SyntheticLanguage;
use snip_nn::batch::Batch;
use snip_tensor::rng::Rng;

/// An infinite, seeded stream of training batches drawn from a synthetic
/// language. Mirrors the "sample ~1% of the original dataset" protocol of the
/// paper (§6.1): every run sees a fresh but reproducible slice of data.
#[derive(Clone, Debug)]
pub struct BatchStream {
    language: SyntheticLanguage,
    rng: Rng,
    batch_size: usize,
    seq_len: usize,
}

impl BatchStream {
    /// Creates a stream with its own RNG stream.
    pub fn new(language: SyntheticLanguage, seed: u64, batch_size: usize, seq_len: usize) -> Self {
        assert!(batch_size > 0 && seq_len > 0, "degenerate batch shape");
        BatchStream {
            language,
            rng: Rng::seed_from(seed ^ 0xBA7C_57EA),
            batch_size,
            seq_len,
        }
    }

    /// The underlying language.
    pub fn language(&self) -> &SyntheticLanguage {
        &self.language
    }

    /// Batch shape `(batch_size, seq_len)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.batch_size, self.seq_len)
    }

    /// Draws the next training batch.
    pub fn next_batch(&mut self) -> Batch {
        let sequences: Vec<Vec<u32>> = (0..self.batch_size)
            .map(|_| self.language.generate(self.seq_len + 1, &mut self.rng))
            .collect();
        Batch::from_sequences(&sequences, self.seq_len)
    }

    /// The stream's position: the RNG state the next [`BatchStream::next_batch`]
    /// draws from. Together with [`BatchStream::rewind`] this lets a caller
    /// un-draw a batch without copying the language tables.
    pub fn cursor(&self) -> Rng {
        self.rng.clone()
    }

    /// Moves the stream back (or forward) to a position taken with
    /// [`BatchStream::cursor`]; the batches drawn from there repeat exactly.
    pub fn rewind(&mut self, cursor: Rng) {
        self.rng = cursor;
    }

    /// Draws a held-out batch without advancing the training stream (a fixed
    /// validation batch derived from `seed`).
    pub fn validation_batch(&self, seed: u64) -> Batch {
        let mut rng = Rng::seed_from(seed ^ 0x7E57_DA7A);
        let sequences: Vec<Vec<u32>> = (0..self.batch_size)
            .map(|_| self.language.generate(self.seq_len + 1, &mut rng))
            .collect();
        Batch::from_sequences(&sequences, self.seq_len)
    }
}

impl Iterator for BatchStream {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        Some(self.next_batch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::LanguageConfig;

    fn stream() -> BatchStream {
        let lang = SyntheticLanguage::new(LanguageConfig::default(), 1);
        BatchStream::new(lang, 2, 4, 16)
    }

    #[test]
    fn batches_have_requested_shape() {
        let mut s = stream();
        let b = s.next_batch();
        assert_eq!(b.batch_size(), 4);
        assert_eq!(b.seq_len(), 16);
        assert_eq!(b.num_tokens(), 64);
    }

    #[test]
    fn stream_is_reproducible_and_advances() {
        let mut s1 = stream();
        let mut s2 = stream();
        let a1 = s1.next_batch();
        let a2 = s2.next_batch();
        assert_eq!(a1, a2);
        let b1 = s1.next_batch();
        assert_ne!(a1, b1, "stream must advance");
    }

    #[test]
    fn validation_batch_is_stable() {
        let mut s = stream();
        let v1 = s.validation_batch(7);
        let _ = s.next_batch();
        let v2 = s.validation_batch(7);
        assert_eq!(
            v1, v2,
            "validation batch must not depend on stream position"
        );
        assert_ne!(v1, s.validation_batch(8));
    }

    #[test]
    fn iterator_interface() {
        let s = stream();
        let batches: Vec<Batch> = s.take(3).collect();
        assert_eq!(batches.len(), 3);
        assert_ne!(batches[0], batches[1]);
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let mut s = stream();
        let b = s.next_batch();
        // Within each row, target[t] == token[t+1].
        for row in 0..b.batch_size() {
            for t in 0..b.seq_len() - 1 {
                assert_eq!(
                    b.targets()[row * b.seq_len() + t],
                    b.tokens()[row * b.seq_len() + t + 1]
                );
            }
        }
    }
}
