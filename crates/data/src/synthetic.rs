//! Synthetic pretraining language.
//!
//! The paper pretrains on SlimPajama / StarcoderData / RedPajama — hundreds
//! of billions of web tokens that are unavailable here, so we substitute a
//! seeded generative language with the statistical properties that matter to
//! a transformer LM:
//!
//! * **Zipfian unigram statistics** — each hidden topic state emits from a
//!   power-law distribution over its own vocabulary slice, like word
//!   frequencies in natural text.
//! * **Markov topic structure** — a hidden-state chain gives medium-range
//!   predictability, so the model must use context to drop below unigram
//!   entropy.
//! * **Copy/induction spans** — segments that verbatim-replay earlier
//!   context, the pattern attention heads famously learn ("induction
//!   heads"); these make the attention layers (Q/K/V) genuinely load-bearing
//!   so SNIP's per-layer sensitivities are meaningful.

use serde::{Deserialize, Serialize};
use snip_tensor::rng::Rng;

/// Configuration of the synthetic language.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LanguageConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of hidden topic states.
    pub n_states: usize,
    /// Zipf exponent of each state's emission distribution.
    pub zipf_s: f64,
    /// Per-token probability of opening a copy span.
    pub copy_prob: f64,
    /// Length of each copy span.
    pub copy_len: usize,
    /// How far back the copy span reads.
    pub copy_offset: usize,
}

impl Default for LanguageConfig {
    fn default() -> Self {
        LanguageConfig {
            vocab: 96,
            n_states: 8,
            zipf_s: 1.1,
            copy_prob: 0.05,
            copy_len: 6,
            copy_offset: 12,
        }
    }
}

/// A seeded synthetic language model (the data-generating process).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyntheticLanguage {
    cfg: LanguageConfig,
    /// `transitions[s]` = unnormalized next-state weights.
    transitions: Vec<Vec<f64>>,
    /// `emissions[s]` = unnormalized token weights for state `s`.
    emissions: Vec<Vec<f64>>,
}

impl SyntheticLanguage {
    /// Builds the language's transition and emission tables from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the config has a zero vocab or zero states.
    pub fn new(cfg: LanguageConfig, seed: u64) -> Self {
        assert!(cfg.vocab > 0 && cfg.n_states > 0, "empty language");
        let mut rng = Rng::seed_from(seed ^ 0x5EED_DA7A);
        // Sparse-ish transitions: every state strongly prefers 3 successors.
        let mut transitions = Vec::with_capacity(cfg.n_states);
        for _ in 0..cfg.n_states {
            let mut row = vec![0.05f64; cfg.n_states];
            for _ in 0..3 {
                row[rng.below(cfg.n_states)] += 1.0;
            }
            transitions.push(row);
        }
        // A single global Zipf skeleton (so the aggregate unigram statistics
        // stay skewed like natural text), with per-state "topic tokens"
        // boosted so the hidden state is identifiable from context.
        let mut order: Vec<usize> = (0..cfg.vocab).collect();
        rng.shuffle(&mut order);
        let mut global = vec![0.0f64; cfg.vocab];
        for (rank, &tok) in order.iter().enumerate() {
            global[tok] = 1.0 / ((rank + 1) as f64).powf(cfg.zipf_s.max(1.2));
        }
        let topics_per_state = (cfg.vocab / 12).max(2);
        let mut emissions = Vec::with_capacity(cfg.n_states);
        for _ in 0..cfg.n_states {
            let mut weights = global.clone();
            for _ in 0..topics_per_state {
                let tok = rng.below(cfg.vocab);
                weights[tok] += 0.25; // strong state-specific preference
            }
            emissions.push(weights);
        }
        SyntheticLanguage {
            cfg,
            transitions,
            emissions,
        }
    }

    /// The language configuration.
    pub fn config(&self) -> &LanguageConfig {
        &self.cfg
    }

    /// Generates `len` tokens, consuming randomness from `rng`.
    pub fn generate(&self, len: usize, rng: &mut Rng) -> Vec<u32> {
        let mut out = Vec::with_capacity(len);
        let mut state = rng.below(self.cfg.n_states);
        let mut copy_remaining = 0usize;
        while out.len() < len {
            if copy_remaining > 0 && out.len() >= self.cfg.copy_offset {
                let tok = out[out.len() - self.cfg.copy_offset];
                out.push(tok);
                copy_remaining -= 1;
                continue;
            }
            if self.cfg.copy_prob > 0.0
                && out.len() >= self.cfg.copy_offset
                && rng.next_f64() < self.cfg.copy_prob
            {
                copy_remaining = self.cfg.copy_len;
                continue;
            }
            let tok = rng.sample_weighted(&self.emissions[state]) as u32;
            out.push(tok);
            state = rng.sample_weighted(&self.transitions[state]);
        }
        out
    }

    /// Unigram entropy (bits) of the stationary token distribution, estimated
    /// by sampling — a sanity tool for experiments.
    pub fn estimate_unigram_entropy(&self, samples: usize, rng: &mut Rng) -> f64 {
        let mut counts = vec![0usize; self.cfg.vocab];
        for &t in &self.generate(samples, rng) {
            counts[t as usize] += 1;
        }
        let total: usize = counts.iter().sum();
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lang() -> SyntheticLanguage {
        SyntheticLanguage::new(LanguageConfig::default(), 42)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let l = lang();
        let a = l.generate(256, &mut Rng::seed_from(1));
        let b = l.generate(256, &mut Rng::seed_from(1));
        let c = l.generate(256, &mut Rng::seed_from(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tokens_are_in_vocabulary() {
        let l = lang();
        let toks = l.generate(2000, &mut Rng::seed_from(3));
        assert_eq!(toks.len(), 2000);
        assert!(toks.iter().all(|&t| (t as usize) < l.config().vocab));
    }

    #[test]
    fn distribution_is_skewed_not_uniform() {
        let l = lang();
        let toks = l.generate(20_000, &mut Rng::seed_from(4));
        let mut counts = vec![0usize; l.config().vocab];
        for &t in &toks {
            counts[t as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Zipfian: top token much more frequent than the median token.
        assert!(counts[0] > 8 * counts[l.config().vocab / 2].max(1));
    }

    #[test]
    fn copy_spans_create_repetitions() {
        let cfg = LanguageConfig {
            copy_prob: 0.2,
            ..Default::default()
        };
        let l = SyntheticLanguage::new(cfg.clone(), 9);
        let toks = l.generate(4000, &mut Rng::seed_from(5));
        // Count positions where token repeats the one copy_offset back.
        let hits = (cfg.copy_offset..toks.len())
            .filter(|&i| toks[i] == toks[i - cfg.copy_offset])
            .count();
        let rate = hits as f64 / (toks.len() - cfg.copy_offset) as f64;
        // With 20% span starts of length 6 the repeat rate must far exceed
        // the chance rate (~1/8 due to zipf collisions).
        assert!(rate > 0.3, "repeat rate = {rate}");
    }

    #[test]
    fn entropy_below_uniform() {
        let l = lang();
        let h = l.estimate_unigram_entropy(30_000, &mut Rng::seed_from(6));
        let uniform = (l.config().vocab as f64).log2();
        assert!(h < uniform - 1.0, "H = {h}, uniform = {uniform}");
        assert!(h > 1.0, "H = {h} suspiciously low");
    }

    #[test]
    #[should_panic(expected = "empty language")]
    fn empty_config_rejected() {
        let _ = SyntheticLanguage::new(
            LanguageConfig {
                vocab: 0,
                ..Default::default()
            },
            0,
        );
    }
}
