//! Statistical properties of the synthetic pretraining language — the
//! properties the experiments lean on (`snip_data::synthetic` module docs):
//! a learnable Zipfian head, long-range copy structure that makes mature
//! models sharply predictable, and full determinism from seeds.

use snip_data::{BatchStream, LanguageConfig, SyntheticLanguage};
use snip_tensor::rng::Rng;

fn counts(tokens: &[u32], vocab: usize) -> Vec<usize> {
    let mut c = vec![0usize; vocab];
    for &t in tokens {
        c[t as usize] += 1;
    }
    c
}

#[test]
fn generation_is_deterministic_per_seed() {
    let lang = SyntheticLanguage::new(LanguageConfig::default(), 7);
    let a = lang.generate(512, &mut Rng::seed_from(1));
    let b = lang.generate(512, &mut Rng::seed_from(1));
    let c = lang.generate(512, &mut Rng::seed_from(2));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn language_seed_changes_the_distribution_not_just_the_stream() {
    // Different language seeds permute the per-state emission tables, so
    // even with the same generation RNG the text differs.
    let l1 = SyntheticLanguage::new(LanguageConfig::default(), 1);
    let l2 = SyntheticLanguage::new(LanguageConfig::default(), 2);
    assert_ne!(
        l1.generate(256, &mut Rng::seed_from(3)),
        l2.generate(256, &mut Rng::seed_from(3))
    );
}

#[test]
fn tokens_stay_in_vocabulary() {
    for vocab in [16usize, 64, 96] {
        let lang = SyntheticLanguage::new(
            LanguageConfig {
                vocab,
                ..Default::default()
            },
            5,
        );
        let tokens = lang.generate(2000, &mut Rng::seed_from(4));
        assert!(tokens.iter().all(|&t| (t as usize) < vocab));
    }
}

#[test]
fn zipf_head_dominates_tail() {
    // With a Zipfian emission law, the most frequent decile of the
    // vocabulary should carry several times the mass of the least frequent
    // decile.
    let cfg = LanguageConfig {
        copy_prob: 0.0, // isolate the emission law
        ..Default::default()
    };
    let lang = SyntheticLanguage::new(cfg.clone(), 11);
    let tokens = lang.generate(40_000, &mut Rng::seed_from(6));
    let mut c = counts(&tokens, cfg.vocab);
    c.sort_unstable_by(|a, b| b.cmp(a));
    let decile = cfg.vocab / 10;
    let head: usize = c[..decile].iter().sum();
    let tail: usize = c[cfg.vocab - decile..].iter().sum();
    assert!(
        head > 5 * tail.max(1),
        "head {head} should dominate tail {tail}"
    );
}

#[test]
fn steeper_zipf_concentrates_more_mass() {
    let gen = |s: f64| {
        let cfg = LanguageConfig {
            zipf_s: s,
            copy_prob: 0.0,
            ..Default::default()
        };
        let lang = SyntheticLanguage::new(cfg.clone(), 13);
        let tokens = lang.generate(30_000, &mut Rng::seed_from(8));
        let mut c = counts(&tokens, cfg.vocab);
        c.sort_unstable_by(|a, b| b.cmp(a));
        c[..8].iter().sum::<usize>() as f64 / tokens.len() as f64
    };
    assert!(gen(1.6) > gen(0.8), "steeper exponent, heavier head");
}

#[test]
fn copy_structure_creates_long_range_matches() {
    // With copy spans, the rate of exact matches at the copy offset should
    // far exceed the no-copy baseline (this is precisely the predictability
    // the calibration notes say the experiments need).
    let match_rate = |copy_prob: f64| {
        let cfg = LanguageConfig {
            copy_prob,
            copy_len: 10,
            copy_offset: 11,
            ..Default::default()
        };
        let lang = SyntheticLanguage::new(cfg.clone(), 17);
        let tokens = lang.generate(20_000, &mut Rng::seed_from(9));
        let off = cfg.copy_offset;
        let hits = tokens.windows(off + 1).filter(|w| w[off] == w[0]).count();
        hits as f64 / (tokens.len() - off) as f64
    };
    let with_copy = match_rate(0.2);
    let without = match_rate(0.0);
    assert!(
        with_copy > 2.0 * without,
        "copy structure invisible: {with_copy:.4} vs baseline {without:.4}"
    );
}

#[test]
fn unigram_entropy_estimate_is_sane() {
    let cfg = LanguageConfig::default();
    let vocab = cfg.vocab as f64;
    let lang = SyntheticLanguage::new(cfg, 19);
    let h = lang.estimate_unigram_entropy(20_000, &mut Rng::seed_from(10));
    // Entropy is reported in bits: between 1 (extremely peaked) and
    // log₂(vocab) (uniform).
    assert!(h > 1.0 && h < vocab.log2() + 1e-9, "entropy {h} bits");
}

#[test]
fn batch_stream_shapes_and_determinism() {
    let lang = SyntheticLanguage::new(LanguageConfig::default(), 23);
    let mut s1 = BatchStream::new(lang.clone(), 31, 3, 16);
    let mut s2 = BatchStream::new(lang.clone(), 31, 3, 16);
    assert_eq!(s1.shape(), (3, 16));
    let (a, b) = (s1.next_batch(), s2.next_batch());
    assert_eq!(a.tokens(), b.tokens());
    // Streams advance: consecutive batches differ.
    let c = s1.next_batch();
    assert_ne!(a.tokens(), c.tokens());
    // Validation batches are stable and disjoint from the training stream
    // RNG (same seed → same batch, regardless of stream position).
    let v1 = s1.validation_batch(99);
    let v2 = s2.validation_batch(99);
    assert_eq!(v1.tokens(), v2.tokens());
}
