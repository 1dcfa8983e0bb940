//! Synthetic zero-shot multiple-choice task suites.
//!
//! The paper evaluates with the LM-Evaluation-Harness on ARC, MMLU, BoolQ,
//! HellaSwag, OBQA, PiQA and WinoGrande. Those corpora are unavailable here,
//! and the paper's use of them is *relative*: ranking quantization schemes by
//! how much model quality they preserve. We therefore build one synthetic
//! suite per paper category with the same scoring protocol (0-shot
//! log-likelihood over fixed choices) and the same chance floors (25% for
//! 4-way, 50% for 2-way tasks). A healthy model scores far above chance on
//! every suite; a diverged model falls to chance — reproducing the dynamic
//! range the paper's tables rely on (e.g. 44 → 33 average on collapse).

use serde::{Deserialize, Serialize};
use snip_data::SyntheticLanguage;
use snip_tensor::rng::Rng;

/// One multiple-choice item: a shared context and fixed-length choices.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskItem {
    /// Context tokens fed before each choice.
    pub context: Vec<u32>,
    /// Candidate continuations (all the same length).
    pub choices: Vec<Vec<u32>>,
    /// Index of the correct choice.
    pub correct: usize,
}

/// The eight synthetic suites, named for the paper benchmark each stands in
/// for (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// ARC-e analogue: pick the true 6-token continuation vs uniform noise.
    CompletionEasy,
    /// ARC-c analogue: distractors are plausible continuations of *other*
    /// contexts.
    CompletionHard,
    /// MMLU analogue: short context, 4 topic-consistent candidates.
    TopicCloze,
    /// BoolQ analogue: binary next-token choice.
    NextToken,
    /// HellaSwag analogue: true continuation vs corrupted copies.
    CorruptedEnding,
    /// OBQA analogue: induction retrieval — recall a token pattern seen
    /// earlier in context.
    Induction,
    /// PiQA analogue: binary local-plausibility (true next token vs a token
    /// that never follows in this language).
    Bigram,
    /// WinoGrande analogue: binary order sensitivity (true continuation vs
    /// its reversal).
    OrderPair,
}

impl Task {
    /// Every suite, in the paper's table column order.
    pub const ALL: [Task; 8] = [
        Task::CompletionHard,
        Task::CompletionEasy,
        Task::TopicCloze,
        Task::NextToken,
        Task::CorruptedEnding,
        Task::Induction,
        Task::Bigram,
        Task::OrderPair,
    ];

    /// Suite name.
    pub fn name(self) -> &'static str {
        match self {
            Task::CompletionEasy => "ARC_e-syn",
            Task::CompletionHard => "ARC_c-syn",
            Task::TopicCloze => "MMLU-syn",
            Task::NextToken => "BoolQ-syn",
            Task::CorruptedEnding => "HellaSwag-syn",
            Task::Induction => "Obqa-syn",
            Task::Bigram => "PiQa-syn",
            Task::OrderPair => "WinoGrande-syn",
        }
    }

    /// Number of choices per item.
    pub(crate) fn n_choices(self) -> usize {
        match self {
            Task::NextToken | Task::Bigram | Task::OrderPair => 2,
            _ => 4,
        }
    }

    /// Chance accuracy (%) of random guessing.
    pub fn chance(self) -> f64 {
        100.0 / self.n_choices() as f64
    }

    /// Generates `n` items from the language, deterministically from `seed`.
    pub fn generate(self, lang: &SyntheticLanguage, n: usize, seed: u64) -> Vec<TaskItem> {
        let mut rng = Rng::seed_from(seed ^ (self as u64).wrapping_mul(0x9E37_79B9));
        (0..n).map(|_| self.generate_item(lang, &mut rng)).collect()
    }

    fn generate_item(self, lang: &SyntheticLanguage, rng: &mut Rng) -> TaskItem {
        let vocab = lang.config().vocab;
        match self {
            Task::CompletionEasy => {
                let seq = lang.generate(30, rng);
                let context = seq[..24].to_vec();
                let correct_choice = seq[24..30].to_vec();
                let mut choices: Vec<Vec<u32>> = (0..3)
                    .map(|_| (0..6).map(|_| rng.below(vocab) as u32).collect())
                    .collect();
                let correct = rng.below(4);
                choices.insert(correct, correct_choice);
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::CompletionHard => {
                let seq = lang.generate(30, rng);
                let context = seq[..24].to_vec();
                let correct_choice = seq[24..30].to_vec();
                let mut choices: Vec<Vec<u32>> = (0..3)
                    .map(|_| {
                        let other = lang.generate(30, rng);
                        other[24..30].to_vec()
                    })
                    .collect();
                let correct = rng.below(4);
                choices.insert(correct, correct_choice);
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::TopicCloze => {
                let seq = lang.generate(20, rng);
                let context = seq[..16].to_vec();
                let correct_choice = seq[16..20].to_vec();
                let mut choices: Vec<Vec<u32>> = (0..3).map(|_| lang.generate(4, rng)).collect();
                let correct = rng.below(4);
                choices.insert(correct, correct_choice);
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::NextToken => {
                let seq = lang.generate(21, rng);
                let context = seq[..20].to_vec();
                let truth = seq[20];
                let mut distractor = rng.below(vocab) as u32;
                while distractor == truth {
                    distractor = rng.below(vocab) as u32;
                }
                let correct = rng.below(2);
                let choices = if correct == 0 {
                    vec![vec![truth], vec![distractor]]
                } else {
                    vec![vec![distractor], vec![truth]]
                };
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::CorruptedEnding => {
                let seq = lang.generate(28, rng);
                let context = seq[..20].to_vec();
                let correct_choice = seq[20..28].to_vec();
                let mut choices: Vec<Vec<u32>> = (0..3)
                    .map(|_| {
                        let mut c = correct_choice.clone();
                        for _ in 0..3 {
                            let pos = rng.below(c.len());
                            c[pos] = rng.below(vocab) as u32;
                        }
                        c
                    })
                    .collect();
                let correct = rng.below(4);
                choices.insert(correct, correct_choice);
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::Induction => {
                // Context: noise, [A B C D], noise, [A B C] → answer D.
                let pattern: Vec<u32> = (0..4).map(|_| rng.below(vocab) as u32).collect();
                let mut context = lang.generate(8, rng);
                context.extend_from_slice(&pattern);
                context.extend(lang.generate(6, rng));
                context.extend_from_slice(&pattern[..3]);
                let truth = pattern[3];
                let mut choices: Vec<Vec<u32>> = (0..3)
                    .map(|_| {
                        let mut d = rng.below(vocab) as u32;
                        while d == truth {
                            d = rng.below(vocab) as u32;
                        }
                        vec![d]
                    })
                    .collect();
                let correct = rng.below(4);
                choices.insert(correct, vec![truth]);
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::Bigram => {
                let seq = lang.generate(13, rng);
                let context = seq[..12].to_vec();
                let truth = seq[12];
                let mut distractor = rng.below(vocab) as u32;
                while distractor == truth {
                    distractor = rng.below(vocab) as u32;
                }
                let correct = rng.below(2);
                let choices = if correct == 0 {
                    vec![vec![truth], vec![distractor]]
                } else {
                    vec![vec![distractor], vec![truth]]
                };
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
            Task::OrderPair => {
                let seq = lang.generate(24, rng);
                let context = seq[..18].to_vec();
                let correct_choice = seq[18..24].to_vec();
                let mut reversed = correct_choice.clone();
                reversed.reverse();
                if reversed == correct_choice {
                    // Palindromic draw — perturb one token to keep 2 options.
                    reversed[0] = (reversed[0] + 1) % vocab as u32;
                }
                let correct = rng.below(2);
                let choices = if correct == 0 {
                    vec![correct_choice, reversed]
                } else {
                    vec![reversed, correct_choice]
                };
                TaskItem {
                    context,
                    choices,
                    correct,
                }
            }
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_data::LanguageConfig;

    fn lang() -> SyntheticLanguage {
        SyntheticLanguage::new(LanguageConfig::default(), 7)
    }

    #[test]
    fn items_are_well_formed() {
        let l = lang();
        for task in Task::ALL {
            let items = task.generate(&l, 20, 3);
            assert_eq!(items.len(), 20, "{task}");
            for item in &items {
                assert_eq!(item.choices.len(), task.n_choices(), "{task}");
                assert!(item.correct < item.choices.len());
                let len0 = item.choices[0].len();
                assert!(
                    item.choices.iter().all(|c| c.len() == len0),
                    "{task}: uneven choices"
                );
                assert!(!item.context.is_empty());
                let vocab = l.config().vocab as u32;
                assert!(item.context.iter().all(|&t| t < vocab));
                assert!(item.choices.iter().flatten().all(|&t| t < vocab));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let l = lang();
        let a = Task::CompletionHard.generate(&l, 5, 11);
        let b = Task::CompletionHard.generate(&l, 5, 11);
        assert_eq!(a, b);
        let c = Task::CompletionHard.generate(&l, 5, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn correct_positions_are_shuffled() {
        let l = lang();
        let items = Task::CompletionEasy.generate(&l, 40, 5);
        let mut seen = std::collections::HashSet::new();
        for item in &items {
            seen.insert(item.correct);
        }
        assert!(seen.len() >= 3, "correct answers always at {seen:?}");
    }

    #[test]
    fn induction_answer_appears_in_context() {
        let l = lang();
        let items = Task::Induction.generate(&l, 10, 9);
        for item in &items {
            let answer = item.choices[item.correct][0];
            assert!(
                item.context.contains(&answer),
                "induction answer must be recallable from context"
            );
        }
    }

    #[test]
    fn chance_levels() {
        assert_eq!(Task::CompletionEasy.chance(), 25.0);
        assert_eq!(Task::NextToken.chance(), 50.0);
    }
}
