//! Problem model: the multiple-choice knapsack ILP of paper §5.2.
//!
//! ```text
//! minimize   Σᵢ Σⱼ q_{i,j} · x_{i,j}            (total quality loss)
//! s.t.       Σᵢ Σⱼ e_{i,j} · x_{i,j} ≥ E_t      (efficiency target)
//!            Σⱼ x_{i,j} = 1  ∀ i                (one option per layer)
//!            x_{i,j} ∈ {0, 1}
//! ```

use serde::{Deserialize, Serialize};

/// One selectable option for one group (one precision assignment for one
/// layer): `quality` is its quality loss `q_{i,j}`, `efficiency` its
/// efficiency saving `e_{i,j}`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Choice {
    /// Quality loss incurred by picking this option (lower is better).
    pub quality: f64,
    /// Efficiency saving contributed by this option (higher is faster).
    pub efficiency: f64,
}

impl Choice {
    /// Convenience constructor.
    pub fn new(quality: f64, efficiency: f64) -> Self {
        Choice {
            quality,
            efficiency,
        }
    }
}

/// A multiple-choice knapsack instance: `groups[i]` lists layer `i`'s
/// options; exactly one must be picked per group, and the picked
/// efficiencies must sum to at least `target`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct McKnapsack {
    /// Option lists, one per decision group (layer).
    pub groups: Vec<Vec<Choice>>,
    /// Efficiency target `E_t` (same unit as the choices' efficiencies).
    pub target: f64,
}

impl McKnapsack {
    /// Creates an instance.
    pub fn new(groups: Vec<Vec<Choice>>, target: f64) -> Self {
        McKnapsack { groups, target }
    }

    /// Validates the instance: no empty groups, all values finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err("no decision groups".into());
        }
        for (i, g) in self.groups.iter().enumerate() {
            if g.is_empty() {
                return Err(format!("group {i} has no options"));
            }
            for (j, c) in g.iter().enumerate() {
                if !c.quality.is_finite() || !c.efficiency.is_finite() {
                    return Err(format!("group {i} option {j} has non-finite values"));
                }
            }
        }
        if !self.target.is_finite() {
            return Err("target must be finite".into());
        }
        Ok(())
    }

    /// The maximum achievable efficiency (each group at its max).
    pub(crate) fn max_efficiency(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|c| c.efficiency)
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .sum()
    }

    /// Whether some assignment can satisfy the target.
    pub(crate) fn is_feasible(&self) -> bool {
        self.max_efficiency() >= self.target - 1e-12
    }

    /// Objective and efficiency of a full assignment (`picks[i]` = option of
    /// group `i`).
    ///
    /// # Panics
    ///
    /// Panics if `picks` has the wrong length or an index is out of range.
    pub fn evaluate(&self, picks: &[usize]) -> (f64, f64) {
        assert_eq!(picks.len(), self.groups.len(), "pick count mismatch");
        let mut q = 0.0;
        let mut e = 0.0;
        for (g, &j) in self.groups.iter().zip(picks) {
            q += g[j].quality;
            e += g[j].efficiency;
        }
        (q, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> McKnapsack {
        McKnapsack::new(
            vec![
                vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(3.0, 1.0)],
            ],
            1.0,
        )
    }

    #[test]
    fn validation_catches_problems() {
        assert!(simple().validate().is_ok());
        assert!(McKnapsack::new(vec![], 0.0).validate().is_err());
        assert!(McKnapsack::new(vec![vec![]], 0.0).validate().is_err());
        assert!(McKnapsack::new(vec![vec![Choice::new(f64::NAN, 0.0)]], 0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn feasibility() {
        let p = simple();
        assert!(p.is_feasible());
        assert_eq!(p.max_efficiency(), 2.0);
        let mut hard = p.clone();
        hard.target = 3.0;
        assert!(!hard.is_feasible());
    }

    #[test]
    fn evaluate_sums_choices() {
        let p = simple();
        assert_eq!(p.evaluate(&[1, 0]), (1.0, 1.0));
        assert_eq!(p.evaluate(&[1, 1]), (4.0, 2.0));
    }
}
