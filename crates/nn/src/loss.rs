//! Cross-entropy language-modeling loss.

use snip_tensor::{ops::softmax_rows_inplace, Tensor};

/// Mean token-level cross-entropy and its gradient w.r.t. the logits.
///
/// `logits` is `tokens × vocab`; `targets[i]` is the class index for row `i`.
/// Returns `(loss, dlogits)` where the gradient already includes the `1/N`
/// mean factor.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
///
/// # Example
///
/// ```
/// use snip_tensor::Tensor;
/// use snip_nn::loss::cross_entropy;
/// let logits = Tensor::from_vec(1, 3, vec![10.0, 0.0, 0.0]);
/// let (loss, _) = cross_entropy(&logits, &[0]);
/// assert!(loss < 1e-3); // confident & correct → tiny loss
/// ```
pub fn cross_entropy(logits: &Tensor, targets: &[u32]) -> (f64, Tensor) {
    let (n, vocab) = logits.shape();
    assert_eq!(targets.len(), n, "target count mismatch");
    assert!(n > 0, "empty batch");
    let mut probs = logits.clone();
    softmax_rows_inplace(&mut probs);
    let mut loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for (r, &t) in targets.iter().enumerate() {
        let t = t as usize;
        assert!(t < vocab, "target {t} out of range {vocab}");
        let p = probs[(r, t)].max(1e-30);
        loss -= (p as f64).ln();
        // dlogits = (softmax − onehot) / N
        let row = probs.row_mut(r);
        for v in row.iter_mut() {
            *v *= inv_n;
        }
        row[t] -= inv_n;
    }
    (loss / n as f64, probs)
}

/// Log-probability of each target token under the logits (for eval scoring).
pub fn token_log_probs(logits: &Tensor, targets: &[u32]) -> Vec<f64> {
    let (n, _) = logits.shape();
    assert_eq!(targets.len(), n, "target count mismatch");
    (0..n)
        .map(|r| {
            let row = logits.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let logsum: f64 = row
                .iter()
                .map(|&x| ((x - max) as f64).exp())
                .sum::<f64>()
                .ln()
                + max as f64;
            row[targets[r] as usize] as f64 - logsum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_tensor::rng::Rng;

    #[test]
    fn uniform_logits_give_log_vocab() {
        let logits = Tensor::zeros(4, 8);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(71);
        let logits = Tensor::randn(3, 5, 1.0, &mut rng);
        let targets = [2u32, 0, 4];
        let (_, dlogits) = cross_entropy(&logits, &targets);
        for &(i, j) in &[(0usize, 0usize), (0, 2), (1, 4), (2, 4)] {
            let h = 1e-3f32;
            let mut p = logits.clone();
            p[(i, j)] += h;
            let mut m = logits.clone();
            m[(i, j)] -= h;
            let fd =
                (cross_entropy(&p, &targets).0 - cross_entropy(&m, &targets).0) / (2.0 * h as f64);
            let an = dlogits[(i, j)] as f64;
            assert!((fd - an).abs() < 1e-4, "fd={fd} an={an}");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = Rng::seed_from(72);
        let logits = Tensor::randn(4, 6, 2.0, &mut rng);
        let (_, d) = cross_entropy(&logits, &[0, 1, 2, 3]);
        for r in 0..4 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn token_log_probs_sum_matches_loss() {
        let mut rng = Rng::seed_from(74);
        let logits = Tensor::randn(4, 5, 1.0, &mut rng);
        let targets = [0u32, 1, 2, 3];
        let lps = token_log_probs(&logits, &targets);
        let (loss, _) = cross_entropy(&logits, &targets);
        let mean_nll = -lps.iter().sum::<f64>() / 4.0;
        assert!((loss - mean_nll).abs() < 1e-5, "{loss} vs {mean_nll}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let logits = Tensor::zeros(1, 3);
        let _ = cross_entropy(&logits, &[3]);
    }
}
