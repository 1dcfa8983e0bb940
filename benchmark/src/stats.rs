//! The few statistics the benchmark reports.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` ∈ (0, 1], reported only when at least
/// `min_beyond` samples lie beyond it — a tail percentile with fewer
/// samples above it is one or two outliers, not a distribution.
pub fn tail_percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based
    if rank == 0 || rank > n || n - rank < min_beyond {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Distance between the first and third quartile as a share of the median:
/// the noise floor visible inside one run, which `--compare` uses to tell a
/// regression from an unresolved difference. With two or three samples the
/// nearest-rank quartiles are the extremes, so this is their range.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let v = sorted(xs);
    let at = |q: f64| v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / m
    }
}

/// Per-step time of a multi-process call once the launcher's share is
/// removed: `(call wall − median zero-step launch) / steps`.
pub fn per_step_after_launch(call_ms: f64, launch_ms: f64, steps: u64) -> f64 {
    (call_ms - launch_ms) / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 50 samples: p80 is the 40th value, 10 beyond it.
        assert_eq!(tail_percentile(&ramp(50), 0.80, 10), Some(40.0));
        // 64 samples: the 52nd value, 12 beyond.
        assert_eq!(tail_percentile(&ramp(64), 0.80, 10), Some(52.0));
        // 49 samples leave only 9 beyond the 40th: omitted, not made up.
        assert_eq!(tail_percentile(&ramp(49), 0.80, 10), None);
        assert_eq!(tail_percentile(&ramp(4), 0.80, 10), None);
        assert_eq!(tail_percentile(&[], 0.80, 0), None);
    }

    #[test]
    fn launch_is_subtracted_before_dividing_by_steps() {
        assert_eq!(per_step_after_launch(5200.0, 1200.0, 4), 1000.0);
        assert_eq!(per_step_after_launch(1200.0, 1200.0, 4), 0.0);
    }

    #[test]
    fn rel_iqr_is_zero_for_constant_and_scales_with_spread() {
        assert_eq!(rel_iqr(&[5.0; 8]), 0.0);
        let tight = rel_iqr(&[99.0, 100.0, 100.0, 101.0, 100.0, 100.0, 99.5, 100.5]);
        let wide = rel_iqr(&[80.0, 100.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0]);
        assert!(tight < 0.02 && wide > 0.2, "{tight} {wide}");
        // Three set-ups per run: the spread is their range, not a made-up 0.
        assert_eq!(rel_iqr(&[1.0, 1.25, 1.5]), 0.4);
        assert_eq!(rel_iqr(&[1.0]), 0.0);
    }
}
