//! Order statistics for timing samples.

/// A tail percentile is only reported as resolved when at least this
/// many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile in a sample of `n`: the
/// smallest rank with at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an ascending-sorted, non-empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples lying beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether the `q`-quantile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn resolved(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The smallest sample size whose `q`-quantile is resolved.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| resolved(n, q))
        .expect("some sample size resolves")
}

/// Tail percentiles tried, highest first, by [`tail_level`].
pub const TAIL_LEVELS: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest of [`TAIL_LEVELS`] that `n` samples resolve, if any.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS.into_iter().find(|&q| resolved(n, q))
}

/// Sorts a sample ascending (timings are never NaN; a refused request's
/// latency is infinite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Nearest-rank median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(resolved(1000, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!resolved(999, 0.99));
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn tail_level_is_the_highest_resolved_percentile() {
        assert_eq!(tail_level(1800), Some(0.99));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(199), Some(0.9));
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
