//! Exact-sample order statistics. Latencies are kept one sample per
//! request and sorted; nothing here buckets.

/// The `p`-th percentile (0 < p ≤ 100) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_cases() {
        let v: Vec<u64> = (1..=10).map(|i| i * 10).collect(); // 10, 20, … 100
        assert_eq!(percentile(&v, 50.0), 50); // rank ceil(5.0) = 5
        assert_eq!(percentile(&v, 51.0), 60); // rank ceil(5.1) = 6
        assert_eq!(percentile(&v, 99.0), 100); // rank ceil(9.9) = 10
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 10.0), 10);
        assert_eq!(percentile(&v, 0.1), 10);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // 1000 samples 1..=1000: p99 is the 990th.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), 990);
        assert_eq!(percentile(&big, 50.0), 500);
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
