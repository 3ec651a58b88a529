//! Order statistics with the benchmark's tail rule: a percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `percent` percentile in `n`
/// samples.
fn rank(n: usize, percent: usize) -> usize {
    (percent * n).div_ceil(100).clamp(1, n)
}

/// Samples beyond the `percent` percentile of `n` samples.
pub fn beyond(n: usize, percent: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, percent)
    }
}

/// The nearest-rank `percent` percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (the median needs only one
/// sample).
pub fn percentile(samples: &[f64], percent: usize) -> Option<f64> {
    if samples.is_empty() || (percent > 50 && beyond(samples.len(), percent) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), percent) - 1])
}

/// Median of `samples` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Position-wise median of sample rows: element `k` is the median of every
/// row's element `k`.  Rows longer than the shortest are cut to its length.
pub fn positionwise_median(rows: &[&[f64]]) -> Vec<f64> {
    let n = rows.iter().map(|row| row.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| median(&rows.iter().map(|row| row[k]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(2000, 99), 20);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(percentile(&samples, 99), Some(990.0));
        assert_eq!(percentile(&samples[..999], 99), None);
    }

    #[test]
    fn median_and_p50_agree_on_odd_counts() {
        let samples = [5.0, 1.0, 3.0, 4.0, 2.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 50), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn positionwise_median_takes_each_position_on_its_own() {
        let a = [1.0, 9.0, 5.0];
        let b = [2.0, 1.0, 6.0, 100.0];
        let c = [3.0, 2.0, 50.0];
        // A slow outlier at one position does not move the others.
        assert_eq!(positionwise_median(&[&a, &b, &c]), vec![2.0, 2.0, 6.0]);
        assert!(positionwise_median(&[]).is_empty());
    }
}
