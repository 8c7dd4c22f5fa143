//! Order statistics the benchmark reports from: medians, nearest-rank
//! percentiles, quartiles and geometric means. Kept apart from the
//! harness so the unit tests pin them without running a workload.

/// Sorted copy (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
/// Panics on an empty slice — every caller measures at least one pass.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    match v.len() % 2 {
        1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two samples");
    let at = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the bounds in `BENCHMARK.json` are sized against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_pass_ignores_one_disturbed_pass() {
        // six passes, one hit by a noisy neighbour: the median pass does
        // not move, the mean would by 15 %
        let quiet = [2.00, 2.01, 1.99, 2.02, 2.00, 2.01];
        let mut noisy = quiet;
        noisy[3] = 3.9;
        assert!((median(&noisy) - median(&quiet)).abs() < 0.011);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 5.0, 9.0], 50.0), 5.0);
        assert_eq!(percentile_sorted(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_and_cv() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.2, 1.2, 1.2]) - 1.2).abs() < 1e-12);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }
}
