//! Order statistics the benchmark reports.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `pct` may be reported for `n` samples: a percentile is quoted
/// only when at least ten samples lie beyond it, so one stall cannot be
/// the whole tail.
pub fn has_ten_beyond(n: usize, pct: f64) -> bool {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

/// The highest of `candidates` (ascending) that has ten samples beyond it
/// in a sample of `n`, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&pct| has_ten_beyond(n, pct))
}

/// Percentile `pct` of `values` (0 for no samples), unsorted input.
pub fn percentile_of(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, pct)
}

/// A tail percentile that one bad stretch of the run cannot decide:
/// `values`, in the order they were measured, are cut into `parts`
/// consecutive parts, the percentile is taken in each, and the median of
/// those is returned. With fewer than 20 samples per part the percentile is
/// taken over all of them at once.
pub fn percentile_by_parts(values: &[f64], pct: f64, parts: usize) -> f64 {
    if parts < 2 || values.len() < 20 * parts {
        return percentile_of(values, pct);
    }
    let tails: Vec<f64> = values
        .chunks(values.len().div_ceil(parts))
        .map(|part| percentile_of(part, pct))
        .collect();
    median(&tails)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median with the usual midpoint for even counts (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of the benchmark contract uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // position i·(n+1)/4, 1-based, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the contract compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 50.0), 3.0);
        assert_eq!(percentile(&five, 1.0), 1.0);
        assert_eq!(percentile(&five, 99.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 leaves exactly 10 of 200 beyond it; 199 samples leave 9.
        assert!(has_ten_beyond(200, 95.0));
        assert!(!has_ten_beyond(199, 95.0));
        assert!(has_ten_beyond(1000, 99.0));
        assert!(!has_ten_beyond(999, 99.0));
        assert!(has_ten_beyond(20, 50.0));
        assert_eq!(highest_supported(600, &[50.0, 95.0, 99.0]), Some(95.0));
        assert_eq!(highest_supported(1000, &[50.0, 95.0, 99.0]), Some(99.0));
        assert_eq!(highest_supported(5, &[50.0, 95.0, 99.0]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
    }

    #[test]
    fn a_bad_stretch_does_not_decide_the_tail() {
        // 500 samples of 1.0 with 5 % at 2.0; then one fifth of the run
        // stalls at 50.0.
        let mut values: Vec<f64> = (0..500)
            .map(|i| if i % 20 == 19 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(percentile_of(&values, 95.0), 1.0);
        assert_eq!(percentile_of(&values, 96.0), 2.0);
        assert_eq!(percentile_by_parts(&values, 96.0, 5), 2.0);
        for v in &mut values[200..300] {
            *v = 50.0;
        }
        assert_eq!(percentile_of(&values, 96.0), 50.0);
        assert_eq!(percentile_by_parts(&values, 96.0, 5), 2.0);
        // Too few samples to cut up: the plain percentile.
        assert_eq!(percentile_by_parts(&values[..60], 50.0, 5), 1.0);
        assert_eq!(percentile_of(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
