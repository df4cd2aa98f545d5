//! Order statistics over small samples of `f64`.

/// Sort ascending; the benchmark never produces NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spreads printed here are the ones the acceptance
/// check uses. One value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    assert!(n > 0, "quartiles of an empty sample");
    let at = |k: usize| {
        // Position k·(n+1)/4, one-based, interpolated and clamped.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n.max(2) - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        let lo = sorted[j - 1];
        let hi = sorted[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(1), at(2), at(3))
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // clamp keeps the quartiles inside the sample instead.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
    }
}
