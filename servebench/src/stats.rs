//! Order statistics over latency samples.

/// Sorts a copy of `v` ascending (`f64::INFINITY` marks a failed request,
/// so failures sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the "exclusive" method), so the steadiness report reads like the
/// checks made on its output. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let m = s.len() + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    })
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A latency in milliseconds fit for the JSON report: a failure that
/// lands on the reported rank reads as the largest finite number.
pub fn finite(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        f64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 9, 4], n=4) == [1.5, 3.0, 6.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 9.0, 4.0]), [1.5, 3.0, 6.5]);
    }

    #[test]
    fn failures_sort_last() {
        let s = sorted(&[f64::INFINITY, 1.0, 2.0]);
        assert_eq!(quantile(&s, 1.0), f64::INFINITY);
        assert_eq!(finite(quantile(&s, 1.0)), f64::MAX);
    }
}
