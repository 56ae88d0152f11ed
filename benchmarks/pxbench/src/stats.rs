//! Sample arithmetic: medians, the quartile spread the driver computes, and
//! the bound comparison `--repeat` uses.

/// Which direction of change is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Sorts samples ascending; NaN never occurs (every sample is a measured
/// duration or count), so the comparison is total here.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of an unsorted sample set; the mean of the two middle values for
/// an even count. `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver computes with Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), reproduced here so
/// the repeatability report uses the same arithmetic.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let quantile = |k: usize| -> f64 {
        let n = sorted.len();
        // Exclusive method: position k·(n+1)/4, 1-based, interpolated (or,
        // past either end, extrapolated) between the two nearest samples.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lower as f64;
        sorted[lower - 1] + frac * (sorted[lower] - sorted[lower - 1])
    };
    let median = median(&sorted)?;
    if median == 0.0 {
        return None;
    }
    Some((quantile(3) - quantile(1)) / median.abs())
}

/// How much worse `second` is than `first`, as a share of `first`: positive
/// means worse in the metric's own direction, negative means better.
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Whether two measurements of the same code agree within `bound` in both
/// directions — the `--repeat` criterion (neither run may look like a
/// regression of the other).
pub fn within_bound(first: f64, second: f64, bound: f64) -> bool {
    worsening(first, second, Better::Lower).abs() <= bound
        && worsening(second, first, Better::Lower).abs() <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        let spread = quartile_spread(&[13.0, 10.0, 11.0]).unwrap();
        assert!((spread - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn within_bound_is_symmetric() {
        assert!(within_bound(100.0, 109.0, 0.10));
        assert!(within_bound(109.0, 100.0, 0.10));
        assert!(!within_bound(100.0, 112.0, 0.10));
        assert!(!within_bound(112.0, 100.0, 0.10));
    }
}
