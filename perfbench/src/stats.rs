//! Order statistics for the benchmark's timings.
//!
//! Percentiles use the nearest-rank definition: the p-quantile of `n`
//! sorted samples is the smallest sample with at least `ceil(p·n)`
//! samples at or below it. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank, so a tail figure
//! never rests on a handful of samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` (0 < q ≤ 1) among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    // The epsilon keeps exact products such as 0.99 · 1000 from rounding
    // up to the next rank through floating-point error.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples ranked strictly beyond quantile `q` among `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Nearest-rank quantile `q` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// The median as the mean of the two middle samples (even counts), the
/// convention `statistics.median` uses.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The highest of the usual tail quantiles that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p90 does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// A latency summary: median, the supported tail and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(quantile, value)` of the highest supported tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n,
            p50: median(&sorted),
            tail: tail_quantile(n).map(|q| (q, sorted[rank(n, q)])),
        }
    }

    /// `p50 … ms, p99 … ms over n samples`, for samples in seconds.
    pub fn describe_ms(&self) -> String {
        let tail = self.tail.map_or("no supported tail".into(), |(q, v)| {
            format!("p{} {:.3} ms", q * 100.0, v * 1e3)
        });
        format!(
            "p50 {:.3} ms, {tail} over {} samples",
            self.p50 * 1e3,
            self.n
        )
    }

    /// The value at quantile `q` if at least [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn supported(values: &[f64], q: f64) -> Option<f64> {
        (!values.is_empty() && beyond(values.len(), q) >= MIN_BEYOND).then(|| quantile(values, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(quantile(&rev, 0.9), 90.0);
    }

    #[test]
    fn samples_beyond_a_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(Summary::supported(&vec![1.0; 999], 0.99), None);
        assert_eq!(Summary::supported(&vec![1.0; 1000], 0.99), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
    }
}
