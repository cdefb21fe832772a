//! Sample summaries: every timing is reported as n, median and quartiles,
//! plus p90 once at least ten samples lie beyond it.

use telemetry::quantile_sorted;

/// Order statistics of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// 90th percentile, only with `n >= 100` (ten samples beyond it).
    pub p90: Option<f64>,
}

/// Summarises `xs` (any order). An empty slice summarises to zeros.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        median: quantile_sorted(&s, 0.5),
        p25: quantile_sorted(&s, 0.25),
        p75: quantile_sorted(&s, 0.75),
        p90: (s.len() >= 100).then(|| quantile_sorted(&s, 0.9)),
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(summarize(&xs).p90, None);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.n, s.median, s.p25, s.p75), (101, 51.0, 26.0, 76.0));
        assert_eq!(s.p90, Some(91.0));
    }
}
