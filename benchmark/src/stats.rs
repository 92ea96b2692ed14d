//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps 99.9 % of 1 000 at rank 999 despite 0.999 not
    // being representable.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, ascending, in per mille
/// so the ten-samples rule is exact integer arithmetic.
const TAILS_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest reportable percentile that still has at least ten
/// samples beyond it, so a reported tail is never one or two outliers.
/// `None` below twenty samples, where not even the median qualifies.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| samples * (1_000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 10.0)
}

/// A sample reduced to what a report needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(percentile, value)` at [`supported_tail`], when one exists.
    pub tail: Option<(f64, f64)>,
}

/// Sort `samples` in place and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    sort(samples);
    Summary {
        count: samples.len(),
        p50: percentile(samples, 50.0),
        tail: supported_tail(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Median (mean of the two middle values for an even count), the form
/// used for rates and repeated set-ups.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Nearest rank never interpolates: p50 of four values is the 2nd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_and_supported_tail() {
        let mut v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(summarize(&mut few).tail, None);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
