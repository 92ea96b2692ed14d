//! Message latency accumulation.

use serde::{Deserialize, Serialize};

/// Running statistics over message latencies (flit cycles, generation to
/// tail delivery — source queueing included, as is standard).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    /// `None` until a latency is recorded, so an empty statistic
    /// serialises its extremes as `null`.
    min: Option<u64>,
    max: Option<u64>,
    /// Log2-bucketed histogram (bucket i counts latencies in
    /// `[2^i, 2^(i+1))`).
    histogram: Vec<u64>,
}

impl LatencyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyStats {
            histogram: vec![0; 32],
            ..Default::default()
        }
    }

    /// Record one delivered message's latency.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency as f64;
        self.sum_sq += (latency as f64) * (latency as f64);
        self.min = Some(self.min.map_or(latency, |min| min.min(latency)));
        self.max = Some(self.max.map_or(latency, |max| max.max(latency)));
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1).min(31);
        self.histogram[bucket] += 1;
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.into_iter().chain(other.min).min();
        self.max = self.max.max(other.max);
        for (a, b) in self.histogram.iter_mut().zip(&other.histogram) {
            *a += b;
        }
    }

    /// Number of recorded messages.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population standard deviation; `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.mean().map(|m| {
            let var = (self.sum_sq / self.count as f64 - m * m).max(0.0);
            var.sqrt()
        })
    }

    /// Minimum recorded latency; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Maximum recorded latency; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// The log2 histogram (bucket i = `[2^i, 2^(i+1))`).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Approximate p-th percentile (0..=100) from the log2 histogram:
    /// returns the upper bound of the bucket containing the percentile.
    pub fn percentile_upper_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (self.count as f64 * p / 100.0).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64 << (i + 1));
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        // Empty extremes are written as `null`, not as a sentinel
        // latency, and read back as empty.
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"min\":null"), "{json}");
        assert!(json.contains("\"max\":null"), "{json}");
        let back: LatencyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.min(), None);
        assert_eq!(back.max(), None);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn mean_and_extremes() {
        let mut s = LatencyStats::new();
        for l in [100, 200, 300] {
            s.record(l);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(200.0));
        assert_eq!(s.min(), Some(100));
        assert_eq!(s.max(), Some(300));
        // Recorded extremes are written as bare numbers.
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"min\":100,"), "{json}");
        assert!(json.contains("\"max\":300,"), "{json}");
        let back: LatencyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.min(), Some(100));
    }

    #[test]
    fn std_dev() {
        let mut s = LatencyStats::new();
        for l in [10, 10, 10] {
            s.record(l);
        }
        assert!(s.std_dev().unwrap() < 1e-9);
        let mut s2 = LatencyStats::new();
        s2.record(0);
        s2.record(20);
        assert!((s2.std_dev().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(100);
        let mut b = LatencyStats::new();
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(200.0));
        assert_eq!(a.max(), Some(300));
    }

    #[test]
    fn histogram_buckets() {
        let mut s = LatencyStats::new();
        s.record(1); // bucket 0
        s.record(2); // bucket 1
        s.record(3); // bucket 1
        s.record(1024); // bucket 10
        assert_eq!(s.histogram()[0], 1);
        assert_eq!(s.histogram()[1], 2);
        assert_eq!(s.histogram()[10], 1);
    }

    #[test]
    fn percentile_bound() {
        let mut s = LatencyStats::new();
        for _ in 0..99 {
            s.record(100); // bucket 6: [64,128)
        }
        s.record(100_000); // bucket 16
        assert_eq!(s.percentile_upper_bound(50.0), Some(128));
        assert!(s.percentile_upper_bound(100.0).unwrap() >= 100_000 / 2);
    }
}
