//! Lock-free service metrics: counters, gauges, log₂ latency histograms,
//! and a static-registration registry with JSON + Prometheus exposition.
//!
//! The serving layer (and any long-running driver) needs runtime signals
//! that survive concurrency without perturbing the workload: every
//! recording operation here is a handful of relaxed atomic RMWs — no
//! locks, no allocation on the hot path. Registration (naming a metric
//! and obtaining its handle) happens once at construction time behind a
//! mutex; thereafter handles are plain `Arc`s shared across threads.
//!
//! Latency is tracked by [`LatencyHistogram`], a fixed array of 65
//! power-of-two buckets over `u64` values (nanoseconds by convention):
//! bucket 0 holds zeros and bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`,
//! with the top bucket saturating at `u64::MAX`. Quantiles (p50/p90/p99/
//! p999) are estimated by rank-scanning the bucket counts and linearly
//! interpolating inside the located bucket, so every estimate is bounded
//! by its bucket's edges.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain serde structs that
//! round-trip through JSON, render to Prometheus text exposition via
//! [`render_prometheus`], and stream as JSONL frames ([`MetricsFrame`])
//! for soak-run timelines. Metrics never feed into `SimReport`: the
//! engine's report fingerprints stay a function of simulation inputs
//! only.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of buckets in a [`LatencyHistogram`]: one zero bucket plus one
/// per power of two of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (in-flight jobs, cache size).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log₂-scale histogram for latency-like `u64` samples
/// (nanoseconds by convention).
///
/// Recording is wait-free: one relaxed `fetch_add` on the owning bucket,
/// one on the running sum, and a relaxed `fetch_max` for the maximum.
/// The total count is derived from the bucket array, so a snapshot taken
/// during concurrent recording is internally consistent bucket-by-bucket.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for zero, else `64 - leading_zeros`, so
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower edge of bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper edge of bucket `i` (the top bucket saturates).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating accumulate: u64 nanoseconds would need ~584 years of
        // recorded latency to wrap, but don't let pathological inputs
        // corrupt the sum silently.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`Duration`] as nanoseconds (saturating on overflow).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Load the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by locating the bucket
    /// holding the rank-`⌈q·count⌉` sample and interpolating linearly
    /// between its edges. Returns 0 for an empty histogram. The estimate
    /// is within the located bucket's `[lower, upper]` range, and never
    /// above the recorded maximum (interpolating toward a sparse
    /// bucket's upper edge would otherwise let p99 exceed max).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bucket_counts(), q).min(self.max())
    }

    /// Snapshot into a plain serializable record under `name`.
    pub fn sample(&self, name: &str) -> HistogramSample {
        let counts = self.bucket_counts();
        let max = self.max();
        let count: u64 = counts.iter().sum();
        let buckets = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| BucketCount {
                le: bucket_upper(i),
                count: *c,
            })
            .collect();
        HistogramSample {
            name: name.to_string(),
            count,
            sum: self.sum(),
            max,
            p50: quantile_from_buckets(&counts, 0.50).min(max),
            p90: quantile_from_buckets(&counts, 0.90).min(max),
            p99: quantile_from_buckets(&counts, 0.99).min(max),
            p999: quantile_from_buckets(&counts, 0.999).min(max),
            buckets,
        }
    }
}

/// Quantile estimation shared by the live histogram and snapshots.
fn quantile_from_buckets(counts: &[u64; HISTOGRAM_BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        if *c == 0 {
            continue;
        }
        let prev = cum;
        cum += c;
        if cum >= rank {
            let lower = bucket_lower(i);
            let upper = bucket_upper(i);
            let frac = (rank - prev) as f64 / *c as f64;
            let est = lower as f64 + frac * (upper - lower) as f64;
            return (est as u64).clamp(lower, upper);
        }
    }
    bucket_upper(HISTOGRAM_BUCKETS - 1)
}

/// One counter in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket: `count` samples with value `≤ le`
/// (and greater than the previous bucket's edge).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper edge of the bucket.
    pub le: u64,
    /// Samples in this bucket (non-cumulative).
    pub count: u64,
}

/// One histogram in a snapshot: totals, estimated quantiles, and the
/// non-empty buckets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Estimated 99.9th percentile.
    pub p999: u64,
    /// Non-empty buckets in ascending edge order.
    pub buckets: Vec<BucketCount>,
}

/// A point-in-time copy of every registered metric. Simple data: clones,
/// compares, and round-trips through JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All registered counters, in registration order.
    pub counters: Vec<CounterSample>,
    /// All registered gauges, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// All registered histograms, in registration order.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram sample, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A static-registration metric registry: metrics are named once at
/// construction time (duplicate names panic — they indicate a wiring
/// bug, not a runtime condition) and recorded through the returned
/// `Arc` handles without ever touching the registry again.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(&'static str, Arc<Counter>)>>,
    gauges: Mutex<Vec<(&'static str, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(&'static str, Arc<LatencyHistogram>)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register a counter under `name` and return its handle.
    ///
    /// # Panics
    /// If `name` is already registered as a counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut v = self.counters.lock().unwrap();
        assert!(
            v.iter().all(|(n, _)| *n != name),
            "duplicate counter registration: {name}"
        );
        let c = Arc::new(Counter::new());
        v.push((name, Arc::clone(&c)));
        c
    }

    /// Register a gauge under `name` and return its handle.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut v = self.gauges.lock().unwrap();
        assert!(
            v.iter().all(|(n, _)| *n != name),
            "duplicate gauge registration: {name}"
        );
        let g = Arc::new(Gauge::new());
        v.push((name, Arc::clone(&g)));
        g
    }

    /// Register a histogram under `name` and return its handle.
    ///
    /// # Panics
    /// If `name` is already registered as a histogram.
    pub fn histogram(&self, name: &'static str) -> Arc<LatencyHistogram> {
        let mut v = self.histograms.lock().unwrap();
        assert!(
            v.iter().all(|(n, _)| *n != name),
            "duplicate histogram registration: {name}"
        );
        let h = Arc::new(LatencyHistogram::new());
        v.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| CounterSample {
                name: n.to_string(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| GaugeSample {
                name: n.to_string(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| h.sample(n))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Render every registered metric as Prometheus text exposition.
    pub fn prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }
}

/// Format a histogram edge as a Prometheus `le` label value: the edge is
/// in nanoseconds, the exposition is in seconds.
fn le_label(ns: u64) -> String {
    if ns == u64::MAX {
        "+Inf".to_string()
    } else {
        format!("{}", ns as f64 / 1e9)
    }
}

/// Render a snapshot in Prometheus text exposition format. Histogram
/// names are expected to carry a `_seconds` suffix: recorded nanosecond
/// values are converted to seconds for `le` labels and `_sum`.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        out.push_str(&format!(
            "# TYPE {} counter\n{} {}\n",
            c.name, c.name, c.value
        ));
    }
    for g in &snap.gauges {
        out.push_str(&format!(
            "# TYPE {} gauge\n{} {}\n",
            g.name, g.name, g.value
        ));
    }
    for h in &snap.histograms {
        out.push_str(&format!("# TYPE {} histogram\n", h.name));
        let mut cum = 0u64;
        for b in &h.buckets {
            cum += b.count;
            out.push_str(&format!(
                "{}_bucket{{le=\"{}\"}} {}\n",
                h.name,
                le_label(b.le),
                cum
            ));
        }
        out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name, h.count));
        out.push_str(&format!("{}_sum {}\n", h.name, h.sum as f64 / 1e9));
        out.push_str(&format!("{}_count {}\n", h.name, h.count));
    }
    out
}

/// Validate Prometheus text exposition line-by-line: every line must be
/// a well-formed comment (`# TYPE` / `# HELP`) or a sample
/// (`name[{labels}] value`). Returns the number of sample lines, or the
/// 1-based line number and reason of the first malformed line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut parts = t.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name)
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    )
                {
                    return Err(format!("line {lineno}: malformed TYPE comment"));
                }
            } else if !rest.starts_with("HELP ") {
                return Err(format!("line {lineno}: unknown comment form"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: missing value"))?;
        let value_ok = value == "+Inf"
            || value == "-Inf"
            || value.parse::<f64>().map(|v| v.is_finite()).unwrap_or(false);
        if !value_ok {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }
        let name_part = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {lineno}: label without '='"))?;
                    if !valid_name(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {lineno}: malformed label {pair:?}"));
                    }
                }
                name
            }
            None => series,
        };
        if !valid_name(name_part) {
            return Err(format!("line {lineno}: bad metric name {name_part:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// One timeline frame from a periodic metrics emitter: a sequence
/// number, milliseconds since the emitter started, and the snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsFrame {
    /// Frame sequence number, starting at 0.
    pub seq: u64,
    /// Milliseconds elapsed since the emitter started.
    pub elapsed_ms: u64,
    /// The snapshot taken for this frame.
    pub metrics: MetricsSnapshot,
}

/// Parse a metrics timeline (one [`MetricsFrame`] JSON document per
/// line; empty lines skipped; 1-based line number on parse errors).
pub fn parse_metrics_log(text: &str) -> Result<Vec<MetricsFrame>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: MetricsFrame =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(f);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert!(bucket_lower(i) <= bucket_upper(i));
            if i > 0 {
                assert_eq!(bucket_lower(i), bucket_upper(i - 1).wrapping_add(1));
            }
        }
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 5, 5, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_111);
        assert_eq!(h.max(), 1_000_000);
        let p50 = h.quantile(0.5);
        // Rank 4 of 7 is the second 5 — bucket [4, 7].
        assert!((4..=7).contains(&p50), "p50={p50}");
        let p100 = h.quantile(1.0);
        let (lo, hi) = (
            bucket_lower(bucket_index(1_000_000)),
            bucket_upper(bucket_index(1_000_000)),
        );
        assert!((lo..=hi).contains(&p100));
    }

    #[test]
    fn sample_quantiles_match_live() {
        let h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(v * 17);
        }
        let s = h.sample("t");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, h.quantile(0.50));
        assert_eq!(s.p99, h.quantile(0.99));
        assert_eq!(s.max, 999 * 17);
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, s.count);
    }

    #[test]
    fn registry_snapshot_round_trips() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("wormsim_requests_total");
        let g = reg.gauge("wormsim_jobs_in_flight");
        let h = reg.histogram("wormsim_request_latency_seconds");
        c.add(5);
        g.set(3);
        g.dec();
        h.record_duration(Duration::from_micros(250));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("wormsim_requests_total"), Some(5));
        assert_eq!(snap.gauge("wormsim_jobs_in_flight"), Some(2));
        assert_eq!(
            snap.histogram("wormsim_request_latency_seconds")
                .unwrap()
                .count,
            1
        );
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    #[should_panic(expected = "duplicate counter registration")]
    fn duplicate_registration_panics() {
        let reg = MetricsRegistry::new();
        let _a = reg.counter("twice");
        let _b = reg.counter("twice");
    }

    #[test]
    fn prometheus_renders_and_validates() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("wormsim_requests_total");
        let g = reg.gauge("wormsim_cached_results");
        let h = reg.histogram("wormsim_request_latency_seconds");
        c.add(2);
        g.set(1);
        h.record(1500);
        h.record(1_000_000);
        let text = reg.prometheus();
        let samples = validate_prometheus(&text).unwrap();
        // 1 counter + 1 gauge + (2 buckets + Inf + sum + count).
        assert_eq!(samples, 7);
        assert!(text.contains("# TYPE wormsim_request_latency_seconds histogram"));
        assert!(text.contains("wormsim_request_latency_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        // Cumulative bucket counts are monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v as u64 >= last);
            last = v as u64;
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("ok_metric 1\n").is_ok());
        assert!(validate_prometheus("bad metric name 1 2 3 oops\n").is_err());
        assert!(validate_prometheus("no_value\n").is_err());
        assert!(validate_prometheus("x{le=\"0.5\"} nanbad\n").is_err());
        assert!(validate_prometheus("x{le=0.5} 1\n").is_err());
        let err = validate_prometheus("fine 1\nbroken{ 2\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn metrics_log_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(1);
        let frames = vec![
            MetricsFrame {
                seq: 0,
                elapsed_ms: 0,
                metrics: reg.snapshot(),
            },
            MetricsFrame {
                seq: 1,
                elapsed_ms: 100,
                metrics: reg.snapshot(),
            },
        ];
        let text: String = frames
            .iter()
            .map(|f| serde_json::to_string(f).unwrap() + "\n")
            .collect();
        let back = parse_metrics_log(&text).unwrap();
        assert_eq!(back, frames);
        assert!(parse_metrics_log("{oops")
            .unwrap_err()
            .starts_with("line 1:"));
    }
}
