//! The serving layer's metric surface: every scheduler counter, gauge,
//! and latency histogram, registered once in a [`MetricsRegistry`] and
//! recorded through lock-free handles on the request path.
//!
//! [`ServeMetrics`] subsumes the old `ServerStats` counter struct: the
//! wire-level [`ServerStats`] snapshot is
//! now *derived* from these metrics ([`ServeMetrics::server_stats`]), so
//! there is exactly one source of truth for every count. On top of the
//! counters it adds three latency histograms stamped along the request
//! lifecycle:
//!
//! - `wormsim_request_latency_seconds` — submit-accept to final
//!   response, per request (cache hits included, so the fast path shows
//!   up in the low buckets);
//! - `wormsim_queue_wait_seconds` — job admission to worker pickup;
//! - `wormsim_execution_seconds` — worker pickup to simulation done.
//!
//! [`MetricsEmitter`] streams periodic [`MetricsFrame`] JSONL snapshots
//! for soak runs: one complete JSON document per line, parseable while
//! the run is still going, final frame written at stop so the file
//! always ends with the terminal state.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wormsim_obs::{
    render_prometheus, Counter, Gauge, LatencyHistogram, MetricsFrame, MetricsRegistry,
    MetricsSnapshot,
};

use crate::protocol::ServerStats;

/// Every serving-layer metric, with `Arc` handles for the hot paths.
/// Construct once per scheduler; clone the `Arc<ServeMetrics>` freely.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    /// Run/Sweep requests accepted for scheduling.
    pub requests: Arc<Counter>,
    /// Requests fully answered (result or error).
    pub completed: Arc<Counter>,
    /// Simulations actually executed.
    pub jobs_run: Arc<Counter>,
    /// Request items served from the result cache.
    pub cache_hits: Arc<Counter>,
    /// Request items attached to an identical in-flight job.
    pub dedup_joins: Arc<Counter>,
    /// Quota rejections.
    pub quota_rejects: Arc<Counter>,
    /// Queue-full rejections.
    pub backpressure_rejects: Arc<Counter>,
    /// Malformed specs rejected before scheduling.
    pub bad_spec_rejects: Arc<Counter>,
    /// Engine `ConfigError` rejections.
    pub config_rejects: Arc<Counter>,
    /// Worker panics answered with `code: "internal"`.
    pub internal_errors: Arc<Counter>,
    /// Cache inserts refused by fingerprint verification.
    pub integrity_drops: Arc<Counter>,
    /// Result-cache entries evicted to admit a newer result.
    pub cache_evictions: Arc<Counter>,
    /// Jobs queued or running right now.
    pub jobs_in_flight: Arc<Gauge>,
    /// Current result-cache population.
    pub cached_results: Arc<Gauge>,
    /// Submit-accept → final response, per request (nanoseconds).
    pub request_latency: Arc<LatencyHistogram>,
    /// Job admission → worker pickup (nanoseconds).
    pub queue_wait: Arc<LatencyHistogram>,
    /// Worker pickup → simulation finished (nanoseconds).
    pub execution: Arc<LatencyHistogram>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Register the full metric set in a fresh registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServeMetrics {
            requests: registry.counter("wormsim_requests_total"),
            completed: registry.counter("wormsim_requests_completed_total"),
            jobs_run: registry.counter("wormsim_jobs_run_total"),
            cache_hits: registry.counter("wormsim_cache_hits_total"),
            dedup_joins: registry.counter("wormsim_dedup_joins_total"),
            quota_rejects: registry.counter("wormsim_rejects_quota_total"),
            backpressure_rejects: registry.counter("wormsim_rejects_backpressure_total"),
            bad_spec_rejects: registry.counter("wormsim_rejects_bad_spec_total"),
            config_rejects: registry.counter("wormsim_rejects_config_total"),
            internal_errors: registry.counter("wormsim_internal_errors_total"),
            integrity_drops: registry.counter("wormsim_integrity_drops_total"),
            cache_evictions: registry.counter("wormsim_cache_evictions_total"),
            jobs_in_flight: registry.gauge("wormsim_jobs_in_flight"),
            cached_results: registry.gauge("wormsim_cached_results"),
            request_latency: registry.histogram("wormsim_request_latency_seconds"),
            queue_wait: registry.histogram("wormsim_queue_wait_seconds"),
            execution: registry.histogram("wormsim_execution_seconds"),
            registry,
        }
    }

    /// Snapshot every metric (JSON-serializable, wire-transportable).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Prometheus text exposition of the current snapshot.
    pub fn prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }

    /// Derive the wire-level counter snapshot. Gauges clamp at zero —
    /// they cannot go negative unless a decrement bug exists, and a
    /// clamped stats read must not panic a serving process.
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get(),
            completed: self.completed.get(),
            jobs_run: self.jobs_run.get(),
            cache_hits: self.cache_hits.get(),
            dedup_joins: self.dedup_joins.get(),
            quota_rejects: self.quota_rejects.get(),
            backpressure_rejects: self.backpressure_rejects.get(),
            bad_spec_rejects: self.bad_spec_rejects.get(),
            config_rejects: self.config_rejects.get(),
            internal_errors: self.internal_errors.get(),
            integrity_drops: self.integrity_drops.get(),
            cached_results: self.cached_results.get().max(0) as u64,
            in_flight: self.jobs_in_flight.get().max(0) as u64,
        }
    }
}

/// Shared stop signal: flag + condvar so the emitter thread sleeps the
/// interval but wakes immediately on stop.
struct EmitterSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// Periodic [`MetricsFrame`] JSONL emitter: a background thread that
/// appends one snapshot line per interval (flushed, so the file is
/// tailable), plus a final frame at stop.
pub struct MetricsEmitter {
    signal: Arc<EmitterSignal>,
    handle: Option<thread::JoinHandle<io::Result<u64>>>,
    finished: AtomicBool,
}

impl MetricsEmitter {
    /// Start emitting snapshots of `metrics` to `writer` every
    /// `interval`. The first frame is written after one interval; a
    /// final frame is always written at stop.
    pub fn spawn<W: Write + Send + 'static>(
        metrics: Arc<ServeMetrics>,
        writer: W,
        interval: Duration,
    ) -> io::Result<Self> {
        let signal = Arc::new(EmitterSignal {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_signal = signal.clone();
        let handle = thread::Builder::new()
            .name("wsim-metrics".into())
            .spawn(move || emitter_loop(metrics, writer, interval, thread_signal))?;
        Ok(MetricsEmitter {
            signal,
            handle: Some(handle),
            finished: AtomicBool::new(false),
        })
    }

    /// Signal the thread, wait for the final frame, and return how many
    /// frames were written (or the first write error).
    pub fn stop(mut self) -> io::Result<u64> {
        self.finished.store(true, Ordering::Relaxed);
        self.signal_stop();
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("metrics emitter panicked"))),
            None => Ok(0),
        }
    }

    fn signal_stop(&self) {
        let mut stopped = self
            .signal
            .stopped
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *stopped = true;
        self.signal.wake.notify_all();
    }
}

impl Drop for MetricsEmitter {
    fn drop(&mut self) {
        if !self.finished.load(Ordering::Relaxed) {
            self.signal_stop();
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn emitter_loop<W: Write>(
    metrics: Arc<ServeMetrics>,
    writer: W,
    interval: Duration,
    signal: Arc<EmitterSignal>,
) -> io::Result<u64> {
    let mut w = io::BufWriter::new(writer);
    let start = Instant::now();
    let mut seq = 0u64;
    let write_frame = |w: &mut io::BufWriter<W>, seq: u64| -> io::Result<()> {
        let frame = MetricsFrame {
            seq,
            elapsed_ms: start.elapsed().as_millis().min(u64::MAX as u128) as u64,
            metrics: metrics.snapshot(),
        };
        let line = serde_json::to_string(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        // Flush per frame: soak harnesses tail the file mid-run.
        w.flush()
    };
    loop {
        let stopped = {
            let guard = signal.stopped.lock().unwrap_or_else(|e| e.into_inner());
            let (guard, _timeout) = signal
                .wake
                .wait_timeout_while(guard, interval, |stopped| !*stopped)
                .unwrap_or_else(|e| e.into_inner());
            *guard
        };
        write_frame(&mut w, seq)?;
        seq += 1;
        if stopped {
            return Ok(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use wormsim_obs::parse_metrics_log;

    /// A `Write` that appends into shared memory (the emitter thread owns
    /// the writer, the test reads the buffer afterwards).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn server_stats_derive_from_metrics() {
        let m = ServeMetrics::new();
        m.requests.add(3);
        m.completed.add(2);
        m.jobs_in_flight.inc();
        m.cached_results.set(7);
        let stats = m.server_stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 1);
        assert_eq!(stats.cached_results, 7);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = ServeMetrics::new();
        m.requests.inc();
        m.request_latency.record_duration(Duration::from_millis(2));
        let text = m.prometheus();
        let samples = wormsim_obs::validate_prometheus(&text).unwrap();
        assert!(samples > 15, "expected a full metric family, got {samples}");
        assert!(text.contains("wormsim_request_latency_seconds_count 1"));
    }

    #[test]
    fn emitter_writes_parseable_frames_and_final_frame() {
        let m = Arc::new(ServeMetrics::new());
        m.requests.add(5);
        let buf = SharedBuf::default();
        let emitter =
            MetricsEmitter::spawn(m.clone(), buf.clone(), Duration::from_millis(20)).unwrap();
        thread::sleep(Duration::from_millis(90));
        m.completed.add(5);
        let written = emitter.stop().unwrap();
        assert!(written >= 2, "interval frames plus the final frame");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let frames = parse_metrics_log(&text).unwrap();
        assert_eq!(frames.len() as u64, written);
        // Sequence numbers are dense and elapsed time is monotone.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.metrics.counter("wormsim_requests_total"), Some(5));
        }
        assert!(frames
            .windows(2)
            .all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
        // The final frame carries the terminal state.
        assert_eq!(
            frames
                .last()
                .unwrap()
                .metrics
                .counter("wormsim_requests_completed_total"),
            Some(5)
        );
    }
}
