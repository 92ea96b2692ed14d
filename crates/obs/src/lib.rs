//! # wormsim-obs
//!
//! The observability layer for the wormhole simulator: structured
//! flit-level trace events, pluggable sinks, windowed cycle telemetry,
//! stall forensics, and the shared experiment progress reporter.
//!
//! Design constraint: instrumentation must be *zero-cost when off*. The
//! engine is generic over a [`Sink`] whose associated `ENABLED` constant
//! gates every emit site; with the default [`NullSink`] the guards
//! constant-fold away and the engine's zero-allocation steady state (and
//! its committed report fingerprint) are untouched.
//!
//! Modules:
//!
//! - [`TraceEvent`] / [`EventKind`] — the event vocabulary.
//! - [`NullSink`], [`VecSink`], [`RingSink`], [`TeeSink`] — in-memory
//!   sinks; [`JsonlSink`] streams to any writer; [`ChromeTraceSink`]
//!   exports `chrome://tracing` / Perfetto documents.
//! - [`TelemetrySink`] — folds the event stream into per-window
//!   [`CycleTelemetry`] time series.
//! - [`StallDiagnosis`] — wait-for-graph forensics for the watchdog.
//! - [`Progress`] — quiet/verbose chatter policy for experiment bins;
//!   [`ProgressFrame`] / [`FrameLog`] — machine-readable progress ticks
//!   for sockets and logs.
//! - [`MetricsRegistry`] / [`Counter`] / [`Gauge`] /
//!   [`LatencyHistogram`] — lock-free service metrics with log₂ latency
//!   buckets, JSON snapshots ([`MetricsSnapshot`]), and Prometheus text
//!   exposition ([`render_prometheus`] / [`validate_prometheus`]).

#![forbid(unsafe_code)]

mod chrome;
mod event;
mod jsonl;
mod metrics;
mod progress;
mod sink;
mod stall;
mod telemetry;

pub use chrome::ChromeTraceSink;
pub use event::{EventKind, TraceEvent};
pub use jsonl::{parse_jsonl, JsonlSink};
pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, parse_metrics_log, render_prometheus,
    validate_prometheus, BucketCount, Counter, CounterSample, Gauge, GaugeSample, HistogramSample,
    LatencyHistogram, MetricsFrame, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use progress::{parse_frame_log, FrameLog, Progress, ProgressFrame};
pub use sink::{NullSink, RingSink, Sink, TeeSink, VecSink};
pub use stall::{Hotspot, StallDiagnosis, StallMessage, WaitEdge};
pub use telemetry::{CycleTelemetry, TelemetrySink, TelemetryWindow};
