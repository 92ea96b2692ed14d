//! # wormsim-serve
//!
//! The simulator as a long-running service. A `serve` process binds a
//! TCP port, accepts length-prefixed JSON frames (see [`protocol`]), and
//! runs each simulation job on a *lane*: a thread the dispatcher starts
//! on demand, up to one per core, that pops the oldest queued job the
//! moment it is free and runs it on a simulator built for that job.
//!
//! What the service guarantees:
//!
//! - **Determinism on the wire.** A request's result is the byte-exact
//!   compact JSON of the `SimReport` that a direct
//!   [`wormsim_experiments::run_custom`] call for the same spec would
//!   produce, plus its FNV-1a fingerprint. The soak harness hammers this
//!   invariant under heavy concurrency.
//! - **Work sharing.** Identical concurrent requests are deduplicated
//!   (joiners attach to the running job); identical later requests hit a
//!   bounded LRU result cache. Both are keyed by the spec's full
//!   canonical content — never a bare hash — so no two distinct specs
//!   can ever share an entry, and cached reports are fingerprint-
//!   verified when inserted.
//! - **Typed overload behavior.** Per-client quotas and a queue-depth
//!   bound reject with machine-readable error frames (`quota`,
//!   `backpressure`) instead of hanging; malformed specs and
//!   engine-rejected configurations come back as `bad_spec` / `config`.
//! - **Graceful drain.** Shutdown answers every admitted request, then
//!   joins the lanes and the dispatcher.
//!
//! - **A scrapeable metric surface.** Every counter, gauge, and latency
//!   histogram lives in a lock-free [`MetricsRegistry`](wormsim_obs::MetricsRegistry)
//!   ([`metrics::ServeMetrics`]); [`Request::Metrics`] returns both a
//!   structured snapshot and a Prometheus text exposition, and
//!   [`MetricsEmitter`] streams periodic JSONL snapshots for soak runs.
//!   `ServerStats` is derived from the registry — one source of truth.
//!
//! Crate layout: [`protocol`] (framing + wire vocabulary), [`intern`]
//! (fault-pattern interning so a repeated fault list is validated once),
//! [`scheduler`] (dedup, cache, quotas, dispatcher and lanes), [`metrics`]
//! (counters, gauges, latency histograms, periodic emitter), [`server`]
//! (TCP plumbing), [`client`] (blocking client used by the soak and
//! process tests, `wormbench`, and scripts).

#![forbid(unsafe_code)]

pub mod client;
pub mod intern;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError, RunOutcome, SweepOutcome};
pub use intern::PatternInterner;
pub use metrics::{MetricsEmitter, ServeMetrics};
pub use protocol::{
    algorithm_from_name, read_frame, read_frame_with, write_frame, Request, Response, ServerStats,
    SpecError, WireSpec, MAX_FRAME_LEN,
};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig};
