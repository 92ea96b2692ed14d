//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! Framing is deliberately minimal — a big-endian `u32` byte length
//! followed by exactly that many bytes of UTF-8 JSON — so any language
//! with a socket and a JSON parser can speak it. One frame carries one
//! complete [`Request`] or [`Response`] document (externally tagged, the
//! vendored serde convention). Frames larger than [`MAX_FRAME_LEN`] are
//! rejected before allocation so a corrupt length prefix cannot OOM the
//! server.
//!
//! Requests carry a client-chosen `id` that every response for that
//! request echoes, so clients may pipeline: send many requests on one
//! connection and match the (possibly interleaved) responses by id.
//! `id` 0 is reserved for server-originated errors about frames that
//! could not be parsed far enough to recover an id.

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::sync::Arc;
use wormsim_engine::SimConfig;
use wormsim_experiments::CustomSpec;
use wormsim_obs::{MetricsSnapshot, ProgressFrame};
use wormsim_routing::{AlgorithmKind, VcConfig};
use wormsim_topology::Coord;
use wormsim_traffic::{TrafficPattern, Workload};

use crate::intern::PatternInterner;

/// Upper bound on a frame's payload length (16 MiB). A sweep of a few
/// thousand specs fits comfortably; a garbage length prefix does not.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Write one frame: `u32` big-endian payload length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Fill `buf` from `r`, tolerating interrupts and — when `stop` is given —
/// using read timeouts as poll points. Returns `Ok(false)` on a clean stop
/// or on EOF at a frame boundary (`at_boundary`); EOF mid-frame is an
/// `UnexpectedEof` error.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: Option<&dyn Fn() -> bool>,
    at_boundary: bool,
) -> io::Result<bool> {
    let mut off = 0;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => {
                if off == 0 && at_boundary {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                match stop {
                    Some(stop) if stop() => return Ok(false),
                    Some(_) => continue,
                    // Without a stop hook a timeout is a real error: the
                    // caller asked for a blocking read.
                    None => return Err(e),
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly between frames.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    read_frame_with(r, None)
}

/// [`read_frame`] with a stop hook: when the underlying stream has a read
/// timeout, each timeout polls `stop`, and a raised stop returns
/// `Ok(None)` as if the peer had disconnected. This is how server
/// connection threads stay responsive to shutdown while blocked on idle
/// clients.
pub fn read_frame_with<R: Read>(
    r: &mut R,
    stop: Option<&dyn Fn() -> bool>,
) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    if !fill(r, &mut hdr, stop, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(hdr) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut buf = vec![0u8; len];
    if !fill(r, &mut buf, stop, false)? {
        return Ok(None);
    }
    Ok(Some(buf))
}

/// One simulation, as a client describes it on the wire. Mesh-size,
/// cycle-count, and VC knobs are explicit (rather than inheriting a
/// server-side profile) so a request is self-contained: its
/// [`CustomSpec`] expansion — and therefore its dedup/cache identity —
/// depends on nothing but this struct's content.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireSpec {
    /// Square mesh radix.
    pub mesh_size: u16,
    /// Algorithm variant name (`"Duato"`, `"Nbc"`, `"Xy"`, ... — the
    /// `AlgorithmKind` variant identifiers).
    pub algorithm: String,
    /// Faulty node coordinates (order and duplicates are irrelevant: the
    /// list is canonicalized before interning).
    pub faults: Vec<Coord>,
    /// Messages per node per cycle.
    pub rate: f64,
    /// Flits per message.
    pub message_length: u32,
    /// Warm-up cycles (discarded from statistics).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// PRNG seed.
    pub seed: u64,
    /// Total virtual channels per physical channel (BC overlay share and
    /// misroute cap stay at the paper's 4/10).
    pub vc_total: u8,
}

impl WireSpec {
    /// A paper-flavored spec for `algorithm` at `rate` on a fault-free
    /// `mesh_size` mesh — the common case; adjust fields as needed.
    pub fn basic(mesh_size: u16, algorithm: &str, rate: f64, seed: u64) -> Self {
        let sim = SimConfig::paper();
        WireSpec {
            mesh_size,
            algorithm: algorithm.to_string(),
            faults: Vec::new(),
            rate,
            message_length: 100,
            warmup_cycles: sim.warmup_cycles,
            measure_cycles: sim.measure_cycles,
            seed,
            vc_total: VcConfig::paper().total,
        }
    }
}

/// Why a [`WireSpec`] could not be expanded into a runnable
/// [`CustomSpec`]. Distinct from [`wormsim_engine::ConfigError`], which
/// the engine raises later for specs that parse but cannot run.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// `algorithm` names no [`AlgorithmKind`] variant.
    UnknownAlgorithm(String),
    /// Mesh radix outside the supported `2..=64` range.
    BadMeshSize(u16),
    /// A fault coordinate or the pattern as a whole is unusable.
    BadPattern(String),
    /// `rate` is negative, NaN, or infinite.
    BadRate(f64),
    /// `vc_total` below the minimum the algorithm roster needs (6).
    TooFewVcs(u8),
    /// `message_length` is zero.
    ZeroLengthMessages,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownAlgorithm(name) => write!(f, "unknown algorithm {name:?}"),
            SpecError::BadMeshSize(n) => write!(f, "mesh_size {n} outside 2..=64"),
            SpecError::BadPattern(msg) => write!(f, "unusable fault pattern: {msg}"),
            SpecError::BadRate(r) => write!(f, "rate {r} is not a finite non-negative number"),
            SpecError::TooFewVcs(n) => write!(f, "vc_total {n} below the roster minimum of 6"),
            SpecError::ZeroLengthMessages => write!(f, "message_length must be >= 1"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Map a wire algorithm name to its [`AlgorithmKind`] (the derive's
/// variant identifiers, which is also how specs serialize).
pub fn algorithm_from_name(name: &str) -> Option<AlgorithmKind> {
    Some(match name {
        "PHop" => AlgorithmKind::PHop,
        "NHop" => AlgorithmKind::NHop,
        "Pbc" => AlgorithmKind::Pbc,
        "Nbc" => AlgorithmKind::Nbc,
        "Duato" => AlgorithmKind::Duato,
        "DuatoPbc" => AlgorithmKind::DuatoPbc,
        "DuatoNbc" => AlgorithmKind::DuatoNbc,
        "MinimalAdaptive" => AlgorithmKind::MinimalAdaptive,
        "FullyAdaptive" => AlgorithmKind::FullyAdaptive,
        "BouraAdaptive" => AlgorithmKind::BouraAdaptive,
        "BouraFaultTolerant" => AlgorithmKind::BouraFaultTolerant,
        "Xy" => AlgorithmKind::Xy,
        "WestFirst" => AlgorithmKind::WestFirst,
        "NorthLast" => AlgorithmKind::NorthLast,
        "NegativeFirst" => AlgorithmKind::NegativeFirst,
        _ => return None,
    })
}

impl WireSpec {
    /// Expand into the [`CustomSpec`] the runner consumes, interning the
    /// fault pattern so identical wire patterns share one `Arc`.
    ///
    /// Only *malformed* specs are rejected here. A well-formed spec the
    /// engine cannot honor (`vc_total` past the bitmask ceiling or below
    /// the algorithm's mesh-dependent minimum) passes
    /// through and comes back from the runner as a typed
    /// [`wormsim_engine::ConfigError`] — by design, so the scheduler's
    /// error path exercises the same machinery as any other run.
    pub fn to_custom(&self, interner: &PatternInterner) -> Result<CustomSpec, SpecError> {
        let kind = algorithm_from_name(&self.algorithm)
            .ok_or_else(|| SpecError::UnknownAlgorithm(self.algorithm.clone()))?;
        if !(2..=64).contains(&self.mesh_size) {
            return Err(SpecError::BadMeshSize(self.mesh_size));
        }
        if !self.rate.is_finite() || self.rate < 0.0 {
            return Err(SpecError::BadRate(self.rate));
        }
        if self.vc_total < 6 {
            return Err(SpecError::TooFewVcs(self.vc_total));
        }
        if self.message_length == 0 {
            return Err(SpecError::ZeroLengthMessages);
        }
        let pattern = interner
            .intern(self.mesh_size, &self.faults)
            .map_err(|e| SpecError::BadPattern(e.to_string()))?;
        let mut sim = SimConfig::paper().with_seed(self.seed);
        sim.warmup_cycles = self.warmup_cycles;
        sim.measure_cycles = self.measure_cycles;
        Ok(CustomSpec {
            mesh_size: self.mesh_size,
            vc: VcConfig {
                total: self.vc_total,
                ..VcConfig::paper()
            },
            sim,
            kind,
            pattern,
            workload: Workload {
                pattern: TrafficPattern::Uniform,
                rate: self.rate,
                message_length: self.message_length,
            },
        })
    }
}

/// A client → server frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Run one simulation.
    Run {
        /// Client-chosen id echoed in every response for this request.
        id: u64,
        /// What to simulate.
        spec: WireSpec,
    },
    /// Run a batch; progress frames stream back as items complete.
    Sweep {
        /// Client-chosen id echoed in every response for this request.
        id: u64,
        /// The batch, answered in order.
        specs: Vec<WireSpec>,
    },
    /// Fetch the server's counters.
    Stats,
    /// Fetch the full metric surface: a structured snapshot (counters,
    /// gauges, latency histograms) plus its Prometheus text exposition.
    Metrics,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
}

/// A server → client frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A sweep item completed (streamed, `done`/`total` in the frame).
    Progress {
        /// Echo of the request id.
        id: u64,
        /// The progress tick.
        frame: ProgressFrame,
    },
    /// A [`Request::Run`] finished. The report travels as its exact
    /// compact-JSON serialization so clients can byte-compare results
    /// (the soak harness's divergence check depends on this).
    Result {
        /// Echo of the request id.
        id: u64,
        /// `SimReport` as compact JSON.
        report_json: String,
        /// FNV-1a fingerprint of `report_json`.
        fingerprint: String,
        /// Served from the result cache (no simulation ran).
        cached: bool,
        /// Joined an identical in-flight job (no extra simulation ran).
        deduped: bool,
    },
    /// A [`Request::Sweep`] finished; entries are in request order.
    SweepResult {
        /// Echo of the request id.
        id: u64,
        /// `SimReport` compact JSON per spec.
        report_jsons: Vec<String>,
        /// Fingerprint per report.
        fingerprints: Vec<String>,
    },
    /// A request was rejected or failed. `code` is machine-readable:
    /// `bad_request` (unparseable frame), `bad_spec` (malformed spec),
    /// `config` (engine [`wormsim_engine::ConfigError`]), `quota`,
    /// `backpressure`, `shutting_down`, or `internal`.
    Error {
        /// Echo of the request id (0 if it could not be parsed).
        id: u64,
        /// Machine-readable reject class.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Counter snapshot.
        stats: ServerStats,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// Structured snapshot of every registered metric.
        snapshot: MetricsSnapshot,
        /// The same snapshot rendered as Prometheus text exposition.
        prometheus: String,
    },
    /// Acknowledges [`Request::Shutdown`]; the server drains and exits.
    Goodbye,
}

/// Server counters, exported over the wire and returned by
/// `Server::stop`. All counts are since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Run/Sweep requests accepted for scheduling.
    pub requests: u64,
    /// Requests fully answered (result or error).
    pub completed: u64,
    /// Simulations actually executed (dedup/cache avoid the rest).
    pub jobs_run: u64,
    /// Request items served straight from the result cache.
    pub cache_hits: u64,
    /// Request items attached to an identical in-flight job.
    pub dedup_joins: u64,
    /// Requests rejected because the client hit its in-flight quota.
    pub quota_rejects: u64,
    /// Requests rejected because the job queue was full.
    pub backpressure_rejects: u64,
    /// Specs rejected as malformed before scheduling.
    pub bad_spec_rejects: u64,
    /// Jobs rejected by the engine with a typed `ConfigError`.
    pub config_rejects: u64,
    /// Jobs lost to worker panics (answered with `code: "internal"`).
    pub internal_errors: u64,
    /// Results refused caching by the insert-time fingerprint
    /// verification (mismatch — should stay 0).
    pub integrity_drops: u64,
    /// Current result-cache population.
    pub cached_results: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
}

fn message_json<T: Serialize>(msg: &T) -> io::Result<String> {
    serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Serialize a request/response and frame it onto `w`.
pub fn send_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    write_frame(w, message_json(msg)?.as_bytes())
}

/// One finished simulation, immutable behind the `Arc` the result cache
/// and every waiter share. It holds the report in one form only: the
/// JSON string literal a frame carries, escaped once when the job
/// resolved and stored at its exact size. Every [`Response::Result`] and
/// [`Response::SweepResult`] frame that answers with this result copies
/// that literal; nothing re-escapes or clones the report text.
#[derive(Debug)]
pub struct RunResult {
    /// The `SimReport`'s compact JSON as an escaped JSON string literal,
    /// quotes included.
    report_literal: Box<str>,
    /// FNV-1a fingerprint of the report's compact JSON.
    fingerprint: u64,
}

impl RunResult {
    /// Escape `report_json` into its stored literal beside `fingerprint`.
    /// The literal goes through `serde_json`'s own string writer, so its
    /// escaping cannot differ from the `Response` derive's.
    pub fn new(report_json: &str, fingerprint: u64) -> Self {
        let literal = serde_json::to_string(report_json).expect("a string serializes");
        RunResult {
            report_literal: literal.into_boxed_str(),
            fingerprint,
        }
    }
}

/// What the scheduler hands a connection's writer.
#[derive(Debug)]
pub enum Outgoing {
    /// Any response, serialized by its derive when written.
    Message(Response),
    /// A [`Response::Result`], assembled around the stored literal of its
    /// shared [`RunResult`].
    Result {
        /// Echo of the request id.
        id: u64,
        /// The finished simulation.
        result: Arc<RunResult>,
        /// Served from the result cache (no simulation ran).
        cached: bool,
        /// Joined an identical in-flight job (no extra simulation ran).
        deduped: bool,
    },
    /// A [`Response::SweepResult`], assembled around the stored literals
    /// of its shared [`RunResult`]s.
    Sweep {
        /// Echo of the request id.
        id: u64,
        /// One finished simulation per spec, in request order.
        results: Vec<Arc<RunResult>>,
    },
}

impl Outgoing {
    /// The frame payload: byte for byte `serde_json::to_string` of the
    /// response this stands for.
    pub fn payload(&self) -> io::Result<String> {
        const INFALLIBLE: &str = "writing to a String cannot fail";
        Ok(match self {
            Outgoing::Message(response) => return message_json(response),
            Outgoing::Result {
                id,
                result,
                cached,
                deduped,
            } => {
                // 128 bytes cover every field but the report literal.
                let mut out = String::with_capacity(result.report_literal.len() + 128);
                write!(
                    out,
                    "{{\"Result\":{{\"id\":{id},\"report_json\":{},\"fingerprint\":\"{:016x}\",\
                     \"cached\":{cached},\"deduped\":{deduped}}}}}",
                    result.report_literal, result.fingerprint
                )
                .expect(INFALLIBLE);
                out
            }
            Outgoing::Sweep { id, results } => {
                // Per entry: its literal and a quoted fingerprint, each
                // with a comma; 64 bytes cover the rest.
                let entries: usize = results.iter().map(|r| r.report_literal.len() + 20).sum();
                let mut out = String::with_capacity(entries + 64);
                write!(out, "{{\"SweepResult\":{{\"id\":{id},\"report_jsons\":[")
                    .expect(INFALLIBLE);
                for (i, r) in results.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    out.push_str(comma);
                    out.push_str(&r.report_literal);
                }
                out.push_str("],\"fingerprints\":[");
                for (i, r) in results.iter().enumerate() {
                    let comma = if i == 0 { "" } else { "," };
                    write!(out, "{comma}\"{:016x}\"", r.fingerprint).expect(INFALLIBLE);
                }
                out.push_str("]}}");
                out
            }
        })
    }
}

/// Shared-ownership emit hook the scheduler uses to deliver responses —
/// on the server it wraps the connection's writer queue.
pub type Emit = Arc<dyn Fn(Outgoing) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_experiments::fnv1a;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let req = Request::Run {
            id: 7,
            spec: WireSpec::basic(8, "Duato", 0.004, 42),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        match back {
            Request::Run { id, spec } => {
                assert_eq!(id, 7);
                assert_eq!(spec.mesh_size, 8);
                assert_eq!(spec.algorithm, "Duato");
                assert_eq!(spec.seed, 42);
            }
            other => panic!("round-trip changed the variant: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resp = Response::Progress {
            id: 3,
            frame: ProgressFrame::new("sweep-3", 2, 5),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        match back {
            Response::Progress { id, frame } => {
                assert_eq!(id, 3);
                assert_eq!(frame, ProgressFrame::new("sweep-3", 2, 5));
            }
            other => panic!("round-trip changed the variant: {other:?}"),
        }
    }

    #[test]
    fn every_roster_name_parses() {
        for kind in AlgorithmKind::ALL
            .iter()
            .chain(AlgorithmKind::EXTENDED_BASELINES.iter())
        {
            let name = serde_json::to_string(kind).unwrap();
            let name = name.trim_matches('"');
            assert_eq!(algorithm_from_name(name), Some(*kind), "{name}");
        }
        assert_eq!(algorithm_from_name("Bogus"), None);
    }

    #[test]
    fn wire_spec_expansion_validates() {
        let interner = PatternInterner::default();
        let good = WireSpec::basic(8, "Duato", 0.004, 1);
        let custom = good.to_custom(&interner).unwrap();
        assert_eq!(custom.mesh_size, 8);
        assert_eq!(custom.sim.seed, 1);

        let mut bad = good.clone();
        bad.algorithm = "Bogus".into();
        assert!(matches!(
            bad.to_custom(&interner),
            Err(SpecError::UnknownAlgorithm(_))
        ));

        let mut bad = good.clone();
        bad.rate = f64::NAN;
        assert!(matches!(
            bad.to_custom(&interner),
            Err(SpecError::BadRate(_))
        ));

        let mut bad = good.clone();
        bad.faults = vec![Coord { x: 99, y: 99 }];
        assert!(matches!(
            bad.to_custom(&interner),
            Err(SpecError::BadPattern(_))
        ));

        // Engine-level rejections pass through expansion untouched.
        let mut engine_bad = good;
        engine_bad.vc_total = 40;
        assert_eq!(engine_bad.to_custom(&interner).unwrap().vc.total, 40);
    }

    /// Reports with every kind of character the escaper treats specially.
    const ESCAPE_HEAVY_REPORTS: [&str; 5] = [
        r#"{"algorithm":"Duato's routing","n":1}"#,
        "back\\slash \\\" and a\nnewline\r\ttab",
        "control \u{1} \u{1f} \u{7f} bytes",
        "non-ASCII: λ → 網 🕸 \u{2028}",
        "",
    ];

    /// A result for `report` and the fingerprint the wire shows for it.
    fn result_for(report: &str) -> (Arc<RunResult>, String) {
        let fingerprint = fnv1a(report.as_bytes());
        (
            Arc::new(RunResult::new(report, fingerprint)),
            format!("{fingerprint:016x}"),
        )
    }

    #[test]
    fn assembled_result_frame_equals_the_derive_byte_for_byte() {
        // The assembled frame must be what the derive would have written,
        // for every kind of character the escaper treats specially, and
        // must parse back to the same fields.
        for report in ESCAPE_HEAVY_REPORTS {
            let (result, fingerprint) = result_for(report);
            for (cached, deduped) in [(false, false), (false, true), (true, false), (true, true)] {
                let id = u64::MAX - report.len() as u64;
                let derived = serde_json::to_string(&Response::Result {
                    id,
                    report_json: report.to_string(),
                    fingerprint: fingerprint.clone(),
                    cached,
                    deduped,
                })
                .unwrap();
                let out = Outgoing::Result {
                    id,
                    result: result.clone(),
                    cached,
                    deduped,
                };
                let payload = out.payload().unwrap();
                assert_eq!(payload, derived);
                match serde_json::from_str(&payload).unwrap() {
                    Response::Result {
                        id: got,
                        report_json,
                        fingerprint: fp,
                        cached: c,
                        deduped: d,
                    } => {
                        assert_eq!((got, c, d), (id, cached, deduped));
                        assert_eq!(report_json, report);
                        assert_eq!(fp, fingerprint);
                    }
                    other => panic!("round-trip changed the variant: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn assembled_sweep_frame_equals_the_derive_byte_for_byte() {
        let results: Vec<_> = ESCAPE_HEAVY_REPORTS.iter().map(|r| result_for(r)).collect();
        // One entry; three, the third a duplicate of the first slot (one
        // shared result, as a deduplicated sweep answers); and all five.
        let sweeps: [&[usize]; 7] = [&[0], &[1], &[2], &[3], &[4], &[0, 3, 0], &[0, 1, 2, 3, 4]];
        for (k, slots) in sweeps.into_iter().enumerate() {
            let id = k as u64 * 0x0123_4567_89ab_cdef;
            let derived = serde_json::to_string(&Response::SweepResult {
                id,
                report_jsons: slots
                    .iter()
                    .map(|&i| ESCAPE_HEAVY_REPORTS[i].to_string())
                    .collect(),
                fingerprints: slots.iter().map(|&i| results[i].1.clone()).collect(),
            })
            .unwrap();
            let out = Outgoing::Sweep {
                id,
                results: slots.iter().map(|&i| results[i].0.clone()).collect(),
            };
            let payload = out.payload().unwrap();
            assert_eq!(payload, derived, "slots {slots:?}");
            match serde_json::from_str(&payload).unwrap() {
                Response::SweepResult {
                    id: got,
                    report_jsons,
                    fingerprints,
                } => {
                    assert_eq!(got, id);
                    let want: Vec<_> = slots.iter().map(|&i| ESCAPE_HEAVY_REPORTS[i]).collect();
                    assert_eq!(report_jsons, want);
                    let want: Vec<_> = slots.iter().map(|&i| results[i].1.as_str()).collect();
                    assert_eq!(fingerprints, want);
                }
                other => panic!("round-trip changed the variant: {other:?}"),
            }
        }
    }

    /// `Request::Run { id: 7, spec: WireSpec::basic(8, "Duato", 0.004, 42) }`
    /// byte for byte as a client built at commit 7679c7a sent it: the spec
    /// still carries that build's per-run engine thread count, a key no
    /// field reads any more.
    const LEGACY_RUN_FRAME: &str = include_str!("../tests/data/legacy_run_frame.json");

    #[test]
    fn legacy_frame_with_a_stray_key_parses_and_shares_the_cache_entry() {
        // Old clients must keep working, and specs that used to differ
        // only by the removed key must land on one dedup/cache entry.
        let Request::Run { id, spec: legacy } = serde_json::from_str(LEGACY_RUN_FRAME).unwrap()
        else {
            panic!("legacy frame changed the variant");
        };
        assert_eq!(id, 7);
        let current = WireSpec::basic(8, "Duato", 0.004, 42);
        let current_frame = serde_json::to_string(&Request::Run {
            id: 7,
            spec: current.clone(),
        })
        .unwrap();
        assert_ne!(
            LEGACY_RUN_FRAME.trim_end(),
            current_frame,
            "the fixture carries a key this build no longer sends"
        );
        let interner = PatternInterner::default();
        assert_eq!(
            legacy.to_custom(&interner).unwrap().canonical(),
            current.to_custom(&interner).unwrap().canonical()
        );
    }

    #[test]
    fn identical_wire_specs_share_identity_and_pattern_arc() {
        let interner = PatternInterner::default();
        let mut a = WireSpec::basic(8, "Nbc", 0.002, 5);
        a.faults = vec![Coord { x: 3, y: 4 }, Coord { x: 2, y: 2 }];
        let mut b = a.clone();
        // Order and duplicates are canonicalized away.
        b.faults = vec![
            Coord { x: 2, y: 2 },
            Coord { x: 3, y: 4 },
            Coord { x: 3, y: 4 },
        ];
        let ca = a.to_custom(&interner).unwrap();
        let cb = b.to_custom(&interner).unwrap();
        assert!(Arc::ptr_eq(&ca.pattern, &cb.pattern));
        assert_eq!(ca.canonical(), cb.canonical());
    }
}
