//! Blocking client for the serve protocol.
//!
//! [`Client`] offers two styles:
//!
//! - call-and-wait helpers ([`Client::run_spec`], [`Client::sweep`],
//!   [`Client::stats`], ...) for scripts and tests;
//! - raw [`Client::send`] / [`Client::recv`] for pipelining — issue many
//!   requests with distinct ids, then match the interleaved responses
//!   yourself (the soak test's storm does exactly this).

use std::io::{self, BufReader};
use std::net::TcpStream;
use wormsim_obs::{MetricsSnapshot, ProgressFrame};

use crate::protocol::{read_frame, send_message, Request, Response, ServerStats, WireSpec};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered something the call did not expect.
    Protocol(String),
    /// The server rejected the request with a typed error frame.
    Rejected {
        /// Echoed request id.
        id: u64,
        /// Machine-readable reject class (`quota`, `backpressure`, ...).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Rejected { code, message, .. } => {
                write!(f, "rejected ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful [`Client::run_spec`] call.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `SimReport` as compact JSON (byte-exact server serialization).
    pub report_json: String,
    /// FNV-1a fingerprint of `report_json`.
    pub fingerprint: String,
    /// Served from the result cache.
    pub cached: bool,
    /// Joined an identical in-flight job.
    pub deduped: bool,
}

/// A successful [`Client::sweep`] call.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-spec reports, in request order.
    pub report_jsons: Vec<String>,
    /// Per-report fingerprints.
    pub fingerprints: Vec<String>,
    /// The progress frames streamed while the sweep ran.
    pub progress: Vec<ProgressFrame>,
}

/// One connection to a serve instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7420"`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// A fresh request id (unique per connection).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send one request frame (pipelining building block).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        send_message(&mut self.writer, req)?;
        Ok(())
    }

    /// Receive one response frame (pipelining building block).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| ClientError::Protocol(format!("non-UTF-8 frame: {e}")))?;
        serde_json::from_str(text).map_err(|e| ClientError::Protocol(format!("bad frame: {e}")))
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Run one simulation and wait for its result.
    pub fn run_spec(&mut self, spec: &WireSpec) -> Result<RunOutcome, ClientError> {
        let id = self.next_id();
        self.send(&Request::Run {
            id,
            spec: spec.clone(),
        })?;
        loop {
            match self.recv()? {
                Response::Progress { .. } => continue,
                Response::Result {
                    id: rid,
                    report_json,
                    fingerprint,
                    cached,
                    deduped,
                } if rid == id => {
                    return Ok(RunOutcome {
                        report_json,
                        fingerprint,
                        cached,
                        deduped,
                    })
                }
                Response::Error {
                    id: rid,
                    code,
                    message,
                } if rid == id || rid == 0 => {
                    return Err(ClientError::Rejected {
                        id: rid,
                        code,
                        message,
                    })
                }
                other => return Err(unexpected("Result", &other)),
            }
        }
    }

    /// Run a batch and wait for it, collecting streamed progress frames.
    pub fn sweep(&mut self, specs: &[WireSpec]) -> Result<SweepOutcome, ClientError> {
        let id = self.next_id();
        self.send(&Request::Sweep {
            id,
            specs: specs.to_vec(),
        })?;
        let mut progress = Vec::new();
        loop {
            match self.recv()? {
                Response::Progress { id: rid, frame } if rid == id => progress.push(frame),
                Response::SweepResult {
                    id: rid,
                    report_jsons,
                    fingerprints,
                } if rid == id => {
                    return Ok(SweepOutcome {
                        report_jsons,
                        fingerprints,
                        progress,
                    })
                }
                Response::Error {
                    id: rid,
                    code,
                    message,
                } if rid == id || rid == 0 => {
                    return Err(ClientError::Rejected {
                        id: rid,
                        code,
                        message,
                    })
                }
                other => return Err(unexpected("SweepResult", &other)),
            }
        }
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.send(&Request::Stats)?;
        loop {
            match self.recv()? {
                Response::Stats { stats } => return Ok(stats),
                // Stats may interleave with late frames of pipelined work.
                Response::Progress { .. } => continue,
                other => return Err(unexpected("Stats", &other)),
            }
        }
    }

    /// Fetch the server's full metric surface: the structured snapshot
    /// plus its Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<(MetricsSnapshot, String), ClientError> {
        self.send(&Request::Metrics)?;
        loop {
            match self.recv()? {
                Response::Metrics {
                    snapshot,
                    prometheus,
                } => return Ok((snapshot, prometheus)),
                // May interleave with late frames of pipelined work.
                Response::Progress { .. } => continue,
                other => return Err(unexpected("Metrics", &other)),
            }
        }
    }

    /// Ask the server to drain and exit; waits for the acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.recv()? {
                Response::Goodbye => return Ok(()),
                Response::Progress { .. } => continue,
                other => return Err(unexpected("Goodbye", &other)),
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
