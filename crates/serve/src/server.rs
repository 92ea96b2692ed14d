//! The TCP server: accept loop, per-connection threads, graceful drain.
//!
//! Each connection gets a reader thread (this function) and a writer
//! thread draining an unbounded channel of [`Outgoing`] frames in FIFO
//! order. The scheduler
//! delivers results by sending into that channel from whatever thread
//! finished the job, so one connection can have many requests in
//! flight and responses interleave freely (matched by request id).
//!
//! Shutdown — whether from [`Server::stop`] or a wire
//! [`Request::Shutdown`] — is cooperative: the listener stops accepting,
//! reader threads notice the stop flag at their next read-timeout poll,
//! the scheduler drains its queue so every admitted request is answered,
//! and its lanes and dispatcher are joined. Nothing is abandoned
//! mid-flight and nothing hangs on an idle client.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::intern::PatternInterner;
use crate::protocol::{
    read_frame_with, write_frame, Emit, Outgoing, Request, Response, ServerStats, WireSpec,
};
use crate::scheduler::{Scheduler, SchedulerConfig};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Scheduler admission/caching knobs.
    pub scheduler: SchedulerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// A running server. Dropping it without [`Server::stop`] still shuts the
/// scheduler down (via its own `Drop`), but `stop` is the graceful path
/// that also joins the accept loop and connection threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    accept: Option<thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Bind and start serving in background threads.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scheduler = Arc::new(Scheduler::new(cfg.scheduler));
        let interner = Arc::new(PatternInterner::default());
        let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = stop.clone();
            let scheduler = scheduler.clone();
            let conns = conns.clone();
            thread::Builder::new()
                .name("wsim-accept".into())
                .spawn(move || {
                    let next_client = AtomicU64::new(1);
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let client = next_client.fetch_add(1, Ordering::Relaxed);
                                let scheduler = scheduler.clone();
                                let stop = stop.clone();
                                let interner = interner.clone();
                                let handle = thread::Builder::new()
                                    .name(format!("wsim-conn{client}"))
                                    .spawn(move || {
                                        handle_conn(stream, client, scheduler, stop, interner)
                                    });
                                if let Ok(h) = handle {
                                    let mut conns = lock(&conns);
                                    // Reap exited connections as new ones
                                    // arrive, so churn doesn't accumulate
                                    // finished handles forever; stop()
                                    // joins whatever is still live.
                                    conns.retain(|c| !c.is_finished());
                                    conns.push(h);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(10));
                            }
                            Err(_) => thread::sleep(Duration::from_millis(10)),
                        }
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            stop,
            scheduler,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown (wire or local) has been signalled.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Counter snapshot (also available over the wire via
    /// [`Request::Stats`]).
    pub fn stats(&self) -> ServerStats {
        self.scheduler.stats()
    }

    /// The scheduler's metric surface (also available over the wire via
    /// [`Request::Metrics`]); share it with a
    /// [`MetricsEmitter`](crate::MetricsEmitter) for periodic snapshots.
    pub fn metrics(&self) -> std::sync::Arc<crate::ServeMetrics> {
        self.scheduler.metrics()
    }

    /// Graceful shutdown: stop accepting, drain every admitted request,
    /// join the lanes, the dispatcher and all connection threads, and
    /// return the final counters.
    pub fn stop(mut self) -> ServerStats {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.scheduler.shutdown();
        let handles = std::mem::take(&mut *lock(&self.conns));
        for h in handles {
            let _ = h.join();
        }
        self.scheduler.stats()
    }

    /// Block until a shutdown is signalled (e.g. a wire
    /// [`Request::Shutdown`]), then drain and return the final counters.
    pub fn run_until_shutdown(self) -> ServerStats {
        while !self.stop.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(50));
        }
        self.stop()
    }
}

fn handle_conn(
    stream: TcpStream,
    client: u64,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    interner: Arc<PatternInterner>,
) {
    let _ = stream.set_nodelay(true);
    // Read timeouts are the shutdown poll points (see read_frame_with).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = thread::Builder::new()
        .name(format!("wsim-wr{client}"))
        .spawn(move || {
            let mut w = BufWriter::new(write_half);
            // Exits when every sender (reader + in-flight emits) is gone,
            // or on the first write error (client vanished).
            while let Ok(out) = rx.recv() {
                let sent = out
                    .payload()
                    .and_then(|json| write_frame(&mut w, json.as_bytes()));
                if sent.is_err() {
                    break;
                }
            }
        });
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    let stop_poll = {
        let stop = stop.clone();
        move || stop.load(Ordering::Relaxed)
    };
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame_with(&mut reader, Some(&stop_poll)) {
            Ok(Some(frame)) => frame,
            // Clean disconnect or shutdown poll — either way we're done.
            Ok(None) => break,
            Err(_) => break,
        };
        let request = std::str::from_utf8(&frame)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<Request>(text).map_err(|e| e.to_string()));
        let request = match request {
            Ok(r) => r,
            Err(message) => {
                let _ = tx.send(Outgoing::Message(Response::Error {
                    id: 0,
                    code: "bad_request".into(),
                    message,
                }));
                continue;
            }
        };
        match request {
            Request::Ping => {
                let _ = tx.send(Outgoing::Message(Response::Pong));
            }
            Request::Stats => {
                let _ = tx.send(Outgoing::Message(Response::Stats {
                    stats: scheduler.stats(),
                }));
            }
            Request::Metrics => {
                let m = scheduler.metrics();
                let snapshot = m.snapshot();
                let prometheus = wormsim_obs::render_prometheus(&snapshot);
                let _ = tx.send(Outgoing::Message(Response::Metrics {
                    snapshot,
                    prometheus,
                }));
            }
            Request::Shutdown => {
                // Raise the flag before acknowledging, so a client that
                // has seen Goodbye can rely on the shutdown being
                // underway.
                stop.store(true, Ordering::Relaxed);
                let _ = tx.send(Outgoing::Message(Response::Goodbye));
                break;
            }
            Request::Run { id, spec } => {
                submit(&scheduler, &interner, &tx, client, id, vec![spec], false);
            }
            Request::Sweep { id, specs } => {
                submit(&scheduler, &interner, &tx, client, id, specs, true);
            }
        }
    }
    // Dropping our sender lets the writer exit once in-flight requests
    // (which hold clones inside the scheduler) have all resolved.
    drop(tx);
    let _ = writer.join();
}

fn submit(
    scheduler: &Arc<Scheduler>,
    interner: &Arc<PatternInterner>,
    tx: &mpsc::Sender<Outgoing>,
    client: u64,
    id: u64,
    specs: Vec<WireSpec>,
    is_sweep: bool,
) {
    let mut customs = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        match spec.to_custom(interner) {
            Ok(c) => customs.push(c),
            Err(e) => {
                scheduler.note_bad_spec();
                let _ = tx.send(Outgoing::Message(Response::Error {
                    id,
                    code: "bad_spec".into(),
                    message: format!("spec {i}: {e}"),
                }));
                return;
            }
        }
    }
    let emit: Emit = {
        let tx = tx.clone();
        Arc::new(move |out| {
            // A disconnected client just discards its responses.
            let _ = tx.send(out);
        })
    };
    if let Err((code, message)) = scheduler.submit(client, id, customs, is_sweep, emit) {
        let _ = tx.send(Outgoing::Message(Response::Error {
            id,
            code: code.into(),
            message,
        }));
    }
}
