//! The long-running simulation server.
//!
//! ```text
//! serve [--addr HOST:PORT] [--threads N] [--max-queue N]
//!       [--quota N] [--cache-cap N]
//!       [--metrics-jsonl PATH] [--metrics-interval-ms N] [--quiet]
//! ```
//!
//! Binds the address (default `127.0.0.1:7420`; port `0` lets the OS
//! pick), prints one `listening on <addr>` line to stdout so scripts can
//! scrape the port, and serves until a client sends a `Shutdown` frame —
//! then drains every admitted request, joins the lanes and the
//! dispatcher, and prints the final counters as one JSON line.
//!
//! `--threads N` is the most simulations that run at once (default: one
//! per core), each on a lane the dispatcher starts when a job is queued
//! while every lane is busy.
//!
//! With `--metrics-jsonl PATH`, a background emitter appends one
//! [`MetricsFrame`](wormsim_obs::MetricsFrame) JSON line to `PATH` every
//! `--metrics-interval-ms` (default 1000) while serving, plus a final
//! frame at shutdown — the soak-run companion to the on-demand
//! `Metrics` wire request.
//!
//! An unknown flag or an unusable value exits 2 with the usage line; a
//! failed bind or metrics file exits 1.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use wormsim_obs::Progress;
use wormsim_serve::{MetricsEmitter, SchedulerConfig, Server, ServerConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--threads N] [--max-queue N] \
                     [--quota N] [--cache-cap N] \
                     [--metrics-jsonl PATH] [--metrics-interval-ms N] [--quiet]";

struct Args {
    addr: String,
    scheduler: SchedulerConfig,
    metrics_jsonl: Option<String>,
    metrics_interval: Duration,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7420".into(),
        scheduler: SchedulerConfig::default(),
        metrics_jsonl: None,
        metrics_interval: Duration::from_millis(1000),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = value(&mut it, &arg)?,
            "--threads" => args.scheduler.threads = value(&mut it, &arg)?,
            "--max-queue" => args.scheduler.max_queue = value(&mut it, &arg)?,
            "--quota" => args.scheduler.per_client_quota = value(&mut it, &arg)?,
            "--cache-cap" => args.scheduler.cache_capacity = value(&mut it, &arg)?,
            "--metrics-jsonl" => args.metrics_jsonl = Some(value(&mut it, &arg)?),
            "--metrics-interval-ms" => match value(&mut it, &arg)? {
                0 => return Err(format!("{arg} must be positive")),
                ms => args.metrics_interval = Duration::from_millis(ms),
            },
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The value after `flag`, parsed; missing or unparsable is an error.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let progress = Progress::from_quiet_flag(args.quiet);
    let server = match Server::start(ServerConfig {
        addr: args.addr,
        scheduler: args.scheduler,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let emitter = match &args.metrics_jsonl {
        Some(path) => match std::fs::File::create(path)
            .and_then(|f| MetricsEmitter::spawn(server.metrics(), f, args.metrics_interval))
        {
            Ok(em) => {
                progress.out(format_args!(
                    "metrics -> {path} every {}ms",
                    args.metrics_interval.as_millis()
                ));
                Some(em)
            }
            Err(e) => {
                eprintln!("serve: metrics emitter failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // The listening line is output, not chatter: scripts scrape it for
    // the resolved port, so it prints regardless of --quiet.
    println!("listening on {}", server.local_addr());
    progress.out(format_args!(
        "serving until a client sends a Shutdown frame"
    ));
    let stats = server.run_until_shutdown();
    if let Some(em) = emitter {
        if let Err(e) = em.stop() {
            eprintln!("serve: metrics emitter error: {e}");
        }
    }
    match serde_json::to_string(&stats) {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("serve: stats serialization failed: {e}"),
    }
    ExitCode::SUCCESS
}
