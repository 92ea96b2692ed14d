//! The `serve` binary as a separate process: the `listening on` line
//! scripts scrape for the port, a wire `Shutdown` ending it with exit 0,
//! the final `ServerStats` line, the `--metrics-jsonl` file, and exit 2
//! on bad input. `soak.rs` drives the same protocol in-process.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;
use wormsim_obs::{parse_metrics_log, MetricsFrame};
use wormsim_serve::{Client, ClientError, ServerStats, WireSpec};

/// How long any one wait on the process may take before the test fails.
const BOUND: Duration = Duration::from_secs(20);

/// Every series the final metrics frame must carry.
const SERIES: [&str; 11] = [
    "wormsim_requests_total",
    "wormsim_requests_completed_total",
    "wormsim_jobs_run_total",
    "wormsim_cache_hits_total",
    "wormsim_dedup_joins_total",
    "wormsim_cache_evictions_total",
    "wormsim_jobs_in_flight",
    "wormsim_cached_results",
    "wormsim_request_latency_seconds",
    "wormsim_queue_wait_seconds",
    "wormsim_execution_seconds",
];

/// A `serve` child whose stdout arrives line by line over a channel, so
/// no read blocks the test forever. Dropped, it kills the process and
/// joins the reader thread.
struct Serve {
    child: Child,
    stdout: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Serve {
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve starts");
        let pipe = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, stdout) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in pipe.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Serve {
            child,
            stdout,
            reader: Some(reader),
        }
    }

    /// Wait for the process to exit: its remaining stdout lines, its
    /// status and its stderr.
    fn finish(mut self) -> (Vec<String>, ExitStatus, String) {
        let mut lines = Vec::new();
        loop {
            match self.stdout.recv_timeout(BOUND) {
                Ok(line) => lines.push(line),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("serve still running after {BOUND:?}"),
            }
        }
        let status = self.child.wait().expect("serve exits");
        let mut stderr = String::new();
        let pipe = self.child.stderr.as_mut().expect("piped stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        (lines, status, stderr)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The process is gone, so its stdout is at end of file.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Spawn on an OS-picked port with a metrics file, and connect where the
/// first stdout line says. Returns the file's path too.
fn listening(interval_ms: &str) -> (Serve, Client, PathBuf) {
    let name = format!("wormsim-serve-{}-{interval_ms}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(name);
    let serve = Serve::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--quiet",
        "--metrics-jsonl",
        path.to_str().unwrap(),
        "--metrics-interval-ms",
        interval_ms,
    ]);
    let line = serve.stdout.recv_timeout(BOUND).expect("a stdout line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("first stdout line is {line:?}"));
    let client = Client::connect(addr).expect("connect to the printed address");
    (serve, client, path)
}

/// The frames written to `path`, which is then removed.
fn metrics_frames(path: &Path) -> Vec<MetricsFrame> {
    let text = std::fs::read_to_string(path).expect("read the metrics file");
    let _ = std::fs::remove_file(path);
    parse_metrics_log(&text).expect("every line parses")
}

#[test]
fn the_binary_answers_exits_0_on_a_wire_shutdown_and_logs_every_series() {
    let (serve, mut client, path) = listening("20");
    let spec = |algorithm: &str, seed: u64| {
        let mut spec = WireSpec::basic(6, algorithm, 0.002, seed);
        spec.warmup_cycles = 100;
        spec.measure_cycles = 400;
        spec
    };
    for seed in 1..=3 {
        assert!(!client.run_spec(&spec("Xy", seed)).expect("run").cached);
    }
    assert!(client.run_spec(&spec("Xy", 1)).expect("repeat").cached);
    // Passes the wire check but is below Duato's minimum VC budget.
    let mut under_min_vcs = spec("Duato", 4);
    under_min_vcs.vc_total = 6;
    match client.run_spec(&under_min_vcs) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "config"),
        other => panic!("expected a config reject, got {other:?}"),
    }
    let answers = 5;
    client.shutdown_server().expect("Goodbye");
    drop(client);

    let (lines, status, stderr) = serve.finish();
    assert_eq!(status.code(), Some(0), "{stderr}");
    let last = lines.last().expect("a final stdout line");
    let stats: ServerStats = serde_json::from_str(last).expect("the last line is ServerStats");
    assert_eq!(stats.completed, answers, "{stats:?}");
    assert_eq!((stats.cache_hits, stats.config_rejects), (1, 1));

    let frames = metrics_frames(&path);
    let last = &frames.last().expect("at least the final frame").metrics;
    for name in SERIES {
        let found = last.counter(name).is_some()
            || last.gauge(name).is_some()
            || last.histogram(name).is_some();
        assert!(found, "the final frame lacks {name}");
    }
    let completed = last.counter("wormsim_requests_completed_total");
    assert_eq!(completed, Some(answers));
}

#[test]
fn a_run_shorter_than_one_interval_still_leaves_the_final_frame() {
    let (serve, mut client, path) = listening("600000");
    client.shutdown_server().expect("Goodbye");
    drop(client);
    let (_, status, stderr) = serve.finish();
    assert_eq!(status.code(), Some(0), "{stderr}");
    let frames = metrics_frames(&path);
    assert_eq!(frames.len(), 1, "exactly the frame written at stop");
}

#[test]
fn bad_input_exits_2_with_the_usage_line() {
    for args in [
        &["--bogus"][..],
        &["--threads", "x"],
        &["--metrics-interval-ms", "0"],
    ] {
        let (_, status, stderr) = Serve::spawn(args).finish();
        assert_eq!(status.code(), Some(2), "serve {args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "serve {args:?}: {stderr}");
        assert!(stderr.contains("usage: serve"), "serve {args:?}: {stderr}");
    }
}
