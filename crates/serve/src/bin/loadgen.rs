//! Load generator and correctness checker for the serve protocol.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--connections N]
//!         [--verify] [--shutdown] [--quiet] [--seed N]
//! ```
//!
//! Opens `--connections` sockets and pipelines a mixed batch of
//! `--requests` total requests across them: a pool of distinct valid
//! specs cycled until every request is issued (duplicates are the
//! point — they exercise dedup and the result cache), a handful of
//! duplicated "anchor" requests issued back-to-back so some provably
//! overlap in flight, and a sprinkle of invalid specs that must come
//! back as typed `bad_spec` / `config` error frames.
//!
//! After the storm, a sequential second pass re-requests known specs
//! (guaranteed cache hits), then checks:
//!
//! - every response for the same spec carried byte-identical report JSON;
//! - with `--verify`, each unique spec's report matches a direct
//!   in-process `run_custom` byte-for-byte (zero divergence);
//! - the server counted cache hits and dedup joins (> 0 each);
//! - every invalid spec was rejected with the expected error code;
//! - with `--verify`, a `Metrics` scrape must agree with the run:
//!   the server-side request-latency histogram count equals the
//!   requests this client had answered, queue-wait/execution counts
//!   equal jobs run, quantiles are finite and ordered, the Prometheus
//!   exposition parses line-by-line, and every snapshot counter matches
//!   its `ServerStats` twin.
//!
//! Exits non-zero if any check fails — CI runs this as the serving
//! smoke gate.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wormsim_obs::{validate_prometheus, Progress};
use wormsim_serve::{Client, PatternInterner, Request, Response, WireSpec};
use wormsim_topology::Coord;

struct Args {
    addr: String,
    requests: usize,
    connections: usize,
    verify: bool,
    shutdown: bool,
    quiet: bool,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7420".into(),
        requests: 1000,
        connections: 8,
        verify: false,
        shutdown: false,
        quiet: false,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse::<usize>()
                    .map_err(|e| format!("--connections: {e}"))?
                    .max(1)
            }
            "--verify" => args.verify = true,
            "--shutdown" => args.shutdown = true,
            "--quiet" => args.quiet = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--requests N] [--connections N] \
                     [--verify] [--shutdown] [--quiet] [--seed N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The pool of distinct valid specs the storm cycles through. Small,
/// fast runs (mesh 6, 500 cycles) so thousands of requests stay cheap.
fn spec_pool(seed: u64) -> Vec<WireSpec> {
    let algos = ["Duato", "Nbc", "Xy", "FullyAdaptive", "MinimalAdaptive"];
    let mut pool = Vec::new();
    for (i, algo) in algos.iter().enumerate() {
        for j in 0..4u64 {
            let mut spec = WireSpec::basic(6, algo, 0.002 + 0.001 * j as f64, seed + j);
            spec.warmup_cycles = 100;
            spec.measure_cycles = 400;
            if i % 2 == 1 {
                spec.faults = vec![Coord { x: 2, y: 3 }];
            }
            pool.push(spec);
        }
    }
    pool
}

/// The duplicated in-flight anchor: slower than the pool specs so its
/// duplicates reliably overlap the first execution (dedup joins).
fn anchor_spec(seed: u64) -> WireSpec {
    let mut spec = WireSpec::basic(8, "Duato", 0.003, seed + 7777);
    spec.warmup_cycles = 500;
    spec.measure_cycles = 3000;
    spec
}

/// Invalid specs and the error code each must produce.
fn invalid_specs(seed: u64) -> Vec<(WireSpec, &'static str)> {
    let base = |s: u64| {
        let mut spec = WireSpec::basic(6, "Duato", 0.002, s);
        spec.warmup_cycles = 100;
        spec.measure_cycles = 400;
        spec
    };
    let mut too_many_vcs = base(seed + 2);
    too_many_vcs.vc_total = 40;
    // Passes the wire parse check (>= 6) but is below Duato's
    // constructor minimum of 7 — must reject, not panic the server.
    let mut under_min_vcs = base(seed + 5);
    under_min_vcs.vc_total = 6;
    let mut unknown_algo = base(seed + 3);
    unknown_algo.algorithm = "Bogus".into();
    let mut bad_coord = base(seed + 4);
    bad_coord.faults = vec![Coord { x: 99, y: 99 }];
    vec![
        (too_many_vcs, "config"),
        (under_min_vcs, "config"),
        (unknown_algo, "bad_spec"),
        (bad_coord, "bad_spec"),
    ]
}

#[derive(Default)]
struct Tally {
    ok: u64,
    cached: u64,
    deduped: u64,
    errors: HashMap<String, u64>,
    /// spec-pool index → report JSON; mismatches recorded as divergence.
    reports: HashMap<usize, String>,
    divergence: u64,
    wrong_code: u64,
}

/// What each pipelined request id maps to, for checking the response.
enum Expect {
    /// Valid spec: pool index for byte-comparison.
    Pool(usize),
    /// Anchor spec (pool index `usize::MAX` marker not needed — own arm).
    Anchor,
    /// Invalid spec: the error code it must produce.
    Invalid(&'static str),
}

fn run_connection(
    addr: &str,
    specs: Vec<(u64, Expect, WireSpec)>,
    tally: &Mutex<Tally>,
) -> Result<(), String> {
    let mut client =
        Client::connect_retry(addr, Duration::from_secs(5)).map_err(|e| format!("connect: {e}"))?;
    let mut expects: HashMap<u64, Expect> = HashMap::new();
    for (id, expect, spec) in specs {
        client
            .send(&Request::Run { id, spec })
            .map_err(|e| format!("send: {e}"))?;
        expects.insert(id, expect);
    }
    let mut anchor_report: Option<String> = None;
    while !expects.is_empty() {
        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
        match resp {
            Response::Progress { .. } => continue,
            Response::Result {
                id,
                report_json,
                cached,
                deduped,
                ..
            } => {
                let expect = expects
                    .remove(&id)
                    .ok_or_else(|| format!("unexpected result id {id}"))?;
                t.ok += 1;
                if cached {
                    t.cached += 1;
                }
                if deduped {
                    t.deduped += 1;
                }
                match expect {
                    Expect::Pool(idx) => match t.reports.get(&idx) {
                        Some(prev) if *prev != report_json => t.divergence += 1,
                        Some(_) => {}
                        None => {
                            t.reports.insert(idx, report_json);
                        }
                    },
                    Expect::Anchor => match &anchor_report {
                        Some(prev) if *prev != report_json => t.divergence += 1,
                        Some(_) => {}
                        None => anchor_report = Some(report_json),
                    },
                    Expect::Invalid(code) => {
                        // An invalid spec must NOT produce a result.
                        let _ = code;
                        t.wrong_code += 1;
                    }
                }
            }
            Response::Error { id, code, .. } => {
                let expect = expects
                    .remove(&id)
                    .ok_or_else(|| format!("unexpected error id {id}"))?;
                *t.errors.entry(code.clone()).or_insert(0) += 1;
                match expect {
                    Expect::Invalid(want) if code == want => {}
                    Expect::Invalid(_) | Expect::Pool(_) | Expect::Anchor => t.wrong_code += 1,
                }
            }
            other => return Err(format!("unexpected response {other:?}")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let progress = Progress::from_quiet_flag(args.quiet);
    let pool = spec_pool(args.seed);
    let anchor = anchor_spec(args.seed);
    let invalid = invalid_specs(args.seed);
    let tally = Arc::new(Mutex::new(Tally::default()));

    // Deal the storm across connections: each connection leads with
    // anchor duplicates (overlap → dedup), then interleaves pool cycles
    // with the invalid specs.
    let per_conn = args.requests.div_ceil(args.connections);
    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn in 0..args.connections {
            let pool = &pool;
            let anchor = &anchor;
            let invalid = &invalid;
            let tally = tally.clone();
            let addr = args.addr.as_str();
            handles.push(scope.spawn(move || {
                let mut batch: Vec<(u64, Expect, WireSpec)> = Vec::with_capacity(per_conn);
                let mut id = 1u64;
                // Two anchor duplicates up front per connection.
                for _ in 0..2.min(per_conn) {
                    batch.push((id, Expect::Anchor, anchor.clone()));
                    id += 1;
                }
                while batch.len() < per_conn {
                    let n = batch.len();
                    // One invalid spec every 16 requests; pool cycle
                    // otherwise. The connection offset rotates which
                    // invalid variants appear, so even small batches
                    // exercise both the bad_spec and config reject paths
                    // across the fleet of connections.
                    if n % 16 == 7 {
                        let (spec, code) = &invalid[(n / 16 + conn) % invalid.len()];
                        batch.push((id, Expect::Invalid(code), spec.clone()));
                    } else {
                        // Offset by connection so different connections race
                        // the same specs in different orders.
                        let idx = (n + conn * 5) % pool.len();
                        batch.push((id, Expect::Pool(idx), pool[idx].clone()));
                    }
                    id += 1;
                }
                run_connection(addr, batch, &tally)
            }));
        }
        for h in handles {
            if let Err(e) = h.join().unwrap_or_else(|_| Err("worker panicked".into())) {
                failures.push(e);
            }
        }
    });
    let storm_elapsed = started.elapsed();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("loadgen: connection failed: {f}");
        }
        return ExitCode::FAILURE;
    }

    // Second pass: sequential re-requests of known specs — these must be
    // cache hits (the storm completed them all).
    let mut client = match Client::connect_retry(&args.addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: reconnect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut second_pass_hits = 0u64;
    let mut second_pass_total = 0u64;
    for (idx, spec) in pool.iter().enumerate().take(8) {
        second_pass_total += 1;
        match client.run_spec(spec) {
            Ok(out) => {
                if out.cached {
                    second_pass_hits += 1;
                }
                let t = tally.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(prev) = t.reports.get(&idx) {
                    if *prev != out.report_json {
                        eprintln!("loadgen: second-pass divergence on spec {idx}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("loadgen: second pass failed on spec {idx}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Optional: byte-compare every unique spec against a direct run.
    let mut verified = 0usize;
    if args.verify {
        let interner = PatternInterner::default();
        let t = tally.lock().unwrap_or_else(|e| e.into_inner());
        for (idx, server_json) in &t.reports {
            let custom = match pool[*idx].to_custom(&interner) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("loadgen: pool spec {idx} failed to expand: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = match wormsim_experiments::run_custom(&custom) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("loadgen: direct run of spec {idx} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let direct = serde_json::to_string(&report).expect("report serializes");
            if direct != *server_json {
                eprintln!("loadgen: divergence vs direct run on spec {idx}");
                return ExitCode::FAILURE;
            }
            verified += 1;
        }
    }

    let stats = match client.stats() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: stats fetch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // With --verify, scrape the metric surface while the server is still
    // up (and after all our work is answered, so counts are settled).
    let scraped = if args.verify {
        match client.metrics() {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("loadgen: metrics scrape failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if args.shutdown {
        if let Err(e) = client.shutdown_server() {
            eprintln!("loadgen: shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let t = tally.lock().unwrap_or_else(|e| e.into_inner());
    progress.out(format_args!(
        "storm: {} ok, {} cached, {} deduped, errors {:?} in {:.2}s; \
         second pass {} cache hits; verified {} unique specs",
        t.ok,
        t.cached,
        t.deduped,
        t.errors,
        storm_elapsed.as_secs_f64(),
        second_pass_hits,
        verified,
    ));
    progress.out(format_args!(
        "server: jobs_run={} cache_hits={} dedup_joins={} \
         config_rejects={} bad_spec_rejects={} integrity_drops={}",
        stats.jobs_run,
        stats.cache_hits,
        stats.dedup_joins,
        stats.config_rejects,
        stats.bad_spec_rejects,
        stats.integrity_drops,
    ));

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("loadgen: CHECK FAILED: {what}");
            failed = true;
        }
    };
    check(t.divergence == 0, "zero divergence across responses");
    check(
        t.wrong_code == 0,
        "every spec got its expected outcome class",
    );
    check(stats.cache_hits > 0, "server reported cache hits > 0");
    check(stats.dedup_joins > 0, "server reported dedup joins > 0");
    check(second_pass_hits > 0, "second pass hit the result cache");
    check(
        stats.integrity_drops == 0,
        "no cache integrity-check failures",
    );
    if args.requests >= 16 {
        check(
            t.errors.get("config").copied().unwrap_or(0) > 0,
            "config-invalid specs rejected as typed errors",
        );
        check(
            t.errors.get("bad_spec").copied().unwrap_or(0) > 0,
            "malformed specs rejected as typed errors",
        );
    }
    if let Some((snap, prometheus)) = &scraped {
        // The exposition must parse line-by-line with at least one
        // sample per metric family.
        match validate_prometheus(prometheus) {
            Ok(samples) => check(samples > 0, "prometheus exposition carries samples"),
            Err(e) => check(false, &format!("prometheus exposition parses ({e})")),
        }
        // Loadgen is the sole client in a --verify run, so the server's
        // answered-request count is exactly what this process saw
        // answered: storm results + admitted-then-config-rejected specs
        // + the sequential second pass. (bad_spec / quota / backpressure
        // rejections are never admitted, so they never complete.)
        let config_errors = t.errors.get("config").copied().unwrap_or(0);
        let answered = t.ok + config_errors + second_pass_total;
        check(
            stats.completed == answered,
            &format!(
                "server completed ({}) equals requests answered here ({answered})",
                stats.completed
            ),
        );
        match snap.histogram("wormsim_request_latency_seconds") {
            Some(h) => {
                check(
                    h.count == stats.completed,
                    &format!(
                        "request-latency count ({}) equals completed ({})",
                        h.count, stats.completed
                    ),
                );
                check(h.count > 0, "request-latency histogram is non-empty");
                check(
                    h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max,
                    "request-latency quantiles are ordered",
                );
            }
            None => check(false, "request-latency histogram exists"),
        }
        // Every dequeued job is stamped into both histograms, even the
        // config-rejected ones; panics (internal_errors) bypass the
        // worker task, so with zero of them the counts are exact.
        check(stats.internal_errors == 0, "no worker panics");
        for name in ["wormsim_queue_wait_seconds", "wormsim_execution_seconds"] {
            match snap.histogram(name) {
                Some(h) => check(
                    h.count == stats.jobs_run,
                    &format!(
                        "{name} count ({}) equals jobs_run ({})",
                        h.count, stats.jobs_run
                    ),
                ),
                None => check(false, &format!("{name} histogram exists")),
            }
        }
        // The snapshot and ServerStats are derived from the same
        // registry; every counter twin must agree.
        let twins: [(&str, u64); 11] = [
            ("wormsim_requests_total", stats.requests),
            ("wormsim_requests_completed_total", stats.completed),
            ("wormsim_jobs_run_total", stats.jobs_run),
            ("wormsim_cache_hits_total", stats.cache_hits),
            ("wormsim_dedup_joins_total", stats.dedup_joins),
            ("wormsim_rejects_quota_total", stats.quota_rejects),
            (
                "wormsim_rejects_backpressure_total",
                stats.backpressure_rejects,
            ),
            ("wormsim_rejects_bad_spec_total", stats.bad_spec_rejects),
            ("wormsim_rejects_config_total", stats.config_rejects),
            ("wormsim_internal_errors_total", stats.internal_errors),
            ("wormsim_integrity_drops_total", stats.integrity_drops),
        ];
        for (name, want) in twins {
            check(
                snap.counter(name) == Some(want),
                &format!("{name} matches its ServerStats twin ({want})"),
            );
        }
        check(
            snap.gauge("wormsim_jobs_in_flight") == Some(0),
            "no jobs in flight after the drain",
        );
        check(
            snap.gauge("wormsim_cached_results") == Some(stats.cached_results as i64),
            "cached-results gauge matches ServerStats",
        );
    }
    if failed {
        return ExitCode::FAILURE;
    }
    progress.out(format_args!("loadgen: all checks passed"));
    ExitCode::SUCCESS
}
