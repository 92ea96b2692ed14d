//! Soak and correctness harness for the serving layer.
//!
//! The flagship test hammers an in-process server with over a thousand
//! concurrent pipelined requests — duplicates and invalid specs mixed
//! in — and asserts the service's core invariant: every response's
//! report JSON is byte-identical to a direct `run_custom` of the same
//! spec, no matter how it was served (fresh run, dedup join, or cache
//! hit). Companion tests pin the typed quota/backpressure rejections,
//! sweep progress streaming, the graceful drain on shutdown, and that a
//! hostile frame is answered instead of crashing the server.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wormsim_obs::{parse_metrics_log, render_prometheus, validate_prometheus};
use wormsim_serve::protocol::send_message;
use wormsim_serve::{
    read_frame, write_frame, Client, MetricsEmitter, PatternInterner, Request, Response,
    SchedulerConfig, Server, ServerConfig, WireSpec,
};
use wormsim_topology::Coord;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server(scheduler: SchedulerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler,
    })
    .expect("bind loopback")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect to in-process server")
}

/// Small fast specs the storm cycles through (some with faults).
fn spec_pool() -> Vec<WireSpec> {
    let algos = ["Duato", "Nbc", "Xy", "FullyAdaptive"];
    let mut pool = Vec::new();
    for (i, algo) in algos.iter().enumerate() {
        for j in 0..5u64 {
            let mut spec = WireSpec::basic(6, algo, 0.002 + 0.001 * j as f64, 40 + j);
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

/// A slower spec duplicated across every thread so duplicates reliably
/// overlap in flight and exercise dedup joins.
fn anchor_spec() -> WireSpec {
    let mut spec = WireSpec::basic(8, "Duato", 0.003, 99);
    spec.warmup_cycles = 500;
    spec.measure_cycles = 2500;
    spec
}

#[test]
fn soak_over_1000_concurrent_mixed_requests_zero_divergence() {
    let server = start_server(SchedulerConfig::default());
    let pool = spec_pool();
    let anchor = anchor_spec();

    const THREADS: usize = 16;
    const PER_THREAD: usize = 70; // 1120 requests total

    // Shared across client threads: pool index → server report JSON.
    let reports: Arc<Mutex<HashMap<usize, String>>> = Arc::new(Mutex::new(HashMap::new()));
    let divergence = Arc::new(Mutex::new(0u64));
    let typed_errors: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let wrong_outcomes = Arc::new(Mutex::new(0u64));

    enum Expect {
        Pool(usize),
        Anchor,
        Invalid(&'static str),
    }

    let invalid: Vec<(WireSpec, &'static str)> = {
        let mut too_many_vcs = pool[1].clone();
        too_many_vcs.vc_total = 40;
        // Passes the wire parse check (>= 6) but is below Duato's
        // constructor minimum — must be a typed rejection, and must not
        // disturb the rest of the storm.
        let mut under_min_vcs = pool[0].clone();
        under_min_vcs.vc_total = 6;
        let mut unknown_algo = pool[2].clone();
        unknown_algo.algorithm = "Bogus".into();
        let mut bad_coord = pool[3].clone();
        bad_coord.faults = vec![Coord { x: 99, y: 99 }];
        vec![
            (too_many_vcs, "config"),
            (under_min_vcs, "config"),
            (unknown_algo, "bad_spec"),
            (bad_coord, "bad_spec"),
        ]
    };

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            let pool = &pool;
            let anchor = &anchor;
            let invalid = &invalid;
            let reports = reports.clone();
            let divergence = divergence.clone();
            let typed_errors = typed_errors.clone();
            let wrong_outcomes = wrong_outcomes.clone();
            scope.spawn(move || {
                let mut client = connect(server);
                let mut expects: HashMap<u64, Expect> = HashMap::new();
                // Pipeline the whole batch before reading anything.
                for n in 0..PER_THREAD {
                    let id = (n + 1) as u64;
                    let (expect, spec) = if n < 2 {
                        (Expect::Anchor, anchor.clone())
                    } else if n % 14 == 5 {
                        let (spec, code) = &invalid[(n / 14) % invalid.len()];
                        (Expect::Invalid(code), spec.clone())
                    } else {
                        // Offset by thread so threads race the same specs
                        // in different orders.
                        let idx = (n + t * 7) % pool.len();
                        (Expect::Pool(idx), pool[idx].clone())
                    };
                    client.send(&Request::Run { id, spec }).expect("send");
                    expects.insert(id, expect);
                }
                let mut anchor_json: Option<String> = None;
                while !expects.is_empty() {
                    match client.recv().expect("recv") {
                        Response::Progress { .. } => continue,
                        Response::Result {
                            id, report_json, ..
                        } => match expects.remove(&id).expect("known id") {
                            Expect::Pool(idx) => {
                                let mut map = lock(&reports);
                                match map.get(&idx) {
                                    Some(prev) if *prev != report_json => {
                                        *lock(&divergence) += 1;
                                    }
                                    Some(_) => {}
                                    None => {
                                        map.insert(idx, report_json);
                                    }
                                }
                            }
                            Expect::Anchor => match &anchor_json {
                                Some(prev) if *prev != report_json => {
                                    *lock(&divergence) += 1;
                                }
                                Some(_) => {}
                                None => anchor_json = Some(report_json),
                            },
                            Expect::Invalid(_) => *lock(&wrong_outcomes) += 1,
                        },
                        Response::Error { id, code, .. } => {
                            *lock(&typed_errors).entry(code.clone()).or_insert(0) += 1;
                            match expects.remove(&id).expect("known id") {
                                Expect::Invalid(want) if code == want => {}
                                _ => *lock(&wrong_outcomes) += 1,
                            }
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        }
    });

    assert_eq!(*lock(&divergence), 0, "responses diverged across requests");
    assert_eq!(
        *lock(&wrong_outcomes),
        0,
        "a spec got the wrong outcome class"
    );
    let errors = lock(&typed_errors);
    let config_errors = errors.get("config").copied().unwrap_or(0);
    assert!(config_errors > 0);
    assert!(errors.get("bad_spec").copied().unwrap_or(0) > 0);
    // Every request got exactly one answer: a result or a typed error.
    let results = (THREADS * PER_THREAD) as u64 - errors.values().sum::<u64>();
    drop(errors);

    // Every unique spec's server report must byte-match a direct run.
    let interner = PatternInterner::default();
    let map = lock(&reports);
    assert_eq!(map.len(), pool.len(), "every pool spec was exercised");
    for (idx, server_json) in map.iter() {
        let custom = pool[*idx].to_custom(&interner).expect("valid spec");
        let report = wormsim_experiments::run_custom(&custom).expect("runnable");
        let direct = serde_json::to_string(&report).unwrap();
        assert_eq!(
            &direct, server_json,
            "divergence vs direct run on pool spec {idx}"
        );
    }
    drop(map);

    // The storm's duplicates overlap in flight, so they join running
    // jobs rather than hit the cache. A sequential second pass re-asks
    // for completed specs and must be served from the LRU cache.
    {
        let mut client = connect(&server);
        let map = lock(&reports);
        for (idx, spec) in pool.iter().enumerate() {
            let outcome = client.run_spec(spec).expect("cached re-run");
            assert!(outcome.cached, "second pass of pool spec {idx} not cached");
            assert_eq!(
                map.get(&idx),
                Some(&outcome.report_json),
                "cached report diverged on pool spec {idx}"
            );
        }
    }

    let stats = connect(&server).stats().expect("Stats over the wire");
    assert!(
        stats.cache_hits > 0,
        "storm produced no cache hits: {stats:?}"
    );
    assert!(
        stats.dedup_joins > 0,
        "storm produced no dedup joins: {stats:?}"
    );
    assert_eq!(stats.integrity_drops, 0);
    assert!(
        stats.jobs_run < stats.requests,
        "dedup/cache should have avoided re-running duplicates: {stats:?}"
    );
    assert_eq!(stats.in_flight, 0, "storm fully drained: {stats:?}");
    // Only admitted requests complete: every result, every config
    // reject and the second pass; a bad_spec is refused before admission.
    assert_eq!(
        stats.completed,
        results + config_errors + pool.len() as u64,
        "{stats:?}"
    );

    // The metrics wire request must agree with the stats the storm just
    // pinned: every answered request timed exactly once, quantiles
    // ordered and bounded by the recorded max, and both job-side
    // histograms stamped once per dequeued job (config rejections
    // included — they were dequeued and executed-then-rejected).
    {
        let mut client = connect(&server);
        let (snap, prometheus) = client.metrics().expect("metrics scrape");
        let series = validate_prometheus(&prometheus).expect("exposition parses");
        assert!(series > 0, "exposition rendered no samples");

        let req = snap
            .histogram("wormsim_request_latency_seconds")
            .expect("request latency histogram registered");
        assert_eq!(req.count, stats.completed, "one latency sample per answer");
        assert!(req.max > 0, "storm latencies can't round to zero");
        assert!(
            req.p50 <= req.p90 && req.p90 <= req.p99 && req.p99 <= req.p999 && req.p999 <= req.max,
            "quantiles out of order: {req:?}"
        );

        assert_eq!(stats.internal_errors, 0);
        let queue_wait = snap.histogram("wormsim_queue_wait_seconds").unwrap();
        let execution = snap.histogram("wormsim_execution_seconds").unwrap();
        assert_eq!(queue_wait.count, stats.jobs_run, "one wait per dequeue");
        assert_eq!(execution.count, stats.jobs_run, "one span per dequeue");

        // The counters the stats struct derives from must read back
        // identically over the wire.
        let twins = [
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
            assert_eq!(snap.counter(name), Some(want), "{name}");
        }
        assert_eq!(snap.gauge("wormsim_jobs_in_flight"), Some(0));
        assert_eq!(
            snap.gauge("wormsim_cached_results"),
            Some(stats.cached_results as i64)
        );
    }

    let final_stats = server.stop();
    assert_eq!(final_stats.internal_errors, 0);
}

/// Pipeline `n` distinct slow specs on one connection, so the first is
/// still in flight when the rest arrive (the reader admits strictly in
/// order), and count the `code` rejections and the results.
fn pipeline_slow_specs(server: &Server, n: u64, seed: u64, code: &str) -> (u64, u64) {
    let mut client = connect(server);
    for i in 0..n {
        let mut spec = WireSpec::basic(8, "Xy", 0.002, seed + i);
        spec.warmup_cycles = 500;
        spec.measure_cycles = 4000;
        client.send(&Request::Run { id: i + 1, spec }).unwrap();
    }
    let (mut rejects, mut results) = (0, 0);
    for _ in 0..n {
        match client.recv().unwrap() {
            Response::Error { code: got, .. } if got == code => rejects += 1,
            Response::Result { .. } => results += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    (rejects, results)
}

#[test]
fn quota_rejections_are_typed_over_the_wire() {
    let server = start_server(SchedulerConfig {
        threads: 1,
        max_queue: 64,
        per_client_quota: 1,
        cache_capacity: 16,
    });
    let (quota_rejects, results) = pipeline_slow_specs(&server, 4, 1000, "quota");
    assert!(quota_rejects > 0, "quota bound never tripped");
    assert!(results > 0, "admitted request still completed");
    assert_eq!(server.stats().quota_rejects, quota_rejects);
    server.stop();
}

#[test]
fn backpressure_rejections_are_typed_over_the_wire() {
    let server = start_server(SchedulerConfig {
        threads: 1,
        max_queue: 1,
        per_client_quota: 64,
        cache_capacity: 16,
    });
    let (backpressure, results) = pipeline_slow_specs(&server, 5, 2000, "backpressure");
    assert!(backpressure > 0, "queue bound never tripped");
    assert!(results > 0, "admitted requests still completed");
    assert_eq!(server.stats().backpressure_rejects, backpressure);
    server.stop();
}

#[test]
fn sweeps_stream_progress_frames_and_match_direct_runs() {
    let server = start_server(SchedulerConfig::default());
    let mut client = connect(&server);
    let mut specs = Vec::new();
    for i in 0..5u64 {
        let mut s = WireSpec::basic(6, "Duato", 0.002 + 0.0005 * i as f64, 300 + i);
        s.warmup_cycles = 100;
        s.measure_cycles = 400;
        specs.push(s);
    }
    let outcome = client.sweep(&specs).expect("sweep");
    assert_eq!(outcome.report_jsons.len(), specs.len());
    assert_eq!(outcome.progress.len(), specs.len(), "one frame per item");
    let last = outcome.progress.last().unwrap();
    assert_eq!((last.done, last.total), (5, 5));
    assert!(last.is_final());
    // done values are non-decreasing and end complete.
    let mut prev = 0;
    for frame in &outcome.progress {
        assert!(frame.done >= prev);
        prev = frame.done;
    }
    let interner = PatternInterner::default();
    for (spec, server_json) in specs.iter().zip(&outcome.report_jsons) {
        let report = wormsim_experiments::run_custom(&spec.to_custom(&interner).unwrap()).unwrap();
        assert_eq!(&serde_json::to_string(&report).unwrap(), server_json);
    }
    server.stop();
}

#[test]
fn the_largest_admitted_mesh_is_answered_and_the_connection_survives() {
    // 64×64 is the widest mesh `to_custom` admits. Duato's minimum VC
    // budget does not grow with the mesh, so the paper's 24 VCs suffice.
    let server = start_server(SchedulerConfig::default());
    let mut client = connect(&server);
    let mut spec = WireSpec::basic(64, "Duato", 0.001, 64);
    spec.warmup_cycles = 100;
    spec.measure_cycles = 200;
    spec.faults = (0..20)
        .map(|i| Coord {
            x: 3 * i + 1,
            y: 61 - 3 * i,
        })
        .collect();
    let outcome = client.run_spec(&spec).expect("64×64 run");
    let custom = spec.to_custom(&PatternInterner::default()).unwrap();
    let report = wormsim_experiments::run_custom(&custom).unwrap();
    assert!(report.throughput.messages_delivered() > 0);
    assert_eq!(serde_json::to_string(&report).unwrap(), outcome.report_json);
    client.ping().expect("same connection still answers");
    let stats = server.stop();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn shutdown_drains_admitted_requests_before_exiting() {
    let server = start_server(SchedulerConfig {
        threads: 2,
        ..SchedulerConfig::default()
    });
    let mut client = connect(&server);
    const N: usize = 6;
    for i in 0..N {
        let mut spec = WireSpec::basic(6, "Nbc", 0.002, 5000 + i as u64);
        spec.warmup_cycles = 200;
        spec.measure_cycles = 1500;
        client
            .send(&Request::Run {
                id: (i + 1) as u64,
                spec,
            })
            .unwrap();
    }
    // Wait until all N are admitted (stopping earlier could race the
    // connection reader and produce typed shutting_down rejects — valid,
    // but not what this test pins). With two worker threads the jobs are
    // mostly still queued or running at this point, so the stop below
    // really does exercise the drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().requests < N as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests were never admitted: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Stop the server while those requests are still in flight: the
    // drain must answer all of them first.
    let stats = server.stop();
    assert_eq!(stats.completed, N as u64, "drain answered every request");
    assert_eq!(stats.in_flight, 0);
    let mut results = 0;
    for _ in 0..N {
        match client.recv().expect("drained result") {
            Response::Result { .. } => results += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(results, N);
}

#[test]
fn metrics_emitter_jsonl_round_trips_and_lands_on_final_server_state() {
    let server = start_server(SchedulerConfig::default());
    let path = std::env::temp_dir().join(format!(
        "wormsim-soak-metrics-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let file = std::fs::File::create(&path).expect("create metrics log");
    let emitter = MetricsEmitter::spawn(server.metrics(), file, Duration::from_millis(20))
        .expect("spawn emitter");

    // Run a few distinct specs plus one repeat (a cache hit) while the
    // emitter ticks in the background.
    let mut client = connect(&server);
    const N: u64 = 4;
    for i in 0..N {
        let mut spec = WireSpec::basic(6, "Xy", 0.002, 7000 + i);
        spec.warmup_cycles = 100;
        spec.measure_cycles = 400;
        client.run_spec(&spec).expect("run");
    }
    let mut repeat = WireSpec::basic(6, "Xy", 0.002, 7000);
    repeat.warmup_cycles = 100;
    repeat.measure_cycles = 400;
    assert!(client.run_spec(&repeat).expect("re-run").cached);
    std::thread::sleep(Duration::from_millis(60));

    let frames_written = emitter.stop().expect("emitter stops cleanly");
    let text = std::fs::read_to_string(&path).expect("read metrics log");
    let _ = std::fs::remove_file(&path);
    let frames = parse_metrics_log(&text).expect("every line parses");
    assert_eq!(frames.len() as u64, frames_written, "no frame lost");
    assert!(
        frames.len() >= 3,
        "periodic frames plus the final one: {} frames",
        frames.len()
    );
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(frame.seq, i as u64, "seq numbers are dense");
        if i > 0 {
            assert!(frame.elapsed_ms >= frames[i - 1].elapsed_ms);
        }
        // Counters only move forward between frames.
        let completed = frame.metrics.counter("wormsim_requests_completed_total");
        let prev = frames[i.saturating_sub(1)]
            .metrics
            .counter("wormsim_requests_completed_total");
        assert!(completed >= prev, "counter regressed between frames");
    }
    // The final frame is a full snapshot of terminal server state, and
    // renders to a valid exposition just like the live scrape would.
    let last = &frames.last().unwrap().metrics;
    assert_eq!(last.counter("wormsim_requests_total"), Some(N + 1));
    assert_eq!(
        last.counter("wormsim_requests_completed_total"),
        Some(N + 1)
    );
    assert_eq!(last.counter("wormsim_jobs_run_total"), Some(N));
    assert_eq!(last.counter("wormsim_cache_hits_total"), Some(1));
    assert_eq!(last.gauge("wormsim_jobs_in_flight"), Some(0));
    let rendered = render_prometheus(last);
    assert!(validate_prometheus(&rendered).expect("final frame renders") > 0);
    server.stop();
}

#[test]
fn deeply_nested_frame_is_a_bad_request_and_the_connection_survives() {
    // Regression: the JSON parser recursed once per `[`, so this one
    // unauthenticated frame overflowed the connection thread's stack and
    // aborted the whole process.
    let server = start_server(SchedulerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut recv = || -> Response {
        let frame = read_frame(&mut reader)
            .expect("read a frame")
            .expect("server kept the connection open");
        serde_json::from_str(std::str::from_utf8(&frame).expect("UTF-8")).expect("a Response")
    };
    write_frame(&mut stream, &vec![b'['; 200 * 1024]).expect("send the nested frame");
    match recv() {
        Response::Error { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected a bad_request error, got {other:?}"),
    }
    send_message(&mut stream, &Request::Ping).expect("send a ping");
    match recv() {
        Response::Pong => {}
        other => panic!("expected Pong on the same connection, got {other:?}"),
    }
    let stats = server.stop();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn an_8_mib_string_is_parsed_in_linear_time_and_the_connection_survives() {
    // Regression: the JSON parser re-validated the whole rest of the
    // frame for every character of a string, so this one frame held a
    // reader thread for hours. The string sits under a key the spec
    // ignores; `mesh_size: 1` then makes the spec a `bad_spec`.
    let server = start_server(SchedulerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let bound = Duration::from_secs(10);
    stream.set_read_timeout(Some(bound)).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut recv = || -> Response {
        let frame = read_frame(&mut reader)
            .expect("an answer within the bound")
            .expect("server kept the connection open");
        serde_json::from_str(std::str::from_utf8(&frame).expect("UTF-8")).expect("a Response")
    };
    let run = Request::Run {
        id: 1,
        spec: WireSpec::basic(1, "Duato", 0.002, 1),
    };
    let json = serde_json::to_string(&run).expect("request serializes");
    let padding = format!("\"padding\":\"{}\",", "x".repeat(8 << 20));
    let frame = json.replacen("\"spec\":{", &format!("\"spec\":{{{padding}"), 1);
    assert!(frame.len() > 8 << 20, "the padding went in");
    let start = std::time::Instant::now();
    write_frame(&mut stream, frame.as_bytes()).expect("send the frame");
    match recv() {
        Response::Error { id, code, .. } => assert_eq!((id, code.as_str()), (1, "bad_spec")),
        other => panic!("expected a bad_spec error, got {other:?}"),
    }
    assert!(start.elapsed() < bound, "took {:?}", start.elapsed());
    send_message(&mut stream, &Request::Ping).expect("send a ping");
    match recv() {
        Response::Pong => {}
        other => panic!("expected Pong on the same connection, got {other:?}"),
    }
    server.stop();
}

#[test]
fn wire_shutdown_request_stops_the_server() {
    let server = start_server(SchedulerConfig::default());
    let mut client = connect(&server);
    client.ping().unwrap();
    client.shutdown_server().unwrap();
    assert!(server.stop_requested());
    let stats = server.stop();
    assert_eq!(stats.internal_errors, 0);
}
