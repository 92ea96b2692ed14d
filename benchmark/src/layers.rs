//! The per-layer probes of the traced pass.
//!
//! Each probe times calls into one crate's public functions from outside
//! and names its result `<layer>.<metric>`. Micro-timings are the minimum
//! over a few batches, so one descheduling cannot enter a record. The
//! engine probes profile the simulation the traced workload itself runs;
//! everything else is the same fixed input beside every workload.

use crate::engine_wl::{
    build_parts, probe_case, run_case, step_through, EngineCase, PatternSpec, MESH,
};
use crate::gen::derive;
use crate::serve_wl::{probe_session, wire_spec};
use crate::span::{busy_by_thread, Tracer};
use crate::stats::{median, min};
use crate::sweep_wl::fig4_batches;
use crate::workload::Ctx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;
use wormsim_analytic::AnalyticModel;
use wormsim_chaos::{ChaosDriver, FaultSchedule};
use wormsim_engine::{EventKind, NullSink, Phase, SimConfig, Simulator, Sink, TraceEvent};
use wormsim_experiments::{
    paper_52_layout, parallel_map, report_json_fingerprint, run_custom, run_single,
    ExperimentConfig, Scale,
};
use wormsim_fault::{random_pattern, FRingSet, FaultPattern};
use wormsim_obs::LatencyHistogram;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_serve::{
    read_frame, write_frame, PatternInterner, Request, Response, Server, ServerConfig,
};
use wormsim_topology::{Coord, Mesh, NodeId};
use wormsim_traffic::{DestinationSampler, Injector, TrafficPattern, Workload};

const BATCHES: usize = 5;

/// Probe results in emission order, and what went wrong along the way.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

/// Mean nanoseconds per call of `f`, minimum over [`BATCHES`] batches.
fn min_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    min(&batches)
}

fn min_us<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    min_ns(reps, f) / 1e3
}

fn wall_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A fault that is acceptable on top of the §5.2 layout and far from its
/// regions, so `extend` adds a region and `rebuild` reuses three rings.
const EXTRA_FAULT: Coord = Coord { x: 1, y: 8 };

fn topology_fault_routing(out: &mut Layers) {
    let mesh = Mesh::square(MESH);
    out.put(
        "topology.mesh_build_us",
        min_us(2_000, || Mesh::square(black_box(MESH))),
    );

    let mut rng = SmallRng::seed_from_u64(0xFA17);
    out.put(
        "fault.pattern_build_us",
        min_us(200, || {
            random_pattern(&mesh, 10, &mut rng).expect("pattern")
        }),
    );
    let layout = paper_52_layout(&mesh);
    out.put(
        "fault.rings_build_us",
        min_us(500, || FRingSet::build(&mesh, &layout)),
    );
    let rings = FRingSet::build(&mesh, &layout);
    let extend = || {
        let next = layout
            .extend(&mesh, [EXTRA_FAULT])
            .expect("acceptable extension");
        let rebuilt = FRingSet::rebuild(&mesh, &next, &layout, &rings);
        (next, rebuilt)
    };
    out.put("fault.extend_us", min_us(500, extend));

    out.put(
        "routing.context_build_us",
        min_us(50, || RoutingContext::new(mesh.clone(), layout.clone())),
    );
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), layout.clone()));
    out.put(
        "routing.algo_build_us",
        min_us(500, || {
            build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper())
        }),
    );
    let (extended, _) = extend();
    out.put(
        "routing.with_pattern_us",
        min_us(50, || ctx.with_pattern(extended.clone())),
    );

    // One routing decision per healthy ordered pair, ring geometry on
    // the decision path.
    let healthy: Vec<NodeId> = layout.healthy_nodes(&mesh).collect();
    let pairs: Vec<(NodeId, NodeId)> = healthy
        .iter()
        .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect();
    for kind in AlgorithmKind::ALL {
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let per_sweep = min_ns(1, || {
            for &(src, dest) in &pairs {
                let mut state = algo.init_message(src, dest);
                black_box(algo.route(src, &mut state));
            }
        });
        out.put(
            &format!("routing.route_ns.{kind:?}"),
            per_sweep / pairs.len() as f64,
        );
    }
}

fn traffic(out: &mut Layers) {
    let mesh = Mesh::square(MESH);
    let mut rng = SmallRng::seed_from_u64(0x7AFF);
    let mut injector = Injector::new(0.01);
    let mut now = 0;
    out.put(
        "traffic.poll_ns",
        min_ns(100_000, || {
            now += 1;
            injector.poll_rng(now, &mut rng)
        }),
    );
    let healthy: Vec<NodeId> = mesh.nodes().collect();
    let mut sampler = DestinationSampler::new(TrafficPattern::Uniform, &mesh, healthy);
    let mut src = 0;
    out.put(
        "traffic.sample_ns",
        min_ns(100_000, || {
            src = (src + 1) % mesh.num_nodes() as u16;
            sampler.sample(NodeId(src), &mut rng)
        }),
    );
}

/// Counts the engine's trace events by kind; the cheapest sink that is
/// not `NullSink`, so its cost is the instrumentation's floor.
#[derive(Default)]
struct CountingSink {
    route_decision: u64,
    vc_acquire: u64,
    block: u64,
    wake: u64,
    deliver: u64,
}

impl Sink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        match event.kind {
            EventKind::RouteDecision => self.route_decision += 1,
            EventKind::VcAcquire => self.vc_acquire += 1,
            EventKind::Block => self.block += 1,
            EventKind::Wake => self.wake += 1,
            EventKind::Deliver => self.deliver += 1,
            _ => {}
        }
    }
}

/// Profile one simulation three ways — plain, phase-profiled, and with a
/// counting sink — and require all three to report the same result.
fn engine(case: &EngineCase, ctx: &Ctx<'_>, out: &mut Layers) {
    // Short schedules are repeated and the fastest repetition kept.
    let reps = if case.cfg.total_cycles() >= 20_000 {
        1
    } else {
        5
    };
    let cycles = case.cfg.total_cycles() as f64;
    let off = Tracer::new(false);

    let plain = (0..reps)
        .map(|rep| {
            // The first repetition carries the layer-boundary spans.
            let tracer = if rep == 0 { ctx.tracer } else { &off };
            run_case(case, tracer, u64::MAX)
        })
        .min_by(|a, b| a.stepped.total_s().total_cmp(&b.stepped.total_s()))
        .expect("at least one repetition");

    let parts = build_parts(case, &off, None, 0);
    let mut profiled_s = f64::INFINITY;
    let mut phases = None;
    let mut sink_s = f64::INFINITY;
    let mut counts = CountingSink::default();
    for _ in 0..reps {
        let mut sim = Simulator::<NullSink, true>::try_build(
            parts.algo.clone(),
            parts.ctx.clone(),
            case.workload.clone(),
            case.cfg,
            NullSink,
        )
        .expect("the plain run accepted this configuration");
        if case.prewarm {
            sim.prewarm(parts.population);
        }
        let s = step_through(&mut sim, &case.cfg, &off, None, 0).total_s();
        if s < profiled_s {
            profiled_s = s;
            phases = Some(*sim.phase_times());
        }
        let json = serde_json::to_string(&sim.report()).expect("a report serializes");
        if report_json_fingerprint(&json) != plain.fingerprint {
            out.failures
                .push("the phase-profiled run reported a different simulation".into());
        }

        let mut sim = Simulator::with_sink(
            parts.algo.clone(),
            parts.ctx.clone(),
            case.workload.clone(),
            case.cfg,
            CountingSink::default(),
        );
        if case.prewarm {
            sim.prewarm(parts.population);
        }
        sink_s = sink_s.min(step_through(&mut sim, &case.cfg, &off, None, 0).total_s());
        let json = serde_json::to_string(&sim.report()).expect("a report serializes");
        if report_json_fingerprint(&json) != plain.fingerprint {
            out.failures
                .push("the run with a sink attached reported a different simulation".into());
        }
        counts = sim.into_sink();
    }
    let phases = phases.expect("at least one repetition");

    let plain_s = plain.stepped.total_s();
    let flits = plain.report.throughput.flits_delivered();
    out.put("engine.build_us", plain.build_s * 1e6);
    out.put("engine.step_ns", plain_s * 1e9 / cycles);
    out.put(
        "engine.ns_per_flit",
        if flits == 0 {
            0.0
        } else {
            plain.stepped.measure_s * 1e9 / flits as f64
        },
    );
    out.put("engine.report_us", plain.report_s * 1e6);
    for phase in Phase::ALL {
        // By name, so a phase the engine adds or drops changes no code
        // here; `BENCHMARK.json` lists the five every build has.
        let name = format!("engine.phase_ns.{}", phase.name());
        if crate::metrics::is_layer_metric(&name) {
            out.put(&name, phases.mean_ns_per_cycle(phase));
        }
    }
    out.put("engine.profile_overhead_ratio", profiled_s / plain_s);
    out.put("engine.window_allocs", plain.stepped.window_allocs as f64);
    for (name, count) in [
        ("route_decision", counts.route_decision),
        ("vc_acquire", counts.vc_acquire),
        ("block", counts.block),
        ("wake", counts.wake),
        ("deliver", counts.deliver),
    ] {
        out.put(
            &format!("engine.events_per_cycle.{name}"),
            count as f64 / cycles,
        );
    }
    out.put(
        "engine.block_ratio",
        counts.block as f64 / counts.route_decision.max(1) as f64,
    );
    let r = &plain.report;
    out.put(
        "engine.sim.delivered_msgs",
        r.throughput.messages_delivered() as f64,
    );
    let latency = r.mean_latency();
    out.put(
        "engine.sim.mean_latency_cycles",
        if latency.is_finite() { latency } else { 0.0 },
    );
    out.put("engine.sim.norm_throughput", r.normalized_throughput());
    out.put("engine.sim.recoveries", r.recoveries as f64);
    out.put("obs.sink_overhead_ratio", sink_s / plain_s);
}

/// One cold service request's report, serialised and fingerprinted.
fn metrics_layer(ctx: &Ctx<'_>, out: &mut Layers) {
    let report = run_case(&probe_case("serve_hot", ctx.seed), &Tracer::new(false), 0).report;
    out.put(
        "metrics.report_json_us",
        min_us(50, || serde_json::to_string(&report).expect("serializes")),
    );
    let json = serde_json::to_string(&report).expect("serializes");
    out.put("metrics.report_json_bytes", json.len() as f64);
    out.put(
        "metrics.fingerprint_us",
        min_us(50, || report_json_fingerprint(&json)),
    );
}

/// Fault events delivered mid-run through a `ChaosDriver`: what the step
/// that delivers one costs over an ordinary step, and what it does.
fn chaos(ctx: &Ctx<'_>, out: &mut Layers) {
    const PLACEMENTS: usize = 5;
    const NODES: usize = 3;
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        seed: derive(ctx.seed, 11, 0),
        ..SimConfig::paper()
    };
    let arrival = cfg.warmup_cycles + cfg.measure_cycles / 4;
    let mesh = Mesh::square(MESH);
    let fault_free = FaultPattern::fault_free(&mesh);
    let mut rng = SmallRng::seed_from_u64(derive(ctx.seed, 11, 1));
    let (mut event_us, mut aborted, mut lost, mut events) = (vec![], 0, 0, 0);
    for _ in 0..PLACEMENTS {
        let schedule =
            FaultSchedule::random(&mesh, &fault_free, 1, NODES, arrival..arrival + 1, &mut rng)
                .expect("a fault-free 10x10 mesh accepts a 3-node event");
        let routing = Arc::new(RoutingContext::new(mesh.clone(), fault_free.clone()));
        let driver = ChaosDriver::new(
            &schedule,
            routing.clone(),
            AlgorithmKind::Duato,
            VcConfig::paper(),
        )
        .expect("the schedule was validated when drawn");
        let algo = build_algorithm(AlgorithmKind::Duato, routing.clone(), VcConfig::paper());
        let workload = Workload::paper_uniform(wormsim_experiments::DYNAMIC_RATE);
        let mut sim = Simulator::new(algo, routing, workload, cfg);
        sim.install_fault_driver(Box::new(driver));
        let mut steps_us = Vec::with_capacity(cfg.total_cycles() as usize);
        for _ in 0..cfg.total_cycles() {
            let start = Instant::now();
            sim.step();
            steps_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        event_us.push(steps_us[arrival as usize] - median(&steps_us));
        let report = sim.report();
        match report.recovery.as_ref() {
            Some(recovery) => {
                events += recovery.num_events();
                aborted += recovery.total_aborted();
                lost += recovery.total_lost();
            }
            None => out.failures.push("a chaos run recorded no recovery".into()),
        }
    }
    if events != PLACEMENTS {
        out.failures.push(format!(
            "{events} fault events were delivered, not {PLACEMENTS}"
        ));
    }
    out.put("chaos.fault_event_us", median(&event_us));
    out.put(
        "chaos.aborted_per_event",
        aborted as f64 / events.max(1) as f64,
    );
    out.put("chaos.lost_msgs", lost as f64);
}

/// The accuracy guard: one light-load run against the closed-form model.
fn analytic(ctx: &Ctx<'_>, out: &mut Layers) {
    const RATE: f64 = 0.001;
    let case = EngineCase {
        kind: AlgorithmKind::Duato,
        pattern: PatternSpec::FaultFree,
        workload: Workload::paper_uniform(RATE),
        cfg: SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 8_000,
            seed: derive(ctx.seed, 12, 0),
            ..SimConfig::paper()
        },
        prewarm: false,
    };
    let measured = run_case(&case, &Tracer::new(false), 0)
        .report
        .mean_network_latency();
    let mesh = Mesh::square(MESH);
    let model = AnalyticModel::new(&mesh, &FaultPattern::fault_free(&mesh));
    match model.mean_latency(RATE, case.workload.message_length) {
        Some(predicted) if measured.is_finite() => out.put(
            "analytic.latency_rel_err",
            (measured - predicted).abs() / measured,
        ),
        _ => out
            .failures
            .push("the analytic model has no light-load prediction to compare".into()),
    }
}

/// What `run_custom` and the pool add around a bare simulation.
fn experiments(ctx: &Ctx<'_>, out: &mut Layers) {
    let interner = PatternInterner::default();
    // A schedule short enough that the harness's share is resolvable.
    let tiny = |index: u64| {
        let mut spec = wire_spec(ctx.seed, index);
        spec.warmup_cycles = 100;
        spec.measure_cycles = 100;
        spec.to_custom(&interner)
            .expect("a generated spec is valid")
    };
    let bare = |spec: &wormsim_experiments::CustomSpec| {
        let mesh = Mesh::square(spec.mesh_size);
        let routing = Arc::new(RoutingContext::new(mesh, (*spec.pattern).clone()));
        let algo = build_algorithm(spec.kind, routing.clone(), spec.vc);
        let mut sim = Simulator::new(algo, routing, spec.workload.clone(), spec.sim);
        wall_s(|| black_box(sim.run())).1 * 1e6
    };
    let harness = |spec: &wormsim_experiments::CustomSpec| {
        wall_s(|| black_box(run_custom(spec).expect("a generated spec runs"))).1 * 1e6
    };

    let warm = tiny(0);
    harness(&warm);
    let (mut via, mut direct) = (vec![], vec![]);
    for _ in 0..15 {
        via.push(harness(&warm));
        direct.push(bare(&warm));
    }
    out.put("experiments.run_overhead_us", min(&via) - min(&direct));

    // Odd indices carry fault patterns no earlier call has interned, so
    // each pays for a context and an algorithm.
    let cold: Vec<f64> = (0..9)
        .map(|i| {
            let spec = tiny(1_001 + 2 * i);
            harness(&spec) - bare(&spec)
        })
        .collect();
    out.put("experiments.cold_run_overhead_us", median(&cold));

    let full = wire_spec(ctx.seed, 1)
        .to_custom(&interner)
        .expect("a generated spec is valid");
    out.put("experiments.canonical_us", min_us(200, || full.canonical()));

    let items = vec![0u32; 10_000];
    let threads = crate::host::cores();
    out.put(
        "experiments.pool_item_overhead_us",
        min_us(1, || parallel_map(&items, threads, |x| *x)) / items.len() as f64,
    );

    // Half a fig-4 fault case (16 runs) on every core and on one core,
    // three times alternately; the fastest of each is kept, because the
    // ratio of two single walls moves with every host hiccup.
    let cfg = ExperimentConfig::new(Scale::Quick);
    let batch = &fig4_batches(&cfg, derive(ctx.seed, 10, 0))[1][..16];
    let spans = Tracer::new(true);
    let run = |span, threads| {
        let (ok, wall) = wall_s(|| {
            parallel_map(batch, threads, |spec| {
                spans.scope(span, None, 0, || run_single(&cfg, spec).is_ok())
            })
        });
        (ok.iter().all(|ok| *ok), wall)
    };
    let (mut all_cores, mut one_core) = (vec![], vec![]);
    for _ in 0..3 {
        for (span, threads, walls) in [
            ("item.all_cores", threads, &mut all_cores),
            ("item.one_core", 1, &mut one_core),
        ] {
            let (ok, wall) = run(span, threads);
            walls.push(wall);
            if !ok {
                out.failures
                    .push("a run of the fig-4 probe batch was refused".into());
            }
        }
    }
    out.put(
        "experiments.parallel_efficiency",
        min(&one_core) / (threads as f64 * min(&all_cores)),
    );
    let busy = busy_by_thread(&spans.spans(), "item.all_cores");
    let busiest = busy.iter().copied().max().unwrap_or(0) as f64;
    let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
    out.put(
        "experiments.imbalance",
        if mean > 0.0 { busiest / mean } else { 0.0 },
    );
}

/// The payloads of one `Run` request and of its cached `Result`, taken
/// from a live server so no response field is named here.
fn live_frames(seed: u64) -> Result<(Vec<u8>, Vec<u8>), String> {
    let server = Server::start(ServerConfig::default()).map_err(|e| e.to_string())?;
    let exchange = || -> Result<(Vec<u8>, Vec<u8>), String> {
        let mut stream =
            std::net::TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let request = serde_json::to_string(&Request::Run {
            id: 1,
            spec: wire_spec(seed, 0),
        })
        .map_err(|e| e.to_string())?
        .into_bytes();
        let mut answer = Vec::new();
        // The second answer is the cache hit, the frame a hot server sends.
        for _ in 0..2 {
            write_frame(&mut stream, &request).map_err(|e| e.to_string())?;
            answer = read_frame(&mut stream)
                .map_err(|e| e.to_string())?
                .ok_or("the server closed the connection")?;
        }
        Ok((request, answer))
    };
    let frames = exchange();
    server.stop();
    frames
}

/// The service's request path taken apart: decode, admit, encode, and
/// the vendored JSON codec underneath them.
fn serve_codec(ctx: &Ctx<'_>, out: &mut Layers) {
    let (request, answer) = match live_frames(ctx.seed) {
        Ok(frames) => frames,
        Err(e) => {
            out.failures.push(format!("no live frame to probe: {e}"));
            return;
        }
    };
    let mut framed = Vec::new();
    write_frame(&mut framed, &request).expect("writing to a Vec cannot fail");
    out.put(
        "serve.decode_us",
        min_us(2_000, || {
            let payload = read_frame(&mut Cursor::new(&framed))
                .expect("a whole frame")
                .expect("not at end of stream");
            let text = std::str::from_utf8(&payload).expect("UTF-8");
            serde_json::from_str::<Request>(text).expect("a request")
        }),
    );
    let interner = PatternInterner::default();
    let spec = wire_spec(ctx.seed, 1);
    out.put(
        "serve.admit_us",
        min_us(2_000, || {
            spec.to_custom(&interner).expect("a valid spec").canonical()
        }),
    );
    let text = std::str::from_utf8(&answer).expect("the server sends UTF-8");
    let response: Response = serde_json::from_str(text).expect("the server sends responses");
    if !matches!(response, Response::Result { .. }) {
        out.failures.push("the probed frame is not a result".into());
    }
    let mut wire = Vec::with_capacity(answer.len() + 4);
    out.put(
        "serve.encode_us",
        min_us(2_000, || {
            wire.clear();
            let json = serde_json::to_string(&response).expect("serializes");
            write_frame(&mut wire, json.as_bytes()).expect("writing to a Vec cannot fail");
        }),
    );
    out.put("serve.result_frame_bytes", (answer.len() + 4) as f64);
    out.put(
        "serve.client_decode_us",
        min_us(500, || {
            let text = std::str::from_utf8(&answer).expect("UTF-8");
            serde_json::from_str::<Response>(text).expect("a response")
        }),
    );

    let mb_per_s = |ns: f64| answer.len() as f64 * 1e3 / ns;
    out.put(
        "json.parse_mb_per_s",
        mb_per_s(min_ns(500, || {
            serde_json::from_str::<serde_json::Value>(text).expect("valid JSON")
        })),
    );
    let value: serde_json::Value = serde_json::from_str(text).expect("valid JSON");
    out.put(
        "json.write_mb_per_s",
        mb_per_s(min_ns(500, || {
            serde_json::to_string(&value).expect("serializes")
        })),
    );
}

fn obs(out: &mut Layers) {
    let histogram = LatencyHistogram::new();
    let mut v = 1u64;
    out.put(
        "obs.histogram_record_ns",
        min_ns(1_000_000, || {
            // Spread over the buckets a latency histogram really sees.
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(v >> 40);
        }),
    );
}

/// Run every probe beside `workload`. `provided` are the session figures
/// a service workload already measured on itself; otherwise a small
/// session is run for them here.
pub fn probe(workload: &str, ctx: &Ctx<'_>, provided: &[(&'static str, f64)]) -> Layers {
    let mut out = Layers::default();
    topology_fault_routing(&mut out);
    traffic(&mut out);
    engine(&probe_case(workload, ctx.seed), ctx, &mut out);
    metrics_layer(ctx, &mut out);
    chaos(ctx, &mut out);
    analytic(ctx, &mut out);
    experiments(ctx, &mut out);
    serve_codec(ctx, &mut out);
    obs(&mut out);
    if provided.is_empty() {
        let session = probe_session(&Ctx {
            tracer: &Tracer::new(false),
            setup_reps: 1,
            ..*ctx
        });
        out.failures.extend(session.failures);
        for (name, value) in session.layer {
            out.put(name, value);
        }
    } else {
        for (name, value) in provided {
            out.put(name, *value);
        }
    }
    out
}
