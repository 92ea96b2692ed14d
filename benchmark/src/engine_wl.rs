//! The single-thread engine workloads, `paper_saturated` and
//! `header_dense`, and the one-run building block they share with the
//! engine probes.
//!
//! Every run is built from public parts — pattern, context, algorithm,
//! simulator — so each layer boundary can carry a span; the timed part is
//! the `step()` loop alone.

use crate::gen::{derive, scaled};
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{check_fingerprints, Ctx, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use wormsim_engine::{SimConfig, Simulator, Sink};
use wormsim_experiments::{paper_52_layout, report_json_fingerprint};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

pub const MESH: u16 = 10;

/// The seed `bench_engine` has always used, and the pretty-form report
/// fingerprint it yields: the repository's historical behaviour pin.
const HISTORICAL_SEED: u64 = 0xB41C;
const HISTORICAL_FINGERPRINT: &str = "6fea1f0c9bd99fc2";

/// `header_dense` traffic: 8-flit messages at 0.05 msgs/node/cycle, the
/// 0.4 flits/node/cycle `ablation_message_length` offers.
pub const DENSE_LENGTH: u32 = 8;
pub const DENSE_RATE: f64 = 0.05;

#[derive(Clone, Debug)]
pub enum PatternSpec {
    FaultFree,
    /// The paper's §5.2 layout (`paper_52_layout`).
    Paper52,
    Random {
        faults: usize,
        seed: u64,
    },
}

impl PatternSpec {
    pub fn build(&self, mesh: &Mesh) -> FaultPattern {
        match *self {
            PatternSpec::FaultFree => FaultPattern::fault_free(mesh),
            PatternSpec::Paper52 => paper_52_layout(mesh),
            PatternSpec::Random { faults, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                random_pattern(mesh, faults, &mut rng)
                    .expect("the generator finds 10x10 patterns of up to 10 faults")
            }
        }
    }
}

/// Everything that determines one simulation.
#[derive(Clone, Debug)]
pub struct EngineCase {
    pub kind: AlgorithmKind,
    pub pattern: PatternSpec,
    pub workload: Workload,
    pub cfg: SimConfig,
    /// Pre-size the message slab the way `bench_engine` does, so the
    /// measurement window allocates nothing.
    pub prewarm: bool,
}

impl EngineCase {
    pub fn paper(seed: u64) -> Self {
        EngineCase {
            kind: AlgorithmKind::Duato,
            pattern: PatternSpec::FaultFree,
            workload: Workload::paper_uniform(0.01),
            cfg: SimConfig {
                seed,
                ..SimConfig::paper()
            },
            prewarm: true,
        }
    }

    pub fn dense(kind: AlgorithmKind, seed: u64) -> Self {
        EngineCase {
            kind,
            pattern: PatternSpec::Paper52,
            workload: Workload {
                message_length: DENSE_LENGTH,
                ..Workload::paper_uniform(DENSE_RATE)
            },
            cfg: SimConfig {
                seed,
                ..SimConfig::paper()
            },
            prewarm: false,
        }
    }

    /// Messages the whole schedule creates, with Bernoulli slack: the
    /// `prewarm` population.
    fn population(&self, healthy: usize) -> usize {
        let expected =
            (self.cfg.total_cycles() as f64 * healthy as f64 * self.workload.rate) as usize;
        expected + expected / 4 + 1024
    }
}

/// The shared parts of a run, built once.
pub struct Built {
    pub ctx: Arc<RoutingContext>,
    pub algo: Arc<dyn wormsim_routing::RoutingAlgorithm>,
    pub population: usize,
}

/// Pattern → context → algorithm, each under its span.
pub fn build_parts(case: &EngineCase, tracer: &Tracer, parent: Option<u32>, request: u64) -> Built {
    let mesh = Mesh::square(MESH);
    let pattern = tracer.scope("fault.pattern_build", parent, request, || {
        case.pattern.build(&mesh)
    });
    let population = case.population(pattern.num_healthy());
    let ctx = tracer.scope("routing.context_build", parent, request, || {
        Arc::new(RoutingContext::new(mesh, pattern))
    });
    let algo = tracer.scope("routing.algo_build", parent, request, || {
        Arc::from(build_algorithm(case.kind, ctx.clone(), VcConfig::paper()))
    });
    Built {
        ctx,
        algo,
        population,
    }
}

/// Wall time of the two halves of a schedule, and the heap allocations
/// this thread made inside the measurement window.
pub struct Stepped {
    pub warmup_s: f64,
    pub measure_s: f64,
    pub window_allocs: u64,
}

impl Stepped {
    pub fn total_s(&self) -> f64 {
        self.warmup_s + self.measure_s
    }
}

/// Step a simulator through its schedule. Generic so the plain, the
/// phase-profiled and the sink-carrying instantiations share it.
pub fn step_through<S: Sink, const PROFILE: bool>(
    sim: &mut Simulator<S, PROFILE>,
    cfg: &SimConfig,
    tracer: &Tracer,
    parent: Option<u32>,
    request: u64,
) -> Stepped {
    let open = tracer.begin("engine.warmup", parent, request);
    let start = Instant::now();
    for _ in 0..cfg.warmup_cycles {
        sim.step();
    }
    let warmup_s = start.elapsed().as_secs_f64();
    tracer.end(open);
    let open = tracer.begin("engine.measure", parent, request);
    let before = crate::alloc::allocations();
    let start = Instant::now();
    for _ in 0..cfg.measure_cycles {
        sim.step();
    }
    let measure_s = start.elapsed().as_secs_f64();
    let window_allocs = crate::alloc::allocations() - before;
    tracer.end(open);
    Stepped {
        warmup_s,
        measure_s,
        window_allocs,
    }
}

/// One complete run and its layer timings.
pub struct CaseRun {
    pub report: SimReport,
    pub fingerprint: String,
    /// Pattern, context, algorithm, simulator and `prewarm`.
    pub setup_s: f64,
    pub build_s: f64,
    pub stepped: Stepped,
    pub report_s: f64,
}

/// Build and run `case` on this thread under one `run` span.
pub fn run_case(case: &EngineCase, tracer: &Tracer, request: u64) -> CaseRun {
    let run = tracer.begin("run", None, request);
    let setup = Instant::now();
    let parts = build_parts(case, tracer, run.id(), request);
    let open = tracer.begin("engine.build", run.id(), request);
    let build = Instant::now();
    let mut sim = Simulator::new(
        parts.algo.clone(),
        parts.ctx.clone(),
        case.workload.clone(),
        case.cfg,
    );
    if case.prewarm {
        sim.prewarm(parts.population);
    }
    let build_s = build.elapsed().as_secs_f64();
    tracer.end(open);
    let setup_s = setup.elapsed().as_secs_f64();

    let stepped = step_through(&mut sim, &case.cfg, tracer, run.id(), request);

    let open = tracer.begin("engine.report", run.id(), request);
    let start = Instant::now();
    let report = sim.report();
    let report_s = start.elapsed().as_secs_f64();
    tracer.end(open);
    let report_json = tracer.scope("metrics.report_json", run.id(), request, || {
        serde_json::to_string(&report).expect("a report always serializes")
    });
    let fingerprint = report_json_fingerprint(&report_json);
    tracer.end(run);
    CaseRun {
        report,
        fingerprint,
        setup_s,
        build_s,
        stepped,
        report_s,
    }
}

fn paper_case(ctx: &Ctx<'_>, run: usize) -> EngineCase {
    // Run 0 is the historical gate whatever the seed; the rest vary.
    let seed = if run == 0 {
        HISTORICAL_SEED
    } else {
        derive(ctx.seed, 1, run as u64)
    };
    EngineCase::paper(seed)
}

/// The skeleton both engine workloads share: `rounds` rounds, each the
/// back-to-back runs of `cases(round)` on this thread. A round's rate is
/// its simulated cycles over its `step()` wall time.
fn rounds(
    ctx: &Ctx<'_>,
    workload: &'static str,
    rounds: usize,
    cases: impl Fn(usize) -> Vec<EngineCase>,
    check_first: impl FnOnce(&CaseRun, &mut Outcome),
) -> Outcome {
    let mut out = Outcome::default();
    let mut check_first = Some(check_first);
    let (mut walls, mut setups) = (vec![], vec![]);
    for round in 0..rounds {
        let (mut cycles, mut wall) = (0, 0.0);
        for case in cases(round) {
            let r = run_case(&case, ctx.tracer, out.attempted);
            out.attempted += 1;
            if let Some(check) = check_first.take() {
                check(&r, &mut out);
            }
            cycles += case.cfg.total_cycles();
            wall += r.stepped.total_s();
            setups.push(r.setup_s);
            out.fingerprints.push(r.fingerprint);
        }
        out.round_rates.push(cycles as f64 / wall);
        walls.push(wall);
    }
    let fingerprints = std::mem::take(&mut out.fingerprints);
    check_fingerprints(
        ctx,
        workload,
        &fingerprints,
        || run_case(&cases(0)[0], &Tracer::new(false), 0).fingerprint,
        &mut out,
    );
    out.fingerprints = fingerprints;
    out.setup_s = median(&setups);
    out.ops_per_s = median(&out.round_rates);
    out.op_p50_ms = median(&walls) * 1e3;
    out.native = vec![("sim_cycles_per_s", out.ops_per_s, "cycles/s")];
    out
}

/// 36 back-to-back paper-configuration runs on one thread.
pub fn paper_saturated(ctx: &Ctx<'_>) -> Outcome {
    rounds(
        ctx,
        "paper_saturated",
        scaled(36, ctx.scale, 1),
        |run| vec![paper_case(ctx, run)],
        |first, out| {
            let pretty = serde_json::to_string_pretty(&first.report).expect("a report serializes");
            let historical = report_json_fingerprint(&pretty);
            if historical != HISTORICAL_FINGERPRINT {
                out.fail(format!(
                    "paper_saturated: run 0 fingerprints as {historical}, not the historical \
                     {HISTORICAL_FINGERPRINT}"
                ));
            }
        },
    )
}

/// 10 (Duato, Nbc) pairs of paper-schedule runs under short-message,
/// header-dense traffic on the §5.2 fault layout.
pub fn header_dense(ctx: &Ctx<'_>) -> Outcome {
    rounds(
        ctx,
        "header_dense",
        scaled(10, ctx.scale, 1),
        |pair| {
            vec![
                EngineCase::dense(AlgorithmKind::Duato, derive(ctx.seed, 2, 2 * pair as u64)),
                EngineCase::dense(AlgorithmKind::Nbc, derive(ctx.seed, 2, 2 * pair as u64 + 1)),
            ]
        },
        |_, _| {},
    )
}

/// The simulation the engine probes profile beside each workload: the
/// workload's own first run where it is an engine workload.
pub fn probe_case(workload: &str, seed: u64) -> EngineCase {
    let quick = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        seed: derive(seed, 9, 0),
        ..SimConfig::paper()
    };
    match workload {
        "paper_saturated" => EngineCase::paper(HISTORICAL_SEED),
        "header_dense" => EngineCase::dense(AlgorithmKind::Duato, derive(seed, 2, 0)),
        // One fig-4 point: full load on a random 5-fault pattern.
        "fig4_sweep" => EngineCase {
            kind: AlgorithmKind::Duato,
            pattern: PatternSpec::Random {
                faults: 5,
                seed: derive(seed, 9, 1),
            },
            workload: Workload::paper_uniform(wormsim_experiments::FULL_LOAD_RATE),
            cfg: quick,
            prewarm: false,
        },
        // The dynamic study's light load, before any fault arrives.
        "dynamic_faults" => EngineCase {
            kind: AlgorithmKind::Duato,
            pattern: PatternSpec::FaultFree,
            workload: Workload::paper_uniform(wormsim_experiments::DYNAMIC_RATE),
            cfg: quick,
            prewarm: false,
        },
        // What one cold service request executes.
        _ => EngineCase {
            kind: AlgorithmKind::Duato,
            pattern: PatternSpec::FaultFree,
            workload: Workload::paper_uniform(crate::serve_wl::SPEC_RATE),
            cfg: SimConfig {
                warmup_cycles: crate::serve_wl::SPEC_WARMUP,
                measure_cycles: crate::serve_wl::SPEC_MEASURE,
                ..quick
            },
            prewarm: false,
        },
    }
}
