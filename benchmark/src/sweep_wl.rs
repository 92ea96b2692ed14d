//! The sweep workloads, `fig4_sweep` and `dynamic_faults`: the figure
//! harness's own fan-out (`parallel_map` over `run_single` / `run_chaos`)
//! driven with the shapes `figures.rs` and `dynamic.rs` drive it with.

use crate::gen::{derive, scaled};
use crate::stats::{median, summarize};
use crate::workload::{check_fingerprints, Ctx, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use wormsim_chaos::{run_chaos, FaultSchedule};
use wormsim_experiments::{
    parallel_map, report_fingerprint, run_single, ExperimentConfig, RunSpec, Scale, DYNAMIC_KINDS,
    DYNAMIC_RATE, FULL_LOAD_RATE,
};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// Set-ups are cheap here, so they are repeated to a stable median.
const SETUP_REPS: usize = 21;

/// Seed-fault counts of the Fig-4 cases: 0 %, 5 % and 10 % of 100 nodes.
const FAULT_CASES: [usize; 3] = [0, 5, 10];
const PATTERNS_PER_CASE: usize = 3;

/// The harness configuration both figures run at `--quick`: 10×10,
/// 1 000 + 4 000 cycles, one thread per core.
fn quick_config() -> ExperimentConfig {
    ExperimentConfig::new(Scale::Quick)
}

/// One Fig-4 pass: a batch of specs per fault case, as `fault_sweep`
/// builds them, over fault patterns drawn fresh from `base`.
pub fn fig4_batches(cfg: &ExperimentConfig, base: u64) -> Vec<Vec<RunSpec>> {
    let mesh = Mesh::square(cfg.mesh_size);
    FAULT_CASES
        .iter()
        .map(|&faults| {
            let patterns: Vec<Arc<FaultPattern>> = if faults == 0 {
                vec![Arc::new(FaultPattern::fault_free(&mesh))]
            } else {
                let mut rng = SmallRng::seed_from_u64(derive(base, faults as u64, 0));
                (0..PATTERNS_PER_CASE)
                    .map(|_| {
                        Arc::new(
                            random_pattern(&mesh, faults, &mut rng)
                                .expect("the generator finds 10x10 patterns of up to 10 faults"),
                        )
                    })
                    .collect()
            };
            AlgorithmKind::ALL
                .iter()
                .enumerate()
                .flat_map(|(ki, &kind)| {
                    patterns.iter().enumerate().map(move |(pi, p)| RunSpec {
                        kind,
                        pattern: p.clone(),
                        rate: FULL_LOAD_RATE,
                        seed: derive(base, 100 + ki as u64, (faults * 100 + pi) as u64),
                    })
                })
                .collect()
        })
        .collect()
}

/// The skeleton both sweeps share. `build` makes one pass's inputs — one
/// batch per `parallel_map` fan-out — from the pass number; it is the
/// set-up, timed [`SETUP_REPS`] times. Each pass is then a round: its batches go over
/// the pool one after the other with a span and a timing around each item.
fn sweep<T: Sync>(
    ctx: &Ctx<'_>,
    workload: &'static str,
    item_span: &'static str,
    full_passes: usize,
    threads: usize,
    build: impl Fn(u64) -> Vec<Vec<T>>,
    run: impl Fn(&T) -> Result<SimReport, String> + Sync,
) -> Outcome {
    let passes = scaled(full_passes, ctx.scale, 1);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for rep in 0..SETUP_REPS.max(passes) {
        let start = Instant::now();
        let batches = build(rep as u64);
        setups.push(start.elapsed().as_secs_f64());
        if rep < passes {
            inputs.push(batches);
        }
    }
    let mut item_walls_ms = Vec::new();
    for (pass, batches) in inputs.iter().enumerate() {
        let open = ctx.tracer.begin("pass", None, pass as u64);
        let start = Instant::now();
        let results: Vec<(Result<SimReport, String>, f64)> = batches
            .iter()
            .flat_map(|batch| {
                parallel_map(batch, threads, |item| {
                    let item_open = ctx.tracer.begin(item_span, open.id(), pass as u64);
                    let start = Instant::now();
                    let report = run(item);
                    let wall = start.elapsed().as_secs_f64();
                    ctx.tracer.end(item_open);
                    (report, wall)
                })
            })
            .collect();
        let wall = start.elapsed().as_secs_f64();
        ctx.tracer.end(open);
        out.round_rates.push(results.len() as f64 / wall);
        // Fingerprinting happens here, outside the pass's wall time.
        for (report, item_wall) in results {
            out.attempted += 1;
            item_walls_ms.push(item_wall * 1e3);
            match report {
                Ok(report) => out.fingerprints.push(report_fingerprint(&report)),
                Err(e) => {
                    out.fingerprints.push(String::new());
                    out.fail(format!("a sweep run was refused: {e}"));
                }
            }
        }
    }
    let fingerprints = std::mem::take(&mut out.fingerprints);
    check_fingerprints(
        ctx,
        workload,
        &fingerprints,
        || {
            run(&inputs[0][0][0])
                .map(|r| report_fingerprint(&r))
                .unwrap_or_default()
        },
        &mut out,
    );
    out.fingerprints = fingerprints;
    let items = summarize(&mut item_walls_ms);
    out.setup_s = median(&setups);
    out.ops_per_s = median(&out.round_rates);
    out.op_p50_ms = items.p50;
    out.native = vec![("runs_per_s", out.ops_per_s, "runs/s")];
    if let Some((p, v)) = items.tail.filter(|(p, _)| *p > 50.0) {
        out.notes.push(format!(
            "one run on a pool thread: p50 {:.2} ms, p{p} {v:.2} ms over {} runs",
            items.p50, items.count
        ));
    }
    out
}

/// 6 passes of the Fig-4 shape, 77 runs each: one fan-out per fault case,
/// exactly as `fault_sweep` does.
pub fn fig4_sweep(ctx: &Ctx<'_>) -> Outcome {
    let cfg = quick_config();
    sweep(
        ctx,
        "fig4_sweep",
        "experiments.run_single",
        6,
        cfg.threads,
        |pass| fig4_batches(&cfg, derive(ctx.seed, 3, pass)),
        |spec| run_single(&cfg, spec).map_err(|e| e.to_string()),
    )
}

struct ChaosSpec {
    schedule: FaultSchedule,
    kind: AlgorithmKind,
    seed: u64,
}

/// When in the measurement window the fault arrives (percent), and how
/// many nodes it kills: the `dynamic.rs` grid.
const ARRIVALS: [u64; 2] = [25, 50];
const FAULT_COUNTS: [usize; 3] = [1, 3, 5];

/// One pass of the dynamic-fault grid: 2 arrivals × 3 sizes × 3
/// algorithms × 3 placements.
fn dynamic_specs(cfg: &ExperimentConfig, base: u64) -> Vec<ChaosSpec> {
    let mesh = Mesh::square(cfg.mesh_size);
    let fault_free = FaultPattern::fault_free(&mesh);
    let mut specs = Vec::new();
    for (ai, pct) in ARRIVALS.iter().enumerate() {
        let arrival = cfg.sim.warmup_cycles + cfg.sim.measure_cycles * pct / 100;
        for (ci, &count) in FAULT_COUNTS.iter().enumerate() {
            let scenario = (ai * FAULT_COUNTS.len() + ci) as u64;
            let mut rng = SmallRng::seed_from_u64(derive(base, 20, scenario));
            let schedules: Vec<FaultSchedule> = (0..PATTERNS_PER_CASE)
                .map(|_| {
                    // A width-1 window pins the event to the exact cycle.
                    FaultSchedule::random(
                        &mesh,
                        &fault_free,
                        1,
                        count,
                        arrival..arrival + 1,
                        &mut rng,
                    )
                    .expect("a fault-free 10x10 mesh accepts any event of up to 5 nodes")
                })
                .collect();
            for (ki, &kind) in DYNAMIC_KINDS.iter().enumerate() {
                for (pi, schedule) in schedules.iter().enumerate() {
                    specs.push(ChaosSpec {
                        schedule: schedule.clone(),
                        kind,
                        seed: derive(base, 21 + scenario * 8 + ki as u64, pi as u64),
                    });
                }
            }
        }
    }
    specs
}

fn run_chaos_spec(cfg: &ExperimentConfig, spec: &ChaosSpec) -> Result<SimReport, String> {
    let mesh = Mesh::square(cfg.mesh_size);
    let base = FaultPattern::fault_free(&mesh);
    run_chaos(
        mesh,
        base,
        &spec.schedule,
        spec.kind,
        cfg.vc,
        Workload::paper_uniform(DYNAMIC_RATE),
        cfg.sim.with_seed(spec.seed),
    )
    .map_err(|e| e.to_string())
}

/// 16 passes of the dynamic-fault grid, 54 chaos runs each in one fan-out.
pub fn dynamic_faults(ctx: &Ctx<'_>) -> Outcome {
    let cfg = quick_config();
    sweep(
        ctx,
        "dynamic_faults",
        "chaos.run_chaos",
        16,
        cfg.threads,
        |pass| vec![dynamic_specs(&cfg, derive(ctx.seed, 4, pass))],
        |spec| run_chaos_spec(&cfg, spec),
    )
}
