//! Engine steady-state performance harness and CI perf-regression gate.
//!
//! Runs the paper-scale configuration — 10×10 mesh, 24 VCs, 100-flit
//! messages, Duato's routing at 100 % load — with a fixed seed, measures
//! wall-clock cycles/sec and delivered messages/sec, and writes
//! `BENCH_engine.json`. The same run's `SimReport` is fingerprinted so a
//! perf change that alters simulation *results* is caught, not just one
//! that alters speed.
//!
//! The harness also enforces the engine's zero-allocation steady state:
//! a counting global allocator snapshots the process-wide allocation
//! count at the warm-up boundary and the run aborts if the measurement
//! window performs any heap allocation.
//!
//! Alongside the single paper-scale run, a **sweep-throughput** section
//! times a fixed fig-4-shaped batch (every roster algorithm × three
//! fault cases at full load, quick scale) through one simulator rewound
//! with `Simulator::reset`, context and algorithm built per run, and
//! records runs/sec and the batch fingerprint. The timed passes must
//! perform zero heap allocations across reset and stepping.
//!
//! With `--check BASELINE.json` the run becomes a regression gate
//! against a committed record: the report fingerprint must match
//! exactly (simulation results are deterministic and machine-
//! independent), and cycles/sec — plus the sweep's runs/sec — must stay
//! above 85 % of the baseline.
//!
//! Set `WORMSIM_SKIP_PERF_GATE=1` to skip the throughput thresholds —
//! e.g. on throttled or heavily shared CI machines — while keeping the
//! fingerprint checks. `--sweep-only` runs (and gates) just the sweep
//! section: the cheap CI smoke mode.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin bench_engine
//! cargo run --release -p wormsim-experiments --bin bench_engine -- \
//!     --out BENCH_engine.json --dump-report report.json --repeats 3
//! cargo run --release -p wormsim-experiments --bin bench_engine -- \
//!     --repeats 1 --check BENCH_engine.json
//! cargo run --release -p wormsim-experiments --bin bench_engine -- \
//!     --sweep-only --repeats 1 --check BENCH_engine.json
//! ```

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wormsim_engine::{NullSink, Phase, SimConfig, Simulator};
use wormsim_experiments::fnv1a;
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingAlgorithm, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

const MESH_SIZE: u16 = 10;
const RATE: f64 = 0.01;
const SEED: u64 = 0xB41C;

/// Fraction of the baseline's cycles/sec below which `--check` fails.
const GATE_FLOOR: f64 = 0.85;

/// System allocator wrapped with an allocation counter, installed
/// process-wide so the steady-state zero-allocation invariant is
/// checked against *every* allocation, not just the simulator's own.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic increment with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct BenchRecord {
    mesh_size: u16,
    vcs: u8,
    message_length: u32,
    rate: f64,
    seed: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
    repeats: u32,
    /// Best-of-repeats wall-clock for one full run, seconds.
    elapsed_secs: f64,
    /// Simulated cycles per wall-clock second (best of repeats).
    cycles_per_sec: f64,
    /// Messages delivered in the measurement window.
    messages_delivered: u64,
    /// Delivered messages per wall-clock second (best of repeats).
    messages_delivered_per_sec: f64,
    /// Heap allocations performed inside the measurement window (must be
    /// zero: the engine's steady state is allocation-free).
    measure_allocations: u64,
    /// FNV-1a over the run's serialized `SimReport`: the simulation-result
    /// identity for this seed. Perf work must not change it.
    report_fingerprint: String,
    /// Sweep-throughput section: the fig-4-shaped batch through one
    /// reset-reused simulator.
    sweep: SweepRecord,
    /// Per-phase cycle-time breakdown of the paper-scale run through a
    /// `PROFILE = true` simulator, fingerprint-asserted against the
    /// default build. Timings are informational (no `--check` floor —
    /// phase shares vary with the machine); the fingerprint equality is
    /// the invariant.
    phases: PhasesRecord,
}

#[derive(Serialize)]
struct PhasesRecord {
    warmup_cycles: u64,
    measure_cycles: u64,
    /// FNV-1a over the profiled run's serialized report — asserted equal
    /// to the default (profiling-off) build's fingerprint before this
    /// record exists, so profiling provably does not perturb results.
    profiled_fingerprint: String,
    /// Wall-clock for the whole profiled schedule, seconds.
    elapsed_secs: f64,
    /// Cycles the accumulator saw (the full schedule).
    cycles: u64,
    /// Total profiled nanoseconds across all phases.
    total_ns: u64,
    /// Worms the movement pass walked per cycle (queued, stalled and
    /// VC-less ones are skipped and not counted).
    worms_per_cycle: f64,
    /// Held stages (VCs) those worms walked per cycle.
    stage_visits_per_cycle: f64,
    /// `move`-phase nanoseconds per stage visit.
    ns_per_stage_visit: f64,
    /// One entry per engine phase, in step order.
    breakdown: Vec<PhaseRecord>,
}

#[derive(Serialize)]
struct PhaseRecord {
    phase: &'static str,
    total_ns: u64,
    mean_ns_per_cycle: f64,
    /// This phase's fraction of the total profiled time.
    share: f64,
}

#[derive(Serialize)]
struct SweepRecord {
    /// Runs in the batch (algorithms × fault cases).
    runs: u32,
    warmup_cycles: u64,
    measure_cycles: u64,
    repeats: u32,
    /// Best-of-repeats wall-clock for the reused-simulator batch, seconds.
    best_secs: f64,
    /// Runs per wall-clock second (best of repeats).
    runs_per_sec: f64,
    /// Heap allocations inside the timed passes, resets included (must
    /// be zero).
    reset_allocations: u64,
    /// FNV-1a over the batch's concatenated serialized reports.
    sweep_fingerprint: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_engine [--out PATH] [--dump-report PATH] [--repeats N] [--check BASELINE] \
         [--sweep-only] [--phases]"
    );
    std::process::exit(2);
}

/// The fig-4-shaped batch: every roster algorithm × three fault cases
/// (0 %, 5 %, 10 % faulty nodes) at 100 % load, one shared pattern per
/// case, fixed derived seeds.
fn sweep_specs() -> Vec<(AlgorithmKind, Arc<FaultPattern>, u64)> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mesh = Mesh::square(MESH_SIZE);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut patterns = vec![Arc::new(FaultPattern::fault_free(&mesh))];
    for faults in [5usize, 10] {
        patterns.push(Arc::new(
            wormsim_fault::random_pattern(&mesh, faults, &mut rng).expect("sweep fault pattern"),
        ));
    }
    let mut specs = Vec::new();
    for (pi, pattern) in patterns.iter().enumerate() {
        for (ki, &kind) in AlgorithmKind::ALL.iter().enumerate() {
            let seed = SEED ^ ((pi as u64) << 32) ^ (ki as u64).wrapping_mul(0x9E37_79B9);
            specs.push((kind, pattern.clone(), seed));
        }
    }
    specs
}

/// One pass over the batch: context and algorithm built per run, one
/// simulator rewound per run. Returns wall-clock seconds, heap
/// allocations bracketing reset + stepping (context, algorithm and
/// report building are excluded — they allocate by design), and, when
/// requested, the batch fingerprint.
fn sweep_pass_reused(
    specs: &[(AlgorithmKind, Arc<FaultPattern>, u64)],
    sim: &mut Option<Simulator>,
    fingerprint: bool,
) -> (f64, u64, Option<String>) {
    let wl = Workload::paper_uniform(RATE);
    let mut hash_input = String::new();
    let mut allocs = 0u64;
    let start = Instant::now();
    for &(kind, ref pattern, seed) in specs {
        let ctx = Arc::new(RoutingContext::new(
            Mesh::square(MESH_SIZE),
            (**pattern).clone(),
        ));
        let algo: Arc<dyn RoutingAlgorithm> =
            build_algorithm(kind, ctx.clone(), VcConfig::paper()).into();
        let cfg = SimConfig::quick().with_seed(seed);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        match sim.as_mut() {
            Some(s) => s.reset(algo, ctx, wl.clone(), cfg),
            None => *sim = Some(Simulator::new(algo, ctx, wl.clone(), cfg)),
        }
        let s = sim.as_mut().expect("sweep simulator");
        for _ in 0..cfg.total_cycles() {
            s.step();
        }
        allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        let report = std::hint::black_box(s.report());
        if fingerprint {
            hash_input.push_str(&serde_json::to_string(&report).expect("report serializes"));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let fp = fingerprint.then(|| format!("{:016x}", fnv1a(hash_input.as_bytes())));
    (secs, allocs, fp)
}

/// Run the sweep-throughput benchmark: warm + fingerprint pass, then
/// best-of-`repeats` timed passes. Asserts the timed passes allocate
/// nothing across reset and stepping.
fn sweep_throughput(repeats: u32) -> SweepRecord {
    let specs = sweep_specs();
    let quick = SimConfig::quick();
    let mut sim: Option<Simulator> = None;

    // Warm pass: builds the simulator, grows every buffer to its
    // batch-wide high-water mark, and fingerprints the batch (already
    // through the reset path for all runs but the first).
    let (_, _, fp) = sweep_pass_reused(&specs, &mut sim, true);
    let sweep_fingerprint = fp.expect("fingerprint pass");

    let mut best_secs = f64::INFINITY;
    let mut reset_allocations = 0u64;
    for i in 0..repeats {
        let (secs, allocs, _) = sweep_pass_reused(&specs, &mut sim, false);
        eprintln!(
            "sweep {}/{repeats}: {:.3}s ({:.1} runs/sec, {allocs} allocations across resets)",
            i + 1,
            secs,
            specs.len() as f64 / secs
        );
        assert_eq!(
            allocs, 0,
            "sweep steady state regressed: {allocs} heap allocations across reset-reused runs"
        );
        best_secs = best_secs.min(secs);
        reset_allocations = reset_allocations.max(allocs);
    }

    let runs = specs.len() as u32;
    SweepRecord {
        runs,
        warmup_cycles: quick.warmup_cycles,
        measure_cycles: quick.measure_cycles,
        repeats,
        best_secs,
        runs_per_sec: runs as f64 / best_secs,
        reset_allocations,
        sweep_fingerprint,
    }
}

/// One full paper-scale run, stepped in two phases so the allocation
/// counter can bracket the measurement window. Returns the report, the
/// wall-clock seconds for the whole schedule (warm-up included, matching
/// the historical `cycles_per_sec` definition), and the number of heap
/// allocations observed inside the measurement window.
fn run_once() -> (SimReport, f64, u64) {
    let mesh = Mesh::square(MESH_SIZE);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig::paper().with_seed(SEED);
    let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(RATE), cfg);
    // Pre-size for the whole schedule's message population (the paper
    // config oversubscribes the network, so source queues grow for the
    // entire run): expected creations plus generous Bernoulli slack.
    // Path capacity is derived from the mesh inside `prewarm`. After
    // this, the measurement window must not allocate at all.
    let expected =
        (cfg.total_cycles() as f64 * f64::from(MESH_SIZE) * f64::from(MESH_SIZE) * RATE) as usize;
    sim.prewarm(expected + expected / 4 + 1024);
    let start = Instant::now();
    for _ in 0..cfg.warmup_cycles {
        sim.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..cfg.measure_cycles {
        sim.step();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let elapsed = start.elapsed().as_secs_f64();
    (sim.report(), elapsed, allocs)
}

/// The phase-profiling section: the paper-scale run through a
/// `PROFILE = true` simulator (same spec, prewarm, and schedule as
/// [`run_once`]), asserting the profiled report's fingerprint equals the
/// default build's before any record exists. `expected_fp` is the
/// default build's fingerprint when the caller already ran it; `None`
/// (the `--phases` smoke mode) runs the default build here.
fn phase_bench(expected_fp: Option<&str>) -> PhasesRecord {
    let expected = match expected_fp {
        Some(fp) => fp.to_string(),
        None => {
            let (report, _, _) = run_once();
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            format!("{:016x}", fnv1a(json.as_bytes()))
        }
    };
    let mesh = Mesh::square(MESH_SIZE);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig::paper().with_seed(SEED);
    let mut sim = Simulator::<NullSink, true>::try_build(
        algo,
        ctx,
        Workload::paper_uniform(RATE),
        cfg,
        NullSink,
    )
    .expect("paper config is valid");
    let expected_msgs =
        (cfg.total_cycles() as f64 * f64::from(MESH_SIZE) * f64::from(MESH_SIZE) * RATE) as usize;
    sim.prewarm(expected_msgs + expected_msgs / 4 + 1024);
    let start = Instant::now();
    for _ in 0..cfg.total_cycles() {
        sim.step();
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    let json = serde_json::to_string_pretty(&sim.report()).expect("report serializes");
    let profiled_fingerprint = format!("{:016x}", fnv1a(json.as_bytes()));
    assert_eq!(
        profiled_fingerprint, expected,
        "phase-profiled run diverged from the default build — profiling must observe, \
         never perturb"
    );
    let t = *sim.phase_times();
    let breakdown: Vec<PhaseRecord> = Phase::ALL
        .iter()
        .map(|&p| PhaseRecord {
            phase: p.name(),
            total_ns: t.nanos(p),
            mean_ns_per_cycle: t.mean_ns_per_cycle(p),
            share: t.share(p),
        })
        .collect();
    for r in &breakdown {
        eprintln!(
            "phase {:<8} {:>12} ns total  {:>8.1} ns/cycle  {:>5.1}%",
            r.phase,
            r.total_ns,
            r.mean_ns_per_cycle,
            r.share * 100.0
        );
    }
    let cycles = t.cycles().max(1) as f64;
    let worms_per_cycle = t.worms() as f64 / cycles;
    let stage_visits_per_cycle = t.stage_visits() as f64 / cycles;
    eprintln!(
        "move walked {worms_per_cycle:.1} worms and {stage_visits_per_cycle:.1} stages per cycle, \
         {:.2} ns per stage visit",
        t.ns_per_stage_visit()
    );
    PhasesRecord {
        warmup_cycles: cfg.warmup_cycles,
        measure_cycles: cfg.measure_cycles,
        profiled_fingerprint,
        elapsed_secs,
        cycles: t.cycles(),
        total_ns: t.total_nanos(),
        worms_per_cycle,
        stage_visits_per_cycle,
        ns_per_stage_visit: t.ns_per_stage_visit(),
        breakdown,
    }
}

fn load_baseline(path: &str) -> serde_json::Value {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("--check: {path} is not JSON: {e}"))
}

/// Gate the sweep section against the baseline's: exact fingerprint
/// match, runs/sec at [`GATE_FLOOR`] of the baseline unless
/// `WORMSIM_SKIP_PERF_GATE` is set. A baseline predating the sweep
/// section is a hard failure — it used to pass with a notice, which
/// silently disarmed every sweep check until someone noticed.
fn check_sweep_against_baseline(sweep: &SweepRecord, base: &serde_json::Value) {
    let Some(base_sweep) = base.get("sweep") else {
        eprintln!(
            "PERF GATE FAILED: baseline has no sweep section, so the sweep gate cannot run — \
             regenerate the baseline (cargo run --release -p wormsim-experiments --bin \
             bench_engine) and commit the new BENCH_engine.json"
        );
        std::process::exit(1);
    };
    let base_fp = base_sweep
        .get("sweep_fingerprint")
        .and_then(|v| v.as_str())
        .expect("baseline sweep has sweep_fingerprint");
    let base_rps = base_sweep
        .get("runs_per_sec")
        .and_then(|v| v.as_f64())
        .expect("baseline sweep has runs_per_sec");
    if sweep.sweep_fingerprint != base_fp {
        eprintln!(
            "PERF GATE FAILED: sweep fingerprint {} != baseline {base_fp} — \
             the change altered sweep results, not just speed",
            sweep.sweep_fingerprint
        );
        std::process::exit(1);
    }
    let floor = base_rps * GATE_FLOOR;
    if std::env::var_os("WORMSIM_SKIP_PERF_GATE").is_some() {
        eprintln!(
            "perf gate: sweep fingerprint OK; throughput check skipped \
             (WORMSIM_SKIP_PERF_GATE): {:.1} runs/sec vs baseline {base_rps:.1}",
            sweep.runs_per_sec
        );
        return;
    }
    if sweep.runs_per_sec < floor {
        eprintln!(
            "PERF GATE FAILED: sweep {:.1} runs/sec < {floor:.1} \
             ({:.0}% of baseline {base_rps:.1})",
            sweep.runs_per_sec,
            GATE_FLOOR * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf gate: sweep OK — {:.1} runs/sec vs baseline {base_rps:.1} (floor {floor:.1}), \
         fingerprint {}",
        sweep.runs_per_sec, sweep.sweep_fingerprint
    );
}

/// Gate the fresh record against a committed baseline. The fingerprint
/// must match exactly; cycles/sec must reach [`GATE_FLOOR`] of the
/// baseline unless `WORMSIM_SKIP_PERF_GATE` is set.
fn check_against_baseline(record: &BenchRecord, path: &str) {
    let base = load_baseline(path);
    let base_fp = base
        .get("report_fingerprint")
        .and_then(|v| v.as_str())
        .expect("baseline has report_fingerprint");
    let base_cps = base
        .get("cycles_per_sec")
        .and_then(|v| v.as_f64())
        .expect("baseline has cycles_per_sec");

    if record.report_fingerprint != base_fp {
        eprintln!(
            "PERF GATE FAILED: report fingerprint {} != baseline {base_fp} — \
             the change altered simulation results, not just speed",
            record.report_fingerprint
        );
        std::process::exit(1);
    }
    let floor = base_cps * GATE_FLOOR;
    if std::env::var_os("WORMSIM_SKIP_PERF_GATE").is_some() {
        eprintln!(
            "perf gate: fingerprint OK; throughput check skipped (WORMSIM_SKIP_PERF_GATE): \
             {:.0} cycles/sec vs baseline {base_cps:.0}",
            record.cycles_per_sec
        );
        check_sweep_against_baseline(&record.sweep, &base);
        return;
    }
    if record.cycles_per_sec < floor {
        eprintln!(
            "PERF GATE FAILED: {:.0} cycles/sec < {floor:.0} \
             ({:.0}% of baseline {base_cps:.0})",
            record.cycles_per_sec,
            GATE_FLOOR * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf gate: OK — {:.0} cycles/sec vs baseline {base_cps:.0} (floor {floor:.0}), \
         fingerprint {}",
        record.cycles_per_sec, record.report_fingerprint
    );
    check_sweep_against_baseline(&record.sweep, &base);
}

fn main() {
    let mut out = "BENCH_engine.json".to_string();
    let mut dump_report = None;
    let mut check = None;
    let mut repeats = 3u32;
    let mut sweep_only = false;
    let mut phases_only = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().unwrap_or_else(|| usage()).clone(),
            "--dump-report" => dump_report = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--check" => check = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--sweep-only" => sweep_only = true,
            "--phases" => phases_only = true,
            "--repeats" => {
                repeats = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("repeats")
            }
            _ => usage(),
        }
    }
    let repeats = repeats.max(1);

    if phases_only {
        // Phase-profiling smoke mode: one default-build run for the
        // oracle fingerprint, one profiled run asserted byte-identical,
        // per-phase breakdown printed and emitted as JSON. There is no
        // timing floor — the fingerprint equality is the gate.
        let phases = phase_bench(None);
        println!(
            "{}",
            serde_json::to_string_pretty(&phases).expect("phases serialize")
        );
        return;
    }

    let sweep = sweep_throughput(repeats);
    if sweep_only {
        if let Some(path) = &check {
            check_sweep_against_baseline(&sweep, &load_baseline(path));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&sweep).expect("sweep serializes")
        );
        return;
    }

    let cfg = SimConfig::paper();
    let mut best_secs = f64::INFINITY;
    let mut measure_allocations = 0u64;
    let mut report = None;
    for i in 0..repeats {
        let (r, secs, allocs) = run_once();
        eprintln!(
            "run {}/{repeats}: {:.3}s ({:.0} cycles/sec, {allocs} measure-window allocations)",
            i + 1,
            secs,
            cfg.total_cycles() as f64 / secs
        );
        assert_eq!(
            allocs, 0,
            "steady state regressed: {allocs} heap allocations inside the measurement window"
        );
        best_secs = best_secs.min(secs);
        measure_allocations = measure_allocations.max(allocs);
        let json = serde_json::to_string_pretty(&r).expect("report serializes");
        if let Some(prev) = &report {
            let (prev_json, _): &(String, SimReport) = prev;
            assert_eq!(
                prev_json, &json,
                "fixed-seed runs must produce identical reports"
            );
        } else {
            report = Some((json, r));
        }
    }
    let (report_json, report) = report.expect("at least one run");
    let report_fingerprint = format!("{:016x}", fnv1a(report_json.as_bytes()));
    // Profiled pass after the timed runs: asserts the profiled build
    // reproduces the exact report the default build just produced.
    let phases = phase_bench(Some(&report_fingerprint));

    let record = BenchRecord {
        mesh_size: MESH_SIZE,
        vcs: VcConfig::paper().total,
        message_length: 100,
        rate: RATE,
        seed: SEED,
        warmup_cycles: cfg.warmup_cycles,
        measure_cycles: cfg.measure_cycles,
        repeats,
        elapsed_secs: best_secs,
        cycles_per_sec: cfg.total_cycles() as f64 / best_secs,
        messages_delivered: report.throughput.messages_delivered(),
        messages_delivered_per_sec: report.throughput.messages_delivered() as f64 / best_secs,
        measure_allocations,
        report_fingerprint,
        sweep,
        phases,
    };
    if let Some(path) = &check {
        check_against_baseline(&record, path);
    }
    let record_json = serde_json::to_string_pretty(&record).expect("record serializes");
    std::fs::write(&out, &record_json).expect("write bench record");
    println!("{record_json}");
    if let Some(path) = dump_report {
        std::fs::write(&path, &report_json).expect("write report dump");
        eprintln!("report dumped to {path}");
    }
}
