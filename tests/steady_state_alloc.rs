//! The engine's steady state allocates nothing, and a run's own set-up
//! allocates a bounded amount: tier-1's pin on both, and on the two
//! fingerprints they ride on.
//!
//! 1. The paper run at seed `0xB41C`, prewarmed for its schedule: no heap
//!    allocation inside the 20 k-cycle measurement window.
//! 2. A fig-4-shaped batch (every roster algorithm × 0 / 5 / 10 faults at
//!    full load, quick scale), each run on a fresh simulator as
//!    `run_single` runs it: no run allocates more than
//!    [`RUN_ALLOC_CEILING`] times across build and stepping. Set-up and
//!    buffer growth take 504–555; one allocation per cycle adds 4 000.
//!
//! A changed fingerprint means simulation semantics, the RNG call
//! sequence or the report schema moved: decide which before re-recording.
//!
//! The allocator counts process-wide, so this binary holds exactly one
//! `#[test]`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_experiments::report_json_fingerprint;
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingAlgorithm, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

const MESH_SIZE: u16 = 10;
const RATE: f64 = 0.01;
const SEED: u64 = 0xB41C;
/// Most allocations one batch run may make across build and stepping.
const RUN_ALLOC_CEILING: u64 = 1_000;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

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

/// The paper run, stepped in two parts so the counter brackets the
/// measurement window. Returns the allocations inside it and the report's
/// pretty-form fingerprint.
fn paper_run() -> (u64, String) {
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
    // Path windows are derived from the mesh when the simulator is built.
    let expected =
        (cfg.total_cycles() as f64 * f64::from(MESH_SIZE) * f64::from(MESH_SIZE) * RATE) as usize;
    sim.prewarm(expected + expected / 4 + 1024);
    for _ in 0..cfg.warmup_cycles {
        sim.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..cfg.measure_cycles {
        sim.step();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let json = serde_json::to_string_pretty(&sim.report()).expect("report serializes");
    (allocs, report_json_fingerprint(&json))
}

/// Every roster algorithm × three fault cases (0, 5, 10 faulty nodes), one
/// shared pattern per case, fixed derived seeds.
fn sweep_specs() -> Vec<(AlgorithmKind, Arc<FaultPattern>, u64)> {
    let mesh = Mesh::square(MESH_SIZE);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut patterns = vec![Arc::new(FaultPattern::fault_free(&mesh))];
    for faults in [5usize, 10] {
        patterns.push(Arc::new(
            random_pattern(&mesh, faults, &mut rng).expect("sweep fault pattern"),
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

/// The batch, each spec on a fresh simulator. Returns the most
/// allocations one run made across build and stepping, with its
/// algorithm (context, algorithm and report building sit outside the
/// bracket), and the fingerprint of the batch's concatenated compact
/// reports.
fn sweep(specs: &[(AlgorithmKind, Arc<FaultPattern>, u64)]) -> ((u64, AlgorithmKind), String) {
    let wl = Workload::paper_uniform(RATE);
    let mut reports = String::new();
    let mut most = (0, AlgorithmKind::Xy);
    for &(kind, ref pattern, seed) in specs {
        let ctx = Arc::new(RoutingContext::new(
            Mesh::square(MESH_SIZE),
            (**pattern).clone(),
        ));
        let algo: Arc<dyn RoutingAlgorithm> =
            build_algorithm(kind, ctx.clone(), VcConfig::paper()).into();
        let cfg = SimConfig::quick().with_seed(seed);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut sim = Simulator::new(algo, ctx, wl.clone(), cfg);
        for _ in 0..cfg.total_cycles() {
            sim.step();
        }
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if allocs >= most.0 {
            most = (allocs, kind);
        }
        reports.push_str(&serde_json::to_string(&sim.report()).expect("report serializes"));
    }
    (most, report_json_fingerprint(&reports))
}

#[test]
fn steady_state_allocates_nothing_and_results_hold() {
    let (allocs, fingerprint) = paper_run();
    assert_eq!(fingerprint, "6fea1f0c9bd99fc2");
    assert_eq!(
        allocs, 0,
        "paper run allocated {allocs} times inside the measurement window"
    );

    let specs = sweep_specs();
    assert_eq!(specs.len(), 33);
    let ((allocs, kind), fingerprint) = sweep(&specs);
    assert_eq!(fingerprint, "88e7e2f9a751714f");
    assert!(
        allocs <= RUN_ALLOC_CEILING,
        "a {kind:?} batch run allocated {allocs} times across build and stepping, \
         over the ceiling of {RUN_ALLOC_CEILING}"
    );
}
