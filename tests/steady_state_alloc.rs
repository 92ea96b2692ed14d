//! The engine's steady state allocates nothing: tier-1's pin on the two
//! zero-allocation windows, and on the two fingerprints they ride on.
//!
//! 1. The paper run at seed `0xB41C`, prewarmed for its schedule: no heap
//!    allocation inside the 20 k-cycle measurement window.
//! 2. A fig-4-shaped batch (every roster algorithm × 0 / 5 / 10 faults at
//!    full load, quick scale) through one simulator rewound with
//!    `Simulator::reset`: once a first pass has grown every buffer to the
//!    batch's high-water mark, a second pass allocates nothing across
//!    reset and stepping, and reproduces the first pass's reports.
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

/// One pass over the batch through `sim`: context and algorithm built per
/// run, the simulator rewound per run. Returns the allocations bracketing
/// reset + stepping (context, algorithm and report building allocate by
/// design and sit outside the bracket) and the fingerprint of the batch's
/// concatenated compact reports.
fn sweep_pass(
    specs: &[(AlgorithmKind, Arc<FaultPattern>, u64)],
    sim: &mut Option<Simulator>,
) -> (u64, String) {
    let wl = Workload::paper_uniform(RATE);
    let mut reports = String::new();
    let mut allocs = 0u64;
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
        reports.push_str(&serde_json::to_string(&s.report()).expect("report serializes"));
    }
    (allocs, report_json_fingerprint(&reports))
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
    let mut sim = None;
    let (_, warm) = sweep_pass(&specs, &mut sim);
    assert_eq!(warm, "88e7e2f9a751714f");
    let (allocs, reused) = sweep_pass(&specs, &mut sim);
    assert_eq!(reused, warm, "a rewound simulator must reproduce the batch");
    assert_eq!(
        allocs, 0,
        "reset-reused batch allocated {allocs} times across reset and stepping"
    );
}
