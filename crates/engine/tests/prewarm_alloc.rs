//! Prewarm sizing regression: `Simulator::prewarm` used to size the
//! per-message path buffers for the 10×10 paper shape (a hardcoded hop
//! budget), so the first cycles of a larger run reallocated mid-flight.
//! Path windows now derive from the actual mesh dimensions; this test pins
//! that with a counting global allocator on a 64×64 mesh — after
//! prewarm, a full schedule (warm-up included) performs zero heap
//! allocations. It also pins that `prewarm` only reserves: its own
//! allocations are a fixed list plus one per chunk of the source queues'
//! pool, none per slab slot or per node.
//!
//! The allocator counts process-wide, so the test binary must stay
//! single-test (integration tests run in their own process; keep this
//! file to exactly this scenario).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

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

#[test]
fn prewarmed_big_mesh_run_never_allocates() {
    const SIDE: u16 = 64;
    const RATE: f64 = 0.002;
    let mesh = Mesh::square(SIDE);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        ..SimConfig::paper()
    }
    .with_seed(0xB16_3E5);
    let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(RATE), cfg);
    // Expected creations over the whole schedule plus Bernoulli slack —
    // the sizing rule `tests/steady_state_alloc.rs` uses. A 64×64 worm
    // crosses up to ~2·(w+h) channels; prewarm must derive that from the
    // mesh (the old hardcoded 10×10 hop budget made exactly this
    // scenario reallocate path buffers mid-run).
    let expected = (cfg.total_cycles() as f64 * f64::from(SIDE) * f64::from(SIDE) * RATE) as usize;
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    sim.prewarm(expected + expected / 4 + 1024);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let in_prewarm = before - start;
    // `prewarm` reserves and builds no slab slot: one reservation per
    // fixed buffer (the slab, its path arena, its free list, the seven
    // per-message arrays, five population buffers, the wake-list arena and
    // three scratch buffers), the source pool's chunk list, and two per
    // chunk of the pool, its 64 KiB of entries and its blocks' links, ends
    // and bases (9 chunks here: 6 144 entries plus two part-filled blocks
    // per node), 38 in all. A reservation per node's queue made it 4 115;
    // building every slot up front costs one more per slot.
    let budget: u64 = 40;
    assert!(
        in_prewarm <= budget,
        "prewarm made {in_prewarm} allocations, over its budget of {budget}"
    );
    for _ in 0..cfg.total_cycles() {
        sim.step();
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let report = sim.report();
    assert!(
        report.throughput.messages_delivered() > 0,
        "scenario must actually move traffic"
    );
    assert_eq!(
        during, 0,
        "prewarmed 64x64 run allocated {during} times during the schedule"
    );
}
