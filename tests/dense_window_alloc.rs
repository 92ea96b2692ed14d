//! The measurement window of a run that is not prewarmed allocates little
//! even where the backlog grows without bound: a `header_dense`-shaped
//! run (Duato on the §5.2 layout, 8-flit messages at 0.05 msgs/node/cycle,
//! the paper schedule, no `prewarm`) queues about a thousand messages per
//! node by its end. The source queues draw blocks from one pool that grows
//! a chunk at a time, so the backlog's growth costs two allocations per
//! chunk (its 64 KiB of entries and its blocks' metadata), not a doubling
//! per node.
//!
//! The allocator counts process-wide, so this binary holds exactly one
//! `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_experiments::paper_52_layout;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// Most allocations the measurement window may make. The run below makes
/// 12; with 8-byte queue entries it made 13, with one growable queue per
/// node 172.
const WINDOW_ALLOC_CEILING: u64 = 32;

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

#[test]
fn header_dense_window_allocates_little() {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), paper_52_layout(&mesh)));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let workload = Workload {
        message_length: 8,
        ..Workload::paper_uniform(0.05)
    };
    let cfg = SimConfig::paper().with_seed(7);
    let mut sim = Simulator::new(algo, ctx, workload, cfg);
    for _ in 0..cfg.warmup_cycles {
        sim.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..cfg.measure_cycles {
        sim.step();
    }
    let window = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        sim.queued() > 50_000,
        "the backlog must grow for the pin to mean anything: {} queued",
        sim.queued()
    );
    assert!(
        window <= WINDOW_ALLOC_CEILING,
        "the measurement window allocated {window} times, over {WINDOW_ALLOC_CEILING}"
    );
}
