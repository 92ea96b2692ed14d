//! What one simulator costs to build: a byte-counting global allocator
//! sums every request `Simulator::try_new` makes for the paper
//! configuration (10×10 mesh, 24 VCs per channel, so 9 600 VC slots), for
//! every algorithm on the paper's §5.2 fault layout.
//!
//! The per-slot tables are most of it. Each slot costs one `u32` (its
//! wake list's tail) plus a bit of its channel's occupancy mask; a second
//! per-slot table of 4 or 8 bytes, such as an owner table or a head
//! index per wake list, adds 38–77 KB and fails the bound.
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
use wormsim_topology::{Coord, Mesh, Rect};
use wormsim_traffic::Workload;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct ByteCountingAlloc;

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

#[test]
fn a_paper_simulator_builds_in_under_64_kib() {
    // 38 400 B of wake-list tails; the per-channel masks and link stamps,
    // the per-node buffers, the calendar and the statistics make the rest:
    // 56 964 B for every algorithm. The owner table and the wake lists'
    // heads took it to 172 164 B.
    const BUDGET: u64 = 64 * 1024;
    let mesh = Mesh::square(10);
    let layout = FaultPattern::from_rects(
        &mesh,
        &[
            Rect::new(Coord::new(3, 3), Coord::new(4, 5)),
            Rect::point(Coord::new(7, 7)),
            Rect::point(Coord::new(7, 1)),
        ],
    )
    .expect("the §5.2 layout is valid");
    let ctx = Arc::new(RoutingContext::new(mesh, layout));
    for kind in AlgorithmKind::ALL {
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let workload = Workload::paper_uniform(0.01);
        let before = REQUESTED.load(Ordering::Relaxed);
        let sim = Simulator::try_new(algo, ctx.clone(), workload, SimConfig::paper())
            .expect("the paper configuration builds");
        let bytes = REQUESTED.load(Ordering::Relaxed) - before;
        drop(sim);
        assert!(
            bytes <= BUDGET,
            "{kind:?}: building the simulator requested {bytes} B, over its budget of {BUDGET} B"
        );
    }
}
