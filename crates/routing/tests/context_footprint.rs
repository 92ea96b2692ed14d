//! Context size regression: a `RoutingContext` holds the mesh, the fault
//! pattern, the f-rings and the labeling — all O(nodes) — and nothing per
//! (node, dest) pair. A byte-counting global allocator pins that on the
//! largest mesh the wire protocol admits (64×64): building a context, and
//! advancing it one fault event with `with_pattern`, each request less
//! than 1 MiB from the heap. (A per-pair table of 18 B entries would be
//! ≈ 302 MB here.)
//!
//! The allocator counts process-wide, so the test binary must stay
//! single-test (integration tests run in their own process; keep this
//! file to exactly this scenario).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wormsim_fault::FaultPattern;
use wormsim_routing::RoutingContext;
use wormsim_topology::{Coord, Mesh};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// add with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: u64 = 1 << 20;

#[test]
fn contexts_are_linear_in_nodes() {
    let mesh = Mesh::square(64);
    let seeds = (0..20).map(|i| Coord::new(3 * i + 1, 61 - 3 * i));
    let pattern = FaultPattern::from_faulty_coords(&mesh, seeds).unwrap();
    assert_eq!(pattern.num_seed_faulty(), 20);
    let extended = pattern.extend(&mesh, [Coord::new(32, 5)]).unwrap();

    let before = BYTES.load(Ordering::Relaxed);
    let ctx = RoutingContext::new(mesh.clone(), pattern);
    let built = BYTES.load(Ordering::Relaxed) - before;
    assert!(built < MIB, "RoutingContext::new requested {built} bytes");

    let before = BYTES.load(Ordering::Relaxed);
    let next = ctx.with_pattern(extended);
    let stepped = BYTES.load(Ordering::Relaxed) - before;
    assert!(stepped < MIB, "with_pattern requested {stepped} bytes");

    assert_eq!(next.pattern().num_seed_faulty(), 21);
    assert_eq!(next.rings().rings().len(), next.pattern().regions().len());
}
