//! What a cached result costs: a byte-counting global allocator watches
//! an in-process `Scheduler` while it runs distinct tiny specs (4×4
//! mesh, 50 cycles) one after another and then serves them again as
//! cache hits.
//!
//! - Each cached result may hold its report once, as the escaped string
//!   literal a frame carries, beside its canonical spec key; everything
//!   else (the entry's `Arc`s, the fingerprint, its share of the cache's
//!   hash table) must fit in a small fixed slack per entry. A second
//!   copy of the report, or a key or report buffer sized by doubling,
//!   does not fit.
//! - Hits allocate nothing the scheduler keeps: after them the live
//!   bytes are what they were before.
//!
//! The allocator counts process-wide, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wormsim_experiments::CustomSpec;
use wormsim_serve::protocol::{Emit, Outgoing};
use wormsim_serve::{PatternInterner, Response, Scheduler, SchedulerConfig, WireSpec};

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// add with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes a cached entry may hold beyond its report literal and its key.
const SLACK_PER_ENTRY: i64 = 192;
/// Specs run before the first reading, so that the lane, the maps and
/// the first-use allocations of the process exist at both readings.
const WARM_UP: u64 = 4;
/// Distinct specs whose cache entries are weighed.
const ENTRIES: u64 = 32;
/// Cache hits served between the last two readings.
const HITS: u64 = 1_000;

fn tiny_spec(interner: &PatternInterner, seed: u64) -> CustomSpec {
    let mut wire = WireSpec::basic(4, "Duato", 0.02, seed);
    wire.warmup_cycles = 10;
    wire.measure_cycles = 40;
    wire.to_custom(interner).expect("a valid spec")
}

/// The live byte count once the scheduler is idle: every request state
/// has been dropped (the test's `emit` is the last handle again) and
/// the count has stopped moving.
fn idle_live_bytes(emit: &Emit) -> i64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = LIVE.load(Ordering::SeqCst);
    let mut still = 0;
    while Arc::strong_count(emit) > 1 || still < 5 {
        assert!(Instant::now() < deadline, "the scheduler never went idle");
        thread::sleep(Duration::from_millis(1));
        let now = LIVE.load(Ordering::SeqCst);
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    last
}

#[test]
fn a_cached_result_holds_its_report_once_and_hits_keep_nothing() {
    let answered = Arc::new(AtomicUsize::new(0));
    // Sum over the answered results of their report's escaped literal.
    let literal_bytes = Arc::new(AtomicUsize::new(0));
    let emit: Emit = {
        let (answered, literal_bytes) = (answered.clone(), literal_bytes.clone());
        Arc::new(move |out: Outgoing| {
            let payload = out.payload().expect("frame serializes");
            match serde_json::from_str(&payload).expect("frame parses") {
                Response::Result { report_json, .. } => {
                    let literal = serde_json::to_string(&report_json).expect("a string");
                    literal_bytes.fetch_add(literal.len(), Ordering::SeqCst);
                }
                other => panic!("expected a Result, got {other:?}"),
            }
            answered.fetch_add(1, Ordering::SeqCst);
        })
    };
    let sched = Scheduler::new(SchedulerConfig {
        threads: 1,
        ..SchedulerConfig::default()
    });
    let interner = PatternInterner::default();
    let mut id = 0u64;
    let mut ask = |seed: u64| {
        id += 1;
        sched
            .submit(1, id, vec![tiny_spec(&interner, seed)], false, emit.clone())
            .expect("admitted");
        while answered.load(Ordering::SeqCst) < id as usize {
            thread::sleep(Duration::from_micros(200));
        }
    };

    for seed in 0..WARM_UP {
        ask(seed);
    }
    let before = idle_live_bytes(&emit);
    literal_bytes.store(0, Ordering::SeqCst);
    let seeds = WARM_UP..WARM_UP + ENTRIES;
    for seed in seeds.clone() {
        ask(seed);
    }
    let cached = idle_live_bytes(&emit);
    let keys: usize = seeds
        .clone()
        .map(|seed| tiny_spec(&interner, seed).canonical().len())
        .sum();
    let literals = literal_bytes.load(Ordering::SeqCst);
    let grown = cached - before;
    let bound = (literals + keys) as i64 + ENTRIES as i64 * SLACK_PER_ENTRY;
    assert!(
        grown <= bound,
        "{ENTRIES} cached results hold {grown} bytes ({} per entry); their report literals \
         take {literals} and their keys {keys}, so the bound is {bound} ({} per entry)",
        grown / ENTRIES as i64,
        bound / ENTRIES as i64,
    );
    assert_eq!(sched.stats().cached_results, WARM_UP + ENTRIES);

    for k in 0..HITS {
        ask(seeds.start + k % ENTRIES);
    }
    let stats = sched.stats();
    assert_eq!(stats.cache_hits, HITS);
    assert_eq!(stats.jobs_run, WARM_UP + ENTRIES);
    assert_eq!(
        idle_live_bytes(&emit),
        cached,
        "{HITS} hits changed the live bytes"
    );
    sched.shutdown();
}
