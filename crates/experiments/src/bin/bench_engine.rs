//! Where a cycle of the paper-scale run goes.
//!
//! Runs the paper configuration — 10×10 mesh, 24 VCs, 100-flit messages,
//! fault-free Duato's routing at 100 % load, seed `0xB41C`, 10 k warm-up
//! plus 20 k measured cycles — through a `PROFILE = true` simulator and
//! prints nanoseconds per engine phase and what the movement pass walks:
//! worms and stage visits per cycle, and `move` nanoseconds per stage
//! visit, so a kernel change reads per unit of work and not per cycle.
//! For `allocate` it prints what that phase did per cycle: live headers
//! visited, `route()` calls, and blocked headers that only ticked.
//!
//! This is a printer, not a gate. Speed is judged with `wormbench`
//! (`benchmark/`); this run's fingerprint and its allocation-free
//! measurement window are pinned by `tests/steady_state_alloc.rs`, and
//! profiled ≡ default by `crates/engine/tests/phase_profile.rs`.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin bench_engine
//! ```

use std::sync::Arc;
use wormsim_engine::{NullSink, Phase, SimConfig, Simulator};
use wormsim_experiments::report_json_fingerprint;
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

const MESH_SIZE: u16 = 10;
const RATE: f64 = 0.01;
const SEED: u64 = 0xB41C;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_engine   (no arguments: it runs one fixed configuration)");
        std::process::exit(2);
    }
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
    // Pre-size for the whole schedule's message population (the paper
    // config oversubscribes the network, so source queues grow for the
    // entire run): expected creations plus generous Bernoulli slack, so
    // no phase's time includes a reallocation.
    let expected =
        (cfg.total_cycles() as f64 * f64::from(MESH_SIZE) * f64::from(MESH_SIZE) * RATE) as usize;
    sim.prewarm(expected + expected / 4 + 1024);
    for _ in 0..cfg.total_cycles() {
        sim.step();
    }
    let json = serde_json::to_string_pretty(&sim.report()).expect("report serializes");
    let t = sim.phase_times();
    println!(
        "paper run, seed {SEED:#x}: {} cycles, report fingerprint {}",
        t.cycles(),
        report_json_fingerprint(&json)
    );
    println!(
        "{:<10} {:>14} {:>12} {:>7}",
        "phase", "total_ns", "ns/cycle", "share"
    );
    for p in Phase::ALL {
        println!(
            "{:<10} {:>14} {:>12.1} {:>6.1}%",
            p.name(),
            t.nanos(p),
            t.mean_ns_per_cycle(p),
            t.share(p) * 100.0
        );
    }
    let cycles = t.cycles() as f64;
    println!("{:<10} {:>14}", "total", t.total_nanos());
    println!("worms_per_cycle        {:.1}", t.worms() as f64 / cycles);
    println!(
        "stage_visits_per_cycle {:.1}",
        t.stage_visits() as f64 / cycles
    );
    println!("ns_per_stage_visit     {:.2}", t.ns_per_stage_visit());
    println!(
        "alloc_visits_per_cycle {:.1}",
        t.alloc_visits() as f64 / cycles
    );
    println!(
        "route_calls_per_cycle  {:.1}",
        t.route_calls() as f64 / cycles
    );
    println!(
        "blocked_ticks_per_cycle {:.1}",
        t.blocked_ticks() as f64 / cycles
    );
}
