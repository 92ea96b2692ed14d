//! Phase profiling equivalence: a `PROFILE = true` simulator produces a
//! byte-identical report to the default instantiation (timing observes,
//! it never perturbs), accumulates time in every expected phase, and the
//! default build accumulates nothing.

use std::sync::Arc;
use wormsim_engine::{NullSink, Phase, SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

fn scenario() -> (Arc<RoutingContext>, SimConfig) {
    let mesh = Mesh::square(8);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        ..SimConfig::paper()
    };
    (ctx, cfg)
}

fn report_json(ctx: &Arc<RoutingContext>, cfg: SimConfig, profile: bool) -> String {
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let wl = Workload::paper_uniform(0.01);
    let report = if profile {
        let mut sim = Simulator::<NullSink, true>::try_build(algo, ctx.clone(), wl, cfg, NullSink)
            .expect("valid config");
        sim.run()
    } else {
        let mut sim = Simulator::new(algo, ctx.clone(), wl, cfg);
        sim.run()
    };
    serde_json::to_string(&report).unwrap()
}

#[test]
fn profiled_report_is_byte_identical() {
    let (ctx, cfg) = scenario();
    assert_eq!(
        report_json(&ctx, cfg, false),
        report_json(&ctx, cfg, true),
        "phase profiling changed simulation results"
    );
}

#[test]
fn profiled_run_accumulates_phase_times() {
    let (ctx, cfg) = scenario();
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let mut sim = Simulator::<NullSink, true>::try_build(
        algo,
        ctx,
        Workload::paper_uniform(0.01),
        cfg,
        NullSink,
    )
    .expect("valid config");
    let steps = 300u64;
    for _ in 0..steps {
        sim.step();
    }
    let t = sim.phase_times();
    assert_eq!(t.cycles(), steps);
    assert!(t.total_nanos() > 0, "no time accumulated");
    for phase in Phase::ALL {
        assert!(
            t.nanos(phase) > 0,
            "phase {:?} accumulated nothing over {} cycles",
            phase,
            steps
        );
    }
    let share_sum: f64 = Phase::ALL.iter().map(|&p| t.share(p)).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
    // The movement pass counts what it walks: every walked worm holds at
    // least one stage, and at this load some worm moves most cycles.
    assert!(t.worms() > steps / 2, "only {} worms walked", t.worms());
    assert!(t.stage_visits() >= t.worms());
    assert!(t.ns_per_stage_visit() > 0.0);
    // The allocation pass counts its visits: each one routes, ticks a
    // blocked header, or skips, never two of those.
    assert!(t.route_calls() > 0, "no route() call counted");
    assert!(t.alloc_visits() >= t.route_calls() + t.blocked_ticks());
}

#[test]
fn default_build_accumulates_nothing() {
    let (ctx, cfg) = scenario();
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(0.01), cfg);
    for _ in 0..100 {
        sim.step();
    }
    assert_eq!(sim.phase_times().cycles(), 0);
    assert_eq!(sim.phase_times().total_nanos(), 0);
    assert_eq!(sim.phase_times().worms(), 0);
    assert_eq!(sim.phase_times().route_calls(), 0);
    assert_eq!(sim.phase_times().blocked_ticks(), 0);
    assert_eq!(sim.phase_times().stage_visits(), 0);
    assert_eq!(sim.phase_times().alloc_visits(), 0);
}
