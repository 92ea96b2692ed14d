//! Deadlock-freedom checks: the algorithms the routing audit proves
//! deadlock-free must never trip the engine watchdog; the class-ladder
//! invariants hold end-to-end.

#[path = "support/routing_audit.rs"]
mod routing_audit;

use std::sync::Arc;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_experiments::parallel_map;
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Coord, Mesh, Rect};
use wormsim_traffic::Workload;

fn run(kind: AlgorithmKind, pattern: FaultPattern, rate: f64, seed: u64) -> u64 {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh, pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 9_000,
        // A tight watchdog: genuine deadlock-free behavior should survive it
        // at these (sub-saturation) loads.
        deadlock_timeout: 8_000,
        seed,
        ..SimConfig::paper()
    };
    let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(rate), cfg);
    sim.run().recoveries
}

/// Roster entries the routing audit proves deadlock-free on the
/// fault-free mesh (`results/routing_audit.md`), computed once for every
/// test here.
fn deadlock_free_roster() -> Vec<AlgorithmKind> {
    static ROSTER: std::sync::OnceLock<Vec<AlgorithmKind>> = std::sync::OnceLock::new();
    ROSTER.get_or_init(audited_roster).clone()
}

fn audited_roster() -> Vec<AlgorithmKind> {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let proved = parallel_map(&AlgorithmKind::ALL, threads, |&k| {
        routing_audit::audit(k, &ctx, VcConfig::paper())
            .verdict()
            .proved()
    });
    AlgorithmKind::ALL
        .into_iter()
        .zip(proved)
        .filter_map(|(k, p)| p.then_some(k))
        .collect()
}

#[test]
fn roster_classification_matches_theory() {
    let df = deadlock_free_roster();
    // The paper calls the hop-based, bonus-card, Duato-based and Boura
    // algorithms deadlock-free, and the free-choice adaptives not. The
    // audit agrees except for Nbc and Duato-Nbc (whose escape is Nbc): an
    // Nbc hop may stay in its class after a negative hop, so four
    // class-1 hops round one mesh square close a cycle,
    // (0,0)E#2 (1,0)N#2 (1,1)W#2 (0,1)S#2.
    assert_eq!(
        df,
        [
            AlgorithmKind::BouraAdaptive,
            AlgorithmKind::NHop,
            AlgorithmKind::PHop,
            AlgorithmKind::Pbc,
            AlgorithmKind::Duato,
            AlgorithmKind::DuatoPbc,
            AlgorithmKind::BouraFaultTolerant,
        ]
    );
}

#[test]
fn no_recoveries_fault_free_moderate_load() {
    let mesh = Mesh::square(10);
    for kind in deadlock_free_roster() {
        let rec = run(kind, FaultPattern::fault_free(&mesh), 0.002, 11);
        assert_eq!(rec, 0, "{kind:?} recovered on a fault-free mesh");
    }
}

#[test]
fn no_recoveries_single_block_light_load() {
    // Light load: the f-ring detour channels (one shared VC per message
    // type) are a real bottleneck, so at higher loads waiters can starve
    // past any watchdog threshold without an actual deadlock — exactly the
    // f-ring hotspot effect the paper's §5.2 studies. Below that regime,
    // provably deadlock-free algorithms must never trip the watchdog.
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    for kind in deadlock_free_roster() {
        let rec = run(kind, pattern.clone(), 0.0008, 13);
        assert_eq!(rec, 0, "{kind:?} recovered around a single block");
    }
}

#[test]
fn free_choice_algorithms_survive_with_watchdog() {
    // Minimal-/Fully-Adaptive are not provably deadlock-free; the run must
    // still complete and deliver (the watchdog is the safety net).
    let mesh = Mesh::square(10);
    for kind in [AlgorithmKind::MinimalAdaptive, AlgorithmKind::FullyAdaptive] {
        let ctx = Arc::new(RoutingContext::new(
            mesh.clone(),
            FaultPattern::fault_free(&mesh),
        ));
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 4_500,
            ..SimConfig::paper()
        };
        let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(0.004), cfg);
        let r = sim.run();
        assert!(r.throughput.messages_delivered() > 500, "{kind:?}");
    }
}

#[test]
fn phop_header_classes_strictly_increase_along_paths() {
    // Walk routing decisions directly: on a minimal path the PHop class
    // ladder (VC index) must strictly increase hop over hop.
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let algo = build_algorithm(AlgorithmKind::PHop, ctx, VcConfig::paper());
    let (src, dest) = (mesh.node(0, 3), mesh.node(9, 8));
    let mut st = algo.init_message(src, dest);
    let mut cur = src;
    let mut last_vc: Option<u8> = None;
    while cur != dest {
        let cands = algo.route(cur, &mut st);
        let hop = cands.iter().next().expect("minimal candidate");
        let vc = hop.preferred.iter().next().expect("one VC per class");
        if let Some(prev) = last_vc {
            assert!(vc > prev, "class ladder must strictly increase");
        }
        last_vc = Some(vc);
        let next = mesh.neighbor(cur, hop.dir).unwrap();
        algo.on_hop(cur, next, hop.dir, vc, &mut st);
        cur = next;
    }
}

#[test]
fn nhop_class_never_exceeds_bound_along_paths() {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let algo = build_algorithm(AlgorithmKind::NHop, ctx, VcConfig::paper());
    for (s, d) in [((0, 0), (9, 9)), ((9, 0), (0, 9)), ((1, 8), (8, 1))] {
        let (src, dest) = (mesh.node(s.0, s.1), mesh.node(d.0, d.1));
        let mut st = algo.init_message(src, dest);
        let mut cur = src;
        while cur != dest {
            let cands = algo.route(cur, &mut st);
            let hop = cands.iter().next().unwrap();
            let vc = hop.preferred.iter().next().unwrap();
            // NHop uses 10 classes × 2 VCs → base VCs 0..20.
            assert!(vc < 20, "vc {vc} outside NHop class space");
            let next = mesh.neighbor(cur, hop.dir).unwrap();
            algo.on_hop(cur, next, hop.dir, vc, &mut st);
            cur = next;
        }
        assert!(st.negative_hops <= 9);
    }
}
