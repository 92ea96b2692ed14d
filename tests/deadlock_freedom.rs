//! Deadlock-freedom checks: the algorithms the routing audit proves
//! deadlock-free must never trip the engine watchdog nor knot; the knot
//! the engine finds for PHop is a real deadlock on the audit's cycles;
//! the class-ladder invariants hold end-to-end.

#[path = "support/routing_audit.rs"]
mod routing_audit;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_engine::{NullSink, RingSink, SimConfig, Simulator, Sink};
use wormsim_experiments::{deadlock_census, parallel_map, ExperimentConfig, Scale};
use wormsim_fault::{random_pattern, FaultPattern};
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

/// The census's fault-free row at quick scale: no sample of any
/// algorithm the audit proves deadlock-free holds a knot. (One fault set
/// per faulty case keeps the test short; the fault-free row has one set
/// at any count.)
#[test]
fn the_census_finds_no_knot_where_the_audit_proves_freedom() {
    let mut cfg = ExperimentConfig::new(Scale::Quick).with_threads(2);
    cfg.fault_patterns = 1;
    let census = deadlock_census(&cfg);
    let table = &census.tables[0];
    for kind in deadlock_free_roster() {
        for row in ["0% knotted samples (%)", "0% knotted headers per sample"] {
            assert_eq!(
                table.get(row, kind.paper_name()),
                Some(0.0),
                "{kind:?}: {row}"
            );
        }
    }
}

/// The routing context of a `trace` run: an 8×8 mesh with `faults` seed
/// failures drawn by `random_pattern` from `seed`.
fn trace_context(faults: usize, seed: u64) -> Arc<RoutingContext> {
    let mesh = Mesh::square(8);
    let pattern = random_pattern(&mesh, faults, &mut SmallRng::seed_from_u64(seed)).unwrap();
    Arc::new(RoutingContext::new(mesh, pattern))
}

/// `trace --algo <kind> --faults <faults> --rate 0.01 --cycles 30000
/// --seed <seed>`, with the watchdog at `timeout`.
fn trace_sim<S: Sink>(
    kind: AlgorithmKind,
    ctx: &Arc<RoutingContext>,
    seed: u64,
    timeout: u64,
    sink: S,
) -> Simulator<S> {
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig {
        warmup_cycles: 10_000,
        measure_cycles: 20_000,
        deadlock_timeout: timeout,
        ..SimConfig::paper().with_seed(seed)
    };
    Simulator::with_sink(algo, ctx.clone(), Workload::paper_uniform(0.01), cfg, sink)
}

/// The PHop witness, `trace --algo PHop --faults 5 --rate 0.01 --cycles
/// 30000 --seed 0`: 35 headers are knotted by cycle 17 000. With the
/// watchdog past the run nothing breaks the knot: 1 000 cycles later the
/// detector still names every member (newly blocked headers may join),
/// and each holds the same slots with its header where it was and has
/// waited all 1 000 cycles. Every
/// slot a member waits on lies in the cyclic core of the routing audit's
/// graph for the pattern, the knot's static counterpart.
#[test]
fn the_phop_witness_knot_is_a_deadlock_on_the_audits_cycles() {
    let ctx = trace_context(5, 0);
    let mut sim = trace_sim(AlgorithmKind::PHop, &ctx, 0, u64::MAX, NullSink);
    for _ in 0..17_000 {
        sim.step();
    }
    let knot = sim.knot();
    assert_eq!(knot.len(), 35, "{knot:?}");
    let before = sim.diagnose_stall(None);
    for _ in 0..1_000 {
        sim.step();
    }
    let after = sim.diagnose_stall(None);
    for a in &before.knot {
        let b = after.knot.iter().find(|b| b.id == a.id);
        let b = b.unwrap_or_else(|| panic!("m{} left the knot", a.id));
        assert_eq!((a.head, &a.holds), (b.head, &b.holds), "m{} moved", a.id);
        assert_eq!(
            b.wait_cycles,
            a.wait_cycles + 1_000,
            "m{} stopped waiting",
            a.id
        );
    }

    // The knot's own cyclic core: members on a cycle of its wait-for
    // graph, or between two. Each waits on a slot that a walk of the
    // channel-dependency graph both reaches from a cycle (through the
    // path of the member it came from) and leaves for one (through the
    // holder's path), so the slot is in the audit graph's core too.
    // Members hanging off the core, such as a header at its source
    // waiting on a knot worm's first slot, need not be.
    let knot = sim.knot();
    let member = |id: u32| knot.iter().position(|&m| m == id);
    let wait_for = routing_audit::Digraph::new(knot.len(), |a, out| {
        let waits = after.edges.iter().filter(|e| e.waiter == knot[a]);
        out.extend(waits.filter_map(|e| member(e.holder)));
    });
    let knot_core = wait_for.cyclic_core();
    let audit = routing_audit::graph_audit(AlgorithmKind::PHop, &ctx, VcConfig::paper());
    let core = audit.digraph().cyclic_core();
    let vcs = u32::from(VcConfig::paper().total);
    let waits: Vec<_> = (after.edges.iter())
        .filter(|e| member(e.waiter).is_some_and(|a| knot_core[a]))
        .collect();
    assert!(waits.len() >= 3, "the knot has a cyclic core: {waits:?}");
    for e in waits {
        let node = (e.channel * vcs + u32::from(e.vc)) as usize;
        assert!(
            core[node],
            "m{} waits on ch{}/vc{}, off every audit cycle",
            e.waiter, e.channel, e.vc
        );
    }
}

/// `trace --algo NHop --faults 10 --rate 0.01 --cycles 30000 --seed 2`
/// trips the watchdog 7 times, on congestion: the wait-for graph has
/// cycles, but no diagnosis taken at a recovery holds a knot.
#[test]
fn the_nhop_seed_2_recoveries_hold_no_knot() {
    let ctx = trace_context(10, 2);
    let timeout = SimConfig::paper().deadlock_timeout;
    let mut sim = trace_sim(AlgorithmKind::NHop, &ctx, 2, timeout, RingSink::new(1));
    for _ in 0..30_000 {
        let before = sim.recoveries();
        sim.step();
        if sim.recoveries() > before {
            assert_eq!(sim.recoveries(), before + 1, "one diagnosis per recovery");
            let diag = sim.last_stall().expect("a traced recovery is diagnosed");
            assert!(diag.knot.is_empty(), "{diag}");
        }
    }
    assert_eq!(sim.recoveries(), 7);
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
