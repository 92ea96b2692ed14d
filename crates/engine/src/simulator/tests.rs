use super::allocate::{expand_candidates, vc_width_mask};
use super::*;
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, VcConfig};
use wormsim_topology::{Coord, Mesh, Rect};

fn make_sim(kind: AlgorithmKind, pattern: FaultPattern, rate: f64, cfg: SimConfig) -> Simulator {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh, pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let mut wl = Workload::paper_uniform(rate);
    wl.message_length = 20;
    Simulator::new(algo, ctx, wl, cfg)
}

fn fault_free() -> FaultPattern {
    FaultPattern::fault_free(&Mesh::square(10))
}

#[test]
fn single_message_delivery_and_latency() {
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let mesh = Mesh::square(10);
    let (src, dest) = (mesh.node(0, 0), mesh.node(5, 0));
    let id = sim.inject_message(src, dest);
    assert!(sim.run_until_drained(1000));
    assert!(sim.is_delivered(id));
    // Uncontended wormhole: latency ≈ distance + length.
    // (Delivery isn't recorded in latency stats during warm-up; check
    // via drain cycles instead.)
    assert!(sim.cycle() >= 5 + 20);
    assert!(sim.cycle() < 5 + 20 + 10, "took {} cycles", sim.cycle());
}

#[test]
fn every_algorithm_delivers_on_fault_free_mesh() {
    let mesh = Mesh::square(10);
    for kind in AlgorithmKind::ALL {
        let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
        let ids = vec![
            sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)),
            sim.inject_message(mesh.node(9, 0), mesh.node(0, 9)),
            sim.inject_message(mesh.node(5, 5), mesh.node(2, 7)),
        ];
        assert!(sim.run_until_drained(2_000), "{kind:?} failed to drain");
        for id in ids {
            assert!(sim.is_delivered(id), "{kind:?} lost a message");
        }
        assert_eq!(sim.recoveries(), 0, "{kind:?} tripped the watchdog");
    }
}

#[test]
fn delivery_around_fault_block() {
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    for kind in AlgorithmKind::ALL {
        let mut sim = make_sim(kind, pattern.clone(), 0.0, SimConfig::quick());
        // Straight-line route blocked by the region.
        let id = sim.inject_message(mesh.node(3, 5), mesh.node(8, 5));
        assert!(sim.run_until_drained(3_000), "{kind:?} failed to drain");
        assert!(sim.is_delivered(id), "{kind:?} lost the message");
    }
}

#[test]
fn wormhole_pipelining_rate() {
    // A lone message's tail should arrive ~1 flit/cycle after the head:
    // total ≈ dist + L, not dist × L.
    let mut sim = make_sim(AlgorithmKind::NHop, fault_free(), 0.0, SimConfig::quick());
    let mesh = Mesh::square(10);
    sim.inject_message(mesh.node(0, 0), mesh.node(9, 9));
    assert!(sim.run_until_drained(200));
    assert!(sim.cycle() < 18 + 20 + 10);
}

#[test]
fn stochastic_run_produces_stats() {
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 2_000,
        ..SimConfig::paper()
    };
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.002, cfg);
    let report = sim.run();
    assert!(report.throughput.messages_delivered() > 50);
    assert!(report.latency.count() > 0);
    assert!(report.mean_latency() >= 20.0);
    assert_eq!(report.recoveries, 0);
    // VC usage should show some busy channels.
    assert!(report.vc_usage.utilization().iter().sum::<f64>() > 0.0);
}

#[test]
fn incremental_vc_accounting_matches_path_scan() {
    // The incrementally maintained held-slot counts must equal a
    // brute-force scan over every active message's path after every
    // cycle — including cycles with tail drains, completions, and
    // watchdog recoveries (short timeout + faults force all three).
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_000,
        deadlock_timeout: 300,
        ..SimConfig::paper()
    };
    let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
    for _ in 0..1_000 {
        sim.step();
        let mut scanned = vec![0u64; sim.num_vcs as usize];
        for &id in &sim.active {
            for e in sim.path(id as usize) {
                scanned[sim.key_vc(e.key) as usize] += 1;
            }
        }
        assert_eq!(
            scanned,
            sim.vc_usage.held_counts(),
            "cycle {}: incremental held counts diverged from path scan",
            sim.cycle()
        );
    }
    assert!(sim.recoveries() > 0, "recovery release path unexercised");
}

#[test]
fn full_run_reports_are_byte_identical_for_a_seed() {
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_200,
        ..SimConfig::paper()
    };
    let run = || {
        let mut sim = make_sim(AlgorithmKind::DuatoNbc, pattern.clone(), 0.006, cfg);
        serde_json::to_string(&sim.run()).expect("report serializes")
    };
    assert_eq!(
        run(),
        run(),
        "same-seed runs must produce identical reports"
    );
}

#[test]
fn deterministic_given_seed() {
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 800,
        ..SimConfig::paper()
    };
    let run = |seed: u64| {
        let mut sim = make_sim(AlgorithmKind::Nbc, fault_free(), 0.003, cfg.with_seed(seed));
        let r = sim.run();
        (
            r.throughput.messages_delivered(),
            r.latency.count(),
            r.mean_latency(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn faulty_nodes_never_generate_or_receive() {
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 1_000,
        ..SimConfig::paper()
    };
    let mut sim = make_sim(AlgorithmKind::FullyAdaptive, pattern, 0.004, cfg);
    let report = sim.run();
    // The faulty node must see zero flit arrivals.
    assert_eq!(report.node_load.arrivals()[mesh.node(5, 5).index()], 0);
    assert!(report.throughput.messages_delivered() > 0);
}

#[test]
fn link_bandwidth_is_respected() {
    // Two messages sharing a column of links: delivered flits over N
    // cycles can't exceed N per link. Indirect check: drain time for
    // two overlapping 20-flit messages along one path ≥ 40 cycles.
    let mut sim = make_sim(
        AlgorithmKind::MinimalAdaptive,
        fault_free(),
        0.0,
        SimConfig::quick(),
    );
    let mesh = Mesh::square(10);
    sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
    sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
    assert!(sim.run_until_drained(500));
    // Single injection port: second message starts after the first's
    // tail leaves the source (~20 cycles); then pipelines behind it.
    assert!(sim.cycle() >= 2 * 20, "finished too fast: {}", sim.cycle());
}

#[test]
fn report_includes_ring_load_only_with_faults() {
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    sim.inject_message(mesh.node(0, 0), mesh.node(1, 0));
    assert!(sim.run_until_drained(100));
    assert!(sim.report().ring_load.is_none());

    let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
    let mut sim = make_sim(AlgorithmKind::Duato, pattern, 0.0, SimConfig::quick());
    sim.inject_message(mesh.node(0, 0), mesh.node(1, 0));
    assert!(sim.run_until_drained(100));
    assert!(sim.report().ring_load.is_some());
}

#[test]
fn invariants_hold_every_cycle_under_load() {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_500,
        ..SimConfig::paper()
    };
    for kind in [
        AlgorithmKind::Duato,
        AlgorithmKind::PHop,
        AlgorithmKind::FullyAdaptive,
    ] {
        let mut sim = make_sim(kind, fault_free(), 0.01, cfg);
        for _ in 0..1_500 {
            sim.step();
            sim.check_invariants();
        }
    }
}

#[test]
fn invariants_hold_with_faults_and_recovery() {
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_500,
        deadlock_timeout: 300, // force some recoveries
        ..SimConfig::paper()
    };
    let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
    for _ in 0..1_500 {
        sim.step();
        sim.check_invariants();
    }
}

#[test]
fn overlay_hops_counted_only_with_faults() {
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::NHop, fault_free(), 0.0, SimConfig::quick());
    sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
    assert!(sim.run_until_drained(500));
    assert_eq!(sim.report().ring_hops, 0);

    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    let mut sim = make_sim(AlgorithmKind::NHop, pattern, 0.0, SimConfig::quick());
    sim.inject_message(mesh.node(3, 5), mesh.node(8, 5));
    assert!(sim.run_until_drained(1_000));
    assert!(sim.report().ring_hops > 0, "detour must use overlay VCs");
}

#[test]
fn misroutes_reported_for_fully_adaptive() {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 4_000,
        ..SimConfig::paper()
    };
    let mut sim = make_sim(AlgorithmKind::FullyAdaptive, fault_free(), 0.01, cfg);
    let r = sim.run();
    // At saturation some messages misroute; the counter must move.
    // (Not asserting a magnitude — just that wiring works and minimal
    // algorithms stay at zero.)
    let _ = r.total_misroutes;
    let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, fault_free(), 0.01, cfg);
    assert_eq!(sim.run().total_misroutes, 0);
}

/// Test fault driver: hands out pre-built activations at their cycles.
struct ScriptedDriver {
    events: VecDeque<(u64, FaultActivation)>,
}

impl crate::fault_hook::FaultDriver for ScriptedDriver {
    fn poll(&mut self, cycle: u64) -> Option<FaultActivation> {
        if self.events.front().is_some_and(|(due, _)| *due <= cycle) {
            Some(self.events.pop_front().expect("front exists").1)
        } else {
            None
        }
    }
}

fn activation(
    base: &Arc<RoutingContext>,
    kind: AlgorithmKind,
    coords: &[Coord],
) -> FaultActivation {
    let pattern = base
        .pattern()
        .extend(base.mesh(), coords.iter().copied())
        .expect("extension acceptable");
    let ctx = Arc::new(base.with_pattern(pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    FaultActivation {
        ctx,
        algo: algo.into(),
    }
}

fn install_events(sim: &mut Simulator, events: Vec<(u64, FaultActivation)>) {
    sim.install_fault_driver(Box::new(ScriptedDriver {
        events: events.into(),
    }));
}

#[test]
fn chaos_abort_releases_vcs_and_redelivers() {
    let mesh = Mesh::square(10);
    let kind = AlgorithmKind::Duato;
    let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
    let base = sim.ctx.clone();
    // Kill (5,5) while the worm (0,5)→(9,5) is stretched across it.
    install_events(
        &mut sim,
        vec![(8, activation(&base, kind, &[Coord::new(5, 5)]))],
    );
    let id = sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
    for _ in 0..600 {
        sim.step();
        sim.check_invariants();
    }
    assert!(sim.is_delivered(id), "aborted message never redelivered");
    let rec = sim.recovery_stats().expect("driver installed");
    assert_eq!(rec.num_events(), 1);
    assert_eq!(rec.total_aborted(), 1);
    assert_eq!(rec.total_recovered(), 1);
    assert_eq!(rec.total_lost(), 0);
    assert_eq!(rec.events()[0].newly_faulty, 1);
    let mean = rec.mean_recovery_latency().expect("one recovery");
    // Backoff (16) + re-route around the block (≥ 9 hops + 20 flits).
    assert!(mean >= 16.0 + 29.0, "implausibly fast recovery: {mean}");
    // Every VC freed by the abort must be free or legitimately reowned.
    assert_eq!(sim.in_flight(), 0);
    assert!(sim.holders().is_empty());
    assert!(sim.occ_mask.iter().all(|&m| m == 0));
}

#[test]
fn chaos_kills_message_when_destination_dies() {
    let mesh = Mesh::square(10);
    let kind = AlgorithmKind::NHop;
    let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
    let base = sim.ctx.clone();
    install_events(
        &mut sim,
        vec![(5, activation(&base, kind, &[Coord::new(5, 5)]))],
    );
    let id = sim.inject_message(mesh.node(0, 0), mesh.node(5, 5));
    for _ in 0..200 {
        sim.step();
        sim.check_invariants();
    }
    assert!(sim.is_delivered(id), "lost message still marked alive");
    let rec = sim.recovery_stats().expect("driver installed");
    assert_eq!(rec.total_lost(), 1);
    assert_eq!(rec.total_aborted(), 0);
    assert_eq!(sim.in_flight(), 0);
    assert_eq!(sim.queued(), 0);
}

#[test]
fn chaos_invariants_settling_and_requeues_under_load() {
    let kind = AlgorithmKind::MinimalAdaptive;
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 4_000,
        ..SimConfig::paper()
    };
    let mut sim = make_sim(kind, fault_free(), 0.006, cfg);
    let base = sim.ctx.clone();
    install_events(
        &mut sim,
        vec![(
            1_000,
            activation(&base, kind, &[Coord::new(4, 4), Coord::new(5, 5)]),
        )],
    );
    for _ in 0..4_000 {
        sim.step();
        sim.check_invariants();
    }
    let rec = sim.recovery_stats().expect("driver installed");
    assert_eq!(rec.num_events(), 1);
    let e = &rec.events()[0];
    assert_eq!(e.newly_faulty, 4, "diagonal pair coalesces to 2x2");
    assert!(e.pre_fault_rate > 0.0);
    assert!(
        e.aborted + e.requeued + e.lost > 0,
        "a mid-run fault under load must disturb some traffic"
    );
    let settle = e.settle_cycles.expect("light load must re-settle");
    assert!(
        settle >= cfg.settle_window,
        "settling can only be declared once the window holds post-fault cycles only"
    );
    // Traffic kept flowing after the event.
    assert!(sim.delivered() > 0);
}

#[test]
fn chaos_runs_are_byte_identical_for_a_seed() {
    let kind = AlgorithmKind::DuatoNbc;
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_000,
        ..SimConfig::paper()
    };
    let run = || {
        let mut sim = make_sim(kind, fault_free(), 0.005, cfg);
        let base = sim.ctx.clone();
        install_events(
            &mut sim,
            vec![
                (800, activation(&base, kind, &[Coord::new(5, 5)])),
                (1_500, {
                    let p1 = base
                        .pattern()
                        .extend(base.mesh(), [Coord::new(5, 5)])
                        .expect("first event acceptable");
                    let ctx1 = Arc::new(base.with_pattern(p1));
                    activation(&ctx1, kind, &[Coord::new(2, 7)])
                }),
            ],
        );
        serde_json::to_string(&sim.run()).expect("report serializes")
    };
    let a = run();
    assert_eq!(a, run(), "same seed + schedule must be byte-identical");
    assert!(
        a.contains("\"recovery\""),
        "report must carry RecoveryStats"
    );
}

#[test]
fn injection_port_serializes_messages() {
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let mesh = Mesh::square(10);
    for _ in 0..5 {
        sim.inject_message(mesh.node(2, 2), mesh.node(7, 7));
    }
    assert!(sim.run_until_drained(2_000));
    // 5 messages × 20 flits through one injection port ≥ 100 cycles.
    assert!(sim.cycle() >= 100);
}

fn make_traced_sim(
    kind: AlgorithmKind,
    pattern: FaultPattern,
    rate: f64,
    cfg: SimConfig,
) -> Simulator<wormsim_obs::VecSink> {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh, pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let mut wl = Workload::paper_uniform(rate);
    wl.message_length = 20;
    Simulator::with_sink(algo, ctx, wl, cfg, wormsim_obs::VecSink::new())
}

#[test]
fn traced_run_report_is_byte_identical_to_untraced() {
    // The determinism contract behind zero-cost tracing: attaching a
    // sink observes the run without perturbing it. Same fixed-seed
    // faulty scenario as `full_run_reports_are_byte_identical_for_a_seed`.
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_200,
        ..SimConfig::paper()
    };
    let untraced = {
        let mut sim = make_sim(AlgorithmKind::DuatoNbc, pattern.clone(), 0.006, cfg);
        serde_json::to_string(&sim.run()).expect("report serializes")
    };
    let mut sim = make_traced_sim(AlgorithmKind::DuatoNbc, pattern, 0.006, cfg);
    let traced = serde_json::to_string(&sim.run()).expect("report serializes");
    assert_eq!(untraced, traced, "tracing perturbed the simulation");
    assert!(!sim.sink().events().is_empty(), "sink saw no events");
}

#[test]
fn trace_replays_to_the_delivered_message_set() {
    // Deterministic manual-injection run on a faulty mesh: the event
    // stream must tell the complete story — every message Injects
    // exactly once, Delivers exactly once, in that order.
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    let mut sim = make_traced_sim(AlgorithmKind::NHop, pattern, 0.0, SimConfig::quick());
    let n = 6u32;
    for i in 0..n {
        let src = mesh.node(1, (i % 3) as u16);
        let dest = mesh.node(8, 5 + (i % 4) as u16);
        sim.inject_message(src, dest);
    }
    assert!(sim.run_until_drained(5_000));
    assert_eq!(sim.recoveries(), 0, "clean replay needs no recoveries");
    let events = sim.into_sink().into_events();
    let all: std::collections::BTreeSet<u32> = (0..n).collect();
    let injected: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Inject)
        .map(|e| e.msg)
        .collect();
    let delivered: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Deliver)
        .map(|e| e.msg)
        .collect();
    assert_eq!(injected, all, "every message must trace an Inject");
    assert_eq!(delivered, all, "every message must trace a Deliver");
    for id in 0..n {
        let inj = events
            .iter()
            .find(|e| e.kind == EventKind::Inject && e.msg == id)
            .expect("inject exists");
        let del = events
            .iter()
            .find(|e| e.kind == EventKind::Deliver && e.msg == id)
            .expect("deliver exists");
        assert!(inj.cycle <= del.cycle, "m{id} delivered before injecting");
    }
    // Hops are traced too: each delivered message claimed ≥ 1 VC.
    for id in 0..n {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::VcAcquire && e.msg == id),
            "m{id} delivered without a traced VC acquisition"
        );
    }
}

#[test]
fn telemetry_time_series_covers_the_whole_run() {
    let mesh = Mesh::square(10);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_000,
        ..SimConfig::paper()
    };
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), fault_free()));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let sink = wormsim_obs::TeeSink(
        wormsim_obs::VecSink::new(),
        wormsim_obs::TelemetrySink::new(50, 0),
    );
    let mut sim = Simulator::with_sink(algo, ctx, Workload::paper_uniform(0.0), cfg, sink);
    let n = 4u64;
    for i in 0..n {
        sim.inject_message(mesh.node(0, i as u16), mesh.node(9, 9 - i as u16));
    }
    assert!(sim.run_until_drained(2_000));
    let cycles = sim.cycle();
    let wormsim_obs::TeeSink(events, telemetry) = sim.into_sink();
    let count = |k| events.events().iter().filter(|e| e.kind == k).count();
    assert_eq!(
        count(EventKind::VcRelease),
        count(EventKind::VcAcquire),
        "a drained network has given back every VC it acquired"
    );
    let t = telemetry.finish(cycles);
    assert_eq!(t.window, 50);
    assert_eq!(
        t.windows.iter().map(|w| w.cycles).sum::<u64>(),
        cycles,
        "windows must tile the simulated cycles exactly"
    );
    assert_eq!(t.total_injected(), n);
    assert_eq!(t.total_delivered(), n);
    assert!(
        t.windows.iter().any(|w| w.mean_vc_held > 0.0),
        "in-flight worms must show up as held VCs"
    );
}

/// Forge message `id` into the network: it holds VC 0 of each channel
/// along `hops` from its source, its header has entered the last one, and
/// it is active and, when it holds a VC, stalled. Returns its head node.
fn forge_worm(sim: &mut Simulator, id: u32, hops: &[Direction]) -> NodeId {
    let i = id as usize;
    let mut node = sim.msgs[i].src;
    for &dir in hops {
        let ch = sim.ctx.mesh().channel(node, dir);
        let dest = sim
            .ctx
            .mesh()
            .channel_dest(ch)
            .expect("forged hop on the mesh");
        let key = ch.0 * sim.num_vcs as u32;
        sim.occ_mask[ch.0 as usize] |= 1;
        let entry = PathEntry {
            key,
            ch: ch.0,
            vc: 0,
            dest,
            entered: 1,
        };
        sim.push_path(i, entry);
        node = dest;
    }
    sim.active.push(id);
    sim.stalled[i] = !hops.is_empty();
    node
}

/// Forge a registration: blocked header `id` sleeps on VC 0 of the
/// channel leaving its head node in direction `dir`. Only the record is
/// written (the detector reads nothing else), not the wake list.
fn forge_wait(sim: &mut Simulator, id: u32, dir: Direction) {
    let i = id as usize;
    sim.alloc[i] = AllocPhase::Blocked;
    sim.reg_node[i] = sim.head_node(i).0;
    sim.reg_bits[i] |= 1 << (dir as u32 * 32);
}

/// Three stalled worms around the square (0,0)-(1,1), each blocked on
/// the one slot the next holds: m0 holds (0,1)→(0,0) and waits on
/// (0,0)→(1,0); m1 holds that and (1,0)→(1,1) and waits on
/// (1,1)→(0,1); m2 holds that and waits on m0's slot.
fn forged_ring(sim: &mut Simulator) -> Vec<u32> {
    let mesh = Mesh::square(10);
    let far = mesh.node(9, 9);
    let ring = [
        (mesh.node(0, 1), &[Direction::South][..], Direction::East),
        (
            mesh.node(0, 0),
            &[Direction::East, Direction::North],
            Direction::West,
        ),
        (mesh.node(1, 1), &[Direction::West], Direction::South),
    ];
    let mut ids = Vec::new();
    for (src, hops, waits) in ring {
        let id = sim.inject_message(src, far).0;
        forge_worm(sim, id, hops);
        forge_wait(sim, id, waits);
        ids.push(id);
    }
    ids
}

#[test]
fn forged_wait_cycle_is_diagnosed() {
    // The forged ring's registration records are the whole wait-for
    // graph: three edges, one knot of three, named in the verdict.
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let ids = forged_ring(&mut sim);
    let diag = sim.diagnose_stall(Some(MsgId(ids[0])));
    let waits: Vec<(u32, u32)> = diag.edges.iter().map(|e| (e.waiter, e.holder)).collect();
    assert_eq!(waits.len(), 3, "{:?}", diag.edges);
    for (i, &id) in ids.iter().enumerate() {
        assert!(waits.contains(&(id, ids[(i + 1) % 3])), "{waits:?}");
    }
    let members: Vec<u32> = diag.knot.iter().map(|m| m.id).collect();
    assert_eq!(members, ids, "the knot is exactly the forged ring");
    assert_eq!(diag.knot[1].holds.len(), 2, "m1 holds two slots");
    let name = diag.names_resource().expect("resource named");
    assert!(name.starts_with("knot of 3 header(s)"), "{name}");
    let focus = diag.focus.as_ref().expect("focus snapshotted");
    assert_eq!((focus.id, focus.at_source), (ids[0], false));
}

#[test]
fn a_ring_of_three_candidates_is_a_knot_of_three() {
    // A blocked header registered nowhere (no candidate at all) waits on
    // nothing in the graph, so it is no member.
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let ids = forged_ring(&mut sim);
    let stuck = sim.inject_message(mesh.node(5, 5), mesh.node(9, 9)).0;
    forge_worm(&mut sim, stuck, &[]);
    sim.alloc[stuck as usize] = AllocPhase::Blocked;
    assert_eq!(sim.knot(), ids);
}

#[test]
fn a_header_whose_candidates_may_still_widen_is_no_knot_member() {
    // Fully-Adaptive re-routes a blocked header once it has waited out
    // the misroute patience, so the ring is a knot only past that wait.
    let mut sim = make_sim(
        AlgorithmKind::FullyAdaptive,
        fault_free(),
        0.0,
        SimConfig::quick(),
    );
    let ids = forged_ring(&mut sim);
    let patience = sim.recheck_wait.expect("Fully-Adaptive widens");
    for &id in &ids {
        sim.wait[id as usize] = patience + 1;
    }
    assert_eq!(sim.knot(), ids);
    sim.wait[ids[0] as usize] = patience;
    assert_eq!(sim.knot(), Vec::<u32>::new());
}

#[test]
fn a_ring_member_with_another_way_out_is_no_knot() {
    // m1 also registers (1,1)→(1,2): free, then held by a worm that is
    // not blocked. Either way m1 can still leave, so nothing is a knot,
    // though the wait-for graph keeps its cycle.
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let ids = forged_ring(&mut sim);
    forge_wait(&mut sim, ids[1], Direction::North);
    assert_eq!(sim.knot(), Vec::<u32>::new(), "a free exit");
    let mover = sim.inject_message(mesh.node(1, 1), mesh.node(9, 9)).0;
    forge_worm(&mut sim, mover, &[Direction::North]);
    sim.alloc[mover as usize] = AllocPhase::Moving;
    assert_eq!(sim.knot(), Vec::<u32>::new(), "an exit held by a mover");
    assert_eq!(sim.diagnose_stall(None).edges.len(), 4);
}

#[test]
fn a_source_header_waiting_only_on_knot_slots_joins_the_knot() {
    // A header still at (1,0), its source, holds nothing and waits on
    // m1's (1,0)→(1,1).
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let mut ids = forged_ring(&mut sim);
    let late = sim.inject_message(mesh.node(1, 0), mesh.node(9, 9)).0;
    forge_worm(&mut sim, late, &[]);
    forge_wait(&mut sim, late, Direction::North);
    ids.push(late);
    assert_eq!(sim.knot(), ids);
    let diag = sim.diagnose_stall(None);
    assert!(diag.knot[3].at_source && diag.knot[3].holds.is_empty());
}

#[test]
fn a_holder_that_is_not_stalled_breaks_the_knot() {
    // m2's flits can still move, so the slot m1 waits on may free: m1
    // and then m0, which waits on m1, drop out, and m2 was never in.
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let ids = forged_ring(&mut sim);
    sim.stalled[ids[2] as usize] = false;
    assert_eq!(sim.knot(), Vec::<u32>::new());
    let diag = sim.diagnose_stall(None);
    assert!(diag.knot.is_empty());
    assert!(diag.names_resource().unwrap().starts_with("hotspot"));
}

/// Occupy every VC of every channel leaving `node` with a forged
/// owner, so any header there blocks on all of them: each slot goes on
/// `owner`'s path and sets its occupancy bit.
fn occupy_all_outputs(sim: &mut Simulator, node: NodeId, owner: u32) {
    let vcs = sim.num_vcs as u32;
    for dir in wormsim_topology::ALL_DIRECTIONS {
        let ch = sim.ctx.mesh().channel(node, dir);
        let Some(dest) = sim.ctx.mesh().channel_dest(ch) else {
            continue;
        };
        sim.occ_mask[ch.index()] = vc_width_mask(sim.num_vcs);
        for vc in 0..vcs {
            let entry = PathEntry {
                key: ch.0 * vcs + vc,
                ch: ch.0,
                vc: vc as u8,
                dest,
                entered: 0,
            };
            sim.push_path(owner as usize, entry);
        }
    }
}

/// Free the forged holder's slot `key`: drop it from `owner`'s path and
/// clear its occupancy bit.
fn free_forged_slot(sim: &mut Simulator, owner: u32, key: u32) {
    let i = owner as usize;
    let kept: Vec<PathEntry> = sim
        .path(i)
        .iter()
        .filter(|e| e.key != key)
        .copied()
        .collect();
    sim.msgs[i].path = PathBuf::default();
    for e in kept {
        sim.push_path(i, e);
    }
    let (ch, vc) = (sim.key_channel(key), sim.key_vc(key));
    sim.occ_mask[ch.index()] &= !(1 << vc);
}

#[test]
fn reblocking_at_the_same_hop_pushes_nothing() {
    // A header that was woken and lost again re-blocks on the slots it
    // is still listed on: its registration record must skip every
    // push, so the wake lists do not grow.
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let src = mesh.node(4, 4);
    let id = sim.inject_message(src, mesh.node(9, 9)).0;
    let owner = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)).0;
    occupy_all_outputs(&mut sim, src, owner);
    sim.try_allocate(id);
    assert_eq!(sim.alloc[id as usize], AllocPhase::Blocked);
    let listed = sim.waiters.live_nodes();
    assert!(listed > 0, "the header registered nowhere");
    for round in 1..=3 {
        sim.alloc[id as usize] = AllocPhase::Contend;
        sim.try_allocate(id);
        assert_eq!(sim.alloc[id as usize], AllocPhase::Blocked);
        assert_eq!(
            sim.waiters.live_nodes(),
            listed,
            "re-block {round} grew the wake lists"
        );
    }
    assert_eq!(
        sim.wait[id as usize], 4,
        "one wait cycle per failed attempt"
    );
}

#[test]
fn a_header_that_moved_on_has_no_edge_to_its_old_node() {
    // A header blocks at A on several slots, one of them frees and it
    // takes that one, and it blocks again at B. The wake lists at A still
    // list it; its registration record names only B's slots.
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let a = mesh.node(4, 4);
    let id = sim.inject_message(a, mesh.node(9, 9)).0;
    let owner = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)).0;
    sim.active.push(id);
    occupy_all_outputs(&mut sim, a, owner);
    sim.try_allocate(id);
    let i = id as usize;
    assert_eq!(sim.alloc[i], AllocPhase::Blocked);
    assert!(sim.reg_bits[i].count_ones() > 1, "blocked on several slots");
    let bit = sim.reg_bits[i].trailing_zeros();
    let ch = mesh.channel(a, Direction::from_index(bit as usize / 32));
    let key = ch.0 * sim.num_vcs as u32 + bit % 32;
    free_forged_slot(&mut sim, owner, key);
    sim.wake_waiters(key);
    sim.try_allocate(id);
    assert_eq!(
        sim.path(i).last().map(|e| e.key),
        Some(key),
        "took the freed slot"
    );
    let b = sim.head_node(i);
    let back = sim.msgs[i].path.back as usize;
    sim.paths[i * sim.stride + back - 1].entered = 1;
    sim.alloc[i] = AllocPhase::Contend;
    occupy_all_outputs(&mut sim, b, owner);
    sim.try_allocate(id);
    assert_eq!(sim.alloc[i], AllocPhase::Blocked);
    let diag = sim.diagnose_stall(None);
    assert!(!diag.edges.is_empty());
    for e in &diag.edges {
        assert_eq!(e.waiter, id);
        assert_eq!(
            mesh.channel_src(ChannelId(e.channel)),
            b,
            "edge to ch{}/vc{}, a slot of the node it left",
            e.channel,
            e.vc
        );
    }
}

#[test]
fn organic_stall_produces_a_diagnosis() {
    // Same scenario that forces real watchdog recoveries in
    // `incremental_vc_accounting_matches_path_scan`: the diagnosis must
    // be captured as a value, not just printed. A traced sim is used
    // because the NullSink fast path skips diagnosis capture to stay
    // allocation-free (`diagnose_stall` still works on demand there).
    let mesh = Mesh::square(10);
    let pattern =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))]).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_000,
        deadlock_timeout: 300,
        ..SimConfig::paper()
    };
    let mut sim = make_traced_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
    for _ in 0..1_000 {
        sim.step();
    }
    assert!(sim.recoveries() > 0, "scenario must trip the watchdog");
    let diag = sim.last_stall().expect("diagnosis captured");
    assert!(diag.focus.is_some(), "watchdog always has a focus message");
    // The Display dump renders and carries the verdict line.
    let text = format!("{diag}");
    assert!(text.contains("[stall]"), "{text}");
    assert!(text.contains("verdict:"), "{text}");
}

/// Reference candidate gather: the per-VC probe loop over a per-slot
/// occupancy table that [`expand_candidates`] replaced, kept as the
/// oracle.
fn expand_by_array_scan(
    mask: wormsim_routing::VcMask,
    num_vcs: u8,
    held: &[bool],
    base: u32,
    eligible: &mut Vec<(u32, u8)>,
    busy: &mut Vec<u32>,
) {
    for vc in mask.iter() {
        if vc >= num_vcs {
            break;
        }
        let key = base + vc as u32;
        if !held[key as usize] {
            eligible.push((key, vc));
        } else {
            busy.push(key);
        }
    }
}

proptest::proptest! {
    #[test]
    fn bitmask_expansion_matches_array_scan(
        mask_bits in proptest::prelude::any::<u32>(),
        occ_bits in proptest::prelude::any::<u32>(),
        num_vcs in 1u8..=32,
        ch in 0u32..16,
    ) {
        let allowed = vc_width_mask(num_vcs);
        let occ = occ_bits & allowed;
        // Materialize the occupancy mask as a per-slot table for the
        // oracle.
        let mut held = vec![false; 16 * num_vcs as usize];
        let base = ch * num_vcs as u32;
        for vc in 0..num_vcs as u32 {
            held[(base + vc) as usize] = occ & (1 << vc) != 0;
        }
        let mask = wormsim_routing::VcMask(mask_bits);
        let (mut e1, mut b1) = (Vec::new(), Vec::new());
        expand_candidates(mask.0 & allowed, occ, base, &mut e1, &mut b1);
        let (mut e2, mut b2) = (Vec::new(), Vec::new());
        expand_by_array_scan(mask, num_vcs, &held, base, &mut e2, &mut b2);
        proptest::prop_assert_eq!(e1, e2);
        proptest::prop_assert_eq!(b1, b2);
    }
}

#[test]
fn header_presence() {
    // The header is routable from the last held VC once it has entered
    // that VC's buffer, not when the VC is granted.
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let i = sim.inject_message(mesh.node(0, 0), mesh.node(5, 0)).0 as usize;
    assert!(
        !sim.header_at_head(i),
        "a message at its source holds no VC"
    );
    assert_eq!(sim.head_node(i), mesh.node(0, 0));
    sim.push_path(
        i,
        PathEntry {
            key: 3,
            ch: 0,
            vc: 3,
            dest: mesh.node(1, 0),
            entered: 0,
        },
    );
    assert!(
        !sim.header_at_head(i),
        "allocated but header not yet arrived"
    );
    assert_eq!(sim.head_node(i), mesh.node(1, 0));
    sim.paths[i * sim.stride].entered = 1;
    assert!(sim.header_at_head(i));
    sim.pop_path_front(i);
    assert_eq!((sim.msgs[i].path.front, sim.msgs[i].path.back), (0, 0));
}

/// The FNV-1a hex fingerprint `wormsim_experiments::report_json_fingerprint`
/// takes of a serialized report.
fn fingerprint(json: &str) -> String {
    let h = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Run `sim` with every path window starting at one entry, so its paths
/// outgrow them hop by hop and the arena is relaid out as they do.
/// Returns the report and the widest window the run needed.
fn run_in_one_entry_windows(mut sim: Simulator) -> (SimReport, usize) {
    assert!(sim.msgs.is_empty(), "narrowed before the slab grows");
    sim.stride = 1;
    let report = sim.run();
    sim.check_soa_layout();
    (report, sim.stride)
}

#[test]
fn one_entry_windows_widen_and_reproduce_the_golden_runs() {
    // The paper run and the §5.2 Fully-Adaptive run that
    // `tests/golden_fingerprints.rs` pins, each starting from one-entry
    // windows: every relayout must keep every path, so the reports are
    // the pinned ones byte for byte.
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), fault_free()));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig::paper().with_seed(0xB41C);
    let sim = Simulator::new(algo, ctx, Workload::paper_uniform(0.01), cfg);
    let (report, stride) = run_in_one_entry_windows(sim);
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(fingerprint(&json), "6fea1f0c9bd99fc2");
    assert!(stride > 1, "the paper run never widened its windows");

    let layout = FaultPattern::from_rects(
        &mesh,
        &[
            Rect::new(Coord::new(3, 3), Coord::new(4, 5)),
            Rect::point(Coord::new(7, 7)),
            Rect::point(Coord::new(7, 1)),
        ],
    )
    .unwrap();
    let ctx = Arc::new(RoutingContext::new(mesh, layout));
    let algo = build_algorithm(AlgorithmKind::FullyAdaptive, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::paper().with_seed(0x52)
    };
    let wl = Workload {
        message_length: 8,
        ..Workload::paper_uniform(0.05)
    };
    let (report, stride) = run_in_one_entry_windows(Simulator::new(algo, ctx, wl, cfg));
    assert_eq!(
        fingerprint(&serde_json::to_string(&report).unwrap()),
        "039bd5fda1d4ca61"
    );
    assert!(
        stride > 1,
        "the Fully-Adaptive run never widened its windows"
    );
}

#[test]
fn prewarm_reserves_and_builds_no_slot() {
    // `prewarm` makes room for the slab and its path arena; the slots
    // themselves, and the arena memory under them, come with the first
    // messages.
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.01, SimConfig::quick());
    sim.prewarm(5_000);
    assert!(sim.msgs.is_empty() && sim.paths.is_empty() && sim.free_list.is_empty());
    assert!(sim.msgs.capacity() >= 5_000);
    assert!(sim.paths.capacity() >= 5_000 * sim.stride);
    for _ in 0..200 {
        sim.step();
    }
    assert!(!sim.msgs.is_empty(), "no slot was built");
    sim.check_soa_layout();
}

/// A lone Duato worm a few hops into the fault-free mesh, its source
/// still injecting, that passes the audit.
fn a_worm_in_flight() -> (Simulator, u32) {
    let mesh = Mesh::square(10);
    let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
    let id = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)).0;
    for _ in 0..5 {
        sim.step();
    }
    assert!(sim.path(id as usize).len() >= 2, "the worm is not out yet");
    sim.check_invariants();
    (sim, id)
}

#[test]
#[should_panic(expected = "occupancy bitmask out of sync with the held slots")]
fn the_audit_catches_an_occupancy_bit_no_path_holds() {
    let (mut sim, _) = a_worm_in_flight();
    let ch = sim
        .ctx
        .mesh()
        .channel(sim.ctx.mesh().node(5, 5), Direction::East);
    sim.occ_mask[ch.index()] |= 1 << 3;
    sim.check_invariants();
}

#[test]
#[should_panic(expected = "sits on the paths of msgs")]
fn the_audit_catches_a_slot_on_two_paths() {
    let (mut sim, id) = a_worm_in_flight();
    let mesh = Mesh::square(10);
    let other = sim.inject_message(mesh.node(0, 9), mesh.node(9, 0)).0;
    let held = sim.path(id as usize)[0];
    sim.push_path(other as usize, held);
    sim.active.push(other);
    sim.check_invariants();
}
