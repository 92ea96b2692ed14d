//! The engine stays inside the routing audit's graph. Traced runs check
//! every message's VC acquisitions: the first one after `Inject` (or after
//! an `Abort` or `Recover`, which restart the message from its source) is
//! a VC `route` offers from the message's initial state, and every later
//! one is an edge of the channel-dependency graph from the VC acquired
//! before it. The graph and the enumerator are in
//! `support/routing_audit.rs`.

#[path = "support/routing_audit.rs"]
mod routing_audit;

use routing_audit::{graph_audit, Audit};
use std::collections::HashMap;
use std::sync::Arc;
use wormsim_chaos::{run_chaos_with_sink, FaultEvent, FaultSchedule};
use wormsim_engine::{SimConfig, Simulator};
use wormsim_experiments::{paper_52_layout, parallel_map};
use wormsim_fault::FaultPattern;
use wormsim_obs::{EventKind, TraceEvent, VecSink};
use wormsim_routing::{AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{ChannelId, Coord, Mesh, NodeId};
use wormsim_traffic::Workload;

fn dense() -> (Workload, SimConfig) {
    let workload = Workload {
        message_length: 8,
        ..Workload::paper_uniform(0.05)
    };
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 2_500,
        ..SimConfig::paper().with_seed(0xC0DE)
    };
    (workload, cfg)
}

/// One message from `Inject` to `Deliver` (or the end of the run).
#[derive(Default)]
struct Life {
    src: u16,
    /// Acquired (channel, VC)s; `true` marks a restart from the source.
    acquires: Vec<(u32, u8, bool)>,
}

/// Check every message injected after `from_cycle`; returns how many VC
/// acquisitions were checked.
fn check(a: &Audit, events: &[TraceEvent], from_cycle: u64) -> usize {
    let mesh = a.ctx.mesh();
    let mut lives: HashMap<u32, Life> = HashMap::new();
    let mut checked = 0;
    let mut finish = |life: Life, dest: Option<u16>| {
        let mut prev: Option<(u32, u8)> = None;
        for (ch, vc, fresh) in restarts(life.acquires) {
            if fresh {
                let src = NodeId(life.src);
                assert_eq!(
                    mesh.channel_src(ChannelId(ch)),
                    src,
                    "first hop leaves the source"
                );
                if let Some(dest) = dest {
                    assert!(
                        offered_at_start(a, src, NodeId(dest), ch, vc),
                        "{:?}: VC {vc} on channel {ch} is not offered from the initial state",
                        a.kind
                    );
                }
            } else {
                let p = prev.expect("a later acquisition has a predecessor");
                assert!(
                    a.graph.has_edge(mesh, p, (ch, vc)),
                    "{:?}: ({}, {}) → ({ch}, {vc}) is not an edge of the graph",
                    a.kind,
                    p.0,
                    p.1
                );
            }
            prev = Some((ch, vc));
            checked += 1;
        }
    };
    for e in events {
        match e.kind {
            EventKind::Inject => {
                if let Some(old) = lives.remove(&e.msg) {
                    finish(old, None);
                }
                if e.cycle > from_cycle {
                    lives.insert(
                        e.msg,
                        Life {
                            src: e.node,
                            acquires: Vec::new(),
                        },
                    );
                }
            }
            EventKind::VcAcquire => {
                if let Some(life) = lives.get_mut(&e.msg) {
                    life.acquires.push((e.channel, e.vc, false));
                }
            }
            EventKind::Abort | EventKind::Recover => {
                if let Some(life) = lives.get_mut(&e.msg) {
                    // The next acquisition starts over from the source.
                    life.acquires.push(RESTART);
                }
            }
            EventKind::Deliver => {
                if let Some(life) = lives.remove(&e.msg) {
                    finish(life, Some(e.node));
                }
            }
            _ => {}
        }
    }
    for (_, life) in lives.drain() {
        finish(life, None);
    }
    checked
}

/// Stands in a life's acquisitions for an `Abort` or `Recover`.
const RESTART: (u32, u8, bool) = (u32::MAX, 0, true);

/// The acquisitions, each flagged when it is the first from the source.
fn restarts(acquires: Vec<(u32, u8, bool)>) -> Vec<(u32, u8, bool)> {
    let mut out = Vec::with_capacity(acquires.len());
    let mut fresh = true;
    for a in acquires {
        if a == RESTART {
            fresh = true;
            continue;
        }
        out.push((a.0, a.1, fresh));
        fresh = false;
    }
    out
}

/// Whether `route` offers `vc` on `ch` to a fresh message at `src`.
fn offered_at_start(a: &Audit, src: NodeId, dest: NodeId, ch: u32, vc: u8) -> bool {
    let dir = a.ctx.mesh().channel_dir(ChannelId(ch));
    let mut waits = vec![0];
    waits.extend(a.algo.recheck_wait());
    waits.into_iter().any(|wait| {
        let mut st = a.algo.init_message(src, dest);
        st.wait_cycles = wait;
        a.algo
            .route(src, &mut st)
            .for_dir(dir)
            .is_some_and(|h| h.preferred.union(h.fallback).contains(vc))
    })
}

/// Run every kind in `kinds` traced on `ctx` and check it against its
/// graph; each must have made enough acquisitions to mean something.
fn check_traced_runs(ctx: &Arc<RoutingContext>, kinds: &[AlgorithmKind]) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checked = parallel_map(kinds, threads, |&kind| {
        let a = graph_audit(kind, ctx, VcConfig::paper());
        let (workload, cfg) = dense();
        let algo = wormsim_routing::build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let mut sim = Simulator::with_sink(algo, ctx.clone(), workload, cfg, VecSink::new());
        sim.run();
        check(&a, sim.sink().events(), 0)
    });
    for (kind, n) in kinds.iter().zip(checked) {
        assert!(n > 1_000, "{kind:?}: only {n} acquisitions traced");
    }
}

#[test]
fn every_algorithm_stays_inside_its_graph() {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), paper_52_layout(&mesh)));
    let kinds: Vec<AlgorithmKind> = AlgorithmKind::ALL
        .into_iter()
        .chain(AlgorithmKind::EXTENDED_BASELINES)
        .collect();
    check_traced_runs(&ctx, &kinds);
}

/// The fault-free mesh, where most verdicts are proofs and no message
/// takes a ring. The kinds whose walks take 0.3–2 s (bonus cards, the
/// Duato escapes built on them, Fully-Adaptive) are left to the §5.2 test.
#[test]
fn fault_free_runs_stay_inside_their_graphs() {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let kinds = [
        AlgorithmKind::PHop,
        AlgorithmKind::NHop,
        AlgorithmKind::Duato,
        AlgorithmKind::MinimalAdaptive,
        AlgorithmKind::BouraAdaptive,
        AlgorithmKind::BouraFaultTolerant,
    ]
    .into_iter()
    .chain(AlgorithmKind::EXTENDED_BASELINES)
    .collect::<Vec<_>>();
    check_traced_runs(&ctx, &kinds);
}

#[test]
fn chaos_run_stays_inside_the_final_graph() {
    let mesh = Mesh::square(10);
    let base = FaultPattern::fault_free(&mesh);
    let events = vec![
        FaultEvent {
            cycle: 500,
            coords: vec![Coord::new(4, 4), Coord::new(5, 5)],
        },
        FaultEvent {
            cycle: 1_100,
            coords: vec![Coord::new(8, 2)],
        },
    ];
    let last = events.last().expect("two events").cycle;
    let schedule = FaultSchedule::new(&mesh, &base, events.clone()).expect("acceptable");
    let final_pattern = events.iter().fold(base.clone(), |p, e| {
        p.extend(&mesh, e.coords.iter().copied()).unwrap()
    });
    let kind = AlgorithmKind::DuatoNbc;
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), final_pattern));
    let a = graph_audit(kind, &ctx, VcConfig::paper());
    let workload = Workload {
        message_length: 16,
        ..Workload::paper_uniform(0.03)
    };
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_700,
        ..SimConfig::paper().with_seed(0xC4A05)
    };
    let (_, sink) = run_chaos_with_sink(
        mesh,
        base,
        &schedule,
        kind,
        VcConfig::paper(),
        workload,
        cfg,
        VecSink::new(),
    )
    .expect("schedule replays");
    let n = check(&a, sink.events(), last);
    assert!(n > 1_000, "only {n} acquisitions after the last activation");
}
