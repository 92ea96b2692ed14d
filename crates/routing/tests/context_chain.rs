//! Property tests pinning `RoutingContext::with_pattern` to
//! `RoutingContext::new`: for random fault patterns grown through online
//! `extend` chains, a context advanced once per event (f-rings rebuilt
//! incrementally by `FRingSet::rebuild`) must answer every per-node and
//! per-pair query, every algorithm's `route()`, and every greedy walk
//! exactly like a context built fresh on the final pattern.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Mesh, NodeId};

/// A base pattern plus a chain of online extension events, all derived
/// deterministically from `seed`. Returns the chained context (built
/// fresh, then advanced with `with_pattern` once per event) and the final
/// pattern.
fn chained_context(
    mesh: &Mesh,
    seed: u64,
    faults: usize,
    events: usize,
) -> Option<(RoutingContext, FaultPattern)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pattern = if faults == 0 {
        FaultPattern::fault_free(mesh)
    } else {
        wormsim_fault::random_pattern(mesh, faults, &mut rng).ok()?
    };
    let mut ctx = RoutingContext::new(mesh.clone(), pattern.clone());
    let mut pattern = pattern;
    for _ in 0..events {
        let healthy: Vec<NodeId> = pattern.healthy_nodes(mesh).collect();
        let Some(&n) = healthy.choose(&mut rng) else {
            break;
        };
        let Ok(ext) = pattern.extend(mesh, [mesh.coord(n)]) else {
            continue; // event would disconnect the mesh — skip it
        };
        ctx = ctx.with_pattern(ext.clone());
        pattern = ext;
    }
    Some((ctx, pattern))
}

/// Query-by-query comparison of `chained` against `fresh`.
fn assert_queries_match(
    chained: &RoutingContext,
    fresh: &RoutingContext,
) -> Result<(), TestCaseError> {
    let mesh = chained.mesh();
    for node in mesh.nodes() {
        prop_assert_eq!(
            chained.safe_directions(node),
            fresh.safe_directions(node),
            "safe_directions({:?})",
            node
        );
        for dest in mesh.nodes() {
            prop_assert_eq!(
                chained.healthy_minimal_directions(node, dest),
                fresh.healthy_minimal_directions(node, dest),
                "healthy_minimal({:?},{:?})",
                node,
                dest
            );
            prop_assert_eq!(
                chained.blocked_by_fault(node, dest),
                fresh.blocked_by_fault(node, dest),
                "blocked({:?},{:?})",
                node,
                dest
            );
            prop_assert_eq!(
                chained.ring_entry(node, dest),
                fresh.ring_entry(node, dest),
                "ring_entry({:?},{:?})",
                node,
                dest
            );
            prop_assert_eq!(
                chained.blocked_ring_entry(node, dest),
                fresh.blocked_ring_entry(node, dest),
                "blocked_ring_entry({:?},{:?})",
                node,
                dest
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A context advanced through a chain of fault-extension events
    /// answers every geometry query exactly like a fresh one.
    #[test]
    fn chained_queries_match_fresh(
        seed in any::<u64>(),
        side in 6u16..=8,
        faults in 0usize..=6,
        events in 0usize..=3,
    ) {
        let mesh = Mesh::square(side);
        let Some((chained, pattern)) = chained_context(&mesh, seed, faults, events) else {
            return Ok(());
        };
        let fresh = RoutingContext::new(mesh.clone(), pattern);
        assert_queries_match(&chained, &fresh)?;
    }

    /// Every roster algorithm returns bit-identical candidates whether its
    /// context was chained or built fresh.
    #[test]
    fn route_matches_fresh_for_all_algorithms(
        seed in any::<u64>(),
        faults in 0usize..=6,
        events in 0usize..=2,
    ) {
        let mesh = Mesh::square(6);
        let Some((chained, pattern)) = chained_context(&mesh, seed, faults, events) else {
            return Ok(());
        };
        let chained = Arc::new(chained);
        let fresh = Arc::new(RoutingContext::new(mesh.clone(), pattern.clone()));
        let healthy: Vec<NodeId> = pattern.healthy_nodes(&mesh).collect();
        for kind in AlgorithmKind::ALL {
            let a = build_algorithm(kind, chained.clone(), VcConfig::paper());
            let b = build_algorithm(kind, fresh.clone(), VcConfig::paper());
            for &src in &healthy {
                for &dest in &healthy {
                    if src == dest {
                        continue;
                    }
                    let mut sa = a.init_message(src, dest);
                    let mut sb = b.init_message(src, dest);
                    let ca = a.route(src, &mut sa);
                    let cb = b.route(src, &mut sb);
                    prop_assert_eq!(
                        ca,
                        cb,
                        "{:?}: candidates diverge at {:?}->{:?}",
                        kind,
                        src,
                        dest
                    );
                    prop_assert_eq!(sa.ring, sb.ring, "{:?}: ring state diverges", kind);
                }
            }
        }
    }

    /// Lockstep greedy walks through chained and fresh contexts take the
    /// same path hop for hop (exercises on-ring traversal state, not just
    /// the first decision).
    #[test]
    fn greedy_walks_match_fresh(
        seed in any::<u64>(),
        faults in 1usize..=6,
        events in 0usize..=2,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let mesh = Mesh::square(8);
        let Some((chained, pattern)) = chained_context(&mesh, seed, faults, events) else {
            return Ok(());
        };
        let chained = Arc::new(chained);
        let fresh = Arc::new(RoutingContext::new(mesh.clone(), pattern.clone()));
        let healthy: Vec<NodeId> = pattern.healthy_nodes(&mesh).collect();
        let src = healthy[a % healthy.len()];
        let dest = healthy[b % healthy.len()];
        if src == dest {
            return Ok(());
        }
        for kind in AlgorithmKind::ALL {
            let ta = build_algorithm(kind, chained.clone(), VcConfig::paper());
            let tb = build_algorithm(kind, fresh.clone(), VcConfig::paper());
            let mut sa = ta.init_message(src, dest);
            let mut sb = tb.init_message(src, dest);
            let mut cur = src;
            let mut hops = 0u32;
            while cur != dest && hops <= 400 {
                let ca = ta.route(cur, &mut sa);
                let cb = tb.route(cur, &mut sb);
                prop_assert_eq!(&ca, &cb, "{:?}: walk diverges at {:?}", kind, cur);
                let Some(hop) = ca.iter().next() else { break };
                let mask = if hop.preferred.is_empty() {
                    hop.fallback
                } else {
                    hop.preferred
                };
                let vc = mask.iter().next().unwrap_or(0);
                let Some(next) = mesh.neighbor(cur, hop.dir) else { break };
                ta.on_hop(cur, next, hop.dir, vc, &mut sa);
                tb.on_hop(cur, next, hop.dir, vc, &mut sb);
                cur = next;
                hops += 1;
            }
        }
    }
}
