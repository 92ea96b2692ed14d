//! Property-based tests over the routing algorithms: delivery by greedy
//! walks, class-ladder monotonicity, and candidate well-formedness, on
//! random fault patterns and endpoint pairs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_fault::FaultPattern;
use wormsim_routing::{
    build_algorithm, min_total_vcs, AlgorithmKind, CandidateHop, Candidates, MessageState,
    RoutingAlgorithm, RoutingContext, VcConfig,
};
use wormsim_topology::{Mesh, NodeId};

fn context(seed: u64, faults: usize) -> Option<Arc<RoutingContext>> {
    let mesh = Mesh::square(10);
    let pattern = if faults == 0 {
        FaultPattern::fault_free(&mesh)
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        wormsim_fault::random_pattern(&mesh, faults, &mut rng).ok()?
    };
    Some(Arc::new(RoutingContext::new(mesh, pattern)))
}

fn pick_endpoints(ctx: &RoutingContext, a: usize, b: usize) -> Option<(NodeId, NodeId)> {
    let healthy: Vec<NodeId> = ctx.pattern().healthy_nodes(ctx.mesh()).collect();
    let src = healthy[a % healthy.len()];
    let dest = healthy[b % healthy.len()];
    (src != dest).then_some((src, dest))
}

/// Greedy walk: always take the first candidate direction and its lowest
/// permitted VC. Must reach the destination within a generous hop bound
/// without ever stepping on a faulty node or using an out-of-range VC.
fn greedy_walk(
    ctx: Arc<RoutingContext>,
    kind: AlgorithmKind,
    src: NodeId,
    dest: NodeId,
) -> Result<u32, String> {
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let mesh = ctx.mesh();
    let mut st = algo.init_message(src, dest);
    let mut cur = src;
    let mut hops = 0u32;
    let bound = 400;
    while cur != dest {
        let cands = algo.route(cur, &mut st);
        if cands.is_empty() {
            return Err(format!("{kind:?}: no candidates at {:?}", mesh.coord(cur)));
        }
        let hop = cands.iter().next().unwrap();
        let mask = if hop.preferred.is_empty() {
            hop.fallback
        } else {
            hop.preferred
        };
        let vc = mask
            .iter()
            .next()
            .ok_or_else(|| format!("{kind:?}: empty mask"))?;
        if vc >= algo.num_vcs() {
            return Err(format!("{kind:?}: vc {vc} out of range"));
        }
        let next = mesh
            .neighbor(cur, hop.dir)
            .ok_or_else(|| format!("{kind:?}: off-mesh candidate"))?;
        if ctx.pattern().is_faulty(next) {
            return Err(format!(
                "{kind:?}: routed into fault at {:?}",
                mesh.coord(next)
            ));
        }
        algo.on_hop(cur, next, hop.dir, vc, &mut st);
        cur = next;
        hops += 1;
        if hops > bound {
            return Err(format!("{kind:?}: exceeded {bound} hops"));
        }
    }
    Ok(hops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn greedy_walks_deliver_everywhere(
        seed in any::<u64>(),
        faults in 0usize..=10,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let Some(ctx) = context(seed, faults) else { return Ok(()); };
        let Some((src, dest)) = pick_endpoints(&ctx, a, b) else { return Ok(()); };
        for kind in AlgorithmKind::ALL {
            match greedy_walk(ctx.clone(), kind, src, dest) {
                Ok(hops) => {
                    let dist = ctx.mesh().distance(src, dest);
                    prop_assert!(hops >= dist, "{:?} arrived in fewer hops than distance", kind);
                    if faults == 0 && kind != AlgorithmKind::FullyAdaptive {
                        prop_assert_eq!(hops, dist, "{:?} non-minimal without faults", kind);
                    }
                }
                Err(e) => return Err(TestCaseError::fail(e)),
            }
        }
    }

    #[test]
    fn phop_vc_ladder_strictly_increases(
        seed in any::<u64>(),
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let Some(ctx) = context(seed, 0) else { return Ok(()); };
        let Some((src, dest)) = pick_endpoints(&ctx, a, b) else { return Ok(()); };
        let algo = build_algorithm(AlgorithmKind::PHop, ctx.clone(), VcConfig::paper());
        let mesh = ctx.mesh();
        let mut st = algo.init_message(src, dest);
        let mut cur = src;
        let mut prev: Option<u8> = None;
        while cur != dest {
            let cands = algo.route(cur, &mut st);
            let hop = cands.iter().next().unwrap();
            prop_assert_eq!(hop.preferred.count(), 1, "PHop offers exactly one class");
            let vc = hop.preferred.iter().next().unwrap();
            if let Some(p) = prev {
                prop_assert!(vc > p, "ladder not increasing: {p} then {vc}");
            }
            prev = Some(vc);
            let next = mesh.neighbor(cur, hop.dir).unwrap();
            algo.on_hop(cur, next, hop.dir, vc, &mut st);
            cur = next;
        }
    }

    #[test]
    fn bonus_card_masks_respect_class_spaces(
        seed in any::<u64>(),
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let Some(ctx) = context(seed, 0) else { return Ok(()); };
        let Some((src, dest)) = pick_endpoints(&ctx, a, b) else { return Ok(()); };
        let mesh = ctx.mesh();
        // Pbc: classes = VCs 0..19; mask must sit within and start at or
        // after the previous class + 1.
        let algo = build_algorithm(AlgorithmKind::Pbc, ctx.clone(), VcConfig::paper());
        let mut st = algo.init_message(src, dest);
        let mut cur = src;
        let mut prev_class: Option<u8> = None;
        while cur != dest {
            let cands = algo.route(cur, &mut st);
            let hop = cands.iter().next().unwrap();
            let lo = hop.preferred.iter().next().unwrap();
            let hi = hop.preferred.iter().last().unwrap();
            prop_assert!(hi < 19, "Pbc mask beyond class space: {hi}");
            if let Some(p) = prev_class {
                prop_assert!(lo > p, "Pbc floor {lo} not above previous class {p}");
            }
            // Greedy: take the highest class this time (stresses the cap).
            let vc = hi;
            prev_class = Some(vc);
            let next = mesh.neighbor(cur, hop.dir).unwrap();
            algo.on_hop(cur, next, hop.dir, vc, &mut st);
            cur = next;
        }

        // Nbc: classes × 2 VCs → VCs 0..19, mask floor tracks negative hops.
        let algo = build_algorithm(AlgorithmKind::Nbc, ctx.clone(), VcConfig::paper());
        let mut st = algo.init_message(src, dest);
        let mut cur = src;
        while cur != dest {
            let cands = algo.route(cur, &mut st);
            let hop = cands.iter().next().unwrap();
            let lo = hop.preferred.iter().next().unwrap();
            let hi = hop.preferred.iter().last().unwrap();
            prop_assert!(hi < 20);
            prop_assert!(lo / 2 >= st.negative_hops.min(9), "class below requirement");
            let next = mesh.neighbor(cur, hop.dir).unwrap();
            algo.on_hop(cur, next, hop.dir, lo, &mut st);
            cur = next;
        }
    }

    #[test]
    fn candidates_are_well_formed(
        seed in any::<u64>(),
        faults in 0usize..=8,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let Some(ctx) = context(seed, faults) else { return Ok(()); };
        let Some((src, dest)) = pick_endpoints(&ctx, a, b) else { return Ok(()); };
        let mesh = ctx.mesh();
        for kind in AlgorithmKind::ALL {
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let mut st = algo.init_message(src, dest);
            let cands = algo.route(src, &mut st);
            for hop in cands.iter() {
                // Every candidate stays in-mesh and off faults.
                let next = mesh.neighbor(src, hop.dir);
                prop_assert!(next.is_some(), "{:?} proposed off-mesh hop", kind);
                prop_assert!(
                    !ctx.pattern().is_faulty(next.unwrap()),
                    "{:?} proposed faulty hop",
                    kind
                );
                // Masks stay within the VC budget.
                let all = hop.preferred.union(hop.fallback);
                prop_assert!(!all.is_empty());
                for vc in all.iter() {
                    prop_assert!(vc < algo.num_vcs());
                }
            }
            // Routing twice without a hop is idempotent.
            let again = algo.route(src, &mut st);
            prop_assert_eq!(cands, again, "{:?} route() not idempotent", kind);
        }
    }
}

#[test]
fn min_total_vcs_saturates_instead_of_wrapping() {
    // 129×129: diameter 256, so 257 PHop classes wrapped to 1 as a u8 and
    // the minimum read 5 — feasible under the paper's 24.
    let mesh = Mesh::square(129);
    for kind in [AlgorithmKind::PHop, AlgorithmKind::DuatoPbc] {
        assert_eq!(min_total_vcs(kind, &mesh, 4), u8::MAX, "{kind:?}");
    }
    // Inside the range nothing changes: the paper's mesh and the widest
    // the wire admits.
    assert_eq!(
        min_total_vcs(AlgorithmKind::DuatoNbc, &Mesh::square(10), 4),
        15
    );
    assert_eq!(
        min_total_vcs(AlgorithmKind::DuatoNbc, &Mesh::square(64), 4),
        69
    );
}

/// FNV-1a, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn candidates(&mut self, cands: &Candidates) {
        self.eat(cands.len() as u64);
        for h in cands.iter() {
            self.eat(h.dir as u64);
            self.eat(u64::from(h.preferred.0));
            self.eat(u64::from(h.fallback.0));
        }
    }

    fn state(&mut self, st: &MessageState) {
        for v in [
            u64::from(st.src.0),
            u64::from(st.dest.0),
            u64::from(st.hops),
            u64::from(st.normal_hops),
            u64::from(st.negative_hops),
            u64::from(st.bonus),
            u64::from(st.next_class_min),
            u64::from(st.misroutes),
            u64::from(st.wait_cycles),
            st.last_dir.map_or(9, |d| d as u64),
        ] {
            self.eat(v);
        }
        match st.ring {
            None => self.eat(u64::MAX),
            Some(r) => {
                for v in [
                    r.ring as u64,
                    u64::from(r.pos),
                    r.orient as u64,
                    r.mtype as u64,
                    u64::from(r.entry_distance),
                ] {
                    self.eat(v);
                }
            }
        }
    }
}

/// Walk `src → dest` greedily and hash every decision on the way: each
/// `route()` output and each state after `on_hop`. The walk takes the
/// first non-empty tier (preferred over fallback); `highest` takes that
/// tier's last direction and highest VC, otherwise its first direction and
/// lowest VC. `wait` is written into the state before every `route()`.
fn hash_walk(
    h: &mut Fnv,
    algo: &dyn RoutingAlgorithm,
    mesh: &Mesh,
    (src, dest): (NodeId, NodeId),
    highest: bool,
    wait: u32,
) {
    let mut st = algo.init_message(src, dest);
    h.state(&st);
    let mut cur = src;
    for _ in 0..400 {
        if cur == dest {
            return;
        }
        st.wait_cycles = wait;
        let cands = algo.route(cur, &mut st);
        h.candidates(&cands);
        let tier = |hop: &CandidateHop| {
            if cands.iter().any(|c| !c.preferred.is_empty()) {
                hop.preferred
            } else {
                hop.fallback
            }
        };
        let mut usable = cands.iter().filter(|c| !tier(c).is_empty());
        let pick = if highest {
            usable.last()
        } else {
            usable.next()
        };
        let Some(hop) = pick else {
            return;
        };
        let mask = tier(hop);
        let vc = if highest {
            mask.iter().last()
        } else {
            mask.iter().next()
        }
        .unwrap();
        let next = mesh.neighbor(cur, hop.dir).unwrap();
        algo.on_hop(cur, next, hop.dir, vc, &mut st);
        h.state(&st);
        cur = next;
    }
}

/// Every routing decision of every algorithm, pinned: all 15 kinds on the
/// fault-free mesh and on the audit's two random patterns, two greedy walks
/// per ordered pair of healthy nodes (lowest and highest VC), plus the same
/// two walks at `recheck_wait()` where an algorithm has one. A refactor of
/// the routing functions must leave this hash alone; an intended change of
/// a decision moves it.
#[test]
fn every_routing_decision_is_pinned() {
    let mesh = Mesh::square(10);
    let mut patterns = vec![FaultPattern::fault_free(&mesh)];
    for faults in [5, 10] {
        let mut rng = SmallRng::seed_from_u64(faults as u64);
        patterns.push(wormsim_fault::random_pattern(&mesh, faults, &mut rng).unwrap());
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for pattern in patterns {
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        let healthy: Vec<NodeId> = ctx.pattern().healthy_nodes(&mesh).collect();
        for kind in AlgorithmKind::ALL
            .into_iter()
            .chain(AlgorithmKind::EXTENDED_BASELINES)
        {
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let waits: Vec<u32> = std::iter::once(0).chain(algo.recheck_wait()).collect();
            for &src in &healthy {
                for &dest in &healthy {
                    if src == dest {
                        continue;
                    }
                    for &wait in &waits {
                        for highest in [false, true] {
                            hash_walk(&mut h, &*algo, &mesh, (src, dest), highest, wait);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        h.0, 0x78da_bd3d_e61d_afc9,
        "a routing decision moved: {:#018x}",
        h.0
    );
}
