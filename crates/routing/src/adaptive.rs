//! Minimal-Adaptive and Fully-Adaptive routing (paper §3, §5).
//!
//! Both choose freely among all their virtual channels ("completely free in
//! choosing the virtual channels" — the paper's first category), so neither
//! is provably deadlock-free; the engine's watchdog provides Disha-style
//! recovery and reports how often it fired.
//!
//! Fully-Adaptive additionally *misroutes*: when the header has been blocked
//! for a while on all shortest-path channels it may take a non-minimal hop,
//! at most `misroute_limit` times (paper §5: "the number of the misroutes is
//! limited and is set to 10").

use crate::state::{Candidates, MessageState, VcMask};
use wormsim_topology::{Mesh, NodeId, ALL_DIRECTIONS};

/// Cycles a Fully-Adaptive header must be blocked before misrouting
/// unlocks.
pub(crate) const MISROUTE_PATIENCE: u32 = 8;

/// Every minimal direction on all `vcs` VCs. With a `misroute_limit`
/// (Fully-Adaptive), a header blocked for [`MISROUTE_PATIENCE`] cycles that
/// has misrouted fewer times than the limit may also take any other
/// in-mesh direction except the one undoing its last hop (guards against
/// trivial ping-pong livelock; the global cap guarantees progress
/// regardless).
pub(crate) fn candidates(
    mesh: &Mesh,
    vcs: u8,
    misroute_limit: Option<u8>,
    node: NodeId,
    st: &MessageState,
) -> Candidates {
    let mask = VcMask::range(0, vcs - 1);
    let minimal = mesh.minimal_directions(node, st.dest);
    let mut out = Candidates::none();
    for dir in minimal.iter() {
        out.push_simple(dir, mask);
    }
    if misroute_limit
        .is_some_and(|limit| st.wait_cycles >= MISROUTE_PATIENCE && st.misroutes < limit)
    {
        for dir in ALL_DIRECTIONS {
            if minimal.contains(dir) || Some(dir.opposite()) == st.last_dir {
                continue;
            }
            if mesh.neighbor(node, dir).is_some() {
                out.push_simple(dir, mask);
            }
        }
    }
    out
}

/// Count a normal-mode hop, and a misroute when it leaves the destination
/// farther away.
pub(crate) fn on_hop(
    mesh: &Mesh,
    misroute_limit: Option<u8>,
    from: NodeId,
    to: NodeId,
    st: &mut MessageState,
) {
    st.normal_hops += 1;
    if misroute_limit.is_some() && mesh.distance(to, st.dest) > mesh.distance(from, st.dest) {
        st.misroutes = st.misroutes.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, BoppanaChalasani, RoutingAlgorithm, RoutingContext, VcConfig};
    use std::sync::Arc;
    use wormsim_fault::FaultPattern;
    use wormsim_topology::{Direction, Mesh};

    fn ctx() -> Arc<RoutingContext> {
        let mesh = Mesh::square(10);
        Arc::new(RoutingContext::new(
            mesh.clone(),
            FaultPattern::fault_free(&mesh),
        ))
    }

    #[test]
    fn minimal_adaptive_full_mask_minimal_dirs() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::paper(AlgorithmKind::MinimalAdaptive, c);
        let mut st = a.init_message(mesh.node(2, 2), mesh.node(7, 8));
        let cands = a.candidates(mesh.node(2, 2), &mut st);
        assert_eq!(cands.len(), 2);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::range(0, 19));
        }
    }

    #[test]
    fn fully_adaptive_no_misroute_when_fresh() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::paper(AlgorithmKind::FullyAdaptive, c);
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        let cands = a.candidates(mesh.node(5, 5), &mut st);
        assert_eq!(cands.len(), 1); // East only
        assert_eq!(cands.iter().next().unwrap().dir, Direction::East);
    }

    #[test]
    fn fully_adaptive_misroutes_after_patience() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::paper(AlgorithmKind::FullyAdaptive, c);
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        st.wait_cycles = MISROUTE_PATIENCE;
        st.last_dir = Some(Direction::East);
        let cands = a.candidates(mesh.node(5, 5), &mut st);
        // East (minimal) + North + South; West excluded (undoes last hop
        // direction? last_dir=East → opposite=West excluded).
        assert_eq!(cands.len(), 3);
        assert!(cands.for_dir(Direction::West).is_none());
    }

    #[test]
    fn fully_adaptive_respects_misroute_cap() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::new(
            AlgorithmKind::FullyAdaptive,
            c,
            VcConfig {
                misroute_limit: 2,
                ..VcConfig::paper()
            },
        );
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        st.misroutes = 2;
        st.wait_cycles = 100;
        let cands = a.candidates(mesh.node(5, 5), &mut st);
        assert_eq!(cands.len(), 1); // back to minimal only
    }

    #[test]
    fn fully_adaptive_counts_misroutes() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::paper(AlgorithmKind::FullyAdaptive, c);
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        a.on_normal_hop(
            mesh.node(5, 5),
            mesh.node(5, 6),
            Direction::North,
            0,
            &mut st,
        );
        assert_eq!(st.misroutes, 1);
        a.on_normal_hop(
            mesh.node(5, 6),
            mesh.node(6, 6),
            Direction::East,
            0,
            &mut st,
        );
        assert_eq!(st.misroutes, 1); // East is productive here
    }

    #[test]
    fn boundary_node_misroute_dirs_stay_in_mesh() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = BoppanaChalasani::paper(AlgorithmKind::FullyAdaptive, c);
        let mut st = a.init_message(mesh.node(0, 0), mesh.node(9, 0));
        st.wait_cycles = 10;
        let cands = a.candidates(mesh.node(0, 0), &mut st);
        for h in cands.iter() {
            assert!(mesh.neighbor(mesh.node(0, 0), h.dir).is_some());
        }
    }
}
