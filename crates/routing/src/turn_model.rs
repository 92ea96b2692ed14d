//! Deterministic and turn-model baselines (extensions beyond the paper's
//! roster, used by the ablation experiments).
//!
//! - Deterministic dimension-order (XY) routing: the canonical
//!   non-adaptive baseline, and the escape discipline of Duato's routing.
//! - The Glass–Ni partially adaptive algorithms (west-first, north-last,
//!   negative-first). Each forbids just enough turns to break all
//!   dependency cycles, so they are deadlock-free with **any** number of
//!   VCs per channel and need no buffer classes.
//!
//! All of them expose the full base VC budget as one free pool; the BC
//! overlay fortifies them for fault tolerance like any other base.

use crate::state::{Candidates, MessageState, VcMask};
use wormsim_topology::{Direction, DirectionSet, Mesh, NodeId};

/// XY, or which Glass–Ni turn model to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TurnModelKind {
    /// Dimension order: X to completion, then Y.
    Xy,
    /// All westward hops first; fully adaptive among {E, N, S} afterward.
    WestFirst,
    /// Northward hops only once no other productive direction remains
    /// (turning out of north is forbidden, so enter it last).
    NorthLast,
    /// All negative-direction hops (W, S) first, then positive (E, N).
    NegativeFirst,
}

impl TurnModelKind {
    /// The minimal directions this routing permits: those of its first
    /// directions that make progress, or all of `minimal` once none does.
    pub(crate) fn permitted(self, minimal: DirectionSet) -> DirectionSet {
        let first: &[Direction] = match self {
            TurnModelKind::Xy => &[Direction::East, Direction::West],
            TurnModelKind::WestFirst => &[Direction::West],
            TurnModelKind::NorthLast => &[Direction::East, Direction::West, Direction::South],
            TurnModelKind::NegativeFirst => &[Direction::West, Direction::South],
        };
        let first = minimal.intersect(first.iter().copied().collect());
        if first.is_empty() {
            minimal
        } else {
            first
        }
    }
}

/// The permitted directions, each on all `vcs` VCs.
pub(crate) fn candidates(
    mesh: &Mesh,
    vcs: u8,
    kind: TurnModelKind,
    node: NodeId,
    st: &MessageState,
) -> Candidates {
    let mask = VcMask::range(0, vcs - 1);
    let permitted = kind.permitted(mesh.minimal_directions(node, st.dest));
    let mut out = Candidates::none();
    for dir in permitted.iter() {
        out.push_simple(dir, mask);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, BoppanaChalasani, RoutingAlgorithm, RoutingContext};
    use std::sync::Arc;
    use wormsim_fault::FaultPattern;
    use wormsim_topology::Mesh;

    fn ctx() -> Arc<RoutingContext> {
        let mesh = Mesh::square(10);
        Arc::new(RoutingContext::new(
            mesh.clone(),
            FaultPattern::fault_free(&mesh),
        ))
    }

    #[test]
    fn xy_routes_x_then_y() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let xy = BoppanaChalasani::paper(AlgorithmKind::Xy, c);
        let mut st = xy.init_message(mesh.node(2, 2), mesh.node(6, 7));
        let cands = xy.candidates(mesh.node(2, 2), &mut st);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::East);
        // Same column: Y next.
        let mut st = xy.init_message(mesh.node(6, 2), mesh.node(6, 7));
        let cands = xy.candidates(mesh.node(6, 2), &mut st);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::North);
        // At destination: nothing.
        let n = mesh.node(6, 7);
        let mut st = xy.init_message(mesh.node(0, 0), n);
        assert!(xy.candidates(n, &mut st).is_empty());
    }

    #[test]
    fn west_first_forces_west_before_turning() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let wf = BoppanaChalasani::paper(AlgorithmKind::WestFirst, c);
        // Destination south-west: west first, exclusively.
        let mut st = wf.init_message(mesh.node(7, 7), mesh.node(2, 2));
        let cands = wf.candidates(mesh.node(7, 7), &mut st);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::West);
        // Destination north-east: fully adaptive among E and N.
        let mut st = wf.init_message(mesh.node(2, 2), mesh.node(7, 7));
        let cands = wf.candidates(mesh.node(2, 2), &mut st);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn north_last_defers_north() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let nl = BoppanaChalasani::paper(AlgorithmKind::NorthLast, c);
        // North-east destination: only East until the column matches.
        let mut st = nl.init_message(mesh.node(2, 2), mesh.node(7, 7));
        let cands = nl.candidates(mesh.node(2, 2), &mut st);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::East);
        // Aligned column: North allowed as the last direction.
        let mut st = nl.init_message(mesh.node(7, 2), mesh.node(7, 7));
        let cands = nl.candidates(mesh.node(7, 2), &mut st);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::North);
        // South-east destination: both adaptive (no north involved).
        let mut st = nl.init_message(mesh.node(2, 7), mesh.node(7, 2));
        let cands = nl.candidates(mesh.node(2, 7), &mut st);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn negative_first_orders_phases() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let nf = BoppanaChalasani::paper(AlgorithmKind::NegativeFirst, c);
        // Mixed destination (west + north): negative (west) phase first.
        let mut st = nf.init_message(mesh.node(7, 2), mesh.node(2, 7));
        let cands = nf.candidates(mesh.node(7, 2), &mut st);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::West);
        // Both negative: adaptive between W and S.
        let mut st = nf.init_message(mesh.node(7, 7), mesh.node(2, 2));
        let cands = nf.candidates(mesh.node(7, 7), &mut st);
        assert_eq!(cands.len(), 2);
        // Pure positive: adaptive between E and N.
        let mut st = nf.init_message(mesh.node(2, 2), mesh.node(7, 7));
        let cands = nf.candidates(mesh.node(2, 2), &mut st);
        assert_eq!(cands.len(), 2);
    }
}
