//! Deterministic and turn-model baselines (extensions beyond the paper's
//! roster, used by the ablation experiments).
//!
//! - [`DimensionOrder`] — deterministic XY routing: the canonical
//!   non-adaptive baseline.
//! - [`TurnModel`] — the Glass–Ni partially adaptive algorithms
//!   (west-first, north-last, negative-first). Each forbids just enough
//!   turns to break all dependency cycles, so they are deadlock-free with
//!   **any** number of VCs per channel and need no buffer classes.
//!
//! All of them expose the full base VC budget as one free pool; the BC
//! overlay fortifies them for fault tolerance like any other base.

use crate::context::RoutingContext;
use crate::state::{Candidates, MessageState, VcMask};
use crate::traits::BaseRouting;
use std::sync::Arc;
use wormsim_topology::{Direction, DirectionSet, NodeId};

/// Deterministic dimension-order (XY) routing.
pub struct DimensionOrder {
    ctx: Arc<RoutingContext>,
    vcs: u8,
}

impl DimensionOrder {
    /// Build with `budget` base VCs (all equivalent).
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        assert!(budget >= 1);
        DimensionOrder { ctx, vcs: budget }
    }
}

impl BaseRouting for DimensionOrder {
    fn name(&self) -> &'static str {
        "XY (dimension-order)"
    }

    fn base_vcs(&self) -> u8 {
        self.vcs
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mesh = self.ctx.mesh();
        let (c, d) = (mesh.coord(node), mesh.coord(st.dest));
        let dir = if d.x > c.x {
            Some(Direction::East)
        } else if d.x < c.x {
            Some(Direction::West)
        } else if d.y > c.y {
            Some(Direction::North)
        } else if d.y < c.y {
            Some(Direction::South)
        } else {
            None
        };
        let mut out = Candidates::none();
        if let Some(dir) = dir {
            out.push_simple(dir, VcMask::range(0, self.vcs - 1));
        }
        out
    }

    fn on_normal_hop(
        &self,
        _from: NodeId,
        _to: NodeId,
        _dir: Direction,
        _vc: u8,
        st: &mut MessageState,
    ) {
        st.normal_hops += 1;
    }

    fn context(&self) -> &RoutingContext {
        &self.ctx
    }
}

/// Which Glass–Ni turn model to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TurnModelKind {
    /// All westward hops first; fully adaptive among {E, N, S} afterward.
    WestFirst,
    /// Northward hops only once no other productive direction remains.
    NorthLast,
    /// All negative-direction hops (W, S) first, then positive (E, N).
    NegativeFirst,
}

impl TurnModelKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TurnModelKind::WestFirst => "West-First",
            TurnModelKind::NorthLast => "North-Last",
            TurnModelKind::NegativeFirst => "Negative-First",
        }
    }
}

/// A Glass–Ni partially adaptive turn-model routing.
pub struct TurnModel {
    ctx: Arc<RoutingContext>,
    vcs: u8,
    kind: TurnModelKind,
}

impl TurnModel {
    /// Build with `budget` base VCs (one free pool).
    pub fn new(ctx: Arc<RoutingContext>, budget: u8, kind: TurnModelKind) -> Self {
        assert!(budget >= 1);
        TurnModel {
            ctx,
            vcs: budget,
            kind,
        }
    }

    /// The minimal directions the turn model permits at this step.
    fn allowed_directions(&self, node: NodeId, dest: NodeId) -> DirectionSet {
        let minimal = self.ctx.mesh().minimal_directions(node, dest);
        match self.kind {
            TurnModelKind::WestFirst => {
                // Any westward progress must be completed before turning.
                if minimal.contains(Direction::West) {
                    let mut west = DirectionSet::empty();
                    west.insert(Direction::West);
                    west
                } else {
                    minimal
                }
            }
            TurnModelKind::NorthLast => {
                // North only when it is the sole productive direction
                // (turning out of north is forbidden, so enter it last).
                let mut non_north = minimal;
                non_north.remove(Direction::North);
                if non_north.is_empty() {
                    minimal
                } else {
                    non_north
                }
            }
            TurnModelKind::NegativeFirst => {
                let negative =
                    minimal.intersect([Direction::West, Direction::South].into_iter().collect());
                if negative.is_empty() {
                    minimal
                } else {
                    negative
                }
            }
        }
    }
}

impl BaseRouting for TurnModel {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn base_vcs(&self) -> u8 {
        self.vcs
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mask = VcMask::range(0, self.vcs - 1);
        let mut out = Candidates::none();
        for dir in self.allowed_directions(node, st.dest).iter() {
            out.push_simple(dir, mask);
        }
        out
    }

    fn on_normal_hop(
        &self,
        _from: NodeId,
        _to: NodeId,
        _dir: Direction,
        _vc: u8,
        st: &mut MessageState,
    ) {
        st.normal_hops += 1;
    }

    fn context(&self) -> &RoutingContext {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let xy = DimensionOrder::new(c, 20);
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
        let wf = TurnModel::new(c, 20, TurnModelKind::WestFirst);
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
        let nl = TurnModel::new(c, 20, TurnModelKind::NorthLast);
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
        let nf = TurnModel::new(c, 20, TurnModelKind::NegativeFirst);
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
