//! The immutable per-simulation context algorithms route against.

use crate::geometry;
use crate::state::RingState;
use wormsim_fault::{FRingSet, FaultPattern, NodeLabeling};
use wormsim_topology::{Direction, DirectionSet, Mesh, NodeId};

/// Everything a routing function needs to know about the network: the mesh,
/// the fault pattern, the f-rings around its regions, and the Boura–Das
/// labeling — O(nodes) in size. Built once per simulation and shared via
/// `Arc`. The per-node and per-pair queries below are computed from these
/// four on every call (`geometry.rs`); nothing derived is stored.
#[derive(Clone, Debug)]
pub struct RoutingContext {
    mesh: Mesh,
    pattern: FaultPattern,
    rings: FRingSet,
    labeling: NodeLabeling,
}

impl RoutingContext {
    /// Build the context (computes f-rings and labeling).
    pub fn new(mesh: Mesh, pattern: FaultPattern) -> Self {
        let rings = FRingSet::build(&mesh, &pattern);
        let labeling = NodeLabeling::compute(&mesh, &pattern);
        RoutingContext {
            mesh,
            pattern,
            rings,
            labeling,
        }
    }

    /// Derive a context for an online-extended pattern (see
    /// `FaultPattern::extend`): f-rings are rebuilt incrementally —
    /// regions whose rectangle survived the event keep their node walk —
    /// and the labeling is recomputed (it depends on every region's
    /// position, so there is no cheap incremental form). Equal to
    /// [`RoutingContext::new`] on the same pattern. Used by the chaos
    /// driver to swap routing state mid-run.
    pub fn with_pattern(&self, pattern: FaultPattern) -> Self {
        let rings = FRingSet::rebuild(&self.mesh, &pattern, &self.pattern, &self.rings);
        let labeling = NodeLabeling::compute(&self.mesh, &pattern);
        RoutingContext {
            mesh: self.mesh.clone(),
            pattern,
            rings,
            labeling,
        }
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The fault pattern.
    #[inline]
    pub fn pattern(&self) -> &FaultPattern {
        &self.pattern
    }

    /// The f-rings around the pattern's regions.
    #[inline]
    pub fn rings(&self) -> &FRingSet {
        &self.rings
    }

    /// The Boura–Das node labeling.
    #[inline]
    pub fn labeling(&self) -> &NodeLabeling {
        &self.labeling
    }

    /// Minimal directions from `node` toward `dest` whose next node is
    /// fault-free (the paper's "fault-free link along the shortest path").
    #[inline]
    pub fn healthy_minimal_directions(&self, node: NodeId, dest: NodeId) -> DirectionSet {
        geometry::compute_healthy_minimal(&self.mesh, &self.pattern, node, dest)
    }

    /// Whether a message at `node` heading to `dest` is *blocked by faults*:
    /// it is not at its destination and every minimal-progress neighbor is
    /// faulty (paper §3).
    #[inline]
    pub fn blocked_by_fault(&self, node: NodeId, dest: NodeId) -> bool {
        geometry::compute_blocked(&self.mesh, &self.pattern, node, dest)
    }

    /// The complete Boppana–Chalasani ring-entry state for a message
    /// blocked at `node` bound for `dest` (blocking region, ring position,
    /// orientation, message type, entry distance). `None` when the pair is
    /// not blocked.
    #[inline]
    pub fn ring_entry(&self, node: NodeId, dest: NodeId) -> Option<RingState> {
        geometry::compute_ring_entry(&self.mesh, &self.pattern, &self.rings, node, dest)
    }

    /// [`RoutingContext::blocked_by_fault`] and
    /// [`RoutingContext::ring_entry`] in one call. The entry component is
    /// `None` whenever the pair is not blocked.
    #[inline]
    pub fn blocked_ring_entry(&self, node: NodeId, dest: NodeId) -> (bool, Option<RingState>) {
        let blocked = self.blocked_by_fault(node, dest);
        let entry = blocked.then(|| self.ring_entry(node, dest)).flatten();
        (blocked, entry)
    }

    /// Directions from `node` whose neighbor is fault-free and safe under
    /// the Boura–Das labeling.
    #[inline]
    pub fn safe_directions(&self, node: NodeId) -> DirectionSet {
        geometry::compute_safe_dirs(&self.mesh, &self.pattern, &self.labeling, node)
    }

    /// Whether moving from `node` in `dir` stays in-mesh and lands on a
    /// fault-free node.
    #[inline]
    pub fn healthy_step(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.mesh
            .neighbor(node, dir)
            .filter(|&v| !self.pattern.is_faulty(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MessageType;
    use wormsim_topology::{Coord, ALL_DIRECTIONS};

    #[test]
    fn fault_free_context() {
        let mesh = Mesh::square(10);
        let ctx = RoutingContext::new(mesh.clone(), FaultPattern::fault_free(&mesh));
        let a = mesh.node(0, 0);
        let b = mesh.node(9, 9);
        assert_eq!(ctx.healthy_minimal_directions(a, b).len(), 2);
        assert!(!ctx.blocked_by_fault(a, b));
        assert_eq!(ctx.rings().rings().len(), 0);
    }

    #[test]
    fn blocked_by_single_fault_straight_line() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let ctx = RoutingContext::new(mesh.clone(), pattern);
        // Message at (4,5) destined to (9,5): only minimal dir is East, into
        // the fault → blocked.
        assert!(ctx.blocked_by_fault(mesh.node(4, 5), mesh.node(9, 5)));
        // Destined to (9,6): North is still healthy → not blocked.
        assert!(!ctx.blocked_by_fault(mesh.node(4, 5), mesh.node(9, 6)));
        // At destination → never blocked.
        assert!(!ctx.blocked_by_fault(mesh.node(4, 5), mesh.node(4, 5)));
    }

    #[test]
    fn blocked_pairs_have_ring_entries() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let ctx = RoutingContext::new(mesh.clone(), pattern);
        let (node, dest) = (mesh.node(4, 5), mesh.node(9, 5));
        assert!(ctx.blocked_by_fault(node, dest));
        let rs = ctx.ring_entry(node, dest).unwrap();
        assert_eq!(rs.mtype, MessageType::WE);
        assert_eq!(rs.entry_distance, 5);
        assert_eq!(
            ctx.rings().ring(rs.ring).nodes()[rs.pos as usize],
            node,
            "ring position must locate the node"
        );
        assert_eq!(ctx.blocked_ring_entry(node, dest), (true, Some(rs)));
        // Unblocked pair → no entry.
        assert!(ctx.ring_entry(mesh.node(0, 0), dest).is_none());
        assert_eq!(ctx.blocked_ring_entry(mesh.node(0, 0), dest), (false, None));
    }

    #[test]
    fn healthy_and_safe_dirs() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let ctx = RoutingContext::new(mesh.clone(), pattern);
        let sd = ctx.safe_directions(mesh.node(4, 5));
        assert!(!sd.contains(Direction::East), "east neighbor is faulty");
        assert!(sd.contains(Direction::West));
        // Corner node: only in-mesh dirs.
        assert_eq!(ctx.safe_directions(mesh.node(0, 0)).len(), 2);
        // With a single convex fault every healthy node is safe, so the
        // safe directions are exactly the healthy steps everywhere.
        for node in mesh.nodes() {
            let healthy: DirectionSet = ALL_DIRECTIONS
                .into_iter()
                .filter(|&d| ctx.healthy_step(node, d).is_some())
                .collect();
            assert_eq!(ctx.safe_directions(node), healthy);
        }
    }

    #[test]
    fn with_pattern_matches_fresh_context() {
        let mesh = Mesh::square(10);
        let base = FaultPattern::from_faulty_coords(&mesh, [Coord::new(2, 2)]).unwrap();
        let ctx = RoutingContext::new(mesh.clone(), base.clone());
        let ext = base.extend(&mesh, [Coord::new(7, 7)]).unwrap();
        let derived = ctx.with_pattern(ext.clone());
        let fresh = RoutingContext::new(mesh.clone(), ext);
        assert_eq!(derived.rings().rings().len(), fresh.rings().rings().len());
        for (a, b) in derived.rings().rings().iter().zip(fresh.rings().rings()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.is_closed(), b.is_closed());
        }
        for n in mesh.nodes() {
            assert_eq!(derived.labeling().label(n), fresh.labeling().label(n));
        }
        // The original context is untouched.
        assert_eq!(ctx.pattern().num_seed_faulty(), 1);
    }

    #[test]
    fn healthy_step_filters_faults() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let ctx = RoutingContext::new(mesh.clone(), pattern);
        assert!(ctx.healthy_step(mesh.node(4, 5), Direction::East).is_none());
        assert!(ctx
            .healthy_step(mesh.node(4, 5), Direction::North)
            .is_some());
        assert!(ctx.healthy_step(mesh.node(0, 0), Direction::West).is_none());
    }
}
