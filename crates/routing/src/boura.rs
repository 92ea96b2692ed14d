//! Boura–Das routing (paper §3, ref [7]): the adaptive base discipline and
//! the labeling-based fault-tolerant variant the paper compares against the
//! BC-fortified algorithms.
//!
//! Reconstruction (the paper only cites [7]; see DESIGN.md §3.4):
//!
//! - **Boura (Adaptive)** partitions the VCs into two virtual networks by
//!   the message's vertical travel direction: north-going messages (dest
//!   row ≥ current row) use the lower half, south-going the upper half.
//!   Within a network a message takes any minimal direction on any free VC.
//!   Each network only ever moves {E, W, N} (resp. {E, W, S}) and minimal
//!   row messages never reverse, so the per-network channel dependency
//!   graph is acyclic — the discipline is deadlock-free.
//! - **Boura (Fault-Tolerant)** adds the node labeling
//!   ([`wormsim_fault::NodeLabeling`]): unsafe nodes are avoided like
//!   faults, and a message whose shortest paths are all blocked detours
//!   around the labeled obstacle with a wall-following rule until it gets
//!   strictly closer to its destination than where the detour began.

use crate::context::RoutingContext;
use crate::state::{Candidates, MessageState, VcMask};
use crate::traits::BaseRouting;
use std::sync::Arc;
use wormsim_topology::{Direction, DirectionSet, NodeId};

/// Boura–Das adaptive routing: Y-partitioned dual virtual networks.
pub struct BouraAdaptive {
    ctx: Arc<RoutingContext>,
    vcs: u8,
}

impl BouraAdaptive {
    /// Build with `budget` base VCs, split evenly between the two networks.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        assert!(budget >= 2, "Boura needs at least 2 VCs (one per network)");
        BouraAdaptive { ctx, vcs: budget }
    }

    /// The VC mask of the virtual network a message at `node` uses:
    /// lower half when traveling north or horizontally, upper half when
    /// traveling south. Re-evaluated per hop so that fault detours cannot
    /// strand a message in the wrong network.
    fn network_mask(&self, node: NodeId, dest: NodeId) -> VcMask {
        let mesh = self.ctx.mesh();
        let half = self.vcs / 2;
        if mesh.coord(dest).y >= mesh.coord(node).y {
            VcMask::range(0, half - 1)
        } else {
            VcMask::range(half, self.vcs - 1)
        }
    }
}

impl BaseRouting for BouraAdaptive {
    fn name(&self) -> &'static str {
        "Boura (Adaptive)"
    }

    fn base_vcs(&self) -> u8 {
        self.vcs
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mask = self.network_mask(node, st.dest);
        let mut out = Candidates::none();
        for dir in self.ctx.mesh().minimal_directions(node, st.dest).iter() {
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

/// Boura–Das fault-tolerant routing: the adaptive discipline plus node
/// labeling. Unsafe-labeled (but healthy) next nodes are avoided whenever a
/// safe shortest-path link exists, and used as a fallback tier otherwise —
/// at high fault rates the *safe* subgraph may be disconnected while the
/// healthy network is not, so unsafe nodes must remain usable. When every
/// shortest-path link is blocked by actual faults, the surrounding
/// fault-region traversal is delegated to the ring machinery of the
/// [`crate::BoppanaChalasani`] wrapper this base is built with (fault
/// blocks are convex rectangles, so ring traversal is exactly the detour
/// Boura–Das's labeling produces around them; see DESIGN.md §3.4).
pub struct BouraFaultTolerant {
    ctx: Arc<RoutingContext>,
    vcs: u8,
}

impl BouraFaultTolerant {
    /// Build with `budget` base VCs (the BC wrapper adds its 4 detour VCs
    /// on top).
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        assert!(budget >= 2);
        BouraFaultTolerant { ctx, vcs: budget }
    }

    fn network_mask(&self, node: NodeId, dest: NodeId) -> VcMask {
        let mesh = self.ctx.mesh();
        let half = self.vcs / 2;
        if mesh.coord(dest).y >= mesh.coord(node).y {
            VcMask::range(0, half - 1)
        } else {
            VcMask::range(half, self.vcs - 1)
        }
    }

    /// Minimal directions with non-faulty next nodes, split into
    /// (safe-or-destination, merely-non-faulty) preference tiers: `any` is
    /// the context's healthy-minimal set, and the preferred tier intersects
    /// it with the safe-labeled set — except one hop out, where the single
    /// minimal link lands on the destination itself and is preferred
    /// regardless of its label.
    fn tiered_minimal(&self, node: NodeId, dest: NodeId) -> (DirectionSet, DirectionSet) {
        let any = self.ctx.healthy_minimal_directions(node, dest);
        let preferred = if self.ctx.mesh().distance(node, dest) == 1 {
            any
        } else {
            any.intersect(self.ctx.safe_directions(node))
        };
        (preferred, any)
    }
}

impl BaseRouting for BouraFaultTolerant {
    fn name(&self) -> &'static str {
        "Boura (Fault-Tolerant)"
    }

    fn base_vcs(&self) -> u8 {
        self.vcs
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mut out = Candidates::none();
        if node == st.dest {
            return out;
        }
        let (safe, any) = self.tiered_minimal(node, st.dest);
        let mask = self.network_mask(node, st.dest);
        for dir in any.iter() {
            if safe.contains(dir) {
                out.push(crate::state::CandidateHop {
                    dir,
                    preferred: mask,
                    fallback: VcMask::EMPTY,
                });
            } else {
                out.push(crate::state::CandidateHop {
                    dir,
                    preferred: VcMask::EMPTY,
                    fallback: mask,
                });
            }
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
    use wormsim_topology::{Coord, Mesh, Rect};

    fn free_ctx() -> Arc<RoutingContext> {
        let mesh = Mesh::square(10);
        Arc::new(RoutingContext::new(
            mesh.clone(),
            FaultPattern::fault_free(&mesh),
        ))
    }

    #[test]
    fn adaptive_network_split() {
        let c = free_ctx();
        let mesh = c.mesh().clone();
        let b = BouraAdaptive::new(c, 20);
        // North-going message → lower half.
        let mut st = b.init_message(mesh.node(0, 0), mesh.node(5, 5));
        let cands = b.candidates(mesh.node(0, 0), &mut st);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::range(0, 9));
        }
        // South-going message → upper half.
        let mut st = b.init_message(mesh.node(5, 9), mesh.node(5, 0));
        let cands = b.candidates(mesh.node(5, 9), &mut st);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::range(10, 19));
        }
        // Row message → lower half.
        let mut st = b.init_message(mesh.node(0, 4), mesh.node(9, 4));
        let cands = b.candidates(mesh.node(0, 4), &mut st);
        assert_eq!(cands.iter().next().unwrap().preferred, VcMask::range(0, 9));
    }

    #[test]
    fn adaptive_is_minimal() {
        let c = free_ctx();
        let mesh = c.mesh().clone();
        let b = BouraAdaptive::new(c, 20);
        let mut st = b.init_message(mesh.node(3, 3), mesh.node(1, 7));
        let cands = b.candidates(mesh.node(3, 3), &mut st);
        assert_eq!(cands.len(), 2);
        assert!(cands.for_dir(Direction::West).is_some());
        assert!(cands.for_dir(Direction::North).is_some());
    }

    fn walled_ctx() -> (Arc<RoutingContext>, Mesh) {
        let mesh = Mesh::square(10);
        // A 1x3 wall at x=5 rows 4..6.
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(5, 4), Coord::new(5, 6))])
                .unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        (ctx, mesh)
    }

    #[test]
    fn ft_blocked_when_only_minimal_link_is_faulty() {
        let (c, mesh) = walled_ctx();
        let b = BouraFaultTolerant::new(c, 20);
        // At (4,5) heading to (6,5): the only minimal dir (East) is faulty;
        // the base has no candidates — the BC wrapper takes over with ring
        // traversal.
        let mut st = b.init_message(mesh.node(4, 5), mesh.node(6, 5));
        let cands = b.candidates(mesh.node(4, 5), &mut st);
        assert!(cands.is_empty());
    }

    #[test]
    fn ft_unblocked_routes_minimally() {
        let (c, mesh) = walled_ctx();
        let b = BouraFaultTolerant::new(c, 20);
        let mut st = b.init_message(mesh.node(0, 0), mesh.node(2, 2));
        let cands = b.candidates(mesh.node(0, 0), &mut st);
        assert_eq!(cands.len(), 2);
        for h in cands.iter() {
            assert!(
                !h.preferred.is_empty(),
                "safe hops sit in the preferred tier"
            );
        }
    }

    #[test]
    fn ft_prefers_safe_but_allows_unsafe_when_necessary() {
        let mesh = Mesh::square(10);
        // Two walls with a one-wide unsafe slot at column 4.
        let pattern = FaultPattern::from_rects(
            &mesh,
            &[
                Rect::new(Coord::new(3, 4), Coord::new(3, 6)),
                Rect::new(Coord::new(5, 4), Coord::new(5, 6)),
            ],
        )
        .unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        assert!(!ctx.labeling().is_safe(mesh.node(4, 5)));
        let b = BouraFaultTolerant::new(ctx, 20);
        // At (4,4) heading to (4,7): the only minimal dir (North) leads into
        // the unsafe slot — offered, but only as fallback.
        let mut st = b.init_message(mesh.node(4, 4), mesh.node(4, 7));
        let cands = b.candidates(mesh.node(4, 4), &mut st);
        assert_eq!(cands.len(), 1);
        let h = cands.iter().next().unwrap();
        assert_eq!(h.dir, Direction::North);
        assert!(h.preferred.is_empty());
        assert!(!h.fallback.is_empty());
        // With a safe alternative, only the safe hop carries the preferred
        // tier: at (4,3)→(6,7), North is unsafe (4,4), East is safe.
        let mut st = b.init_message(mesh.node(4, 3), mesh.node(6, 7));
        let cands = b.candidates(mesh.node(4, 3), &mut st);
        assert_eq!(cands.len(), 2);
        let north = cands.for_dir(Direction::North).unwrap();
        assert!(north.preferred.is_empty() && !north.fallback.is_empty());
        let east = cands.for_dir(Direction::East).unwrap();
        assert!(!east.preferred.is_empty() && east.fallback.is_empty());
    }

    #[test]
    fn ft_full_algorithm_delivers_through_bc_wrapper() {
        use crate::{build_algorithm, AlgorithmKind, VcConfig};
        let (c, mesh) = walled_ctx();
        let algo = build_algorithm(AlgorithmKind::BouraFaultTolerant, c, VcConfig::paper());
        assert_eq!(algo.num_vcs(), 24);
        let (src, dest) = (mesh.node(4, 5), mesh.node(6, 5));
        let mut st = algo.init_message(src, dest);
        let mut cur = src;
        let mut hops = 0;
        while cur != dest {
            let cands = algo.route(cur, &mut st);
            assert!(!cands.is_empty(), "stuck at {:?}", mesh.coord(cur));
            let h = cands.iter().next().unwrap();
            let mask = if h.preferred.is_empty() {
                h.fallback
            } else {
                h.preferred
            };
            let vc = mask.iter().next().unwrap();
            let next = mesh.neighbor(cur, h.dir).unwrap();
            algo.on_hop(cur, next, h.dir, vc, &mut st);
            cur = next;
            hops += 1;
            assert!(hops < 50, "detour did not terminate");
        }
        assert!(hops > mesh.distance(src, dest), "a detour was required");
    }
}
