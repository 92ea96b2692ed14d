//! The Boppana–Chalasani fault-tolerance overlay (paper §2.3, ref [1]).
//!
//! Any base discipline is fortified as follows:
//!
//! - While a message has a fault-free link along some shortest path it is
//!   routed by the base algorithm (minimally).
//! - When **every** shortest-path link is blocked by a fault, the message
//!   enters *f-ring traversal*: it is typed WE/EW/SN/NS from its current
//!   offset to the destination, claims the BC virtual channel owned by that
//!   type (one of the 4 extra VCs, paper: "at most four additional virtual
//!   channels are sufficient"), picks the traversal orientation with the
//!   nearer exit, and follows the ring until minimal progress is possible
//!   again.
//! - On an f-chain (ring clipped by the mesh boundary) the traversal
//!   reverses at the chain ends.
//!
//! The BC VCs occupy indices `base_budget .. base_budget + 4`; the base
//! algorithm owns `0 .. base_budget` (it may use fewer, e.g. PHop's 19 of
//! 20, leaving one idle spare exactly as the paper's 24-VC budget does).

use crate::context::RoutingContext;
use crate::state::{Candidates, MessageState, MessageType, VcMask};
use crate::traits::{BaseRouting, RoutingAlgorithm};
use wormsim_topology::{Direction, NodeId};

/// A base discipline fortified with the BC f-ring scheme.
pub struct BoppanaChalasani {
    base: Box<dyn BaseRouting>,
    /// First BC VC index (= the base VC budget).
    bc_base: u8,
    /// Number of BC VCs (4).
    bc_count: u8,
}

impl BoppanaChalasani {
    /// Fortify `base`. `base_budget` is the number of VC indices reserved
    /// for the base discipline (its own `base_vcs()` must fit);
    /// `bc_count` additional VCs sit above them.
    pub fn new(base: Box<dyn BaseRouting>, base_budget: u8, bc_count: u8) -> Self {
        assert!(
            base.base_vcs() <= base_budget,
            "{} uses {} VCs but the budget is {}",
            base.name(),
            base.base_vcs(),
            base_budget
        );
        assert!(bc_count >= 4, "the BC scheme needs 4 additional VCs");
        BoppanaChalasani {
            base,
            bc_base: base_budget,
            bc_count,
        }
    }

    /// The VC the message's type owns on every physical channel.
    fn bc_vc(&self, mtype: MessageType) -> u8 {
        self.bc_base + mtype.bc_index()
    }

    fn ctx(&self) -> &RoutingContext {
        self.base.context()
    }

    /// Whether a ring node offers an exit for a message to `dest` that
    /// entered the ring at distance `entry_distance`: the node is the
    /// destination itself, or it is strictly closer than the entry point
    /// *and* minimal progress is possible on a healthy link. The progress
    /// requirement prevents exit–re-block oscillation (each ring episode
    /// strictly reduces the distance to the destination).
    fn is_exit(&self, node: NodeId, dest: NodeId, entry_distance: u32) -> bool {
        node == dest
            || (self.ctx().mesh().distance(node, dest) < entry_distance
                && !self.ctx().healthy_minimal_directions(node, dest).is_empty())
    }

    /// The single ring-mode candidate (the next ring hop on the type's BC
    /// VC), reversing at chain ends.
    fn ring_candidate(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mut out = Candidates::none();
        let Some(mut rs) = st.ring else {
            return out;
        };
        let ctx = self.ctx();
        let rings = ctx.rings();
        debug_assert_eq!(
            rings.ring(rs.ring).nodes()[rs.pos as usize],
            node,
            "ring position out of sync"
        );
        let pos = wormsim_fault::RingPosition {
            ring: rs.ring,
            pos: rs.pos,
        };
        let hop = rings.hop_direction(ctx.mesh(), pos, rs.orient).or_else(|| {
            // f-chain end: reverse and try the other way.
            rs.orient = rs.orient.reversed();
            st.ring = Some(rs);
            rings.hop_direction(ctx.mesh(), pos, rs.orient)
        });
        if let Some((dir, _next, _np)) = hop {
            out.push_simple(dir, VcMask::bit(self.bc_vc(rs.mtype)));
        }
        out
    }
}

impl RoutingAlgorithm for BoppanaChalasani {
    fn name(&self) -> &'static str {
        self.base.name()
    }

    fn num_vcs(&self) -> u8 {
        self.bc_base + self.bc_count
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        self.base.init_message(src, dest)
    }

    fn route(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let ctx = self.ctx();
        if node == st.dest {
            return Candidates::none();
        }
        // Ring exit: strictly closer than the entry point with minimal
        // progress possible again.
        if let Some(rs) = st.ring {
            if self.is_exit(node, st.dest, rs.entry_distance) {
                st.ring = None;
            }
        }
        if st.ring.is_none() {
            // Normal mode: base candidates, filtered to fault-free links.
            let raw = self.base.candidates(node, st);
            let mut out = Candidates::none();
            for h in raw.iter() {
                if ctx.healthy_step(node, h.dir).is_some() {
                    out.push(*h);
                }
            }
            if !out.is_empty() {
                return out;
            }
            // Enter ring mode if blocked. The complete entry state —
            // blocking region, ring position, message type, and the
            // geometric orientation choice (which scans the whole ring) —
            // is a pure function of `(node, dest, pattern)`; the context
            // computes it only once the pair is known to be blocked (see
            // `geometry.rs` for the computation).
            let (blocked, entry) = ctx.blocked_ring_entry(node, st.dest);
            if blocked {
                st.ring = Some(entry.expect("blocked message must face a faulty region"));
            } else {
                // Base had nothing (e.g. waiting on misroute patience).
                return out;
            }
        }
        self.ring_candidate(node, st)
    }

    fn on_hop(&self, from: NodeId, to: NodeId, dir: Direction, vc: u8, st: &mut MessageState) {
        st.hops += 1;
        st.last_dir = Some(dir);
        st.wait_cycles = 0;
        if vc >= self.bc_base {
            // Ring hop: advance the position to the new node.
            let rs = st.ring.as_mut().expect("BC VC hop outside ring mode");
            let pos = self
                .ctx()
                .rings()
                .position_on(to, rs.ring)
                .expect("ring hop must land on the ring");
            rs.pos = pos.pos;
        } else {
            self.base.on_normal_hop(from, to, dir, vc, st);
        }
    }

    fn is_overlay_vc(&self, vc: u8) -> bool {
        vc >= self.bc_base
    }

    fn recheck_wait(&self) -> Option<u32> {
        self.base.recheck_wait()
    }

    fn context(&self) -> &RoutingContext {
        self.base.context()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::MinimalAdaptive;
    use crate::hop_based::PHop;
    use std::sync::Arc;
    use wormsim_fault::{FaultPattern, Orientation};
    use wormsim_topology::{Coord, Mesh, Rect};

    fn ctx_with_block() -> (Arc<RoutingContext>, Mesh) {
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        (Arc::new(RoutingContext::new(mesh.clone(), pattern)), mesh)
    }

    fn bc_minimal(ctx: Arc<RoutingContext>) -> BoppanaChalasani {
        BoppanaChalasani::new(Box::new(MinimalAdaptive::new(ctx, 20)), 20, 4)
    }

    #[test]
    fn vc_budget() {
        let (ctx, _) = ctx_with_block();
        let bc = BoppanaChalasani::new(Box::new(PHop::new(ctx, 20)), 20, 4);
        assert_eq!(bc.num_vcs(), 24);
    }

    #[test]
    fn unblocked_messages_route_normally() {
        let (ctx, mesh) = ctx_with_block();
        let bc = bc_minimal(ctx);
        let mut st = bc.init_message(mesh.node(0, 0), mesh.node(2, 2));
        let cands = bc.route(mesh.node(0, 0), &mut st);
        assert_eq!(cands.len(), 2);
        assert!(st.ring.is_none());
    }

    #[test]
    fn partially_blocked_uses_remaining_minimal_link() {
        let (ctx, mesh) = ctx_with_block();
        let bc = bc_minimal(ctx);
        // At (3,4) → (6,6): East is faulty (4,4), North (3,5) is healthy.
        let mut st = bc.init_message(mesh.node(3, 4), mesh.node(6, 6));
        let cands = bc.route(mesh.node(3, 4), &mut st);
        assert!(st.ring.is_none());
        assert!(cands.for_dir(Direction::East).is_none());
        assert!(cands.for_dir(Direction::North).is_some());
    }

    #[test]
    fn fully_blocked_enters_ring_on_bc_vc() {
        let (ctx, mesh) = ctx_with_block();
        let bc = bc_minimal(ctx);
        // At (3,5) → (8,5): only minimal dir is East, into the block.
        let mut st = bc.init_message(mesh.node(3, 5), mesh.node(8, 5));
        let cands = bc.route(mesh.node(3, 5), &mut st);
        assert!(st.ring.is_some());
        assert_eq!(cands.len(), 1);
        let h = cands.iter().next().unwrap();
        // WE message → BC VC index 20 + 0.
        assert_eq!(h.preferred, VcMask::bit(20));
        assert!(h.fallback.is_empty());
    }

    #[test]
    fn ring_traversal_delivers_around_block() {
        let (ctx, mesh) = ctx_with_block();
        let bc = bc_minimal(ctx.clone());
        let (src, dest) = (mesh.node(3, 5), mesh.node(8, 5));
        let mut st = bc.init_message(src, dest);
        let mut cur = src;
        let mut hops = 0;
        let mut used_bc_vc = false;
        while cur != dest {
            let cands = bc.route(cur, &mut st);
            assert!(!cands.is_empty(), "stuck at {:?}", mesh.coord(cur));
            let h = cands.iter().next().unwrap();
            let vc = h.preferred.iter().next().unwrap();
            if vc >= 20 {
                used_bc_vc = true;
            }
            let next = mesh.neighbor(cur, h.dir).unwrap();
            assert!(!ctx.pattern().is_faulty(next), "routed into a fault");
            bc.on_hop(cur, next, h.dir, vc, &mut st);
            cur = next;
            hops += 1;
            assert!(hops < 60, "traversal did not terminate");
        }
        assert!(used_bc_vc, "detour should have used the BC VC");
        assert!(hops > mesh.distance(src, dest));
        assert!(st.ring.is_none(), "ring mode should end before delivery");
    }

    #[test]
    fn orientation_follows_destination_side() {
        let mesh = Mesh::square(10);
        // Block spanning rows 3..7 at columns 4..5.
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 3), Coord::new(5, 7))])
                .unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        let bc = bc_minimal(ctx);
        // A blocked message has exactly one (faulty) minimal direction, so
        // a blocked row message always has dest.y == entry.y → north side.
        // From the ring's west edge, north is clockwise.
        let mut st = bc.init_message(mesh.node(3, 4), mesh.node(8, 4));
        let cands = bc.route(mesh.node(3, 4), &mut st);
        assert_eq!(st.ring.unwrap().orient, Orientation::Clockwise);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::North);
        // A blocked column message (dest.x == entry.x) goes around the
        // east side; from the ring's bottom edge that is counterclockwise.
        // The rule depends only on geometry, so every same-type message on
        // the same entry side rotates the same way (the BC
        // deadlock-freedom device).
        let mut st = bc.init_message(mesh.node(4, 2), mesh.node(4, 8));
        let cands = bc.route(mesh.node(4, 2), &mut st);
        assert_eq!(st.ring.unwrap().mtype, MessageType::SN);
        assert_eq!(st.ring.unwrap().orient, Orientation::Counterclockwise);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::East);
    }

    #[test]
    fn chain_traversal_reverses_at_boundary() {
        let mesh = Mesh::square(10);
        // Block flush against the south boundary; message destined straight
        // south-east beyond it must go around via the ring chain.
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 0), Coord::new(5, 2))])
                .unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        assert!(!ctx.rings().ring(0).is_closed());
        let bc = bc_minimal(ctx.clone());
        let (src, dest) = (mesh.node(3, 1), mesh.node(8, 0));
        let mut st = bc.init_message(src, dest);
        let mut cur = src;
        let mut hops = 0;
        while cur != dest {
            let cands = bc.route(cur, &mut st);
            assert!(!cands.is_empty(), "stuck at {:?}", mesh.coord(cur));
            let h = cands.iter().next().unwrap();
            let vc = h.preferred.iter().next().unwrap();
            let next = mesh.neighbor(cur, h.dir).unwrap();
            bc.on_hop(cur, next, h.dir, vc, &mut st);
            cur = next;
            hops += 1;
            assert!(hops < 60, "chain traversal did not terminate");
        }
    }

    #[test]
    fn message_types_use_distinct_bc_vcs() {
        let (ctx, mesh) = ctx_with_block();
        let bc = bc_minimal(ctx);
        // Eastbound (WE).
        let mut st = bc.init_message(mesh.node(3, 5), mesh.node(8, 5));
        bc.route(mesh.node(3, 5), &mut st);
        assert_eq!(st.ring.unwrap().mtype, MessageType::WE);
        // Westbound (EW).
        let mut st = bc.init_message(mesh.node(6, 5), mesh.node(0, 5));
        bc.route(mesh.node(6, 5), &mut st);
        assert_eq!(st.ring.unwrap().mtype, MessageType::EW);
        // Northbound (SN).
        let mut st = bc.init_message(mesh.node(4, 3), mesh.node(4, 8));
        bc.route(mesh.node(4, 3), &mut st);
        assert_eq!(st.ring.unwrap().mtype, MessageType::SN);
        // Southbound (NS).
        let mut st = bc.init_message(mesh.node(5, 7), mesh.node(5, 2));
        bc.route(mesh.node(5, 7), &mut st);
        assert_eq!(st.ring.unwrap().mtype, MessageType::NS);
    }

    #[test]
    fn phop_class_frozen_during_ring_hops() {
        let (ctx, mesh) = ctx_with_block();
        let bc = BoppanaChalasani::new(Box::new(PHop::new(ctx, 20)), 20, 4);
        let mut st = bc.init_message(mesh.node(3, 5), mesh.node(8, 5));
        bc.route(mesh.node(3, 5), &mut st);
        assert!(st.ring.is_some());
        let before = st.normal_hops;
        // A ring hop on a BC VC must not advance the PHop class.
        bc.on_hop(
            mesh.node(3, 5),
            mesh.node(3, 6),
            Direction::North,
            20,
            &mut st,
        );
        assert_eq!(st.normal_hops, before);
        assert_eq!(st.hops, 1);
    }
}
