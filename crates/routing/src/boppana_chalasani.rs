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
//!
//! [`BoppanaChalasani`] is the crate's one [`RoutingAlgorithm`]: every
//! roster entry is this overlay over a [`Base`], and each family's rules
//! live in the file named after it.

use crate::context::RoutingContext;
use crate::hop_based::Ladder;
use crate::state::{Candidates, MessageState, MessageType, VcMask};
use crate::traits::RoutingAlgorithm;
use crate::turn_model::TurnModelKind;
use crate::{adaptive, boura, duato, turn_model, AlgorithmKind, VcConfig};
use std::sync::Arc;
use wormsim_topology::{Direction, Mesh, NodeId};

/// The base discipline under the overlay, one variant per family. `vcs`
/// is the base budget, the VC indices below the BC VCs.
pub(crate) enum Base {
    /// PHop, NHop, Pbc and Nbc (`hop_based.rs`, `bonus_cards.rs`).
    Ladder(Ladder),
    /// Duato's methodology (`duato.rs`): an adaptive class I over an escape
    /// class II, the 2-VC XY escape when `escape` is `None`.
    Duato { escape: Option<Ladder>, vcs: u8 },
    /// Free VC choice (`adaptive.rs`): Minimal-Adaptive, and Fully-Adaptive
    /// when `misroute_limit` is set.
    Free { vcs: u8, misroute_limit: Option<u8> },
    /// Boura–Das's two virtual networks (`boura.rs`), with the node
    /// labeling when `labeled`.
    Boura { vcs: u8, labeled: bool },
    /// XY and the Glass–Ni turn models (`turn_model.rs`).
    Turn { vcs: u8, kind: TurnModelKind },
}

impl Base {
    fn new(kind: AlgorithmKind, mesh: &Mesh, vcs: u8, misroute_limit: u8) -> Base {
        let ladder = |negative, cards| Ladder::new(mesh, negative, cards);
        let turn = |kind| Base::Turn { vcs, kind };
        match kind {
            AlgorithmKind::PHop => Base::Ladder(ladder(false, false)),
            AlgorithmKind::NHop => Base::Ladder(ladder(true, false).spread(vcs)),
            AlgorithmKind::Pbc => Base::Ladder(ladder(false, true)),
            AlgorithmKind::Nbc => Base::Ladder(ladder(true, true).spread(vcs)),
            AlgorithmKind::Duato => Base::Duato { escape: None, vcs },
            AlgorithmKind::DuatoPbc => Base::Duato {
                escape: Some(ladder(false, true)),
                vcs,
            },
            AlgorithmKind::DuatoNbc => Base::Duato {
                escape: Some(ladder(true, true)),
                vcs,
            },
            AlgorithmKind::MinimalAdaptive => Base::Free {
                vcs,
                misroute_limit: None,
            },
            AlgorithmKind::FullyAdaptive => Base::Free {
                vcs,
                misroute_limit: Some(misroute_limit),
            },
            AlgorithmKind::BouraAdaptive => Base::Boura {
                vcs,
                labeled: false,
            },
            AlgorithmKind::BouraFaultTolerant => Base::Boura { vcs, labeled: true },
            AlgorithmKind::Xy => turn(TurnModelKind::Xy),
            AlgorithmKind::WestFirst => turn(TurnModelKind::WestFirst),
            AlgorithmKind::NorthLast => turn(TurnModelKind::NorthLast),
            AlgorithmKind::NegativeFirst => turn(TurnModelKind::NegativeFirst),
        }
    }
}

/// A base discipline fortified with the BC f-ring scheme.
pub struct BoppanaChalasani {
    kind: AlgorithmKind,
    ctx: Arc<RoutingContext>,
    base: Base,
    /// First BC VC index (= the base VC budget).
    bc_base: u8,
    /// Number of BC VCs (4).
    bc_count: u8,
}

impl BoppanaChalasani {
    /// `kind` on `ctx` under `cfg`, whose budget [`crate::build_algorithm`]
    /// has checked: the base owns the first `total − bc_vcs` VCs.
    pub(crate) fn new(kind: AlgorithmKind, ctx: Arc<RoutingContext>, cfg: VcConfig) -> Self {
        let budget = cfg.total - cfg.bc_vcs;
        BoppanaChalasani {
            kind,
            base: Base::new(kind, ctx.mesh(), budget, cfg.misroute_limit),
            ctx,
            bc_base: budget,
            bc_count: cfg.bc_vcs,
        }
    }

    /// The base discipline's candidates for a normal-mode hop at `node`:
    /// in-mesh directions only, before the overlay drops those leading
    /// into faults.
    pub(crate) fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mesh = self.ctx.mesh();
        match &self.base {
            Base::Ladder(ladder) => ladder.candidates(mesh, node, st),
            Base::Duato { escape, vcs } => duato::candidates(mesh, escape.as_ref(), *vcs, node, st),
            Base::Free {
                vcs,
                misroute_limit,
            } => adaptive::candidates(mesh, *vcs, *misroute_limit, node, st),
            Base::Boura { vcs, labeled } => boura::candidates(&self.ctx, *vcs, *labeled, node, st),
            Base::Turn { vcs, kind } => turn_model::candidates(mesh, *vcs, *kind, node, st),
        }
    }

    /// The base discipline's bookkeeping for a normal-mode hop on base VC
    /// `vc`.
    pub(crate) fn on_normal_hop(
        &self,
        from: NodeId,
        to: NodeId,
        _dir: Direction,
        vc: u8,
        st: &mut MessageState,
    ) {
        let mesh = self.ctx.mesh();
        match &self.base {
            Base::Ladder(ladder) => ladder.on_hop(mesh, from, to, vc, st),
            Base::Duato { escape, .. } => duato::on_hop(mesh, escape.as_ref(), from, to, vc, st),
            Base::Free { misroute_limit, .. } => {
                adaptive::on_hop(mesh, *misroute_limit, from, to, st)
            }
            Base::Boura { .. } | Base::Turn { .. } => st.normal_hops += 1,
        }
    }

    /// The VC the message's type owns on every physical channel.
    fn bc_vc(&self, mtype: MessageType) -> u8 {
        self.bc_base + mtype.bc_index()
    }

    /// Whether a ring node offers an exit for a message to `dest` that
    /// entered the ring at distance `entry_distance`: the node is the
    /// destination itself, or it is strictly closer than the entry point
    /// *and* minimal progress is possible on a healthy link. The progress
    /// requirement prevents exit–re-block oscillation (each ring episode
    /// strictly reduces the distance to the destination).
    fn is_exit(&self, node: NodeId, dest: NodeId, entry_distance: u32) -> bool {
        node == dest
            || (self.ctx.mesh().distance(node, dest) < entry_distance
                && !self.ctx.healthy_minimal_directions(node, dest).is_empty())
    }

    /// The single ring-mode candidate (the next ring hop on the type's BC
    /// VC), reversing at chain ends.
    fn ring_candidate(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mut out = Candidates::none();
        let Some(mut rs) = st.ring else {
            return out;
        };
        let ctx = &*self.ctx;
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
        self.kind.paper_name()
    }

    fn num_vcs(&self) -> u8 {
        self.bc_base + self.bc_count
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        let mesh = self.ctx.mesh();
        match &self.base {
            Base::Ladder(ladder) => ladder.init(mesh, src, dest),
            Base::Duato { escape, .. } => duato::init(mesh, escape.as_ref(), src, dest),
            _ => MessageState::new(src, dest),
        }
    }

    fn route(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let ctx = &*self.ctx;
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
            let raw = self.candidates(node, st);
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
                .ctx
                .rings()
                .position_on(to, rs.ring)
                .expect("ring hop must land on the ring");
            rs.pos = pos.pos;
        } else {
            self.on_normal_hop(from, to, dir, vc, st);
        }
    }

    fn is_overlay_vc(&self, vc: u8) -> bool {
        vc >= self.bc_base
    }

    fn recheck_wait(&self) -> Option<u32> {
        // Fully-Adaptive's candidate set widens once a blocked header has
        // waited out the misroute patience; the engine must re-route it at
        // that point even though no VC it registered for has freed.
        match self.base {
            Base::Free {
                misroute_limit: Some(_),
                ..
            } => Some(adaptive::MISROUTE_PATIENCE),
            _ => None,
        }
    }
}

/// The paper's VC budget and the accessors the unit tests read.
#[cfg(test)]
impl BoppanaChalasani {
    pub(crate) fn paper(kind: AlgorithmKind, ctx: Arc<RoutingContext>) -> Self {
        BoppanaChalasani::new(kind, ctx, VcConfig::paper())
    }

    pub(crate) fn base_vcs(&self) -> u8 {
        match &self.base {
            Base::Ladder(ladder) => ladder.vcs(),
            Base::Duato { vcs, .. }
            | Base::Free { vcs, .. }
            | Base::Boura { vcs, .. }
            | Base::Turn { vcs, .. } => *vcs,
        }
    }

    fn ladder(&self) -> &Ladder {
        match &self.base {
            Base::Ladder(ladder) => ladder,
            _ => panic!("{} has no class ladder", self.kind),
        }
    }

    pub(crate) fn num_classes(&self) -> u8 {
        self.ladder().classes
    }

    pub(crate) fn vcs_per_class(&self) -> u8 {
        self.ladder().vcs_per_class
    }

    pub(crate) fn escape_vcs(&self) -> u8 {
        match &self.base {
            Base::Duato { escape, .. } => duato::escape_vcs(escape.as_ref()),
            _ => panic!("{} has no escape class", self.kind),
        }
    }

    pub(crate) fn adaptive_vcs(&self) -> u8 {
        self.base_vcs() - self.escape_vcs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        BoppanaChalasani::paper(AlgorithmKind::MinimalAdaptive, ctx)
    }

    #[test]
    fn vc_budget() {
        let (ctx, _) = ctx_with_block();
        let bc = BoppanaChalasani::paper(AlgorithmKind::PHop, ctx);
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
        let bc = BoppanaChalasani::paper(AlgorithmKind::PHop, ctx);
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
