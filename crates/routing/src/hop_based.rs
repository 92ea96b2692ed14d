//! The two hop-based fully adaptive disciplines: Positive-Hop and
//! Negative-Hop (paper §3, ref [9]).
//!
//! Both provide minimal fully adaptive routing whose deadlock freedom comes
//! from messages climbing a ladder of buffer classes:
//!
//! - **PHop**: a message that has taken `i` hops occupies a class-`i`
//!   buffer. Classes strictly increase along any path, so the class graph
//!   is acyclic. Needs `n(k−1)+1` classes — 19 on a 10×10 mesh.
//! - **NHop**: the mesh is checkerboard-colored; a hop from a higher to a
//!   lower label is *negative*, and a message that has taken `i` negative
//!   hops uses class-`i` channels for its next hop. Needs
//!   `1 + ⌊n(k−1)/2⌋` classes — 10 on a 10×10 mesh, so with the same VC
//!   budget each class gets 2 VCs (paper §5: "12 classes … 2 virtual
//!   channels" arithmetic normalized to 10 × 2 + 4 BC = 24).
//!
//! One [`Ladder`] serves both, their bonus-card variants (`cards`, see
//! `bonus_cards.rs`) and the escape class of Duato-Pbc and Duato-Nbc.

use crate::state::{Candidates, MessageState, VcMask};
use wormsim_topology::{Mesh, NodeId};

/// A ladder of buffer classes, climbed by hops (PHop, Pbc) or by negative
/// hops (NHop, Nbc). Class `c` owns VCs `c·vcs_per_class ..
/// (c+1)·vcs_per_class`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ladder {
    /// Whether the class counts negative hops (NHop) rather than hops (PHop).
    pub(crate) negative: bool,
    /// Whether bonus cards widen the class range (Pbc, Nbc).
    pub(crate) cards: bool,
    /// Number of classes: `diameter + 1` for hops, `1 + ⌊n(k−1)/2⌋` for
    /// negative hops.
    pub(crate) classes: u8,
    /// VCs per class.
    pub(crate) vcs_per_class: u8,
}

impl Ladder {
    /// The ladder on `mesh`, one VC per class.
    pub(crate) fn new(mesh: &Mesh, negative: bool, cards: bool) -> Ladder {
        let top = if negative {
            mesh.max_negative_hops_bound()
        } else {
            mesh.diameter()
        };
        Ladder {
            negative,
            cards,
            classes: (top + 1) as u8,
            vcs_per_class: 1,
        }
    }

    /// Spread a base budget evenly over the classes (NHop and Nbc: 20 VCs
    /// over 10 classes is 2 per class). PHop keeps one VC per class and
    /// leaves its spare VCs idle, as the paper's 19 of 20 does.
    pub(crate) fn spread(self, budget: u8) -> Ladder {
        Ladder {
            vcs_per_class: budget / self.classes,
            ..self
        }
    }

    /// VCs the ladder occupies.
    pub(crate) fn vcs(&self) -> u8 {
        self.classes * self.vcs_per_class
    }

    /// Fresh state for a message from `src` to `dest`, holding its bonus
    /// cards when the ladder deals them.
    pub(crate) fn init(&self, mesh: &Mesh, src: NodeId, dest: NodeId) -> MessageState {
        let mut st = MessageState::new(src, dest);
        if self.cards {
            st.bonus = self.bonus(mesh, src, dest);
        }
        st
    }

    /// The VCs the next hop may use. Without cards the class is the count
    /// of (negative) hops taken, clamped to the top class: clamping only
    /// engages for messages lengthened past the diameter by f-ring detours
    /// (DESIGN.md §3.3).
    pub(crate) fn mask(&self, st: &MessageState) -> VcMask {
        let (lo, hi) = if self.cards {
            self.card_range(st)
        } else {
            let need = self.counted(st).min(u32::from(self.classes - 1)) as u8;
            (need, need)
        };
        VcMask::range(lo * self.vcs_per_class, (hi + 1) * self.vcs_per_class - 1)
    }

    /// Every minimal direction, on the class range of [`Ladder::mask`].
    pub(crate) fn candidates(&self, mesh: &Mesh, node: NodeId, st: &MessageState) -> Candidates {
        let mask = self.mask(st);
        let mut out = Candidates::none();
        for dir in mesh.minimal_directions(node, st.dest).iter() {
            out.push_simple(dir, mask);
        }
        out
    }

    /// The hops (or negative hops) the class follows.
    pub(crate) fn counted(&self, st: &MessageState) -> u32 {
        if self.negative {
            u32::from(st.negative_hops)
        } else {
            u32::from(st.normal_hops)
        }
    }

    /// Count a normal-mode hop `from → to`: every hop, and the negative
    /// ones on a negative-hop ladder. Duato's class-I hops count this way
    /// too, without climbing the escape ladder.
    pub(crate) fn count(&self, mesh: &Mesh, from: NodeId, to: NodeId, st: &mut MessageState) {
        st.normal_hops += 1;
        if self.negative && mesh.color(from) > mesh.color(to) {
            st.negative_hops = (st.negative_hops + 1).min(self.classes - 1);
        }
    }

    /// Commit a normal-mode hop on ladder VC `vc`.
    pub(crate) fn on_hop(
        &self,
        mesh: &Mesh,
        from: NodeId,
        to: NodeId,
        vc: u8,
        st: &mut MessageState,
    ) {
        self.count(mesh, from, to, st);
        if self.cards {
            // The floor of the next hop: the class above the one just used
            // on a hop ladder, but the same class on a negative-hop ladder,
            // so Nbc may stay in its class after a negative hop and close a
            // cycle (ROADMAP.md, C4 (a)).
            let class = vc / self.vcs_per_class;
            st.next_class_min = (class + u8::from(!self.negative)).min(self.classes - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, BoppanaChalasani, RoutingAlgorithm, RoutingContext};
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
    fn phop_class_counts() {
        let p = BoppanaChalasani::paper(AlgorithmKind::PHop, ctx());
        assert_eq!(p.num_classes(), 19); // paper: n(k-1)+1 = 19
        assert_eq!(p.base_vcs(), 19);
    }

    #[test]
    #[should_panic(expected = "PHop needs")]
    fn phop_insufficient_budget_panics() {
        crate::build_algorithm(AlgorithmKind::PHop, ctx(), crate::VcConfig::with_total(14));
    }

    #[test]
    fn phop_uses_class_equal_to_hops() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::PHop, c);
        let mut st = p.init_message(mesh.node(0, 0), mesh.node(3, 3));
        let cands = p.candidates(mesh.node(0, 0), &mut st);
        assert_eq!(cands.len(), 2);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::bit(0));
            assert!(h.fallback.is_empty());
        }
        // After two hops the class is 2.
        p.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            0,
            &mut st,
        );
        p.on_normal_hop(
            mesh.node(1, 0),
            mesh.node(2, 0),
            Direction::East,
            1,
            &mut st,
        );
        let cands = p.candidates(mesh.node(2, 0), &mut st);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::bit(2));
        }
    }

    #[test]
    fn phop_class_clamps_at_top() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::PHop, c);
        let mut st = p.init_message(mesh.node(0, 0), mesh.node(9, 9));
        st.normal_hops = 40; // pretend heavy detours
        let cands = p.candidates(mesh.node(5, 5), &mut st);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::bit(18));
        }
    }

    #[test]
    fn nhop_class_counts() {
        let n = BoppanaChalasani::paper(AlgorithmKind::NHop, ctx());
        assert_eq!(n.num_classes(), 10); // paper: 1 + floor(n(k-1)/2) = 10
        assert_eq!(n.vcs_per_class(), 2);
        assert_eq!(n.base_vcs(), 20);
    }

    #[test]
    fn nhop_counts_only_negative_hops() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::NHop, c);
        let mut st = n.init_message(mesh.node(0, 0), mesh.node(9, 9));
        // (0,0) has color 0 → first hop (to color 1) is non-negative.
        n.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            0,
            &mut st,
        );
        assert_eq!(st.negative_hops, 0);
        // (1,0) color 1 → (2,0) color 0 is negative.
        n.on_normal_hop(
            mesh.node(1, 0),
            mesh.node(2, 0),
            Direction::East,
            0,
            &mut st,
        );
        assert_eq!(st.negative_hops, 1);
        let cands = n.candidates(mesh.node(2, 0), &mut st);
        for h in cands.iter() {
            // Class 1 → VCs {2,3}.
            assert_eq!(h.preferred, VcMask::range(2, 3));
        }
    }

    #[test]
    fn nhop_minimal_directions_only() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::NHop, c);
        let mut st = n.init_message(mesh.node(5, 5), mesh.node(2, 5));
        let cands = n.candidates(mesh.node(5, 5), &mut st);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.iter().next().unwrap().dir, Direction::West);
    }

    #[test]
    fn nhop_negative_bound_on_minimal_paths() {
        // Walk an actual minimal path and verify the class never exceeds
        // the class count.
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::NHop, c);
        let (src, dest) = (mesh.node(1, 0), mesh.node(9, 9));
        let mut st = n.init_message(src, dest);
        let mut cur = src;
        while cur != dest {
            let d = mesh.minimal_directions(cur, dest).iter().next().unwrap();
            let next = mesh.neighbor(cur, d).unwrap();
            n.on_normal_hop(cur, next, d, 0, &mut st);
            cur = next;
        }
        assert!(st.negative_hops < n.num_classes());
    }
}
