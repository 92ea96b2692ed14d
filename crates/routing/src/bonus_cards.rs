//! Bonus-card modifications of the hop-based routings (paper §4).
//!
//! PHop/NHop under-use high-numbered virtual channels: every message starts
//! in class 0 and few ever reach the top classes. Bonus cards widen the
//! choice: a message that will take fewer hops (or negative hops) than the
//! worst case receives the difference as *bonus cards* and may run ahead of
//! its required class by up to that many classes.
//!
//! Formally (following the framework of ref [9]): let `req` be the class
//! the unmodified algorithm would require next and `b` the initial card
//! count. The next hop may use any class `c` with
//! `prev_constraint ≤ c ≤ req + b`; the slack `c − req` is the number of
//! cards currently "in use", so the bound never exceeds the algorithm's
//! class count. Classes remain monotonic, preserving the deadlock-freedom
//! arguments of the base algorithms.

use crate::hop_based::Ladder;
use crate::state::MessageState;
use wormsim_topology::{Mesh, NodeId};

/// The card rules of Pbc and Nbc, and of the Duato escapes built on them.
impl Ladder {
    /// The cards a message from `src` to `dest` receives: Pbc gets
    /// `diameter − dist(src, dest)`, Nbc `max_negative_hops_bound −
    /// required_negatives` (required negatives on a minimal path are exact
    /// under the checkerboard coloring).
    pub(crate) fn bonus(&self, mesh: &Mesh, src: NodeId, dest: NodeId) -> u8 {
        if self.negative {
            (mesh.max_negative_hops_bound() - mesh.max_negative_hops(src, dest)) as u8
        } else {
            (mesh.diameter() - mesh.distance(src, dest)) as u8
        }
    }

    /// Allowed class range for the next hop: Pbc's `[prev_class+1, h + b]`,
    /// Nbc's `[max(prev_class, neg), neg + b]`, both within the ladder.
    pub(crate) fn card_range(&self, st: &MessageState) -> (u8, u8) {
        let top = self.classes - 1;
        let floor = if self.negative {
            st.next_class_min.max(st.negative_hops)
        } else {
            st.next_class_min
        };
        let lo = floor.min(top);
        let hi = (self.counted(st) + u32::from(st.bonus)).min(u32::from(top)) as u8;
        (lo, hi.max(lo))
    }
}

#[cfg(test)]
mod tests {
    use crate::{AlgorithmKind, BoppanaChalasani, RoutingAlgorithm, RoutingContext, VcMask};
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
    fn pbc_bonus_is_diameter_minus_distance() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::Pbc, c);
        let st = p.init_message(mesh.node(0, 0), mesh.node(2, 1));
        assert_eq!(st.bonus, 18 - 3);
        let st2 = p.init_message(mesh.node(0, 0), mesh.node(9, 9));
        assert_eq!(st2.bonus, 0);
    }

    #[test]
    fn pbc_first_hop_uses_classes_zero_to_b() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::Pbc, c);
        let mut st = p.init_message(mesh.node(4, 4), mesh.node(6, 4)); // dist 2, b=16
        let cands = p.candidates(mesh.node(4, 4), &mut st);
        let h = cands.iter().next().unwrap();
        assert_eq!(h.preferred, VcMask::range(0, 16));
    }

    #[test]
    fn pbc_without_bonus_behaves_like_phop() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::Pbc, c);
        // Corner-to-corner: distance = diameter → zero cards.
        let mut st = p.init_message(mesh.node(0, 0), mesh.node(9, 9));
        let cands = p.candidates(mesh.node(0, 0), &mut st);
        assert_eq!(cands.iter().next().unwrap().preferred, VcMask::bit(0));
        p.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            0,
            &mut st,
        );
        let cands = p.candidates(mesh.node(1, 0), &mut st);
        assert_eq!(cands.iter().next().unwrap().preferred, VcMask::bit(1));
    }

    #[test]
    fn pbc_classes_strictly_increase() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::Pbc, c);
        let mut st = p.init_message(mesh.node(0, 0), mesh.node(3, 0)); // b = 15
                                                                       // Jump straight to class 10 on the first hop.
        p.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            10,
            &mut st,
        );
        let cands = p.candidates(mesh.node(1, 0), &mut st);
        let h = cands.iter().next().unwrap();
        // lo = 11; hi = hops(1) + b(15) = 16.
        assert_eq!(h.preferred, VcMask::range(11, 16));
    }

    #[test]
    fn nbc_bonus_from_negative_requirements() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::Nbc, c);
        // (0,0)→(9,9): required negatives 9 of bound 9 → no cards.
        let st = n.init_message(mesh.node(0, 0), mesh.node(9, 9));
        assert_eq!(st.bonus, 0);
        // (0,0)→(1,0): color0→color1, distance 1, required 0 → 9 cards.
        let st2 = n.init_message(mesh.node(0, 0), mesh.node(1, 0));
        assert_eq!(st2.bonus, 9);
    }

    #[test]
    fn nbc_first_hop_mask_covers_bonus_classes() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::Nbc, c);
        let mut st = n.init_message(mesh.node(0, 0), mesh.node(1, 0)); // b=9
        let cands = n.candidates(mesh.node(0, 0), &mut st);
        let h = cands.iter().next().unwrap();
        // Classes 0..=9, 2 VCs each → VCs 0..=19.
        assert_eq!(h.preferred, VcMask::range(0, 19));
    }

    #[test]
    fn nbc_class_monotonic_and_requirement_bound() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = BoppanaChalasani::paper(AlgorithmKind::Nbc, c);
        let mut st = n.init_message(mesh.node(0, 0), mesh.node(4, 0)); // b = 9 - 2 = 7
        assert_eq!(st.bonus, 7);
        // Take a hop on class 3 (VC 6).
        n.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            6,
            &mut st,
        );
        let cands = n.candidates(mesh.node(1, 0), &mut st);
        let h = cands.iter().next().unwrap();
        // lo = max(prev class 3, neg 0) = 3; hi = 0 + 7 = 7 → VCs 6..=15.
        assert_eq!(h.preferred, VcMask::range(6, 15));
        // Negative hop raises the requirement floor.
        n.on_normal_hop(
            mesh.node(1, 0),
            mesh.node(2, 0),
            Direction::East,
            6,
            &mut st,
        );
        assert_eq!(st.negative_hops, 1);
        let cands = n.candidates(mesh.node(2, 0), &mut st);
        let h = cands.iter().next().unwrap();
        // lo = max(3, 1) = 3; hi = 1 + 7 = 8 → VCs 6..=17.
        assert_eq!(h.preferred, VcMask::range(6, 17));
    }

    #[test]
    fn ranges_stay_within_class_space_under_detours() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = BoppanaChalasani::paper(AlgorithmKind::Pbc, c.clone());
        let n = BoppanaChalasani::paper(AlgorithmKind::Nbc, c);
        let mut stp = p.init_message(mesh.node(0, 0), mesh.node(5, 0));
        stp.normal_hops = 100; // simulated long detour
        stp.next_class_min = 30;
        let (lo, hi) = (18u8, 18u8);
        let cands = p.candidates(mesh.node(4, 0), &mut stp);
        assert_eq!(
            cands.iter().next().unwrap().preferred,
            VcMask::range(lo, hi)
        );
        let mut stn = n.init_message(mesh.node(0, 0), mesh.node(5, 0));
        stn.negative_hops = 9;
        stn.next_class_min = 9;
        let cands = n.candidates(mesh.node(4, 0), &mut stn);
        assert_eq!(
            cands.iter().next().unwrap().preferred,
            VcMask::range(18, 19)
        );
    }
}
