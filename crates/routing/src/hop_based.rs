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

use crate::context::RoutingContext;
use crate::state::{Candidates, MessageState, VcMask};
use crate::traits::BaseRouting;
use std::sync::Arc;
use wormsim_topology::{Direction, NodeId};

/// Positive-Hop routing: buffer class = hops taken.
pub struct PHop {
    ctx: Arc<RoutingContext>,
    /// Number of hop classes (`diameter + 1`).
    classes: u8,
}

impl PHop {
    /// Build with `budget` base VCs; requires `budget ≥ diameter + 1`.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        let classes = (ctx.mesh().diameter() + 1) as u8;
        assert!(
            budget >= classes,
            "PHop needs {} VCs (diameter+1), got {}",
            classes,
            budget
        );
        PHop { ctx, classes }
    }

    /// Number of hop classes.
    pub fn num_classes(&self) -> u8 {
        self.classes
    }

    /// The class the next hop must use, clamped to the top class (clamping
    /// only engages for messages lengthened past the diameter by f-ring
    /// detours; see DESIGN.md §3.3).
    fn next_class(&self, st: &MessageState) -> u8 {
        (st.normal_hops.min(self.classes as u16 - 1)) as u8
    }
}

impl BaseRouting for PHop {
    fn name(&self) -> &'static str {
        "PHop"
    }

    fn base_vcs(&self) -> u8 {
        self.classes
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mask = VcMask::bit(self.next_class(st));
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

/// Negative-Hop routing: buffer class = negative hops taken.
pub struct NHop {
    ctx: Arc<RoutingContext>,
    /// Number of negative-hop classes (`1 + ⌈diameter/2⌉`... computed from
    /// the mesh's checkerboard bound).
    classes: u8,
    /// VCs per class (`budget / classes`, paper: 2).
    vcs_per_class: u8,
}

impl NHop {
    /// Build with `budget` base VCs; requires `budget ≥ classes`. Extra
    /// budget is spread evenly: `vcs_per_class = budget / classes`.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        let classes = (ctx.mesh().max_negative_hops_bound() + 1) as u8;
        assert!(
            budget >= classes,
            "NHop needs {} VCs, got {}",
            classes,
            budget
        );
        let vcs_per_class = budget / classes;
        NHop {
            ctx,
            classes,
            vcs_per_class,
        }
    }

    /// Number of negative-hop classes.
    pub fn num_classes(&self) -> u8 {
        self.classes
    }

    /// VCs allotted to each class.
    pub fn vcs_per_class(&self) -> u8 {
        self.vcs_per_class
    }

    fn class_mask(&self, class: u8) -> VcMask {
        let lo = class * self.vcs_per_class;
        VcMask::range(lo, lo + self.vcs_per_class - 1)
    }

    fn next_class(&self, st: &MessageState) -> u8 {
        st.negative_hops.min(self.classes - 1)
    }
}

impl BaseRouting for NHop {
    fn name(&self) -> &'static str {
        "NHop"
    }

    fn base_vcs(&self) -> u8 {
        self.classes * self.vcs_per_class
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mask = self.class_mask(self.next_class(st));
        let mut out = Candidates::none();
        for dir in self.ctx.mesh().minimal_directions(node, st.dest).iter() {
            out.push_simple(dir, mask);
        }
        out
    }

    fn on_normal_hop(
        &self,
        from: NodeId,
        to: NodeId,
        _dir: Direction,
        _vc: u8,
        st: &mut MessageState,
    ) {
        st.normal_hops += 1;
        let mesh = self.ctx.mesh();
        if mesh.color(from) > mesh.color(to) {
            st.negative_hops = (st.negative_hops + 1).min(self.classes - 1);
        }
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
    fn phop_class_counts() {
        let p = PHop::new(ctx(), 20);
        assert_eq!(p.num_classes(), 19); // paper: n(k-1)+1 = 19
        assert_eq!(p.base_vcs(), 19);
    }

    #[test]
    #[should_panic(expected = "PHop needs")]
    fn phop_insufficient_budget_panics() {
        PHop::new(ctx(), 10);
    }

    #[test]
    fn phop_uses_class_equal_to_hops() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let p = PHop::new(c, 20);
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
        let p = PHop::new(c, 20);
        let mut st = p.init_message(mesh.node(0, 0), mesh.node(9, 9));
        st.normal_hops = 40; // pretend heavy detours
        let cands = p.candidates(mesh.node(5, 5), &mut st);
        for h in cands.iter() {
            assert_eq!(h.preferred, VcMask::bit(18));
        }
    }

    #[test]
    fn nhop_class_counts() {
        let n = NHop::new(ctx(), 20);
        assert_eq!(n.num_classes(), 10); // paper: 1 + floor(n(k-1)/2) = 10
        assert_eq!(n.vcs_per_class(), 2);
        assert_eq!(n.base_vcs(), 20);
    }

    #[test]
    fn nhop_counts_only_negative_hops() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let n = NHop::new(c, 20);
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
        let n = NHop::new(c, 20);
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
        let n = NHop::new(c, 20);
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
