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

use crate::context::RoutingContext;
use crate::state::{Candidates, MessageState, VcMask};
use crate::traits::BaseRouting;
use std::sync::Arc;
use wormsim_topology::{Direction, NodeId, ALL_DIRECTIONS};

/// Minimal adaptive routing: any shortest-path direction, any VC.
pub struct MinimalAdaptive {
    ctx: Arc<RoutingContext>,
    vcs: u8,
}

impl MinimalAdaptive {
    /// Build with `budget` freely usable VCs.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8) -> Self {
        assert!(budget >= 1);
        MinimalAdaptive { ctx, vcs: budget }
    }
}

impl BaseRouting for MinimalAdaptive {
    fn name(&self) -> &'static str {
        "Minimal-Adaptive"
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

/// Fully adaptive routing with bounded misrouting.
pub struct FullyAdaptive {
    ctx: Arc<RoutingContext>,
    vcs: u8,
    misroute_limit: u8,
    /// Cycles a header must be blocked before misrouting unlocks.
    misroute_patience: u32,
}

impl FullyAdaptive {
    /// Build with `budget` freely usable VCs and the paper's misroute cap.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8, misroute_limit: u8) -> Self {
        assert!(budget >= 1);
        FullyAdaptive {
            ctx,
            vcs: budget,
            misroute_limit,
            misroute_patience: 8,
        }
    }

    /// Override the blocked-cycles threshold before misrouting unlocks.
    pub fn with_patience(mut self, cycles: u32) -> Self {
        self.misroute_patience = cycles;
        self
    }

    /// The configured misroute cap.
    pub fn misroute_limit(&self) -> u8 {
        self.misroute_limit
    }
}

impl BaseRouting for FullyAdaptive {
    fn name(&self) -> &'static str {
        "Fully-Adaptive"
    }

    fn base_vcs(&self) -> u8 {
        self.vcs
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        MessageState::new(src, dest)
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let mesh = self.ctx.mesh();
        let mask = VcMask::range(0, self.vcs - 1);
        let minimal = mesh.minimal_directions(node, st.dest);
        let mut out = Candidates::none();
        for dir in minimal.iter() {
            out.push_simple(dir, mask);
        }
        // Misrouting unlocks only after sustained blocking, and never undoes
        // the immediately preceding hop (guards against trivial ping-pong
        // livelock; the global cap guarantees progress regardless).
        if st.wait_cycles >= self.misroute_patience && st.misroutes < self.misroute_limit {
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
        if mesh.distance(to, st.dest) > mesh.distance(from, st.dest) {
            st.misroutes = st.misroutes.saturating_add(1);
        }
    }

    fn recheck_wait(&self) -> Option<u32> {
        // The candidate set widens once a blocked header has waited out the
        // misroute patience; the engine must re-route it at that point even
        // though no VC it registered for has freed.
        Some(self.misroute_patience)
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
    fn minimal_adaptive_full_mask_minimal_dirs() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = MinimalAdaptive::new(c, 20);
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
        let a = FullyAdaptive::new(c, 20, 10);
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        let cands = a.candidates(mesh.node(5, 5), &mut st);
        assert_eq!(cands.len(), 1); // East only
        assert_eq!(cands.iter().next().unwrap().dir, Direction::East);
    }

    #[test]
    fn fully_adaptive_misroutes_after_patience() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let a = FullyAdaptive::new(c, 20, 10).with_patience(4);
        let mut st = a.init_message(mesh.node(5, 5), mesh.node(9, 5));
        st.wait_cycles = 4;
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
        let a = FullyAdaptive::new(c, 20, 2).with_patience(0);
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
        let a = FullyAdaptive::new(c, 20, 10);
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
        let a = FullyAdaptive::new(c, 20, 10).with_patience(0);
        let mut st = a.init_message(mesh.node(0, 0), mesh.node(9, 0));
        st.wait_cycles = 10;
        let cands = a.candidates(mesh.node(0, 0), &mut st);
        for h in cands.iter() {
            assert!(mesh.neighbor(mesh.node(0, 0), h.dir).is_some());
        }
    }
}
