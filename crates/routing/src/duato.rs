//! Duato's methodology and its hop-based escape variants (paper §4.1).
//!
//! Duato's theory (ref [10]) splits the virtual channels into two classes:
//! **class I** (adaptive — any minimal direction, any free VC) and
//! **class II** (escape — driven by a deadlock-free base algorithm). A
//! message may adaptively use class I whenever possible and falls back to
//! class II when class I is exhausted; deadlock freedom follows from the
//! escape network alone.
//!
//! Per the paper's arithmetic on a 10×10 mesh with a 20-VC base budget:
//!
//! - **Duato's routing**: class II = 2 VCs running dimension-order XY,
//!   class I = 18 adaptive VCs.
//! - **Duato-Pbc**: class II = 19 VCs running Pbc, class I = 1 adaptive VC.
//! - **Duato-Nbc**: class II = 10 VCs running Nbc (one VC per class),
//!   class I = 10 adaptive VCs.
//!
//! "Network performance is maximized when the extra virtual channels are
//! added to adaptive virtual channels in class I" (paper §4.1) — hence
//! Duato-Nbc's larger class I is the paper's explanation for its win.

use crate::bonus_cards::{Nbc, Pbc};
use crate::context::RoutingContext;
use crate::state::{CandidateHop, Candidates, MessageState, VcMask};
use crate::traits::BaseRouting;
use std::sync::Arc;
use wormsim_topology::{Direction, NodeId};

/// Which deadlock-free base drives the class-II escape channels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EscapeKind {
    /// Dimension-order (XY) routing on 2 escape VCs.
    Xy,
    /// Pbc on `diameter + 1` escape VCs.
    Pbc,
    /// Nbc on `max_negative_hops_bound + 1` escape VCs (1 VC per class).
    Nbc,
}

enum Escape {
    Xy,
    Pbc(Pbc),
    Nbc(Nbc),
}

/// A Duato-methodology algorithm: adaptive class I over an escape class II.
/// Escape VCs occupy the low indices `0..escape_vcs`; class I occupies
/// `escape_vcs..budget`.
pub struct Duato {
    ctx: Arc<RoutingContext>,
    escape: Escape,
    escape_vcs: u8,
    budget: u8,
    name: &'static str,
}

impl Duato {
    /// Build with `budget` base VCs split between escape and adaptive
    /// channels according to `kind`.
    pub fn new(ctx: Arc<RoutingContext>, budget: u8, kind: EscapeKind) -> Self {
        let (escape, escape_vcs, name) = match kind {
            EscapeKind::Xy => {
                assert!(budget >= 3, "Duato-XY needs ≥ 3 VCs");
                (Escape::Xy, 2, "Duato's routing")
            }
            EscapeKind::Pbc => {
                let needed = (ctx.mesh().diameter() + 1) as u8;
                assert!(
                    budget > needed,
                    "Duato-Pbc needs > {} VCs, got {}",
                    needed,
                    budget
                );
                (
                    Escape::Pbc(Pbc::new(ctx.clone(), needed)),
                    needed,
                    "Duato-Pbc",
                )
            }
            EscapeKind::Nbc => {
                let needed = (ctx.mesh().max_negative_hops_bound() + 1) as u8;
                assert!(
                    budget > needed,
                    "Duato-Nbc needs > {} VCs, got {}",
                    needed,
                    budget
                );
                (
                    Escape::Nbc(Nbc::new(ctx.clone(), needed)),
                    needed,
                    "Duato-Nbc",
                )
            }
        };
        Duato {
            ctx,
            escape,
            escape_vcs,
            budget,
            name,
        }
    }

    /// Number of class-II (escape) VCs.
    pub fn escape_vcs(&self) -> u8 {
        self.escape_vcs
    }

    /// Number of class-I (adaptive) VCs.
    pub fn adaptive_vcs(&self) -> u8 {
        self.budget - self.escape_vcs
    }

    fn adaptive_mask(&self) -> VcMask {
        VcMask::range(self.escape_vcs, self.budget - 1)
    }

    /// The dimension-order (XY) direction toward `dest` from `node`.
    fn xy_direction(&self, node: NodeId, dest: NodeId) -> Option<Direction> {
        let mesh = self.ctx.mesh();
        let (c, d) = (mesh.coord(node), mesh.coord(dest));
        if d.x > c.x {
            Some(Direction::East)
        } else if d.x < c.x {
            Some(Direction::West)
        } else if d.y > c.y {
            Some(Direction::North)
        } else if d.y < c.y {
            Some(Direction::South)
        } else {
            None
        }
    }
}

impl BaseRouting for Duato {
    fn name(&self) -> &'static str {
        self.name
    }

    fn base_vcs(&self) -> u8 {
        self.budget
    }

    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState {
        match &self.escape {
            Escape::Xy => MessageState::new(src, dest),
            Escape::Pbc(p) => p.init_message(src, dest),
            Escape::Nbc(n) => n.init_message(src, dest),
        }
    }

    fn candidates(&self, node: NodeId, st: &mut MessageState) -> Candidates {
        let adaptive = self.adaptive_mask();
        let mut out = Candidates::none();
        // Class I: any minimal direction.
        for dir in self.ctx.mesh().minimal_directions(node, st.dest).iter() {
            out.push(CandidateHop {
                dir,
                preferred: adaptive,
                fallback: VcMask::EMPTY,
            });
        }
        // Class II: the escape discipline's candidates, demoted to fallback.
        match &self.escape {
            Escape::Xy => {
                if let Some(dir) = self.xy_direction(node, st.dest) {
                    out.push(CandidateHop {
                        dir,
                        preferred: VcMask::EMPTY,
                        fallback: VcMask::range(0, 1),
                    });
                }
            }
            Escape::Pbc(p) => {
                for h in p.candidates(node, st).iter() {
                    out.push(CandidateHop {
                        dir: h.dir,
                        preferred: VcMask::EMPTY,
                        fallback: h.preferred,
                    });
                }
            }
            Escape::Nbc(n) => {
                for h in n.candidates(node, st).iter() {
                    out.push(CandidateHop {
                        dir: h.dir,
                        preferred: VcMask::EMPTY,
                        fallback: h.preferred,
                    });
                }
            }
        }
        out
    }

    fn on_normal_hop(
        &self,
        from: NodeId,
        to: NodeId,
        dir: Direction,
        vc: u8,
        st: &mut MessageState,
    ) {
        if vc < self.escape_vcs {
            // Escape hop: let the escape discipline keep its class ladder.
            match &self.escape {
                Escape::Xy => st.normal_hops += 1,
                Escape::Pbc(p) => p.on_normal_hop(from, to, dir, vc, st),
                Escape::Nbc(n) => n.on_normal_hop(from, to, dir, vc, st),
            }
        } else {
            // Adaptive hop: count hops (and negative hops, which raise the
            // Nbc class floor) without advancing the escape class.
            st.normal_hops += 1;
            if let Escape::Nbc(n) = &self.escape {
                let mesh = self.ctx.mesh();
                if mesh.color(from) > mesh.color(to) {
                    st.negative_hops = (st.negative_hops + 1).min(n.num_classes() - 1);
                }
            }
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
    fn vc_splits_match_paper() {
        let d = Duato::new(ctx(), 20, EscapeKind::Xy);
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (2, 18));
        let d = Duato::new(ctx(), 20, EscapeKind::Pbc);
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (19, 1));
        let d = Duato::new(ctx(), 20, EscapeKind::Nbc);
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (10, 10));
    }

    #[test]
    fn adaptive_preferred_escape_fallback() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Xy);
        let mut st = d.init_message(mesh.node(0, 0), mesh.node(5, 5));
        let cands = d.candidates(mesh.node(0, 0), &mut st);
        // Two minimal dirs; East additionally carries the XY escape.
        assert_eq!(cands.len(), 2);
        let east = cands.for_dir(Direction::East).unwrap();
        assert_eq!(east.preferred, VcMask::range(2, 19));
        assert_eq!(east.fallback, VcMask::range(0, 1));
        let north = cands.for_dir(Direction::North).unwrap();
        assert_eq!(north.preferred, VcMask::range(2, 19));
        assert!(north.fallback.is_empty());
    }

    #[test]
    fn xy_escape_prefers_x_dimension_first() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Xy);
        // Same column → escape goes along Y.
        let mut st = d.init_message(mesh.node(4, 2), mesh.node(4, 8));
        let cands = d.candidates(mesh.node(4, 2), &mut st);
        let north = cands.for_dir(Direction::North).unwrap();
        assert_eq!(north.fallback, VcMask::range(0, 1));
    }

    #[test]
    fn duato_nbc_escape_mask_is_class_scaled() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Nbc);
        // src color 0, dest distance 1 on color 1 → required 0, bonus 9.
        let mut st = d.init_message(mesh.node(0, 0), mesh.node(1, 0));
        let cands = d.candidates(mesh.node(0, 0), &mut st);
        let east = cands.for_dir(Direction::East).unwrap();
        // Escape classes 0..=9, one VC per class → fallback VCs 0..=9.
        assert_eq!(east.fallback, VcMask::range(0, 9));
        // Adaptive tier sits above the escape VCs.
        assert_eq!(east.preferred, VcMask::range(10, 19));
    }

    #[test]
    fn escape_hop_advances_class_adaptive_hop_does_not() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Pbc);
        let mut st = d.init_message(mesh.node(0, 0), mesh.node(3, 0));
        // Adaptive hop (vc 19).
        d.on_normal_hop(
            mesh.node(0, 0),
            mesh.node(1, 0),
            Direction::East,
            19,
            &mut st,
        );
        assert_eq!(st.next_class_min, 0);
        assert_eq!(st.normal_hops, 1);
        // Escape hop on class 2 (vc 2).
        d.on_normal_hop(
            mesh.node(1, 0),
            mesh.node(2, 0),
            Direction::East,
            2,
            &mut st,
        );
        assert_eq!(st.next_class_min, 3);
        assert_eq!(st.normal_hops, 2);
    }

    #[test]
    fn adaptive_hop_still_raises_nbc_class_floor() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Nbc);
        let mut st = d.init_message(mesh.node(1, 0), mesh.node(3, 0));
        // (1,0) is color 1 → hop to (2,0) color 0 is negative, taken on an
        // adaptive VC.
        d.on_normal_hop(
            mesh.node(1, 0),
            mesh.node(2, 0),
            Direction::East,
            15,
            &mut st,
        );
        assert_eq!(st.negative_hops, 1);
    }

    #[test]
    fn at_destination_no_escape_candidate() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = Duato::new(c, 20, EscapeKind::Xy);
        let n = mesh.node(3, 3);
        let mut st = d.init_message(n, n);
        let cands = d.candidates(n, &mut st);
        assert!(cands.is_empty());
    }
}
