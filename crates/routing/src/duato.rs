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

use crate::hop_based::Ladder;
use crate::state::{CandidateHop, Candidates, MessageState, VcMask};
use crate::turn_model::TurnModelKind;
use wormsim_topology::{Mesh, NodeId};

/// Escape VCs of Duato's routing, which runs XY on them.
const XY_ESCAPE_VCS: u8 = 2;

/// Class-II VCs: the low indices `0..escape_vcs`, under the escape ladder
/// (`None`: XY). Class I occupies the rest of the base budget.
pub(crate) fn escape_vcs(escape: Option<&Ladder>) -> u8 {
    escape.map_or(XY_ESCAPE_VCS, Ladder::vcs)
}

/// Fresh state: the escape ladder's, bonus cards included.
pub(crate) fn init(
    mesh: &Mesh,
    escape: Option<&Ladder>,
    src: NodeId,
    dest: NodeId,
) -> MessageState {
    escape.map_or(MessageState::new(src, dest), |l| l.init(mesh, src, dest))
}

/// Class I on every minimal direction as the preferred tier; class II, the
/// escape discipline's candidates, as the fallback tier of its directions.
pub(crate) fn candidates(
    mesh: &Mesh,
    escape: Option<&Ladder>,
    vcs: u8,
    node: NodeId,
    st: &MessageState,
) -> Candidates {
    let adaptive = VcMask::range(escape_vcs(escape), vcs - 1);
    let minimal = mesh.minimal_directions(node, st.dest);
    let (escape_dirs, escape_mask) = match escape {
        Some(ladder) => (minimal, ladder.mask(st)),
        None => (
            TurnModelKind::Xy.permitted(minimal),
            VcMask::range(0, XY_ESCAPE_VCS - 1),
        ),
    };
    let mut out = Candidates::none();
    for dir in minimal.iter() {
        out.push(CandidateHop {
            dir,
            preferred: adaptive,
            fallback: if escape_dirs.contains(dir) {
                escape_mask
            } else {
                VcMask::EMPTY
            },
        });
    }
    out
}

/// An escape hop climbs the escape ladder; an adaptive hop only counts
/// (negative hops still raise the Nbc class floor).
pub(crate) fn on_hop(
    mesh: &Mesh,
    escape: Option<&Ladder>,
    from: NodeId,
    to: NodeId,
    vc: u8,
    st: &mut MessageState,
) {
    match escape {
        Some(ladder) if vc < ladder.vcs() => ladder.on_hop(mesh, from, to, vc, st),
        Some(ladder) => ladder.count(mesh, from, to, st),
        None => st.normal_hops += 1,
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
    fn vc_splits_match_paper() {
        let d = BoppanaChalasani::paper(AlgorithmKind::Duato, ctx());
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (2, 18));
        let d = BoppanaChalasani::paper(AlgorithmKind::DuatoPbc, ctx());
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (19, 1));
        let d = BoppanaChalasani::paper(AlgorithmKind::DuatoNbc, ctx());
        assert_eq!((d.escape_vcs(), d.adaptive_vcs()), (10, 10));
    }

    #[test]
    fn adaptive_preferred_escape_fallback() {
        let c = ctx();
        let mesh = c.mesh().clone();
        let d = BoppanaChalasani::paper(AlgorithmKind::Duato, c);
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
        let d = BoppanaChalasani::paper(AlgorithmKind::Duato, c);
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
        let d = BoppanaChalasani::paper(AlgorithmKind::DuatoNbc, c);
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
        let d = BoppanaChalasani::paper(AlgorithmKind::DuatoPbc, c);
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
        let d = BoppanaChalasani::paper(AlgorithmKind::DuatoNbc, c);
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
        let d = BoppanaChalasani::paper(AlgorithmKind::Duato, c);
        let n = mesh.node(3, 3);
        let mut st = d.init_message(n, n);
        let cands = d.candidates(n, &mut st);
        assert!(cands.is_empty());
    }
}
