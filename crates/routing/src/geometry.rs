//! The static part of a routing decision, computed per query.
//!
//! Everything a decision needs that is a pure function of *(node, dest,
//! fault pattern)*: the healthy-minimal direction set, the blocked-by-fault
//! flag, the safe-labeled direction set (Boura fault-tolerant tiering), and
//! — for blocked pairs — the complete Boppana–Chalasani ring-entry state
//! ([`RingState`]: blocking region, ring position, traversal orientation,
//! message type, entry distance). Each is what a node can see locally: its
//! neighbours' fault status, its f-ring, its label. [`RoutingContext`]'s
//! query methods call these functions directly; nothing is stored.
//!
//! What stays in the algorithms is the *dynamic* part — VC-class mask
//! arithmetic (PHop/NHop ladders, bonus cards, Duato tiers) and the
//! misroute-patience widening — which depends on per-message state.
//!
//! [`RoutingContext`]: crate::RoutingContext

use crate::state::{MessageType, RingState};
use wormsim_fault::{FRingSet, FaultPattern, NodeLabeling, Orientation};
use wormsim_topology::{Coord, DirectionSet, Mesh, NodeId, Rect, ALL_DIRECTIONS};

/// Minimal directions from `node` toward `dest` whose next node is
/// fault-free.
pub(crate) fn compute_healthy_minimal(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
) -> DirectionSet {
    mesh.minimal_directions(node, dest)
        .iter()
        .filter(|&d| {
            mesh.neighbor(node, d)
                .is_some_and(|v| !pattern.is_faulty(v))
        })
        .collect()
}

/// Whether a message at `node` heading to `dest` is blocked by faults.
pub(crate) fn compute_blocked(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
) -> bool {
    node != dest
        && !mesh.minimal_directions(node, dest).is_empty()
        && compute_healthy_minimal(mesh, pattern, node, dest).is_empty()
}

/// Directions from `node` whose neighbor is fault-free **and** safe under
/// the Boura–Das labeling.
pub(crate) fn compute_safe_dirs(
    mesh: &Mesh,
    pattern: &FaultPattern,
    labeling: &NodeLabeling,
    node: NodeId,
) -> DirectionSet {
    ALL_DIRECTIONS
        .into_iter()
        .filter(|&d| {
            mesh.neighbor(node, d)
                .is_some_and(|v| !pattern.is_faulty(v) && labeling.is_safe(v))
        })
        .collect()
}

/// Which side of a fault region the BC detour should pass.
#[derive(Clone, Copy)]
enum Side {
    North,
    South,
    East,
    West,
}

#[inline]
fn on_side(c: Coord, rect: &Rect, side: Side) -> bool {
    match side {
        Side::North => c.y > rect.max.y,
        Side::South => c.y < rect.min.y,
        Side::East => c.x > rect.max.x,
        Side::West => c.x < rect.min.x,
    }
}

/// Whether a ring node offers an exit for a message to `dest` that entered
/// the ring at `entry_distance`: the destination itself, or strictly closer
/// than the entry point with healthy minimal progress available.
fn compute_is_exit(
    mesh: &Mesh,
    pattern: &FaultPattern,
    node: NodeId,
    dest: NodeId,
    entry_distance: u32,
) -> bool {
    node == dest
        || (mesh.distance(node, dest) < entry_distance
            && !compute_healthy_minimal(mesh, pattern, node, dest).is_empty())
}

/// The complete BC ring-entry state for a message blocked at `node` bound
/// for `dest`: the blocking region, the node's position on its f-ring, the
/// message type, the entry distance, and the traversal orientation chosen
/// by the geometric side rule (nearer side in ring steps, clockwise on
/// ties, nearest-usable-exit fallback on boundary chains). `None` when the
/// pair is not actually blocked or the node is not on the blocking ring
/// (never the case for reachable simulation states).
pub(crate) fn compute_ring_entry(
    mesh: &Mesh,
    pattern: &FaultPattern,
    rings: &FRingSet,
    node: NodeId,
    dest: NodeId,
) -> Option<RingState> {
    if !compute_blocked(mesh, pattern, node, dest) {
        return None;
    }
    // The blocking region: any minimal direction leads into a fault.
    let blocking = mesh.minimal_directions(node, dest).iter().find_map(|d| {
        let v = mesh.neighbor(node, d)?;
        pattern.is_faulty(v).then(|| pattern.region_of(v))?
    })?;
    let pos = rings.position_on(node, blocking)?;
    let (c, d) = (mesh.coord(node), mesh.coord(dest));
    let mtype = MessageType::classify((c.x, c.y), (d.x, d.y));
    let entry_distance = mesh.distance(node, dest);
    let orient = choose_orientation(
        mesh,
        pattern,
        rings,
        blocking,
        pos.pos,
        dest,
        entry_distance,
        mtype,
        c,
        d,
    );
    Some(RingState {
        ring: blocking,
        pos: pos.pos,
        orient,
        mtype,
        entry_distance,
    })
}

/// Pick the traversal orientation per the BC geometric rule: a row message
/// (WE/EW) goes around the side of the region its destination row lies on
/// (north/south), a column message around the east/west side its
/// destination column lies on. The choice depends only on geometry — never
/// on congestion — so all same-type messages bound for the same side rotate
/// the same way and their ring arcs stay within disjoint halves; this is
/// what keeps the single shared per-type BC VC deadlock-free (head-on
/// cycles cannot form).
#[allow(clippy::too_many_arguments)]
fn choose_orientation(
    mesh: &Mesh,
    pattern: &FaultPattern,
    rings: &FRingSet,
    ring_id: usize,
    pos: u16,
    dest: NodeId,
    entry_distance: u32,
    mtype: MessageType,
    c: Coord,
    d: Coord,
) -> Orientation {
    let rect = pattern.regions()[ring_id];
    // Which side of the region should the detour pass?
    let side = match mtype {
        MessageType::WE | MessageType::EW => {
            if d.y >= c.y {
                Side::North
            } else {
                Side::South
            }
        }
        MessageType::SN | MessageType::NS => {
            if d.x >= c.x {
                Side::East
            } else {
                Side::West
            }
        }
    };
    let ring = rings.ring(ring_id);
    // Steps to reach the wanted side in each rotation (chain ends make a
    // rotation unusable).
    let cost = |orient: Orientation| -> u32 {
        let mut p = pos;
        for step in 1..=ring.len() as u32 {
            match ring.next(p, orient) {
                None => return u32::MAX,
                Some((n, np)) => {
                    if on_side(mesh.coord(n), &rect, side) {
                        return step;
                    }
                    p = np;
                }
            }
        }
        u32::MAX
    };
    let (cw, ccw) = (
        cost(Orientation::Clockwise),
        cost(Orientation::Counterclockwise),
    );
    if cw != ccw {
        return if ccw < cw {
            Orientation::Counterclockwise
        } else {
            Orientation::Clockwise
        };
    }
    if cw != u32::MAX {
        return Orientation::Clockwise;
    }
    // Wanted side unreachable in either rotation (boundary chain): fall
    // back to the nearer usable exit.
    let exit_cost = |orient: Orientation| -> u32 {
        let mut p = pos;
        for step in 1..=ring.len() as u32 {
            match ring.next(p, orient) {
                None => return u32::MAX,
                Some((n, np)) => {
                    if compute_is_exit(mesh, pattern, n, dest, entry_distance) {
                        return step;
                    }
                    p = np;
                }
            }
        }
        u32::MAX
    };
    if exit_cost(Orientation::Counterclockwise) < exit_cost(Orientation::Clockwise) {
        Orientation::Counterclockwise
    } else {
        Orientation::Clockwise
    }
}
