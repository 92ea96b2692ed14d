//! f-ring / f-chain construction and navigation (paper §2.3).
//!
//! Around every convex fault region sits a ring of fault-free nodes — the
//! *f-ring* — that the Boppana–Chalasani scheme uses to route messages
//! around the region. When the region touches the mesh boundary the ring is
//! clipped into an open path, an *f-chain*.

use crate::pattern::{FaultPattern, RegionId};
use serde::{Deserialize, Serialize};
use wormsim_topology::{Direction, Mesh, NodeId};

/// Traversal orientation along a ring, in the standard drawing (+x east,
/// +y north). On a closed ring, `Clockwise` visits the top edge west→east.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Orientation {
    /// Follow the ring clockwise.
    Clockwise,
    /// Follow the ring counterclockwise.
    Counterclockwise,
}

impl Orientation {
    /// The reverse orientation.
    pub fn reversed(self) -> Orientation {
        match self {
            Orientation::Clockwise => Orientation::Counterclockwise,
            Orientation::Counterclockwise => Orientation::Clockwise,
        }
    }
}

/// A node's position on a particular ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RingPosition {
    /// Which ring.
    pub ring: RegionId,
    /// Index into [`FRing::nodes`].
    pub pos: u16,
}

/// The f-ring (or boundary-clipped f-chain) of one fault region: fault-free
/// nodes listed in clockwise order. On a closed ring the list is cyclic; on
/// a chain it is an open path whose ends stop at the mesh boundary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FRing {
    region: RegionId,
    nodes: Vec<NodeId>,
    closed: bool,
}

impl FRing {
    /// The fault region this ring encloses.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Ring nodes in clockwise order (cyclic when [`FRing::is_closed`]).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `true` for a full ring, `false` for a boundary-clipped chain.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Number of ring nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring is degenerate (shouldn't happen for valid patterns).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The next node along the ring from position `pos` in `orient`, and its
    /// new position. `None` at the end of an open chain (the traversal must
    /// then reverse).
    pub fn next(&self, pos: u16, orient: Orientation) -> Option<(NodeId, u16)> {
        let len = self.nodes.len() as u16;
        debug_assert!(pos < len);
        let next = match orient {
            Orientation::Clockwise => {
                if pos + 1 < len {
                    pos + 1
                } else if self.closed {
                    0
                } else {
                    return None;
                }
            }
            Orientation::Counterclockwise => {
                if pos > 0 {
                    pos - 1
                } else if self.closed {
                    len - 1
                } else {
                    return None;
                }
            }
        };
        Some((self.nodes[next as usize], next))
    }

    /// Steps from `from` to `to` moving in `orient` (ring distance). `None`
    /// if unreachable in that orientation (open chain).
    pub fn distance(&self, from: u16, to: u16, orient: Orientation) -> Option<u32> {
        let len = self.nodes.len() as i64;
        let (from, to) = (from as i64, to as i64);
        let fwd = (to - from).rem_euclid(len);
        match orient {
            Orientation::Clockwise => {
                if self.closed || to >= from {
                    Some(fwd as u32)
                } else {
                    None
                }
            }
            Orientation::Counterclockwise => {
                if self.closed || to <= from {
                    Some(((from - to).rem_euclid(len)) as u32)
                } else {
                    None
                }
            }
        }
    }
}

/// All f-rings of a fault pattern, plus a per-node membership index.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FRingSet {
    rings: Vec<FRing>,
    /// For each node, the (possibly several, when f-rings overlap) ring
    /// positions it occupies.
    membership: Vec<Vec<RingPosition>>,
}

impl FRingSet {
    /// Build the f-ring of every region of `pattern`.
    ///
    /// Construction: take the region's bounding box dilated by one (clamped
    /// to the mesh), walk its border clockwise, keep in-mesh fault-free
    /// cells. For interior regions this yields the closed f-ring; for
    /// boundary regions the faulty/clipped stretch is removed and the list
    /// rotated so the remaining nodes form one contiguous open chain.
    pub fn build(mesh: &Mesh, pattern: &FaultPattern) -> Self {
        let mut rings = Vec::with_capacity(pattern.regions().len());
        let mut membership = vec![Vec::new(); mesh.num_nodes()];
        for (region, rect) in pattern.regions().iter().enumerate() {
            let ring = build_ring(mesh, pattern, region, rect);
            for (i, &n) in ring.nodes.iter().enumerate() {
                membership[n.index()].push(RingPosition {
                    ring: region,
                    pos: i as u16,
                });
            }
            rings.push(ring);
        }
        FRingSet { rings, membership }
    }

    /// Rebuild the ring set after an online pattern change (see
    /// [`FaultPattern::extend`]), reusing the node walk of every region whose
    /// rectangle is unchanged from `prev_pattern`.
    ///
    /// Reuse is sound because a ring node sits at Chebyshev distance 1 from
    /// its rectangle: any new fault landing on it would *touch* the
    /// rectangle and therefore merge into it, changing the rect — so an
    /// unchanged rect implies an unchanged, still-healthy ring. Region ids
    /// are re-assigned (regions are kept sorted), so reused rings get the
    /// new index; the membership index is regenerated in full (cheap, one
    /// pass over ring nodes). The result is identical to
    /// [`FRingSet::build`] on the new pattern — checked by the chaos
    /// crate's property tests.
    pub fn rebuild(
        mesh: &Mesh,
        pattern: &FaultPattern,
        prev_pattern: &FaultPattern,
        prev: &FRingSet,
    ) -> Self {
        let mut rings = Vec::with_capacity(pattern.regions().len());
        let mut membership = vec![Vec::new(); mesh.num_nodes()];
        for (region, rect) in pattern.regions().iter().enumerate() {
            let ring = match prev_pattern.regions().iter().position(|r| r == rect) {
                Some(j) => FRing {
                    region,
                    nodes: prev.rings[j].nodes.clone(),
                    closed: prev.rings[j].closed,
                },
                None => build_ring(mesh, pattern, region, rect),
            };
            for (i, &n) in ring.nodes.iter().enumerate() {
                membership[n.index()].push(RingPosition {
                    ring: region,
                    pos: i as u16,
                });
            }
            rings.push(ring);
        }
        FRingSet { rings, membership }
    }

    /// The ring around region `r`.
    pub fn ring(&self, r: RegionId) -> &FRing {
        &self.rings[r]
    }

    /// All rings.
    pub fn rings(&self) -> &[FRing] {
        &self.rings
    }

    /// Ring positions of node `n` (empty when `n` is on no ring; more than
    /// one entry when f-rings overlap — paper §5.2).
    pub fn positions_of(&self, n: NodeId) -> &[RingPosition] {
        &self.membership[n.index()]
    }

    /// Whether node `n` lies on at least one f-ring.
    pub fn on_any_ring(&self, n: NodeId) -> bool {
        !self.membership[n.index()].is_empty()
    }

    /// `n`'s position on the ring of a specific region, if it is on it.
    pub fn position_on(&self, n: NodeId, region: RegionId) -> Option<RingPosition> {
        self.membership[n.index()]
            .iter()
            .copied()
            .find(|p| p.ring == region)
    }

    /// The direction of the physical hop from ring position `pos` to the
    /// next ring node in `orient`, or `None` at a chain end. Consecutive
    /// ring nodes are always mesh-adjacent, except across the clipped gap of
    /// a chain — which `next` never crosses.
    pub fn hop_direction(
        &self,
        mesh: &Mesh,
        p: RingPosition,
        orient: Orientation,
    ) -> Option<(Direction, NodeId, u16)> {
        let ring = &self.rings[p.ring];
        let (next_node, next_pos) = ring.next(p.pos, orient)?;
        let here = ring.nodes[p.pos as usize];
        let dir = direction_between(mesh, here, next_node)?;
        Some((dir, next_node, next_pos))
    }
}

/// Direction of the single hop from `a` to adjacent node `b`.
fn direction_between(mesh: &Mesh, a: NodeId, b: NodeId) -> Option<Direction> {
    let (ca, cb) = (mesh.coord(a), mesh.coord(b));
    if ca.manhattan(cb) != 1 {
        return None;
    }
    Some(if cb.x > ca.x {
        Direction::East
    } else if cb.x < ca.x {
        Direction::West
    } else if cb.y > ca.y {
        Direction::North
    } else {
        Direction::South
    })
}

fn build_ring(
    mesh: &Mesh,
    pattern: &FaultPattern,
    region: RegionId,
    rect: &wormsim_topology::Rect,
) -> FRing {
    let dilated = rect.dilate();
    // Clamp to mesh bounds (dilate already clamps at 0).
    let max = wormsim_topology::Coord::new(
        dilated.max.x.min(mesh.width() - 1),
        dilated.max.y.min(mesh.height() - 1),
    );
    let clamped = wormsim_topology::Rect::new(dilated.min, max);
    let border = clamped.border_clockwise();
    // Mark usable cells: in-mesh (guaranteed) and fault-free.
    let usable: Vec<bool> = border
        .iter()
        .map(|&c| !pattern.is_faulty(mesh.node_at(c)))
        .collect();
    let n = border.len();
    if usable.iter().all(|&u| u) {
        // Closed ring: verify cyclic contiguity in debug builds.
        let nodes: Vec<NodeId> = border.iter().map(|&c| mesh.node_at(c)).collect();
        debug_assert!(nodes
            .iter()
            .zip(nodes.iter().cycle().skip(1))
            .take(nodes.len())
            .all(|(&a, &b)| mesh.distance(a, b) == 1));
        return FRing {
            region,
            nodes,
            closed: true,
        };
    }
    // Open chain: the unusable cells form one cyclically-contiguous run
    // (they are the region cells swallowed by clamping). Rotate so the run
    // sits at the end, then drop it.
    let start = (0..n)
        .find(|&i| usable[i] && !usable[(i + n - 1) % n])
        .expect("chain must have a usable cell after an unusable one");
    let mut nodes = Vec::with_capacity(n);
    for k in 0..n {
        let i = (start + k) % n;
        if usable[i] {
            nodes.push(mesh.node_at(border[i]));
        } else {
            break;
        }
    }
    debug_assert!(
        nodes.windows(2).all(|w| mesh.distance(w[0], w[1]) == 1),
        "f-chain nodes not contiguous for region {region}"
    );
    FRing {
        region,
        nodes,
        closed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::FaultPattern;
    use wormsim_topology::{Coord, Mesh, Rect};

    fn mesh() -> Mesh {
        Mesh::square(10)
    }

    #[test]
    fn ring_around_single_interior_fault() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        assert!(r.is_closed());
        assert_eq!(r.len(), 8);
        for &n in r.nodes() {
            assert!(!p.is_faulty(n));
            assert!(m.distance(n, m.node(5, 5)) <= 2);
        }
    }

    #[test]
    fn ring_nodes_are_cyclically_adjacent() {
        let m = mesh();
        let p =
            FaultPattern::from_rects(&m, &[Rect::new(Coord::new(3, 3), Coord::new(5, 6))]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        assert!(r.is_closed());
        // 3-wide, 4-tall block → dilated border is (5+2)x(6+2)... ring length
        // = 2*(w+2) + 2*(h+2) - 4 with w=3,h=4 → 2*5+2*6-4 = 18.
        assert_eq!(r.len(), 18);
        for i in 0..r.len() {
            let a = r.nodes()[i];
            let b = r.nodes()[(i + 1) % r.len()];
            assert_eq!(m.distance(a, b), 1);
        }
    }

    #[test]
    fn chain_when_block_touches_boundary() {
        let m = mesh();
        let p =
            FaultPattern::from_rects(&m, &[Rect::new(Coord::new(0, 4), Coord::new(1, 5))]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        assert!(!r.is_closed());
        // Chain wraps the three exposed sides: x=2 column (y 3..=6) plus
        // (0,3),(1,3),(0,6),(1,6) → 8 nodes.
        assert_eq!(r.len(), 8);
        for w in r.nodes().windows(2) {
            assert_eq!(m.distance(w[0], w[1]), 1);
        }
        for &n in r.nodes() {
            assert!(!p.is_faulty(n));
        }
    }

    #[test]
    fn chain_at_corner() {
        let m = mesh();
        let p =
            FaultPattern::from_rects(&m, &[Rect::new(Coord::new(0, 0), Coord::new(1, 1))]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        assert!(!r.is_closed());
        // Exposed sides: column x=2 (y 0..=2) and row y=2 (x 0..=2) → 5 nodes.
        assert_eq!(r.len(), 5);
        for w in r.nodes().windows(2) {
            assert_eq!(m.distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn closed_ring_navigation_wraps() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        // Walk all the way around clockwise.
        let mut pos = 0u16;
        for _ in 0..r.len() {
            let (_, next) = r.next(pos, Orientation::Clockwise).unwrap();
            pos = next;
        }
        assert_eq!(pos, 0);
        // And counterclockwise.
        for _ in 0..r.len() {
            let (_, next) = r.next(pos, Orientation::Counterclockwise).unwrap();
            pos = next;
        }
        assert_eq!(pos, 0);
    }

    #[test]
    fn chain_navigation_stops_at_ends() {
        let m = mesh();
        let p =
            FaultPattern::from_rects(&m, &[Rect::new(Coord::new(0, 4), Coord::new(1, 5))]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        let last = (r.len() - 1) as u16;
        assert!(r.next(last, Orientation::Clockwise).is_none());
        assert!(r.next(0, Orientation::Counterclockwise).is_none());
        assert!(r.next(0, Orientation::Clockwise).is_some());
    }

    #[test]
    fn membership_index() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        assert!(rings.on_any_ring(m.node(4, 4)));
        assert!(rings.on_any_ring(m.node(5, 6)));
        assert!(!rings.on_any_ring(m.node(0, 0)));
        assert!(!rings.on_any_ring(m.node(5, 5))); // the fault itself
        let pos = rings.position_on(m.node(4, 4), 0).unwrap();
        assert_eq!(rings.ring(0).nodes()[pos.pos as usize], m.node(4, 4));
    }

    #[test]
    fn overlapping_rings_share_nodes() {
        let m = mesh();
        // Two 1x1 blocks at Chebyshev distance 2: rings overlap on the
        // column between them (paper §5.2 discusses exactly this case).
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(4, 4), Coord::new(6, 4)]).unwrap();
        assert_eq!(p.regions().len(), 2);
        let rings = FRingSet::build(&m, &p);
        let shared = m.node(5, 4);
        assert_eq!(rings.positions_of(shared).len(), 2);
    }

    #[test]
    fn hop_direction_is_mesh_adjacent() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        for (i, &n) in r.nodes().iter().enumerate() {
            let p0 = RingPosition {
                ring: 0,
                pos: i as u16,
            };
            for orient in [Orientation::Clockwise, Orientation::Counterclockwise] {
                let (dir, next, _) = rings.hop_direction(&m, p0, orient).unwrap();
                assert_eq!(m.neighbor(n, dir), Some(next));
            }
        }
    }

    #[test]
    fn ring_distance() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        assert_eq!(r.distance(0, 3, Orientation::Clockwise), Some(3));
        assert_eq!(r.distance(0, 3, Orientation::Counterclockwise), Some(5));
        assert_eq!(r.distance(3, 3, Orientation::Clockwise), Some(0));
    }

    #[test]
    fn rebuild_matches_fresh_build_after_extend() {
        let m = mesh();
        let base =
            FaultPattern::from_faulty_coords(&m, [Coord::new(2, 7), Coord::new(6, 2)]).unwrap();
        let base_rings = FRingSet::build(&m, &base);
        // A far fault leaves both regions' rects unchanged; a touching fault
        // merges into one of them.
        for event in [[Coord::new(8, 8)], [Coord::new(7, 2)]] {
            let ext = base.extend(&m, event).unwrap();
            let rebuilt = FRingSet::rebuild(&m, &ext, &base, &base_rings);
            let fresh = FRingSet::build(&m, &ext);
            assert_eq!(rebuilt.rings().len(), fresh.rings().len());
            for (a, b) in rebuilt.rings().iter().zip(fresh.rings()) {
                assert_eq!(a.region(), b.region());
                assert_eq!(a.nodes(), b.nodes());
                assert_eq!(a.is_closed(), b.is_closed());
            }
            for n in m.nodes() {
                assert_eq!(rebuilt.positions_of(n), fresh.positions_of(n));
            }
        }
    }

    #[test]
    fn clockwise_order_top_edge_goes_east() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let rings = FRingSet::build(&m, &p);
        let r = rings.ring(0);
        // First nodes of border_clockwise of the dilated rect are the top
        // edge west→east at y=6.
        let c0 = m.coord(r.nodes()[0]);
        let c1 = m.coord(r.nodes()[1]);
        assert_eq!(c0.y, 6);
        assert_eq!(c1.y, 6);
        assert_eq!(c1.x, c0.x + 1);
    }
}
