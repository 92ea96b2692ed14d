//! Static block fault patterns: construction, convex coalescing, random
//! generation, and connectivity checking.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wormsim_topology::{Coord, Mesh, NodeId, Rect, ALL_DIRECTIONS};

/// Index of a fault region within a [`FaultPattern`].
pub type RegionId = usize;

/// Errors from fault-pattern construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The healthy part of the network is disconnected by the faults
    /// (the paper's model excludes such patterns, §2.2).
    Disconnects,
    /// Every node ended up faulty/disabled.
    AllFaulty,
    /// A faulty coordinate lies outside the mesh.
    OutOfBounds(Coord),
    /// Random generation failed to find an acceptable pattern within the
    /// attempt budget.
    GenerationFailed,
}

impl core::fmt::Display for PatternError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PatternError::Disconnects => write!(f, "fault pattern disconnects the network"),
            PatternError::AllFaulty => write!(f, "fault pattern leaves no healthy node"),
            PatternError::OutOfBounds(c) => write!(f, "faulty coordinate {c:?} outside mesh"),
            PatternError::GenerationFailed => {
                write!(f, "could not generate an acceptable fault pattern")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A static pattern of node faults coalesced into convex (block) regions.
///
/// Per the paper's model (§2.2): only nodes fail; a failed node takes all its
/// incident links with it; adjacent faults coalesce into rectangular regions
/// (the *block fault model*); patterns are static and never disconnect the
/// healthy part of the network.
///
/// Nodes swallowed by the convex closure but not originally faulty are
/// *disabled*: they behave exactly like faulty nodes for routing and traffic
/// (turned off), but are distinguishable for reporting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultPattern {
    width: u16,
    height: u16,
    /// Per-node: true if the node is unusable (originally faulty or disabled).
    faulty: Vec<bool>,
    /// Per-node: true only for seed (originally failed) nodes.
    seed_faulty: Vec<bool>,
    /// Convex block regions, disjoint, pairwise non-touching (Chebyshev > 1).
    regions: Vec<Rect>,
    /// Per-node region membership (`usize::MAX` = healthy).
    region_of: Vec<usize>,
}

impl FaultPattern {
    /// The fault-free pattern.
    pub fn fault_free(mesh: &Mesh) -> Self {
        FaultPattern {
            width: mesh.width(),
            height: mesh.height(),
            faulty: vec![false; mesh.num_nodes()],
            seed_faulty: vec![false; mesh.num_nodes()],
            regions: Vec::new(),
            region_of: vec![usize::MAX; mesh.num_nodes()],
        }
    }

    /// Build a pattern from an explicit set of faulty coordinates. The set is
    /// coalesced into convex blocks (bounding-box closure, merging blocks
    /// whose rings would overlap faults); connectivity is verified.
    pub fn from_faulty_coords(
        mesh: &Mesh,
        coords: impl IntoIterator<Item = Coord>,
    ) -> Result<Self, PatternError> {
        let mut seed = vec![false; mesh.num_nodes()];
        for c in coords {
            let n = mesh.try_node_at(c).ok_or(PatternError::OutOfBounds(c))?;
            seed[n.index()] = true;
        }
        Self::from_seed_vec(mesh, seed)
    }

    /// Build a pattern from explicit rectangular blocks (used by the paper's
    /// §5.2 fixed layout). Blocks that touch are merged; the full covered
    /// area is treated as seed-faulty.
    pub fn from_rects(mesh: &Mesh, rects: &[Rect]) -> Result<Self, PatternError> {
        let mut seed = vec![false; mesh.num_nodes()];
        for r in rects {
            for c in r.coords() {
                let n = mesh.try_node_at(c).ok_or(PatternError::OutOfBounds(c))?;
                seed[n.index()] = true;
            }
        }
        Self::from_seed_vec(mesh, seed)
    }

    fn from_seed_vec(mesh: &Mesh, seed: Vec<bool>) -> Result<Self, PatternError> {
        let regions = coalesce_blocks(mesh, &seed);
        Self::from_blocks(mesh, seed, regions)
    }

    /// The pattern of `seed` failures whose coalesced blocks are `regions`,
    /// if it leaves a connected, non-empty healthy remainder.
    fn from_blocks(mesh: &Mesh, seed: Vec<bool>, regions: Vec<Rect>) -> Result<Self, PatternError> {
        let mut faulty = seed.clone();
        let mut region_of = vec![usize::MAX; mesh.num_nodes()];
        for (i, r) in regions.iter().enumerate() {
            for c in r.coords() {
                let n = mesh.node_at(c);
                faulty[n.index()] = true;
                region_of[n.index()] = i;
            }
        }
        let pattern = FaultPattern {
            width: mesh.width(),
            height: mesh.height(),
            faulty,
            seed_faulty: seed,
            regions,
            region_of,
        };
        if pattern.num_healthy() == 0 {
            return Err(PatternError::AllFaulty);
        }
        if !pattern.healthy_connected(mesh) {
            return Err(PatternError::Disconnects);
        }
        Ok(pattern)
    }

    /// The `(width, height)` of the mesh this pattern was built for.
    #[inline]
    pub fn dims(&self) -> (u16, u16) {
        (self.width, self.height)
    }

    /// Whether node `n` is unusable (faulty or disabled).
    #[inline]
    pub fn is_faulty(&self, n: NodeId) -> bool {
        self.faulty[n.index()]
    }

    /// Whether node `n` was an original (seed) failure, as opposed to a node
    /// disabled by the convex closure.
    #[inline]
    pub fn is_seed_faulty(&self, n: NodeId) -> bool {
        self.seed_faulty[n.index()]
    }

    /// The block region containing `n`, if any.
    #[inline]
    pub fn region_of(&self, n: NodeId) -> Option<RegionId> {
        let r = self.region_of[n.index()];
        (r != usize::MAX).then_some(r)
    }

    /// The convex block regions (disjoint, pairwise Chebyshev-distance > 1).
    #[inline]
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Number of unusable nodes.
    pub fn num_faulty(&self) -> usize {
        self.faulty.iter().filter(|&&f| f).count()
    }

    /// Number of original (seed) failures.
    pub fn num_seed_faulty(&self) -> usize {
        self.seed_faulty.iter().filter(|&&f| f).count()
    }

    /// Number of healthy (usable) nodes.
    pub fn num_healthy(&self) -> usize {
        self.faulty.len() - self.num_faulty()
    }

    /// Iterator over healthy node ids.
    pub fn healthy_nodes<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = NodeId> + 'a {
        mesh.nodes().filter(move |n| !self.is_faulty(*n))
    }

    /// True when there are no faults at all.
    pub fn is_fault_free(&self) -> bool {
        self.regions.is_empty()
    }

    /// Extend this pattern with additional seed failures appearing at
    /// runtime (the online fault model of `wormsim-chaos`).
    ///
    /// Incremental coalescing: instead of re-clustering every seed from
    /// scratch, the merge fixpoint starts from the existing (already
    /// coalesced) regions plus one point rectangle per new fault —
    /// O(regions + new faults) rectangles rather than O(total seeds).
    /// Because block coalescing is confluent (the fixpoint of
    /// "merge touching rectangles into their union" does not depend on the
    /// starting partition), the result is identical to rebuilding from the
    /// union of all seeds — a property the chaos crate's proptest suite
    /// checks against the from-scratch constructor.
    ///
    /// The same acceptability rules apply as at construction: the extended
    /// pattern is rejected if it disconnects the healthy mesh or leaves no
    /// healthy node. `self` is untouched on rejection, so a caller can
    /// drop an unacceptable event and keep running.
    pub fn extend(
        &self,
        mesh: &Mesh,
        new_faults: impl IntoIterator<Item = Coord>,
    ) -> Result<Self, PatternError> {
        debug_assert_eq!((mesh.width(), mesh.height()), (self.width, self.height));
        let mut seed = self.seed_faulty.clone();
        let mut boxes = self.regions.clone();
        for c in new_faults {
            let n = mesh.try_node_at(c).ok_or(PatternError::OutOfBounds(c))?;
            if !seed[n.index()] {
                seed[n.index()] = true;
                boxes.push(Rect::point(c));
            }
        }
        Self::from_blocks(mesh, seed, merge_to_fixpoint(boxes))
    }

    /// BFS connectivity check over healthy nodes (paper §2.2: a pattern is
    /// acceptable only if every healthy pair remains connected).
    pub fn healthy_connected(&self, mesh: &Mesh) -> bool {
        let Some(start) = mesh.nodes().find(|n| !self.is_faulty(*n)) else {
            return false;
        };
        let mut seen = vec![false; mesh.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            for d in ALL_DIRECTIONS {
                if let Some(v) = mesh.neighbor(u, d) {
                    if !self.is_faulty(v) && !seen[v.index()] {
                        seen[v.index()] = true;
                        visited += 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        visited == self.num_healthy()
    }
}

/// Coalesce a seed fault set into convex blocks:
/// 1. group seeds into Chebyshev-adjacent clusters,
/// 2. replace each cluster by its bounding box (convex closure),
/// 3. merge any two boxes that *touch* (Chebyshev distance ≤ 1 — their
///    f-rings would otherwise contain faulty nodes), and repeat to fixpoint.
fn coalesce_blocks(mesh: &Mesh, seed: &[bool]) -> Vec<Rect> {
    let boxes: Vec<Rect> = mesh
        .nodes()
        .filter(|n| seed[n.index()])
        .map(|n| Rect::point(mesh.coord(n)))
        .collect();
    merge_to_fixpoint(boxes)
}

/// Merge any two rectangles that touch (Chebyshev distance ≤ 1) into their
/// union, repeated to fixpoint, sorted by `(min.y, min.x)`. The fixpoint is
/// independent of the starting partition of the covered area, which is what
/// lets [`FaultPattern::extend`] start from already-coalesced regions.
fn merge_to_fixpoint(mut boxes: Vec<Rect>) -> Vec<Rect> {
    loop {
        let mut merged_any = false;
        let mut out: Vec<Rect> = Vec::with_capacity(boxes.len());
        'outer: for b in boxes.drain(..) {
            for existing in out.iter_mut() {
                if existing.touches(&b) {
                    *existing = existing.union(&b);
                    merged_any = true;
                    continue 'outer;
                }
            }
            out.push(b);
        }
        boxes = out;
        if !merged_any {
            break;
        }
    }
    boxes.sort_by_key(|r| (r.min.y, r.min.x));
    boxes
}

/// How far the convex closure may inflate a random pattern: at most this
/// many times the seed count of nodes may end up unavailable.
const MAX_CLOSURE_FACTOR: usize = 3;

/// Draws [`random_pattern`] makes before giving up with
/// [`PatternError::GenerationFailed`].
const MAX_ATTEMPTS: usize = 1000;

/// A random pattern of `num_faults` node failures: the fault axis of the
/// paper's Figures 3–5 ("percentage of faulty nodes").
///
/// The reading: `num_faults` distinct nodes fail, drawn uniformly at
/// random; the convex closure of the block model then disables the
/// healthy nodes it swallows *on top* of them, so a pattern has at least
/// `num_faults` and at most 3 × `num_faults` unavailable nodes. A draw
/// whose closure exceeds that cap, or whose healthy nodes are
/// disconnected (§2.2), is rejected and redrawn, up to 1 000 draws. The
/// cap is part of the reading: the result is uniform over the seed sets
/// that pass both checks, not over all of them. Failures are the random
/// variable and disabled nodes a consequence of the block model, as in
/// reliability studies that average over patterns of independent router
/// failures.
pub fn random_pattern<R: Rng>(
    mesh: &Mesh,
    num_faults: usize,
    rng: &mut R,
) -> Result<FaultPattern, PatternError> {
    if num_faults == 0 {
        return Ok(FaultPattern::fault_free(mesh));
    }
    let all: Vec<NodeId> = mesh.nodes().collect();
    for _ in 0..MAX_ATTEMPTS {
        let mut seed = vec![false; mesh.num_nodes()];
        for n in all.choose_multiple(rng, num_faults) {
            seed[n.index()] = true;
        }
        if let Ok(pattern) = FaultPattern::from_seed_vec(mesh, seed) {
            if pattern.num_faulty() <= MAX_CLOSURE_FACTOR * num_faults {
                return Ok(pattern);
            }
        }
    }
    Err(PatternError::GenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::square(10)
    }

    #[test]
    fn fault_free_pattern() {
        let m = mesh();
        let p = FaultPattern::fault_free(&m);
        assert!(p.is_fault_free());
        assert_eq!(p.num_healthy(), 100);
        assert!(p.healthy_connected(&m));
    }

    #[test]
    fn single_fault_is_1x1_block() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        assert_eq!(p.regions().len(), 1);
        assert_eq!(p.regions()[0], Rect::point(Coord::new(5, 5)));
        assert!(p.is_faulty(m.node(5, 5)));
        assert!(p.is_seed_faulty(m.node(5, 5)));
        assert_eq!(p.num_faulty(), 1);
    }

    #[test]
    fn adjacent_faults_coalesce() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(4, 4), Coord::new(5, 4)]).unwrap();
        assert_eq!(p.regions().len(), 1);
        assert_eq!(p.regions()[0].area(), 2);
    }

    #[test]
    fn diagonal_faults_coalesce_and_convexify() {
        let m = mesh();
        // Diagonal pair: Chebyshev-adjacent, so one 2x2 block; the two
        // off-diagonal nodes become disabled (not seed-faulty).
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(4, 4), Coord::new(5, 5)]).unwrap();
        assert_eq!(p.regions().len(), 1);
        assert_eq!(p.regions()[0].area(), 4);
        assert_eq!(p.num_faulty(), 4);
        assert_eq!(p.num_seed_faulty(), 2);
        assert!(p.is_faulty(m.node(5, 4)));
        assert!(!p.is_seed_faulty(m.node(5, 4)));
    }

    #[test]
    fn near_blocks_merge_when_rings_would_overlap_faults() {
        let m = mesh();
        // Two seeds at Chebyshev distance 1 via a gap? (4,4) and (6,4) are
        // Chebyshev distance 2: they stay separate blocks with overlapping
        // rings (the paper's overlapping f-ring case).
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(4, 4), Coord::new(6, 4)]).unwrap();
        assert_eq!(p.regions().len(), 2);
        // Distance-1 seeds merge.
        let p2 =
            FaultPattern::from_faulty_coords(&m, [Coord::new(4, 4), Coord::new(5, 4)]).unwrap();
        assert_eq!(p2.regions().len(), 1);
    }

    #[test]
    fn regions_never_touch_each_other() {
        let m = mesh();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = random_pattern(&m, 10, &mut rng).unwrap();
            let regions = p.regions();
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    assert!(
                        !regions[i].touches(&regions[j]),
                        "regions {i} and {j} touch: {:?} {:?}",
                        regions[i],
                        regions[j]
                    );
                }
            }
        }
    }

    #[test]
    fn disconnecting_pattern_rejected() {
        let m = Mesh::new(3, 3);
        // Full middle row kills connectivity between top and bottom.
        let err = FaultPattern::from_faulty_coords(
            &m,
            [Coord::new(0, 1), Coord::new(1, 1), Coord::new(2, 1)],
        )
        .unwrap_err();
        assert_eq!(err, PatternError::Disconnects);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = mesh();
        let err = FaultPattern::from_faulty_coords(&m, [Coord::new(10, 0)]).unwrap_err();
        assert_eq!(err, PatternError::OutOfBounds(Coord::new(10, 0)));
    }

    #[test]
    fn all_faulty_rejected() {
        let m = Mesh::new(2, 2);
        let err = FaultPattern::from_faulty_coords(
            &m,
            [
                Coord::new(0, 0),
                Coord::new(0, 1),
                Coord::new(1, 0),
                Coord::new(1, 1),
            ],
        )
        .unwrap_err();
        assert_eq!(err, PatternError::AllFaulty);
    }

    #[test]
    fn random_generation_respects_count_and_connectivity() {
        let m = mesh();
        let mut rng = SmallRng::seed_from_u64(42);
        for faults in [1, 5, 10] {
            let p = random_pattern(&m, faults, &mut rng).unwrap();
            assert_eq!(p.num_seed_faulty(), faults);
            assert!(p.num_faulty() >= faults);
            assert!(p.healthy_connected(&m));
        }
    }

    #[test]
    fn zero_faults_generates_fault_free() {
        let m = mesh();
        let mut rng = SmallRng::seed_from_u64(1);
        let p = random_pattern(&m, 0, &mut rng).unwrap();
        assert!(p.is_fault_free());
    }

    #[test]
    fn paper_5_2_layout() {
        // Paper §5.2: "Three fault regions overlapping in a row are
        // considered as a block fault region with height 3 and width 2, and
        // two block fault regions with height and width 1."
        let m = mesh();
        let p = FaultPattern::from_rects(
            &m,
            &[
                Rect::new(Coord::new(3, 3), Coord::new(4, 5)), // 2 wide, 3 tall
                Rect::point(Coord::new(7, 7)),
                Rect::point(Coord::new(7, 1)),
            ],
        )
        .unwrap();
        assert_eq!(p.regions().len(), 3);
        assert_eq!(p.num_faulty(), 8);
        assert!(p.healthy_connected(&m));
    }

    #[test]
    fn extend_merges_with_existing_region() {
        let m = mesh();
        let base = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let ext = base.extend(&m, [Coord::new(6, 6)]).unwrap();
        // Diagonal neighbor touches the existing block: one 2x2 region.
        assert_eq!(ext.regions().len(), 1);
        assert_eq!(
            ext.regions()[0],
            Rect::new(Coord::new(5, 5), Coord::new(6, 6))
        );
        // Identical to the from-scratch construction over all seeds.
        let fresh =
            FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5), Coord::new(6, 6)]).unwrap();
        assert_eq!(ext.regions(), fresh.regions());
        assert_eq!(ext.num_faulty(), fresh.num_faulty());
        assert_eq!(ext.num_seed_faulty(), fresh.num_seed_faulty());
    }

    #[test]
    fn extend_far_fault_adds_new_region() {
        let m = mesh();
        let base = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let ext = base.extend(&m, [Coord::new(1, 1)]).unwrap();
        assert_eq!(ext.regions().len(), 2);
        // Regions stay sorted by (min.y, min.x).
        assert_eq!(ext.regions()[0], Rect::point(Coord::new(1, 1)));
        assert_eq!(ext.regions()[1], Rect::point(Coord::new(5, 5)));
    }

    #[test]
    fn extend_rejects_disconnecting_event_without_mutating_base() {
        let m = Mesh::new(3, 3);
        let base = FaultPattern::from_faulty_coords(&m, [Coord::new(0, 1)]).unwrap();
        let err = base
            .extend(&m, [Coord::new(1, 1), Coord::new(2, 1)])
            .unwrap_err();
        assert_eq!(err, PatternError::Disconnects);
        assert_eq!(base.num_seed_faulty(), 1);
        assert_eq!(base.regions().len(), 1);
    }

    #[test]
    fn extend_with_already_faulty_coord_is_identity() {
        let m = mesh();
        let base = FaultPattern::from_faulty_coords(&m, [Coord::new(5, 5)]).unwrap();
        let ext = base.extend(&m, [Coord::new(5, 5)]).unwrap();
        assert_eq!(ext.regions(), base.regions());
        assert_eq!(ext.num_seed_faulty(), base.num_seed_faulty());
    }

    #[test]
    fn region_of_lookup() {
        let m = mesh();
        let p = FaultPattern::from_faulty_coords(&m, [Coord::new(2, 2)]).unwrap();
        assert_eq!(p.region_of(m.node(2, 2)), Some(0));
        assert_eq!(p.region_of(m.node(3, 3)), None);
    }
}
