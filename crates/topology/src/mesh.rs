//! The mesh graph: dense node/channel indexing and neighborhood queries.

use crate::coord::{Coord, Direction, DirectionSet, ALL_DIRECTIONS};
use serde::{Deserialize, Serialize};

/// Dense node identifier: `id = y * width + x` (row-major).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The dense index as `usize`, for vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Dense identifier of a *directed physical channel*: the output link of
/// `node` in `direction`. `id = node * 4 + direction`. Channel ids exist for
/// all (node, direction) pairs; boundary channels that would leave the mesh
/// simply have no destination (see [`Mesh::channel_dest`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The dense index as `usize`, for vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A router port: one of the four direction ports or the local
/// injection/ejection port connecting the processing element.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Port {
    /// Link port toward a neighbor.
    Dir(Direction),
    /// The processing-element (injection/ejection) port.
    Local,
}

impl Port {
    /// Dense index: directions map to `0..4`, `Local` to 4.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Port::Dir(d) => d as usize,
            Port::Local => 4,
        }
    }
}

/// A `width × height` 2-D mesh (paper §2.1). Immutable once constructed;
/// shared by reference everywhere.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Construct a mesh. Panics if either side is zero or the node count
    /// would overflow `u16` indexing.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width >= 1 && height >= 1, "mesh sides must be >= 1");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "mesh too large for u16 node ids"
        );
        Mesh { width, height }
    }

    /// The radix-`k` square mesh `G(k, k)` used in the paper (`k = 10`).
    pub fn square(k: u16) -> Self {
        Mesh::new(k, k)
    }

    /// Mesh width (dimension 0 extent).
    #[inline]
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (dimension 1 extent).
    #[inline]
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Total node count `width * height`.
    #[inline]
    pub const fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total directed channel-slot count (`num_nodes * 4`); includes boundary
    /// slots with no destination so that [`ChannelId`]s stay dense.
    #[inline]
    pub const fn num_channel_slots(&self) -> usize {
        self.num_nodes() * 4
    }

    /// Network diameter `(width-1) + (height-1)` (paper §2.1).
    #[inline]
    pub const fn diameter(&self) -> u32 {
        (self.width as u32 - 1) + (self.height as u32 - 1)
    }

    /// Node id at `(x, y)`. Panics when out of bounds.
    #[inline]
    pub fn node(&self, x: u16, y: u16) -> NodeId {
        assert!(
            x < self.width && y < self.height,
            "coordinate out of bounds"
        );
        NodeId(y * self.width + x)
    }

    /// Node id at a coordinate. Panics when out of bounds.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        self.node(c.x, c.y)
    }

    /// Checked lookup: `None` when `c` lies outside the mesh.
    #[inline]
    pub fn try_node_at(&self, c: Coord) -> Option<NodeId> {
        (c.x < self.width && c.y < self.height).then(|| NodeId(c.y * self.width + c.x))
    }

    /// Coordinate of a node id.
    #[inline]
    pub fn coord(&self, n: NodeId) -> Coord {
        Coord::new(n.0 % self.width, n.0 / self.width)
    }

    /// Whether a coordinate lies inside the mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// The neighbor of `n` in `dir`, or `None` at the mesh boundary.
    #[inline]
    pub fn neighbor(&self, n: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(n).step(dir)?;
        self.try_node_at(c)
    }

    /// Minimal hop count between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Directions of minimal progress from `from` toward `to`.
    #[inline]
    pub fn minimal_directions(&self, from: NodeId, to: NodeId) -> DirectionSet {
        self.coord(from).minimal_directions(self.coord(to))
    }

    /// The directed output channel of `n` in `dir` (always a valid id; may
    /// have no destination at the boundary).
    #[inline]
    pub fn channel(&self, n: NodeId, dir: Direction) -> ChannelId {
        ChannelId(n.0 as u32 * 4 + dir as u32)
    }

    /// Source node of a channel.
    #[inline]
    pub fn channel_src(&self, c: ChannelId) -> NodeId {
        NodeId((c.0 / 4) as u16)
    }

    /// Direction of a channel.
    #[inline]
    pub fn channel_dir(&self, c: ChannelId) -> Direction {
        Direction::from_index((c.0 % 4) as usize)
    }

    /// Destination node of a channel, or `None` for boundary slots.
    #[inline]
    pub fn channel_dest(&self, c: ChannelId) -> Option<NodeId> {
        self.neighbor(self.channel_src(c), self.channel_dir(c))
    }

    /// Whether the channel physically exists (its destination is in-mesh).
    #[inline]
    pub fn channel_exists(&self, c: ChannelId) -> bool {
        self.channel_dest(c).is_some()
    }

    /// Node degree (2 at corners, 3 on edges, 4 in the interior).
    pub fn degree(&self, n: NodeId) -> usize {
        ALL_DIRECTIONS
            .iter()
            .filter(|&&d| self.neighbor(n, d).is_some())
            .count()
    }

    /// Whether `n` lies on the mesh boundary.
    pub fn on_boundary(&self, n: NodeId) -> bool {
        let c = self.coord(n);
        c.x == 0 || c.y == 0 || c.x == self.width - 1 || c.y == self.height - 1
    }

    /// Iterate over all node ids in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u16).map(NodeId)
    }

    /// Iterate over all physically existing directed channels.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.num_channel_slots() as u32)
            .map(ChannelId)
            .filter(move |&c| self.channel_exists(c))
    }

    /// The node-coloring used by negative-hop routing: a standard
    /// checkerboard 2-coloring; a hop is *negative* when it moves from a
    /// higher-labeled node to a lower-labeled one (paper §3). With two
    /// colors, negative hops are exactly the 1→0 moves, so at most
    /// `⌈dist/2⌉` of any path's hops are negative, giving the paper's
    /// `1 + ⌊n(k−1)/2⌋` buffer-class bound.
    #[inline]
    pub fn color(&self, n: NodeId) -> u8 {
        let c = self.coord(n);
        ((c.x + c.y) % 2) as u8
    }

    /// Maximum number of negative hops any minimal path can take between two
    /// nodes under the checkerboard coloring: one negative hop per
    /// higher→lower transition, i.e. `⌊d/2⌋` or `⌈d/2⌉` depending on the
    /// endpoint colors.
    pub fn max_negative_hops(&self, from: NodeId, to: NodeId) -> u32 {
        let d = self.distance(from, to);
        match (self.color(from), self.color(to)) {
            // Starting on a high (1) node: the first hop can already be
            // negative; alternation yields ceil(d/2).
            (1, _) => d.div_ceil(2),
            // Starting low: first hop is non-negative; floor(d/2).
            _ => d / 2,
        }
    }

    /// Upper bound on negative hops across the whole mesh — the NHop
    /// buffer-class count is this plus one (paper §3:
    /// `1 + ⌊n(k−1)/2⌋` classes for an n-D radix-k mesh).
    pub fn max_negative_hops_bound(&self) -> u32 {
        self.diameter().div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh::new(10, 10);
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord(n)), n);
        }
    }

    #[test]
    fn ten_by_ten_counts() {
        let m = Mesh::square(10);
        assert_eq!(m.num_nodes(), 100);
        assert_eq!(m.diameter(), 18);
        // Directed channel count of a k×k mesh: 2 * 2*k*(k-1) = 360 for k=10.
        assert_eq!(m.channels().count(), 360);
    }

    #[test]
    fn degrees() {
        let m = Mesh::square(10);
        assert_eq!(m.degree(m.node(0, 0)), 2);
        assert_eq!(m.degree(m.node(5, 0)), 3);
        assert_eq!(m.degree(m.node(5, 5)), 4);
        let interior = m.nodes().filter(|&n| m.degree(n) == 4).count();
        assert_eq!(interior, 64);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let m = Mesh::new(7, 5);
        for n in m.nodes() {
            for d in ALL_DIRECTIONS {
                if let Some(v) = m.neighbor(n, d) {
                    assert_eq!(m.neighbor(v, d.opposite()), Some(n));
                    assert_eq!(m.distance(n, v), 1);
                }
            }
        }
    }

    #[test]
    fn channel_roundtrip() {
        let m = Mesh::new(6, 6);
        for n in m.nodes() {
            for d in ALL_DIRECTIONS {
                let c = m.channel(n, d);
                assert_eq!(m.channel_src(c), n);
                assert_eq!(m.channel_dir(c), d);
                assert_eq!(m.channel_dest(c), m.neighbor(n, d));
            }
        }
    }

    #[test]
    fn boundary_detection() {
        let m = Mesh::square(4);
        assert!(m.on_boundary(m.node(0, 2)));
        assert!(m.on_boundary(m.node(3, 1)));
        assert!(!m.on_boundary(m.node(1, 1)));
    }

    #[test]
    fn checkerboard_coloring() {
        let m = Mesh::square(10);
        for n in m.nodes() {
            for d in ALL_DIRECTIONS {
                if let Some(v) = m.neighbor(n, d) {
                    assert_ne!(m.color(n), m.color(v), "adjacent nodes share color");
                }
            }
        }
    }

    #[test]
    fn negative_hop_bounds() {
        let m = Mesh::square(10);
        // Paper: 1 + floor(n(k-1)/2) = 10 classes for a 10x10 mesh.
        assert_eq!(m.max_negative_hops_bound() + 1, 10);
        let a = m.node(0, 0); // color 0
        let b = m.node(9, 9); // color 0, distance 18
        assert_eq!(m.max_negative_hops(a, b), 9);
        let c = m.node(1, 0); // color 1
        assert_eq!(m.max_negative_hops(c, b), (17u32).div_ceil(2));
    }

    #[test]
    #[should_panic(expected = "coordinate out of bounds")]
    fn node_out_of_bounds_panics() {
        Mesh::square(4).node(4, 0);
    }

    #[test]
    fn try_node_at_bounds() {
        let m = Mesh::square(4);
        assert!(m.try_node_at(Coord::new(3, 3)).is_some());
        assert!(m.try_node_at(Coord::new(4, 0)).is_none());
    }

    #[test]
    fn minimal_directions_match_distance() {
        let m = Mesh::square(8);
        let from = m.node(2, 6);
        let to = m.node(5, 1);
        let dirs = m.minimal_directions(from, to);
        for d in dirs.iter() {
            let v = m.neighbor(from, d).unwrap();
            assert_eq!(m.distance(v, to) + 1, m.distance(from, to));
        }
    }
}
