//! # wormsim-topology
//!
//! The 2-D mesh topology substrate used throughout `wormsim`.
//!
//! A `k × k` mesh (more generally `width × height`) is the Cartesian product
//! of two undirected paths: node `u = (u_x, u_y)` connects to `v = (v_x, v_y)`
//! iff their addresses differ by exactly one in exactly one dimension
//! (paper §2.1). The mesh has no wrap-around links, interior node degree 4,
//! and diameter `(width-1) + (height-1)`.
//!
//! Everything here is index-based: nodes are dense [`NodeId`]s, directed
//! physical channels are dense [`ChannelId`]s (`node * 4 + direction`), so the
//! simulator's hot path can use flat `Vec`s instead of hash maps.
//!
//! ```
//! use wormsim_topology::{Mesh, Direction};
//!
//! let mesh = Mesh::new(10, 10);
//! let a = mesh.node(3, 4);
//! let b = mesh.neighbor(a, Direction::East).unwrap();
//! assert_eq!(mesh.coord(b).x, 4);
//! assert_eq!(mesh.distance(a, b), 1);
//! ```

#![forbid(unsafe_code)]

mod coord;
mod mesh;
mod rect;

pub use coord::{Coord, Direction, DirectionSet, ALL_DIRECTIONS};
pub use mesh::{ChannelId, Mesh, NodeId, Port};
pub use rect::Rect;
