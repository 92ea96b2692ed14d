//! # wormsim-fault
//!
//! The block (convex) node-fault model of the paper (§2.2) and the f-ring /
//! f-chain machinery of the Boppana–Chalasani fault-tolerance scheme (§2.3).
//!
//! - [`FaultPattern`] — a static set of faulty nodes coalesced into convex
//!   rectangular *fault regions*; non-faulty nodes swallowed by the convex
//!   closure are *disabled* (powered off) as in the block-fault literature.
//! - [`FaultPatternBuilder`] / [`random_pattern`] — random generation of
//!   patterns with a given faulty-node count, with rejection of patterns
//!   that disconnect the network (paper §2.2 assumes connectedness).
//! - [`FRing`] / [`FRingSet`] — the ring (or boundary-clipped chain) of
//!   fault-free nodes around each region, with clockwise/counterclockwise
//!   navigation used by the routing overlay.
//! - [`NodeLabeling`] — the Boura–Das safe/unsafe/faulty node labeling used
//!   by the comparison fault-tolerant routing scheme (paper ref \[7\]).
//!
//! ```
//! use wormsim_topology::{Mesh, Coord};
//! use wormsim_fault::FaultPattern;
//!
//! let mesh = Mesh::square(10);
//! // A 2x3 fault block in the interior.
//! let pattern = FaultPattern::from_faulty_coords(
//!     &mesh,
//!     [(4, 4), (5, 4), (4, 5), (5, 5), (4, 6), (5, 6)].map(Coord::from),
//! )
//! .unwrap();
//! assert_eq!(pattern.regions().len(), 1);
//! let rings = wormsim_fault::FRingSet::build(&mesh, &pattern);
//! assert!(rings.ring(0).is_closed());
//! assert_eq!(rings.ring(0).nodes().len(), 14); // ring around a 2x3 block
//! ```

#![forbid(unsafe_code)]

mod labeling;
mod pattern;
mod ring;

pub use labeling::{NodeLabel, NodeLabeling};
pub use pattern::{random_pattern, FaultPattern, FaultPatternBuilder, PatternError, RegionId};
pub use ring::{FRing, FRingSet, Orientation, RingPosition};
