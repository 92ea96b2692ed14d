//! Per-message routing state and routing-function output types.

use serde::{Deserialize, Serialize};
use wormsim_fault::Orientation;
use wormsim_topology::{Direction, NodeId};

/// A set of virtual channels on one physical channel, as a bitmask.
/// Supports up to 32 VCs per physical channel (the paper uses 24).
///
/// ```
/// use wormsim_routing::VcMask;
///
/// let escape = VcMask::range(0, 1);
/// let adaptive = VcMask::range(2, 19);
/// assert!(escape.intersect(adaptive).is_empty());
/// assert_eq!(escape.union(adaptive).count(), 20);
/// assert!(adaptive.contains(10));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VcMask(pub u32);

impl VcMask {
    /// The empty mask.
    pub const EMPTY: VcMask = VcMask(0);

    /// Mask with the single VC `i`.
    #[inline]
    pub const fn bit(i: u8) -> VcMask {
        VcMask(1 << i)
    }

    /// Mask with VCs `lo..=hi` (inclusive). Empty if `lo > hi`.
    #[inline]
    pub fn range(lo: u8, hi: u8) -> VcMask {
        if lo > hi {
            return VcMask::EMPTY;
        }
        let width = hi - lo + 1;
        let bits = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        VcMask(bits << lo)
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, i: u8) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: VcMask) -> VcMask {
        VcMask(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersect(self, other: VcMask) -> VcMask {
        VcMask(self.0 & other.0)
    }

    /// Whether no VC is present.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of VCs present.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate over member VC indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let mut bits = self.0;
        core::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(i)
        })
    }
}

impl core::fmt::Debug for VcMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VcMask[")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "]")
    }
}

/// One candidate next hop: a direction plus the VCs the algorithm permits,
/// split into a preferred tier (Duato's class I) and a fallback tier
/// (class II escape). Algorithms without tiers put everything in
/// `preferred` and leave `fallback` empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateHop {
    /// Output direction.
    pub dir: Direction,
    /// VCs tried first.
    pub preferred: VcMask,
    /// VCs tried only if no preferred VC (on any candidate) is available.
    pub fallback: VcMask,
}

/// The routing function's output: up to four candidate hops (one per
/// direction). Fixed-capacity to keep the per-decision path allocation-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidates {
    hops: [Option<CandidateHop>; 4],
    len: u8,
}

impl Candidates {
    /// No candidates (the message must wait).
    pub const fn none() -> Self {
        Candidates {
            hops: [None, None, None, None],
            len: 0,
        }
    }

    /// Add a candidate hop. If the direction is already present, the masks
    /// are merged instead.
    pub fn push(&mut self, hop: CandidateHop) {
        for slot in self.hops.iter_mut().flatten() {
            if slot.dir == hop.dir {
                slot.preferred = slot.preferred.union(hop.preferred);
                slot.fallback = slot.fallback.union(hop.fallback);
                return;
            }
        }
        let i = self.len as usize;
        debug_assert!(i < 4);
        self.hops[i] = Some(hop);
        self.len += 1;
    }

    /// Convenience: push a single-tier candidate.
    pub fn push_simple(&mut self, dir: Direction, mask: VcMask) {
        self.push(CandidateHop {
            dir,
            preferred: mask,
            fallback: VcMask::EMPTY,
        });
    }

    /// Number of candidate directions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over candidate hops.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateHop> {
        self.hops.iter().flatten()
    }

    /// Find the candidate for a particular direction.
    pub fn for_dir(&self, dir: Direction) -> Option<&CandidateHop> {
        self.iter().find(|h| h.dir == dir)
    }
}

/// BC message typing (paper §2.3 / ref \[1\]): the four classes of message by
/// travel direction, each owning one of the 4 additional BC virtual
/// channels. Determined from the current-node → destination offset when a
/// message first meets a fault.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum MessageType {
    /// Traveling east (west-to-east).
    WE = 0,
    /// Traveling west (east-to-west).
    EW = 1,
    /// Traveling north (south-to-north).
    SN = 2,
    /// Traveling south (north-to-south).
    NS = 3,
}

impl MessageType {
    /// Classify by the dominant travel direction from `from` toward `to`
    /// (column offset first — row messages — then row offset).
    pub fn classify(from: (u16, u16), to: (u16, u16)) -> MessageType {
        if to.0 > from.0 {
            MessageType::WE
        } else if to.0 < from.0 {
            MessageType::EW
        } else if to.1 > from.1 {
            MessageType::SN
        } else {
            MessageType::NS
        }
    }

    /// The BC VC sub-index (0..4) owned by this type.
    pub const fn bc_index(self) -> u8 {
        self as u8
    }
}

/// State of an in-progress f-ring traversal (BC overlay).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RingState {
    /// Which f-ring is being traversed.
    pub ring: usize,
    /// Current position on the ring.
    pub pos: u16,
    /// Traversal orientation (may flip at f-chain ends).
    pub orient: Orientation,
    /// Message type fixed at ring entry; selects the BC VC.
    pub mtype: MessageType,
    /// Distance to the destination at ring entry. The traversal only ends
    /// at a node strictly closer than this, guaranteeing progress across
    /// ring episodes (re-blocking cannot oscillate).
    pub entry_distance: u32,
}

/// Per-message routing state, updated by the engine via
/// [`crate::RoutingAlgorithm::on_hop`]. One struct serves every algorithm;
/// each uses the fields it needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessageState {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Total hops taken so far (including misroutes and ring hops).
    pub hops: u16,
    /// Hops taken in normal (non-ring) mode — drives PHop classes.
    pub normal_hops: u16,
    /// Negative hops taken in normal mode — drives NHop classes.
    pub negative_hops: u8,
    /// Bonus cards remaining (Pbc/Nbc).
    pub bonus: u8,
    /// Lowest class the next hop may use (monotonic class tracking).
    pub next_class_min: u8,
    /// Misroutes taken (Fully-Adaptive, capped).
    pub misroutes: u8,
    /// Cycles the header has waited since its last hop, read by algorithms
    /// that react to blocking (misrouting). The engine keeps the counter in
    /// its own per-message array and writes it here before every `route()`
    /// call; `on_hop` resets it.
    pub wait_cycles: u32,
    /// Active f-ring traversal, if any.
    pub ring: Option<RingState>,
    /// Direction of the last hop taken.
    pub last_dir: Option<Direction>,
}

impl MessageState {
    /// Fresh state for a message from `src` to `dest`.
    pub fn new(src: NodeId, dest: NodeId) -> Self {
        MessageState {
            src,
            dest,
            hops: 0,
            normal_hops: 0,
            negative_hops: 0,
            bonus: 0,
            next_class_min: 0,
            misroutes: 0,
            wait_cycles: 0,
            ring: None,
            last_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_mask_bit_and_range() {
        let m = VcMask::bit(5);
        assert!(m.contains(5));
        assert!(!m.contains(4));
        assert_eq!(m.count(), 1);

        let r = VcMask::range(3, 6);
        assert_eq!(r.count(), 4);
        assert!(r.contains(3) && r.contains(6));
        assert!(!r.contains(2) && !r.contains(7));

        assert!(VcMask::range(6, 3).is_empty());
        assert_eq!(VcMask::range(0, 31).count(), 32);
    }

    #[test]
    fn vc_mask_set_ops() {
        let a = VcMask::range(0, 3);
        let b = VcMask::range(2, 5);
        assert_eq!(a.union(b), VcMask::range(0, 5));
        assert_eq!(a.intersect(b), VcMask::range(2, 3));
        assert!(a.intersect(VcMask::range(10, 12)).is_empty());
        let members: Vec<u8> = a.iter().collect();
        assert_eq!(members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn candidates_merge_same_direction() {
        let mut c = Candidates::none();
        c.push_simple(Direction::East, VcMask::bit(0));
        c.push_simple(Direction::East, VcMask::bit(1));
        c.push_simple(Direction::North, VcMask::bit(2));
        assert_eq!(c.len(), 2);
        let east = c.for_dir(Direction::East).unwrap();
        assert!(east.preferred.contains(0) && east.preferred.contains(1));
    }

    #[test]
    fn candidates_tiers() {
        let mut c = Candidates::none();
        c.push(CandidateHop {
            dir: Direction::West,
            preferred: VcMask::range(0, 1),
            fallback: VcMask::bit(7),
        });
        let w = c.for_dir(Direction::West).unwrap();
        assert_eq!(w.preferred.count(), 2);
        assert_eq!(w.fallback.count(), 1);
    }

    #[test]
    fn message_type_classification() {
        assert_eq!(MessageType::classify((0, 0), (5, 0)), MessageType::WE);
        assert_eq!(MessageType::classify((5, 0), (0, 3)), MessageType::EW);
        assert_eq!(MessageType::classify((2, 1), (2, 9)), MessageType::SN);
        assert_eq!(MessageType::classify((2, 9), (2, 1)), MessageType::NS);
        // Distinct BC indices for the four types.
        let idx: std::collections::HashSet<u8> = [
            MessageType::WE,
            MessageType::EW,
            MessageType::SN,
            MessageType::NS,
        ]
        .iter()
        .map(|t| t.bc_index())
        .collect();
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn fresh_state() {
        let st = MessageState::new(NodeId(1), NodeId(42));
        assert_eq!(st.hops, 0);
        assert!(st.ring.is_none());
        assert!(st.last_dir.is_none());
    }
}
