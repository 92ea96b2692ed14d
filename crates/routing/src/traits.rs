//! The routing trait the engine consumes.

use crate::state::{Candidates, MessageState};
use wormsim_topology::{Direction, NodeId};

/// A complete routing algorithm as seen by the simulation engine.
///
/// The engine calls [`RoutingAlgorithm::route`] whenever a header flit sits
/// unrouted at the front of an input VC, tries to allocate one of the
/// returned candidate (direction, VC) pairs, and calls
/// [`RoutingAlgorithm::on_hop`] once the header wins allocation and moves.
///
/// `route` takes `&mut MessageState` because fault-tolerance overlays keep
/// per-message mode (f-ring traversal, wall-following) that is entered,
/// advanced, and exited during routing decisions. Implementations must be
/// *idempotent between hops*: calling `route` repeatedly without an
/// intervening `on_hop` must keep returning the same candidates.
pub trait RoutingAlgorithm: Send + Sync {
    /// The paper's display name for this algorithm.
    fn name(&self) -> &'static str;

    /// Total virtual channels per physical channel this algorithm assumes
    /// (base VCs + overlay VCs).
    fn num_vcs(&self) -> u8;

    /// Fresh routing state for a message from `src` to `dest`.
    fn init_message(&self, src: NodeId, dest: NodeId) -> MessageState;

    /// Candidate next hops for the message currently at `node`.
    /// An empty set means the message must wait this cycle.
    fn route(&self, node: NodeId, st: &mut MessageState) -> Candidates;

    /// Commit a hop: the header moved from `from` to `to` through direction
    /// `dir` on virtual channel `vc`. Updates class/bookkeeping state.
    fn on_hop(&self, from: NodeId, to: NodeId, dir: Direction, vc: u8, st: &mut MessageState);

    /// Whether `vc` belongs to the fault-tolerance overlay (e.g. a BC ring
    /// VC) rather than the base discipline. The engine uses this to count
    /// detour hops. Default: no overlay.
    fn is_overlay_vc(&self, vc: u8) -> bool {
        let _ = vc;
        false
    }

    /// A blocked header's candidate set is stable between hops (`route` is
    /// idempotent), so the engine re-arbitrates it only when a VC it can
    /// use frees. If the set can additionally *widen* once
    /// `MessageState::wait_cycles` reaches a threshold (Fully-Adaptive's
    /// misroute patience), return that threshold so the engine forces one
    /// re-route at exactly that point. Default: the set never widens while
    /// blocked.
    fn recheck_wait(&self) -> Option<u32> {
        None
    }
}
