//! The structured trace-event vocabulary emitted by the engine.

use serde::{Deserialize, Serialize};

/// What happened to a message at one point in its life cycle.
///
/// The set mirrors the engine's decision points: a message enters the
/// network (`Inject`), its header asks the routing function for
/// candidates (`RouteDecision`) and either claims an output VC
/// (`VcAcquire`) or goes to sleep on the busy candidates' wake lists
/// (`Block`); the worm gives a VC back once its tail has left it, or when
/// it is torn out of the network (`VcRelease`); a freed VC slot re-arms
/// sleeping headers (`Wake`); an
/// online fault tears a message out of the network (`Abort`), the
/// watchdog drops and re-injects a stuck one (`Recover`); and the tail
/// flit finally drains at the destination (`Deliver`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// Message left its source queue and occupied the injection port.
    Inject,
    /// The routing function ran for the message's header at `node`.
    RouteDecision,
    /// The header claimed `(channel, vc)` and the worm grew one hop.
    VcAcquire,
    /// Every candidate VC was busy; the header sleeps on wake lists.
    Block,
    /// The message gave back `(channel, vc)`, the VC it held into `node`.
    VcRelease,
    /// `(channel, vc)` freed and re-armed this sleeping header.
    Wake,
    /// An online fault activation aborted the message (chaos recovery),
    /// or dropped it for good because an endpoint died.
    Abort,
    /// The watchdog dropped the stuck message for re-injection, or for
    /// good if its source has died since it was injected.
    Recover,
    /// The tail flit drained at the destination; the message is done.
    Deliver,
}

/// One structured trace event: an [`EventKind`] stamped with the cycle,
/// the message's slab id, and — where meaningful — the node, physical
/// channel, and virtual channel involved. Fields that do not apply to a
/// kind carry the `NO_*` sentinels.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation cycle the event occurred in.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
    /// Message slab id (reused after delivery; pair with `Inject` /
    /// `Deliver` boundaries to recover unique message lifetimes).
    pub msg: u32,
    /// Node involved (source for `Inject`/`Abort`, header position for
    /// `RouteDecision`/`VcAcquire`/`Block`/`Recover`, the released VC's
    /// downstream node for `VcRelease`, destination for `Deliver`), or
    /// [`TraceEvent::NO_NODE`].
    pub node: u16,
    /// Physical channel involved, or [`TraceEvent::NO_CHANNEL`].
    pub channel: u32,
    /// Virtual channel involved, or [`TraceEvent::NO_VC`].
    pub vc: u8,
}

impl TraceEvent {
    /// Sentinel for "no node applies to this event".
    pub const NO_NODE: u16 = u16::MAX;
    /// Sentinel for "no physical channel applies to this event".
    pub const NO_CHANNEL: u32 = u32::MAX;
    /// Sentinel for "no virtual channel applies to this event".
    pub const NO_VC: u8 = u8::MAX;

    /// An event with every optional coordinate at its sentinel.
    #[inline]
    pub fn new(cycle: u64, kind: EventKind, msg: u32) -> Self {
        TraceEvent {
            cycle,
            kind,
            msg,
            node: Self::NO_NODE,
            channel: Self::NO_CHANNEL,
            vc: Self::NO_VC,
        }
    }

    /// Builder-style node stamp.
    #[inline]
    pub fn at(mut self, node: u16) -> Self {
        self.node = node;
        self
    }

    /// Builder-style `(channel, vc)` stamp.
    #[inline]
    pub fn on(mut self, channel: u32, vc: u8) -> Self {
        self.channel = channel;
        self.vc = vc;
        self
    }

    /// Whether a real node is attached.
    #[inline]
    pub fn has_node(&self) -> bool {
        self.node != Self::NO_NODE
    }

    /// Whether a real `(channel, vc)` is attached.
    #[inline]
    pub fn has_channel(&self) -> bool {
        self.channel != Self::NO_CHANNEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_stamps_coordinates() {
        let e = TraceEvent::new(7, EventKind::VcAcquire, 3).at(12).on(57, 4);
        assert_eq!(e.cycle, 7);
        assert_eq!(e.node, 12);
        assert_eq!((e.channel, e.vc), (57, 4));
        assert!(e.has_node() && e.has_channel());
    }

    #[test]
    fn sentinels_read_as_absent() {
        let e = TraceEvent::new(0, EventKind::Wake, 1);
        assert!(!e.has_node());
        assert!(!e.has_channel());
    }

    #[test]
    fn serde_round_trip() {
        let e = TraceEvent::new(42, EventKind::Block, 9).at(3);
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
