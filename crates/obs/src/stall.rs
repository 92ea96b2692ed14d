//! Stall forensics: turn "the watchdog fired" into "who is waiting on
//! whom, and is it a deadlock".
//!
//! A blocked header's registration record names exactly the busy slots
//! it sleeps on, so the records are the wait-for graph. A header waiting
//! on several slots is deadlocked only inside a *knot*: headers whose
//! every registered slot is held by a member, none of whose worms can move
//! (Warnakulasuriya and Pinkston, IPPS 1997). [`StallDiagnosis`] names the
//! engine's knot or, failing one, the slot with the most sleepers.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One edge of the wait-for graph: `waiter` sleeps on `(channel, vc)`,
/// which is currently held by `holder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitEdge {
    /// Slab id of the blocked message.
    pub waiter: u32,
    /// Physical channel of the contended VC slot.
    pub channel: u32,
    /// Virtual channel index of the contended slot.
    pub vc: u8,
    /// Slab id of the message currently occupying the slot.
    pub holder: u32,
}

/// The most-contended VC slot among the wait edges.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Physical channel of the slot.
    pub channel: u32,
    /// Virtual channel index of the slot.
    pub vc: u8,
    /// Message holding the slot.
    pub holder: u32,
    /// Messages sleeping on it.
    pub waiters: Vec<u32>,
}

/// Snapshot of one message involved in the stall.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallMessage {
    /// Slab id.
    pub id: u32,
    /// Source node coordinates.
    pub src: (u16, u16),
    /// Destination node coordinates.
    pub dest: (u16, u16),
    /// Current header position.
    pub head: (u16, u16),
    /// Whether the header is still at its source (no hop claimed yet).
    pub at_source: bool,
    /// Flits already drained at the destination.
    pub delivered: u32,
    /// Consecutive cycles the header has failed to allocate.
    pub wait_cycles: u32,
    /// Watchdog recoveries already applied to this message.
    pub recoveries: u32,
    /// `(channel, vc)` slots the worm currently occupies.
    pub holds: Vec<(u32, u8)>,
}

/// The watchdog's structured report: what was stuck, on what, and why.
///
/// Built by the engine when a message trips the deadlock timeout, or on
/// demand at any cycle; returned as a value so tests (and the trace bin)
/// can assert on the identified resource instead of scraping stderr.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallDiagnosis {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// The message that tripped the watchdog, if it was still routable.
    pub focus: Option<StallMessage>,
    /// How many active messages were blocked at that moment.
    pub blocked_messages: usize,
    /// Every blocked header's registered busy slots at that moment.
    pub edges: Vec<WaitEdge>,
    /// The union of all knots, in ascending id order, each member with
    /// the slots it holds. Empty when nothing is deadlocked.
    pub knot: Vec<StallMessage>,
}

impl StallDiagnosis {
    /// The one-line name of the blocking resource, for quick assertions:
    /// the knot if there is one, otherwise the hotspot slot.
    pub fn names_resource(&self) -> Option<String> {
        if !self.knot.is_empty() {
            let ids: Vec<String> = self.knot.iter().map(|m| format!("m{}", m.id)).collect();
            return Some(format!(
                "knot of {} header(s): {}",
                ids.len(),
                ids.join(" ")
            ));
        }
        self.hotspot().map(|h| {
            format!(
                "hotspot: channel {} vc {} held by m{} ({} waiting)",
                h.channel,
                h.vc,
                h.holder,
                h.waiters.len()
            )
        })
    }

    /// The slot with the most waiters (ties: lowest (channel, vc)), when
    /// any edge exists.
    pub fn hotspot(&self) -> Option<Hotspot> {
        let mut by_slot: BTreeMap<(u32, u8), (u32, Vec<u32>)> = BTreeMap::new();
        for e in &self.edges {
            let entry = by_slot
                .entry((e.channel, e.vc))
                .or_insert_with(|| (e.holder, Vec::new()));
            entry.1.push(e.waiter);
        }
        by_slot
            .into_iter()
            .max_by_key(|((ch, vc), (_, waiters))| {
                (
                    waiters.len(),
                    std::cmp::Reverse(*ch),
                    std::cmp::Reverse(*vc),
                )
            })
            .map(|((channel, vc), (holder, waiters))| Hotspot {
                channel,
                vc,
                holder,
                waiters,
            })
    }
}

impl fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[stall] cycle {}: {} blocked message(s), {} wait edge(s)",
            self.cycle,
            self.blocked_messages,
            self.edges.len()
        )?;
        if let Some(m) = &self.focus {
            writeln!(
                f,
                "[stall]   focus m{}: ({},{}) -> ({},{}), head ({},{}){}, \
                 {} flit(s) delivered, waited {} cycle(s), {} prior recover(ies)",
                m.id,
                m.src.0,
                m.src.1,
                m.dest.0,
                m.dest.1,
                m.head.0,
                m.head.1,
                if m.at_source { " (at source)" } else { "" },
                m.delivered,
                m.wait_cycles,
                m.recoveries,
            )?;
            if !m.holds.is_empty() {
                writeln!(f, "[stall]   focus holds: {}", slot_list(&m.holds))?;
            }
        }
        for m in &self.knot {
            let holds = if m.at_source {
                "nothing (at source)".into()
            } else {
                slot_list(&m.holds)
            };
            writeln!(f, "[stall]   knot m{} holds: {holds}", m.id)?;
        }
        for e in &self.edges {
            writeln!(
                f,
                "[stall]   m{} waits on ch{}/vc{} held by m{}",
                e.waiter, e.channel, e.vc, e.holder
            )?;
        }
        match self.names_resource() {
            Some(name) => writeln!(f, "[stall]   verdict: {name}"),
            None => writeln!(
                f,
                "[stall]   verdict: no wait edges (livelock or drained holder)"
            ),
        }
    }
}

/// `(channel, vc)` slots as `ch12/vc1, ch13/vc1`.
fn slot_list(slots: &[(u32, u8)]) -> String {
    let names: Vec<String> = slots
        .iter()
        .map(|(ch, vc)| format!("ch{ch}/vc{vc}"))
        .collect();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(waiter: u32, channel: u32, vc: u8, holder: u32) -> WaitEdge {
        WaitEdge {
            waiter,
            channel,
            vc,
            holder,
        }
    }

    fn diagnosis(
        cycle: u64,
        focus: Option<StallMessage>,
        edges: Vec<WaitEdge>,
        knot: Vec<StallMessage>,
    ) -> StallDiagnosis {
        StallDiagnosis {
            cycle,
            focus,
            blocked_messages: edges.len(),
            edges,
            knot,
        }
    }

    #[test]
    fn no_cycle_reports_hotspot() {
        // Three messages all waiting on the same slot held by m9.
        let edges = vec![edge(1, 40, 2, 9), edge(2, 40, 2, 9), edge(3, 7, 0, 9)];
        let d = diagnosis(50, None, edges, Vec::new());
        assert!(d.knot.is_empty());
        let h = d.hotspot().expect("hotspot found");
        assert_eq!((h.channel, h.vc, h.holder), (40, 2, 9));
        assert_eq!(h.waiters, vec![1, 2]);
        let name = d.names_resource().unwrap();
        assert!(name.contains("channel 40 vc 2"), "{name}");
        assert!(name.contains("2 waiting"), "{name}");
    }

    fn member(id: u32, holds: Vec<(u32, u8)>) -> StallMessage {
        StallMessage {
            id,
            src: (0, 0),
            dest: (3, 3),
            head: (1, 1),
            at_source: holds.is_empty(),
            delivered: 0,
            wait_cycles: 400,
            recoveries: 0,
            holds,
        }
    }

    #[test]
    fn a_knot_is_named_before_the_hotspot() {
        // m0 and m1 wait on each other's slot; m2 also waits on m0's.
        let edges = vec![edge(0, 11, 0, 1), edge(1, 10, 0, 0), edge(2, 10, 0, 0)];
        let knot = vec![member(0, vec![(10, 0)]), member(1, vec![(11, 0)])];
        let d = diagnosis(10, None, edges, knot);
        assert_eq!(d.hotspot().map(|h| h.waiters.len()), Some(2));
        let name = d.names_resource().unwrap();
        assert_eq!(name, "knot of 2 header(s): m0 m1");
        let text = format!("{d}");
        assert!(text.contains("knot m1 holds: ch11/vc0"), "{text}");
        let d = diagnosis(10, None, Vec::new(), vec![member(4, Vec::new())]);
        assert!(format!("{d}").contains("knot m4 holds: nothing (at source)"));
        assert!(text.contains("verdict: knot"), "{text}");
    }

    #[test]
    fn empty_edges_name_nothing() {
        let d = diagnosis(1, None, Vec::new(), Vec::new());
        assert!(d.hotspot().is_none());
        assert!(d.names_resource().is_none());
        // Display still renders without panicking.
        let text = format!("{d}");
        assert!(text.contains("no wait edges"), "{text}");
    }

    #[test]
    fn display_dumps_edges_and_focus() {
        let focus = StallMessage {
            id: 7,
            src: (0, 1),
            dest: (5, 5),
            head: (2, 1),
            at_source: false,
            delivered: 3,
            wait_cycles: 301,
            recoveries: 1,
            holds: vec![(12, 1), (13, 1)],
        };
        let d = diagnosis(999, Some(focus), vec![edge(7, 20, 0, 8)], Vec::new());
        let text = format!("{d}");
        assert!(text.contains("cycle 999"), "{text}");
        assert!(text.contains("focus m7"), "{text}");
        assert!(text.contains("ch12/vc1, ch13/vc1"), "{text}");
        assert!(text.contains("m7 waits on ch20/vc0 held by m8"), "{text}");
    }

    #[test]
    fn serde_round_trip() {
        let knot = vec![member(1, vec![(3, 1)])];
        let d = diagnosis(5, None, vec![edge(1, 2, 3, 4)], knot);
        let json = serde_json::to_string(&d).unwrap();
        let back: StallDiagnosis = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
