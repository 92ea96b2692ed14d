//! Stall forensics: the blocked-message wait-for graph as a [`StallDiagnosis`].

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Snapshot the blocked-message wait-for graph into a structured
    /// [`StallDiagnosis`]: one edge per (sleeping header, occupied
    /// candidate slot) pair, plus the focus message's own situation.
    /// Cheap relative to a recovery (it only scans non-empty wake lists),
    /// and side-effect free — callable from tests at any cycle.
    pub fn diagnose_stall(&self, focus: Option<MsgId>) -> StallDiagnosis {
        let mut edges = Vec::new();
        // The wake-flag masks locate non-empty lists: one `trailing_zeros`
        // loop per channel instead of scanning every (channel, VC) slot.
        for (ch, &mask) in self.waiter_mask.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let vc = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                self.stall_edges_for(ch as u32, vc, &mut edges);
            }
        }
        let blocked = self
            .active
            .iter()
            .filter(|&&id| self.is_blocked(id))
            .count();
        let focus = focus.map(|id| self.stall_message(id.0));
        StallDiagnosis::build(self.cycle, focus, blocked, edges)
    }

    /// Collect the wait-for edges of one (channel, VC) slot's wake list.
    fn stall_edges_for(&self, channel: u32, vc: u8, edges: &mut Vec<WaitEdge>) {
        let key = channel * self.num_vcs as u32 + vc as u32;
        let Some(holder) = self.slots[key as usize] else {
            // Freed but not yet drained: its sleepers are about to wake.
            return;
        };
        let first = edges.len();
        for waiter in self.waiters.iter(key) {
            // Stale entries (moved on, died, recycled) are not waiting, and
            // a list is a set: a repeated id adds no second edge.
            if self.is_blocked(waiter) && !edges[first..].iter().any(|e| e.waiter == waiter) {
                edges.push(WaitEdge {
                    waiter,
                    channel,
                    vc,
                    holder,
                });
            }
        }
    }

    /// Snapshot one message's situation for a stall report.
    fn stall_message(&self, id: u32) -> StallMessage {
        let i = id as usize;
        let m = &self.msgs[i];
        let mesh = self.ctx.mesh();
        let coord = |n: NodeId| {
            let c = mesh.coord(n);
            (c.x, c.y)
        };
        StallMessage {
            id,
            src: coord(m.src),
            dest: coord(m.dest),
            head: coord(self.head_node(i)),
            at_source: m.path.is_empty(),
            delivered: m.delivered,
            wait_cycles: self.wait[i],
            recoveries: m.recoveries,
            holds: self.path(i).iter().map(|e| (e.ch, e.vc)).collect(),
        }
    }
}
