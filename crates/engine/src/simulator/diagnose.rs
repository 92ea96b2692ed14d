//! Stall forensics: the blocked headers' registration records as a
//! wait-for graph, the knots in it, and a [`StallDiagnosis`].

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Snapshot the wait-for graph into a structured [`StallDiagnosis`]:
    /// one edge per (blocked header, registered busy slot) pair, the union
    /// of all knots ([`Simulator::knot`]) and the focus message's own
    /// situation. Side-effect free: callable from tests at any cycle.
    pub fn diagnose_stall(&self, focus: Option<MsgId>) -> StallDiagnosis {
        let holders = self.holders();
        let mut edges = Vec::new();
        let mut blocked = 0;
        for &id in self.active.iter().filter(|&&id| self.is_blocked(id)) {
            blocked += 1;
            for key in self.registered_slots(id) {
                if let Some(holder) = holder_of(&holders, key) {
                    edges.push(WaitEdge {
                        waiter: id,
                        channel: self.key_channel(key).0,
                        vc: self.key_vc(key),
                        holder,
                    });
                }
            }
        }
        edges.sort_unstable_by_key(|e| (e.channel, e.vc, e.waiter));
        let knot = self.knot().into_iter().map(|id| self.stall_message(id));
        StallDiagnosis {
            cycle: self.cycle,
            focus: focus.map(|id| self.stall_message(id.0)),
            blocked_messages: blocked,
            edges,
            knot: knot.collect(),
        }
    }

    /// The union of all knots, in ascending id order: blocked headers
    /// that nothing inside the network can unblock any more.
    ///
    /// Its candidates are the blocked headers with a registered slot whose
    /// worm cannot free a slot by itself (`stalled`, or holding no VC) and
    /// whose candidate set no longer widens (past `recheck_wait`). A
    /// candidate with a registered slot that is free or held by a
    /// non-candidate is dropped until nothing changes: each survivor then
    /// waits only on survivors, whose flits cannot move, so only the
    /// watchdog or a fault activation can change any of them.
    /// Side-effect free; the slot holders are looked up only once a
    /// candidate exists.
    pub fn knot(&self) -> Vec<u32> {
        let ids = 0..self.msgs.len() as u32;
        let mut member: Vec<bool> = ids.clone().map(|id| self.knot_candidate(id)).collect();
        if !member.contains(&true) {
            return Vec::new();
        }
        let holders = self.holders();
        let mut changed = true;
        while std::mem::take(&mut changed) {
            for id in ids.clone() {
                let inside =
                    |key: u32| holder_of(&holders, key).is_some_and(|h| member[h as usize]);
                if member[id as usize] && !self.registered_slots(id).all(inside) {
                    member[id as usize] = false;
                    changed = true;
                }
            }
        }
        ids.filter(|&id| member[id as usize]).collect()
    }

    /// Every held VC slot with its holder, read off the live paths:
    /// `(slot key, message)` per path entry, sorted by key. The simulator
    /// keeps no owner table (`occ_mask` says only *whether* a slot is
    /// held), so the diagnostics and audits build this while they run.
    /// A consistent simulator lists each key at most once.
    pub(super) fn holders(&self) -> Vec<(u32, u32)> {
        let mut holders: Vec<(u32, u32)> = (0..self.msgs.len())
            .flat_map(|i| self.path(i).iter().map(move |e| (e.key, i as u32)))
            .collect();
        holders.sort_unstable();
        holders
    }

    /// Whether `id` may belong to a knot (see [`Simulator::knot`]).
    fn knot_candidate(&self, id: u32) -> bool {
        let i = id as usize;
        self.is_blocked(id)
            && self.reg_bits[i] != 0
            && (self.stalled[i] || self.msgs[i].path.is_empty())
            && !matches!(self.recheck_wait, Some(w) if self.wait[i] <= w)
    }

    /// The slot keys blocked header `id` sleeps on: its registration
    /// record, whose bit `dir * 32 + vc` names VC `vc` of the channel
    /// leaving its head node (`reg_node`) in direction `dir`.
    fn registered_slots(&self, id: u32) -> impl Iterator<Item = u32> + '_ {
        let i = id as usize;
        let (node, mesh) = (NodeId(self.reg_node[i]), self.ctx.mesh());
        let mut bits = self.reg_bits[i];
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let ch = mesh.channel(node, Direction::from_index(bit as usize / 32));
            Some(ch.0 * self.num_vcs as u32 + bit % 32)
        })
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

/// The holder of slot `key` in a [`Simulator::holders`] list.
fn holder_of(holders: &[(u32, u32)], key: u32) -> Option<u32> {
    let i = holders.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(holders[i].1)
}
