//! Where traffic enters the engine: the per-node Poisson sources on a
//! due-cycle calendar, and the per-node source queues and injection ports
//! with bitsets of the non-empty queues and the free ports. Both let a
//! cycle visit only the nodes where something happens: at light load a
//! message arrives somewhere every few cycles, and at saturation a port
//! frees up about once a cycle, so polling or scanning all nodes would be
//! most of the cost.

use crate::message::Queued;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use wormsim_traffic::Injector;

/// One [`Injector`] per node, with every enabled one in a min-heap keyed by
/// `(due cycle, node)`, where the due cycle is [`Injector::next_due`].
/// Polling a source before it is due draws nothing and generates nothing,
/// so popping only the due entries is byte-identical to polling every
/// source every cycle.
pub(crate) struct Calendar {
    injectors: Vec<Injector>,
    due: BinaryHeap<Reverse<(u64, u16)>>,
}

impl Calendar {
    /// One injector per node at the given rates (0 disables a node).
    pub fn new(rates: impl Iterator<Item = f64>) -> Self {
        let injectors: Vec<Injector> = rates.map(Injector::new).collect();
        let due = (injectors.iter().enumerate())
            .filter(|(_, inj)| inj.rate() > 0.0)
            .map(|(node, inj)| Reverse((inj.next_due(), node as u16)))
            .collect();
        Calendar { injectors, due }
    }

    /// Stop `node`'s source for good: its injector and its calendar entry
    /// go together.
    pub fn disable(&mut self, node: usize) {
        self.injectors[node] = Injector::new(0.0);
        self.due.retain(|&Reverse((_, n))| n as usize != node);
    }

    /// Poll the first source due at or before `cycle` and put it back at
    /// its next due cycle; returns its node and the messages it generated,
    /// or `None` once no source is due. A cycle that is drained before the
    /// next one starts leaves every entry due later, so the sources due at
    /// a cycle come out in ascending node order.
    pub fn poll_next<R: Rng>(&mut self, cycle: u64, rng: &mut R) -> Option<(usize, usize)> {
        let mut top = self.due.peek_mut()?;
        let Reverse((due, node)) = *top;
        if due > cycle {
            return None;
        }
        let inj = &mut self.injectors[node as usize];
        let arrivals = inj.poll_rng(cycle, rng);
        *top = Reverse((inj.next_due(), node));
        Some((node as usize, arrivals))
    }

    /// Test support: every enabled injector has exactly one entry, at its
    /// own due cycle, and a disabled one has none. Panics otherwise.
    pub fn check(&self) {
        let mut want: Vec<(u64, u16)> = (self.injectors.iter().enumerate())
            .filter(|(_, inj)| inj.rate() > 0.0)
            .map(|(node, inj)| (inj.next_due(), node as u16))
            .collect();
        let mut have: Vec<(u64, u16)> = self.due.iter().map(|e| e.0).collect();
        want.sort_unstable();
        have.sort_unstable();
        assert_eq!(
            have, want,
            "calendar entries are not the enabled sources' due cycles"
        );
    }
}

/// The per-node source queues of generated-but-not-started messages and
/// the injection ports they wait for, with two bitsets: bit `n` of
/// `pending` is set iff queue `n` is non-empty, bit `n` of `idle` iff port
/// `n` is free. A node can promote a message exactly when both bits are
/// set, so promotion visits those nodes and no others: at light load few
/// queues hold anything, at saturation few ports free up per cycle. Every
/// queue and port update goes through here, so no bit can drift from what
/// it mirrors.
pub(crate) struct SourceQueues {
    queues: Vec<VecDeque<Queued>>,
    /// Per node, the message occupying the injection port.
    port: Vec<Option<u32>>,
    /// Bit `n % 64` of word `n / 64` mirrors `!queues[n].is_empty()`.
    pending: Vec<u64>,
    /// Bit `n % 64` of word `n / 64` mirrors `port[n].is_none()`.
    idle: Vec<u64>,
}

impl SourceQueues {
    /// `num_nodes` empty queues and free ports.
    pub fn new(num_nodes: usize) -> Self {
        let words = num_nodes.div_ceil(64);
        let mut idle = vec![0; words];
        for node in 0..num_nodes {
            set_bit(&mut idle, node, true);
        }
        SourceQueues {
            queues: (0..num_nodes).map(|_| VecDeque::new()).collect(),
            port: vec![None; num_nodes],
            pending: vec![0; words],
            idle,
        }
    }

    /// Queue `entry` behind `node`'s backlog.
    pub fn push_back(&mut self, node: usize, entry: Queued) {
        self.queues[node].push_back(entry);
        set_bit(&mut self.pending, node, true);
    }

    /// Queue `entry` ahead of `node`'s backlog.
    pub fn push_front(&mut self, node: usize, entry: Queued) {
        self.queues[node].push_front(entry);
        set_bit(&mut self.pending, node, true);
    }

    /// Take the oldest entry of `node`'s queue.
    pub fn pop_front(&mut self, node: usize) -> Option<Queued> {
        let entry = self.queues[node].pop_front();
        set_bit(&mut self.pending, node, !self.queues[node].is_empty());
        entry
    }

    /// Keep the entries of `node`'s queue that `keep` accepts, in order.
    pub fn retain(&mut self, node: usize, keep: impl FnMut(&Queued) -> bool) {
        self.queues[node].retain(keep);
        set_bit(&mut self.pending, node, !self.queues[node].is_empty());
    }

    /// The message occupying `node`'s injection port.
    pub fn port(&self, node: usize) -> Option<u32> {
        self.port[node]
    }

    /// Give `node`'s injection port to message `id`.
    pub fn seize_port(&mut self, node: usize, id: u32) {
        self.port[node] = Some(id);
        set_bit(&mut self.idle, node, false);
    }

    /// Free `node`'s injection port.
    pub fn free_port(&mut self, node: usize) {
        self.port[node] = None;
        set_bit(&mut self.idle, node, true);
    }

    /// The lowest node `≥ from` with a queued message and a free port.
    pub fn next_promotable(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = (self.pending.get(w)? & self.idle[w]) & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = self.pending.get(w)? & self.idle[w];
        }
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.queues.len()
    }

    /// Messages waiting over all queues.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Every queued entry, node order then queue order.
    pub fn iter(&self) -> impl Iterator<Item = &Queued> {
        self.queues.iter().flatten()
    }

    /// Reserve room for `per_node` more entries in every queue.
    pub fn reserve(&mut self, per_node: usize) {
        for q in &mut self.queues {
            q.reserve(per_node);
        }
    }

    /// Test support: the pending and idle bits mirror queue non-emptiness
    /// and port freedom, bit for bit, with no bit set beyond the last
    /// node. Panics otherwise.
    pub fn check(&self) {
        let words = self.queues.len().div_ceil(64);
        assert_eq!((self.pending.len(), self.idle.len()), (words, words));
        for node in 0..words * 64 {
            let queued = self.queues.get(node).is_some_and(|q| !q.is_empty());
            let free = self.port.get(node).is_some_and(Option::is_none);
            assert_eq!(
                self.pending[node / 64] >> (node % 64) & 1 == 1,
                queued,
                "pending bit of node {node} out of sync with its queue"
            );
            assert_eq!(
                self.idle[node / 64] >> (node % 64) & 1 == 1,
                free,
                "idle bit of node {node} out of sync with its port"
            );
        }
    }
}

/// Set bit `n` of a word-packed bitset to `value`.
#[inline]
fn set_bit(words: &mut [u64], n: usize, value: bool) {
    let bit = 1 << (n % 64);
    if value {
        words[n / 64] |= bit;
    } else {
        words[n / 64] &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::NodeId;

    fn fresh(created: u64) -> Queued {
        Queued::Fresh {
            dest: NodeId(0),
            created,
        }
    }

    #[test]
    fn promotable_nodes_have_a_queue_and_a_free_port() {
        let mut q = SourceQueues::new(130);
        q.check();
        assert_eq!(q.next_promotable(0), None, "nothing queued");
        for node in [0, 5, 63, 64, 129] {
            q.push_back(node, fresh(1));
        }
        q.push_front(64, fresh(0));
        q.seize_port(5, 7);
        q.check();
        let promotable = |q: &SourceQueues| {
            std::iter::successors(q.next_promotable(0), |&n| q.next_promotable(n + 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(promotable(&q), [0, 63, 64, 129]);
        assert!(matches!(
            q.pop_front(64),
            Some(Queued::Fresh { created: 0, .. })
        ));
        assert_eq!(q.next_promotable(64), Some(64), "one entry left at 64");
        q.pop_front(64);
        q.retain(129, |_| false);
        q.free_port(5);
        q.seize_port(63, 8);
        q.check();
        assert_eq!(promotable(&q), [0, 5]);
        assert_eq!((q.port(5), q.port(63)), (None, Some(8)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn calendar_polls_due_sources_in_node_order() {
        use rand::SeedableRng;
        let mut cal = Calendar::new([0.5, 0.0, 0.5, 0.5].into_iter());
        cal.check();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        // Unprimed sources are all due at cycle 0.
        let first: Vec<usize> = std::iter::from_fn(|| cal.poll_next(0, &mut rng))
            .map(|(node, _)| node)
            .collect();
        assert_eq!(first, [0, 2, 3]);
        cal.check();
        cal.disable(2);
        cal.check();
        for cycle in 1..200 {
            while let Some((node, _)) = cal.poll_next(cycle, &mut rng) {
                assert!(node == 0 || node == 3, "disabled source {node} polled");
            }
            cal.check();
        }
    }
}
