//! Flat wake-list storage: every per-VC-slot wake list lives in one
//! shared arena of singly-linked nodes instead of a `Vec<Vec<u32>>`.
//!
//! The old layout paid one heap allocation per slot that ever had a
//! waiter and scattered the list headers (24 bytes each) across the
//! address space; with `num_channel_slots × num_vcs` slots on a 64×64
//! mesh that is ~400k `Vec` headers of mostly-empty lists. Here a slot is
//! one `u32`, the arena index of its list's last node (`NONE` when
//! empty), and each list is a ring: the last node's `next` is the first.
//! So the tail reaches both ends, the release path's emptiness probe is a
//! dense-array load, appending is O(1), and draining a whole list is an
//! O(1) splice onto the free chain.
//!
//! Ordering contract: iteration yields waiters in insertion order — the
//! wake pass re-arms blocked headers in exactly the sequence the old
//! per-slot `Vec` produced, which the byte-identity discipline depends
//! on.
//!
//! The table keeps duplicates: [`WaiterTable::push`] appends without
//! looking. Whether an id is already listed is the simulator's
//! registration record (`Simulator::reg_bits`), which answers in O(1)
//! what a walk of the list used to. A list can still name an id twice
//! after the header revisits a node or the id is recycled; readers treat
//! each list as a set, and only the first entry of an id has any effect.

/// Sentinel index for "no node" (empty slots, the free chain's end).
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct WaiterNode {
    msg: u32,
    next: u32,
}

/// All wake lists of one simulator, arena-backed. See the module docs.
pub(crate) struct WaiterTable {
    /// Last arena node of each slot's ring (`NONE` = empty); its `next`
    /// is the first.
    tail: Vec<u32>,
    /// Shared node arena; freed nodes chain through `next`.
    nodes: Vec<WaiterNode>,
    /// Head of the free chain (`NONE` = exhausted; the next push grows
    /// the arena).
    free: u32,
}

impl WaiterTable {
    /// Empty lists for `num_slots` VC slots.
    pub fn new(num_slots: usize) -> Self {
        WaiterTable {
            tail: vec![NONE; num_slots],
            nodes: Vec::new(),
            free: NONE,
        }
    }

    /// Drop every list without reshaping (fault activations invalidate
    /// all registrations at once).
    pub fn clear_all(&mut self) {
        self.tail.iter_mut().for_each(|t| *t = NONE);
        self.nodes.clear();
        self.free = NONE;
    }

    #[inline]
    pub fn is_empty(&self, key: u32) -> bool {
        self.tail[key as usize] == NONE
    }

    /// Arena nodes currently on some list (0 after `clear_all`).
    #[cfg(test)]
    pub fn live_nodes(&self) -> usize {
        let mut on_free = 0usize;
        let mut cur = self.free;
        while cur != NONE {
            on_free += 1;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes.len() - on_free
    }

    /// Pre-size the arena for `nodes` concurrent list entries.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        if self.nodes.capacity() < nodes {
            self.nodes.reserve(nodes - self.nodes.len());
        }
    }

    /// Append `id` to `key`'s list. O(1): no check for an entry already
    /// there (see the module docs).
    pub fn push(&mut self, key: u32, id: u32) {
        let t = self.tail[key as usize];
        let node = WaiterNode { msg: id, next: 0 };
        let slot = if self.free != NONE {
            let s = self.free;
            self.free = self.nodes[s as usize].next;
            self.nodes[s as usize] = node;
            s
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        // The new node closes the ring: it follows the old tail and leads
        // back to the first node (itself, in a list of one).
        if t == NONE {
            self.nodes[slot as usize].next = slot;
        } else {
            self.nodes[slot as usize].next = self.nodes[t as usize].next;
            self.nodes[t as usize].next = slot;
        }
        self.tail[key as usize] = slot;
    }

    /// Iterate `key`'s waiters in insertion order.
    #[inline]
    pub fn iter(&self, key: u32) -> WaiterIter<'_> {
        let last = self.tail[key as usize];
        WaiterIter {
            nodes: &self.nodes,
            cur: if last == NONE {
                NONE
            } else {
                self.nodes[last as usize].next
            },
            last,
        }
    }

    /// Detach `key`'s whole list, returning its nodes to the free chain
    /// in O(1) (one splice, no per-node walk): the ring is cut after its
    /// tail, which then leads into the old free chain.
    pub fn release(&mut self, key: u32) {
        let t = self.tail[key as usize];
        if t == NONE {
            return;
        }
        std::mem::swap(&mut self.nodes[t as usize].next, &mut self.free);
        self.tail[key as usize] = NONE;
    }
}

pub(crate) struct WaiterIter<'a> {
    nodes: &'a [WaiterNode],
    /// The next node to yield (`NONE` once the tail is yielded).
    cur: u32,
    /// The list's tail, where the walk stops.
    last: u32,
}

impl Iterator for WaiterIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let n = self.nodes[self.cur as usize];
        self.cur = if self.cur == self.last { NONE } else { n.next };
        Some(n.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_duplicates_kept() {
        let mut t = WaiterTable::new(4);
        t.push(2, 10);
        t.push(2, 11);
        t.push(2, 10); // duplicate: kept, in order
        t.push(0, 7);
        assert_eq!(t.iter(2).collect::<Vec<_>>(), vec![10, 11, 10]);
        assert_eq!(t.iter(0).collect::<Vec<_>>(), vec![7]);
        assert!(t.is_empty(1));
        assert_eq!(t.live_nodes(), 4);
    }

    #[test]
    fn release_recycles_nodes_without_growing_the_arena() {
        let mut t = WaiterTable::new(2);
        for id in 0..8 {
            t.push(0, id);
        }
        t.release(0);
        assert!(t.is_empty(0));
        assert_eq!(t.live_nodes(), 0);
        let cap = t.nodes.capacity();
        for id in 20..28 {
            t.push(1, id);
        }
        assert_eq!(t.nodes.capacity(), cap, "recycled nodes must be reused");
        assert_eq!(t.iter(1).collect::<Vec<_>>(), (20..28).collect::<Vec<_>>());
    }

    #[test]
    fn reset_rewinds_every_list() {
        let mut t = WaiterTable::new(3);
        t.push(0, 1);
        t.push(1, 2);
        t.clear_all();
        for k in 0..3 {
            assert!(t.is_empty(k));
        }
        assert_eq!(t.live_nodes(), 0);
    }

    const MODEL_SLOTS: usize = 6;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random pushes, releases and rare clears against one `Vec` per
        /// slot: every list reads back in insertion order with its
        /// duplicates, and the arena never holds more nodes than the
        /// deepest moment since the last clear needed, so released nodes
        /// are reused before the arena grows.
        #[test]
        fn the_rings_agree_with_per_slot_vecs(
            ops in proptest::collection::vec(
                (0u8..32, 0..MODEL_SLOTS, 0u32..8),
                1..400,
            ),
        ) {
            let mut table = WaiterTable::new(MODEL_SLOTS);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); MODEL_SLOTS];
            let mut peak = 0;
            for (op, key, id) in ops {
                if op < 22 {
                    table.push(key as u32, id);
                    model[key].push(id);
                } else if op < 31 {
                    table.release(key as u32);
                    model[key].clear();
                } else {
                    table.clear_all();
                    model.iter_mut().for_each(Vec::clear);
                    peak = 0;
                }
                let live: usize = model.iter().map(Vec::len).sum();
                peak = peak.max(live);
                proptest::prop_assert_eq!(table.live_nodes(), live);
                proptest::prop_assert!(table.nodes.len() <= peak);
                for (k, want) in model.iter().enumerate() {
                    proptest::prop_assert_eq!(table.is_empty(k as u32), want.is_empty());
                    proptest::prop_assert_eq!(&table.iter(k as u32).collect::<Vec<_>>(), want);
                }
            }
        }
    }
}
