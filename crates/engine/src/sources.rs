//! Where traffic enters the engine: the per-node Poisson sources on a
//! due-cycle calendar, and the per-node source queues and injection ports
//! with bitsets of the non-empty queues and the free ports. Both let a
//! cycle visit only the nodes where something happens: at light load a
//! message arrives somewhere every few cycles, and at saturation a port
//! frees up about once a cycle, so polling or scanning all nodes would be
//! most of the cost. The queues share one pool of fixed-size blocks of
//! 8-byte entries, since past saturation their backlog is most of a run's
//! memory.

use crate::message::Queued;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use wormsim_topology::NodeId;
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
///
/// Past saturation the queues are most of the engine's memory, so they
/// share one pool: each queue is a chain of [`BLOCK`]-entry blocks, freed
/// blocks go on a free list for any queue to reuse, and each entry is one
/// packed `u64` (see [`pack`]).
pub(crate) struct SourceQueues {
    /// Per node, its queue's chain of pool blocks.
    chains: Vec<Chain>,
    /// The pool's entries, [`CHUNK`] blocks to a chunk: block `b` is
    /// entries `(b % CHUNK) * BLOCK..` of chunk `b / CHUNK`. A chunk is
    /// allocated at its full capacity and only its length grows, a block
    /// at a time, so growing the pool copies nothing and touches only the
    /// blocks it builds.
    chunks: Vec<Vec<u64>>,
    /// Per block, the next block of its chain or of the free list, or
    /// [`NIL`] at the end of either.
    next: Vec<u32>,
    /// The first free block, or [`NIL`].
    free: u32,
    /// Entries over all queues.
    len: usize,
    /// Per node, the message occupying the injection port.
    port: Vec<Option<u32>>,
    /// Bit `n % 64` of word `n / 64` mirrors `!chains[n].is_empty()`.
    pending: Vec<u64>,
    /// Bit `n % 64` of word `n / 64` mirrors `port[n].is_none()`.
    idle: Vec<u64>,
}

/// Entries per pool block.
const BLOCK: usize = 16;
/// Blocks per pool chunk: 64 KiB of entries.
const CHUNK: usize = 512;
/// No block: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;
/// The tag bit of a packed [`Queued::Parked`] entry.
const PARKED: u64 = 1 << 63;
/// A packed [`Queued::Fresh`] entry's `created` stays below this.
const CREATED_LIMIT: u64 = 1 << 47;

/// One queue: its entries run from slot `start` of block `head` through
/// full middle blocks to just before slot `end` of block `tail`. A
/// non-empty chain has `start < BLOCK` and `end >= 1` (and `start < end`
/// when `head == tail`), and `next[tail]` is [`NIL`].
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    start: u32,
    end: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        start: 0,
        end: 0,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// The slots of block `b`, one of this chain's, that hold entries.
    fn span(&self, b: u32) -> Range<usize> {
        let lo = if b == self.head {
            self.start as usize
        } else {
            0
        };
        let hi = if b == self.tail {
            self.end as usize
        } else {
            BLOCK
        };
        lo..hi
    }
}

/// `Fresh { dest, created }` as `created << 16 | dest`, `Parked(id)` as
/// `id` under the [`PARKED`] tag bit.
fn pack(entry: Queued) -> u64 {
    match entry {
        Queued::Fresh { dest, created } => {
            assert!(
                created < CREATED_LIMIT,
                "cycle {created} overflows a queue entry"
            );
            created << 16 | u64::from(dest.0)
        }
        Queued::Parked(id) => PARKED | u64::from(id),
    }
}

/// The inverse of [`pack`].
fn unpack(bits: u64) -> Queued {
    if bits & PARKED != 0 {
        Queued::Parked(bits as u32)
    } else {
        Queued::Fresh {
            dest: NodeId(bits as u16),
            created: bits >> 16,
        }
    }
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
            chains: vec![Chain::EMPTY; num_nodes],
            chunks: Vec::new(),
            next: Vec::new(),
            free: NIL,
            len: 0,
            port: vec![None; num_nodes],
            pending: vec![0; words],
            idle,
        }
    }

    /// Queue `entry` behind `node`'s backlog.
    pub fn push_back(&mut self, node: usize, entry: Queued) {
        let mut c = self.chains[node];
        if c.is_empty() || c.end as usize == BLOCK {
            let b = self.take_block();
            if c.is_empty() {
                (c.head, c.start) = (b, 0);
            } else {
                self.next[c.tail as usize] = b;
            }
            (c.tail, c.end) = (b, 0);
        }
        *self.slot(c.tail, c.end) = pack(entry);
        c.end += 1;
        self.chains[node] = c;
        self.len += 1;
        set_bit(&mut self.pending, node, true);
    }

    /// Queue `entry` ahead of `node`'s backlog.
    pub fn push_front(&mut self, node: usize, entry: Queued) {
        let mut c = self.chains[node];
        if c.is_empty() {
            return self.push_back(node, entry);
        }
        if c.start == 0 {
            let b = self.take_block();
            self.next[b as usize] = c.head;
            (c.head, c.start) = (b, BLOCK as u32);
        }
        c.start -= 1;
        *self.slot(c.head, c.start) = pack(entry);
        self.chains[node] = c;
        self.len += 1;
    }

    /// Take the oldest entry of `node`'s queue.
    pub fn pop_front(&mut self, node: usize) -> Option<Queued> {
        let mut c = self.chains[node];
        if c.is_empty() {
            return None;
        }
        let entry = unpack(*self.slot(c.head, c.start));
        c.start += 1;
        if c.head == c.tail && c.start == c.end {
            self.free_chain(c.head);
            c = Chain::EMPTY;
            set_bit(&mut self.pending, node, false);
        } else if c.start as usize == BLOCK {
            let head = c.head as usize;
            (c.head, c.start) = (self.next[head], 0);
            self.next[head] = NIL;
            self.free_chain(head as u32);
        }
        self.chains[node] = c;
        self.len -= 1;
        Some(entry)
    }

    /// Keep the entries of `node`'s queue that `keep` accepts, in order:
    /// the chain is taken apart a block at a time, each block copied out
    /// and freed before its kept entries are queued again, so the queue
    /// never holds more blocks than it did.
    pub fn retain(&mut self, node: usize, mut keep: impl FnMut(&Queued) -> bool) {
        let c = std::mem::replace(&mut self.chains[node], Chain::EMPTY);
        set_bit(&mut self.pending, node, false);
        let mut b = c.head;
        while b != NIL {
            let span = c.span(b);
            let mut block = [0; BLOCK];
            block[span.clone()].copy_from_slice(&self.block(b)[span.clone()]);
            let after = std::mem::replace(&mut self.next[b as usize], NIL);
            self.free_chain(b);
            b = after;
            self.len -= span.len();
            for entry in block[span].iter().map(|&bits| unpack(bits)) {
                if keep(&entry) {
                    self.push_back(node, entry);
                }
            }
        }
    }

    /// Entry `offset` of pool block `b`.
    #[inline]
    fn slot(&mut self, b: u32, offset: u32) -> &mut u64 {
        let b = b as usize;
        &mut self.chunks[b / CHUNK][b % CHUNK * BLOCK + offset as usize]
    }

    /// The entries of pool block `b`.
    fn block(&self, b: u32) -> &[u64] {
        let b = b as usize;
        &self.chunks[b / CHUNK][b % CHUNK * BLOCK..][..BLOCK]
    }

    /// A block off the free list, or a new one at the end of the pool.
    fn take_block(&mut self) -> u32 {
        if self.free == NIL {
            let b = self.next.len();
            if b / CHUNK == self.chunks.len() {
                self.chunks.push(Vec::with_capacity(CHUNK * BLOCK));
            }
            self.chunks[b / CHUNK].resize((b % CHUNK + 1) * BLOCK, 0);
            self.next.push(NIL);
            return b as u32;
        }
        let b = self.free;
        self.free = std::mem::replace(&mut self.next[b as usize], NIL);
        b
    }

    /// Put the chain of blocks starting at `b` (up to its [`NIL`]) on the
    /// free list.
    fn free_chain(&mut self, mut b: u32) {
        while b != NIL {
            let after = std::mem::replace(&mut self.next[b as usize], self.free);
            self.free = b;
            b = after;
        }
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
        self.chains.len()
    }

    /// Messages waiting over all queues.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every queued entry, node order then queue order.
    pub fn iter(&self) -> impl Iterator<Item = Queued> + '_ {
        self.chains.iter().flat_map(|c| self.entries(*c))
    }

    /// The entries of one chain, in queue order.
    fn entries(&self, c: Chain) -> impl Iterator<Item = Queued> + '_ {
        (self.blocks(c))
            .flat_map(move |b| self.block(b)[c.span(b)].iter().map(|&bits| unpack(bits)))
    }

    /// The blocks of one chain, head to tail.
    fn blocks(&self, c: Chain) -> impl Iterator<Item = u32> + '_ {
        let first = (!c.is_empty()).then_some(c.head);
        std::iter::successors(first, move |&b| {
            (b != c.tail).then(|| self.next[b as usize])
        })
    }

    /// Reserve the pool for `messages` entries queued at once, however
    /// they are spread over the nodes: a queue of `n` entries spans at
    /// most `n / BLOCK + 2` blocks. Allocates the chunks and builds no
    /// block.
    pub fn reserve(&mut self, messages: usize) {
        let blocks = messages.div_ceil(BLOCK) + 2 * self.chains.len();
        let chunks = blocks.div_ceil(CHUNK);
        self.chunks
            .reserve(chunks.saturating_sub(self.chunks.len()));
        while self.chunks.len() < chunks {
            self.chunks.push(Vec::with_capacity(CHUNK * BLOCK));
        }
        self.next.reserve(blocks.saturating_sub(self.next.len()));
    }

    /// Test support: every chain keeps its shape, chains and the free
    /// list partition the pool's blocks, the running count is the number
    /// of entries, and the pending and idle bits mirror queue
    /// non-emptiness and port freedom, bit for bit, with no bit set beyond
    /// the last node. Panics otherwise.
    pub fn check(&self) {
        let blocks = self.next.len();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let built = blocks.saturating_sub(i * CHUNK).min(CHUNK);
            assert_eq!(
                chunk.len(),
                built * BLOCK,
                "chunk {i} is not its built blocks"
            );
            assert!(
                chunk.capacity() >= CHUNK * BLOCK,
                "chunk {i} would move as it grows"
            );
        }
        let mut owned = vec![false; blocks];
        let mut claim = |b: u32| {
            assert!(
                !std::mem::replace(&mut owned[b as usize], true),
                "block {b} is in two places"
            );
        };
        for (node, c) in self.chains.iter().enumerate() {
            if c.is_empty() {
                continue;
            }
            assert!(
                (c.start as usize) < BLOCK && c.end >= 1 && (c.head != c.tail || c.start < c.end),
                "node {node}'s chain is malformed"
            );
            self.blocks(*c).for_each(&mut claim);
            assert_eq!(
                self.next[c.tail as usize], NIL,
                "node {node}'s tail has a successor"
            );
        }
        let mut b = self.free;
        while b != NIL {
            claim(b);
            b = self.next[b as usize];
        }
        assert!(
            owned.iter().all(|&o| o),
            "pool block in no chain and not free"
        );
        assert_eq!(self.iter().count(), self.len, "running count is off");
        let words = self.chains.len().div_ceil(64);
        assert_eq!((self.pending.len(), self.idle.len()), (words, words));
        for node in 0..words * 64 {
            let queued = self.chains.get(node).is_some_and(|c| !c.is_empty());
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
    fn packing_round_trips_the_edge_values() {
        let max_created = CREATED_LIMIT - 1;
        for created in [0, 1, max_created] {
            for dest in [NodeId(0), NodeId(u16::MAX)] {
                let entry = Queued::Fresh { dest, created };
                assert_eq!(unpack(pack(entry)), entry);
            }
        }
        for id in [0, 1, u32::MAX] {
            assert_eq!(unpack(pack(Queued::Parked(id))), Queued::Parked(id));
        }
    }

    #[test]
    #[should_panic(expected = "overflows a queue entry")]
    fn a_cycle_past_the_entry_width_is_refused() {
        pack(fresh(CREATED_LIMIT));
    }

    #[test]
    fn the_pool_grows_and_reserves_by_whole_chunks() {
        let mut q = SourceQueues::new(2);
        let n = (CHUNK + 1) * BLOCK + 3;
        for created in 0..n as u64 {
            q.push_back(created as usize % 2, fresh(created));
        }
        q.check();
        assert_eq!(q.chunks.len(), 2, "{n} entries span two chunks");
        for node in 0..2 {
            let created = std::iter::from_fn(|| q.pop_front(node)).map(|e| match e {
                Queued::Fresh { created, .. } => created,
                Queued::Parked(_) => unreachable!("only fresh entries were queued"),
            });
            assert!(created.eq((node as u64..n as u64).step_by(2)));
        }
        q.check();
        assert_eq!(q.len(), 0);

        // Two part-filled blocks per node on top of the entries: one chunk
        // more than the entries alone, and no block built.
        let mut r = SourceQueues::new(2);
        r.reserve(CHUNK * BLOCK);
        assert_eq!(r.chunks.len(), 2);
        assert!(r.chunks.iter().all(Vec::is_empty));
        r.check();
    }

    const MODEL_NODES: usize = 3;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The store against one `Vec` per node, under a mix whose pops
        /// (`drain` in 16) lag the pushes (8 in 16) by a per-case margin,
        /// so queues run many blocks deep in some cases and keep emptying
        /// in others; either way blocks go back to the free list and come
        /// out again.
        #[test]
        fn the_pool_agrees_with_per_node_fifos(
            drain in 4u8..=8,
            ops in proptest::collection::vec(
                (0u8..16, 0..MODEL_NODES, proptest::prelude::any::<u32>()),
                1..600,
            ),
        ) {
            let mut store = SourceQueues::new(MODEL_NODES);
            let mut model: Vec<Vec<Queued>> = vec![Vec::new(); MODEL_NODES];
            let mut peak = 0;
            for (op, node, x) in ops {
                let queue = &mut model[node];
                if op < 6 {
                    let entry = Queued::Fresh {
                        dest: NodeId(x as u16),
                        created: u64::from(x) << 15,
                    };
                    store.push_back(node, entry);
                    queue.push(entry);
                } else if op < 8 {
                    store.push_front(node, Queued::Parked(x));
                    queue.insert(0, Queued::Parked(x));
                } else if op < 8 + drain {
                    let want = (!queue.is_empty()).then(|| queue.remove(0));
                    proptest::prop_assert_eq!(store.pop_front(node), want);
                } else {
                    let keep = |e: &Queued| !(pack(*e) ^ u64::from(x)).is_multiple_of(3);
                    store.retain(node, keep);
                    queue.retain(keep);
                }
                store.check();
                let flat: Vec<Queued> = model.iter().flatten().copied().collect();
                proptest::prop_assert_eq!(store.len(), flat.len());
                proptest::prop_assert_eq!(store.iter().collect::<Vec<_>>(), flat);
                // Without reuse, churn would grow the pool past what the
                // deepest moment needed.
                peak = peak.max(store.len());
                proptest::prop_assert!(store.next.len() <= peak.div_ceil(BLOCK) + 2 * MODEL_NODES);
            }
        }
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
