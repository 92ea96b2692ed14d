//! Where traffic enters the engine: the per-node Poisson sources on a
//! due-cycle calendar, and the per-node source queues and injection ports
//! with bitsets of the non-empty queues and the free ports. Both let a
//! cycle visit only the nodes where something happens: at light load a
//! message arrives somewhere every few cycles, and at saturation a port
//! frees up about once a cycle, so polling or scanning all nodes would be
//! most of the cost. The queues share one pool of fixed-size blocks of
//! 4-byte entries, a fresh message's creation cycle stored as an offset
//! from its block's base, since past saturation their backlog is most of
//! a run's memory.

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
/// `u32`. A [`Queued::Parked`] id sits under the [`PARKED`] tag bit. A
/// [`Queued::Fresh`] entry keeps `dest` in the low `dest_bits` bits and,
/// above it, `created` as an offset from its block's base: the `created`
/// of the block's first fresh entry. Fresh entries arrive in
/// non-decreasing `created` order, so an offset outgrows its
/// `31 − dest_bits` bits only once a block has been filling for that many
/// cycles (2²⁴ on a 10×10 mesh, 2¹⁵ on 256×256); the entry then ends its
/// queue's tail block early and starts a new block based at its own cycle.
pub(crate) struct SourceQueues {
    /// Per node, its queue's chain of pool blocks.
    chains: Vec<Chain>,
    /// The pool, [`CHUNK`] blocks to a chunk: block `b` is block
    /// `b % CHUNK` of chunk `b / CHUNK`.
    chunks: Vec<Chunk>,
    /// Blocks built over all chunks.
    blocks: usize,
    /// The width of a fresh entry's `dest` field: that of the largest
    /// node index.
    dest_bits: u32,
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
const CHUNK: usize = 1024;
/// No block: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;
/// The tag bit of a packed [`Queued::Parked`] entry; ids stay below it.
const PARKED: u32 = 1 << 31;
/// The base of a block that holds no fresh entry. A block's first fresh
/// entry at cycle `u64::MAX` is based one cycle earlier, at offset 1.
const NO_BASE: u64 = u64::MAX;

/// [`CHUNK`] blocks of the pool: their entries, block `i`'s at
/// `entries[i * BLOCK..][..BLOCK]`, and their [`Meta`]s. Both are
/// allocated at full capacity and only their lengths grow, a block at a
/// time, so growing the pool copies nothing, leaves no freed buffer
/// behind, and touches only the blocks it builds.
struct Chunk {
    entries: Vec<u32>,
    meta: Vec<Meta>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            entries: Vec::with_capacity(CHUNK * BLOCK),
            meta: Vec::with_capacity(CHUNK),
        }
    }
}

/// What the pool keeps per block beside its entries.
#[derive(Clone, Copy)]
struct Meta {
    /// The cycle its fresh entries' offsets count from, or [`NO_BASE`]
    /// while it holds none.
    base: u64,
    /// The next block of its chain or of the free list, or [`NIL`] at the
    /// end of either.
    next: u32,
    /// One past the slot of its last entry: [`BLOCK`] once it fills, less
    /// in a tail still filling or a block ended early.
    end: u8,
}

/// One queue: its entries run from slot `start` of block `head` through
/// the blocks linked after it to block `tail`, each up to its end. A
/// non-empty chain has `start` below its head's end, and its tail's link
/// is [`NIL`].
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    start: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        start: 0,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

impl SourceQueues {
    /// `num_nodes` empty queues and free ports.
    pub fn new(num_nodes: usize) -> Self {
        let dest_bits = usize::BITS - num_nodes.saturating_sub(1).leading_zeros();
        assert!(dest_bits <= 16, "{num_nodes} nodes overflow a node id");
        let words = num_nodes.div_ceil(64);
        let mut idle = vec![0; words];
        for node in 0..num_nodes {
            set_bit(&mut idle, node, true);
        }
        SourceQueues {
            chains: vec![Chain::EMPTY; num_nodes],
            chunks: Vec::new(),
            blocks: 0,
            dest_bits,
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
        let room = !c.is_empty() && usize::from(self.meta(c.tail).end) < BLOCK;
        let packed = if room { self.pack(c.tail, entry) } else { None };
        let bits = match packed {
            Some(bits) => bits,
            None => {
                let b = self.take_block(0);
                if c.is_empty() {
                    (c.head, c.start) = (b, 0);
                } else {
                    self.meta_mut(c.tail).next = b;
                }
                c.tail = b;
                self.chains[node] = c;
                self.pack(b, entry).expect("an empty block takes any entry")
            }
        };
        let end = &mut self.meta_mut(c.tail).end;
        let slot = u32::from(*end);
        *end += 1;
        *self.slot(c.tail, slot) = bits;
        self.len += 1;
        set_bit(&mut self.pending, node, true);
    }

    /// Queue parked message `id` ahead of `node`'s backlog.
    pub fn push_front(&mut self, node: usize, id: u32) {
        let mut c = self.chains[node];
        if c.is_empty() {
            return self.push_back(node, Queued::Parked(id));
        }
        if c.start == 0 {
            let b = self.take_block(BLOCK as u8);
            self.meta_mut(b).next = c.head;
            (c.head, c.start) = (b, BLOCK as u32);
        }
        c.start -= 1;
        *self.slot(c.head, c.start) = pack_parked(id);
        self.chains[node] = c;
        self.len += 1;
    }

    /// Take the oldest entry of `node`'s queue.
    pub fn pop_front(&mut self, node: usize) -> Option<Queued> {
        let mut c = self.chains[node];
        if c.is_empty() {
            return None;
        }
        let head = c.head;
        let bits = *self.slot(head, c.start);
        let entry = self.unpack(head, bits);
        c.start += 1;
        if c.start == u32::from(self.meta(head).end) {
            if head == c.tail {
                c = Chain::EMPTY;
                set_bit(&mut self.pending, node, false);
            } else {
                (c.head, c.start) = (self.meta(head).next, 0);
                self.meta_mut(head).next = NIL;
            }
            self.free_chain(head);
        }
        self.chains[node] = c;
        self.len -= 1;
        Some(entry)
    }

    /// Keep the entries of `node`'s queue that `keep` accepts, in order:
    /// the chain is taken apart a block at a time, each block's kept
    /// entries copied out and the block freed before they are queued
    /// again, so the queue never holds more blocks than it did.
    pub fn retain(&mut self, node: usize, mut keep: impl FnMut(&Queued) -> bool) {
        let c = std::mem::replace(&mut self.chains[node], Chain::EMPTY);
        set_bit(&mut self.pending, node, false);
        let mut b = c.head;
        let mut start = c.start as usize;
        while b != NIL {
            let span = start..usize::from(self.meta(b).end);
            let mut kept = [Queued::Parked(0); BLOCK];
            let mut n = 0;
            for &bits in &self.block(b)[span.clone()] {
                let entry = self.unpack(b, bits);
                if keep(&entry) {
                    kept[n] = entry;
                    n += 1;
                }
            }
            let after = std::mem::replace(&mut self.meta_mut(b).next, NIL);
            self.free_chain(b);
            (b, start) = (after, 0);
            self.len -= span.len();
            for &entry in &kept[..n] {
                self.push_back(node, entry);
            }
        }
    }

    /// `entry` packed into block `b`, whose base it sets if it is the
    /// block's first fresh entry, or `None` if its `created` falls outside
    /// the offsets from `b`'s base.
    #[inline]
    fn pack(&mut self, b: u32, entry: Queued) -> Option<u32> {
        match entry {
            Queued::Fresh { dest, created } => {
                debug_assert!(u32::from(dest.0) >> self.dest_bits == 0);
                let meta = self.meta_mut(b);
                if meta.base == NO_BASE {
                    meta.base = created.min(NO_BASE - 1);
                }
                let base = meta.base;
                let offset = self.offset(base, created)?;
                Some(offset << self.dest_bits | u32::from(dest.0))
            }
            Queued::Parked(id) => Some(pack_parked(id)),
        }
    }

    /// `created` as an offset from `base`, if it fits the bits above a
    /// fresh entry's `dest`.
    #[inline]
    fn offset(&self, base: u64, created: u64) -> Option<u32> {
        let offset = created.checked_sub(base)?;
        (offset >> (31 - self.dest_bits) == 0).then_some(offset as u32)
    }

    /// The inverse of [`SourceQueues::pack`] for an entry of block `b`.
    #[inline]
    fn unpack(&self, b: u32, bits: u32) -> Queued {
        if bits & PARKED != 0 {
            Queued::Parked(bits & !PARKED)
        } else {
            Queued::Fresh {
                dest: NodeId((bits & ((1 << self.dest_bits) - 1)) as u16),
                created: self.meta(b).base + u64::from(bits >> self.dest_bits),
            }
        }
    }

    /// Entry `offset` of pool block `b`.
    #[inline]
    fn slot(&mut self, b: u32, offset: u32) -> &mut u32 {
        let b = b as usize;
        &mut self.chunks[b / CHUNK].entries[b % CHUNK * BLOCK + offset as usize]
    }

    /// The entries of pool block `b`.
    fn block(&self, b: u32) -> &[u32] {
        let b = b as usize;
        &self.chunks[b / CHUNK].entries[b % CHUNK * BLOCK..][..BLOCK]
    }

    /// The [`Meta`] of pool block `b`.
    #[inline]
    fn meta(&self, b: u32) -> &Meta {
        let b = b as usize;
        &self.chunks[b / CHUNK].meta[b % CHUNK]
    }

    /// The [`Meta`] of pool block `b`, to change.
    #[inline]
    fn meta_mut(&mut self, b: u32) -> &mut Meta {
        let b = b as usize;
        &mut self.chunks[b / CHUNK].meta[b % CHUNK]
    }

    /// A block off the free list, or a new one at the end of the pool,
    /// with no base and its end at `end`.
    fn take_block(&mut self, end: u8) -> u32 {
        let meta = Meta {
            base: NO_BASE,
            next: NIL,
            end,
        };
        if self.free == NIL {
            let b = self.blocks;
            if b / CHUNK == self.chunks.len() {
                self.chunks.push(Chunk::new());
            }
            let chunk = &mut self.chunks[b / CHUNK];
            chunk.entries.resize((b % CHUNK + 1) * BLOCK, 0);
            chunk.meta.push(meta);
            self.blocks += 1;
            return b as u32;
        }
        let b = self.free;
        self.free = self.meta(b).next;
        *self.meta_mut(b) = meta;
        b
    }

    /// Put the chain of blocks starting at `b` (up to its [`NIL`]) on the
    /// free list.
    fn free_chain(&mut self, mut b: u32) {
        while b != NIL {
            let free = self.free;
            let after = std::mem::replace(&mut self.meta_mut(b).next, free);
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
        (self.blocks(c)).flat_map(move |b| {
            self.block(b)[self.span(c, b)]
                .iter()
                .map(move |&bits| self.unpack(b, bits))
        })
    }

    /// The slots of block `b`, one of `c`'s, that hold entries.
    fn span(&self, c: Chain, b: u32) -> Range<usize> {
        let lo = if b == c.head { c.start as usize } else { 0 };
        lo..usize::from(self.meta(b).end)
    }

    /// The blocks of one chain, head to tail.
    fn blocks(&self, c: Chain) -> impl Iterator<Item = u32> + '_ {
        let first = (!c.is_empty()).then_some(c.head);
        std::iter::successors(first, move |&b| (b != c.tail).then(|| self.meta(b).next))
    }

    /// Reserve the pool for `messages` entries queued at once, however
    /// they are spread over the nodes: a queue of `n` entries spans at
    /// most `n / BLOCK + 2` blocks while none of them ends early, which
    /// takes as many cycles as a fresh entry's offset can count. Allocates
    /// the chunks, each with its blocks' [`Meta`]s, and builds no block.
    pub fn reserve(&mut self, messages: usize) {
        let blocks = messages.div_ceil(BLOCK) + 2 * self.chains.len();
        let chunks = blocks.div_ceil(CHUNK);
        self.chunks
            .reserve(chunks.saturating_sub(self.chunks.len()));
        while self.chunks.len() < chunks {
            self.chunks.push(Chunk::new());
        }
    }

    /// Test support: every chain keeps its shape, chains and the free
    /// list partition the pool's blocks, every fresh entry decodes against
    /// its block's base to a node and a cycle, a block ends before its
    /// last slot only as a tail or where the next entry's cycle fell
    /// outside its offsets, the running count is the number of entries,
    /// and the pending and idle bits mirror queue non-emptiness and port
    /// freedom, bit for bit, with no bit set beyond the last node. Panics
    /// otherwise.
    pub fn check(&self) {
        let blocks = self.blocks;
        for (i, chunk) in self.chunks.iter().enumerate() {
            let built = blocks.saturating_sub(i * CHUNK).min(CHUNK);
            assert_eq!(
                (chunk.entries.len(), chunk.meta.len()),
                (built * BLOCK, built),
                "chunk {i} is not its built blocks"
            );
            assert!(
                chunk.entries.capacity() >= CHUNK * BLOCK && chunk.meta.capacity() >= CHUNK,
                "chunk {i} would move as it grows"
            );
        }
        let mut owned = vec![false; blocks];
        for (node, c) in self.chains.iter().enumerate() {
            if c.is_empty() {
                continue;
            }
            for b in self.blocks(*c) {
                assert!(
                    !std::mem::replace(&mut owned[b as usize], true),
                    "block {b} is in two places"
                );
                let span = self.span(*c, b);
                assert!(
                    span.start < span.end && span.end <= BLOCK,
                    "node {node}'s block {b} holds slots {span:?}"
                );
                let base = self.meta(b).base;
                for &bits in &self.block(b)[span.clone()] {
                    if bits & PARKED != 0 {
                        continue;
                    }
                    let dest = bits & ((1 << self.dest_bits) - 1);
                    assert!(
                        (dest as usize) < self.chains.len(),
                        "node {node}'s block {b} sends to node {dest}"
                    );
                    let offset = u64::from(bits >> self.dest_bits);
                    assert!(
                        offset >> (31 - self.dest_bits) == 0
                            && base != NO_BASE
                            && base.checked_add(offset).is_some(),
                        "node {node}'s block {b} holds offset {offset}, which its base {base} cannot decode"
                    );
                }
                if b != c.tail && span.end < BLOCK {
                    let after = self.meta(b).next;
                    let first = self.block(after)[0];
                    let refused = match self.unpack(after, first) {
                        Queued::Fresh { created, .. } => self.offset(base, created).is_none(),
                        Queued::Parked(_) => false,
                    };
                    assert!(
                        base != NO_BASE && refused,
                        "node {node}'s block {b} ends early with room for the next entry"
                    );
                }
            }
            assert_eq!(
                self.meta(c.tail).next,
                NIL,
                "node {node}'s tail has a successor"
            );
        }
        let mut b = self.free;
        while b != NIL {
            assert!(
                !std::mem::replace(&mut owned[b as usize], true),
                "block {b} is in two places"
            );
            b = self.meta(b).next;
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

/// `Parked(id)` as `id` under the [`PARKED`] tag bit.
#[inline]
fn pack_parked(id: u32) -> u32 {
    assert!(id < PARKED, "message id {id} overflows a queue entry");
    PARKED | id
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
        q.push_front(64, 9);
        q.seize_port(5, 7);
        q.check();
        let promotable = |q: &SourceQueues| {
            std::iter::successors(q.next_promotable(0), |&n| q.next_promotable(n + 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(promotable(&q), [0, 63, 64, 129]);
        assert_eq!(q.pop_front(64), Some(Queued::Parked(9)));
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
        // A 256×256 mesh: 16 bits of destination leave 15 of offset.
        let mut q = SourceQueues::new(1 << 16);
        let top = (1 << (31 - q.dest_bits)) - 1;
        assert_eq!((q.dest_bits, top), (16, (1 << 15) - 1));
        let last = NodeId(u16::MAX);
        for base in [0, 7, u64::MAX - top] {
            let entries = [
                Queued::Fresh {
                    dest: last,
                    created: base,
                },
                Queued::Parked(0),
                Queued::Fresh {
                    dest: NodeId(0),
                    created: base + top,
                },
                Queued::Parked(PARKED - 1),
            ];
            for entry in entries {
                q.push_back(1, entry);
            }
            q.check();
            assert_eq!(q.blocks, 1, "offsets 0 and {top} share a block");
            for entry in entries {
                assert_eq!(q.pop_front(1), Some(entry));
            }
        }
        // The last cycle is a block's first entry too.
        let last_cycle = Queued::Fresh {
            dest: last,
            created: u64::MAX,
        };
        q.push_back(0, last_cycle);
        q.check();
        assert_eq!(q.pop_front(0), Some(last_cycle));
    }

    #[test]
    #[should_panic(expected = "overflows a queue entry")]
    fn a_parked_id_past_the_entry_width_is_refused() {
        SourceQueues::new(1).push_back(0, Queued::Parked(PARKED));
    }

    #[test]
    fn an_offset_past_its_width_ends_the_block_early() {
        let mut q = SourceQueues::new(1 << 16);
        let span = 1 << 15;
        q.push_back(0, fresh(10));
        q.push_back(0, fresh(10 + span));
        q.check();
        assert_eq!(q.blocks, 2, "the second cycle starts a block");
        assert_eq!(q.meta(0).end, 1, "the first block ends after one entry");
        q.push_back(0, fresh(10 + 2 * span - 1));
        assert_eq!(q.blocks, 2, "offsets count from the new block's base");
        assert_eq!(q.pop_front(0), Some(fresh(10)));
        q.push_back(1, fresh(3));
        q.check();
        assert_eq!(q.blocks, 2, "the drained block is taken again");
        let rest: Vec<Queued> = q.iter().collect();
        assert_eq!(rest, [fresh(10 + span), fresh(10 + 2 * span - 1), fresh(3)]);
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
        assert!(r.chunks.iter().all(|c| c.meta.is_empty()));
        r.check();
    }

    /// The bytes the pool holds at capacity: its chunks' entries and
    /// per-block links, ends and bases, and the chunk table.
    fn pool_bytes(q: &SourceQueues) -> usize {
        let chunks: usize = (q.chunks.iter())
            .map(|c| c.entries.capacity() * 4 + c.meta.capacity() * std::mem::size_of::<Meta>())
            .sum();
        chunks + q.chunks.capacity() * std::mem::size_of::<Chunk>()
    }

    #[test]
    fn a_saturated_backlog_costs_at_most_six_bytes_a_message() {
        // A saturated 10×10 run's backlog: 100 000 messages generated over
        // 1 000 cycles, round the nodes, never drained.
        const NODES: usize = 100;
        const MESSAGES: usize = 100_000;
        let mut q = SourceQueues::new(NODES);
        for i in 0..MESSAGES {
            let entry = Queued::Fresh {
                dest: NodeId((i * 7 % NODES) as u16),
                created: (i / NODES) as u64,
            };
            q.push_back(i % NODES, entry);
        }
        q.check();
        let per_message = pool_bytes(&q) as f64 / MESSAGES as f64;
        assert!(
            per_message <= 6.0,
            "{per_message:.2} B of pool per queued message"
        );
    }

    /// What a fresh entry's `created` may jump by: within the offset
    /// width, to its last offset, or past it.
    fn jump(x: u32, width: u32) -> u64 {
        match x % 64 {
            0 => (1 << width) + u64::from(x >> 6),
            1 => (1 << width) - 1,
            _ => u64::from(x % 4),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The store against one `Vec` per node, under a mix of 8 pushes,
        /// `drain` pops and one retain (dropping about one entry in 8) in
        /// every `9 + drain` steps, so queues run several blocks deep in
        /// some cases and keep emptying in others; either way blocks go
        /// back to the free list and come out again. Fresh entries come
        /// from one clock that sometimes jumps past the offset width, on a
        /// pool for three nodes (29 offset bits) or for 65 536 (15), so
        /// blocks also end early.
        #[test]
        fn the_pool_agrees_with_per_node_fifos(
            drain in 4u8..=8,
            wide in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), 0usize..3, proptest::prelude::any::<u32>()),
                1..600,
            ),
        ) {
            let nodes = if wide { 1 << 16 } else { 3 };
            let queues = [0, 1, nodes - 1];
            let mut store = SourceQueues::new(nodes);
            let width = 31 - store.dest_bits;
            let mut model: Vec<Vec<Queued>> = vec![Vec::new(); 3];
            let (mut clock, mut jumps, mut peak_blocks) = (0u64, 0, 0);
            let last = ops.len() - 1;
            for (i, (op, q, x)) in ops.into_iter().enumerate() {
                let (node, queue) = (queues[q], &mut model[q]);
                let op = op % (9 + drain);
                if op < 6 {
                    let step = jump(x, width);
                    jumps += usize::from(step >= (1 << width) - 1);
                    clock += step;
                    let entry = Queued::Fresh {
                        dest: NodeId((x as usize % nodes) as u16),
                        created: clock,
                    };
                    store.push_back(node, entry);
                    queue.push(entry);
                } else if op < 8 {
                    let id = x & !PARKED;
                    store.push_front(node, id);
                    queue.insert(0, Queued::Parked(id));
                } else if op < 8 + drain {
                    let want = (!queue.is_empty()).then(|| queue.remove(0));
                    proptest::prop_assert_eq!(store.pop_front(node), want);
                } else {
                    let keep = |e: &Queued| {
                        let key = match *e {
                            Queued::Fresh { dest, created } => created ^ u64::from(dest.0),
                            Queued::Parked(id) => u64::from(id),
                        };
                        !(key ^ u64::from(x)).is_multiple_of(8)
                    };
                    store.retain(node, keep);
                    queue.retain(keep);
                }
                // A full audit walks every node: on the wide pool, audit
                // every 32nd step and the last.
                if !wide || i % 32 == 0 || i == last {
                    store.check();
                }
                for (&node, queue) in queues.iter().zip(&model) {
                    let entries = store.entries(store.chains[node]);
                    proptest::prop_assert!(entries.eq(queue.iter().copied()));
                }
                let flat = model.iter().map(Vec::len).sum::<usize>();
                proptest::prop_assert_eq!(store.len(), flat);
                // A block is built only when none is free, early-ended
                // ones included once they drain, so the pool never holds
                // more blocks than the queues did at their deepest.
                let chains = queues.map(|node| store.chains[node]);
                let blocks: usize = chains.iter().map(|&c| store.blocks(c).count()).sum();
                peak_blocks = peak_blocks.max(blocks);
                proptest::prop_assert_eq!(store.blocks, peak_blocks);
                // A queue of `n` spans `n / BLOCK + 2` blocks plus one per
                // early end, and each early end needs a jump of the clock.
                let entries = store.len();
                proptest::prop_assert!(blocks <= entries.div_ceil(BLOCK) + 3 * (2 + jumps));
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
