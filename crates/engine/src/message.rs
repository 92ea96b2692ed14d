//! In-flight message bookkeeping.

use wormsim_routing::MessageState;
use wormsim_topology::NodeId;

/// Opaque handle to a message within a simulator (slab index; taken when
/// the message is promoted to its injection port, reused after delivery).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MsgId(pub(crate) u32);

/// One entry of a node's source queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Queued {
    /// Generated and waiting for the injection port. It owns nothing yet:
    /// its slab slot is taken when it is promoted.
    Fresh { dest: NodeId, created: u64 },
    /// Waiting again with the slab slot it already owns: a manual
    /// injection (whose caller holds the [`MsgId`]), a chaos-aborted
    /// message after its backoff, or a watchdog recovery that found the
    /// port busy.
    Parked(u32),
}

/// One virtual channel held by a message — a *stage* of the worm: the
/// dense `(channel, vc)` key and how many flits have entered its
/// downstream buffer so far. How many are buffered there now is not
/// stored: it is this stage's `entered` minus the next stage's (the head
/// stage drains into [`Msg::delivered`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PathEntry {
    /// `channel.index() * num_vcs + vc` — index into the VC-slot table.
    pub key: u32,
    /// The physical channel, i.e. `key / num_vcs`. Precomputed at
    /// allocation time: the per-cycle pipeline loop needs it for link
    /// arbitration, and a runtime division there dominates the hot path.
    pub ch: u32,
    /// The VC index, i.e. `key % num_vcs`. Precomputed likewise.
    pub vc: u8,
    /// The channel's downstream node (`mesh.channel_dest(ch)`), known at
    /// allocation time. Held channels always have a destination.
    pub dest: NodeId,
    /// Flits that have entered this VC (cumulative; the header is flit 0).
    pub entered: u32,
}

impl PathEntry {
    /// What fills a window entry no path has written yet.
    pub const UNUSED: PathEntry = PathEntry {
        key: 0,
        ch: 0,
        vc: 0,
        dest: NodeId(0),
        entered: 0,
    };
}

/// The VCs a message holds, oldest (source side) first: the span
/// `front..back` of its window in the simulator's path arena (see
/// `Simulator::path`). The per-cycle pipeline loop wants a plain
/// contiguous slice, and a wormhole only ever appends at the head side and
/// drains at the tail, so dropping the oldest stage is a `front` bump. Both
/// cursors return to 0 whenever the path empties, so `back` is bounded by
/// the hops of one traversal.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PathBuf {
    pub front: u32,
    pub back: u32,
}

impl PathBuf {
    #[inline]
    pub fn len(&self) -> usize {
        (self.back - self.front) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front == self.back
    }
}

/// Where a message stands in the header-allocation pipeline. The
/// allocator only runs `route()` for [`AllocPhase::Contend`] messages;
/// the other two phases are skipped outright, which is what makes the
/// cycle loop cheap under congestion (a blocked header re-arbitrates only
/// when a VC it registered for frees, not every cycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AllocPhase {
    /// Header in transit to the head VC's buffer (or the message is
    /// ejecting at its destination): nothing to allocate.
    Moving,
    /// Header routable; must attempt routing + VC allocation this cycle.
    Contend,
    /// Allocation attempted and failed; asleep on the wake lists of every
    /// busy candidate VC slot until one frees (or the algorithm's
    /// `recheck_wait` threshold forces a widened re-route).
    Blocked,
}

/// Spend a per-cycle budget if `wanted` and it is still free; returns
/// whether it was spent now. A spent budget holds `stamp`. Whether it is
/// spent is a coin flip at saturation, hence the conditional move.
#[inline(always)]
fn spend(budget: &mut u64, stamp: u64, wanted: bool) -> bool {
    let spent = wanted & (*budget != stamp);
    *budget = std::hint::select_unpredictable(spent, stamp, *budget);
    spent
}

/// What one [`Msg::advance`] pass did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Advance {
    /// A flit crossed some boundary.
    pub moved: bool,
    /// Some boundary had a flit upstream and room downstream, whatever the
    /// budgets said. A worm that is neither `moved` nor `ready` cannot
    /// move until its own state changes.
    pub ready: bool,
    /// The destination consumed a flit.
    pub ejected: bool,
    /// A flit left the source.
    pub injected: bool,
    /// The header flit entered the head stage's buffer (once per hop).
    pub header_arrived: bool,
    /// That flit was the message's first (once per injection attempt).
    pub first_flit: bool,
}

/// A message in flight: one that has taken its node's injection port (or
/// was given a slot earlier, see [`Queued::Parked`]). The generated backlog
/// behind it lives in the source queues as [`Queued::Fresh`] entries, not
/// here. Its flits are never materialized: the boundary counters
/// `at_source`, each stage's `entered`, and `delivered` fully determine
/// wormhole pipeline behavior.
///
/// The per-cycle scan state — liveness, [`AllocPhase`], the movement
/// stall bit, the watchdog's last-progress stamp, a blocked header's wait
/// counter, and its wake-list registration record (node and bits) — lives
/// in the simulator's seven id-indexed struct-of-arrays buffers
/// (`Simulator::{alive, alloc, stalled, last_progress, wait, reg_node,
/// reg_bits}`), not here: the service-order, watchdog, and retain passes
/// read exactly one of those per message, and packing them densely turns
/// each pass into a linear scan instead of striding through 100+-byte
/// `Msg` records.
#[derive(Debug)]
pub(crate) struct Msg {
    // --- hot: touched every cycle for every active message ---
    /// Where in its arena window the VCs it holds sit.
    pub path: PathBuf,
    /// Flits still waiting at the source (not yet entered `path[0]`).
    pub at_source: u32,
    /// Flits consumed at the destination.
    pub delivered: u32,
    pub length: u32,
    pub dest: NodeId,
    pub src: NodeId,
    // --- cold: read on routing decisions, delivery, or recovery only ---
    pub created: u64,
    /// Cycle the first flit entered the network (None while still queued at
    /// the source). Network latency = delivery − this; total latency =
    /// delivery − `created` (includes source queueing).
    pub first_injected: Option<u64>,
    pub state: MessageState,
    /// Times this message was dropped and re-injected by the watchdog.
    pub recoveries: u32,
    /// Times this message was aborted by an online fault event (drives the
    /// exponential re-injection backoff).
    pub chaos_aborts: u32,
    /// `(recovery event index, abort cycle)` of the most recent chaos
    /// abort; consumed at delivery to record the recovery latency.
    pub abort_tag: Option<(u32, u64)>,
}

impl Msg {
    pub fn new(src: NodeId, dest: NodeId, length: u32, created: u64, state: MessageState) -> Self {
        Msg {
            src,
            dest,
            length,
            created,
            first_injected: None,
            state,
            path: PathBuf::default(),
            at_source: length,
            delivered: 0,
            recoveries: 0,
            chaos_aborts: 0,
            abort_tag: None,
        }
    }

    /// One movement pass: every boundary of the worm — ejection, each held
    /// link, source injection — moves at most one flit, head side first so
    /// a slot freed this cycle refills this cycle. All boundaries are the
    /// same predicate, *upstream has a flit* `&` *downstream has room* `&`
    /// *this cycle's budget is free*, folded into arithmetic: whether a
    /// boundary moves is a coin flip at saturation, so there is no
    /// data-dependent branch in here. `down` carries the downstream counter
    /// *after* its own move; a stage's occupancy is `entered − down`.
    ///
    /// `path` is the message's held VCs (`Simulator::path`), and must be
    /// non-empty. `stamp` marks a spent budget in `link_used` (one flit per
    /// physical channel; checked and marked in stage order, because a worm
    /// can hold two VCs of one channel) and in `eject_used` (one flit per
    /// node).
    ///
    /// A flit arriving in a stage's buffer is that stage's `entered`
    /// going up by one, and that is all the pass records of it: the
    /// engine credits a stage's `entered` to its node's load when it
    /// releases the stage, so no per-flit counter is touched here.
    ///
    /// Forced inline: left to the optimizer, some `Simulator<S, PROFILE>`
    /// instantiations call it out of line, which costs ≈ 8 % of a
    /// paper-config run (`results/perf_worm_kernel.md`).
    #[inline(always)]
    pub fn advance(
        &mut self,
        path: &mut [PathEntry],
        depth: u32,
        stamp: u64,
        link_used: &mut [u64],
        eject_used: &mut [u64],
    ) -> Advance {
        let head = path[path.len() - 1];

        let mut ready = (head.dest == self.dest) & (head.entered > self.delivered);
        let ejected = spend(&mut eject_used[self.dest.index()], stamp, ready);
        self.delivered += ejected as u32;
        let mut moved = ejected;
        let mut down = self.delivered;

        // `entered < length` is implied: upstream never exceeds it.
        for j in (1..path.len()).rev() {
            let cur = path[j];
            let has = (path[j - 1].entered > cur.entered) & (cur.entered - down < depth);
            let can = spend(&mut link_used[cur.ch as usize], stamp, has);
            down = cur.entered + can as u32;
            path[j].entered = down;
            ready |= has;
            moved |= can;
        }

        let first = path[0];
        let has =
            (self.at_source > 0) & (first.entered - down < depth) & (first.entered < self.length);
        let injected = spend(&mut link_used[first.ch as usize], stamp, has);
        path[0].entered = first.entered + injected as u32;
        self.at_source -= injected as u32;

        Advance {
            moved: moved | injected,
            ready: ready | has,
            ejected,
            injected,
            header_arrived: (head.entered == 0) & (path[path.len() - 1].entered == 1),
            first_flit: injected & (first.entered == 0),
        }
    }

    /// Whether every flit has been consumed at the destination.
    pub fn is_complete(&self) -> bool {
        self.delivered == self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_message() {
        let st = MessageState::new(NodeId(0), NodeId(5));
        let m = Msg::new(NodeId(0), NodeId(5), 100, 42, st);
        assert_eq!(m.at_source, 100);
        assert!(m.path.is_empty());
        assert!(!m.is_complete());
    }

    const STAMP: u64 = 7;
    const CHANNELS: usize = 5;
    const NODES: usize = 32;
    const ELSEWHERE: NodeId = NodeId(31);

    /// A worm with the redundancy spelled out: every stage carries its
    /// occupancy next to its counter, and budgets are plain sets.
    #[derive(Clone, Debug)]
    struct NaiveWorm {
        entered: Vec<u32>,
        buffered: Vec<u32>,
        ch: Vec<u32>,
        at_source: u32,
        delivered: u32,
        length: u32,
        at_home: bool,
        links_spent: [bool; CHANNELS],
        eject_spent: bool,
    }

    #[derive(Debug, Default, PartialEq)]
    struct NaiveOutcome {
        moved: bool,
        stalled: bool,
        ejected: bool,
        injected: bool,
        header_arrived: bool,
        first_flit: bool,
        arrivals: Vec<u64>,
    }

    /// Stage `j`'s downstream node.
    fn stage_node(j: usize) -> NodeId {
        NodeId(j as u16)
    }

    /// The reference pass: one `if` per boundary, head side first, and the
    /// stall decision as a second walk when nothing moved. Shares no code
    /// with [`Msg::advance`].
    fn naive_pass(w: &mut NaiveWorm, depth: u32) -> NaiveOutcome {
        let n = w.entered.len();
        let mut out = NaiveOutcome {
            arrivals: vec![0; NODES],
            ..NaiveOutcome::default()
        };
        if w.at_home && w.buffered[n - 1] > 0 && !w.eject_spent {
            w.eject_spent = true;
            w.buffered[n - 1] -= 1;
            w.delivered += 1;
            out.ejected = true;
            out.moved = true;
        }
        for j in (1..n).rev() {
            let link = w.ch[j] as usize;
            if w.buffered[j - 1] > 0
                && w.buffered[j] < depth
                && w.entered[j] < w.length
                && !w.links_spent[link]
            {
                w.links_spent[link] = true;
                w.buffered[j - 1] -= 1;
                w.buffered[j] += 1;
                w.entered[j] += 1;
                out.moved = true;
                if j == n - 1 && w.entered[j] == 1 {
                    out.header_arrived = true;
                }
                out.arrivals[stage_node(j).index()] += 1;
            }
        }
        let link = w.ch[0] as usize;
        if w.at_source > 0
            && w.buffered[0] < depth
            && w.entered[0] < w.length
            && !w.links_spent[link]
        {
            w.links_spent[link] = true;
            w.buffered[0] += 1;
            w.entered[0] += 1;
            w.at_source -= 1;
            out.injected = true;
            out.moved = true;
            if w.entered[0] == 1 {
                out.first_flit = true;
                if n == 1 {
                    out.header_arrived = true;
                }
            }
            out.arrivals[stage_node(0).index()] += 1;
        }
        if !out.moved {
            let mut movable = w.at_home && w.buffered[n - 1] > 0;
            if w.at_source > 0 && w.buffered[0] < depth && w.entered[0] < w.length {
                movable = true;
            }
            for j in 1..n {
                if w.buffered[j - 1] > 0 && w.buffered[j] < depth && w.entered[j] < w.length {
                    movable = true;
                }
            }
            out.stalled = !movable;
        }
        out
    }

    /// Any worm the pass can meet: per-stage occupancies up to `depth`
    /// (so the counters are monotone), a few physical channels so stages
    /// share them by chance and one pair by construction, some budgets
    /// already spent by other worms this cycle.
    fn build_worm(
        depth: u32,
        buffered: Vec<u32>,
        mut ch: Vec<u32>,
        dup: (usize, usize),
        (delivered, at_source): (u32, u32),
        flags: u16,
    ) -> NaiveWorm {
        let n = buffered.len();
        let flag = |bit: u16| flags >> bit & 1 == 1;
        ch.truncate(n);
        ch[dup.1 % n] = ch[dup.0 % n];
        let buffered: Vec<u32> = buffered.iter().map(|o| o % (depth + 1)).collect();
        // Half the worms have delivered nothing, so that headers still in
        // transit (head counter 0) are common.
        let delivered = if flag(0) { 0 } else { delivered };
        let mut entered = vec![0; n];
        let mut down = delivered;
        for j in (0..n).rev() {
            down += buffered[j];
            entered[j] = down;
        }
        NaiveWorm {
            length: (entered[0] + at_source).max(1),
            entered,
            buffered,
            ch,
            at_source,
            delivered,
            at_home: flag(1),
            eject_spent: flag(2),
            links_spent: std::array::from_fn(|c| flag(3 + c as u16)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn advance_matches_the_naive_pass(
            depth in 1u32..=4,
            buffered in prop::collection::vec(0u32..=4, 1..8),
            ch in prop::collection::vec(0..CHANNELS as u32, 7..8),
            dup in (0usize..7, 0usize..7),
            counts in (0u32..=3, 0u32..=3),
            flags in any::<u16>(),
        ) {
            let worm = build_worm(depth, buffered, ch, dup, counts, flags);
            let n = worm.entered.len();
            let dest = if worm.at_home { stage_node(n - 1) } else { ELSEWHERE };
            let state = MessageState::new(NodeId(0), dest);
            let mut m = Msg::new(NodeId(0), dest, worm.length, 0, state);
            m.at_source = worm.at_source;
            m.delivered = worm.delivered;
            let mut path: Vec<PathEntry> = (0..n)
                .map(|j| PathEntry {
                    key: j as u32,
                    ch: worm.ch[j],
                    vc: 0,
                    dest: stage_node(j),
                    entered: worm.entered[j],
                })
                .collect();
            // A budget spent earlier this cycle holds the stamp; any other
            // value is a free one.
            let mut link_used = worm.links_spent.map(|spent| if spent { STAMP } else { STAMP - 2 });
            let mut eject_used = [0u64; NODES];
            eject_used[dest.index()] = if worm.eject_spent { STAMP } else { 0 };
            let before: Vec<u32> = path.iter().map(|e| e.entered).collect();

            let pass = m.advance(&mut path, depth, STAMP, &mut link_used, &mut eject_used);
            let mut naive = worm.clone();
            let want = naive_pass(&mut naive, depth);

            // A flit's arrival at a node is its stage's `entered` delta.
            let mut arrivals = vec![0u64; NODES];
            for (e, b) in path.iter().zip(&before) {
                arrivals[e.dest.index()] += u64::from(e.entered - b);
            }
            let got = NaiveOutcome {
                moved: pass.moved,
                stalled: !(pass.moved | pass.ready),
                ejected: pass.ejected,
                injected: pass.injected,
                header_arrived: pass.header_arrived,
                first_flit: pass.first_flit,
                arrivals,
            };
            prop_assert_eq!(got, want);
            let entered: Vec<u32> = path.iter().map(|e| e.entered).collect();
            prop_assert_eq!(&entered, &naive.entered);
            prop_assert_eq!((m.at_source, m.delivered), (naive.at_source, naive.delivered));
            prop_assert_eq!(link_used.map(|u| u == STAMP), naive.links_spent);
            prop_assert_eq!(eject_used[dest.index()] == STAMP, naive.eject_spent);
            // The identity that replaced the stored occupancy.
            for j in 0..n {
                let down = if j + 1 < n { entered[j + 1] } else { m.delivered };
                prop_assert_eq!(entered[j] - down, naive.buffered[j]);
            }
        }
    }
}
