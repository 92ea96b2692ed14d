//! Consistency audits for tests; each panics on any divergence it finds.

use super::allocate::vc_width_mask;
use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Audit the simulator's internal consistency; panics on violation.
    /// Exercised by the engine's invariant tests after every cycle.
    ///
    /// Checked invariants:
    /// 1. VC-slot ownership: no slot sits on two live paths, and only
    ///    active messages hold slots.
    /// 2. Per-entry flit accounting: the `entered` counters never increase
    ///    from the source side to the head (the head entry drains into
    ///    `delivered`), neighbours differ by at most the buffer depth, and
    ///    none exceeds the message length.
    /// 3. Per-message conservation: the flits that left the source are
    ///    the ones that entered the first held stage.
    /// 4. Injection bookkeeping: a message with flits still at the source
    ///    and a non-empty path owns its node's injection port.
    /// 5. Chaos bookkeeping: a message waiting out a backoff holds no VC
    ///    and has every flit back at its (healthy) source; no owned VC
    ///    slot touches a faulty node — aborts must not leak freed VCs.
    /// 6. A routable header is never parked in the `Moving` phase.
    /// 7. The occupancy and wake-flag bitmasks mirror the held slots and
    ///    the wake lists bit for bit.
    /// 8. A blocked header is listed on every busy candidate slot, so no
    ///    wake is lost.
    /// 9. Every set registration-record bit has its wake-list entry.
    /// 10. A node's pending bit is set iff its source queue is non-empty,
    ///     and its idle bit iff its injection port is free.
    /// 11. Every enabled traffic source has a calendar entry at its own
    ///     due cycle, and a disabled one has none.
    /// 12. On every node, the stored arrivals of released stages plus the
    ///     live stages' `entered` are at least the window's baseline.
    pub fn check_invariants(&self) {
        let depth = self.cfg.buffer_depth as u32;
        // 1. Ownership, read off the live paths.
        let holders = self.holders();
        for pair in holders.windows(2) {
            assert_ne!(
                pair[0].0, pair[1].0,
                "slot {} sits on the paths of msgs {} and {}",
                pair[0].0, pair[0].1, pair[1].1
            );
        }
        let mut active = vec![false; self.msgs.len()];
        for &id in &self.active {
            active[id as usize] = self.alive[id as usize];
        }
        for &(key, id) in &holders {
            assert!(
                active[id as usize],
                "slot {key} held by msg {id}, which is not in flight"
            );
        }
        for &id in &self.active {
            let m = &self.msgs[id as usize];
            if !self.alive[id as usize] {
                continue;
            }
            let path = self.path(id as usize);
            for e in path {
                assert_eq!(
                    (e.ch, e.vc),
                    (self.key_channel(e.key).0, self.key_vc(e.key)),
                    "path entry's cached channel/vc out of sync with its key"
                );
                assert_eq!(
                    Some(e.dest),
                    self.ctx.mesh().channel_dest(ChannelId(e.ch)),
                    "path entry's cached downstream node out of sync"
                );
            }
            // 2. Flit accounting along the path.
            let mut downstream = m.delivered;
            for e in path.iter().rev() {
                assert!(
                    e.entered >= downstream,
                    "a stage passed on more than entered it"
                );
                assert!(e.entered - downstream <= depth, "buffer overflow");
                assert!(e.entered <= m.length, "entered beyond length");
                downstream = e.entered;
            }
            // 3. Conservation: what left the source is what entered the
            // first held stage (or was delivered, once the path is gone).
            assert_eq!(
                m.at_source + path.first().map_or(m.delivered, |e| e.entered),
                m.length,
                "flits lost between source and network"
            );
            // 4. Injection port bookkeeping.
            if m.at_source > 0 && !m.path.is_empty() {
                assert_eq!(
                    self.sources.port(m.src.index()),
                    Some(id),
                    "injecting message without the port"
                );
            }
        }
        // 5. Chaos bookkeeping.
        let pattern = self.ctx.pattern();
        let mesh = self.ctx.mesh();
        for &(_, id) in &self.backoff {
            let m = &self.msgs[id as usize];
            assert!(self.alive[id as usize], "dead message in backoff");
            assert!(m.path.is_empty(), "backoff message still holds VCs");
            assert_eq!(
                m.at_source, m.length,
                "backoff message left flits in the network"
            );
            assert!(
                !pattern.is_faulty(m.src),
                "backoff message at a dead source"
            );
            assert!(!self.active.contains(&id), "backoff message still active");
        }
        for &(key, _) in &holders {
            let ch = self.key_channel(key);
            assert!(
                !pattern.is_faulty(mesh.channel_src(ch)),
                "owned VC slot on a channel leaving a faulty node"
            );
            let dest = mesh.channel_dest(ch).expect("owned channel exists");
            assert!(
                !pattern.is_faulty(dest),
                "owned VC slot on a channel entering a faulty node"
            );
        }
        // 6. Allocation-phase soundness: a routable header that is not at
        // its destination must be contending or blocked — a `Moving` mark
        // here would make the allocator skip it forever (blocked headers
        // additionally rely on wake lists / recheck / watchdog to wake).
        for &id in &self.active {
            let m = &self.msgs[id as usize];
            if !self.alive[id as usize] {
                continue;
            }
            let routable = m.path.is_empty() || self.header_at_head(id as usize);
            if routable && self.head_node(id as usize) != m.dest {
                assert_ne!(
                    self.alloc[id as usize],
                    AllocPhase::Moving,
                    "routable header stuck in the Moving phase"
                );
            }
        }
        // 7. Bitmask mirrors: occupancy bits track the held slots, wake
        // flags track wake-list non-emptiness, bit for bit.
        let mut expect_occ = vec![0u32; self.occ_mask.len()];
        for &(key, _) in &holders {
            expect_occ[self.key_channel(key).index()] |= 1 << self.key_vc(key);
        }
        for (ch, (&occ, &expect)) in self.occ_mask.iter().zip(&expect_occ).enumerate() {
            let mut expect_wait = 0u32;
            for vc in 0..self.num_vcs as u32 {
                if !self.waiters.is_empty(ch as u32 * self.num_vcs as u32 + vc) {
                    expect_wait |= 1 << vc;
                }
            }
            assert_eq!(
                occ, expect,
                "occupancy bitmask out of sync with the held slots on channel {ch}"
            );
            assert_eq!(
                self.waiter_mask[ch], expect_wait,
                "wake-flag bitmask out of sync with wake lists on channel {ch}"
            );
        }
        // 8. Wake-list soundness: a blocked header sleeps until a slot it
        // is listed on frees, so it must be listed on every candidate slot
        // that is busy now. The candidates are recomputed with `route()`
        // on a copy of its state. (At the recheck threshold the next pass
        // re-routes it with a wider set anyway.)
        let listed = |key: u32, id: u32| self.waiters.iter(key).any(|w| w == id);
        let allowed = vc_width_mask(self.num_vcs);
        for &id in &self.active {
            let i = id as usize;
            if !self.is_blocked(id) || Some(self.wait[i]) == self.recheck_wait {
                continue;
            }
            let m = &self.msgs[i];
            let head = self.head_node(i);
            let mut state = m.state;
            state.wait_cycles = self.wait[i];
            for hop in self.algo.route(head, &mut state).iter() {
                let ch = mesh.channel(head, hop.dir).0;
                let mut busy =
                    (hop.preferred.0 | hop.fallback.0) & allowed & self.occ_mask[ch as usize];
                while busy != 0 {
                    let vc = busy.trailing_zeros();
                    busy &= busy - 1;
                    let key = ch * self.num_vcs as u32 + vc;
                    assert!(
                        listed(key, id),
                        "blocked msg {id} is not on the wake list of its busy candidate slot {key}"
                    );
                }
            }
        }
        // 9. Registration records: every set bit has its list entry.
        for (i, &bits) in self.reg_bits.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                let (dir, vc) = (Direction::from_index(b as usize / 32), b % 32);
                assert!(vc < self.num_vcs as u32, "msg {i} registered on VC {vc}");
                let ch = mesh.channel(NodeId(self.reg_node[i]), dir).0;
                let key = ch * self.num_vcs as u32 + vc;
                assert!(
                    listed(key, i as u32),
                    "msg {i}'s registration record names slot {key}, whose wake list lacks it"
                );
            }
        }
        // 10. Pending and idle bits.
        self.sources.check();
        // 11. Traffic calendar.
        self.calendar.check();
        // 12. Node-load baseline.
        let mut arrivals = Vec::new();
        self.arrivals_so_far(&mut arrivals);
        for (n, (&a, &base)) in arrivals.iter().zip(&self.window_base).enumerate() {
            assert!(
                a >= base,
                "node {n}: {a} arrivals so far, below the window baseline {base}"
            );
        }
    }

    /// Test support: audit the message slab, its path arena and the flat
    /// per-message arrays beside it. The arena holds one window per slot,
    /// and every slot's path span lies inside its own window. Every slot is
    /// either free (dead, with an empty span) or owned by a message in
    /// flight — active, waiting out a backoff, or parked in a source queue
    /// — and the flags of the active ones agree with their `Msg`. Panics on
    /// any divergence.
    #[doc(hidden)]
    pub fn check_soa_layout(&self) {
        let n = self.msgs.len();
        assert_eq!(self.alive.len(), n, "alive[] not slab-length");
        assert_eq!(self.alloc.len(), n, "alloc[] not slab-length");
        assert_eq!(self.stalled.len(), n, "stalled[] not slab-length");
        assert_eq!(
            self.last_progress.len(),
            n,
            "last_progress[] not slab-length"
        );
        assert_eq!(self.wait.len(), n, "wait[] not slab-length");
        assert_eq!(self.reg_node.len(), n, "reg_node[] not slab-length");
        assert_eq!(self.reg_bits.len(), n, "reg_bits[] not slab-length");
        assert_eq!(
            self.paths.len(),
            n * self.stride,
            "path arena is not one window per slab slot"
        );
        for (i, m) in self.msgs.iter().enumerate() {
            let PathBuf { front, back } = m.path;
            assert!(
                front <= back && back as usize <= self.stride,
                "slot {i}'s path span {front}..{back} leaves its {}-entry window",
                self.stride
            );
        }
        for &id in &self.free_list {
            let i = id as usize;
            assert!(!self.alive[i], "free slab slot {id} marked alive");
            assert!(
                self.path(i).is_empty(),
                "free slab slot {id} still holds VCs"
            );
        }
        let live = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(
            live + self.free_list.len(),
            n,
            "slab slot neither free nor alive"
        );
        let parked = self
            .sources
            .iter()
            .filter(|q| matches!(q, Queued::Parked(_)))
            .count();
        let active = self.active.iter().filter(|&&id| self.alive[id as usize]);
        assert_eq!(
            live,
            active.count() + self.backoff.len() + parked,
            "live slab slot owned by no message in flight"
        );
        for &id in &self.active {
            let i = id as usize;
            if !self.alive[i] {
                continue;
            }
            let m = &self.msgs[i];
            assert!(
                self.last_progress[i] <= self.cycle,
                "msg {id} progressed in the future"
            );
            if self.alloc[i] == AllocPhase::Blocked {
                assert!(
                    !self.header_at_head(i) || !m.is_complete(),
                    "msg {id} blocked after completion"
                );
            }
            if m.path.is_empty() && m.at_source == m.length {
                // Nothing launched yet: a header that has never entered
                // the network cannot be movement-stalled.
                assert!(!self.stalled[i], "unlaunched msg {id} marked stalled");
            }
        }
        // Every live wake-list registration indexes a real slab slot.
        for key in 0..self.num_slots() {
            for wid in self.waiters.iter(key as u32) {
                assert!((wid as usize) < n, "wake list {key} names ghost msg {wid}");
            }
        }
    }
}
