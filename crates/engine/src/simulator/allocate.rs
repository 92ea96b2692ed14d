//! Routing and VC allocation, and the wake lists blocked headers sleep on.

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Route the header of message `id` and claim an output VC if possible.
    ///
    /// Only [`AllocPhase::Contend`] headers do real work. `Moving` headers
    /// are skipped outright; `Blocked` ones just account a wait cycle —
    /// their candidate set is stable between hops (`route` is idempotent),
    /// so re-arbitration is deferred until a VC slot they registered for
    /// frees ([`Simulator::wake_waiters`]) or the algorithm's
    /// `recheck_wait` threshold says the set widens at this exact wait
    /// count. Because the only RNG draw in here happens on a *successful*
    /// allocation, and a skipped attempt is always one that would have
    /// failed, the RNG stream — and thus the whole simulation — is
    /// byte-identical to re-routing every blocked header every cycle.
    pub(super) fn try_allocate(&mut self, id: u32) {
        let i = id as usize;
        if !self.alive[i] {
            return;
        }
        if PROFILE {
            self.phase_times.count_alloc_visit();
        }
        match self.alloc[i] {
            AllocPhase::Moving => return,
            AllocPhase::Blocked => {
                // Fall through to a full attempt only when `route` must see
                // exactly the threshold wait count (the widened attempt the
                // always-retry loop would have made); otherwise just keep
                // the wait counter ticking as that loop did.
                if Some(self.wait[i]) != self.recheck_wait {
                    self.wait[i] += 1;
                    if PROFILE {
                        self.phase_times.count_blocked_tick();
                    }
                    return;
                }
            }
            AllocPhase::Contend => {}
        }
        let m = &self.msgs[i];
        // Routable: header at source (path empty, owning the injection
        // port) or header buffered at the last held VC's downstream node.
        let at_source = m.path.is_empty();
        if !at_source && !self.header_at_head(i) {
            return; // header still in transit to the head VC
        }
        let head = self.head_node(i);
        if head == m.dest {
            return; // ejection handles it
        }

        let mut state = m.state;
        state.wait_cycles = self.wait[i];
        let cands = self.algo.route(head, &mut state);
        if PROFILE {
            self.phase_times.count_route_call();
        }
        if S::ENABLED {
            self.sink
                .record(TraceEvent::new(self.cycle, EventKind::RouteDecision, id).at(head.0));
        }
        let mesh = self.ctx.mesh();

        // Gather free (channel, vc) pairs, preferred tier first, into the
        // reusable scratch buffer (taken out of `self` to satisfy the
        // borrow checker; returned before every exit). Busy candidate keys
        // are collected alongside: on failure they are exactly the slots
        // whose release must wake this header.
        let mut eligible = std::mem::take(&mut self.eligible_scratch);
        let mut busy = std::mem::take(&mut self.busy_scratch);
        eligible.clear();
        busy.clear();
        let allowed = vc_width_mask(self.num_vcs);
        for tier in 0..2 {
            for hop in cands.iter() {
                let mask = if tier == 0 {
                    hop.preferred
                } else {
                    hop.fallback
                };
                if mask.is_empty() {
                    continue;
                }
                let ch = mesh.channel(head, hop.dir);
                debug_assert!(mesh.channel_exists(ch), "candidate off-mesh");
                expand_candidates(
                    mask.0 & allowed,
                    self.occ_mask[ch.0 as usize],
                    ch.0 * self.num_vcs as u32,
                    &mut eligible,
                    &mut busy,
                );
            }
            if !eligible.is_empty() {
                break;
            }
        }

        if eligible.is_empty() {
            // Sleep on every busy candidate slot. (No candidates at all —
            // fault-blocked with nowhere to go — leaves the wake lists
            // empty; only the watchdog, the recheck threshold, or a fault
            // activation can change that picture, and all three re-set
            // `Contend`.) A header that was woken and lost again is
            // usually still listed on these slots; its registration record
            // says which, so it is pushed only where it is missing.
            if self.reg_node[i] != head.0 {
                self.reg_node[i] = head.0;
                self.reg_bits[i] = 0;
            }
            for &key in &busy {
                let ch = key / self.num_vcs as u32;
                let vc = key % self.num_vcs as u32;
                let bit = registration_bit(mesh.channel_dir(ChannelId(ch)), vc);
                if self.reg_bits[i] & bit != 0 {
                    continue;
                }
                self.reg_bits[i] |= bit;
                self.waiters.push(key, id);
                self.waiter_mask[ch as usize] |= 1 << vc;
            }
            self.eligible_scratch = eligible;
            self.busy_scratch = busy;
            self.wait[i] = state.wait_cycles + 1;
            if S::ENABLED {
                self.sink
                    .record(TraceEvent::new(self.cycle, EventKind::Block, id).at(head.0));
            }
            self.msgs[i].state = state;
            self.alloc[i] = AllocPhase::Blocked;
            return;
        }
        let &(key, vc) = eligible.choose(&mut self.rng).expect("non-empty");
        self.eligible_scratch = eligible;
        self.busy_scratch = busy;
        let ch = self.key_channel(key);
        let next = mesh.channel_dest(ch).expect("candidate channel exists");
        let dir = mesh.channel_dir(ch);
        self.algo.on_hop(head, next, dir, vc, &mut state);
        self.wait[i] = state.wait_cycles;
        if self.algo.is_overlay_vc(vc) {
            self.ring_hops += 1;
        }
        self.occ_mask[ch.0 as usize] |= 1 << vc;
        self.vc_usage.acquire(vc);
        if S::ENABLED {
            self.sink.record(
                TraceEvent::new(self.cycle, EventKind::VcAcquire, id)
                    .at(head.0)
                    .on(ch.0, vc),
            );
        }
        self.alloc[i] = AllocPhase::Moving;
        // The path grew: the header can advance into the fresh (empty) VC
        // buffer, so any movement stall is over.
        self.stalled[i] = false;
        self.msgs[i].state = state;
        self.push_path(
            i,
            PathEntry {
                key,
                ch: ch.0,
                vc,
                dest: next,
                entered: 0,
            },
        );
    }

    /// Wake every header asleep on slot `key`: the freed VC re-arbitrates
    /// its registered contenders next cycle. Entries that are no longer
    /// blocked (moved on, died, slab slot recycled) are stale; they are
    /// dropped here, and a spurious wake of a recycled id merely costs one
    /// failed attempt (which draws no RNG).
    pub(super) fn wake_waiters(&mut self, key: u32) {
        let ch = key / self.num_vcs as u32;
        let vc = (key % self.num_vcs as u32) as u8;
        // The wake flag mirrors list non-emptiness: one bit test replaces
        // loading the (cache-cold) list header for the common empty case.
        if self.waiter_mask[ch as usize] & (1 << vc) == 0 {
            return;
        }
        self.waiter_mask[ch as usize] &= !(1 << vc);
        let cycle = self.cycle;
        debug_assert!(
            !self.waiters.is_empty(key),
            "wake flag set on an empty list"
        );
        // The list is about to drain: every record that names this slot
        // forgets it. A repeated id finds `Contend` on its second visit.
        let mesh = self.ctx.mesh();
        let src = mesh.channel_src(ChannelId(ch)).0;
        let bit = registration_bit(mesh.channel_dir(ChannelId(ch)), vc as u32);
        for wid in self.waiters.iter(key) {
            let wi = wid as usize;
            if self.reg_node[wi] == src {
                self.reg_bits[wi] &= !bit;
            }
            if self.is_blocked(wid) {
                self.alloc[wi] = AllocPhase::Contend;
                if S::ENABLED {
                    self.sink
                        .record(TraceEvent::new(cycle, EventKind::Wake, wid).on(ch, vc));
                }
            }
        }
        // Iteration done: splice the whole list back onto the free chain.
        self.waiters.release(key);
    }
}

/// The registration-record bit of the slot on VC `vc` of the channel
/// leaving the header's node in direction `dir`.
#[inline]
fn registration_bit(dir: Direction, vc: u32) -> u128 {
    1 << (dir as u32 * 32 + vc)
}

/// All-ones mask over the low `num_vcs` bits (`u32::MAX` at the full
/// 32-VC width, where `1 << 32` would overflow).
#[inline]
pub(super) fn vc_width_mask(num_vcs: u8) -> u32 {
    if num_vcs >= 32 {
        u32::MAX
    } else {
        (1u32 << num_vcs) - 1
    }
}

/// Expand one candidate hop's VC mask against the channel's occupancy
/// bitmask: free VCs append `(slot key, vc)` to `eligible`, occupied ones
/// append their slot key to `busy`, both in ascending VC order (the
/// order of the allocator's RNG-visible candidate list). `bits` must
/// already be clipped to the engine's VC width and `base` is the
/// channel's first slot key (`ch * num_vcs`).
#[inline]
pub(super) fn expand_candidates(
    bits: u32,
    occ: u32,
    base: u32,
    eligible: &mut Vec<(u32, u8)>,
    busy: &mut Vec<u32>,
) {
    let mut free = bits & !occ;
    while free != 0 {
        let vc = free.trailing_zeros();
        free &= free - 1;
        eligible.push((base + vc, vc as u8));
    }
    let mut taken = bits & occ;
    while taken != 0 {
        let vc = taken.trailing_zeros();
        taken &= taken - 1;
        busy.push(base + vc);
    }
}
