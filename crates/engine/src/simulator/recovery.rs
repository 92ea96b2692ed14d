//! Online fault activation, chaos aborts, and watchdog recovery.

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Drain every activation the installed fault driver has due.
    pub(super) fn poll_fault_driver(&mut self) {
        let mut driver = self
            .fault_driver
            .take()
            .expect("caller checked driver presence");
        while let Some(act) = driver.poll(self.cycle) {
            self.apply_activation(act);
        }
        self.fault_driver = Some(driver);
    }

    /// Swap in routing state for an extended fault pattern and triage all
    /// traffic against the newly faulty nodes (the chaos recovery
    /// protocol):
    ///
    /// - an endpoint the message still needs died → permanently lost;
    /// - its path crosses a new fault → aborted: held VCs released, flits
    ///   reset to the source, re-routed against the new pattern, and
    ///   re-injection scheduled with bounded exponential backoff;
    /// - queued at a healthy source → route state re-sampled (requeued);
    /// - otherwise untouched, except that ring state is cleared (region
    ///   ids changed with the pattern).
    fn apply_activation(&mut self, act: FaultActivation) {
        let FaultActivation { ctx: new_ctx, algo } = act;
        assert_eq!(
            (new_ctx.mesh().width(), new_ctx.mesh().height()),
            (self.ctx.mesh().width(), self.ctx.mesh().height()),
            "fault activation built for a different mesh"
        );
        assert_eq!(
            algo.num_vcs(),
            self.num_vcs,
            "fault activation changes the VC count"
        );
        let old_ctx = std::mem::replace(&mut self.ctx, new_ctx);
        self.algo = algo;
        let mesh = self.ctx.mesh().clone();

        // Newly unusable nodes (seeds plus nodes swallowed by the convex
        // closure, possibly merged into pre-existing regions).
        let newly: Vec<bool> = mesh
            .nodes()
            .map(|n| self.ctx.pattern().is_faulty(n) && !old_ctx.pattern().is_faulty(n))
            .collect();
        let newly_count = newly.iter().filter(|&&b| b).count();

        let pre_rate = self.window_rate();
        let ev = self
            .recovery
            .as_mut()
            .expect("recovery stats exist while a driver is installed")
            .begin_event(self.cycle, newly_count, pre_rate);
        self.pending_settle.push((ev, self.cycle, pre_rate));

        // Dead nodes stop generating; destination sampling moves to the
        // new healthy set. Throughput keeps normalizing by the initial
        // healthy count so pre/post-fault rates stay comparable.
        for (idx, dead) in newly.iter().enumerate() {
            if *dead {
                self.calendar.disable(idx);
            }
        }
        let pattern = self.ctx.pattern();
        self.sampler
            .reset(self.workload.pattern, &mesh, pattern.healthy_nodes(&mesh));

        // In-flight triage, in `active` order (deterministic).
        let snapshot: Vec<u32> = self.active.clone();
        for &id in &snapshot {
            let m = &self.msgs[id as usize];
            if !self.alive[id as usize] {
                continue;
            }
            let src_dead = newly[m.src.index()];
            let dest_dead = newly[m.dest.index()];
            let crosses = self
                .path(id as usize)
                .iter()
                .any(|e| newly[e.dest.index()] || newly[mesh.channel_src(ChannelId(e.ch)).index()]);
            if dest_dead || (src_dead && (m.at_source > 0 || crosses)) {
                // Destination gone, or flits stranded at / re-injection
                // required from a dead source.
                self.kill_active(id);
                if S::ENABLED {
                    let src = self.msgs[id as usize].src.0;
                    self.sink
                        .record(TraceEvent::new(self.cycle, EventKind::Abort, id).at(src));
                }
                self.recovery.as_mut().expect("stats exist").record_lost(ev);
            } else if crosses {
                self.abort_for_fault(id, ev);
            } else {
                // Survivor: its ring state references the old pattern's
                // region ids, which the swap invalidated.
                self.msgs[id as usize].state.ring = None;
            }
        }

        // Queued triage, node order then queue order (deterministic): a
        // dead source loses its whole queue, a dead destination loses the
        // entry, everything else counts as requeued (a parked message's
        // route state is re-sampled; a fresh one has none yet).
        let mut lost = Vec::new();
        for node in 0..self.sources.num_nodes() {
            self.sources.retain(node, |&entry| {
                let (parked, dest) = match entry {
                    Queued::Fresh { dest, .. } => (None, dest),
                    Queued::Parked(id) => (Some(id as usize), self.msgs[id as usize].dest),
                };
                let rec = self.recovery.as_mut().expect("stats exist");
                let keep = !newly[node] && !newly[dest.index()];
                if keep {
                    rec.record_requeued(ev);
                } else {
                    rec.record_lost(ev);
                }
                if let Some(i) = parked {
                    if keep {
                        self.msgs[i].state = self.algo.init_message(NodeId(node as u16), dest);
                        self.wait[i] = 0;
                    } else {
                        lost.push(i as u32);
                    }
                }
                keep
            });
        }
        for id in lost {
            self.free_slot(id);
        }

        // Backoff triage: a waiting message whose endpoint died is lost.
        let backoff = std::mem::take(&mut self.backoff);
        for (ready, id) in backoff {
            let (src, dest) = {
                let m = &self.msgs[id as usize];
                (m.src, m.dest)
            };
            if newly[src.index()] || newly[dest.index()] {
                self.free_slot(id);
                self.recovery.as_mut().expect("stats exist").record_lost(ev);
            } else {
                self.backoff.push((ready, id));
            }
        }

        // Prune `active` now: killed ids' slab slots are already on the
        // free list and may be re-allocated by this very cycle's traffic
        // generation, and aborted ids re-enter via the source queue — a
        // stale entry would double-route them.
        let in_backoff: std::collections::HashSet<u32> =
            self.backoff.iter().map(|&(_, id)| id).collect();
        let alive = &self.alive;
        self.active
            .retain(|&id| alive[id as usize] && !in_backoff.contains(&id));
        if self.oldest_first() {
            self.ordered
                .retain(|&id| alive[id as usize] && !in_backoff.contains(&id));
        }

        // The context/algorithm swap invalidated every cached routing
        // decision: all surviving headers must re-contend (their candidate
        // sets were computed against the old pattern) and every wake list
        // is stale. The new algorithm may also widen at a different wait
        // threshold.
        self.recheck_wait = self.algo.recheck_wait();
        self.waiters.clear_all();
        self.waiter_mask.iter_mut().for_each(|m| *m = 0);
        self.reg_bits.iter_mut().for_each(|b| *b = 0);
        for &id in &self.active {
            self.alloc[id as usize] = AllocPhase::Contend;
        }
    }

    /// Remove an active message from the network for good: release held
    /// VCs, free the injection port, recycle the slab slot. The caller
    /// prunes `active` (activation triage immediately, the watchdog via
    /// the end-of-step retain).
    fn kill_active(&mut self, id: u32) {
        self.release_path(id);
        let src = self.msgs[id as usize].src;
        if self.sources.port(src.index()) == Some(id) {
            self.sources.free_port(src.index());
        }
        self.free_slot(id);
        self.wake_freed();
    }

    /// Put every flit of message `id` back at its source with fresh
    /// routing state: release its path, wake the headers asleep on the
    /// freed slots, restart its watchdog clock. The caller decides where
    /// it waits next. Emits only the releases and wakes, and draws no RNG
    /// (`init_message` is a pure function of the pattern).
    fn rewind_to_source(&mut self, id: u32) {
        let i = id as usize;
        self.release_path(id);
        let m = &mut self.msgs[i];
        m.at_source = m.length;
        m.delivered = 0;
        m.first_injected = None;
        let (src, dest) = (m.src, m.dest);
        self.last_progress[i] = self.cycle;
        self.alloc[i] = AllocPhase::Contend;
        self.stalled[i] = false;
        self.wake_freed();
        self.msgs[i].state = self.algo.init_message(src, dest);
        self.wait[i] = 0;
    }

    /// Chaos abort: drop the message's flits back to its source, release
    /// every held VC, re-route it against the new pattern, and schedule
    /// re-injection after `backoff_base << min(aborts-1, backoff_cap)`
    /// cycles.
    fn abort_for_fault(&mut self, id: u32, ev: usize) {
        self.rewind_to_source(id);
        let m = &mut self.msgs[id as usize];
        m.chaos_aborts += 1;
        m.abort_tag = Some((ev as u32, self.cycle));
        let exp = (m.chaos_aborts - 1).min(self.cfg.recovery_backoff_cap);
        let src = m.src;
        if self.sources.port(src.index()) == Some(id) {
            self.sources.free_port(src.index());
        }
        if S::ENABLED {
            self.sink
                .record(TraceEvent::new(self.cycle, EventKind::Abort, id).at(src.0));
        }
        let delay = self.cfg.recovery_backoff_base << exp;
        self.backoff.push((self.cycle + delay, id));
        self.recovery
            .as_mut()
            .expect("stats exist")
            .record_abort(ev);
    }

    /// Watchdog recovery: drop the message's flits, free its VCs, and
    /// re-inject it from its source with fresh routing state.
    pub(super) fn recover(&mut self, id: u32) {
        // A survivor of an online fault event whose source has since died
        // cannot be re-injected: it is dropped for good.
        let lost = self.ctx.pattern().is_faulty(self.msgs[id as usize].src);
        // Stall forensics: snapshot the wait-for graph the registration
        // records spell and name its knot or, failing one, the congestion
        // hotspot, kept as a value for tests and tools. Building it
        // allocates, so the untraced fast path skips it.
        if S::ENABLED {
            if !lost {
                self.last_stall = Some(self.diagnose_stall(Some(MsgId(id))));
            }
            let head = self.head_node(id as usize).0;
            self.sink
                .record(TraceEvent::new(self.cycle, EventKind::Recover, id).at(head));
        }
        if lost {
            self.kill_active(id);
            if let Some(rec) = self.recovery.as_mut() {
                if rec.num_events() > 0 {
                    rec.record_lost(rec.num_events() - 1);
                }
            }
            return;
        }
        self.recoveries += 1;
        self.rewind_to_source(id);
        let m = &mut self.msgs[id as usize];
        m.recoveries += 1;
        let src = m.src;
        // A message that holds its injection port keeps it and restarts
        // next cycle from the source; one whose port is free takes it; one
        // whose port is busy with another message is requeued at the front.
        match self.sources.port(src.index()) {
            Some(holder) if holder == id => {}
            Some(_) => {
                self.sources.push_front(src.index(), id);
                // Remove from active; re-promoted later.
                self.active.retain(|&x| x != id);
                self.ordered.retain(|&x| x != id);
            }
            None => {
                self.sources.seize_port(src.index(), id);
                if !self.active.contains(&id) {
                    self.active.push(id);
                    if self.oldest_first() {
                        self.ordered_insert(id);
                    }
                }
            }
        }
    }
}
