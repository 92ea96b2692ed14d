//! Flit movement: the per-worm pipeline pass, stage release and delivery.

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Advance the message's flit pipeline by up to one flit per boundary
    /// ([`Msg::advance`]), then handle what the pass made true.
    pub(super) fn move_flits(&mut self, id: u32, measuring: bool) {
        let i = id as usize;
        // A stalled wormhole cannot move any flit until its own state
        // changes (path growth in `try_allocate`, or a reset), and it
        // would not have marked `link_used`/`eject_used` either, so
        // skipping it is byte-identical to walking its path again.
        if !self.alive[i] || self.stalled[i] || self.msgs[i].path.is_empty() {
            return;
        }
        let m = &mut self.msgs[i];
        if PROFILE {
            self.phase_times.count_worm(m.path.len());
        }
        // `Simulator::path`, borrowed beside `m` rather than through `self`.
        let base = i * self.stride;
        let path = &mut self.paths[base + m.path.front as usize..base + m.path.back as usize];
        let pass = m.advance(
            path,
            self.cfg.buffer_depth as u32,
            self.cycle + 1,
            &mut self.link_used,
            &mut self.eject_used,
        );
        self.delivered_this_cycle += pass.ejected as u32;
        // Every movement predicate is the worm's own state (`ready`) and a
        // per-cycle budget that can only deny. A worm that neither moved
        // nor was ready stays that way until its own state changes.
        self.stalled[i] = !(pass.moved | pass.ready);
        self.last_progress[i] =
            std::hint::select_unpredictable(pass.moved, self.cycle, self.last_progress[i]);

        // Once-per-hop and once-per-message events, tested after the pass
        // where they are rare and predict.
        if pass.header_arrived {
            // Routable from the next allocation pass on, unless it
            // arrived home, where ejection takes over.
            self.alloc[i] = if path[path.len() - 1].dest == m.dest {
                AllocPhase::Moving
            } else {
                AllocPhase::Contend
            };
        }
        if pass.first_flit {
            m.first_injected = Some(self.cycle);
        }
        if pass.injected & (m.at_source == 0) {
            // The tail left the source: free the injection port.
            self.sources.free_port(m.src.index());
        }
        let tail_drained = path.len() > 1 && path[1].entered == m.length;
        if tail_drained | m.is_complete() {
            self.retire_stages(id, measuring);
        }
    }

    /// Release the stages the tail flit has left and, once the last flit
    /// is consumed, the message itself. Call order matters: see
    /// [`Simulator::finish_completion`].
    #[inline(never)]
    fn retire_stages(&mut self, id: u32, measuring: bool) {
        let i = id as usize;
        let complete = self.msgs[i].is_complete();
        // Stage 0 is drained when everything has entered stage 1; a
        // complete message gives back whatever it still holds.
        loop {
            let path = self.path(i);
            let drained = (complete && !path.is_empty())
                || (path.len() > 1 && path[1].entered == self.msgs[i].length);
            if !drained {
                break;
            }
            let front = path[0];
            self.pop_path_front(i);
            self.release_stage(id, front);
        }
        if complete {
            if S::ENABLED {
                let dest = self.msgs[i].dest.0;
                self.sink
                    .record(TraceEvent::new(self.cycle, EventKind::Deliver, id).at(dest));
            }
            self.finish_completion(id, measuring);
        }
        self.wake_freed();
    }

    /// Give back one held stage: free its VC slot, credit the flits that
    /// entered it to its node's load (see `stage_arrivals`), and note its
    /// key for [`Simulator::wake_freed`]. Every stage a message gives up
    /// passes through here.
    fn release_stage(&mut self, id: u32, e: PathEntry) {
        self.occ_mask[e.ch as usize] &= !(1 << e.vc);
        self.vc_usage.release(e.vc);
        if S::ENABLED {
            self.sink.record(
                TraceEvent::new(self.cycle, EventKind::VcRelease, id)
                    .at(e.dest.0)
                    .on(e.ch, e.vc),
            );
        }
        self.stage_arrivals[e.dest.index()] += u64::from(e.entered);
        self.freed_scratch.push(e.key);
    }

    /// Release every stage message `id` holds, source side first.
    pub(super) fn release_path(&mut self, id: u32) {
        let i = id as usize;
        while let Some(&e) = self.path(i).first() {
            self.pop_path_front(i);
            self.release_stage(id, e);
        }
    }

    /// Wake the headers asleep on the slots released since the last call,
    /// in release order.
    pub(super) fn wake_freed(&mut self) {
        let mut freed = std::mem::take(&mut self.freed_scratch);
        for &key in &freed {
            self.wake_waiters(key);
        }
        freed.clear();
        self.freed_scratch = freed;
    }

    /// The statistics/bookkeeping tail of a message completion. Call
    /// order matters: the latency records are order-sensitive f64 sums,
    /// and the free-list push order decides future message-id assignment.
    fn finish_completion(&mut self, id: u32, measuring: bool) {
        let m = &self.msgs[id as usize];
        let misroutes = m.state.misroutes as u64;
        let abort = m.abort_tag;
        let latency = self.cycle + 1 - m.created;
        let network_latency = self.cycle + 1
            - m.first_injected
                .expect("a completed message must have injected flits");
        let length = m.length;
        self.total_misroutes += misroutes;
        if let Some((ev, aborted_at)) = abort {
            if let Some(rec) = self.recovery.as_mut() {
                rec.record_recovered(ev as usize, self.cycle + 1 - aborted_at);
            }
        }
        self.free_slot(id);
        if measuring {
            self.throughput.record_delivery(length);
            self.latency.record(latency);
            self.network_latency.record(network_latency);
        }
    }
}
