//! One cycle and the schedules built on it, traffic, statistics and the report.

use super::*;

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Run the configured warm-up + measurement schedule and produce the
    /// report.
    pub fn run(&mut self) -> SimReport {
        for _ in 0..self.cfg.total_cycles() {
            self.step();
        }
        self.report()
    }

    /// Run until all queued/active messages are delivered or `max_cycles`
    /// elapse; returns true when the network fully drained. Each cycle is
    /// a full [`Simulator::step`], which polls the traffic sources, so
    /// drain with a rate-0 workload (manual injection): at a rate above 0
    /// the sources keep generating.
    #[must_use = "an ignored `false` means stats describe an undrained network"]
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.drained() {
                return true;
            }
            self.step();
        }
        self.drained()
    }

    /// No message active, queued, or waiting out a post-abort backoff.
    fn drained(&self) -> bool {
        self.active.is_empty() && self.queued() == 0 && self.backoff.is_empty()
    }

    /// Build the report for everything measured so far.
    pub fn report(&self) -> SimReport {
        let ctx = &self.ctx;
        let mesh = ctx.mesh();
        let mut throughput = self.throughput.clone();
        throughput.set_cycles(
            self.cfg
                .measure_cycles
                .min(
                    self.cycle
                        .saturating_sub(self.cfg.warmup_cycles.min(self.cycle)),
                )
                .max(1),
        );
        let mut node_load = self.node_load.clone();
        if self.load_window_open() {
            self.add_window_arrivals(&mut node_load, &mut Vec::new());
        }
        let ring_load = if ctx.pattern().is_fault_free() {
            None
        } else {
            let on_ring: Vec<bool> = mesh.nodes().map(|n| ctx.rings().on_any_ring(n)).collect();
            let usable: Vec<bool> = mesh.nodes().map(|n| !ctx.pattern().is_faulty(n)).collect();
            Some(node_load.ring_summary(&on_ring, &usable))
        };
        SimReport {
            algorithm: self.algo.name().to_string(),
            offered_rate: self.workload.rate,
            message_length: self.workload.message_length,
            seed_faults: ctx.pattern().num_seed_faulty(),
            total_faults: ctx.pattern().num_faulty(),
            measured_cycles: self.cfg.measure_cycles,
            latency: self.latency.clone(),
            network_latency: self.network_latency.clone(),
            throughput,
            vc_usage: self.vc_usage.clone(),
            node_load,
            recoveries: self.recoveries,
            ring_hops: self.ring_hops,
            total_misroutes: self.total_misroutes,
            in_flight_at_end: self.active.len() as u64,
            ring_load,
            recovery: self.recovery.clone(),
        }
    }

    /// Advance the simulation by one cycle.
    pub fn step(&mut self) {
        let measuring = self.measuring();
        // Phase-profiling mark; stays `None` (and every `phase_lap`
        // compiles away) unless `PROFILE` is set.
        let mut mark = if PROFILE {
            Some(std::time::Instant::now())
        } else {
            None
        };

        // The measurement window opens: every arrival so far is its
        // baseline. (Releasing a stage moves its count from live to
        // stored, so only flit movement changes the sum.)
        if measuring && self.cycle == self.cfg.warmup_cycles {
            let mut base = std::mem::take(&mut self.window_base);
            self.arrivals_so_far(&mut base);
            self.window_base = base;
        }

        // 0. Online fault activation (before traffic so this cycle already
        // generates/routes against the new pattern).
        if self.fault_driver.is_some() {
            self.poll_fault_driver();
        }

        // 1. Stochastic message generation (open-loop Poisson sources),
        // only at the sources due this cycle.
        self.generate_traffic(measuring);

        // 1b. Re-enqueue chaos-aborted messages whose backoff expired; they
        // compete for the injection port like freshly generated traffic.
        if !self.backoff.is_empty() {
            let cycle = self.cycle;
            let sources = &mut self.sources;
            let msgs = &self.msgs;
            self.backoff.retain(|&(ready, id)| {
                if ready <= cycle {
                    sources.push_back(msgs[id as usize].src.index(), Queued::Parked(id));
                    false
                } else {
                    true
                }
            });
        }

        // 2. Promote queued messages onto free injection ports, visiting
        // only the nodes that have both, in ascending order.
        let oldest_first = self.oldest_first();
        let mut next = self.sources.next_promotable(0);
        while let Some(node) = next {
            let id = match self.sources.pop_front(node).expect("queue is pending") {
                Queued::Parked(id) => id,
                // `init_message` is a pure function of the mesh and the
                // current pattern, so taking the slot now is what
                // creation-time state re-sampled at every fault activation
                // would have been.
                Queued::Fresh { dest, created } => {
                    self.alloc_msg(NodeId(node as u16), dest, created).0
                }
            };
            self.sources.seize_port(node, id);
            self.active.push(id);
            if S::ENABLED {
                self.sink
                    .record(TraceEvent::new(self.cycle, EventKind::Inject, id).at(node as u16));
            }
            if oldest_first {
                self.ordered_insert(id);
            }
            next = self.sources.next_promotable(node + 1);
        }

        self.phase_lap(&mut mark, Phase::Inject);

        // 3. Service order: random (the paper's conflict resolution) or
        // oldest-first (starvation-free ablation alternative). Oldest-first
        // copies the incrementally maintained `(created, id)` mirror.
        self.order.clear();
        match self.cfg.arbitration {
            Arbitration::Random => {
                self.order.extend_from_slice(&self.active);
                self.order.shuffle(&mut self.rng);
            }
            Arbitration::OldestFirst => {
                debug_assert_eq!(self.ordered.len(), self.active.len());
                debug_assert!(
                    self.ordered.windows(2).all(|w| {
                        (self.msgs[w[0] as usize].created, w[0])
                            < (self.msgs[w[1] as usize].created, w[1])
                    }),
                    "ordered mirror lost its sort order"
                );
                self.order.extend_from_slice(&self.ordered);
            }
        }

        self.phase_lap(&mut mark, Phase::Route);

        // 4. Routing + VC allocation for headers.
        let order = std::mem::take(&mut self.order);
        for &id in &order {
            self.try_allocate(id);
        }
        self.phase_lap(&mut mark, Phase::Allocate);

        // 5. Flit movement (ejection, pipeline shifts, source injection).
        // `link_used`/`eject_used` need no clearing: they are epoch-stamped
        // with `cycle + 1`, so last cycle's marks simply stop matching.
        for &id in &order {
            self.move_flits(id, measuring);
        }
        self.phase_lap(&mut mark, Phase::Move);
        self.order = order;

        // 6. Watchdog — a linear scan over the dense last-progress array.
        let timeout = self.cfg.deadlock_timeout;
        let cycle = self.cycle;
        let mut stuck = std::mem::take(&mut self.stuck_scratch);
        stuck.clear();
        {
            let alive = &self.alive;
            let last_progress = &self.last_progress;
            stuck.extend(self.active.iter().copied().filter(|&id| {
                alive[id as usize] && cycle.saturating_sub(last_progress[id as usize]) > timeout
            }));
        }
        for &id in &stuck {
            self.recover(id);
        }
        self.stuck_scratch = stuck;

        // 7. Statistics & cleanup. VC-busy accounting is incremental:
        // `vc_usage` tracks currently-held slots via acquire/release at the
        // claim and release sites, and `tick()` folds them into the busy
        // totals — no scan over active message paths.
        if measuring {
            self.vc_usage.tick();
            self.node_load.tick();
            if self.cycle + 1 == self.cfg.warmup_cycles + self.cfg.measure_cycles {
                self.close_load_window();
            }
        }
        let alive = &self.alive;
        self.active.retain(|&id| alive[id as usize]);
        if oldest_first {
            self.ordered.retain(|&id| alive[id as usize]);
        }

        // 8. Delivered-rate window + settling detection (chaos runs only).
        if self.recovery.is_some() {
            self.update_delivery_window();
        }
        self.delivered_this_cycle = 0;

        self.phase_lap(&mut mark, Phase::Recover);
        if PROFILE {
            self.phase_times.tick_cycle();
        }

        self.cycle += 1;
    }

    /// Whether statistics are currently being collected.
    fn measuring(&self) -> bool {
        self.cycle >= self.cfg.warmup_cycles
            && self.cycle < self.cfg.warmup_cycles + self.cfg.measure_cycles
    }

    /// Stamp the end of a profiled phase: charge the span since the last
    /// mark to `phase` and advance the mark. Compiles to nothing when
    /// `PROFILE` is false (the mark stays `None` and is dead code).
    #[inline(always)]
    fn phase_lap(&mut self, mark: &mut Option<std::time::Instant>, phase: Phase) {
        if PROFILE {
            let now = std::time::Instant::now();
            if let Some(prev) = mark.replace(now) {
                self.phase_times.add(phase, now.duration_since(prev));
            }
        }
    }

    /// Push this cycle's delivered-flit count into the sliding window and
    /// check pending fault events for settling: an event settles at the
    /// first cycle where the window (a) holds only post-fault cycles and
    /// (b) averages at least [`SETTLE_FRACTION`] of the pre-fault rate.
    fn update_delivery_window(&mut self) {
        self.delivered_window.push_back(self.delivered_this_cycle);
        self.window_sum += self.delivered_this_cycle as u64;
        if self.delivered_window.len() as u64 > self.cfg.settle_window {
            let oldest = self
                .delivered_window
                .pop_front()
                .expect("window is non-empty");
            self.window_sum -= oldest as u64;
        }
        if self.pending_settle.is_empty() {
            return;
        }
        let rate = self.window_rate();
        let window = self.cfg.settle_window;
        let now = self.cycle;
        let rec = self
            .recovery
            .as_mut()
            .expect("settling tracked only with recovery stats");
        self.pending_settle.retain(|&(ev, at, pre)| {
            // Elapsed counts the activation cycle itself (the window is
            // updated before `cycle` increments).
            let elapsed = now + 1 - at;
            if elapsed < window {
                return true; // window still mixes pre-fault cycles
            }
            if rate >= SETTLE_FRACTION * pre {
                rec.set_settled(ev, elapsed);
                false
            } else {
                true
            }
        });
    }

    /// Mean delivered flits/cycle over the current window.
    pub(super) fn window_rate(&self) -> f64 {
        if self.delivered_window.is_empty() {
            return 0.0;
        }
        self.window_sum as f64 / self.delivered_window.len() as f64
    }

    /// Poll the sources due this cycle, in ascending node order, and
    /// queue what they generate. Each source draws its gaps and then its
    /// messages' destinations before the next one is polled, the same RNG
    /// sequence as polling every source in node order.
    fn generate_traffic(&mut self, measuring: bool) {
        while let Some((idx, due)) = self.calendar.poll_next(self.cycle, &mut self.rng) {
            let node = NodeId(idx as u16);
            for _ in 0..due {
                let Some(dest) = self.sampler.sample(node, &mut self.rng) else {
                    continue;
                };
                self.sources.push_back(
                    idx,
                    Queued::Fresh {
                        dest,
                        created: self.cycle,
                    },
                );
                if measuring {
                    self.throughput.record_injection();
                }
            }
        }
    }

    /// Every flit arrival at each node since the run began, into `out`:
    /// the stored count of released stages plus the `entered` of every
    /// stage still held. O(nodes + slab + held stages); run at the two
    /// window edges and by [`Simulator::report`], never per cycle.
    pub(super) fn arrivals_so_far(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.stage_arrivals);
        for i in 0..self.msgs.len() {
            for e in self.path(i) {
                out[e.dest.index()] += u64::from(e.entered);
            }
        }
    }

    /// Add the measurement window's arrivals per node to `load`, using
    /// `out` as scratch.
    fn add_window_arrivals(&self, load: &mut NodeLoadStats, out: &mut Vec<u64>) {
        self.arrivals_so_far(out);
        for (n, (&a, &base)) in out.iter().zip(&self.window_base).enumerate() {
            load.record_arrivals(NodeId(n as u16), a - base);
        }
    }

    /// Whether the window has opened and not yet closed: its arrivals
    /// are not in `node_load` yet.
    fn load_window_open(&self) -> bool {
        let w = self.cfg.warmup_cycles;
        w < self.cycle && self.cycle < w + self.cfg.measure_cycles
    }

    /// The last measured cycle ends: fold the window's arrivals into
    /// `node_load`, which later cycles no longer change.
    fn close_load_window(&mut self) {
        let mut arrivals = std::mem::take(&mut self.window_scratch);
        let mut load = std::mem::replace(&mut self.node_load, NodeLoadStats::new(0));
        self.add_window_arrivals(&mut load, &mut arrivals);
        self.node_load = load;
        self.window_scratch = arrivals;
    }

    /// Binary-insert `id` into the `(created, id)`-sorted mirror of
    /// `active` (oldest-first arbitration only). Promotion order mostly
    /// tracks creation order, so the insert usually lands at the tail.
    pub(super) fn ordered_insert(&mut self, id: u32) {
        let key = (self.msgs[id as usize].created, id);
        let pos = self
            .ordered
            .binary_search_by_key(&key, |&x| (self.msgs[x as usize].created, x))
            .unwrap_or_else(|p| p);
        self.ordered.insert(pos, id);
    }
}
