//! The cycle loop: injection, routing/VC allocation, flit movement,
//! watchdog, statistics.

use crate::config::{ConfigError, SimConfig};
use crate::fault_hook::{FaultActivation, FaultDriver};
use crate::message::{AllocPhase, Msg, MsgId, PathEntry, Queued};
use crate::profile::{Phase, PhaseTimes};
use crate::sources::{Calendar, SourceQueues};
use crate::waiters::WaiterTable;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use wormsim_metrics::{
    LatencyStats, NodeLoadStats, RecoveryStats, SimReport, ThroughputStats, VcUsageStats,
    SETTLE_FRACTION,
};
use wormsim_obs::{EventKind, NullSink, Sink, StallDiagnosis, StallMessage, TraceEvent, WaitEdge};
use wormsim_routing::{MessageState, RoutingAlgorithm, RoutingContext};
use wormsim_topology::{ChannelId, Direction, NodeId};
use wormsim_traffic::{DestinationSampler, Workload};

/// The flit-level wormhole simulator. Construct with an algorithm bound to
/// a [`RoutingContext`], a [`Workload`], and a [`SimConfig`]; then either
/// [`Simulator::run`] the full warm-up + measurement schedule or drive it
/// manually with [`Simulator::step`] / [`Simulator::inject_message`].
///
/// The simulator is generic over a trace [`Sink`]. The default
/// [`NullSink`] has `Sink::ENABLED = false`, so every emit site — guarded
/// by `if S::ENABLED` — constant-folds away: an untraced simulator pays
/// nothing for the instrumentation, keeping the zero-allocation steady
/// state and byte-identical reports. Attach a real sink with
/// [`Simulator::with_sink`].
///
/// It is additionally generic over `const PROFILE: bool`, the same
/// compile-away discipline applied to per-phase wall-clock profiling:
/// with the default `PROFILE = false` every `if PROFILE` stamp site
/// constant-folds away; a `Simulator::<NullSink, true>` accumulates a
/// per-phase cycle-time breakdown readable via
/// [`Simulator::phase_times`]. Profiling only observes wall-clock time —
/// simulation behavior and reports are identical either way.
pub struct Simulator<S: Sink = NullSink, const PROFILE: bool = false> {
    cfg: SimConfig,
    algo: Arc<dyn RoutingAlgorithm>,
    ctx: Arc<RoutingContext>,
    workload: Workload,
    num_vcs: u8,

    /// VC ownership: `slots[ch.index() * num_vcs + vc]` = owning message.
    slots: Vec<Option<u32>>,
    /// Per-channel VC occupancy bitmask: bit `vc` of `occ_mask[ch]` is set
    /// iff `slots[ch * num_vcs + vc]` is `Some`. The allocator's candidate
    /// gather works on these masks with `trailing_zeros` loops instead of
    /// probing `slots` per VC (`num_vcs ≤ 32`, enforced at construction).
    occ_mask: Vec<u32>,
    /// Per-channel wake-flag bitmask: bit `vc` of `waiter_mask[ch]` is set
    /// iff `waiters[ch * num_vcs + vc]` is non-empty, so release paths and
    /// the stall scanner skip empty wake lists without loading them.
    waiter_mask: Vec<u32>,
    msgs: Vec<Msg>,
    // --- per-message hot flags, struct-of-arrays, indexed by slab id ---
    // Parallel to `msgs`. The service-order, watchdog, retain, and
    // allocation-dispatch passes each read exactly one of these per
    // message; keeping them in dense arrays makes those passes linear
    // scans over 1–8-byte elements instead of strides through `Msg`
    // records.
    /// Slab liveness flag.
    alive: Vec<bool>,
    /// Header-allocation phase (see [`AllocPhase`]).
    alloc: Vec<AllocPhase>,
    /// Movement-stall skip flag: no flit of the message can move until
    /// its own state changes (see the stall-detection comment in
    /// [`Simulator::move_flits`]).
    stalled: Vec<bool>,
    /// Cycle of the last flit movement (watchdog input).
    last_progress: Vec<u64>,
    /// Cycles the header has waited since its last hop. The authoritative
    /// copy of [`MessageState::wait_cycles`]: it is copied into the state
    /// before `route()` and back after the attempt, so the per-cycle tick
    /// of a blocked header touches only this array.
    wait: Vec<u32>,
    /// The head node the registration record `reg_bits` describes.
    reg_node: Vec<u16>,
    /// Registration record: bit `dir * 32 + vc` is set iff this id is on
    /// the wake list of `reg_node`'s outgoing slot `(dir, vc)`. A set bit
    /// always has its list entry, so a re-blocking header skips the push
    /// without walking the list. The converse can fail after a node
    /// revisit or an id recycle, which costs one duplicate entry.
    reg_bits: Vec<u128>,
    free_list: Vec<u32>,
    /// Messages currently in the network or injecting.
    active: Vec<u32>,
    /// Per-node source queues of generated-but-not-started messages and
    /// the injection ports they wait for. A queued message owns a slab
    /// slot only if something gave it one earlier ([`Queued::Parked`]);
    /// traffic generation queues 16-byte [`Queued::Fresh`] entries and the
    /// slot is taken at promotion.
    sources: SourceQueues,
    /// Per-node Poisson sources, polled only when due.
    calendar: Calendar,
    sampler: DestinationSampler,
    rng: SmallRng,

    cycle: u64,
    /// Per-cycle link bandwidth budget (one flit per physical channel).
    /// Epoch-stamped: slot `ch` holds `cycle + 1` when the channel moved a
    /// flit this cycle, so no per-cycle clear is needed (0 never matches).
    link_used: Vec<u64>,
    /// Per-cycle ejection budget (one flit per node); epoch-stamped like
    /// `link_used`.
    eject_used: Vec<u64>,
    /// Scratch order buffer, shuffled every cycle.
    order: Vec<u32>,
    /// Scratch buffer for watchdog-expired message ids (reused per cycle).
    stuck_scratch: Vec<u32>,
    /// Scratch buffer for free `(slot key, vc)` allocation candidates
    /// (reused per routing decision).
    eligible_scratch: Vec<(u32, u8)>,
    /// Scratch buffer for the busy candidate slot keys of one routing
    /// decision (the slots whose release must wake the header on failure).
    busy_scratch: Vec<u32>,
    /// Scratch buffer for slot keys freed while moving one message's flits.
    freed_scratch: Vec<u32>,
    /// Per-VC-slot wake lists: blocked headers to re-arbitrate when the
    /// slot frees. A header is pushed only when its registration record
    /// (`reg_bits`) says it is not listed there yet; stale entries
    /// (headers that moved on, died, or were recycled) are dropped when
    /// the list drains. Arena-backed flat storage (see [`WaiterTable`]) —
    /// one shared node pool instead of a `Vec` per slot.
    waiters: WaiterTable,
    /// `active` mirrored in `(created, id)` order. Maintained incrementally
    /// (binary insert on promotion, mirrored removals) and only under
    /// [`crate::config::Arbitration::OldestFirst`], replacing the full
    /// re-sort the service-order phase used to do every cycle.
    ordered: Vec<u32>,
    /// Cached [`RoutingAlgorithm::recheck_wait`] of the current algorithm
    /// (refreshed when a fault activation swaps the algorithm).
    recheck_wait: Option<u32>,

    latency: LatencyStats,
    network_latency: LatencyStats,
    throughput: ThroughputStats,
    vc_usage: VcUsageStats,
    /// Flit arrivals per node over the measurement window; filled when the
    /// window closes (see `stage_arrivals`).
    node_load: NodeLoadStats,
    /// Per node: the flits that entered every stage released there so
    /// far. A stage's `entered` counts the flits that arrived in its
    /// buffer, so this plus the `entered` of the stages still held (the
    /// *live* count) is every arrival at the node since the run began, and
    /// the pipeline loop needs no per-flit node-load update.
    stage_arrivals: Vec<u64>,
    /// `stage_arrivals` plus the live count, per node, when the
    /// measurement window opened; the window's arrivals are the same sum
    /// now minus this.
    window_base: Vec<u64>,
    /// Scratch per-node buffer for closing the window (reused).
    window_scratch: Vec<u64>,
    recoveries: u64,
    /// Hops taken on the fault-tolerance overlay VCs (ring detour hops).
    ring_hops: u64,
    /// Misroutes summed over delivered messages.
    total_misroutes: u64,

    /// Online fault source, polled at the top of every cycle.
    fault_driver: Option<Box<dyn FaultDriver>>,
    /// Recovery statistics; `Some` once a fault driver is installed.
    recovery: Option<RecoveryStats>,
    /// Chaos-aborted messages waiting out their backoff:
    /// `(ready cycle, msg id)`, insertion (= triage) order.
    backoff: Vec<(u64, u32)>,
    /// Fault events whose delivered rate has not yet settled:
    /// `(event index, activation cycle, pre-fault rate)`.
    pending_settle: Vec<(usize, u64, f64)>,
    /// Sliding per-cycle delivered-flit counts (most recent at the back);
    /// maintained only while a fault driver is installed.
    delivered_window: VecDeque<u32>,
    /// Running sum of `delivered_window`.
    window_sum: u64,
    /// Flits ejected this cycle (network-wide), feeding the window.
    delivered_this_cycle: u32,

    /// Trace-event destination; [`NullSink`] by default (instrumentation
    /// compiled out).
    sink: S,
    /// The most recent watchdog stall diagnosis (see
    /// [`Simulator::last_stall`]).
    last_stall: Option<StallDiagnosis>,
    /// Per-phase wall-clock accumulator; only written when `PROFILE`
    /// (every stamp site is `if PROFILE`-guarded and compiles away in
    /// the default instantiation).
    phase_times: PhaseTimes,
}

impl Simulator {
    /// Build an untraced simulator. The algorithm must be bound to the
    /// same context. Accepts `Box<dyn RoutingAlgorithm>` (as built by
    /// `build_algorithm`) or an already-shared `Arc<dyn RoutingAlgorithm>`.
    pub fn new(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
    ) -> Self {
        Simulator::with_sink(algo, ctx, workload, cfg, NullSink)
    }

    /// Like [`Simulator::new`], but reports an unhonorable configuration
    /// as a [`ConfigError`] instead of panicking.
    pub fn try_new(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
    ) -> Result<Self, ConfigError> {
        Simulator::try_with_sink(algo, ctx, workload, cfg, NullSink)
    }
}

impl<S: Sink> Simulator<S> {
    /// Build a simulator emitting [`TraceEvent`]s to `sink`. Behavior is
    /// byte-identical to [`Simulator::new`] — sinks observe, they never
    /// perturb (no RNG draws happen on the emit paths).
    ///
    /// Pinned to the default `PROFILE = false` so the sink type keeps
    /// inferring at call sites; use [`Simulator::try_build`] with
    /// explicit generics for a phase-profiled instantiation.
    pub fn with_sink(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
        sink: S,
    ) -> Self {
        Simulator::try_with_sink(algo, ctx, workload, cfg, sink)
            .unwrap_or_else(|e| panic!("invalid simulator configuration: {e}"))
    }

    /// Like [`Simulator::with_sink`], but reports an unhonorable
    /// configuration (too many VCs for the occupancy bitmasks) as a
    /// [`ConfigError`] instead of panicking.
    pub fn try_with_sink(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
        sink: S,
    ) -> Result<Self, ConfigError> {
        Simulator::try_build(algo, ctx, workload, cfg, sink)
    }
}

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Construct with every generic explicit — the constructor behind
    /// [`Simulator::new`] / [`Simulator::with_sink`], exposed so
    /// phase-profiled instantiations can be built:
    /// `Simulator::<NullSink, true>::try_build(..)`. (Const-parameter
    /// defaults do not participate in expression inference, so the
    /// inferring constructors are pinned to `PROFILE = false` instead.)
    pub fn try_build(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
        sink: S,
    ) -> Result<Self, ConfigError> {
        let algo = algo.into();
        let mesh = ctx.mesh();
        let num_nodes = mesh.num_nodes();
        let num_vcs = algo.num_vcs();
        if num_vcs as usize > 32 {
            return Err(ConfigError::TooManyVcs {
                requested: num_vcs,
                limit: 32,
            });
        }
        let pattern = ctx.pattern();
        let healthy: Vec<NodeId> = pattern.healthy_nodes(mesh).collect();
        let num_healthy = healthy.len();
        let mut calendar = Calendar::default();
        calendar.reset(source_rates(&ctx, workload.rate));
        let mut sources = SourceQueues::default();
        sources.reset(num_nodes);
        let sampler = DestinationSampler::new(workload.pattern, mesh, healthy);
        let channels = mesh.channels().count();
        let recheck_wait = algo.recheck_wait();
        let num_slots = mesh.num_channel_slots() * num_vcs as usize;
        Ok(Simulator {
            algo,
            workload,
            num_vcs,
            slots: vec![None; mesh.num_channel_slots() * num_vcs as usize],
            occ_mask: vec![0; mesh.num_channel_slots()],
            waiter_mask: vec![0; mesh.num_channel_slots()],
            msgs: Vec::new(),
            alive: Vec::new(),
            alloc: Vec::new(),
            stalled: Vec::new(),
            last_progress: Vec::new(),
            wait: Vec::new(),
            reg_node: Vec::new(),
            reg_bits: Vec::new(),
            free_list: Vec::new(),
            active: Vec::new(),
            sources,
            calendar,
            sampler,
            rng: SmallRng::seed_from_u64(cfg.seed),
            cycle: 0,
            link_used: vec![0; mesh.num_channel_slots()],
            eject_used: vec![0; num_nodes],
            order: Vec::new(),
            stuck_scratch: Vec::new(),
            eligible_scratch: Vec::new(),
            busy_scratch: Vec::new(),
            freed_scratch: Vec::new(),
            waiters: {
                let mut w = WaiterTable::new();
                w.reset(num_slots);
                w
            },
            ordered: Vec::new(),
            recheck_wait,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            throughput: ThroughputStats::new(num_healthy),
            vc_usage: VcUsageStats::new(num_vcs, channels),
            node_load: NodeLoadStats::new(num_nodes),
            stage_arrivals: vec![0; num_nodes],
            window_base: vec![0; num_nodes],
            window_scratch: Vec::with_capacity(num_nodes),
            recoveries: 0,
            ring_hops: 0,
            total_misroutes: 0,
            fault_driver: None,
            recovery: None,
            backoff: Vec::new(),
            pending_settle: Vec::new(),
            delivered_window: VecDeque::new(),
            window_sum: 0,
            delivered_this_cycle: 0,
            sink,
            last_stall: None,
            phase_times: PhaseTimes::new(),
            cfg,
            ctx,
        })
    }

    /// Rewind this simulator for a fresh run with a (possibly different)
    /// algorithm, context, workload, and schedule, reusing every
    /// population-dependent allocation: the message slab (per-message
    /// `PathBuf` capacities included), source queues, scratch buffers,
    /// wake lists, and statistics vectors. Once a first run has sized
    /// those structures, a same-shape `reset` + run performs no heap
    /// allocation (asserted by `tests/steady_state_alloc.rs`).
    ///
    /// Determinism: the run after a `reset` is byte-identical to one on a
    /// freshly constructed simulator with the same arguments. The one
    /// subtle requirement is message-id order — ids are slab indices,
    /// handed out when a message takes its injection port, and act as
    /// tie-breakers in oldest-first arbitration — so the free list is
    /// rebuilt in descending order, making recycled ids pop in the order
    /// `0, 1, 2, …` a fresh slab would assign them.
    pub fn reset(
        &mut self,
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
    ) {
        self.try_reset(algo, ctx, workload, cfg)
            .unwrap_or_else(|e| panic!("invalid simulator configuration: {e}"))
    }

    /// Like [`Simulator::reset`], but reports an unhonorable configuration
    /// as a [`ConfigError`] instead of panicking. On `Err` the simulator
    /// is untouched and still usable with its previous configuration.
    pub fn try_reset(
        &mut self,
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
    ) -> Result<(), ConfigError> {
        let algo = algo.into();
        let num_vcs = algo.num_vcs();
        if num_vcs as usize > 32 {
            return Err(ConfigError::TooManyVcs {
                requested: num_vcs,
                limit: 32,
            });
        }
        self.algo = algo;
        self.ctx = ctx;
        self.workload = workload;
        self.cfg = cfg;
        self.num_vcs = num_vcs;
        let mesh = self.ctx.mesh().clone();
        let num_nodes = mesh.num_nodes();
        let num_channels = mesh.num_channel_slots();
        let num_slots = num_channels * num_vcs as usize;

        self.slots.resize(num_slots, None);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.occ_mask.resize(num_channels, 0);
        self.occ_mask.iter_mut().for_each(|m| *m = 0);
        self.waiter_mask.resize(num_channels, 0);
        self.waiter_mask.iter_mut().for_each(|m| *m = 0);
        self.waiters.reset(num_slots);
        self.link_used.resize(num_channels, 0);
        self.link_used.iter_mut().for_each(|u| *u = 0);
        self.eject_used.resize(num_nodes, 0);
        self.eject_used.iter_mut().for_each(|u| *u = 0);

        // Park the whole slab (path capacities survive) and rebuild the
        // free list descending so pops recycle ids in ascending order.
        for m in &mut self.msgs {
            m.path.clear();
        }
        let n = self.msgs.len();
        self.alive.resize(n, false);
        self.alive.iter_mut().for_each(|a| *a = false);
        self.alloc.resize(n, AllocPhase::Contend);
        self.alloc.iter_mut().for_each(|a| *a = AllocPhase::Contend);
        self.stalled.resize(n, false);
        self.stalled.iter_mut().for_each(|s| *s = false);
        self.last_progress.resize(n, 0);
        self.last_progress.iter_mut().for_each(|p| *p = 0);
        self.wait.resize(n, 0);
        self.wait.iter_mut().for_each(|w| *w = 0);
        self.reg_node.resize(n, 0);
        self.reg_bits.resize(n, 0);
        self.reg_bits.iter_mut().for_each(|b| *b = 0);
        self.free_list.clear();
        self.free_list.extend((0..self.msgs.len() as u32).rev());
        self.active.clear();
        self.ordered.clear();
        self.order.clear();
        self.stuck_scratch.clear();
        self.eligible_scratch.clear();
        self.busy_scratch.clear();
        self.freed_scratch.clear();

        self.sources.reset(num_nodes);
        self.calendar
            .reset(source_rates(&self.ctx, self.workload.rate));
        let pattern = self.ctx.pattern();
        self.sampler
            .reset(self.workload.pattern, &mesh, pattern.healthy_nodes(&mesh));
        let num_healthy = self.sampler.healthy().len();
        self.rng = SmallRng::seed_from_u64(self.cfg.seed);
        self.cycle = 0;
        self.recheck_wait = self.algo.recheck_wait();

        self.latency.reset();
        self.network_latency.reset();
        self.throughput.reset(num_healthy);
        self.vc_usage.reset(num_vcs, mesh.channels().count());
        self.node_load.reset(num_nodes);
        for v in [&mut self.stage_arrivals, &mut self.window_base] {
            v.clear();
            v.resize(num_nodes, 0);
        }
        self.recoveries = 0;
        self.ring_hops = 0;
        self.total_misroutes = 0;
        self.fault_driver = None;
        self.recovery = None;
        self.backoff.clear();
        self.pending_settle.clear();
        self.delivered_window.clear();
        self.window_sum = 0;
        self.delivered_this_cycle = 0;
        self.last_stall = None;
        self.phase_times.clear();
        Ok(())
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the simulator, returning the sink (to finish writers,
    /// export traces, inspect recorded events).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The per-phase wall-clock breakdown accumulated so far. All zeros
    /// unless the simulator was instantiated with `PROFILE = true`
    /// (e.g. `Simulator::<NullSink, true>::new(..)`); cleared by
    /// [`Simulator::reset`].
    pub fn phase_times(&self) -> &PhaseTimes {
        &self.phase_times
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

    /// The most recent watchdog stall diagnosis. Captured only when a
    /// real sink is attached — building the diagnosis allocates, which
    /// the default `NullSink` fast path must not
    /// ([`diagnose_stall`](Simulator::diagnose_stall) computes one on
    /// demand regardless).
    pub fn last_stall(&self) -> Option<&StallDiagnosis> {
        self.last_stall.as_ref()
    }

    /// Install an online fault source. From the next [`Simulator::step`] on,
    /// the driver is polled at the top of every cycle and its activations
    /// are applied before traffic generation; [`RecoveryStats`] collection
    /// starts now (the report's `recovery` field becomes `Some`).
    pub fn install_fault_driver(&mut self, driver: Box<dyn FaultDriver>) {
        self.fault_driver = Some(driver);
        if self.recovery.is_none() {
            self.recovery = Some(RecoveryStats::new(self.cfg.settle_window));
        }
    }

    /// Recovery statistics collected so far (`None` without a fault driver).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of messages currently active (injecting or in-network).
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Messages waiting in source queues.
    pub fn queued(&self) -> usize {
        self.sources.len()
    }

    /// Total watchdog recoveries so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Messages delivered so far (measurement window only).
    pub fn delivered(&self) -> u64 {
        self.throughput.messages_delivered()
    }

    /// Whether statistics are currently being collected.
    fn measuring(&self) -> bool {
        self.cycle >= self.cfg.warmup_cycles
            && self.cycle < self.cfg.warmup_cycles + self.cfg.measure_cycles
    }

    /// Manually enqueue a message (used by tests and examples; bypasses the
    /// stochastic injectors). Returns its handle.
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use wormsim_topology::Mesh;
    /// # use wormsim_fault::FaultPattern;
    /// # use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
    /// # use wormsim_traffic::Workload;
    /// # use wormsim_engine::{SimConfig, Simulator};
    /// let mesh = Mesh::square(10);
    /// let ctx = Arc::new(RoutingContext::new(mesh.clone(), FaultPattern::fault_free(&mesh)));
    /// let algo = build_algorithm(AlgorithmKind::NHop, ctx.clone(), VcConfig::paper());
    /// let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(0.0), SimConfig::quick());
    /// let id = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9));
    /// assert!(sim.run_until_drained(10_000));
    /// assert!(sim.is_delivered(id));
    /// ```
    pub fn inject_message(&mut self, src: NodeId, dest: NodeId) -> MsgId {
        assert!(!self.ctx.pattern().is_faulty(src), "source is faulty");
        assert!(!self.ctx.pattern().is_faulty(dest), "destination is faulty");
        assert_ne!(src, dest, "source equals destination");
        let id = self.alloc_msg(src, dest, self.cycle);
        self.sources.push_back(src.index(), Queued::Parked(id.0));
        id
    }

    /// Whether a manually injected message has been fully delivered.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        !self.alive[id.0 as usize]
    }

    /// Pre-size every population-dependent structure so a run creating up
    /// to `messages` messages performs no heap allocation afterwards. The
    /// slab is filled with dead, capacity-reserved messages parked on the
    /// free list (promotion then always recycles), and source queues,
    /// scratch buffers, and wake lists reserve for the same population.
    ///
    /// The slab holds only messages in flight, so it is bounded by the
    /// network, not by the backlog: `min(messages, VC slots + nodes)`,
    /// since a message takes its slot with its node's injection port and
    /// from then on owns that port or a VC. (Messages parked in a queue or
    /// waiting out a chaos backoff keep their slot without either; a run
    /// with many of those can still grow the slab.)
    ///
    /// Per-message path capacity is derived from the *actual* mesh shape:
    /// a traversal pushes one entry per hop and the grow-only buffer
    /// reclaims only when the path empties, so the bound is the longest
    /// walk a routing algorithm takes. A walk that only detours around
    /// fault regions is covered by one full perimeter, `2 × (width +
    /// height)` hops; an algorithm that misroutes (one with a
    /// `recheck_wait`) gets twice that. The routing audit
    /// (`tests/routing_audit.rs`) checks every walk of every algorithm
    /// against this rule: on a faulty 10×10 mesh the longest
    /// Fully-Adaptive walk is 58 hops, the longest other walk 26. (This
    /// used to be a caller constant shaped for the 10×10 paper mesh; a
    /// 64×64 run then spent its first cycles growing every path buffer.)
    ///
    /// Queue reservations assume roughly uniform source selection (4× the
    /// per-node mean plus slack); a pathological workload funneling most
    /// creations through one source could still grow its queue. Intended
    /// for benchmarks that assert an allocation-free measurement window;
    /// simulation behavior is completely unaffected.
    pub fn prewarm(&mut self, messages: usize) {
        let mesh = self.ctx.mesh();
        let perimeter = 2 * (mesh.width() as usize + mesh.height() as usize);
        let max_path = perimeter * if self.recheck_wait.is_some() { 2 } else { 1 };
        let num_nodes = self.sources.num_nodes();
        // Every message that owns a slot also owns a VC slot or its
        // node's injection port.
        let max_active = self.slots.len() + num_nodes;
        let have = self.msgs.len();
        let slab = messages.min(max_active);
        if slab > have {
            self.msgs.reserve(slab - have);
            self.free_list.reserve(slab);
            for _ in have..slab {
                let state = MessageState::new(NodeId(0), NodeId(0));
                let mut m = Msg::new(NodeId(0), NodeId(0), 0, 0, state);
                m.path.reserve(max_path);
                self.msgs.push(m);
            }
            // Descending and under what is already free, so ids pop in
            // the order a growing slab would have handed them out.
            self.free_list
                .splice(0..0, (have as u32..slab as u32).rev());
        }
        let n = self.msgs.len();
        self.alive.resize(n, false);
        self.alloc.resize(n, AllocPhase::Contend);
        self.stalled.resize(n, false);
        self.last_progress.resize(n, 0);
        self.wait.resize(n, 0);
        self.reg_node.resize(n, 0);
        self.reg_bits.resize(n, 0);
        self.sources.reserve(4 * messages / num_nodes.max(1) + 64);
        self.active.reserve(max_active);
        self.order.reserve(max_active);
        self.ordered.reserve(max_active);
        self.stuck_scratch.reserve(max_active);
        self.backoff.reserve(max_active);
        // Sized for each blocked header listed on one routing decision's
        // busy candidates. Entries left behind by an earlier hop or an
        // earlier holder of the id stay until their slot frees, so a run
        // can exceed this once; the arena then keeps its high-water mark
        // and recycles nodes through the free chain.
        let per_route = self.num_vcs as usize * 8;
        self.waiters
            .reserve_nodes(max_active.min(per_route * num_nodes));
        self.eligible_scratch.reserve(per_route);
        self.busy_scratch.reserve(per_route);
        self.freed_scratch.reserve(max_path);
    }

    /// Take a slab slot for a message created at cycle `created`.
    fn alloc_msg(&mut self, src: NodeId, dest: NodeId, created: u64) -> MsgId {
        let state = self.algo.init_message(src, dest);
        let length = self.workload.message_length;
        let idx = if let Some(idx) = self.free_list.pop() {
            // Reset in place: keeps the slot's path capacity, so slab
            // reuse allocates nothing.
            self.msgs[idx as usize].reset(src, dest, length, created, state);
            idx
        } else {
            self.msgs.push(Msg::new(src, dest, length, created, state));
            self.alive.push(false);
            self.alloc.push(AllocPhase::Contend);
            self.stalled.push(false);
            self.last_progress.push(0);
            self.wait.push(0);
            self.reg_node.push(0);
            self.reg_bits.push(0);
            self.msgs.len() as u32 - 1
        };
        let i = idx as usize;
        self.alive[i] = true;
        self.alloc[i] = AllocPhase::Contend;
        self.stalled[i] = false;
        self.wait[i] = 0;
        // Entries the id's previous holder left on wake lists stay there,
        // unrecorded: a re-block on one of those slots pushes a duplicate.
        self.reg_bits[i] = 0;
        // The watchdog clock starts at creation, not at promotion: a
        // message that queued for longer than `deadlock_timeout` is
        // "recovered" on the cycle it is promoted unless it moves a flit
        // that same cycle. A known artefact (EXPERIMENTS.md, "Known
        // modelling artefact"), kept because every recorded fingerprint
        // with a recovery in it depends on it.
        self.last_progress[i] = created;
        MsgId(idx)
    }

    #[inline]
    fn key_channel(&self, key: u32) -> ChannelId {
        ChannelId(key / self.num_vcs as u32)
    }

    #[inline]
    fn key_vc(&self, key: u32) -> u8 {
        (key % self.num_vcs as u32) as u8
    }

    /// The node where a message's header currently resides.
    fn head_node(&self, m: &Msg) -> NodeId {
        match m.path.back() {
            None => m.src,
            Some(e) => e.dest,
        }
    }

    /// Run the configured warm-up + measurement schedule and produce the
    /// report.
    pub fn run(&mut self) -> SimReport {
        for _ in 0..self.cfg.total_cycles() {
            self.step();
        }
        self.report()
    }

    /// Run until all queued/active messages are delivered or `max_cycles`
    /// elapse; returns true when the network fully drained. Traffic
    /// injectors are not polled (rate 0 workloads / manual injection).
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
            let mut arrivals = Vec::new();
            self.window_arrivals(&mut arrivals);
            for (n, &k) in arrivals.iter().enumerate() {
                node_load.record_arrivals(NodeId(n as u16), k);
            }
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

    /// Audit the simulator's internal consistency; panics on violation.
    /// Exercised by the engine's invariant tests after every cycle.
    ///
    /// Checked invariants:
    /// 1. VC-slot ownership and message path entries form a bijection.
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
    /// 7. The occupancy and wake-flag bitmasks mirror `slots` and the
    ///    wake lists bit for bit.
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
        // 1. Ownership bijection.
        let mut owned = std::collections::HashMap::new();
        for (k, owner) in self.slots.iter().enumerate() {
            if let Some(id) = owner {
                owned.insert(k as u32, *id);
            }
        }
        let mut seen = 0usize;
        for &id in &self.active {
            let m = &self.msgs[id as usize];
            if !self.alive[id as usize] {
                continue;
            }
            for e in &m.path {
                assert_eq!(
                    owned.get(&e.key),
                    Some(&id),
                    "path entry not owned by its message"
                );
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
                seen += 1;
            }
            // 2. Flit accounting along the path.
            let mut downstream = m.delivered;
            for e in m.path.iter().rev() {
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
                m.at_source + m.path.front().map_or(m.delivered, |e| e.entered),
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
        assert_eq!(seen, owned.len(), "orphaned VC slot ownership");
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
        for (k, owner) in self.slots.iter().enumerate() {
            if owner.is_some() {
                let ch = self.key_channel(k as u32);
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
            let routable = m.path.is_empty() || m.header_at_head();
            if routable && self.head_node(m) != m.dest {
                assert_ne!(
                    self.alloc[id as usize],
                    AllocPhase::Moving,
                    "routable header stuck in the Moving phase"
                );
            }
        }
        // 7. Bitmask mirrors: occupancy bits track `slots`, wake flags
        // track wake-list non-emptiness, bit for bit.
        for ch in 0..self.occ_mask.len() {
            let mut expect_occ = 0u32;
            let mut expect_wait = 0u32;
            for vc in 0..self.num_vcs as u32 {
                let key = (ch as u32 * self.num_vcs as u32 + vc) as usize;
                if self.slots[key].is_some() {
                    expect_occ |= 1 << vc;
                }
                if !self.waiters.is_empty(key as u32) {
                    expect_wait |= 1 << vc;
                }
            }
            assert_eq!(
                self.occ_mask[ch], expect_occ,
                "occupancy bitmask out of sync with slots on channel {ch}"
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
            if !self.alive[i]
                || self.alloc[i] != AllocPhase::Blocked
                || Some(self.wait[i]) == self.recheck_wait
            {
                continue;
            }
            let m = &self.msgs[i];
            let head = self.head_node(m);
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
        let oldest_first = matches!(
            self.cfg.arbitration,
            crate::config::Arbitration::OldestFirst
        );
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
        // copies the incrementally maintained `(created, id)` mirror
        // instead of re-sorting the whole active set every cycle.
        self.order.clear();
        match self.cfg.arbitration {
            crate::config::Arbitration::Random => {
                self.order.extend_from_slice(&self.active);
                self.order.shuffle(&mut self.rng);
            }
            crate::config::Arbitration::OldestFirst => {
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
    fn window_rate(&self) -> f64 {
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
    fn arrivals_so_far(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.stage_arrivals);
        for m in &self.msgs {
            for e in &m.path {
                out[e.dest.index()] += u64::from(e.entered);
            }
        }
    }

    /// The measurement window's arrivals per node, into `out`.
    fn window_arrivals(&self, out: &mut Vec<u64>) {
        self.arrivals_so_far(out);
        for (a, &base) in out.iter_mut().zip(&self.window_base) {
            *a -= base;
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
        self.window_arrivals(&mut arrivals);
        for (n, &k) in arrivals.iter().enumerate() {
            self.node_load.record_arrivals(NodeId(n as u16), k);
        }
        self.window_scratch = arrivals;
    }

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
    fn try_allocate(&mut self, id: u32) {
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
        if !at_source && !m.header_at_head() {
            return; // header still in transit to the head VC
        }
        let head = self.head_node(m);
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
        self.slots[key as usize] = Some(id);
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
        let m = &mut self.msgs[i];
        m.state = state;
        m.path.push_back(PathEntry {
            key,
            ch: ch.0,
            vc,
            dest: next,
            entered: 0,
        });
    }

    /// Binary-insert `id` into the `(created, id)`-sorted mirror of
    /// `active` (oldest-first arbitration only). Promotion order mostly
    /// tracks creation order, so the insert usually lands at the tail.
    fn ordered_insert(&mut self, id: u32) {
        let key = (self.msgs[id as usize].created, id);
        let pos = self
            .ordered
            .binary_search_by_key(&key, |&x| (self.msgs[x as usize].created, x))
            .unwrap_or_else(|p| p);
        self.ordered.insert(pos, id);
    }

    /// Wake every header asleep on slot `key`: the freed VC re-arbitrates
    /// its registered contenders next cycle. Entries that are no longer
    /// blocked (moved on, died, slab slot recycled) are stale; they are
    /// dropped here, and a spurious wake of a recycled id merely costs one
    /// failed attempt (which draws no RNG).
    fn wake_waiters(&mut self, key: u32) {
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
            if self.alive[wi] && self.alloc[wi] == AllocPhase::Blocked {
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

    /// Advance the message's flit pipeline by up to one flit per boundary
    /// ([`Msg::advance`]), then handle what the pass made true.
    fn move_flits(&mut self, id: u32, measuring: bool) {
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
        let pass = m.advance(
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
            self.alloc[i] = if m.path.back().is_some_and(|e| e.dest == m.dest) {
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
        let tail_drained = m.path.len() > 1 && m.path[1].entered == m.length;
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
            let m = &mut self.msgs[i];
            let drained = (complete && !m.path.is_empty())
                || (m.path.len() > 1 && m.path[1].entered == m.length);
            if !drained {
                break;
            }
            let front = m.path[0];
            m.path.pop_front();
            self.release_stage(id, front);
        }
        if complete {
            self.alive[i] = false;
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
        self.slots[e.key as usize] = None;
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
    fn release_path(&mut self, id: u32) {
        let i = id as usize;
        for j in 0..self.msgs[i].path.len() {
            let e = self.msgs[i].path[j];
            self.release_stage(id, e);
        }
        self.msgs[i].path.clear();
    }

    /// Wake the headers asleep on the slots released since the last call,
    /// in release order.
    fn wake_freed(&mut self) {
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
        let m = &mut self.msgs[id as usize];
        let misroutes = m.state.misroutes as u64;
        let abort = m.abort_tag.take();
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
        self.free_list.push(id);
        if measuring {
            self.throughput.record_delivery(length);
            self.latency.record(latency);
            self.network_latency.record(network_latency);
        }
    }

    /// Drain every activation the installed fault driver has due.
    fn poll_fault_driver(&mut self) {
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
            let crosses = m
                .path
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
                        self.alive[i] = false;
                        self.free_list.push(i as u32);
                    }
                }
                keep
            });
        }

        // Backoff triage: a waiting message whose endpoint died is lost.
        let backoff = std::mem::take(&mut self.backoff);
        for (ready, id) in backoff {
            let (src, dest) = {
                let m = &self.msgs[id as usize];
                (m.src, m.dest)
            };
            if newly[src.index()] || newly[dest.index()] {
                self.alive[id as usize] = false;
                self.msgs[id as usize].abort_tag = None;
                self.free_list.push(id);
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
        if matches!(
            self.cfg.arbitration,
            crate::config::Arbitration::OldestFirst
        ) {
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
        self.alive[id as usize] = false;
        let m = &mut self.msgs[id as usize];
        m.abort_tag = None;
        let src = m.src;
        if self.sources.port(src.index()) == Some(id) {
            self.sources.free_port(src.index());
        }
        self.free_list.push(id);
        self.wake_freed();
    }

    /// Chaos abort: drop the message's flits back to its source, release
    /// every held VC, re-route it against the new pattern, and schedule
    /// re-injection after `backoff_base << min(aborts-1, backoff_cap)`
    /// cycles.
    fn abort_for_fault(&mut self, id: u32, ev: usize) {
        self.release_path(id);
        let (src, dest) = {
            let m = &mut self.msgs[id as usize];
            m.at_source = m.length;
            m.delivered = 0;
            m.first_injected = None;
            self.last_progress[id as usize] = self.cycle;
            m.chaos_aborts += 1;
            m.abort_tag = Some((ev as u32, self.cycle));
            self.alloc[id as usize] = AllocPhase::Contend;
            self.stalled[id as usize] = false;
            (m.src, m.dest)
        };
        self.wake_freed();
        if self.sources.port(src.index()) == Some(id) {
            self.sources.free_port(src.index());
        }
        if S::ENABLED {
            self.sink
                .record(TraceEvent::new(self.cycle, EventKind::Abort, id).at(src.0));
        }
        let state = self.algo.init_message(src, dest);
        self.wait[id as usize] = 0;
        let m = &mut self.msgs[id as usize];
        m.state = state;
        let exp = (m.chaos_aborts - 1).min(self.cfg.recovery_backoff_cap);
        let delay = self.cfg.recovery_backoff_base << exp;
        self.backoff.push((self.cycle + delay, id));
        self.recovery
            .as_mut()
            .expect("stats exist")
            .record_abort(ev);
    }

    /// Watchdog recovery: drop the message's flits, free its VCs, and
    /// re-inject it from its source with fresh routing state.
    fn recover(&mut self, id: u32) {
        // A survivor of an online fault event whose source has since died
        // cannot be re-injected: it is dropped for good.
        let lost = self.ctx.pattern().is_faulty(self.msgs[id as usize].src);
        // Structured stall forensics: snapshot the blocked-message
        // wait-for graph (the wake lists are exactly its edges) and name
        // the deadlock cycle or congestion hotspot. The diagnosis is kept
        // as a value so tests and tools can assert on the identified
        // resource. Building it allocates, so the untraced fast path
        // skips it to preserve the zero-allocation steady state.
        if S::ENABLED {
            if !lost {
                self.last_stall = Some(self.diagnose_stall(Some(MsgId(id))));
            }
            let head = self.head_node(&self.msgs[id as usize]).0;
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
        let src;
        self.release_path(id);
        {
            let m = &mut self.msgs[id as usize];
            m.at_source = m.length;
            m.delivered = 0;
            m.first_injected = None;
            self.last_progress[id as usize] = self.cycle;
            m.recoveries += 1;
            self.alloc[id as usize] = AllocPhase::Contend;
            self.stalled[id as usize] = false;
            src = m.src;
        }
        self.wake_freed();
        let state = self.algo.init_message(src, self.msgs[id as usize].dest);
        self.msgs[id as usize].state = state;
        self.wait[id as usize] = 0;
        // A message that holds its injection port keeps it and restarts
        // next cycle from the source; one whose port is free takes it; one
        // whose port is busy with another message is requeued at the front.
        match self.sources.port(src.index()) {
            Some(holder) if holder == id => {}
            Some(_) => {
                self.sources.push_front(src.index(), Queued::Parked(id));
                // Remove from active; re-promoted later.
                self.alive[id as usize] = true;
                self.active.retain(|&x| x != id);
                self.ordered.retain(|&x| x != id);
            }
            None => {
                self.sources.seize_port(src.index(), id);
                if !self.active.contains(&id) {
                    self.active.push(id);
                    if matches!(
                        self.cfg.arbitration,
                        crate::config::Arbitration::OldestFirst
                    ) {
                        self.ordered_insert(id);
                    }
                }
            }
        }
    }

    /// Snapshot the blocked-message wait-for graph into a structured
    /// [`StallDiagnosis`]: one edge per (sleeping header, occupied
    /// candidate slot) pair, plus the focus message's own situation.
    /// Cheap relative to a recovery (it only scans non-empty wake lists),
    /// and side-effect free — callable from tests at any cycle.
    pub fn diagnose_stall(&self, focus: Option<MsgId>) -> StallDiagnosis {
        let mut edges = Vec::new();
        // The wake-flag masks locate non-empty lists: one `trailing_zeros`
        // loop per channel instead of scanning every (channel, VC) slot.
        for (ch, &mask) in self.waiter_mask.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let vc = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                self.stall_edges_for(ch as u32, vc, &mut edges);
            }
        }
        let blocked = self
            .active
            .iter()
            .filter(|&&id| {
                let i = id as usize;
                self.alive[i] && self.alloc[i] == AllocPhase::Blocked
            })
            .count();
        let focus = focus.map(|id| self.stall_message(id.0));
        StallDiagnosis::build(self.cycle, focus, blocked, edges)
    }

    /// Collect the wait-for edges of one (channel, VC) slot's wake list.
    fn stall_edges_for(&self, channel: u32, vc: u8, edges: &mut Vec<WaitEdge>) {
        let key = channel * self.num_vcs as u32 + vc as u32;
        let Some(holder) = self.slots[key as usize] else {
            // Freed but not yet drained: its sleepers are about to wake.
            return;
        };
        let first = edges.len();
        for waiter in self.waiters.iter(key) {
            let wi = waiter as usize;
            // Stale entries (moved on, died, recycled) are not waiting, and
            // a list is a set: a repeated id adds no second edge.
            if self.alive[wi]
                && self.alloc[wi] == AllocPhase::Blocked
                && !edges[first..].iter().any(|e| e.waiter == waiter)
            {
                edges.push(WaitEdge {
                    waiter,
                    channel,
                    vc,
                    holder,
                });
            }
        }
    }

    /// Snapshot one message's situation for a stall report.
    fn stall_message(&self, id: u32) -> StallMessage {
        let m = &self.msgs[id as usize];
        let mesh = self.ctx.mesh();
        let coord = |n: NodeId| {
            let c = mesh.coord(n);
            (c.x, c.y)
        };
        StallMessage {
            id,
            src: coord(m.src),
            dest: coord(m.dest),
            head: coord(self.head_node(m)),
            at_source: m.path.is_empty(),
            delivered: m.delivered,
            wait_cycles: self.wait[id as usize],
            recoveries: m.recoveries,
            holds: m.path.iter().map(|e| (e.ch, e.vc)).collect(),
        }
    }

    /// Test support: audit the message slab and the flat per-message
    /// arrays beside it. Every slot is either free (dead, holding nothing)
    /// or owned by a message in flight — active, waiting out a backoff, or
    /// parked in a source queue — and the flags of the active ones agree
    /// with their `Msg`. Panics on any divergence.
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
        for &id in &self.free_list {
            let i = id as usize;
            assert!(!self.alive[i], "free slab slot {id} marked alive");
            assert!(
                self.msgs[i].path.is_empty(),
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
                    !m.header_at_head() || !m.is_complete(),
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
        for key in 0..self.slots.len() {
            for wid in self.waiters.iter(key as u32) {
                assert!((wid as usize) < n, "wake list {key} names ghost msg {wid}");
            }
        }
    }

    /// Test support: assert the slab, the queues and every flat buffer are
    /// fully rewound — the state a fresh simulator would have. Meant to be
    /// called right after [`Simulator::reset`] on a warm (previously run)
    /// instance to prove reuse leaks no stale occupancy bits, liveness
    /// flags, queue entries, or wake-list nodes into the next run.
    #[doc(hidden)]
    pub fn assert_rewound(&self) {
        assert!(self.active.is_empty(), "active set survived reset");
        assert_eq!(self.queued(), 0, "queued messages survived reset");
        assert_eq!(
            self.free_list.len(),
            self.msgs.len(),
            "some slab slots not parked on the free list"
        );
        assert!(self.alive.iter().all(|&a| !a), "stale liveness bits");
        assert!(self.stalled.iter().all(|&s| !s), "stale stall bits");
        assert!(
            self.last_progress.iter().all(|&c| c == 0),
            "stale watchdog stamps"
        );
        assert!(self.wait.iter().all(|&w| w == 0), "stale wait counters");
        assert!(
            self.reg_bits.iter().all(|&b| b == 0),
            "stale registration records"
        );
        assert!(
            self.msgs.iter().all(|m| m.path.is_empty()),
            "parked message still holds VCs"
        );
        assert_eq!(
            self.waiters.live_nodes(),
            0,
            "wake-list nodes survived reset"
        );
        assert!(self.slots.iter().all(|s| s.is_none()), "stale slot owners");
        assert!(
            self.occ_mask.iter().all(|&m| m == 0),
            "stale occupancy bits"
        );
        assert!(
            self.waiter_mask.iter().all(|&m| m == 0),
            "stale waiter bits"
        );
        assert!(
            self.stage_arrivals.iter().all(|&a| a == 0),
            "stale stage arrivals"
        );
        assert!(
            self.window_base.iter().all(|&a| a == 0),
            "stale window baseline"
        );
    }
}

/// Each node's message rate: the workload's, or 0 at a faulty node.
fn source_rates(ctx: &RoutingContext, rate: f64) -> impl Iterator<Item = f64> + '_ {
    let pattern = ctx.pattern();
    ctx.mesh()
        .nodes()
        .map(move |n| if pattern.is_faulty(n) { 0.0 } else { rate })
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
fn vc_width_mask(num_vcs: u8) -> u32 {
    if num_vcs >= 32 {
        u32::MAX
    } else {
        (1u32 << num_vcs) - 1
    }
}

/// Expand one candidate hop's VC mask against the channel's occupancy
/// bitmask: free VCs append `(slot key, vc)` to `eligible`, occupied ones
/// append their slot key to `busy`, both in ascending VC order — exactly
/// the order the per-VC probe loop over `slots` used to produce, so the
/// allocator's RNG-visible candidate list is unchanged. `bits` must
/// already be clipped to the engine's VC width and `base` is the
/// channel's first slot key (`ch * num_vcs`).
#[inline]
fn expand_candidates(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arbitration;
    use wormsim_fault::FaultPattern;
    use wormsim_routing::{build_algorithm, AlgorithmKind, VcConfig};
    use wormsim_topology::{Coord, Mesh, Rect};

    fn make_sim(
        kind: AlgorithmKind,
        pattern: FaultPattern,
        rate: f64,
        cfg: SimConfig,
    ) -> Simulator {
        let mesh = Mesh::square(10);
        let ctx = Arc::new(RoutingContext::new(mesh, pattern));
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let mut wl = Workload::paper_uniform(rate);
        wl.message_length = 20;
        Simulator::new(algo, ctx, wl, cfg)
    }

    fn fault_free() -> FaultPattern {
        FaultPattern::fault_free(&Mesh::square(10))
    }

    #[test]
    fn single_message_delivery_and_latency() {
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        let mesh = Mesh::square(10);
        let (src, dest) = (mesh.node(0, 0), mesh.node(5, 0));
        let id = sim.inject_message(src, dest);
        assert!(sim.run_until_drained(1000));
        assert!(sim.is_delivered(id));
        // Uncontended wormhole: latency ≈ distance + length.
        // (Delivery isn't recorded in latency stats during warm-up; check
        // via drain cycles instead.)
        assert!(sim.cycle() >= 5 + 20);
        assert!(sim.cycle() < 5 + 20 + 10, "took {} cycles", sim.cycle());
    }

    #[test]
    fn every_algorithm_delivers_on_fault_free_mesh() {
        let mesh = Mesh::square(10);
        for kind in AlgorithmKind::ALL {
            let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
            let ids = vec![
                sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)),
                sim.inject_message(mesh.node(9, 0), mesh.node(0, 9)),
                sim.inject_message(mesh.node(5, 5), mesh.node(2, 7)),
            ];
            assert!(sim.run_until_drained(2_000), "{kind:?} failed to drain");
            for id in ids {
                assert!(sim.is_delivered(id), "{kind:?} lost a message");
            }
            assert_eq!(sim.recoveries(), 0, "{kind:?} tripped the watchdog");
        }
    }

    #[test]
    fn delivery_around_fault_block() {
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        for kind in AlgorithmKind::ALL {
            let mut sim = make_sim(kind, pattern.clone(), 0.0, SimConfig::quick());
            // Straight-line route blocked by the region.
            let id = sim.inject_message(mesh.node(3, 5), mesh.node(8, 5));
            assert!(sim.run_until_drained(3_000), "{kind:?} failed to drain");
            assert!(sim.is_delivered(id), "{kind:?} lost the message");
        }
    }

    #[test]
    fn wormhole_pipelining_rate() {
        // A lone message's tail should arrive ~1 flit/cycle after the head:
        // total ≈ dist + L, not dist × L.
        let mut sim = make_sim(AlgorithmKind::NHop, fault_free(), 0.0, SimConfig::quick());
        let mesh = Mesh::square(10);
        sim.inject_message(mesh.node(0, 0), mesh.node(9, 9));
        assert!(sim.run_until_drained(200));
        assert!(sim.cycle() < 18 + 20 + 10);
    }

    #[test]
    fn stochastic_run_produces_stats() {
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 2_000,
            ..SimConfig::paper()
        };
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.002, cfg);
        let report = sim.run();
        assert!(report.throughput.messages_delivered() > 50);
        assert!(report.latency.count() > 0);
        assert!(report.mean_latency() >= 20.0);
        assert_eq!(report.recoveries, 0);
        // VC usage should show some busy channels.
        assert!(report.vc_usage.utilization().iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn incremental_vc_accounting_matches_path_scan() {
        // The incrementally maintained held-slot counts must equal a
        // brute-force scan over every active message's path after every
        // cycle — including cycles with tail drains, completions, and
        // watchdog recoveries (short timeout + faults force all three).
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_000,
            deadlock_timeout: 300,
            ..SimConfig::paper()
        };
        let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
        for _ in 0..1_000 {
            sim.step();
            let mut scanned = vec![0u64; sim.num_vcs as usize];
            for &id in &sim.active {
                let m = &sim.msgs[id as usize];
                for e in &m.path {
                    scanned[sim.key_vc(e.key) as usize] += 1;
                }
            }
            assert_eq!(
                scanned,
                sim.vc_usage.held_counts(),
                "cycle {}: incremental held counts diverged from path scan",
                sim.cycle()
            );
        }
        assert!(sim.recoveries() > 0, "recovery release path unexercised");
    }

    #[test]
    fn full_run_reports_are_byte_identical_for_a_seed() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_200,
            ..SimConfig::paper()
        };
        let run = || {
            let mut sim = make_sim(AlgorithmKind::DuatoNbc, pattern.clone(), 0.006, cfg);
            serde_json::to_string(&sim.run()).expect("report serializes")
        };
        assert_eq!(
            run(),
            run(),
            "same-seed runs must produce identical reports"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 800,
            ..SimConfig::paper()
        };
        let run = |seed: u64| {
            let mut sim = make_sim(AlgorithmKind::Nbc, fault_free(), 0.003, cfg.with_seed(seed));
            let r = sim.run();
            (
                r.throughput.messages_delivered(),
                r.latency.count(),
                r.mean_latency(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn faulty_nodes_never_generate_or_receive() {
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 1_000,
            ..SimConfig::paper()
        };
        let mut sim = make_sim(AlgorithmKind::FullyAdaptive, pattern, 0.004, cfg);
        let report = sim.run();
        // The faulty node must see zero flit arrivals.
        assert_eq!(report.node_load.arrivals()[mesh.node(5, 5).index()], 0);
        assert!(report.throughput.messages_delivered() > 0);
    }

    #[test]
    fn link_bandwidth_is_respected() {
        // Two messages sharing a column of links: delivered flits over N
        // cycles can't exceed N per link. Indirect check: drain time for
        // two overlapping 20-flit messages along one path ≥ 40 cycles.
        let mut sim = make_sim(
            AlgorithmKind::MinimalAdaptive,
            fault_free(),
            0.0,
            SimConfig::quick(),
        );
        let mesh = Mesh::square(10);
        sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
        sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
        assert!(sim.run_until_drained(500));
        // Single injection port: second message starts after the first's
        // tail leaves the source (~20 cycles); then pipelines behind it.
        assert!(sim.cycle() >= 2 * 20, "finished too fast: {}", sim.cycle());
    }

    #[test]
    fn report_includes_ring_load_only_with_faults() {
        let mesh = Mesh::square(10);
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        sim.inject_message(mesh.node(0, 0), mesh.node(1, 0));
        assert!(sim.run_until_drained(100));
        assert!(sim.report().ring_load.is_none());

        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let mut sim = make_sim(AlgorithmKind::Duato, pattern, 0.0, SimConfig::quick());
        sim.inject_message(mesh.node(0, 0), mesh.node(1, 0));
        assert!(sim.run_until_drained(100));
        assert!(sim.report().ring_load.is_some());
    }

    #[test]
    fn invariants_hold_every_cycle_under_load() {
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_500,
            ..SimConfig::paper()
        };
        for kind in [
            AlgorithmKind::Duato,
            AlgorithmKind::PHop,
            AlgorithmKind::FullyAdaptive,
        ] {
            let mut sim = make_sim(kind, fault_free(), 0.01, cfg);
            for _ in 0..1_500 {
                sim.step();
                sim.check_invariants();
            }
        }
    }

    #[test]
    fn invariants_hold_with_faults_and_recovery() {
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_500,
            deadlock_timeout: 300, // force some recoveries
            ..SimConfig::paper()
        };
        let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
        for _ in 0..1_500 {
            sim.step();
            sim.check_invariants();
        }
    }

    #[test]
    fn overlay_hops_counted_only_with_faults() {
        let mesh = Mesh::square(10);
        let mut sim = make_sim(AlgorithmKind::NHop, fault_free(), 0.0, SimConfig::quick());
        sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
        assert!(sim.run_until_drained(500));
        assert_eq!(sim.report().ring_hops, 0);

        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        let mut sim = make_sim(AlgorithmKind::NHop, pattern, 0.0, SimConfig::quick());
        sim.inject_message(mesh.node(3, 5), mesh.node(8, 5));
        assert!(sim.run_until_drained(1_000));
        assert!(sim.report().ring_hops > 0, "detour must use overlay VCs");
    }

    #[test]
    fn misroutes_reported_for_fully_adaptive() {
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 4_000,
            ..SimConfig::paper()
        };
        let mut sim = make_sim(AlgorithmKind::FullyAdaptive, fault_free(), 0.01, cfg);
        let r = sim.run();
        // At saturation some messages misroute; the counter must move.
        // (Not asserting a magnitude — just that wiring works and minimal
        // algorithms stay at zero.)
        let _ = r.total_misroutes;
        let mut sim = make_sim(AlgorithmKind::MinimalAdaptive, fault_free(), 0.01, cfg);
        assert_eq!(sim.run().total_misroutes, 0);
    }

    /// Test fault driver: hands out pre-built activations at their cycles.
    struct ScriptedDriver {
        events: VecDeque<(u64, FaultActivation)>,
    }

    impl crate::fault_hook::FaultDriver for ScriptedDriver {
        fn poll(&mut self, cycle: u64) -> Option<FaultActivation> {
            if self.events.front().is_some_and(|(due, _)| *due <= cycle) {
                Some(self.events.pop_front().expect("front exists").1)
            } else {
                None
            }
        }
    }

    fn activation(
        base: &Arc<RoutingContext>,
        kind: AlgorithmKind,
        coords: &[Coord],
    ) -> FaultActivation {
        let pattern = base
            .pattern()
            .extend(base.mesh(), coords.iter().copied())
            .expect("extension acceptable");
        let ctx = Arc::new(base.with_pattern(pattern));
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        FaultActivation {
            ctx,
            algo: algo.into(),
        }
    }

    fn install_events(sim: &mut Simulator, events: Vec<(u64, FaultActivation)>) {
        sim.install_fault_driver(Box::new(ScriptedDriver {
            events: events.into(),
        }));
    }

    #[test]
    fn chaos_abort_releases_vcs_and_redelivers() {
        let mesh = Mesh::square(10);
        let kind = AlgorithmKind::Duato;
        let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
        let base = sim.ctx.clone();
        // Kill (5,5) while the worm (0,5)→(9,5) is stretched across it.
        install_events(
            &mut sim,
            vec![(8, activation(&base, kind, &[Coord::new(5, 5)]))],
        );
        let id = sim.inject_message(mesh.node(0, 5), mesh.node(9, 5));
        for _ in 0..600 {
            sim.step();
            sim.check_invariants();
        }
        assert!(sim.is_delivered(id), "aborted message never redelivered");
        let rec = sim.recovery_stats().expect("driver installed");
        assert_eq!(rec.num_events(), 1);
        assert_eq!(rec.total_aborted(), 1);
        assert_eq!(rec.total_recovered(), 1);
        assert_eq!(rec.total_lost(), 0);
        assert_eq!(rec.events()[0].newly_faulty, 1);
        let mean = rec.mean_recovery_latency().expect("one recovery");
        // Backoff (16) + re-route around the block (≥ 9 hops + 20 flits).
        assert!(mean >= 16.0 + 29.0, "implausibly fast recovery: {mean}");
        // Every VC freed by the abort must be free or legitimately reowned.
        assert_eq!(sim.in_flight(), 0);
        assert!(sim.slots.iter().all(|s| s.is_none()));
    }

    #[test]
    fn chaos_kills_message_when_destination_dies() {
        let mesh = Mesh::square(10);
        let kind = AlgorithmKind::NHop;
        let mut sim = make_sim(kind, fault_free(), 0.0, SimConfig::quick());
        let base = sim.ctx.clone();
        install_events(
            &mut sim,
            vec![(5, activation(&base, kind, &[Coord::new(5, 5)]))],
        );
        let id = sim.inject_message(mesh.node(0, 0), mesh.node(5, 5));
        for _ in 0..200 {
            sim.step();
            sim.check_invariants();
        }
        assert!(sim.is_delivered(id), "lost message still marked alive");
        let rec = sim.recovery_stats().expect("driver installed");
        assert_eq!(rec.total_lost(), 1);
        assert_eq!(rec.total_aborted(), 0);
        assert_eq!(sim.in_flight(), 0);
        assert_eq!(sim.queued(), 0);
    }

    #[test]
    fn chaos_invariants_settling_and_requeues_under_load() {
        let kind = AlgorithmKind::MinimalAdaptive;
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 4_000,
            ..SimConfig::paper()
        };
        let mut sim = make_sim(kind, fault_free(), 0.006, cfg);
        let base = sim.ctx.clone();
        install_events(
            &mut sim,
            vec![(
                1_000,
                activation(&base, kind, &[Coord::new(4, 4), Coord::new(5, 5)]),
            )],
        );
        for _ in 0..4_000 {
            sim.step();
            sim.check_invariants();
        }
        let rec = sim.recovery_stats().expect("driver installed");
        assert_eq!(rec.num_events(), 1);
        let e = &rec.events()[0];
        assert_eq!(e.newly_faulty, 4, "diagonal pair coalesces to 2x2");
        assert!(e.pre_fault_rate > 0.0);
        assert!(
            e.aborted + e.requeued + e.lost > 0,
            "a mid-run fault under load must disturb some traffic"
        );
        let settle = e.settle_cycles.expect("light load must re-settle");
        assert!(
            settle >= cfg.settle_window,
            "settling can only be declared once the window holds post-fault cycles only"
        );
        // Traffic kept flowing after the event.
        assert!(sim.delivered() > 0);
    }

    #[test]
    fn chaos_runs_are_byte_identical_for_a_seed() {
        let kind = AlgorithmKind::DuatoNbc;
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 2_000,
            ..SimConfig::paper()
        };
        let run = || {
            let mut sim = make_sim(kind, fault_free(), 0.005, cfg);
            let base = sim.ctx.clone();
            install_events(
                &mut sim,
                vec![
                    (800, activation(&base, kind, &[Coord::new(5, 5)])),
                    (1_500, {
                        let p1 = base
                            .pattern()
                            .extend(base.mesh(), [Coord::new(5, 5)])
                            .expect("first event acceptable");
                        let ctx1 = Arc::new(base.with_pattern(p1));
                        activation(&ctx1, kind, &[Coord::new(2, 7)])
                    }),
                ],
            );
            serde_json::to_string(&sim.run()).expect("report serializes")
        };
        let a = run();
        assert_eq!(a, run(), "same seed + schedule must be byte-identical");
        assert!(
            a.contains("\"recovery\""),
            "report must carry RecoveryStats"
        );
    }

    #[test]
    fn injection_port_serializes_messages() {
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        let mesh = Mesh::square(10);
        for _ in 0..5 {
            sim.inject_message(mesh.node(2, 2), mesh.node(7, 7));
        }
        assert!(sim.run_until_drained(2_000));
        // 5 messages × 20 flits through one injection port ≥ 100 cycles.
        assert!(sim.cycle() >= 100);
    }

    fn make_traced_sim(
        kind: AlgorithmKind,
        pattern: FaultPattern,
        rate: f64,
        cfg: SimConfig,
    ) -> Simulator<wormsim_obs::VecSink> {
        let mesh = Mesh::square(10);
        let ctx = Arc::new(RoutingContext::new(mesh, pattern));
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let mut wl = Workload::paper_uniform(rate);
        wl.message_length = 20;
        Simulator::with_sink(algo, ctx, wl, cfg, wormsim_obs::VecSink::new())
    }

    #[test]
    fn traced_run_report_is_byte_identical_to_untraced() {
        // The determinism contract behind zero-cost tracing: attaching a
        // sink observes the run without perturbing it. Same fixed-seed
        // faulty scenario as `full_run_reports_are_byte_identical_for_a_seed`.
        let mesh = Mesh::square(10);
        let pattern = FaultPattern::from_faulty_coords(&mesh, [Coord::new(5, 5)]).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_200,
            ..SimConfig::paper()
        };
        let untraced = {
            let mut sim = make_sim(AlgorithmKind::DuatoNbc, pattern.clone(), 0.006, cfg);
            serde_json::to_string(&sim.run()).expect("report serializes")
        };
        let mut sim = make_traced_sim(AlgorithmKind::DuatoNbc, pattern, 0.006, cfg);
        let traced = serde_json::to_string(&sim.run()).expect("report serializes");
        assert_eq!(untraced, traced, "tracing perturbed the simulation");
        assert!(!sim.sink().events().is_empty(), "sink saw no events");
    }

    #[test]
    fn trace_replays_to_the_delivered_message_set() {
        // Deterministic manual-injection run on a faulty mesh: the event
        // stream must tell the complete story — every message Injects
        // exactly once, Delivers exactly once, in that order.
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        let mut sim = make_traced_sim(AlgorithmKind::NHop, pattern, 0.0, SimConfig::quick());
        let n = 6u32;
        for i in 0..n {
            let src = mesh.node(1, (i % 3) as u16);
            let dest = mesh.node(8, 5 + (i % 4) as u16);
            sim.inject_message(src, dest);
        }
        assert!(sim.run_until_drained(5_000));
        assert_eq!(sim.recoveries(), 0, "clean replay needs no recoveries");
        let events = sim.into_sink().into_events();
        let all: std::collections::BTreeSet<u32> = (0..n).collect();
        let injected: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.kind == EventKind::Inject)
            .map(|e| e.msg)
            .collect();
        let delivered: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.kind == EventKind::Deliver)
            .map(|e| e.msg)
            .collect();
        assert_eq!(injected, all, "every message must trace an Inject");
        assert_eq!(delivered, all, "every message must trace a Deliver");
        for id in 0..n {
            let inj = events
                .iter()
                .find(|e| e.kind == EventKind::Inject && e.msg == id)
                .expect("inject exists");
            let del = events
                .iter()
                .find(|e| e.kind == EventKind::Deliver && e.msg == id)
                .expect("deliver exists");
            assert!(inj.cycle <= del.cycle, "m{id} delivered before injecting");
        }
        // Hops are traced too: each delivered message claimed ≥ 1 VC.
        for id in 0..n {
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == EventKind::VcAcquire && e.msg == id),
                "m{id} delivered without a traced VC acquisition"
            );
        }
    }

    #[test]
    fn telemetry_time_series_covers_the_whole_run() {
        let mesh = Mesh::square(10);
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_000,
            ..SimConfig::paper()
        };
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), fault_free()));
        let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
        let sink = wormsim_obs::TeeSink(
            wormsim_obs::VecSink::new(),
            wormsim_obs::TelemetrySink::new(50, 0),
        );
        let mut sim = Simulator::with_sink(algo, ctx, Workload::paper_uniform(0.0), cfg, sink);
        let n = 4u64;
        for i in 0..n {
            sim.inject_message(mesh.node(0, i as u16), mesh.node(9, 9 - i as u16));
        }
        assert!(sim.run_until_drained(2_000));
        let cycles = sim.cycle();
        let wormsim_obs::TeeSink(events, telemetry) = sim.into_sink();
        let count = |k| events.events().iter().filter(|e| e.kind == k).count();
        assert_eq!(
            count(EventKind::VcRelease),
            count(EventKind::VcAcquire),
            "a drained network has given back every VC it acquired"
        );
        let t = telemetry.finish(cycles);
        assert_eq!(t.window, 50);
        assert_eq!(
            t.windows.iter().map(|w| w.cycles).sum::<u64>(),
            cycles,
            "windows must tile the simulated cycles exactly"
        );
        assert_eq!(t.total_injected(), n);
        assert_eq!(t.total_delivered(), n);
        assert!(
            t.windows.iter().any(|w| w.mean_vc_held > 0.0),
            "in-flight worms must show up as held VCs"
        );
    }

    #[test]
    fn forged_wait_cycle_is_diagnosed() {
        // Hand-build a three-message deadlock ring in the wait-for
        // structures and check the forensics name it: a waits on a slot
        // held by b, b on one held by c, c on one held by a.
        let mesh = Mesh::square(10);
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        let ids: Vec<u32> = (0..3)
            .map(|i| sim.inject_message(mesh.node(i, 0), mesh.node(9, 9)).0)
            .collect();
        let keys = [0u32, 1, 2];
        for i in 0..3 {
            let holder = ids[(i + 1) % 3];
            sim.alloc[ids[i] as usize] = AllocPhase::Blocked;
            sim.slots[keys[i] as usize] = Some(holder);
            sim.occ_mask[(keys[i] / sim.num_vcs as u32) as usize] |=
                1 << (keys[i] % sim.num_vcs as u32);
            sim.waiters.push(keys[i], ids[i]);
            sim.waiter_mask[(keys[i] / sim.num_vcs as u32) as usize] |=
                1 << (keys[i] % sim.num_vcs as u32);
        }
        let diag = sim.diagnose_stall(Some(MsgId(ids[0])));
        assert_eq!(diag.edges.len(), 3);
        let cycle = diag.wait_cycle.as_ref().expect("forged ring found");
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ids, "cycle must name exactly the forged ring");
        let name = diag.names_resource().expect("resource named");
        assert!(name.starts_with("deadlock cycle:"), "{name}");
        let focus = diag.focus.as_ref().expect("focus snapshotted");
        assert_eq!(focus.id, ids[0]);
        assert!(focus.at_source);
        // Clean up the forgery so Drop-time invariants (if any) stay happy.
        for &key in &keys {
            sim.slots[key as usize] = None;
            sim.occ_mask[(key / sim.num_vcs as u32) as usize] &= !(1 << (key % sim.num_vcs as u32));
            sim.waiters.release(key);
            sim.waiter_mask[(key / sim.num_vcs as u32) as usize] &=
                !(1 << (key % sim.num_vcs as u32));
        }
    }

    /// Occupy every VC of every channel leaving `node` with a forged
    /// owner, so any header there blocks on all of them.
    fn occupy_all_outputs(sim: &mut Simulator, node: NodeId, owner: u32) {
        let vcs = sim.num_vcs as u32;
        for dir in wormsim_topology::ALL_DIRECTIONS {
            let ch = sim.ctx.mesh().channel(node, dir).0;
            if !sim.ctx.mesh().channel_exists(ChannelId(ch)) {
                continue;
            }
            sim.occ_mask[ch as usize] = vc_width_mask(sim.num_vcs);
            for vc in 0..vcs {
                sim.slots[(ch * vcs + vc) as usize] = Some(owner);
            }
        }
    }

    #[test]
    fn reblocking_at_the_same_hop_pushes_nothing() {
        // A header that was woken and lost again re-blocks on the slots it
        // is still listed on: its registration record must skip every
        // push, so the wake lists do not grow.
        let mesh = Mesh::square(10);
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        let src = mesh.node(4, 4);
        let id = sim.inject_message(src, mesh.node(9, 9)).0;
        let owner = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)).0;
        occupy_all_outputs(&mut sim, src, owner);
        sim.try_allocate(id);
        assert_eq!(sim.alloc[id as usize], AllocPhase::Blocked);
        let listed = sim.waiters.live_nodes();
        assert!(listed > 0, "the header registered nowhere");
        for round in 1..=3 {
            sim.alloc[id as usize] = AllocPhase::Contend;
            sim.try_allocate(id);
            assert_eq!(sim.alloc[id as usize], AllocPhase::Blocked);
            assert_eq!(
                sim.waiters.live_nodes(),
                listed,
                "re-block {round} grew the wake lists"
            );
        }
        assert_eq!(
            sim.wait[id as usize], 4,
            "one wait cycle per failed attempt"
        );
    }

    #[test]
    fn duplicate_wake_entry_yields_one_edge() {
        // An id listed twice on one slot (left behind by a node revisit or
        // an id recycle) is one wait-for edge, not two.
        let mesh = Mesh::square(10);
        let mut sim = make_sim(AlgorithmKind::Duato, fault_free(), 0.0, SimConfig::quick());
        let waiter = sim.inject_message(mesh.node(0, 0), mesh.node(9, 9)).0;
        let holder = sim.inject_message(mesh.node(1, 0), mesh.node(9, 9)).0;
        let key = 5u32;
        let (ch, vc) = (key / sim.num_vcs as u32, key % sim.num_vcs as u32);
        sim.alloc[waiter as usize] = AllocPhase::Blocked;
        sim.slots[key as usize] = Some(holder);
        sim.occ_mask[ch as usize] |= 1 << vc;
        sim.waiters.push(key, waiter);
        sim.waiters.push(key, waiter);
        sim.waiter_mask[ch as usize] |= 1 << vc;
        let diag = sim.diagnose_stall(None);
        assert_eq!(diag.edges.len(), 1, "{:?}", diag.edges);
        assert_eq!(
            (diag.edges[0].waiter, diag.edges[0].holder),
            (waiter, holder)
        );
    }

    #[test]
    fn organic_stall_produces_a_diagnosis() {
        // Same scenario that forces real watchdog recoveries in
        // `incremental_vc_accounting_matches_path_scan`: the diagnosis must
        // be captured as a value, not just printed. A traced sim is used
        // because the NullSink fast path skips diagnosis capture to stay
        // allocation-free (`diagnose_stall` still works on demand there).
        let mesh = Mesh::square(10);
        let pattern =
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 6))])
                .unwrap();
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 1_000,
            deadlock_timeout: 300,
            ..SimConfig::paper()
        };
        let mut sim = make_traced_sim(AlgorithmKind::MinimalAdaptive, pattern, 0.01, cfg);
        for _ in 0..1_000 {
            sim.step();
        }
        assert!(sim.recoveries() > 0, "scenario must trip the watchdog");
        let diag = sim.last_stall().expect("diagnosis captured");
        assert!(diag.focus.is_some(), "watchdog always has a focus message");
        // The Display dump renders and carries the verdict line.
        let text = format!("{diag}");
        assert!(text.contains("[stall]"), "{text}");
        assert!(text.contains("verdict:"), "{text}");
    }

    /// Reference candidate gather: the per-VC probe loop over `slots` that
    /// [`expand_candidates`] replaced, kept as the oracle.
    fn expand_by_array_scan(
        mask: wormsim_routing::VcMask,
        num_vcs: u8,
        slots: &[Option<u32>],
        base: u32,
        eligible: &mut Vec<(u32, u8)>,
        busy: &mut Vec<u32>,
    ) {
        for vc in mask.iter() {
            if vc >= num_vcs {
                break;
            }
            let key = base + vc as u32;
            if slots[key as usize].is_none() {
                eligible.push((key, vc));
            } else {
                busy.push(key);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bitmask_expansion_matches_array_scan(
            mask_bits in proptest::prelude::any::<u32>(),
            occ_bits in proptest::prelude::any::<u32>(),
            num_vcs in 1u8..=32,
            ch in 0u32..16,
        ) {
            let allowed = vc_width_mask(num_vcs);
            let occ = occ_bits & allowed;
            // Materialize the occupancy mask as a slots array for the
            // oracle (owner id is irrelevant to the scan).
            let mut slots = vec![None; 16 * num_vcs as usize];
            let base = ch * num_vcs as u32;
            for vc in 0..num_vcs as u32 {
                if occ & (1 << vc) != 0 {
                    slots[(base + vc) as usize] = Some(0u32);
                }
            }
            let mask = wormsim_routing::VcMask(mask_bits);
            let (mut e1, mut b1) = (Vec::new(), Vec::new());
            expand_candidates(mask.0 & allowed, occ, base, &mut e1, &mut b1);
            let (mut e2, mut b2) = (Vec::new(), Vec::new());
            expand_by_array_scan(mask, num_vcs, &slots, base, &mut e2, &mut b2);
            proptest::prop_assert_eq!(e1, e2);
            proptest::prop_assert_eq!(b1, b2);
        }
    }

    #[test]
    fn reset_reuses_slab_and_matches_fresh_run() {
        // A simulator reset between runs — algorithm, pattern, rate, and
        // seed all changing — must produce reports byte-identical to fresh
        // construction, including under oldest-first arbitration where
        // recycled message ids act as tie-breakers.
        let mesh = Mesh::square(10);
        let cases = [
            (AlgorithmKind::Duato, 0.004, 11, Arbitration::Random),
            (AlgorithmKind::Nbc, 0.008, 22, Arbitration::OldestFirst),
            (AlgorithmKind::FullyAdaptive, 0.002, 33, Arbitration::Random),
        ];
        let patterns = [
            FaultPattern::fault_free(&mesh),
            FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 4), Coord::new(5, 5))])
                .unwrap(),
            FaultPattern::fault_free(&mesh),
        ];
        let mut reused = make_sim(AlgorithmKind::Xy, fault_free(), 0.001, SimConfig::quick());
        let _ = reused.run();
        for ((kind, rate, seed, arb), pattern) in cases.into_iter().zip(patterns) {
            let cfg = SimConfig {
                warmup_cycles: 100,
                measure_cycles: 400,
                ..SimConfig::quick().with_seed(seed).with_arbitration(arb)
            };
            let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let wl = Workload::paper_uniform(rate);
            reused.reset(algo, ctx.clone(), wl.clone(), cfg);
            let warm = reused.run();
            reused.check_invariants();
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let fresh = Simulator::new(algo, ctx, wl, cfg).run();
            assert_eq!(
                serde_json::to_string(&warm).unwrap(),
                serde_json::to_string(&fresh).unwrap(),
                "reset-reused run diverged for {kind:?}"
            );
        }
    }
}
