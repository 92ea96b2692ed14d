//! The simulator's state, its constructor ([`Simulator::try_build`]) and
//! the message slab. Each phase of the cycle lives in a child module.
//! A simulator runs once: every run builds its own and drops it after.

mod allocate;
mod audit;
mod diagnose;
mod movement;
mod recovery;
mod step;
#[cfg(test)]
mod tests;

use crate::config::{Arbitration, ConfigError, SimConfig};
use crate::fault_hook::{FaultActivation, FaultDriver};
use crate::message::{AllocPhase, Msg, MsgId, PathBuf, PathEntry, Queued};
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
use wormsim_routing::{RoutingAlgorithm, RoutingContext};
use wormsim_topology::{ChannelId, Direction, Mesh, NodeId};
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

    /// Per-channel VC occupancy bitmask: bit `vc` of `occ_mask[ch]` is set
    /// iff the VC slot `ch * num_vcs + vc` (its *key*) sits on some
    /// message's path. The allocator's candidate gather works on these
    /// masks with `trailing_zeros` loops (`num_vcs ≤ 32`, enforced at
    /// construction). Which message holds a slot is kept nowhere but in
    /// the paths: the diagnostics and audits that need it build the
    /// lookup while they run ([`Simulator::holders`]).
    occ_mask: Vec<u32>,
    /// Per-channel wake-flag bitmask: bit `vc` of `waiter_mask[ch]` is set
    /// iff `waiters[ch * num_vcs + vc]` is non-empty, so release paths
    /// skip empty wake lists without loading them.
    waiter_mask: Vec<u32>,
    /// The message slab: one slot per message in flight, recycled through
    /// `free_list`. A slot is built the first time the slab grows to it.
    msgs: Vec<Msg>,
    /// Every slot's held VCs in one arena: slot `i` owns the window
    /// `paths[i * stride..(i + 1) * stride]`, and its `Msg::path` cursors
    /// say which span of it is live. `paths.len() == msgs.len() * stride`.
    paths: Vec<PathEntry>,
    /// Entries per window: [`path_window`] of the mesh and algorithm,
    /// doubled by [`Simulator::relayout`] when a path outgrows it (a
    /// detour around a fault region can).
    stride: usize,
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
    /// traffic generation queues [`Queued::Fresh`] entries, packed into 8
    /// bytes in one pool of blocks, and the slot is taken at promotion.
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
    /// the list drains. Arena-backed flat storage (see [`WaiterTable`]):
    /// one shared node pool, and one `u32` per slot naming the tail of
    /// its ring.
    waiters: WaiterTable,
    /// `active` mirrored in `(created, id)` order. Maintained incrementally
    /// (binary insert on promotion, mirrored removals) and only under
    /// [`Arbitration::OldestFirst`].
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
        Simulator::try_build(algo, ctx, workload, cfg, NullSink)
    }
}

impl<S: Sink> Simulator<S> {
    /// Build a simulator emitting [`TraceEvent`]s to `sink`. Behavior is
    /// byte-identical to [`Simulator::new`] — sinks observe, they never
    /// perturb (no RNG draws happen on the emit paths).
    ///
    /// Pinned to the default `PROFILE = false` so the sink type keeps
    /// inferring at call sites; use [`Simulator::try_build`] with
    /// explicit generics for a phase-profiled instantiation, or to get
    /// an unhonorable configuration back as a [`ConfigError`].
    pub fn with_sink(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
        sink: S,
    ) -> Self {
        Simulator::try_build(algo, ctx, workload, cfg, sink)
            .unwrap_or_else(|e| panic!("invalid simulator configuration: {e}"))
    }
}

impl<S: Sink, const PROFILE: bool> Simulator<S, PROFILE> {
    /// Construct with every generic explicit — the constructor behind
    /// [`Simulator::new`] / [`Simulator::with_sink`], exposed so
    /// phase-profiled instantiations can be built:
    /// `Simulator::<NullSink, true>::try_build(..)`. (Const-parameter
    /// defaults do not participate in expression inference, so the
    /// inferring constructors are pinned to `PROFILE = false` instead.)
    /// Reports an unhonorable configuration (too many VCs for the
    /// occupancy bitmasks) as a [`ConfigError`]. Every buffer is built
    /// at its run-start size; the message slab starts empty.
    pub fn try_build(
        algo: impl Into<Arc<dyn RoutingAlgorithm>>,
        ctx: Arc<RoutingContext>,
        workload: Workload,
        cfg: SimConfig,
        sink: S,
    ) -> Result<Self, ConfigError> {
        let algo = algo.into();
        let num_vcs = algo.num_vcs();
        if num_vcs as usize > 32 {
            return Err(ConfigError::TooManyVcs {
                requested: num_vcs,
                limit: 32,
            });
        }
        let mesh = ctx.mesh();
        let num_nodes = mesh.num_nodes();
        let num_channels = mesh.num_channel_slots();
        let num_slots = num_channels * num_vcs as usize;
        let healthy = ctx.pattern().healthy_nodes(mesh).collect();
        let sampler = DestinationSampler::new(workload.pattern, mesh, healthy);
        let recheck_wait = algo.recheck_wait();
        Ok(Simulator {
            num_vcs,
            occ_mask: vec![0; num_channels],
            waiter_mask: vec![0; num_channels],
            msgs: Vec::new(),
            paths: Vec::new(),
            stride: path_window(mesh, recheck_wait.is_some()),
            alive: Vec::new(),
            alloc: Vec::new(),
            stalled: Vec::new(),
            last_progress: Vec::new(),
            wait: Vec::new(),
            reg_node: Vec::new(),
            reg_bits: Vec::new(),
            free_list: Vec::new(),
            active: Vec::new(),
            sources: SourceQueues::new(num_nodes),
            calendar: Calendar::new(source_rates(&ctx, workload.rate)),
            rng: SmallRng::seed_from_u64(cfg.seed),
            cycle: 0,
            link_used: vec![0; num_channels],
            eject_used: vec![0; num_nodes],
            order: Vec::new(),
            stuck_scratch: Vec::new(),
            eligible_scratch: Vec::new(),
            busy_scratch: Vec::new(),
            freed_scratch: Vec::new(),
            waiters: WaiterTable::new(num_slots),
            ordered: Vec::new(),
            recheck_wait,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            throughput: ThroughputStats::new(sampler.healthy().len()),
            vc_usage: VcUsageStats::new(num_vcs, mesh.channels().count()),
            node_load: NodeLoadStats::new(num_nodes),
            stage_arrivals: vec![0; num_nodes],
            window_base: vec![0; num_nodes],
            // Closing the window fills it inside the measured span.
            window_scratch: Vec::with_capacity(num_nodes),
            sampler,
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
            algo,
            ctx,
            workload,
            cfg,
        })
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
    /// (`Simulator::<NullSink, true>::try_build(..)`).
    pub fn phase_times(&self) -> &PhaseTimes {
        &self.phase_times
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
    /// slab, its path arena, its free list and the seven per-message
    /// arrays beside it reserve room and build nothing: a slot is built,
    /// and its arena window first touched, when the slab grows to it, in
    /// the id order a growing slab hands out. Source queues, scratch
    /// buffers, and wake lists reserve for the same population.
    ///
    /// The slab holds only messages in flight, so it is bounded by the
    /// network, not by the backlog: `min(messages, VC slots + nodes)`,
    /// since a message takes its slot with its node's injection port and
    /// from then on owns that port or a VC. (Messages parked in a queue or
    /// waiting out a chaos backoff keep their slot without either; a run
    /// with many of those can still grow the slab.)
    ///
    /// Each slot's window holds `path_window` entries, derived from the
    /// *actual* mesh shape when the simulator is built: a traversal
    /// pushes one entry per hop and the window's cursors rewind only when
    /// the path empties, so a window must hold the longest walk in
    /// flight. It starts at the longest minimal walk; a detour that
    /// outgrows it still completes, after one reallocation of the arena
    /// that doubles every window (the reservation is then spent, and the
    /// widening allocates).
    ///
    /// The source queues' pool reserves once for `messages` entries however
    /// they spread over the nodes: blocks for all of them plus two
    /// part-filled blocks per node. Intended for benchmarks that assert an
    /// allocation-free measurement window; simulation behavior is
    /// completely unaffected.
    pub fn prewarm(&mut self, messages: usize) {
        let num_nodes = self.sources.num_nodes();
        // Every message that owns a slot also owns a VC slot or its
        // node's injection port.
        let max_active = self.num_slots() + num_nodes;
        self.reserve_slab(messages.min(max_active));
        self.sources.reserve(messages);
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
        self.freed_scratch.reserve(self.stride);
    }

    /// Reserve room for `n` slab slots: the slab, its path arena, its free
    /// list and the seven arrays beside it. Builds no slot.
    fn reserve_slab(&mut self, n: usize) {
        reserve_total(&mut self.msgs, n);
        reserve_total(&mut self.paths, n * self.stride);
        reserve_total(&mut self.free_list, n);
        reserve_total(&mut self.alive, n);
        reserve_total(&mut self.alloc, n);
        reserve_total(&mut self.stalled, n);
        reserve_total(&mut self.last_progress, n);
        reserve_total(&mut self.wait, n);
        reserve_total(&mut self.reg_node, n);
        reserve_total(&mut self.reg_bits, n);
    }

    /// Size the seven per-message arrays beside the slab to `n` slots.
    /// A slot added here takes its free value: dead, contending, not
    /// stalled, no progress stamp, no wait, registered nowhere.
    fn size_slab(&mut self, n: usize) {
        self.alive.resize(n, false);
        self.alloc.resize(n, AllocPhase::Contend);
        self.stalled.resize(n, false);
        self.last_progress.resize(n, 0);
        self.wait.resize(n, 0);
        self.reg_node.resize(n, 0);
        self.reg_bits.resize(n, 0);
    }

    /// Take a slab slot for a message created at cycle `created`.
    fn alloc_msg(&mut self, src: NodeId, dest: NodeId, created: u64) -> MsgId {
        let state = self.algo.init_message(src, dest);
        let length = self.workload.message_length;
        let msg = Msg::new(src, dest, length, created, state);
        let idx = if let Some(idx) = self.free_list.pop() {
            // A recycled slot keeps its window, so slab reuse allocates
            // nothing.
            debug_assert!(self.msgs[idx as usize].path.is_empty());
            self.msgs[idx as usize] = msg;
            idx
        } else {
            self.msgs.push(msg);
            self.paths
                .resize(self.msgs.len() * self.stride, PathEntry::UNUSED);
            self.size_slab(self.msgs.len());
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

    /// Give a slab slot back: the message is gone for good. The free-list
    /// push order decides which ids later messages get.
    fn free_slot(&mut self, id: u32) {
        self.alive[id as usize] = false;
        self.msgs[id as usize].abort_tag = None;
        self.free_list.push(id);
    }

    /// VC slots in all: `num_vcs` per channel slot.
    fn num_slots(&self) -> usize {
        self.occ_mask.len() * self.num_vcs as usize
    }

    #[inline]
    fn key_channel(&self, key: u32) -> ChannelId {
        ChannelId(key / self.num_vcs as u32)
    }

    #[inline]
    fn key_vc(&self, key: u32) -> u8 {
        (key % self.num_vcs as u32) as u8
    }

    /// Message `i`'s held VCs, oldest (source side) first.
    #[inline]
    fn path(&self, i: usize) -> &[PathEntry] {
        let PathBuf { front, back } = self.msgs[i].path;
        let base = i * self.stride;
        &self.paths[base + front as usize..base + back as usize]
    }

    /// Hold one more VC at message `i`'s head side.
    fn push_path(&mut self, i: usize, e: PathEntry) {
        if self.msgs[i].path.back as usize == self.stride {
            self.relayout(2 * self.stride);
        }
        let p = &mut self.msgs[i].path;
        self.paths[i * self.stride + p.back as usize] = e;
        p.back += 1;
    }

    /// Drop message `i`'s oldest held VC. O(1): the cursors rewind when
    /// the path empties.
    fn pop_path_front(&mut self, i: usize) {
        let p = &mut self.msgs[i].path;
        debug_assert!(!p.is_empty());
        p.front += 1;
        if p.is_empty() {
            *p = PathBuf::default();
        }
    }

    /// Widen every arena window to `stride` entries, each live path moved
    /// to the start of its new window. Allocates, like a `Vec` growing
    /// past its capacity; the arena keeps room for as many slots as it
    /// had.
    #[cold]
    #[inline(never)]
    fn relayout(&mut self, stride: usize) {
        let slots = self.paths.capacity() / self.stride;
        let mut paths = Vec::with_capacity(slots * stride);
        for i in 0..self.msgs.len() {
            paths.extend_from_slice(self.path(i));
            paths.resize((i + 1) * stride, PathEntry::UNUSED);
            let len = self.msgs[i].path.len() as u32;
            self.msgs[i].path = PathBuf {
                front: 0,
                back: len,
            };
        }
        self.paths = paths;
        self.stride = stride;
    }

    /// The node where message `i`'s header currently resides.
    fn head_node(&self, i: usize) -> NodeId {
        self.path(i).last().map_or(self.msgs[i].src, |e| e.dest)
    }

    /// Whether message `i`'s header flit is sitting in the buffer of its
    /// last held VC (routable) — true once it has entered and before it
    /// moves on.
    fn header_at_head(&self, i: usize) -> bool {
        self.path(i).last().is_some_and(|e| e.entered >= 1)
    }

    /// Whether `id` is a live header asleep on wake lists.
    #[inline]
    fn is_blocked(&self, id: u32) -> bool {
        self.alive[id as usize] && self.alloc[id as usize] == AllocPhase::Blocked
    }

    /// Whether service order is oldest-first, which keeps the `ordered`
    /// mirror of `active`.
    fn oldest_first(&self) -> bool {
        self.cfg.arbitration == Arbitration::OldestFirst
    }
}

/// The path window each message starts with on `mesh`: the longest
/// minimal walk, rounded up to `width + height` hops, and twice that for
/// an algorithm that misroutes (one with a `recheck_wait`). Every
/// fault-free walk fits. A detour around a fault region can outgrow it,
/// and [`Simulator::relayout`] then doubles every window; the routing
/// audit (`tests/routing_audit.rs`) checks that one doubling holds every
/// walk of every algorithm: on a faulty 10×10 mesh the longest
/// Fully-Adaptive walk is 58 hops (window 40, then 80), the longest other
/// walk 26 (window 20, then 40).
fn path_window(mesh: &Mesh, misroutes: bool) -> usize {
    let longest_minimal = mesh.width() as usize + mesh.height() as usize;
    longest_minimal * if misroutes { 2 } else { 1 }
}

/// Make room for `n` elements in `v` in all, without adding any.
fn reserve_total<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

/// Each node's message rate: the workload's, or 0 at a faulty node.
fn source_rates(ctx: &RoutingContext, rate: f64) -> impl Iterator<Item = f64> + '_ {
    let pattern = ctx.pattern();
    ctx.mesh()
        .nodes()
        .map(move |n| if pattern.is_faulty(n) { 0.0 } else { rate })
}
