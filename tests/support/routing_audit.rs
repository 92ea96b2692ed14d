//! The routing audit: every decision a routing algorithm can make on one
//! fault pattern, and the channel-dependency graph those decisions build.
//!
//! For every healthy (source, destination) pair the walk starts from
//! `init_message` and, at each (node, state), calls `route` on a copy of
//! the state with `wait_cycles = 0` (and again at `recheck_wait()`, where
//! the algorithm has one). It then branches on every candidate
//! (direction, VC) through `on_hop`, keeping the state `route` mutated, as
//! the engine's allocator does. Walks are deduplicated on (node, state).
//! The state key leaves out fields the algorithm's routing never reads:
//! `src` and `hops` always, and `normal_hops` and `last_dir` for the
//! algorithms that ignore them. A probe checks the omissions at every
//! eighth decision, by re-running it with the omitted fields changed; a
//! field that changes anything is put back in the key and the walk
//! restarts.
//!
//! The graph's nodes are (channel, VC) pairs. An edge runs from the VC a
//! walk arrived on to every VC offered at its next decision, in both tiers,
//! because a blocked header waits on the busy VCs of both.
//!
//! A verdict is *proved* when the graph is acyclic (a), or when Duato's
//! condition holds for R1, the fallback-tier VCs plus the overlay VCs (b):
//! every decision offers an R1 VC, walks restricted to R1 reach their
//! destination, and R1's extended graph is acyclic. The extended graph
//! has the direct R1 → R1 edges and, per walk, an indirect edge from the
//! last R1 VC the walk held, across non-R1 hops, to the next R1 VC it is
//! offered.
//!
//! Test support: compiled into several test targets through `#[path]`, so
//! not every target uses every item.
#![allow(dead_code)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use wormsim_routing::{
    build_algorithm, AlgorithmKind, MessageState, RoutingAlgorithm, RoutingContext, VcConfig,
    VcMask,
};
use wormsim_topology::{ChannelId, Direction, Mesh, NodeId, ALL_DIRECTIONS};

/// Key fields the probe may leave out.
const SRC: u8 = 1;
const HOPS: u8 = 2;
const NORMAL_HOPS: u8 = 4;
const LAST_DIR: u8 = 8;
const OPTIONAL_FIELDS: [u8; 4] = [SRC, HOPS, NORMAL_HOPS, LAST_DIR];

/// The probe runs at every this-many-th new state of a destination.
const PROBE_EVERY: u32 = 8;

/// The state as a walk key: the fields in `omit` set to a fixed value.
fn key_state(mut st: MessageState, omit: u8) -> MessageState {
    if omit & SRC != 0 {
        st.src = st.dest;
    }
    if omit & HOPS != 0 {
        st.hops = 0;
    }
    if omit & NORMAL_HOPS != 0 {
        st.normal_hops = 0;
    }
    if omit & LAST_DIR != 0 {
        st.last_dir = None;
    }
    st
}

/// The state with every field in `fields` changed.
fn perturbed(mut st: MessageState, fields: u8) -> MessageState {
    if fields & SRC != 0 {
        st.src = if st.src == st.dest {
            NodeId(st.dest.0 ^ 1)
        } else {
            st.dest
        };
    }
    if fields & HOPS != 0 {
        st.hops += 1;
    }
    if fields & NORMAL_HOPS != 0 {
        st.normal_hops += 1;
    }
    if fields & LAST_DIR != 0 {
        st.last_dir = Some(match st.last_dir {
            None | Some(Direction::West) => Direction::North,
            Some(Direction::North) => Direction::East,
            Some(Direction::East) => Direction::South,
            Some(Direction::South) => Direction::West,
        });
    }
    st
}

/// FxHash: the walk keys are small and trusted.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<Fx>>;

/// The channel-dependency graph over (channel, VC), whose nodes are
/// numbered `channel * num_vcs + vc`. Every edge leaves a channel into
/// node `n` for a channel out of `n`, so a node's successors are one VC
/// mask per output direction.
pub struct Cdg {
    num_vcs: u8,
    succ: Vec<[u32; 4]>,
}

impl Cdg {
    fn new(mesh: &Mesh, num_vcs: u8) -> Self {
        Cdg {
            num_vcs,
            succ: vec![[0; 4]; mesh.num_channel_slots() * num_vcs as usize],
        }
    }

    /// Whether the graph has an edge from (channel, VC) `from` to `to`.
    pub fn has_edge(&self, mesh: &Mesh, from: (u32, u8), to: (u32, u8)) -> bool {
        let (ch, vc) = (ChannelId(to.0), to.1);
        let a = (from.0 * self.num_vcs as u32 + from.1 as u32) as usize;
        mesh.channel_dest(ChannelId(from.0)) == Some(mesh.channel_src(ch))
            && self.succ[a][mesh.channel_dir(ch) as usize] & (1 << vc) != 0
    }

    fn successors(&self, mesh: &Mesh, a: usize, out: &mut Vec<usize>) {
        let nv = self.num_vcs as u32;
        let ch = ChannelId(a as u32 / nv);
        let Some(via) = mesh.channel_dest(ch) else {
            return;
        };
        for dir in ALL_DIRECTIONS {
            let mut bits = self.succ[a][dir as usize];
            while bits != 0 {
                let vc = bits.trailing_zeros();
                bits &= bits - 1;
                out.push((mesh.channel(via, dir).0 * nv + vc) as usize);
            }
        }
    }
}

/// A bitset over VC nodes.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn or(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + i)
            })
        })
    }
}

/// How an algorithm × pattern was proved, or the cycle that stops it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// (a): the channel-dependency graph is acyclic.
    Acyclic,
    /// (b): Duato's condition holds for R1.
    Duato,
    /// Neither: one cycle of the graph, or of R1's extended graph when
    /// R1 meets the first two parts of (b).
    Cycle { r1: bool, cycle: Vec<(u32, u8)> },
}

impl Verdict {
    pub fn proved(&self) -> bool {
        !matches!(self, Verdict::Cycle { .. })
    }

    pub fn describe(&self, mesh: &Mesh) -> String {
        match self {
            Verdict::Acyclic => "proved (a): acyclic".into(),
            Verdict::Duato => "proved (b): Duato, R1 acyclic".into(),
            Verdict::Cycle { r1, cycle } => {
                let mut s = String::from(if *r1 { "R1 cycle:" } else { "cycle:" });
                for &(ch, vc) in cycle {
                    let ch = ChannelId(ch);
                    let c = mesh.coord(mesh.channel_src(ch));
                    let d = match mesh.channel_dir(ch) {
                        Direction::East => 'E',
                        Direction::West => 'W',
                        Direction::North => 'N',
                        Direction::South => 'S',
                    };
                    let _ = write!(s, " ({},{}){d}#{vc}", c.x, c.y);
                }
                s
            }
        }
    }
}

/// One algorithm × pattern, walked.
pub struct Audit {
    pub kind: AlgorithmKind,
    pub ctx: Arc<RoutingContext>,
    pub vcs: VcConfig,
    pub algo: Box<dyn RoutingAlgorithm>,
    pub graph: Cdg,
    /// Healthy (source, destination) pairs.
    pub walks: usize,
    /// Walks whose every branch reaches the destination.
    pub delivered: usize,
    /// Distinct (node, state) keys.
    pub states: usize,
    /// Stuck walks, hop-budget overruns, livelocks and hops into faults.
    pub findings: Vec<String>,
    /// Mean over walks of expected hops ÷ BFS hops, under the weighting
    /// of [`WEIGHTING`].
    pub stretch_mean: f64,
    /// Max over walks and branches of hops ÷ BFS hops.
    pub stretch_max: f64,
    /// The longest walk, in hops.
    pub longest_walk: u32,
    /// Share of weighted hops taken on overlay VCs.
    pub overlay_share: f64,
    /// The busiest healthy channel's weighted hops ÷ the mean channel's.
    pub peak_channel: f64,
    /// Every decision offers an R1 VC, and R1 walks reach the destination.
    r1_covers: bool,
    /// The fields the walk key left out.
    omit: u8,
    /// R1's extended graph over every graph node, when the walk built it.
    extended: Option<Vec<Bits>>,
}

/// How walks are weighted for mean stretch and channel shares.
pub const WEIGHTING: &str = "uniform over each decision's (direction, VC) candidates \
     in its first non-empty tier, at wait 0; Fully-Adaptive's misroute branch \
     (wait = patience) has weight 0 there and counts in max stretch, longest \
     walk and coverage";

/// Walks longer than this are findings.
pub fn hop_budget(mesh: &Mesh) -> u32 {
    mesh.num_nodes() as u32
}

/// Walk `kind` on `ctx` at `vcs`.
pub fn audit(kind: AlgorithmKind, ctx: &Arc<RoutingContext>, vcs: VcConfig) -> Audit {
    walk(kind, ctx, vcs, true)
}

/// [`audit`] for the graph alone: a later [`Audit::verdict`] walks again
/// if it needs R1's extended graph.
pub fn graph_audit(kind: AlgorithmKind, ctx: &Arc<RoutingContext>, vcs: VcConfig) -> Audit {
    walk(kind, ctx, vcs, false)
}

fn walk(kind: AlgorithmKind, ctx: &Arc<RoutingContext>, vcs: VcConfig, eager: bool) -> Audit {
    // An algorithm with a fallback tier (Duato's) will likely need part
    // three of (b): build R1's extended graph on this walk rather than on a
    // second one.
    let algo = build_algorithm(kind, ctx.clone(), vcs);
    let mut healthy = ctx.mesh().nodes().filter(|&n| !ctx.pattern().is_faulty(n));
    let (src, dest) = (healthy.next(), healthy.last());
    let tiered = eager
        && src.zip(dest).is_some_and(|(src, dest)| {
            let mut st = algo.init_message(src, dest);
            algo.route(src, &mut st)
                .iter()
                .any(|h| !h.fallback.is_empty())
        });
    let every_node: Option<Vec<usize>> =
        tiered.then(|| (0..ctx.mesh().num_channel_slots() * algo.num_vcs() as usize).collect());
    let mut omit = SRC | HOPS | NORMAL_HOPS | LAST_DIR;
    loop {
        match Walker::new(kind, ctx, vcs, omit, every_node.as_deref()).run() {
            Ok(audit) => return audit,
            Err(read) => omit &= !read,
        }
    }
}

impl Audit {
    /// The verdict: (a), else (b), else a cycle.
    pub fn verdict(&self) -> Verdict {
        let mesh = self.ctx.mesh();
        let nv = self.graph.num_vcs as usize;
        let graph = Digraph::new(self.graph.succ.len(), |a, out| {
            self.graph.successors(mesh, a, out)
        });
        let core = graph.cyclic_core();
        let as_pairs = |c: Vec<usize>| -> Vec<(u32, u8)> {
            c.into_iter()
                .map(|a| ((a / nv) as u32, (a % nv) as u8))
                .collect()
        };
        let Some(cycle) = graph.cycle(&core) else {
            return Verdict::Acyclic;
        };
        if !self.r1_covers {
            return Verdict::Cycle {
                r1: false,
                cycle: as_pairs(cycle),
            };
        }
        // Part three needs R1's reach across non-R1 hops: walk again unless
        // the first walk built it. An indirect edge is a path of the graph,
        // so a cycle of the extended graph lies in the graph's cyclic core;
        // nothing else is kept.
        let (universe, edges) = match &self.extended {
            Some(edges) => ((0..core.len()).collect(), edges.clone()),
            None => {
                let universe: Vec<usize> = (0..core.len()).filter(|&a| core[a]).collect();
                let edges = Walker::new(self.kind, &self.ctx, self.vcs, self.omit, Some(&universe))
                    .run_extended()
                    .expect("the first walk settled the key");
                (universe, edges)
            }
        };
        let ext = Digraph::new(universe.len(), |k, out| {
            if core[universe[k]] {
                out.extend(edges[k].iter().filter(|&b| core[universe[b]]));
            }
        });
        match ext.cycle(&ext.cyclic_core()) {
            None => Verdict::Duato,
            Some(cycle) => Verdict::Cycle {
                r1: true,
                cycle: as_pairs(cycle.into_iter().map(|k| universe[k]).collect()),
            },
        }
    }
}

/// The candidate VCs of one direction that lead to the same state.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Branch {
    dir: Direction,
    next: NodeId,
    vcs: u32,
    /// The R1 VCs among `vcs`.
    r1: u32,
    /// The VCs among `vcs` that carry walk weight.
    weighted: u32,
    succ: MessageState,
}

/// Everything one (node, state) offers.
#[derive(Default, PartialEq, Eq)]
struct Decision {
    offers: [u32; 4],
    r1_offers: [u32; 4],
    lacks_r1: bool,
    branches: Vec<Branch>,
}

struct State {
    open: bool,
    offers: [u32; 4],
    /// Some branch below ends short of the destination.
    bad: bool,
    max_rem: u32,
    exp_rem: f64,
    r1_ok: bool,
    /// Weighted branches, as a range of `Walker::fwd`.
    fwd: (u32, u32),
}

/// A weighted branch: successor, channel, weighted VCs, weighted overlay VCs.
type Fwd = (u32, u32, u32, u32);

struct Walker<'a> {
    kind: AlgorithmKind,
    vcs: VcConfig,
    algo: Box<dyn RoutingAlgorithm>,
    ctx: &'a Arc<RoutingContext>,
    mesh: &'a Mesh,
    omit: u8,
    waits: Vec<u32>,
    overlay: u32,
    graph: Cdg,
    findings: Vec<String>,
    every_decision_offers_r1: bool,
    // Per destination.
    dest: NodeId,
    memo: FxMap<(u16, MessageState), u32>,
    states: Vec<State>,
    post: Vec<u32>,
    fwd: Vec<Fwd>,
    // R1's extended graph, when asked for.
    extended: Option<Extended>,
}

/// R1's extended graph over a universe of graph nodes, and, per state of
/// the current destination, the universe's R1 VCs a walk can be offered
/// from that state on, up to its next R1 hop.
struct Extended {
    slot: Vec<u32>,
    edges: Vec<Bits>,
    /// Reused across destinations: the first `states.len()` are live.
    reach: Vec<Bits>,
    /// Per state, the (arrival direction, VC)s already folded into `edges`.
    folded: Vec<[u32; 4]>,
}

/// The walk found that the algorithm reads these omitted key fields.
type Reads = u8;

impl<'a> Walker<'a> {
    fn new(
        kind: AlgorithmKind,
        ctx: &'a Arc<RoutingContext>,
        vcs: VcConfig,
        omit: u8,
        universe: Option<&[usize]>,
    ) -> Self {
        let algo = build_algorithm(kind, ctx.clone(), vcs);
        let mesh = ctx.mesh();
        let nv = algo.num_vcs();
        let overlay = (0..nv)
            .filter(|&v| algo.is_overlay_vc(v))
            .fold(0u32, |m, v| m | 1 << v);
        let mut waits = vec![0];
        waits.extend(algo.recheck_wait());
        let extended = universe.map(|u| {
            let mut slot = vec![u32::MAX; mesh.num_channel_slots() * nv as usize];
            for (k, &a) in u.iter().enumerate() {
                slot[a] = k as u32;
            }
            Extended {
                slot,
                edges: vec![Bits::new(u.len()); u.len()],
                reach: Vec::new(),
                folded: Vec::new(),
            }
        });
        Walker {
            kind,
            vcs,
            graph: Cdg::new(mesh, nv),
            algo,
            ctx,
            mesh,
            omit,
            waits,
            overlay,
            findings: Vec::new(),
            every_decision_offers_r1: true,
            dest: NodeId(0),
            memo: FxMap::default(),
            states: Vec::new(),
            post: Vec::new(),
            fwd: Vec::new(),
            extended,
        }
    }

    fn healthy_nodes(&self) -> Vec<NodeId> {
        self.mesh
            .nodes()
            .filter(|&n| !self.ctx.pattern().is_faulty(n))
            .collect()
    }

    fn run(mut self) -> Result<Audit, Reads> {
        let healthy = self.healthy_nodes();
        let mesh = self.mesh;
        let budget = hop_budget(mesh);
        let mut load = vec![0.0f64; mesh.num_channel_slots()];
        let (mut overlay_mass, mut walks, mut delivered, mut states) = (0.0, 0, 0, 0);
        let (mut stretch_sum, mut stretch_max, mut longest) = (0.0f64, 0.0f64, 0u32);
        let mut r1_ok = true;
        for &dest in &healthy {
            let bfs = self.bfs(dest);
            self.start(dest);
            let mut inits = Vec::new();
            for &src in &healthy {
                if src != dest {
                    let st = self.algo.init_message(src, dest);
                    inits.push((src, self.visit(src, st)?));
                }
            }
            states += self.states.len();
            r1_ok &= self.states.iter().all(|s| s.r1_ok);
            let mut mass = vec![0.0f64; self.states.len()];
            for &(src, i) in &inits {
                let s = &self.states[i as usize];
                walks += 1;
                if s.max_rem > budget && !s.bad {
                    let what = format!(
                        "{:?}→{:?}: a walk of {} hops passes the budget of {budget}",
                        mesh.coord(src),
                        mesh.coord(dest),
                        s.max_rem
                    );
                    self.finding(what);
                }
                let s = &self.states[i as usize];
                if s.bad || s.max_rem > budget {
                    continue;
                }
                delivered += 1;
                let d = bfs[src.index()] as f64;
                stretch_sum += s.exp_rem / d;
                stretch_max = stretch_max.max(s.max_rem as f64 / d);
                longest = longest.max(s.max_rem);
                mass[i as usize] += 1.0;
            }
            // Reverse post-order is a topological order of the walk DAG.
            for &i in self.post.iter().rev() {
                let s = &self.states[i as usize];
                let m = mass[i as usize];
                if m == 0.0 || s.bad {
                    continue;
                }
                let (lo, hi) = s.fwd;
                let branches = &self.fwd[lo as usize..hi as usize];
                let total: u32 = branches.iter().map(|b| b.2).sum();
                let w = m / total as f64;
                for &(j, ch, n, n_overlay) in branches {
                    load[ch as usize] += w * n as f64;
                    overlay_mass += w * n_overlay as f64;
                    mass[j as usize] += w * n as f64;
                }
            }
        }
        let pattern = self.ctx.pattern();
        let healthy_channels: Vec<usize> = mesh
            .channels()
            .filter(|&c| {
                !pattern.is_faulty(mesh.channel_src(c))
                    && !mesh.channel_dest(c).is_some_and(|n| pattern.is_faulty(n))
            })
            .map(|c| c.0 as usize)
            .collect();
        let total: f64 = load.iter().sum();
        let peak = healthy_channels
            .iter()
            .map(|&c| load[c])
            .fold(0.0f64, f64::max);
        Ok(Audit {
            kind: self.kind,
            ctx: self.ctx.clone(),
            vcs: self.vcs,
            walks,
            delivered,
            states,
            findings: self.findings,
            stretch_mean: stretch_sum / delivered.max(1) as f64,
            stretch_max,
            longest_walk: longest,
            overlay_share: overlay_mass / total.max(f64::MIN_POSITIVE),
            peak_channel: peak / (total / healthy_channels.len() as f64),
            r1_covers: self.every_decision_offers_r1 && r1_ok,
            omit: self.omit,
            extended: self.extended.take().map(|e| e.edges),
            graph: self.graph,
            algo: self.algo,
        })
    }

    /// Walk again, building R1's extended graph.
    fn run_extended(mut self) -> Result<Vec<Bits>, Reads> {
        let healthy = self.healthy_nodes();
        for &dest in &healthy {
            self.start(dest);
            for &src in &healthy {
                if src != dest {
                    let st = self.algo.init_message(src, dest);
                    self.visit(src, st)?;
                }
            }
        }
        Ok(self.extended.take().expect("asked for").edges)
    }

    fn start(&mut self, dest: NodeId) {
        self.dest = dest;
        self.memo.clear();
        self.states.clear();
        self.post.clear();
        self.fwd.clear();
        if let Some(ext) = &mut self.extended {
            ext.folded.clear();
        }
    }

    fn bfs(&self, dest: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.mesh.num_nodes()];
        let mut queue = std::collections::VecDeque::from([dest]);
        dist[dest.index()] = 0;
        while let Some(n) = queue.pop_front() {
            for dir in ALL_DIRECTIONS {
                if let Some(m) = self.ctx.healthy_step(n, dir) {
                    if dist[m.index()] == u32::MAX {
                        dist[m.index()] = dist[n.index()] + 1;
                        queue.push_back(m);
                    }
                }
            }
        }
        dist
    }

    fn finding(&mut self, what: String) {
        if self.findings.len() < 20 {
            self.findings.push(what);
        }
    }

    /// Every candidate of `route` at (node, st), at each wait of interest.
    fn decide(&self, node: NodeId, st: MessageState) -> Result<Decision, String> {
        let mut d = Decision::default();
        let mut first: Option<MessageState> = None;
        for (k, &wait) in self.waits.iter().enumerate() {
            let mut s = st;
            s.wait_cycles = wait;
            let cands = self.algo.route(node, &mut s);
            s.wait_cycles = 0;
            // A later wait repeats the branches the first one already took
            // from the same mutated state.
            let seen = if first == Some(s) { d.offers } else { [0; 4] };
            first.get_or_insert(s);
            let preferred: u32 = cands.iter().fold(0, |m, h| m | h.preferred.0);
            let mut r1_here = 0u32;
            for hop in cands.iter() {
                let dir = hop.dir;
                let next = match self.mesh.neighbor(node, dir) {
                    Some(n) if !self.ctx.pattern().is_faulty(n) => n,
                    _ => return Err(format!("offers {dir:?}, off the mesh or into a fault")),
                };
                let all = hop.preferred.0 | hop.fallback.0;
                let r1 = hop.fallback.0 | (all & self.overlay);
                let tier = if preferred != 0 {
                    hop.preferred.0
                } else {
                    hop.fallback.0
                };
                d.offers[dir as usize] |= all;
                d.r1_offers[dir as usize] |= r1;
                r1_here |= r1;
                let weight = if k == 0 { tier } else { 0 };
                let mut bits = all & !seen[dir as usize];
                while bits != 0 {
                    let vc = bits.trailing_zeros() as u8;
                    bits &= bits - 1;
                    let mut succ = s;
                    self.algo.on_hop(node, next, dir, vc, &mut succ);
                    let bit = 1 << vc;
                    match d.branches.last_mut() {
                        Some(b) if b.dir == dir && b.succ == succ => {
                            b.vcs |= bit;
                            b.r1 |= r1 & bit;
                            b.weighted |= weight & bit;
                        }
                        _ => d.branches.push(Branch {
                            dir,
                            next,
                            vcs: bit,
                            r1: r1 & bit,
                            weighted: weight & bit,
                            succ,
                        }),
                    }
                }
            }
            d.lacks_r1 |= r1_here == 0;
        }
        if d.branches.is_empty() {
            return Err("no candidate".into());
        }
        Ok(d)
    }

    /// Whether the decision at `st` reads key fields the walk leaves out.
    fn probe(&self, node: NodeId, st: MessageState, d: &Decision) -> Result<(), Reads> {
        let key = |b: &Branch| Branch {
            succ: key_state(b.succ, self.omit),
            ..*b
        };
        let same = |fields: u8| match self.decide(node, perturbed(st, fields)) {
            Ok(p) => {
                (p.offers, p.r1_offers, p.lacks_r1) == (d.offers, d.r1_offers, d.lacks_r1)
                    && p.branches.iter().map(key).eq(d.branches.iter().map(key))
            }
            Err(_) => false,
        };
        if same(self.omit) {
            return Ok(());
        }
        let reads = OPTIONAL_FIELDS
            .into_iter()
            .filter(|&f| self.omit & f != 0 && !same(f))
            .fold(0, |m, f| m | f);
        Err(if reads == 0 { self.omit } else { reads })
    }

    fn visit(&mut self, node: NodeId, st: MessageState) -> Result<u32, Reads> {
        let key = (node.0, key_state(st, self.omit));
        if let Some(&i) = self.memo.get(&key) {
            if self.states[i as usize].open {
                let (c, t) = (self.mesh.coord(node), self.mesh.coord(self.dest));
                self.finding(format!(
                    "livelock: a walk to {t:?} returns to {c:?} in the same state"
                ));
                self.states[i as usize].bad = true;
            }
            return Ok(i);
        }
        let i = self.states.len() as u32;
        self.memo.insert(key, i);
        self.states.push(State {
            open: true,
            offers: [0; 4],
            bad: false,
            max_rem: 0,
            exp_rem: 0.0,
            r1_ok: true,
            fwd: (0, 0),
        });
        if let Some(ext) = &mut self.extended {
            match ext.reach.get_mut(i as usize) {
                Some(bits) => bits.0.fill(0),
                None => ext.reach.push(Bits::new(ext.edges.len())),
            }
            ext.folded.push([0; 4]);
        }
        if node == self.dest {
            self.close(i);
            return Ok(i);
        }
        let d = match self.decide(node, st) {
            Ok(d) => d,
            Err(why) => {
                let (c, t) = (self.mesh.coord(node), self.mesh.coord(self.dest));
                self.finding(format!("stuck at {c:?} on the way to {t:?}: {why}"));
                let s = &mut self.states[i as usize];
                s.bad = true;
                s.r1_ok = false;
                self.close(i);
                return Ok(i);
            }
        };
        if self.omit != 0 && i.is_multiple_of(PROBE_EVERY) {
            self.probe(node, st, &d)?;
        }
        self.every_decision_offers_r1 &= !d.lacks_r1;
        self.states[i as usize].offers = d.offers;
        let nv = self.graph.num_vcs as u32;
        if let Some(ext) = &mut self.extended {
            for dir in ALL_DIRECTIONS {
                let ch = self.mesh.channel(node, dir).0;
                for vc in VcMask(d.r1_offers[dir as usize]).iter() {
                    let k = ext.slot[(ch * nv + vc as u32) as usize];
                    if k != u32::MAX {
                        ext.reach[i as usize].set(k as usize);
                    }
                }
            }
        }
        let weighted: u32 = d.branches.iter().map(|b| b.weighted.count_ones()).sum();
        let (mut bad, mut max_rem, mut exp_rem) = (false, 0u32, 0.0);
        let mut r1_ok = !d.lacks_r1;
        let mut fwd = Vec::new();
        for b in &d.branches {
            let j = self.visit(b.next, b.succ)?;
            let ch = self.mesh.channel(node, b.dir).0;
            let s = &self.states[j as usize];
            for vc in VcMask(b.vcs).iter() {
                let a = (ch * nv + vc as u32) as usize;
                for (out, &offered) in self.graph.succ[a].iter_mut().zip(&s.offers) {
                    *out |= offered;
                }
            }
            bad |= s.bad || s.open;
            max_rem = max_rem.max(1 + s.max_rem);
            if b.weighted != 0 {
                let n = b.weighted.count_ones();
                exp_rem += n as f64 * (1.0 + s.exp_rem) / weighted as f64;
                let n_overlay = (b.weighted & self.overlay).count_ones();
                fwd.push((j, ch, n, n_overlay));
            }
            if b.r1 != 0 {
                r1_ok &= s.r1_ok && !s.open;
            }
            if let Some(ext) = &mut self.extended {
                // A walk that arrives on an R1 VC depends on the R1 VCs
                // offered from its next decision on, up to its next R1 hop:
                // `reach` of the state it lands in.
                let (i, j) = (i as usize, j as usize);
                let fresh = b.r1 & !ext.folded[j][b.dir as usize];
                ext.folded[j][b.dir as usize] |= fresh;
                for vc in VcMask(fresh).iter() {
                    let k = ext.slot[(ch * nv + vc as u32) as usize];
                    if k != u32::MAX {
                        ext.edges[k as usize].or(&ext.reach[j]);
                    }
                }
                if b.vcs & !b.r1 != 0 {
                    if j > i {
                        let (lo, hi) = ext.reach.split_at_mut(j);
                        lo[i].or(&hi[0]);
                    } else if j < i {
                        let (lo, hi) = ext.reach.split_at_mut(i);
                        hi[0].or(&lo[j]);
                    }
                }
            }
        }
        let lo = self.fwd.len() as u32;
        self.fwd.extend(fwd);
        let s = &mut self.states[i as usize];
        s.bad |= bad;
        s.max_rem = max_rem;
        s.exp_rem = exp_rem;
        s.r1_ok = r1_ok;
        s.fwd = (lo, self.fwd.len() as u32);
        self.close(i);
        Ok(i)
    }

    fn close(&mut self, i: u32) {
        self.states[i as usize].open = false;
        self.post.push(i);
    }
}

/// A directed graph as successor lists.
pub struct Digraph {
    out: Vec<Vec<usize>>,
}

impl Digraph {
    pub fn new(n: usize, successors: impl Fn(usize, &mut Vec<usize>)) -> Self {
        let mut out = vec![Vec::new(); n];
        for (a, list) in out.iter_mut().enumerate() {
            successors(a, list);
        }
        Digraph { out }
    }

    /// The nodes left after repeatedly peeling nodes with no predecessor
    /// or no successor: those on a cycle or between two. Empty iff acyclic.
    pub fn cyclic_core(&self) -> Vec<bool> {
        let n = self.out.len();
        let mut indeg = vec![0u32; n];
        let mut preds = vec![Vec::new(); n];
        for (a, list) in self.out.iter().enumerate() {
            for &b in list {
                indeg[b] += 1;
                preds[b].push(a);
            }
        }
        let mut outdeg: Vec<u32> = self.out.iter().map(|l| l.len() as u32).collect();
        let mut alive = vec![true; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&a| indeg[a] == 0 || outdeg[a] == 0)
            .collect();
        while let Some(a) = stack.pop() {
            if !alive[a] {
                continue;
            }
            alive[a] = false;
            for &b in &self.out[a] {
                indeg[b] -= 1;
                if alive[b] && indeg[b] == 0 {
                    stack.push(b);
                }
            }
            for &p in &preds[a] {
                outdeg[p] -= 1;
                if alive[p] && outdeg[p] == 0 {
                    stack.push(p);
                }
            }
        }
        alive
    }

    /// The shortest cycle through the lowest-numbered core node that lies
    /// on one, or `None` when the core is empty.
    pub fn cycle(&self, core: &[bool]) -> Option<Vec<usize>> {
        let n = self.out.len();
        for start in (0..n).filter(|&a| core[a]) {
            let mut parent = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(a) = queue.pop_front() {
                for &b in &self.out[a] {
                    if !core[b] {
                        continue;
                    }
                    if b == start {
                        let mut cycle = vec![a];
                        while *cycle.last().unwrap() != start {
                            cycle.push(parent[*cycle.last().unwrap()]);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    if parent[b] == usize::MAX {
                        parent[b] = a;
                        queue.push_back(b);
                    }
                }
            }
        }
        None
    }
}
