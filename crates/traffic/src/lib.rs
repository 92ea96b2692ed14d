//! # wormsim-traffic
//!
//! Synthetic workload generation for the simulator.
//!
//! The paper (§5) drives every experiment with **uniform traffic** —
//! each healthy processor sends to every other healthy node with equal
//! probability — with message inter-arrival times drawn from an
//! **exponential distribution** and fixed 100-flit messages. This crate
//! implements that workload plus the standard extensions (transpose,
//! bit-reversal, hotspot) used by the ablation benches.
//!
//! ```
//! use wormsim_topology::Mesh;
//! use wormsim_traffic::{Injector, DestinationSampler, TrafficPattern};
//! use rand::SeedableRng;
//!
//! let mesh = Mesh::square(10);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let healthy: Vec<_> = mesh.nodes().collect();
//! let mut sampler = DestinationSampler::new(TrafficPattern::Uniform, &mesh, healthy);
//! let dest = sampler.sample(mesh.node(0, 0), &mut rng).unwrap();
//! assert_ne!(dest, mesh.node(0, 0));
//!
//! let mut inj = Injector::new(0.01); // 0.01 messages/node/cycle
//! let due = (0..10_000u64).map(|c| inj.poll_rng(c, &mut rng) as u64).sum::<u64>();
//! assert!(due > 50 && due < 200); // ~100 expected
//! ```

#![forbid(unsafe_code)]

use rand::Rng;
use serde::{Deserialize, Serialize};
use wormsim_topology::{Mesh, NodeId};

/// The spatial traffic patterns available to workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every healthy node is an equally likely destination (paper §5).
    Uniform,
    /// Matrix transpose: `(x, y) → (y, x)`; falls back to uniform when the
    /// image is the source itself or unusable.
    Transpose,
    /// Bit-reversal on the node index; uniform fallback as above.
    BitReversal,
    /// A fraction `permille`/1000 of traffic targets the designated hotspot
    /// node; the rest is uniform.
    Hotspot {
        /// Hotspot node id.
        node: NodeId,
        /// Per-mille of traffic aimed at the hotspot.
        permille: u16,
    },
}

/// Per-node Poisson message source: inter-arrival gaps are exponential with
/// mean `1/rate` (implemented as `-ln(U)/rate`), so the arrival process has
/// `rate` messages per cycle on average.
///
/// The source holds no randomness of its own: every uniform variate comes
/// from the generator passed to [`Injector::poll_rng`], so a run's arrivals
/// are a function of that generator's stream and the order sources are
/// polled in. Between polls the source is inert, and [`Injector::next_due`]
/// names the first cycle whose poll does anything, which lets a caller
/// with many sources poll only the due ones.
#[derive(Clone, Debug)]
pub struct Injector {
    rate: f64,
    /// Absolute time of the next arrival, in cycles.
    next: f64,
    /// Lazily initialized on the first poll so that construction order
    /// doesn't consume randomness.
    primed: bool,
}

impl Injector {
    /// A source generating `rate` messages per cycle (0 disables it).
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        Injector {
            rate,
            next: 0.0,
            primed: false,
        }
    }

    /// The generation rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The first cycle at which [`Injector::poll_rng`] draws from its
    /// generator or reports an arrival; polls at earlier cycles do
    /// neither. An unprimed source is due at cycle 0 (its first poll
    /// draws the first gap), a primed one at the ceiling of its next
    /// arrival time, and a disabled one (rate 0) never: `u64::MAX`.
    /// Polling never makes it decrease.
    pub fn next_due(&self) -> u64 {
        if self.rate <= 0.0 {
            u64::MAX
        } else if !self.primed {
            0
        } else {
            // `next ≤ now` for an integer `now` is `ceil(next) ≤ now`; the
            // cast saturates for a gap beyond `u64::MAX` cycles.
            self.next.ceil() as u64
        }
    }

    /// Number of messages due at cycle `now`: arrivals whose time is
    /// ≤ `now` and that no earlier poll reported. Each gap is one uniform
    /// variate from `rng`.
    pub fn poll_rng<R: Rng>(&mut self, now: u64, rng: &mut R) -> usize {
        if self.rate <= 0.0 {
            return 0;
        }
        if !self.primed {
            self.primed = true;
            self.next = self.gap(rng);
        }
        let mut due = 0;
        let now = now as f64;
        while self.next <= now {
            due += 1;
            self.next += self.gap(rng);
        }
        due
    }

    /// One exponential inter-arrival gap.
    #[inline]
    fn gap<R: Rng>(&self, rng: &mut R) -> f64 {
        -rng.gen_range(1e-12..1.0).ln() / self.rate
    }
}

/// Chooses destinations for new messages according to a pattern, restricted
/// to healthy nodes (paper §5: "messages are destined only to fault-free
/// nodes").
#[derive(Clone, Debug)]
pub struct DestinationSampler {
    pattern: TrafficPattern,
    healthy: Vec<NodeId>,
    usable: Vec<bool>,
    width: u16,
    height: u16,
}

impl DestinationSampler {
    /// Build a sampler over the given healthy node set.
    pub fn new(pattern: TrafficPattern, mesh: &Mesh, healthy: Vec<NodeId>) -> Self {
        assert!(!healthy.is_empty());
        let mut usable = vec![false; mesh.num_nodes()];
        for n in &healthy {
            usable[n.index()] = true;
        }
        if let TrafficPattern::Hotspot { node, .. } = pattern {
            assert!(usable[node.index()], "hotspot node must be healthy");
        }
        DestinationSampler {
            pattern,
            healthy,
            usable,
            width: mesh.width(),
            height: mesh.height(),
        }
    }

    /// Rebuild the sampler in place over a new healthy node set, reusing
    /// the existing `healthy`/`usable` allocations (used when a fault
    /// activation shrinks the healthy set).
    pub fn reset(
        &mut self,
        pattern: TrafficPattern,
        mesh: &Mesh,
        healthy: impl IntoIterator<Item = NodeId>,
    ) {
        self.healthy.clear();
        self.healthy.extend(healthy);
        assert!(!self.healthy.is_empty());
        self.usable.resize(mesh.num_nodes(), false);
        self.usable.iter_mut().for_each(|u| *u = false);
        for n in &self.healthy {
            self.usable[n.index()] = true;
        }
        if let TrafficPattern::Hotspot { node, .. } = pattern {
            assert!(self.usable[node.index()], "hotspot node must be healthy");
        }
        self.pattern = pattern;
        self.width = mesh.width();
        self.height = mesh.height();
    }

    /// The healthy node list.
    pub fn healthy(&self) -> &[NodeId] {
        &self.healthy
    }

    /// Sample a destination for a message from `src`; `None` when `src` is
    /// the only healthy node.
    pub fn sample<R: Rng>(&mut self, src: NodeId, rng: &mut R) -> Option<NodeId> {
        if self.healthy.len() < 2 {
            return None;
        }
        match self.pattern {
            TrafficPattern::Uniform => self.sample_uniform(src, rng),
            TrafficPattern::Transpose => {
                let x = src.0 % self.width;
                let y = src.0 / self.width;
                // (x,y) -> (y,x) requires the image to exist in a possibly
                // non-square mesh.
                let image = (y < self.width && x < self.height).then(|| NodeId(x * self.width + y));
                match image {
                    Some(t) if t != src && self.usable[t.index()] => Some(t),
                    _ => self.sample_uniform(src, rng),
                }
            }
            TrafficPattern::BitReversal => {
                let bits = (self.width as u32 * self.height as u32)
                    .next_power_of_two()
                    .trailing_zeros();
                let rev = (src.0 as u32).reverse_bits() >> (32 - bits);
                let image =
                    (rev < self.width as u32 * self.height as u32).then_some(NodeId(rev as u16));
                match image {
                    Some(t) if t != src && self.usable[t.index()] => Some(t),
                    _ => self.sample_uniform(src, rng),
                }
            }
            TrafficPattern::Hotspot { node, permille } => {
                if node != src && rng.gen_range(0..1000) < permille as u32 {
                    Some(node)
                } else {
                    self.sample_uniform(src, rng)
                }
            }
        }
    }

    fn sample_uniform<R: Rng>(&mut self, src: NodeId, rng: &mut R) -> Option<NodeId> {
        loop {
            let t = self.healthy[rng.gen_range(0..self.healthy.len())];
            if t != src {
                return Some(t);
            }
        }
    }
}

/// A complete workload description, serializable for experiment records.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Workload {
    /// Spatial pattern.
    pub pattern: TrafficPattern,
    /// Messages per node per cycle.
    pub rate: f64,
    /// Flits per message (paper: 100).
    pub message_length: u32,
}

impl Workload {
    /// The paper's workload at a given generation rate: uniform traffic,
    /// 100-flit messages.
    pub fn paper_uniform(rate: f64) -> Self {
        Workload {
            pattern: TrafficPattern::Uniform,
            rate,
            message_length: 100,
        }
    }

    /// Offered load in flits per node per cycle.
    pub fn offered_flit_load(&self) -> f64 {
        self.rate * self.message_length as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::square(10)
    }

    #[test]
    fn injector_rate_matches_mean() {
        let mut inj = Injector::new(0.02);
        let mut rng = SmallRng::seed_from_u64(9);
        let total: usize = (0..100_000u64).map(|c| inj.poll_rng(c, &mut rng)).sum();
        let expected = 0.02 * 100_000.0;
        assert!(
            (total as f64) > expected * 0.9 && (total as f64) < expected * 1.1,
            "got {total}, expected ≈ {expected}"
        );
    }

    #[test]
    fn injector_zero_rate_never_fires() {
        let mut inj = Injector::new(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            (0..10_000u64)
                .map(|c| inj.poll_rng(c, &mut rng))
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn injector_gaps_are_exponential_ish() {
        // The variance of an exponential equals the squared mean; a
        // deterministic (constant-gap) source would have variance ~0.
        let mut inj = Injector::new(0.05);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut arrivals = Vec::new();
        for c in 0..200_000u64 {
            for _ in 0..inj.poll_rng(c, &mut rng) {
                arrivals.push(c as f64);
            }
        }
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 20.0).abs() < 2.0, "mean gap {mean}");
        // Exponential: std ≈ mean (allow integer-quantization slack).
        assert!(
            var.sqrt() > mean * 0.8 && var.sqrt() < mean * 1.2,
            "std {}",
            var.sqrt()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// What lets a caller poll only due sources: a poll before
        /// `next_due` neither draws nor reports an arrival, a poll at or
        /// after it does one or the other, and polling never moves
        /// `next_due` back.
        #[test]
        fn next_due_is_the_first_poll_that_does_anything(
            rate in proptest::prelude::prop::sample::select(vec![0.0, 1e-4, 0.0015, 0.01, 0.05, 2.5]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::RngCore;
            let mut inj = Injector::new(rate);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut due = inj.next_due();
            for cycle in 0..1_500u64 {
                let (mut probe, mut probe_rng) = (inj.clone(), rng.clone());
                let arrivals = probe.poll_rng(cycle, &mut probe_rng);
                let drew = probe_rng.next_u64() != rng.clone().next_u64();
                proptest::prop_assert_eq!(
                    drew || arrivals > 0,
                    cycle >= due,
                    "rate {} cycle {} due {}", rate, cycle, due
                );
                inj.poll_rng(cycle, &mut rng);
                let next = inj.next_due();
                proptest::prop_assert!(next >= due, "next_due fell from {} to {}", due, next);
                due = next;
            }
        }
    }

    #[test]
    fn uniform_sampler_is_roughly_uniform_and_never_self() {
        let m = mesh();
        let healthy: Vec<_> = m.nodes().collect();
        let mut s = DestinationSampler::new(TrafficPattern::Uniform, &m, healthy);
        let mut rng = SmallRng::seed_from_u64(5);
        let src = m.node(3, 3);
        let mut counts = vec![0u32; m.num_nodes()];
        for _ in 0..99_000 {
            let d = s.sample(src, &mut rng).unwrap();
            assert_ne!(d, src);
            counts[d.index()] += 1;
        }
        assert_eq!(counts[src.index()], 0);
        // Each of the 99 other nodes expects ~1000 hits.
        for (i, &c) in counts.iter().enumerate() {
            if i != src.index() {
                assert!(c > 700 && c < 1300, "node {i} got {c}");
            }
        }
    }

    #[test]
    fn sampler_respects_fault_set() {
        let m = mesh();
        let healthy: Vec<_> = m.nodes().filter(|n| n.index() >= 50).collect();
        let mut s = DestinationSampler::new(TrafficPattern::Uniform, &m, healthy);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..5_000 {
            let d = s.sample(m.node(5, 7), &mut rng).unwrap();
            assert!(d.index() >= 50);
        }
    }

    #[test]
    fn transpose_maps_coordinates() {
        let m = mesh();
        let healthy: Vec<_> = m.nodes().collect();
        let mut s = DestinationSampler::new(TrafficPattern::Transpose, &m, healthy);
        let mut rng = SmallRng::seed_from_u64(7);
        let d = s.sample(m.node(2, 7), &mut rng).unwrap();
        assert_eq!(d, m.node(7, 2));
        // Diagonal nodes fall back to uniform (never self).
        let d = s.sample(m.node(4, 4), &mut rng).unwrap();
        assert_ne!(d, m.node(4, 4));
    }

    #[test]
    fn hotspot_bias() {
        let m = mesh();
        let hs = m.node(5, 5);
        let healthy: Vec<_> = m.nodes().collect();
        let mut s = DestinationSampler::new(
            TrafficPattern::Hotspot {
                node: hs,
                permille: 300,
            },
            &m,
            healthy,
        );
        let mut rng = SmallRng::seed_from_u64(8);
        let hits = (0..10_000)
            .filter(|_| s.sample(m.node(0, 0), &mut rng) == Some(hs))
            .count();
        // 30% direct + ~0.7% uniform share.
        assert!(hits > 2_700 && hits < 3_500, "hotspot hits {hits}");
    }

    #[test]
    fn single_healthy_node_yields_none() {
        let m = mesh();
        let only = m.node(1, 1);
        let mut s = DestinationSampler::new(TrafficPattern::Uniform, &m, vec![only]);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(s.sample(only, &mut rng), None);
    }

    #[test]
    fn workload_offered_load() {
        let w = Workload::paper_uniform(0.005);
        assert_eq!(w.message_length, 100);
        assert!((w.offered_flit_load() - 0.5).abs() < 1e-12);
    }
}
