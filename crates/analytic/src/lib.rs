//! # wormsim-analytic
//!
//! A closed-form performance model of wormhole-switched meshes — the
//! paper's stated future work (§6: "Future work includes driving an
//! analytical modeling approach to investigate the performance behavior of
//! these routing algorithms").
//!
//! The model follows the classic queueing decomposition used in the
//! wormhole-analysis literature (Draper–Ghosh; Ould-Khaoua's adaptive
//! routing models):
//!
//! 1. **Channel load analysis.** Under uniform traffic every healthy source
//!    sends `λ` messages/cycle, each to a uniformly random healthy
//!    destination. Routing messages along (fault-aware) shortest paths
//!    induces a per-channel *share*: the expected number of messages per
//!    generated message that cross each directed channel. Flit utilization
//!    of channel `c` at rate `λ` is `ρ_c = λ · L · share_c` against a
//!    1 flit/cycle link capacity.
//! 2. **Zero-load latency.** `T₀ = E[dist] + L` cycles (one cycle per hop
//!    for the header plus pipeline drain).
//! 3. **Contention.** Each channel is approximated as an M/G/1 server with
//!    mean residual service `L/2`; a message waits
//!    `W_c = ρ_c/(1−ρ_c) · L/2` at each channel it crosses. The mean
//!    latency is `T(λ) = T₀ + E_path[Σ_{c∈path} W_c]`.
//! 4. **Saturation.** The predicted saturation rate is where the busiest
//!    channel reaches unit utilization: `λ_sat = 1/(L · max_c share_c)`.
//!
//! The model is routing-algorithm-agnostic (it assumes load-balanced
//! shortest paths), which matches the simulator's adaptive algorithms to
//! first order; see the validation tests and the `analytic_vs_sim` example
//! for measured error bands.
//!
//! ```
//! use wormsim_topology::Mesh;
//! use wormsim_fault::FaultPattern;
//! use wormsim_analytic::AnalyticModel;
//!
//! let mesh = Mesh::square(10);
//! let model = AnalyticModel::new(&mesh, &FaultPattern::fault_free(&mesh));
//! let sat = model.saturation_rate(100);
//! assert!(sat > 0.001 && sat < 0.01);
//! // Zero-load latency ≈ mean distance + message length.
//! assert!((model.zero_load_latency(100) - (model.mean_distance() + 100.0)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wormsim_fault::FaultPattern;
use wormsim_topology::{ChannelId, Mesh, NodeId, ALL_DIRECTIONS};

/// The channel-load model for one (mesh, fault pattern) instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnalyticModel {
    num_healthy: usize,
    mean_distance: f64,
    /// Per directed channel: expected crossings per generated message.
    share: Vec<f64>,
    /// Per ordered healthy pair (flattened), the channel path used by the
    /// model (needed to integrate waiting times along paths).
    paths: Vec<Vec<ChannelId>>,
}

impl AnalyticModel {
    /// Build the model: BFS shortest paths (fault-aware) from every healthy
    /// source, with traffic split evenly over destinations.
    ///
    /// Path choice: among shortest paths the model picks the
    /// lexicographically dimension-ordered one (X first), mirroring the
    /// simulator's escape discipline; adaptive spreading mostly averages
    /// out over the uniform pair ensemble.
    pub fn new(mesh: &Mesh, pattern: &FaultPattern) -> Self {
        let healthy: Vec<NodeId> = pattern.healthy_nodes(mesh).collect();
        let h = healthy.len();
        assert!(h >= 2, "need at least two healthy nodes");
        let mut share = vec![0.0f64; mesh.num_channel_slots()];
        let mut paths = Vec::with_capacity(h * (h - 1));
        let mut dist_sum = 0u64;
        let pair_weight = 1.0 / (h as f64 - 1.0);

        for &src in &healthy {
            // BFS tree from src over healthy nodes, with dimension-order
            // preferred parents (X-direction expansions first).
            let mut parent: Vec<Option<(NodeId, ChannelId)>> = vec![None; mesh.num_nodes()];
            let mut dist = vec![u32::MAX; mesh.num_nodes()];
            let mut queue = VecDeque::new();
            dist[src.index()] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for dir in ALL_DIRECTIONS {
                    let Some(v) = mesh.neighbor(u, dir) else {
                        continue;
                    };
                    if pattern.is_faulty(v) || dist[v.index()] != u32::MAX {
                        continue;
                    }
                    dist[v.index()] = dist[u.index()] + 1;
                    parent[v.index()] = Some((u, mesh.channel(u, dir)));
                    queue.push_back(v);
                }
            }
            for &dst in &healthy {
                if dst == src {
                    continue;
                }
                debug_assert_ne!(dist[dst.index()], u32::MAX, "healthy pair unreachable");
                dist_sum += dist[dst.index()] as u64;
                let mut path = Vec::with_capacity(dist[dst.index()] as usize);
                let mut cur = dst;
                while cur != src {
                    let (prev, ch) = parent[cur.index()].expect("parent on BFS path");
                    path.push(ch);
                    cur = prev;
                }
                path.reverse();
                for ch in &path {
                    share[ch.index()] += pair_weight;
                }
                paths.push(path);
            }
        }
        let mean_distance = dist_sum as f64 / (h as f64 * (h as f64 - 1.0));
        AnalyticModel {
            num_healthy: h,
            mean_distance,
            share,
            paths,
        }
    }

    /// Number of healthy (traffic-generating) nodes.
    pub fn num_healthy(&self) -> usize {
        self.num_healthy
    }

    /// Mean shortest-path distance between healthy pairs.
    pub fn mean_distance(&self) -> f64 {
        self.mean_distance
    }

    /// Expected crossings of each directed channel per generated message.
    pub fn channel_share(&self) -> &[f64] {
        &self.share
    }

    /// The largest per-channel share (the bottleneck channel).
    pub fn max_share(&self) -> f64 {
        self.share.iter().cloned().fold(0.0, f64::max)
    }

    /// Flit utilization of every channel at `rate` messages/node/cycle
    /// with `msg_len`-flit messages.
    pub fn utilization(&self, rate: f64, msg_len: u32) -> Vec<f64> {
        self.share
            .iter()
            .map(|s| s * rate * msg_len as f64)
            .collect()
    }

    /// Latency with no contention: mean distance + pipeline drain.
    pub fn zero_load_latency(&self, msg_len: u32) -> f64 {
        self.mean_distance + msg_len as f64
    }

    /// The generation rate (messages/node/cycle) at which the bottleneck
    /// channel saturates.
    pub fn saturation_rate(&self, msg_len: u32) -> f64 {
        1.0 / (self.max_share() * msg_len as f64)
    }

    /// Predicted mean network latency at `rate`; `None` at or past
    /// saturation (any channel with ρ ≥ 1).
    pub fn mean_latency(&self, rate: f64, msg_len: u32) -> Option<f64> {
        let util = self.utilization(rate, msg_len);
        if util.iter().any(|&r| r >= 1.0) {
            return None;
        }
        // Residual-service waiting per channel, integrated along each
        // pair's path and averaged over pairs.
        let residual = msg_len as f64 / 2.0;
        let mut total_wait = 0.0;
        for path in &self.paths {
            for ch in path {
                let rho = util[ch.index()];
                total_wait += rho / (1.0 - rho) * residual;
            }
        }
        let mean_wait = total_wait / self.paths.len() as f64;
        Some(self.zero_load_latency(msg_len) + mean_wait)
    }

    /// Predicted normalized throughput (delivered flits/node/cycle) —
    /// offered load below saturation, the saturation ceiling above it.
    pub fn normalized_throughput(&self, rate: f64, msg_len: u32) -> f64 {
        let offered = rate * msg_len as f64;
        let ceiling = self.saturation_rate(msg_len) * msg_len as f64;
        offered.min(ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::Coord;

    fn model_10() -> AnalyticModel {
        let mesh = Mesh::square(10);
        AnalyticModel::new(&mesh, &FaultPattern::fault_free(&mesh))
    }

    #[test]
    fn mean_distance_matches_closed_form() {
        // For a uniform k×k mesh, E[|Δx|] over ordered pairs ≈ (k²−1)/(3k),
        // and E[dist] = 2·N/(N−1)·(k²−1)/(3k) accounting for the excluded
        // self-pairs. For k=10: 2·(100/99)·(99/30) = 20/3 ≈ 6.6667.
        let m = model_10();
        assert!((m.mean_distance() - 20.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_latency() {
        let m = model_10();
        assert!((m.zero_load_latency(100) - (20.0 / 3.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn share_conservation() {
        // Total channel crossings per generated message = mean distance.
        let m = model_10();
        let total: f64 = m.channel_share().iter().sum();
        assert!((total - m.mean_distance() * 100.0).abs() < 1e-6);
    }

    #[test]
    fn saturation_rate_in_plausible_band() {
        // The 10×10 bisection argument puts saturation throughput near
        // 0.2–0.3 flits/node/cycle → λ_sat ≈ 0.002–0.003 at L=100.
        let m = model_10();
        let sat = m.saturation_rate(100);
        assert!(sat > 0.0015 && sat < 0.0045, "saturation {sat}");
    }

    #[test]
    fn latency_increases_with_rate_and_diverges() {
        let m = model_10();
        let l1 = m.mean_latency(0.0005, 100).unwrap();
        let l2 = m.mean_latency(0.0015, 100).unwrap();
        assert!(l2 > l1);
        assert!(l1 >= m.zero_load_latency(100));
        // Past saturation: no finite prediction.
        assert!(m.mean_latency(0.02, 100).is_none());
    }

    #[test]
    fn throughput_saturates() {
        let m = model_10();
        let below = m.normalized_throughput(0.001, 100);
        assert!((below - 0.1).abs() < 1e-9);
        let above = m.normalized_throughput(0.02, 100);
        assert!(above < 2.0 * below + 0.2);
        assert!((above - m.saturation_rate(100) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn faults_shrink_capacity_and_stretch_paths() {
        let mesh = Mesh::square(10);
        let free = AnalyticModel::new(&mesh, &FaultPattern::fault_free(&mesh));
        let pattern = FaultPattern::from_rects(
            &mesh,
            &[wormsim_topology::Rect::new(
                Coord::new(4, 3),
                Coord::new(5, 6),
            )],
        )
        .unwrap();
        let faulty = AnalyticModel::new(&mesh, &pattern);
        assert!(faulty.mean_distance() > free.mean_distance());
        assert!(faulty.saturation_rate(100) < free.saturation_rate(100));
        assert_eq!(faulty.num_healthy(), 92);
        // No path crosses a faulty node's channels.
        for (i, s) in faulty.channel_share().iter().enumerate() {
            let ch = ChannelId(i as u32);
            let src = mesh.channel_src(ch);
            if pattern.is_faulty(src) {
                assert_eq!(*s, 0.0, "share through faulty source");
            }
            if let Some(dst) = mesh.channel_dest(ch) {
                if pattern.is_faulty(dst) {
                    assert_eq!(*s, 0.0, "share into faulty node");
                }
            }
        }
    }

    #[test]
    fn symmetric_mesh_has_symmetric_bottleneck() {
        // Fault-free: the bisection channels dominate; the max share should
        // be attained by more than one channel (symmetry).
        let m = model_10();
        let max = m.max_share();
        let at_max = m
            .channel_share()
            .iter()
            .filter(|&&s| (s - max).abs() < 1e-9)
            .count();
        assert!(at_max >= 2, "expected symmetric bottlenecks, got {at_max}");
    }
}
