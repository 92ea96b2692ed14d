//! Per-node traffic load and the f-ring/other split (paper §5.2, Figure 6).

use serde::{Deserialize, Serialize};
use wormsim_topology::NodeId;

/// Counts flit arrivals at every node's input buffers over the measurement
/// window. The paper's Figure 6 compares the load on f-ring nodes against
/// the other (non-faulty, non-ring) nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeLoadStats {
    arrivals: Vec<u64>,
    cycles: u64,
}

impl NodeLoadStats {
    /// Accumulator over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        NodeLoadStats {
            arrivals: vec![0; num_nodes],
            cycles: 0,
        }
    }

    /// Record one flit arriving at node `n`.
    #[inline]
    pub fn record_arrival(&mut self, n: NodeId) {
        self.arrivals[n.index()] += 1;
    }

    /// Record `k` flit arrivals at node `n` in one update. The engine
    /// calls it once per node when the measurement window closes (and on
    /// a copy when a report is taken inside the window), with the node's
    /// arrivals over the window counted from its stages' `entered`.
    #[inline]
    pub fn record_arrivals(&mut self, n: NodeId, k: u64) {
        self.arrivals[n.index()] += k;
    }

    /// Advance the measured-cycle count.
    #[inline]
    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    /// Raw arrival counts.
    pub fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    /// Per-node load in flits per cycle.
    pub fn load_per_cycle(&self) -> Vec<f64> {
        self.arrivals
            .iter()
            .map(|&a| {
                if self.cycles > 0 {
                    a as f64 / self.cycles as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Summarize the split between nodes on f-rings (`on_ring[n] == true`)
    /// and the remaining usable nodes. `usable[n]` excludes faulty nodes
    /// from the "other" class. Loads are normalized to the busiest node
    /// (= 100%), matching the paper's percentage presentation.
    pub fn ring_summary(&self, on_ring: &[bool], usable: &[bool]) -> RingLoadSummary {
        assert_eq!(on_ring.len(), self.arrivals.len());
        assert_eq!(usable.len(), self.arrivals.len());
        let peak = self
            .arrivals
            .iter()
            .enumerate()
            .filter(|&(i, _)| usable[i])
            .map(|(_, &a)| a)
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        let mut ring = ClassAccum::default();
        let mut other = ClassAccum::default();
        for (i, &a) in self.arrivals.iter().enumerate() {
            if !usable[i] {
                continue;
            }
            let share = a as f64 / peak;
            if on_ring[i] {
                ring.add(share);
            } else {
                other.add(share);
            }
        }
        RingLoadSummary {
            ring_mean_percent: ring.mean() * 100.0,
            ring_peak_percent: ring.peak * 100.0,
            other_mean_percent: other.mean() * 100.0,
            other_peak_percent: other.peak * 100.0,
            ring_nodes: ring.count,
            other_nodes: other.count,
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &NodeLoadStats) {
        assert_eq!(self.arrivals.len(), other.arrivals.len());
        for (a, b) in self.arrivals.iter_mut().zip(&other.arrivals) {
            *a += b;
        }
        self.cycles += other.cycles;
    }
}

#[derive(Default)]
struct ClassAccum {
    sum: f64,
    peak: f64,
    count: usize,
}

impl ClassAccum {
    fn add(&mut self, share: f64) {
        self.sum += share;
        self.peak = self.peak.max(share);
        self.count += 1;
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The Figure 6 data point: traffic load (as a percentage of the busiest
/// node) on f-ring nodes versus the other usable nodes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RingLoadSummary {
    /// Mean load of f-ring nodes, % of peak.
    pub ring_mean_percent: f64,
    /// Peak load among f-ring nodes, % of peak.
    pub ring_peak_percent: f64,
    /// Mean load of non-ring usable nodes, % of peak.
    pub other_mean_percent: f64,
    /// Peak load among non-ring usable nodes, % of peak.
    pub other_peak_percent: f64,
    /// Number of f-ring nodes.
    pub ring_nodes: usize,
    /// Number of other usable nodes.
    pub other_nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_per_cycle() {
        let mut s = NodeLoadStats::new(4);
        for _ in 0..10 {
            s.tick();
        }
        for _ in 0..20 {
            s.record_arrival(NodeId(2));
        }
        let l = s.load_per_cycle();
        assert_eq!(l[2], 2.0);
        assert_eq!(l[0], 0.0);
    }

    #[test]
    fn ring_summary_splits_classes() {
        let mut s = NodeLoadStats::new(4);
        s.tick();
        // Node 0: ring, 100 arrivals (peak). Node 1: ring, 50.
        // Node 2: other, 25. Node 3: faulty, 999 (ignored).
        for _ in 0..100 {
            s.record_arrival(NodeId(0));
        }
        for _ in 0..50 {
            s.record_arrival(NodeId(1));
        }
        for _ in 0..25 {
            s.record_arrival(NodeId(2));
        }
        for _ in 0..999 {
            s.record_arrival(NodeId(3));
        }
        let on_ring = [true, true, false, false];
        let usable = [true, true, true, false];
        let sum = s.ring_summary(&on_ring, &usable);
        // Peak is over usable nodes only (node 3's count is ignored).
        assert!((sum.ring_peak_percent - 100.0).abs() < 1e-9);
        assert!((sum.ring_mean_percent - 75.0).abs() < 1e-9);
        assert!((sum.other_mean_percent - 25.0).abs() < 1e-9);
        assert_eq!(sum.ring_nodes, 2);
        assert_eq!(sum.other_nodes, 1);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = NodeLoadStats::new(2);
        let sum = s.ring_summary(&[false, false], &[true, true]);
        assert_eq!(sum.ring_mean_percent, 0.0);
        assert_eq!(sum.other_mean_percent, 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = NodeLoadStats::new(2);
        a.tick();
        a.record_arrival(NodeId(0));
        let mut b = NodeLoadStats::new(2);
        b.tick();
        b.record_arrival(NodeId(0));
        b.record_arrival(NodeId(1));
        a.merge(&b);
        assert_eq!(a.arrivals(), &[2, 1]);
        assert_eq!(a.load_per_cycle()[0], 1.0);
    }
}
