//! The combined per-simulation report.

use crate::{
    LatencyStats, NodeLoadStats, RecoveryStats, RingLoadSummary, ThroughputStats, VcUsageStats,
};
use serde::{Deserialize, Serialize};

/// Everything one simulation run measured. Produced by the engine,
/// consumed by the experiment harness and benches.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Algorithm display name.
    pub algorithm: String,
    /// Offered generation rate (messages/node/cycle).
    pub offered_rate: f64,
    /// Message length in flits.
    pub message_length: u32,
    /// Number of seed-faulty nodes in the pattern.
    pub seed_faults: usize,
    /// Number of unusable (faulty + disabled) nodes.
    pub total_faults: usize,
    /// Measured cycles (after warm-up).
    pub measured_cycles: u64,
    /// Total latency (generation → tail delivery, source queueing
    /// included) over messages delivered in the measurement window.
    pub latency: LatencyStats,
    /// Network latency (first flit injected → tail delivery) over the same
    /// messages — the paper's "message latency (flit cycles)" measure.
    pub network_latency: LatencyStats,
    /// Delivered-traffic statistics.
    pub throughput: ThroughputStats,
    /// Per-VC utilization.
    pub vc_usage: VcUsageStats,
    /// Per-node flit arrivals.
    pub node_load: NodeLoadStats,
    /// Watchdog recoveries (messages dropped & retried). Nonzero values for
    /// provably deadlock-free algorithms indicate a model violation.
    pub recoveries: u64,
    /// Hops taken on fault-tolerance overlay (ring detour) VCs, whole run.
    pub ring_hops: u64,
    /// Misroutes summed over delivered messages, whole run.
    pub total_misroutes: u64,
    /// Messages still in flight when the run ended.
    pub in_flight_at_end: u64,
    /// The f-ring/other load split (only meaningful with faults).
    pub ring_load: Option<RingLoadSummary>,
    /// Online fault-recovery statistics (`None` for static-fault runs
    /// without a chaos driver installed).
    pub recovery: Option<RecoveryStats>,
}

impl SimReport {
    /// Mean total latency, or `f64::NAN` when nothing was delivered.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean().unwrap_or(f64::NAN)
    }

    /// Mean network latency (the paper's figure measure), or `f64::NAN`
    /// when nothing was delivered.
    pub fn mean_network_latency(&self) -> f64 {
        self.network_latency.mean().unwrap_or(f64::NAN)
    }

    /// Normalized throughput (delivered flits / node / cycle).
    pub fn normalized_throughput(&self) -> f64 {
        self.throughput.normalized()
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<24} rate={:.4} thr={:.4} lat={:.1} delivered={} recov={}",
            self.algorithm,
            self.offered_rate,
            self.normalized_throughput(),
            self.mean_latency(),
            self.throughput.messages_delivered(),
            self.recoveries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut latency = LatencyStats::new();
        latency.record(120);
        let mut network_latency = LatencyStats::new();
        network_latency.record(110);
        let mut throughput = ThroughputStats::new(100);
        throughput.record_delivery(100);
        throughput.set_cycles(1000);
        SimReport {
            algorithm: "PHop".into(),
            offered_rate: 0.001,
            message_length: 100,
            seed_faults: 0,
            total_faults: 0,
            measured_cycles: 1000,
            latency,
            network_latency,
            throughput,
            vc_usage: VcUsageStats::new(24, 360),
            node_load: NodeLoadStats::new(100),
            recoveries: 0,
            ring_hops: 0,
            total_misroutes: 0,
            in_flight_at_end: 0,
            ring_load: None,
            recovery: None,
        }
    }

    #[test]
    fn accessors() {
        let r = report();
        assert_eq!(r.mean_latency(), 120.0);
        assert_eq!(r.mean_network_latency(), 110.0);
        assert!((r.normalized_throughput() - 0.001).abs() < 1e-12);
        assert!(r.summary_line().contains("PHop"));
    }

    #[test]
    fn serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "PHop");
        assert_eq!(back.latency.count(), 1);
    }
}
