//! Throughput accounting.

use serde::{Deserialize, Serialize};

/// Delivered-traffic statistics over a measurement window.
///
/// The paper's *normalized throughput* is "the number of messages received
/// over the number of messages that can be transmitted at the maximum load"
/// (§5.1). With one ejection port of 1 flit/cycle per node, the maximum is
/// `cycles × nodes / message_length` messages; normalized throughput is
/// therefore the delivered flit rate per node per cycle.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThroughputStats {
    messages_delivered: u64,
    flits_delivered: u64,
    messages_injected: u64,
    cycles: u64,
    nodes: u64,
}

impl ThroughputStats {
    /// Accumulator for a window over `nodes` traffic-generating nodes.
    pub fn new(nodes: usize) -> Self {
        ThroughputStats {
            nodes: nodes as u64,
            ..Default::default()
        }
    }

    /// Record a delivered message of `flits` flits.
    pub fn record_delivery(&mut self, flits: u32) {
        self.messages_delivered += 1;
        self.flits_delivered += flits as u64;
    }

    /// Record a newly generated message.
    pub fn record_injection(&mut self) {
        self.messages_injected += 1;
    }

    /// Set the measurement window length.
    pub fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Messages delivered in the window.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages generated in the window.
    pub fn messages_injected(&self) -> u64 {
        self.messages_injected
    }

    /// Flits delivered in the window.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    /// Delivered messages per node per cycle.
    pub fn message_rate(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.messages_delivered as f64 / self.cycles as f64 / self.nodes as f64
    }

    /// Delivered flits per node per cycle — the paper's normalized
    /// throughput (1.0 = every node ejects a flit every cycle).
    pub fn normalized(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / self.cycles as f64 / self.nodes as f64
    }

    /// Fraction of generated messages that were delivered inside the window
    /// (an acceptance proxy; > 1 is possible when warm-up messages drain
    /// into the window).
    pub fn acceptance(&self) -> f64 {
        if self.messages_injected == 0 {
            return 0.0;
        }
        self.messages_delivered as f64 / self.messages_injected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_zero() {
        let t = ThroughputStats::new(100);
        assert_eq!(t.normalized(), 0.0);
        assert_eq!(t.message_rate(), 0.0);
        assert_eq!(t.acceptance(), 0.0);
    }

    #[test]
    fn normalized_throughput() {
        let mut t = ThroughputStats::new(100);
        // 200 messages of 100 flits over 20k cycles on 100 nodes:
        // 20000 flits / 20000 cycles / 100 nodes = 0.01.
        for _ in 0..200 {
            t.record_delivery(100);
        }
        t.set_cycles(20_000);
        assert!((t.normalized() - 0.01).abs() < 1e-12);
        assert!((t.message_rate() - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn acceptance_ratio() {
        let mut t = ThroughputStats::new(10);
        for _ in 0..10 {
            t.record_injection();
        }
        for _ in 0..8 {
            t.record_delivery(50);
        }
        assert!((t.acceptance() - 0.8).abs() < 1e-12);
    }
}
