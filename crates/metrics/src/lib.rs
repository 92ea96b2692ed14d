//! # wormsim-metrics
//!
//! Statistics collected by the simulator, matching the paper's measures
//! (§5): average message latency, (normalized) throughput, per-VC
//! utilization (Fig 3), and per-node traffic load with the f-ring/other
//! split (Fig 6).

#![forbid(unsafe_code)]

mod latency;
mod node_load;
mod recovery;
mod report;
mod throughput;
mod vc_usage;

pub use latency::LatencyStats;
pub use node_load::{NodeLoadStats, RingLoadSummary};
pub use recovery::{RecoveryEvent, RecoveryStats, SETTLE_FRACTION};
pub use report::SimReport;
pub use throughput::ThroughputStats;
pub use vc_usage::VcUsageStats;
