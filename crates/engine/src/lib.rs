//! # wormsim-engine
//!
//! The flit-level, cycle-accurate wormhole network simulator (paper §5:
//! "we have developed a flit-level simulator … for wormhole switching in
//! 2-D meshes with and without faults").
//!
//! ## Model
//!
//! - Each physical channel carries `V` virtual channels (paper: 24), each
//!   with a small input flit buffer at the downstream router.
//! - A message holds a VC exclusively from header allocation until its tail
//!   drains (wormhole switching); its flits advance in pipeline fashion,
//!   one flit per link per cycle.
//! - The crossbar lets any number of distinct (input VC → output VC) pairs
//!   through a node per cycle, but each physical link moves at most one
//!   flit per cycle, and each node ejects at most one flit per cycle
//!   through its local port.
//! - Output conflicts (VC allocation and link bandwidth) are resolved in
//!   random order every cycle (paper: "conflicts … were resolved in a
//!   random manner").
//! - A watchdog recovers messages that make no progress for a configurable
//!   number of cycles by dropping and re-injecting them (Disha-style
//!   recovery); recoveries are counted in every report. Its clock starts
//!   at message creation, so long source queues at saturation trip it even
//!   for algorithms the routing audit proves deadlock-free (a few per
//!   30 000 cycles on the fault-free paper mesh; DESIGN.md §7).
//!
//! ```
//! use std::sync::Arc;
//! use wormsim_topology::Mesh;
//! use wormsim_fault::FaultPattern;
//! use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
//! use wormsim_traffic::Workload;
//! use wormsim_engine::{SimConfig, Simulator};
//!
//! let mesh = Mesh::square(10);
//! let ctx = Arc::new(RoutingContext::new(mesh.clone(), FaultPattern::fault_free(&mesh)));
//! let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
//! let cfg = SimConfig { warmup_cycles: 500, measure_cycles: 1500, ..SimConfig::paper() };
//! let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(0.001), cfg);
//! let report = sim.run();
//! assert!(report.throughput.messages_delivered() > 0);
//! assert_eq!(report.recoveries, 0);
//! ```
//!
//! ## Layout
//!
//! `simulator` holds the [`Simulator`] state and slab; its children are
//! `step`, `allocate`, `movement`, `recovery`, `diagnose` and `audit`.
//! `message` is a worm as boundary counters, `waiters` the wake lists.

#![forbid(unsafe_code)]

mod config;
mod fault_hook;
mod message;
mod profile;
mod simulator;
mod sources;
mod waiters;

pub use config::{Arbitration, ConfigError, SimConfig};
pub use fault_hook::{FaultActivation, FaultDriver};
pub use message::MsgId;
pub use profile::{Phase, PhaseTimes, NUM_PHASES};
pub use simulator::Simulator;
// Observability layer, re-exported so engine users can attach sinks and
// consume stall diagnoses without naming `wormsim-obs` themselves.
pub use wormsim_obs::{
    ChromeTraceSink, EventKind, JsonlSink, NullSink, RingSink, Sink, StallDiagnosis, StallMessage,
    TeeSink, TraceEvent, VecSink, WaitEdge,
};
