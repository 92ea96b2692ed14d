//! # wormsim-experiments
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§5). Each `figN` function runs the simulations behind the
//! corresponding figure and returns its data as [`Table`]s; the `figures`
//! binary renders them to Markdown/CSV under `results/`.
//!
//! | Function | Paper figure | Content |
//! |---|---|---|
//! | [`fig1_saturation_throughput`] | Fig 1 | throughput vs generation rate, fault-free |
//! | [`fig2_latency_vs_rate`] | Fig 2 | message latency vs generation rate, fault-free |
//! | [`fig3_vc_utilization`] | Fig 3a/3b | per-VC utilization at 5 % faults |
//! | [`fig4_throughput_vs_faults`] | Fig 4 | normalized throughput at 0/5/10 % faults |
//! | [`fig5_latency_vs_faults`] | Fig 5 | normalized latency at 0/5/10 % faults |
//! | [`fig6_fring_traffic`] | Fig 6 | traffic load split: f-ring vs other nodes |
//!
//! Runs fan out over threads (one simulation per work item); everything is
//! deterministic given [`ExperimentConfig::base_seed`].

mod ablations;
mod config;
mod dynamic;
mod figures;
mod fingerprint;
mod pool;
mod runner;
mod table;

pub use ablations::{
    ablation_arbitration, ablation_buffer_depth, ablation_mesh_size, ablation_message_length,
    ablation_misroute_limit, ablation_traffic_patterns, ablation_turn_models, ablation_vc_budget,
};
pub use config::{ExperimentConfig, Scale};
pub use dynamic::{dynamic_faults, DYNAMIC_KINDS, DYNAMIC_RATE};
pub use figures::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization,
    fig4_throughput_vs_faults, fig5_latency_vs_faults, fig6_fring_traffic, paper_52_layout,
    FigureResult, ANALYSIS_RATE, FULL_LOAD_RATE, RATE_SWEEP,
};
pub use fingerprint::{fnv1a, report_fingerprint, report_json_fingerprint};
pub use pool::WorkerPool;
pub use runner::{
    parallel_map, parallel_map_with_progress, run_custom, run_single, CustomSpec, RunSpec,
};
pub use table::Table;
pub use wormsim_obs::Progress;
