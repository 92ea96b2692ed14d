//! # wormsim-experiments
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§5). Each `figN` function runs the simulations behind the
//! corresponding figure and returns its data as [`Table`]s; the `figures`
//! binary renders them to Markdown/JSON/CSV under `results/`.
//!
//! | Function | Paper figure | Content |
//! |---|---|---|
//! | [`fig1_saturation_throughput`] | Fig 1 | throughput vs generation rate, fault-free |
//! | [`fig2_latency_vs_rate`] | Fig 2 | message latency vs generation rate, fault-free |
//! | [`fig3_vc_utilization`] | Fig 3a/3b | per-VC utilization at 5 % faults |
//! | [`fig4_fig5_fault_sweep`] | Figs 4, 5 | normalized throughput and latency at 0/5/10 % faults |
//! | [`fig6_fring_traffic`] | Fig 6 | traffic load split: f-ring vs other nodes |
//!
//! Runs fan out over scoped threads with [`parallel_map`] (one simulation
//! per work item); everything is deterministic given
//! [`ExperimentConfig::base_seed`].

#![forbid(unsafe_code)]

mod ablations;
mod config;
mod dynamic;
mod figures;
mod fingerprint;
mod runner;
mod table;

pub use ablations::{
    ablation_arbitration, ablation_buffer_depth, ablation_fault_axis, ablation_mesh_size,
    ablation_message_length, ablation_misroute_limit, ablation_traffic_patterns,
    ablation_turn_models, ablation_vc_budget,
};
pub use config::{parse_algorithm, ExperimentConfig, Scale};
pub use dynamic::{dynamic_faults, DYNAMIC_KINDS, DYNAMIC_RATE};
pub use figures::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization, fig4_fig5_fault_sweep,
    fig6_fring_traffic, paper_52_layout, provenance, FigureResult, ANALYSIS_RATE, FULL_LOAD_RATE,
    RATE_SWEEP,
};
pub use fingerprint::{fnv1a, report_fingerprint, report_json_fingerprint};
pub use runner::{
    parallel_map, parallel_map_with_progress, run_custom, run_single, CustomSpec, RunSpec,
};
pub use table::Table;
pub use wormsim_obs::Progress;

/// The worker-pool contract [`parallel_map`] keeps on its scoped threads:
/// every item runs exactly once, whatever the batch size, and a batch
/// too small to share stays on the caller.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::parallel_map;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::thread;

        #[test]
        fn pool_runs_every_item_exactly_once() {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let items: Vec<usize> = (0..hits.len()).collect();
            parallel_map(&items, 8, |&i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
            }
        }

        #[test]
        fn pool_zero_items_is_a_noop() {
            let out: Vec<()> = parallel_map(&[] as &[usize], 8, |_| unreachable!("no items"));
            assert!(out.is_empty());
        }

        #[test]
        fn pool_single_item_runs_on_the_caller() {
            // A one-item batch spawns no helper: the caller runs it.
            let caller = thread::current().id();
            let ran = AtomicUsize::new(0);
            parallel_map(&[0usize], 16, |&i| {
                assert_eq!(i, 0);
                assert_eq!(thread::current().id(), caller);
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        }

        #[test]
        fn pool_chunks_cover_uneven_totals() {
            for total in [1usize, 2, 3, 7, 17, 63, 64, 65] {
                let sum = AtomicUsize::new(0);
                let items: Vec<usize> = (0..total).collect();
                parallel_map(&items, 5, |&i| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), total * (total + 1) / 2);
            }
        }
    }
}
