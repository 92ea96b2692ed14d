//! One function per paper figure.

use crate::config::ExperimentConfig;
use crate::runner::{derive_seed, parallel_map_with_progress, run_single, RunSpec};
use crate::table::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wormsim_fault::{FaultPattern, FaultPatternBuilder};
use wormsim_metrics::SimReport;
use wormsim_routing::AlgorithmKind;
use wormsim_topology::{Coord, Mesh, Rect};

/// The reproduced data behind one paper figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureResult {
    /// Short identifier ("fig1" … "fig6").
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The figure's data (some figures have two panels).
    pub tables: Vec<Table>,
    /// Parameters and caveats recorded alongside the data.
    pub notes: Vec<String>,
}

/// Generation rates swept in Figures 1–2. The paper's tick marks
/// (0.0001 … 0.0251) plus intermediate points resolving the rise to
/// saturation.
pub const RATE_SWEEP: [f64; 9] = [
    0.0001, 0.0010, 0.0020, 0.0030, 0.0051, 0.0101, 0.0151, 0.0201, 0.0251,
];

/// The generation rate used as "100 % traffic load" in Figures 4–6: with
/// 100-flit messages and a 1 flit/cycle ejection port, 0.01 messages per
/// node per cycle offers exactly the maximum deliverable load.
pub const FULL_LOAD_RATE: f64 = 0.01;

/// A moderate near-saturation rate used for the VC-usage and f-ring
/// analyses.
pub const ANALYSIS_RATE: f64 = 0.004;

fn algorithm_columns(kinds: &[AlgorithmKind]) -> Vec<String> {
    kinds.iter().map(|k| k.paper_name().to_string()).collect()
}

/// Random fault patterns shared by every algorithm in a fault case (the
/// paper: "comparative performance across different fault cases is in
/// accordance with the fault sets used"). `Arc`-wrapped so every spec
/// shares one allocation per pattern.
fn fault_patterns(cfg: &ExperimentConfig, faults: usize, salt: u64) -> Vec<Arc<FaultPattern>> {
    let mesh = Mesh::square(cfg.mesh_size);
    if faults == 0 {
        return vec![Arc::new(FaultPattern::fault_free(&mesh))];
    }
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, salt, faults as u64, 0));
    (0..cfg.fault_patterns)
        .map(|_| {
            Arc::new(
                FaultPatternBuilder::new(faults)
                    .generate(&mesh, &mut rng)
                    .expect("fault pattern generation failed"),
            )
        })
        .collect()
}

/// **Figure 1** — saturation throughput of the ten algorithms against the
/// traffic generation rate on a fault-free 10×10 mesh (100-flit messages,
/// 24 VCs per physical channel).
pub fn fig1_saturation_throughput(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = AlgorithmKind::FAULT_FREE_TEN;
    let mesh = Mesh::square(cfg.mesh_size);
    let pattern = Arc::new(FaultPattern::fault_free(&mesh));
    let specs: Vec<RunSpec> = RATE_SWEEP
        .iter()
        .flat_map(|&rate| {
            let pattern = &pattern;
            kinds.iter().map(move |&kind| RunSpec {
                kind,
                pattern: pattern.clone(),
                rate,
                seed: derive_seed(cfg.base_seed, 1, kind as u64, (rate * 1e6) as u64),
            })
        })
        .collect();
    let reports = parallel_map_with_progress(&specs, cfg.threads, cfg.progress, "fig1", |s| {
        run_single(cfg, s).expect("runnable spec")
    });
    let mut table = Table::new(
        "Saturation throughput vs traffic generation rate (fault-free 10×10 mesh)",
        "rate (msgs/node/cycle)",
        algorithm_columns(&kinds),
    );
    for (ri, &rate) in RATE_SWEEP.iter().enumerate() {
        let values = (0..kinds.len())
            .map(|ki| reports[ri * kinds.len() + ki].normalized_throughput())
            .collect();
        table.push_row(format!("{rate:.4}"), values);
    }
    FigureResult {
        id: "fig1",
        title: "Figure 1: throughput vs traffic load".into(),
        tables: vec![table],
        notes: vec![
            format!("mesh {0}×{0}, 100-flit messages, 24 VCs/PC", cfg.mesh_size),
            "normalized throughput = delivered flits / node / cycle".into(),
        ],
    }
}

/// **Figure 2** — average message latency (flit cycles, network latency)
/// of the ten algorithms against the traffic generation rate, fault-free.
pub fn fig2_latency_vs_rate(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = AlgorithmKind::FAULT_FREE_TEN;
    let mesh = Mesh::square(cfg.mesh_size);
    let pattern = Arc::new(FaultPattern::fault_free(&mesh));
    let specs: Vec<RunSpec> = RATE_SWEEP
        .iter()
        .flat_map(|&rate| {
            let pattern = &pattern;
            kinds.iter().map(move |&kind| RunSpec {
                kind,
                pattern: pattern.clone(),
                rate,
                seed: derive_seed(cfg.base_seed, 2, kind as u64, (rate * 1e6) as u64),
            })
        })
        .collect();
    let reports = parallel_map_with_progress(&specs, cfg.threads, cfg.progress, "fig2", |s| {
        run_single(cfg, s).expect("runnable spec")
    });
    let mut table = Table::new(
        "Average message latency vs traffic generation rate (fault-free 10×10 mesh)",
        "rate (msgs/node/cycle)",
        algorithm_columns(&kinds),
    );
    for (ri, &rate) in RATE_SWEEP.iter().enumerate() {
        let values = (0..kinds.len())
            .map(|ki| reports[ri * kinds.len() + ki].mean_network_latency())
            .collect();
        table.push_row(format!("{rate:.4}"), values);
    }
    FigureResult {
        id: "fig2",
        title: "Figure 2: average message latency vs traffic load".into(),
        tables: vec![table],
        notes: vec!["latency = first flit injected → tail delivered (flit cycles)".into()],
    }
}

/// **Figure 3** — per-VC average utilization at 5 % node faults, split into
/// the paper's two panels: (a) basic free-choice/hop-based algorithms,
/// (b) bonus-card/Duato/Boura-FT algorithms.
pub fn fig3_vc_utilization(cfg: &ExperimentConfig) -> FigureResult {
    let panel_a = [
        AlgorithmKind::FullyAdaptive,
        AlgorithmKind::Pbc,
        AlgorithmKind::MinimalAdaptive,
        AlgorithmKind::NHop,
        AlgorithmKind::PHop,
        AlgorithmKind::BouraAdaptive,
    ];
    let panel_b = [
        AlgorithmKind::Nbc,
        AlgorithmKind::Duato,
        AlgorithmKind::DuatoPbc,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::BouraFaultTolerant,
    ];
    let faults = (cfg.mesh_size as usize * cfg.mesh_size as usize) / 20; // 5 %
    let patterns = fault_patterns(cfg, faults, 3);

    let run_panel = |kinds: &[AlgorithmKind], panel: &str| -> Table {
        let specs: Vec<RunSpec> = kinds
            .iter()
            .flat_map(|&kind| {
                patterns.iter().enumerate().map(move |(pi, p)| RunSpec {
                    kind,
                    pattern: p.clone(),
                    rate: ANALYSIS_RATE,
                    seed: derive_seed(cfg.base_seed, 3, kind as u64, pi as u64),
                })
            })
            .collect();
        let reports = parallel_map_with_progress(
            &specs,
            cfg.threads,
            cfg.progress,
            &format!("fig3 panel {panel}"),
            |s| run_single(cfg, s).expect("runnable spec"),
        );
        let mut table = Table::new(
            format!("Per-VC utilization (%) at 5% faults — panel {panel}"),
            "VC index",
            algorithm_columns(kinds),
        );
        // Merge the patterns of each algorithm, then emit one row per VC.
        let merged: Vec<Vec<f64>> = kinds
            .iter()
            .enumerate()
            .map(|(ki, _)| {
                let mut acc = reports[ki * patterns.len()].vc_usage.clone();
                for pi in 1..patterns.len() {
                    acc.merge(&reports[ki * patterns.len() + pi].vc_usage);
                }
                acc.utilization_percent()
            })
            .collect();
        let num_vcs = merged[0].len();
        for vc in 0..num_vcs {
            table.push_row(format!("VC{vc}"), merged.iter().map(|u| u[vc]).collect());
        }
        table
    };

    FigureResult {
        id: "fig3",
        title: "Figure 3: virtual channel utilization at 5% faults".into(),
        tables: vec![run_panel(&panel_a, "a"), run_panel(&panel_b, "b")],
        notes: vec![
            format!(
                "rate {ANALYSIS_RATE}, {} random 5%-fault patterns averaged",
                patterns.len()
            ),
            "utilization = fraction of (channel × cycle) slots the VC was held".into(),
        ],
    }
}

/// Shared sweep behind Figures 4 and 5: every algorithm × fault case at
/// 100 % traffic load, averaged over the shared fault sets.
fn fault_sweep(cfg: &ExperimentConfig, salt: u64) -> Vec<(usize, AlgorithmKind, Vec<SimReport>)> {
    let kinds = AlgorithmKind::ALL;
    let nodes = cfg.mesh_size as usize * cfg.mesh_size as usize;
    let cases = [0usize, nodes / 20, nodes / 10]; // 0 %, 5 %, 10 %
    let mut out = Vec::new();
    for &faults in &cases {
        let patterns = fault_patterns(cfg, faults, salt);
        let specs: Vec<RunSpec> = kinds
            .iter()
            .flat_map(|&kind| {
                patterns.iter().enumerate().map(move |(pi, p)| RunSpec {
                    kind,
                    pattern: p.clone(),
                    rate: FULL_LOAD_RATE,
                    seed: derive_seed(cfg.base_seed, salt, kind as u64, (faults * 100 + pi) as u64),
                })
            })
            .collect();
        let reports = parallel_map_with_progress(
            &specs,
            cfg.threads,
            cfg.progress,
            &format!("fault sweep ({faults} faults)"),
            |s| run_single(cfg, s).expect("runnable spec"),
        );
        for (ki, &kind) in kinds.iter().enumerate() {
            let slice = reports[ki * patterns.len()..(ki + 1) * patterns.len()].to_vec();
            out.push((faults, kind, slice));
        }
    }
    out
}

fn fault_case_table(
    cfg: &ExperimentConfig,
    title: &str,
    value: impl Fn(&SimReport) -> f64,
    salt: u64,
) -> Table {
    let sweep = fault_sweep(cfg, salt);
    let kinds = AlgorithmKind::ALL;
    let nodes = cfg.mesh_size as usize * cfg.mesh_size as usize;
    let mut table = Table::new(title, "faults", algorithm_columns(&kinds));
    for &faults in &[0usize, nodes / 20, nodes / 10] {
        let values: Vec<f64> = kinds
            .iter()
            .map(|&kind| {
                let (_, _, reports) = sweep
                    .iter()
                    .find(|(f, k, _)| *f == faults && *k == kind)
                    .expect("sweep entry");
                let vals: Vec<f64> = reports.iter().map(&value).filter(|v| !v.is_nan()).collect();
                if vals.is_empty() {
                    f64::NAN
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            })
            .collect();
        table.push_row(format!("{}%", faults * 100 / nodes), values);
    }
    table
}

/// **Figure 4** — normalized throughput at 0 %, 5 %, 10 % faulty nodes,
/// 100 % traffic load, averaged over the shared fault sets.
pub fn fig4_throughput_vs_faults(cfg: &ExperimentConfig) -> FigureResult {
    let table = fault_case_table(
        cfg,
        "Normalized throughput vs percentage of faulty nodes (100% load)",
        |r| r.normalized_throughput(),
        4,
    );
    FigureResult {
        id: "fig4",
        title: "Figure 4: throughput vs fault percentage".into(),
        tables: vec![table],
        notes: vec![format!(
            "rate {FULL_LOAD_RATE} (100% load), {} fault sets per case",
            cfg.fault_patterns
        )],
    }
}

/// **Figure 5** — normalized message latency at 0 %, 5 %, 10 % faulty
/// nodes, 100 % traffic load, averaged over the shared fault sets.
pub fn fig5_latency_vs_faults(cfg: &ExperimentConfig) -> FigureResult {
    let table = fault_case_table(
        cfg,
        "Normalized message latency (flit cycles) vs percentage of faulty nodes (100% load)",
        |r| r.mean_network_latency(),
        4, // same salt as fig4: identical fault sets and seeds, shared shape
    );
    FigureResult {
        id: "fig5",
        title: "Figure 5: message latency vs fault percentage".into(),
        tables: vec![table],
        notes: vec!["same fault sets and seeds as Figure 4".into()],
    }
}

/// The paper's §5.2 fixed fault layout: one 2-wide × 3-tall block plus two
/// 1×1 blocks.
pub fn paper_52_layout(mesh: &Mesh) -> FaultPattern {
    FaultPattern::from_rects(
        mesh,
        &[
            Rect::new(Coord::new(3, 3), Coord::new(4, 5)),
            Rect::point(Coord::new(7, 7)),
            Rect::point(Coord::new(7, 1)),
        ],
    )
    .expect("paper layout is valid")
}

/// **Figure 6** — traffic load distribution around f-rings: mean/peak load
/// (as % of the busiest node) on f-ring nodes vs the other usable nodes,
/// for the fault-free network and the §5.2 fault layout (~10 % faults).
/// In the fault-free case the "f-ring" class is the same node set the
/// layout's rings would occupy, as in the paper's 0 % bars.
pub fn fig6_fring_traffic(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = AlgorithmKind::ALL;
    let mesh = Mesh::square(cfg.mesh_size);
    let faulty_pattern = paper_52_layout(&mesh);
    let ring_ctx = wormsim_routing::RoutingContext::new(mesh.clone(), faulty_pattern.clone());
    let on_ring: Vec<bool> = mesh
        .nodes()
        .map(|n| ring_ctx.rings().on_any_ring(n))
        .collect();

    let cases: Vec<(String, Arc<FaultPattern>)> = vec![
        ("0%".into(), Arc::new(FaultPattern::fault_free(&mesh))),
        ("10%".into(), Arc::new(faulty_pattern.clone())),
    ];
    let specs: Vec<(usize, RunSpec)> = kinds
        .iter()
        .flat_map(|&kind| {
            cases.iter().enumerate().map(move |(ci, (_, p))| {
                (
                    ci,
                    RunSpec {
                        kind,
                        pattern: p.clone(),
                        rate: ANALYSIS_RATE,
                        seed: derive_seed(cfg.base_seed, 6, kind as u64, ci as u64),
                    },
                )
            })
        })
        .collect();
    let reports =
        parallel_map_with_progress(&specs, cfg.threads, cfg.progress, "fig6", |(_, s)| {
            run_single(cfg, s).expect("runnable spec")
        });

    let mut table = Table::new(
        "Traffic load on f-ring nodes vs other nodes (% of peak node load)",
        "algorithm / fault case",
        vec![
            "f-ring mean".into(),
            "f-ring peak".into(),
            "other mean".into(),
            "other peak".into(),
        ],
    );
    for (i, (ci, spec)) in specs.iter().enumerate() {
        let report = &reports[i];
        let usable: Vec<bool> = mesh.nodes().map(|n| !cases[*ci].1.is_faulty(n)).collect();
        let summary = report.node_load.ring_summary(&on_ring, &usable);
        table.push_row(
            format!("{} {}", spec.kind.paper_name(), cases[*ci].0),
            vec![
                summary.ring_mean_percent,
                summary.ring_peak_percent,
                summary.other_mean_percent,
                summary.other_peak_percent,
            ],
        );
    }
    FigureResult {
        id: "fig6",
        title: "Figure 6: traffic load distribution around fault rings".into(),
        tables: vec![table],
        notes: vec![
            "fault layout: 2×3 block at (3,3)-(4,5) + 1×1 blocks at (7,7), (7,1) (paper §5.2)"
                .into(),
            format!("rate {ANALYSIS_RATE}; loads normalized to the busiest usable node"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 100;
        cfg.sim.measure_cycles = 400;
        cfg.fault_patterns = 1;
        cfg
    }

    #[test]
    fn paper_layout_matches_section_5_2() {
        let mesh = Mesh::square(10);
        let p = paper_52_layout(&mesh);
        assert_eq!(p.regions().len(), 3);
        assert_eq!(p.num_faulty(), 8);
        assert!(p
            .regions()
            .iter()
            .any(|r| (r.width(), r.height()) == (2, 3)));
    }

    #[test]
    fn fig6_runs_at_tiny_scale() {
        let cfg = tiny_cfg();
        let fig = fig6_fring_traffic(&cfg);
        let t = &fig.tables[0];
        // 11 algorithms × 2 cases.
        assert_eq!(t.rows.len(), 22);
        assert_eq!(t.columns.len(), 4);
        // Percentages live in [0, 100].
        for (_, values) in &t.rows {
            for v in values {
                assert!((0.0..=100.0).contains(v), "out-of-range {v}");
            }
        }
    }

    #[test]
    fn fault_patterns_shared_and_deterministic() {
        let cfg = tiny_cfg();
        let a = fault_patterns(&cfg, 5, 9);
        let b = fault_patterns(&cfg, 5, 9);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].regions(), b[0].regions());
        let c = fault_patterns(&cfg, 5, 10);
        // Different salt → (almost surely) different pattern.
        assert_ne!(a[0].regions(), c[0].regions());
    }

    #[test]
    fn fig1_structure_at_tiny_scale() {
        let mut cfg = tiny_cfg();
        cfg.sim.measure_cycles = 300;
        let fig = fig1_saturation_throughput(&cfg);
        let t = &fig.tables[0];
        assert_eq!(t.columns.len(), 10);
        assert_eq!(t.rows.len(), RATE_SWEEP.len());
        // Low-rate throughput should be near the offered load for at least
        // the first row (all algorithms deliver everything).
        let (_, first) = &t.rows[0];
        for v in first {
            assert!(*v >= 0.0);
        }
    }
}
