//! One function per paper figure.

use crate::config::{ExperimentConfig, Scale};
use crate::grid::{derive_seed, Grid};
use crate::runner::{run_single, RunSpec};
use crate::table::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use wormsim_engine::ConfigError;
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::{AlgorithmKind, RoutingContext};
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

/// A results file's header: scale, base seed, fault sets per case and
/// the source commit (the short hash of `HEAD`, with `-dirty` when
/// tracked files differ from it; `unknown` without git).
pub fn provenance(scale: Scale, cfg: &ExperimentConfig) -> String {
    let commit = Command::new("git")
        .args(["describe", "--always", "--dirty", "--exclude=*"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    format!(
        "{scale:?} scale, base seed {:#X}, {} fault sets per case, source commit {commit}",
        cfg.base_seed, cfg.fault_patterns
    )
}

/// Every study `figures` runs, in `all` order, with the number of tables
/// its result holds. The id is also the stem of the files the study
/// writes ([`output_files`]), so the two together name every file before
/// any study runs.
pub const STUDIES: [(&str, usize); 17] = [
    ("fig1", 1),
    ("fig2", 1),
    ("fig3", 2),
    ("fig4", 1),
    ("fig5", 1),
    ("fig6", 1),
    ("ablation_vc_budget", 2),
    ("ablation_message_length", 2),
    ("ablation_buffer_depth", 1),
    ("ablation_traffic", 2),
    ("ablation_misroute", 1),
    ("ablation_arbitration", 1),
    ("ablation_turn_models", 2),
    ("ablation_mesh_size", 2),
    ("ablation_fault_axis", 1),
    ("deadlock_census", 1),
    ("dynamic_faults", 5),
];

/// The files [`FigureResult::write`] writes into `out_dir` for study `id`
/// with `tables` tables, in its order: one CSV per table (`<id>.csv`, or
/// `<id>_a.csv`, `<id>_b.csv`, … for several), then `<id>.json` and
/// `<id>.md`.
pub fn output_files(out_dir: &str, id: &str, tables: usize) -> Vec<String> {
    let csv = |i: usize| match tables {
        1 => format!("{out_dir}/{id}.csv"),
        _ => format!("{out_dir}/{id}_{}.csv", (b'a' + i as u8) as char),
    };
    let mut files: Vec<String> = (0..tables).map(csv).collect();
    files.push(format!("{out_dir}/{id}.json"));
    files.push(format!("{out_dir}/{id}.md"));
    files
}

/// Whether every file in `paths` can be written, found without changing
/// any: an existing file is opened for appending, a missing one is
/// created and removed again. The first that cannot be is reported as
/// [`FigureResult::write`] reports it, `cannot write <path>: <error>`.
pub fn check_writable(paths: &[String]) -> Result<(), String> {
    for path in paths {
        let cannot = |e: std::io::Error| format!("cannot write {path}: {e}");
        let existed = std::fs::symlink_metadata(path).is_ok();
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(cannot)?;
        if !existed {
            std::fs::remove_file(path).map_err(cannot)?;
        }
    }
    Ok(())
}

/// The JSON form of a results file: the header, then the figure.
#[derive(Serialize)]
struct FigureFile {
    provenance: String,
    figure: FigureResult,
}

impl FigureResult {
    /// Write `<id>.md` and `<id>.json` (both led by `provenance`) and one
    /// CSV per table (`<id>.csv`, or `<id>_a.csv`, `<id>_b.csv`, …) into
    /// `out_dir`; returns the Markdown, or the first file that could not
    /// be written as `cannot write <path>: <error>`. `plot` adds a
    /// terminal chart under each table.
    pub fn write(
        &self,
        out_dir: &str,
        provenance: &str,
        elapsed: Duration,
        plot: bool,
    ) -> Result<String, String> {
        let write = |path: &String, contents: &str| {
            std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
        };
        let files = output_files(out_dir, self.id, self.tables.len());
        let mut md = format!("## {}\n\n_provenance: {provenance}_\n\n", self.title);
        for note in &self.notes {
            md.push_str(&format!("- {note}\n"));
        }
        md.push('\n');
        for (i, table) in self.tables.iter().enumerate() {
            md.push_str(&table.to_markdown());
            md.push('\n');
            if plot {
                // Wide tables read better as line charts; bar-style data
                // (few columns) as bars.
                let chart = if table.columns.len() >= 4 {
                    table.to_line_chart(70, 14)
                } else {
                    table.to_bar_chart(50)
                };
                md.push_str("```text\n");
                md.push_str(&chart);
                md.push_str("```\n\n");
            }
            write(&files[i], &table.to_csv())?;
        }
        md.push_str(&format!("_generated in {elapsed:.2?}_\n"));
        let file = FigureFile {
            provenance: provenance.to_string(),
            figure: self.clone(),
        };
        let tables = self.tables.len();
        write(
            &files[tables],
            &serde_json::to_string_pretty(&file).expect("figure serializes"),
        )?;
        write(&files[tables + 1], &md)?;
        Ok(md)
    }
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

pub(crate) fn algorithm_columns(kinds: &[AlgorithmKind]) -> Vec<String> {
    kinds.iter().map(|k| k.paper_name().to_string()).collect()
}

/// Random fault patterns shared by every algorithm in a fault case (the
/// paper: "comparative performance across different fault cases is in
/// accordance with the fault sets used"), drawn by [`random_pattern`]:
/// `faults` seed failures each, closure victims disabled on top.
/// `Arc`-wrapped so every spec shares one allocation per pattern.
pub(crate) fn fault_patterns(
    cfg: &ExperimentConfig,
    faults: usize,
    salt: u64,
) -> Vec<Arc<FaultPattern>> {
    let mesh = Mesh::square(cfg.mesh_size);
    if faults == 0 {
        return vec![Arc::new(FaultPattern::fault_free(&mesh))];
    }
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, salt, faults as u64, 0));
    (0..cfg.fault_patterns)
        .map(|_| {
            Arc::new(random_pattern(&mesh, faults, &mut rng).expect("fault pattern generation"))
        })
        .collect()
}

/// What a fault case's x-axis value stands for: its seed count, how many
/// sets, and how many nodes those sets leave unavailable.
pub(crate) fn fault_set_note(label: &str, patterns: &[Arc<FaultPattern>]) -> String {
    let unavailable: Vec<usize> = patterns.iter().map(|p| p.num_faulty()).collect();
    let mean = unavailable.iter().sum::<usize>() as f64 / unavailable.len() as f64;
    format!(
        "{label}: {} seed failures × {} sets; unavailable nodes (seeds + closure-disabled) \
         mean {mean:.1}, min {}, max {}",
        patterns[0].num_seed_faulty(),
        patterns.len(),
        unavailable.iter().min().expect("at least one set"),
        unavailable.iter().max().expect("at least one set"),
    )
}

/// **Figures 1 and 2** — saturation throughput and average message
/// latency (flit cycles, network latency) of the ten algorithms against
/// the traffic generation rate on a fault-free 10×10 mesh (100-flit
/// messages, 24 VCs per physical channel). One sweep feeds both figures.
pub fn fig1_fig2_rate_sweep(cfg: &ExperimentConfig) -> (FigureResult, FigureResult) {
    let kinds = AlgorithmKind::FAULT_FREE_TEN;
    let pattern = Arc::new(FaultPattern::fault_free(&Mesh::square(cfg.mesh_size)));
    let rows = RATE_SWEEP.map(|rate| format!("{rate:.4}"));
    let grid = Grid::new(rows, algorithm_columns(&kinds), 1)
        .run(
            cfg,
            "rate sweep",
            1,
            |r, k, _, seed| {
                Some(RunSpec {
                    kind: kinds[k],
                    pattern: pattern.clone(),
                    rate: RATE_SWEEP[r],
                    seed,
                })
            },
            |s| run_single(cfg, s),
        )
        .expect("runnable spec");
    let axis = "rate (msgs/node/cycle)";
    let fig1 = FigureResult {
        id: "fig1",
        title: "Figure 1: throughput vs traffic load".into(),
        tables: vec![grid.table(
            "Saturation throughput vs traffic generation rate (fault-free 10×10 mesh)",
            axis,
            SimReport::normalized_throughput,
        )],
        notes: vec![
            format!("mesh {0}×{0}, 100-flit messages, 24 VCs/PC", cfg.mesh_size),
            "normalized throughput = delivered flits / node / cycle".into(),
        ],
    };
    let fig2 = FigureResult {
        id: "fig2",
        title: "Figure 2: average message latency vs traffic load".into(),
        tables: vec![grid.table(
            "Average message latency vs traffic generation rate (fault-free 10×10 mesh)",
            axis,
            SimReport::mean_network_latency,
        )],
        notes: vec![
            "same runs as Figure 1".into(),
            "latency = first flit injected → tail delivered (flit cycles)".into(),
        ],
    };
    (fig1, fig2)
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
    // One row per algorithm, both panels' in order; a cell per fault set.
    let kinds = [&panel_a[..], &panel_b].concat();
    let grid = Grid::new(algorithm_columns(&kinds), vec!["5%".into()], patterns.len())
        .run(
            cfg,
            "fig3",
            3,
            |k, _, p, seed| {
                Some(RunSpec {
                    kind: kinds[k],
                    pattern: patterns[p].clone(),
                    rate: ANALYSIS_RATE,
                    seed,
                })
            },
            |s| run_single(cfg, s),
        )
        .expect("runnable spec");
    let panel = |panel: &str, first: usize, kinds: &[AlgorithmKind]| -> Table {
        // Merge the patterns of each algorithm, then emit one row per VC.
        let merged: Vec<Vec<f64>> = (first..first + kinds.len())
            .map(|k| {
                let runs = grid.cell(k, 0);
                let mut acc = runs[0].vc_usage.clone();
                for run in &runs[1..] {
                    acc.merge(&run.vc_usage);
                }
                acc.utilization_percent()
            })
            .collect();
        let mut table = Table::new(
            format!("Per-VC utilization (%) at 5% faults — panel {panel}"),
            "VC index",
            algorithm_columns(kinds),
        );
        for vc in 0..merged[0].len() {
            table.push_row(format!("VC{vc}"), merged.iter().map(|u| u[vc]).collect());
        }
        table
    };

    FigureResult {
        id: "fig3",
        title: "Figure 3: virtual channel utilization at 5% faults".into(),
        tables: vec![panel("a", 0, &panel_a), panel("b", panel_a.len(), &panel_b)],
        notes: vec![
            format!("rate {ANALYSIS_RATE}; utilization averaged over the fault sets"),
            fault_set_note("5%", &patterns),
            "utilization = fraction of (channel × cycle) slots the VC was held".into(),
        ],
    }
}

/// One row of a fault-case grid: its label and its fault sets.
pub(crate) type FaultCase = (String, Vec<Arc<FaultPattern>>);

/// Every algorithm at 100 % traffic load: one row per case (at most
/// `cfg.fault_patterns` sets), one column per algorithm in
/// [`AlgorithmKind::ALL`] order, one replica per fault set, seeded with
/// Figure 4's salt. A cell's runs depend on its case alone, not on the
/// other rows.
pub(crate) fn fault_case_grid(cfg: &ExperimentConfig, cases: &[FaultCase]) -> Grid {
    fault_case_runs(cfg, cases, run_single)
}

/// [`fault_case_grid`] with each spec run by `run`.
pub(crate) fn fault_case_runs<R: Send>(
    cfg: &ExperimentConfig,
    cases: &[FaultCase],
    run: impl Fn(&ExperimentConfig, &RunSpec) -> Result<R, ConfigError> + Sync,
) -> Grid<R> {
    let kinds = AlgorithmKind::ALL;
    let rows = cases.iter().map(|(label, _)| label);
    Grid::new(rows, algorithm_columns(&kinds), cfg.fault_patterns)
        .run(
            cfg,
            "fault sweep",
            4,
            |r, k, p, seed| {
                Some(RunSpec {
                    kind: kinds[k],
                    pattern: cases[r].1.get(p)?.clone(),
                    rate: FULL_LOAD_RATE,
                    seed,
                })
            },
            |s| run(cfg, s),
        )
        .expect("runnable spec")
}

/// **Figures 4 and 5** — normalized throughput and message latency at
/// 0 %, 5 %, 10 % faulty nodes, 100 % traffic load, averaged over the
/// shared fault sets. One sweep feeds both figures.
pub fn fig4_fig5_fault_sweep(cfg: &ExperimentConfig) -> (FigureResult, FigureResult) {
    let cases = fig4_cases(cfg);
    fig4_fig5(&fault_case_grid(cfg, &cases), &cases)
}

/// Figure 4's cases: 0 %, 5 % and 10 % seed failures.
pub(crate) fn fig4_cases(cfg: &ExperimentConfig) -> Vec<FaultCase> {
    let nodes = cfg.mesh_size as usize * cfg.mesh_size as usize;
    [0, nodes / 20, nodes / 10]
        .map(|faults| {
            let label = format!("{}%", faults * 100 / nodes);
            (label, fault_patterns(cfg, faults, 4))
        })
        .into()
}

/// Figures 4 and 5 from the grid of [`fig4_cases`].
pub(crate) fn fig4_fig5(grid: &Grid, cases: &[FaultCase]) -> (FigureResult, FigureResult) {
    let set_notes: Vec<String> = cases[1..]
        .iter()
        .map(|(label, patterns)| fault_set_note(label, patterns))
        .collect();
    let fig4 = FigureResult {
        id: "fig4",
        title: "Figure 4: throughput vs fault percentage".into(),
        tables: vec![grid.table(
            "Normalized throughput vs percentage of faulty nodes (100% load)",
            "faults",
            SimReport::normalized_throughput,
        )],
        notes: [format!("rate {FULL_LOAD_RATE} (100% load)")]
            .into_iter()
            .chain(set_notes.iter().cloned())
            .collect(),
    };
    let fig5 = FigureResult {
        id: "fig5",
        title: "Figure 5: message latency vs fault percentage".into(),
        tables: vec![grid.table(
            "Normalized message latency (flit cycles) vs percentage of faulty nodes (100% load)",
            "faults",
            SimReport::mean_network_latency,
        )],
        notes: ["same runs as Figure 4".to_string()]
            .into_iter()
            .chain(set_notes)
            .collect(),
    };
    (fig4, fig5)
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
    let ring_ctx = RoutingContext::new(mesh.clone(), faulty_pattern.clone());
    let on_ring: Vec<bool> = mesh
        .nodes()
        .map(|n| ring_ctx.rings().on_any_ring(n))
        .collect();

    let cases = [
        ("0%", Arc::new(FaultPattern::fault_free(&mesh))),
        ("10%", Arc::new(faulty_pattern)),
    ];
    let names = cases.iter().map(|(name, _)| name.to_string()).collect();
    let grid = Grid::new(algorithm_columns(&kinds), names, 1)
        .run(
            cfg,
            "fig6",
            6,
            |k, c, _, seed| {
                Some(RunSpec {
                    kind: kinds[k],
                    pattern: cases[c].1.clone(),
                    rate: ANALYSIS_RATE,
                    seed,
                })
            },
            |s| run_single(cfg, s),
        )
        .expect("runnable spec");

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
    for (k, kind) in kinds.iter().enumerate() {
        for (c, (case, pattern)) in cases.iter().enumerate() {
            let usable: Vec<bool> = mesh.nodes().map(|n| !pattern.is_faulty(n)).collect();
            let summary = grid.cell(k, c)[0].node_load.ring_summary(&on_ring, &usable);
            table.push_row(
                format!("{} {case}", kind.paper_name()),
                vec![
                    summary.ring_mean_percent,
                    summary.ring_peak_percent,
                    summary.other_mean_percent,
                    summary.other_peak_percent,
                ],
            );
        }
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
        let (fig, _) = fig1_fig2_rate_sweep(&cfg);
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
