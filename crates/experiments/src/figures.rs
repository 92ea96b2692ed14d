//! One function per paper figure.

use crate::config::{ExperimentConfig, Scale};
use crate::runner::{derive_seed, parallel_map_with_progress, run_single, RunSpec};
use crate::table::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use wormsim_fault::{random_pattern, FaultPattern};
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

/// The JSON form of a results file: the header, then the figure.
#[derive(Serialize)]
struct FigureFile {
    provenance: String,
    figure: FigureResult,
}

impl FigureResult {
    /// Write `<id>.md` and `<id>.json` (both led by `provenance`) and one
    /// CSV per table (`<id>.csv`, or `<id>_a.csv`, `<id>_b.csv`, …) into
    /// `out_dir`; returns the Markdown. `plot` adds a terminal chart under
    /// each table.
    pub fn write(&self, out_dir: &str, provenance: &str, elapsed: Duration, plot: bool) -> String {
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
            let suffix = if self.tables.len() > 1 {
                format!("_{}", (b'a' + i as u8) as char)
            } else {
                String::new()
            };
            std::fs::write(format!("{out_dir}/{}{suffix}.csv", self.id), table.to_csv())
                .expect("write csv");
        }
        md.push_str(&format!("_generated in {elapsed:.2?}_\n"));
        let file = FigureFile {
            provenance: provenance.to_string(),
            figure: self.clone(),
        };
        std::fs::write(
            format!("{out_dir}/{}.json", self.id),
            serde_json::to_string_pretty(&file).expect("figure serializes"),
        )
        .expect("write json");
        std::fs::write(format!("{out_dir}/{}.md", self.id), &md).expect("write md");
        md
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

/// The ten fault-free algorithms across [`RATE_SWEEP`], one row per
/// rate; `figure` is the figure's number and its seed stream.
fn rate_sweep_table(
    cfg: &ExperimentConfig,
    figure: u64,
    title: &str,
    value: impl Fn(&SimReport) -> f64,
) -> Table {
    let kinds = AlgorithmKind::FAULT_FREE_TEN;
    let pattern = Arc::new(FaultPattern::fault_free(&Mesh::square(cfg.mesh_size)));
    let specs: Vec<RunSpec> = RATE_SWEEP
        .iter()
        .flat_map(|&rate| {
            let pattern = &pattern;
            kinds.iter().map(move |&kind| RunSpec {
                kind,
                pattern: pattern.clone(),
                rate,
                seed: derive_seed(cfg.base_seed, figure, kind as u64, (rate * 1e6) as u64),
            })
        })
        .collect();
    let label = format!("fig{figure}");
    let reports = parallel_map_with_progress(&specs, cfg.threads, cfg.progress, &label, |s| {
        run_single(cfg, s).expect("runnable spec")
    });
    let mut table = Table::new(title, "rate (msgs/node/cycle)", algorithm_columns(&kinds));
    for (rate, row) in RATE_SWEEP.iter().zip(reports.chunks(kinds.len())) {
        table.push_row(format!("{rate:.4}"), row.iter().map(&value).collect());
    }
    table
}

/// **Figure 1** — saturation throughput of the ten algorithms against the
/// traffic generation rate on a fault-free 10×10 mesh (100-flit messages,
/// 24 VCs per physical channel).
pub fn fig1_saturation_throughput(cfg: &ExperimentConfig) -> FigureResult {
    FigureResult {
        id: "fig1",
        title: "Figure 1: throughput vs traffic load".into(),
        tables: vec![rate_sweep_table(
            cfg,
            1,
            "Saturation throughput vs traffic generation rate (fault-free 10×10 mesh)",
            SimReport::normalized_throughput,
        )],
        notes: vec![
            format!("mesh {0}×{0}, 100-flit messages, 24 VCs/PC", cfg.mesh_size),
            "normalized throughput = delivered flits / node / cycle".into(),
        ],
    }
}

/// **Figure 2** — average message latency (flit cycles, network latency)
/// of the ten algorithms against the traffic generation rate, fault-free.
pub fn fig2_latency_vs_rate(cfg: &ExperimentConfig) -> FigureResult {
    FigureResult {
        id: "fig2",
        title: "Figure 2: average message latency vs traffic load".into(),
        tables: vec![rate_sweep_table(
            cfg,
            2,
            "Average message latency vs traffic generation rate (fault-free 10×10 mesh)",
            SimReport::mean_network_latency,
        )],
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
            format!("rate {ANALYSIS_RATE}; utilization averaged over the fault sets"),
            fault_set_note("5%", &patterns),
            "utilization = fraction of (channel × cycle) slots the VC was held".into(),
        ],
    }
}

/// Every algorithm at 100 % traffic load on each of `patterns`, seeded
/// from Figure 4's stream: one report list per algorithm, in
/// [`AlgorithmKind::ALL`] order.
pub(crate) fn fault_case_reports(
    cfg: &ExperimentConfig,
    faults: usize,
    patterns: &[Arc<FaultPattern>],
) -> Vec<Vec<SimReport>> {
    let specs: Vec<RunSpec> = AlgorithmKind::ALL
        .iter()
        .flat_map(|&kind| {
            patterns.iter().enumerate().map(move |(pi, p)| RunSpec {
                kind,
                pattern: p.clone(),
                rate: FULL_LOAD_RATE,
                seed: derive_seed(cfg.base_seed, 4, kind as u64, (faults * 100 + pi) as u64),
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
    reports
        .chunks(patterns.len())
        .map(<[SimReport]>::to_vec)
        .collect()
}

/// The mean of `value` over the reports it is defined for (NaN if none).
pub(crate) fn mean_defined(reports: &[SimReport], value: impl Fn(&SimReport) -> f64) -> f64 {
    let vals: Vec<f64> = reports.iter().map(value).filter(|v| !v.is_nan()).collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// **Figures 4 and 5** — normalized throughput and message latency at
/// 0 %, 5 %, 10 % faulty nodes, 100 % traffic load, averaged over the
/// shared fault sets. One sweep feeds both figures.
pub fn fig4_fig5_fault_sweep(cfg: &ExperimentConfig) -> (FigureResult, FigureResult) {
    let columns = algorithm_columns(&AlgorithmKind::ALL);
    let mut thr = Table::new(
        "Normalized throughput vs percentage of faulty nodes (100% load)",
        "faults",
        columns.clone(),
    );
    let mut lat = Table::new(
        "Normalized message latency (flit cycles) vs percentage of faulty nodes (100% load)",
        "faults",
        columns,
    );
    let nodes = cfg.mesh_size as usize * cfg.mesh_size as usize;
    let mut set_notes = Vec::new();
    for faults in [0, nodes / 20, nodes / 10] {
        let patterns = fault_patterns(cfg, faults, 4);
        let label = format!("{}%", faults * 100 / nodes);
        if faults > 0 {
            set_notes.push(fault_set_note(&label, &patterns));
        }
        let per_kind = fault_case_reports(cfg, faults, &patterns);
        thr.push_row(
            &label,
            per_kind
                .iter()
                .map(|r| mean_defined(r, SimReport::normalized_throughput))
                .collect(),
        );
        lat.push_row(
            label,
            per_kind
                .iter()
                .map(|r| mean_defined(r, SimReport::mean_network_latency))
                .collect(),
        );
    }
    let fig4 = FigureResult {
        id: "fig4",
        title: "Figure 4: throughput vs fault percentage".into(),
        tables: vec![thr],
        notes: [format!("rate {FULL_LOAD_RATE} (100% load)")]
            .into_iter()
            .chain(set_notes.iter().cloned())
            .collect(),
    };
    let fig5 = FigureResult {
        id: "fig5",
        title: "Figure 5: message latency vs fault percentage".into(),
        tables: vec![lat],
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
