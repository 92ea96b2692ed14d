//! Ablation studies beyond the paper's figures: how the design parameters
//! the paper fixes (VC budget, message length, buffer depth, traffic
//! pattern, misroute cap, arbitration, mesh radix) move the results, plus
//! the turn-model baseline comparison and the other reading of the fault
//! axis. Each returns a [`FigureResult`] so the `figures` binary renders
//! them like the paper figures.

use crate::census::{census, run_counting_knots};
use crate::config::ExperimentConfig;
use crate::figures::{
    algorithm_columns, fault_case_grid, fault_case_runs, fault_patterns, fault_set_note,
    fig4_cases, fig4_fig5, paper_52_layout, FaultCase, FigureResult, ANALYSIS_RATE, FULL_LOAD_RATE,
};
use crate::grid::{derive_seed, Grid};
use crate::runner::{run_custom, CustomSpec};
use crate::table::Table;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wormsim_engine::Arbitration;
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::{min_total_vcs, AlgorithmKind, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::{TrafficPattern, Workload};

fn base_spec(cfg: &ExperimentConfig, kind: AlgorithmKind, rate: f64, seed: u64) -> CustomSpec {
    let mesh = Mesh::square(cfg.mesh_size);
    CustomSpec {
        mesh_size: cfg.mesh_size,
        vc: cfg.vc,
        sim: cfg.sim.with_seed(seed),
        kind,
        pattern: Arc::new(FaultPattern::fault_free(&mesh)),
        workload: Workload::paper_uniform(rate),
    }
}

/// One run per (row, algorithm) cell: `spec(row, kind, seed)` with the
/// grid's seed for `salt`, `None` to skip the cell.
fn ablation_grid<L: ToString>(
    cfg: &ExperimentConfig,
    label: &str,
    salt: u64,
    rows: impl IntoIterator<Item = L>,
    kinds: &[AlgorithmKind],
    spec: impl Fn(usize, AlgorithmKind, u64) -> Option<CustomSpec>,
) -> Grid {
    Grid::new(rows, algorithm_columns(kinds), 1)
        .run(
            cfg,
            label,
            salt,
            |r, k, _, seed| spec(r, kinds[k], seed),
            run_custom,
        )
        .expect("runnable spec")
}

/// An ablation's throughput and latency tables, titled `titles`.
fn throughput_and_latency(grid: &Grid, axis: &str, titles: [&str; 2]) -> Vec<Table> {
    vec![
        grid.table(titles[0], axis, SimReport::normalized_throughput),
        grid.table(titles[1], axis, SimReport::mean_network_latency),
    ]
}

/// **VC budget** — saturation throughput and latency as the per-channel VC
/// count varies. The paper fixes 24; this shows what that choice buys.
/// Combinations below an algorithm's structural minimum are skipped (NaN).
pub fn ablation_vc_budget(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::Nbc,
        AlgorithmKind::Duato,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::MinimalAdaptive,
        AlgorithmKind::BouraAdaptive,
    ];
    let budgets = [8u8, 12, 16, 20, 24, 32];
    let mesh = Mesh::square(cfg.mesh_size);
    let grid = ablation_grid(cfg, "vc budget", 10, budgets, &kinds, |b, kind, seed| {
        let total = budgets[b];
        (total >= min_total_vcs(kind, &mesh, 4)).then(|| CustomSpec {
            vc: VcConfig::with_total(total),
            ..base_spec(cfg, kind, ANALYSIS_RATE, seed)
        })
    });
    FigureResult {
        id: "ablation_vc_budget",
        title: "Ablation: virtual-channel budget".into(),
        tables: throughput_and_latency(
            &grid,
            "VCs/channel",
            [
                "Saturation throughput vs VC budget (uniform traffic, near-saturation load)",
                "Network latency vs VC budget",
            ],
        ),
        notes: vec![
            "4 of the budget are always BC overlay VCs; '—' = algorithm needs more VCs".into(),
            format!("rate {ANALYSIS_RATE}, fault-free"),
        ],
    }
}

/// **Message length** — the literature's common 32/64/100-flit choices
/// (paper §5 cites all three, uses 100).
pub fn ablation_message_length(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::PHop,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::MinimalAdaptive,
    ];
    let lengths = [32u32, 64, 100];
    let grid = ablation_grid(
        cfg,
        "message length",
        11,
        lengths,
        &kinds,
        |l, kind, seed| {
            let len = lengths[l];
            // Offer the same flit load (0.4 flits/node/cycle) at every length
            // so the comparison is load-matched.
            let mut s = base_spec(cfg, kind, 0.4 / len as f64, seed);
            s.workload.message_length = len;
            Some(s)
        },
    );
    FigureResult {
        id: "ablation_message_length",
        title: "Ablation: message length".into(),
        tables: throughput_and_latency(
            &grid,
            "flits/message",
            [
                "Saturation throughput vs message length (offered 0.4 flits/node/cycle)",
                "Network latency vs message length",
            ],
        ),
        notes: vec![
            "32/64/100 flits are the lengths the paper's §5 cites from the literature".into(),
        ],
    }
}

/// **Buffer depth** — per-VC input buffer depth (paper unspecified; we
/// default to 2).
pub fn ablation_buffer_depth(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::Duato,
        AlgorithmKind::MinimalAdaptive,
    ];
    let depths = [1u8, 2, 4, 8];
    let grid = ablation_grid(cfg, "buffer depth", 12, depths, &kinds, |d, kind, seed| {
        let mut s = base_spec(cfg, kind, ANALYSIS_RATE, seed);
        s.sim.buffer_depth = depths[d];
        Some(s)
    });
    FigureResult {
        id: "ablation_buffer_depth",
        title: "Ablation: per-VC buffer depth".into(),
        tables: vec![grid.table(
            "Saturation throughput vs per-VC buffer depth",
            "flits/VC buffer",
            SimReport::normalized_throughput,
        )],
        notes: vec![format!("rate {ANALYSIS_RATE}, fault-free")],
    }
}

/// **Traffic pattern** — uniform vs transpose vs bit-reversal vs hotspot.
pub fn ablation_traffic_patterns(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::MinimalAdaptive,
        AlgorithmKind::Xy,
    ];
    let mesh = Mesh::square(cfg.mesh_size);
    let hotspot = mesh.node(cfg.mesh_size / 2, cfg.mesh_size / 2);
    let patterns = [
        ("uniform", TrafficPattern::Uniform),
        ("transpose", TrafficPattern::Transpose),
        ("bit-reversal", TrafficPattern::BitReversal),
        (
            "hotspot 10%",
            TrafficPattern::Hotspot {
                node: hotspot,
                permille: 100,
            },
        ),
    ];
    let names = patterns.map(|(name, _)| name);
    let grid = ablation_grid(cfg, "traffic", 13, names, &kinds, |p, kind, seed| {
        let mut s = base_spec(cfg, kind, ANALYSIS_RATE, seed);
        s.workload.pattern = patterns[p].1;
        Some(s)
    });
    FigureResult {
        id: "ablation_traffic",
        title: "Ablation: traffic pattern".into(),
        tables: throughput_and_latency(
            &grid,
            "pattern",
            [
                "Saturation throughput vs traffic pattern",
                "Network latency vs traffic pattern",
            ],
        ),
        notes: vec![format!("rate {ANALYSIS_RATE}, fault-free")],
    }
}

/// The fault-free mesh and one random pattern of 10 seed failures drawn
/// from stream `salt`: the two cases the misroute and turn-model
/// ablations compare.
fn fault_free_and_ten(cfg: &ExperimentConfig, salt: u64) -> [(&'static str, Arc<FaultPattern>); 2] {
    let mesh = Mesh::square(cfg.mesh_size);
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, salt, 0, 0));
    let faulty = random_pattern(&mesh, 10, &mut rng).expect("pattern");
    [
        ("fault-free", Arc::new(FaultPattern::fault_free(&mesh))),
        ("10% faults", Arc::new(faulty)),
    ]
}

/// **Misroute limit** — Fully-Adaptive's cap (paper: 10) swept, fault-free
/// and at 10 % faults.
pub fn ablation_misroute_limit(cfg: &ExperimentConfig) -> FigureResult {
    let limits = [0u8, 2, 10, 30];
    let cases = fault_free_and_ten(cfg, 14);
    let names = cases.iter().map(|(name, _)| name.to_string()).collect();
    let grid = Grid::new(limits, names, 1)
        .run(
            cfg,
            "misroute limit",
            14,
            |l, c, _, seed| {
                Some(CustomSpec {
                    vc: VcConfig {
                        misroute_limit: limits[l],
                        ..cfg.vc
                    },
                    pattern: cases[c].1.clone(),
                    ..base_spec(cfg, AlgorithmKind::FullyAdaptive, ANALYSIS_RATE, seed)
                })
            },
            run_custom,
        )
        .expect("runnable spec");
    FigureResult {
        id: "ablation_misroute",
        title: "Ablation: Fully-Adaptive misroute cap".into(),
        tables: vec![grid.table(
            "Fully-Adaptive throughput vs misroute limit",
            "misroute cap",
            SimReport::normalized_throughput,
        )],
        notes: vec!["paper fixes the cap at 10".into()],
    }
}

/// **Arbitration** — the paper's random conflict resolution vs
/// oldest-first, at full load over the §5.2 fault layout. Motivated by the
/// starvation analysis in DESIGN.md §3.7.
pub fn ablation_arbitration(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::PHop,
    ];
    let pattern = Arc::new(paper_52_layout(&Mesh::square(cfg.mesh_size)));
    let arbs = [
        ("random", Arbitration::Random),
        ("oldest-first", Arbitration::OldestFirst),
    ];
    let names = arbs.map(|(name, _)| name);
    let grid = ablation_grid(cfg, "arbitration", 15, names, &kinds, |a, kind, seed| {
        let mut s = base_spec(cfg, kind, FULL_LOAD_RATE, seed);
        s.sim = s.sim.with_arbitration(arbs[a].1);
        s.pattern = pattern.clone();
        Some(s)
    });
    let mut table = Table::new(
        "Throughput / latency / recoveries by arbitration policy (§5.2 layout, full load)",
        "policy / metric",
        algorithm_columns(&kinds),
    );
    for (a, name) in names.iter().enumerate() {
        let row = |value: fn(&SimReport) -> f64| {
            (0..kinds.len())
                .map(|k| value(&grid.cell(a, k)[0]))
                .collect()
        };
        table.push_row(
            format!("{name}: throughput"),
            row(SimReport::normalized_throughput),
        );
        table.push_row(
            format!("{name}: latency"),
            row(SimReport::mean_network_latency),
        );
        table.push_row(format!("{name}: recoveries"), row(|r| r.recoveries as f64));
    }
    FigureResult {
        id: "ablation_arbitration",
        title: "Ablation: allocation arbitration policy".into(),
        tables: vec![table],
        notes: vec![
            "random arbitration admits unbounded starvation on contended BC VCs; oldest-first is starvation-free".into(),
        ],
    }
}

/// **Turn-model baselines** — deterministic XY and the Glass–Ni turn
/// models against the paper's best adaptive algorithms, fault-free and at
/// 10 % faults.
pub fn ablation_turn_models(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::Xy,
        AlgorithmKind::WestFirst,
        AlgorithmKind::NorthLast,
        AlgorithmKind::NegativeFirst,
        AlgorithmKind::NHop,
        AlgorithmKind::DuatoNbc,
    ];
    let cases = fault_free_and_ten(cfg, 16);
    let grid = Grid::new(
        cases.iter().map(|(name, _)| name),
        algorithm_columns(&kinds),
        1,
    )
    .run(
        cfg,
        "turn models",
        16,
        |c, k, _, seed| {
            Some(CustomSpec {
                pattern: cases[c].1.clone(),
                ..base_spec(cfg, kinds[k], ANALYSIS_RATE, seed)
            })
        },
        run_custom,
    )
    .expect("runnable spec");
    FigureResult {
        id: "ablation_turn_models",
        title: "Ablation: deterministic / turn-model baselines".into(),
        tables: throughput_and_latency(
            &grid,
            "case",
            [
                "Saturation throughput: turn-model baselines vs adaptive roster",
                "Network latency: turn-model baselines vs adaptive roster",
            ],
        ),
        notes: vec![format!(
            "rate {ANALYSIS_RATE}; all baselines BC-fortified like the roster"
        )],
    }
}

/// **Mesh radix** — the study repeated on 6×6 … 14×14 meshes for three
/// representative algorithms; the VC budget scales with the radix
/// (PHop-family class counts grow with the diameter).
pub fn ablation_mesh_size(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::Duato,
    ];
    let sizes = [6u16, 8, 10, 12, 14];
    let rows = sizes.map(|k| format!("{k}×{k}"));
    let grid = ablation_grid(cfg, "mesh size", 17, rows, &kinds, |s, kind, seed| {
        let k = sizes[s];
        let mesh = Mesh::square(k);
        // Bisection-limited saturation scales ~2/k flits/node/cycle;
        // offering 0.6/k flits (= 0.006/k messages at 100 flits) sits past
        // saturation at every size.
        let rate = 0.6 / k as f64 / 100.0;
        Some(CustomSpec {
            mesh_size: k,
            pattern: Arc::new(FaultPattern::fault_free(&mesh)),
            vc: VcConfig::with_total(min_total_vcs(kind, &mesh, 4).max(24)),
            ..base_spec(cfg, kind, rate, seed)
        })
    });
    FigureResult {
        id: "ablation_mesh_size",
        title: "Ablation: mesh radix".into(),
        tables: throughput_and_latency(
            &grid,
            "mesh",
            [
                "Saturation throughput vs mesh radix (offered 0.6/k flits/node/cycle)",
                "Network latency vs mesh radix",
            ],
        ),
        notes: vec![
            "VC budget per size = max(24, algorithm minimum); rate scales with 1/k (bisection)"
                .into(),
        ],
    }
}

/// A pattern with exactly `k` unavailable nodes after the convex closure:
/// fail one uniformly random healthy node at a time until at least `k`
/// are unavailable, and redraw from scratch on overshoot or on a
/// disconnecting failure. Returns the pattern and the draws it took.
fn exactly_unavailable<R: Rng>(mesh: &Mesh, k: usize, rng: &mut R) -> (FaultPattern, usize) {
    for draws in 1.. {
        let mut pattern = FaultPattern::fault_free(mesh);
        while pattern.num_faulty() < k {
            let healthy: Vec<_> = pattern.healthy_nodes(mesh).collect();
            let victim = mesh.coord(*healthy.choose(rng).expect("a healthy node"));
            match pattern.extend(mesh, [victim]) {
                Ok(next) => pattern = next,
                Err(_) => break,
            }
        }
        if pattern.num_faulty() == k {
            return (pattern, draws);
        }
    }
    unreachable!("the draw loop only ends by returning")
}

/// **Fault axis** — Figure 4's throughput under the two readings of
/// "percentage of faulty nodes": the shipped one (k seed failures,
/// closure victims disabled on top, as [`random_pattern`] draws them; its
/// rows repeat Figure 4's runs) and "exactly k nodes unavailable after
/// the closure". Same algorithms, load and traffic seeds.
pub fn ablation_fault_axis(cfg: &ExperimentConfig) -> FigureResult {
    let (cases, notes) = fault_axis_cases(cfg);
    fault_axis(&fault_case_grid(cfg, &cases), notes)
}

/// Figures 4 and 5, the fault-axis ablation and the deadlock census from
/// one grid. The ablation's "seeds" rows draw Figure 4's 5 % and 10 %
/// fault sets with Figure 4's seeds, and the census samples Figure 4's
/// runs, so here Figure 4's rows serve all four and only the "exact" rows
/// run on top: equal to [`fig4_fig5_fault_sweep`],
/// [`ablation_fault_axis`] and [`deadlock_census`] run apart, for five
/// rows of runs instead of ten.
///
/// [`fig4_fig5_fault_sweep`]: crate::fig4_fig5_fault_sweep
/// [`deadlock_census`]: crate::deadlock_census
pub fn fault_sweep_studies(cfg: &ExperimentConfig) -> [FigureResult; 4] {
    let (axis, notes) = fault_axis_cases(cfg);
    let labels: Vec<String> = axis.iter().map(|(label, _)| label.clone()).collect();
    // Rows 0–2: 0 %, 5 %, 10 % seeds; rows 3–4: 5 % and 10 % exact.
    let mut cases = fig4_cases(cfg);
    cases.extend(axis.into_iter().skip(1).step_by(2));
    let runs = fault_case_runs(cfg, &cases, run_counting_knots);
    let census = census(cfg, &runs, &cases[..3]);
    let grid = runs.map(|(report, _)| report.clone());
    let fig4_rows = cases[..3].iter().enumerate().map(|(r, c)| (r, c.0.clone()));
    let (fig4, fig5) = fig4_fig5(&grid.select(fig4_rows), &cases[..3]);
    let axis = fault_axis(&grid.select([1, 3, 2, 4].into_iter().zip(labels)), notes);
    [fig4, fig5, axis, census]
}

/// The fault-axis cases in table order (5 % seeds, 5 % exact, 10 % seeds,
/// 10 % exact) and the study's notes.
fn fault_axis_cases(cfg: &ExperimentConfig) -> (Vec<FaultCase>, Vec<String>) {
    let mesh = Mesh::square(cfg.mesh_size);
    let nodes = mesh.num_nodes();
    let mut notes = vec![format!(
        "rate {FULL_LOAD_RATE} (100% load); seeds: k seed failures, closure on top \
         (Figure 4's reading); exact: exactly k nodes unavailable"
    )];
    let mut cases = Vec::new();
    for k in [nodes / 20, nodes / 10] {
        let pct = k * 100 / nodes;
        let seeded = fault_patterns(cfg, k, 4);
        let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, 18, k as u64, 0));
        let mut draws = 0;
        let exact: Vec<Arc<FaultPattern>> = (0..cfg.fault_patterns)
            .map(|_| {
                let (pattern, n) = exactly_unavailable(&mesh, k, &mut rng);
                draws += n;
                Arc::new(pattern)
            })
            .collect();
        let seeds = exact.iter().map(|p| p.num_seed_faulty()).sum::<usize>() as f64;
        notes.push(fault_set_note(&format!("{pct}% seeds"), &seeded));
        notes.push(format!(
            "{pct}% exact: {k} nodes unavailable × {} sets, {} draws; {:.1} seed failures \
             on average",
            exact.len(),
            draws,
            seeds / exact.len() as f64,
        ));
        cases.push((format!("{pct}% seeds"), seeded));
        cases.push((format!("{pct}% exact"), exact));
    }
    (cases, notes)
}

/// The fault-axis result from the grid of [`fault_axis_cases`].
fn fault_axis(grid: &Grid, notes: Vec<String>) -> FigureResult {
    FigureResult {
        id: "ablation_fault_axis",
        title: "Ablation: what \"percentage of faulty nodes\" counts".into(),
        tables: vec![grid.table(
            "Normalized throughput vs percentage of faulty nodes, two readings (100% load)",
            "faults / reading",
            SimReport::normalized_throughput,
        )],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 100;
        cfg.sim.measure_cycles = 400;
        cfg
    }

    #[test]
    fn vc_budget_skips_infeasible() {
        let fig = ablation_vc_budget(&tiny());
        let thr = &fig.tables[0];
        // NHop needs ≥ 14 VCs → the 8 and 12 rows are NaN for it.
        assert!(thr.get("8", "NHop").unwrap().is_nan());
        assert!(thr.get("12", "NHop").unwrap().is_nan());
        assert!(!thr.get("16", "NHop").unwrap().is_nan());
        // Duato fits everywhere.
        assert!(!thr.get("8", "Duato's routing").unwrap().is_nan());
    }

    #[test]
    fn turn_models_run() {
        let fig = ablation_turn_models(&tiny());
        assert_eq!(fig.tables[0].rows.len(), 2);
        for (_, values) in &fig.tables[0].rows {
            for v in values {
                assert!(*v >= 0.0);
            }
        }
    }

    #[test]
    fn mesh_size_scales_budgets() {
        let mesh14 = Mesh::square(14);
        // PHop on 14×14 needs 26 classes + 4 BC = 30 > 24.
        assert!(min_total_vcs(AlgorithmKind::PHop, &mesh14, 4) > 24);
        // The swept kinds all fit their scaled budgets.
        for kind in [
            AlgorithmKind::NHop,
            AlgorithmKind::DuatoNbc,
            AlgorithmKind::Duato,
        ] {
            assert!(min_total_vcs(kind, &mesh14, 4) <= 24.max(min_total_vcs(kind, &mesh14, 4)));
        }
    }

    #[test]
    fn exact_reading_has_exactly_k_unavailable() {
        let mesh = Mesh::square(10);
        let mut rng = SmallRng::seed_from_u64(5);
        for k in [5, 10] {
            let (pattern, draws) = exactly_unavailable(&mesh, k, &mut rng);
            assert_eq!(pattern.num_faulty(), k);
            assert!(pattern.num_seed_faulty() <= k && draws >= 1);
            assert!(pattern.healthy_connected(&mesh));
        }
    }

    #[test]
    fn arbitration_ablation_shape() {
        let fig = ablation_arbitration(&tiny());
        let t = &fig.tables[0];
        assert_eq!(t.rows.len(), 6); // 2 policies × 3 metrics
        assert_eq!(t.columns.len(), 3);
    }
}
