//! Ablation studies beyond the paper's figures: how the design parameters
//! the paper fixes (VC budget, message length, buffer depth, traffic
//! pattern, misroute cap, arbitration, mesh radix) move the results, plus
//! the turn-model baseline comparison and the other reading of the fault
//! axis. Each returns a [`FigureResult`] so the `ablations` binary renders
//! them like the paper figures.

use crate::config::ExperimentConfig;
use crate::figures::{
    algorithm_columns, fault_case_reports, fault_patterns, fault_set_note, mean_defined,
    paper_52_layout, FigureResult, ANALYSIS_RATE, FULL_LOAD_RATE,
};
use crate::runner::{derive_seed, parallel_map_with_progress, run_custom, CustomSpec};
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
    let mut specs = Vec::new();
    let mut index = Vec::new();
    for (bi, &total) in budgets.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            if total < min_total_vcs(kind, &mesh, 4) {
                continue;
            }
            let mut s = base_spec(
                cfg,
                kind,
                ANALYSIS_RATE,
                derive_seed(cfg.base_seed, 10, bi as u64, ki as u64),
            );
            s.vc = VcConfig::with_total(total);
            index.push((bi, ki, specs.len()));
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "vc budget ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput vs VC budget (uniform traffic, near-saturation load)",
        "VCs/channel",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "Network latency vs VC budget",
        "VCs/channel",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (bi, &total) in budgets.iter().enumerate() {
        let mut t_row = vec![f64::NAN; kinds.len()];
        let mut l_row = vec![f64::NAN; kinds.len()];
        for &(b, k, si) in &index {
            if b == bi {
                t_row[k] = reports[si].normalized_throughput();
                l_row[k] = reports[si].mean_network_latency();
            }
        }
        thr.push_row(format!("{total}"), t_row);
        lat.push_row(format!("{total}"), l_row);
    }
    FigureResult {
        id: "ablation_vc_budget",
        title: "Ablation: virtual-channel budget".into(),
        tables: vec![thr, lat],
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
    let mut specs = Vec::new();
    for (li, &len) in lengths.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                kind,
                // Offer the same flit load (0.4 flits/node/cycle) at every
                // length so the comparison is load-matched.
                0.4 / len as f64,
                derive_seed(cfg.base_seed, 11, li as u64, ki as u64),
            );
            s.workload.message_length = len;
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "message length ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput vs message length (offered 0.4 flits/node/cycle)",
        "flits/message",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "Network latency vs message length",
        "flits/message",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (li, &len) in lengths.iter().enumerate() {
        thr.push_row(
            format!("{len}"),
            (0..kinds.len())
                .map(|ki| reports[li * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
        lat.push_row(
            format!("{len}"),
            (0..kinds.len())
                .map(|ki| reports[li * kinds.len() + ki].mean_network_latency())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_message_length",
        title: "Ablation: message length".into(),
        tables: vec![thr, lat],
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
    let mut specs = Vec::new();
    for (di, &depth) in depths.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                kind,
                ANALYSIS_RATE,
                derive_seed(cfg.base_seed, 12, di as u64, ki as u64),
            );
            s.sim.buffer_depth = depth;
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "buffer depth ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput vs per-VC buffer depth",
        "flits/VC buffer",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (di, &depth) in depths.iter().enumerate() {
        thr.push_row(
            format!("{depth}"),
            (0..kinds.len())
                .map(|ki| reports[di * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_buffer_depth",
        title: "Ablation: per-VC buffer depth".into(),
        tables: vec![thr],
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
    let patterns: Vec<(&str, TrafficPattern)> = vec![
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
    let mut specs = Vec::new();
    for (pi, (_, tp)) in patterns.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                kind,
                ANALYSIS_RATE,
                derive_seed(cfg.base_seed, 13, pi as u64, ki as u64),
            );
            s.workload.pattern = *tp;
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "traffic patterns ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput vs traffic pattern",
        "pattern",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "Network latency vs traffic pattern",
        "pattern",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (pi, (name, _)) in patterns.iter().enumerate() {
        thr.push_row(
            name.to_string(),
            (0..kinds.len())
                .map(|ki| reports[pi * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
        lat.push_row(
            name.to_string(),
            (0..kinds.len())
                .map(|ki| reports[pi * kinds.len() + ki].mean_network_latency())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_traffic",
        title: "Ablation: traffic pattern".into(),
        tables: vec![thr, lat],
        notes: vec![format!("rate {ANALYSIS_RATE}, fault-free")],
    }
}

/// **Misroute limit** — Fully-Adaptive's cap (paper: 10) swept, fault-free
/// and at 10 % faults.
pub fn ablation_misroute_limit(cfg: &ExperimentConfig) -> FigureResult {
    let limits = [0u8, 2, 10, 30];
    let mesh = Mesh::square(cfg.mesh_size);
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, 14, 0, 0));
    let faulty = random_pattern(&mesh, 10, &mut rng).expect("pattern");
    let cases: Vec<(&str, Arc<FaultPattern>)> = vec![
        ("fault-free", Arc::new(FaultPattern::fault_free(&mesh))),
        ("10% faults", Arc::new(faulty)),
    ];
    let mut specs = Vec::new();
    for (li, &limit) in limits.iter().enumerate() {
        for (ci, (_, p)) in cases.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                AlgorithmKind::FullyAdaptive,
                ANALYSIS_RATE,
                derive_seed(cfg.base_seed, 14, li as u64, ci as u64 + 1),
            );
            s.vc = VcConfig {
                misroute_limit: limit,
                ..cfg.vc
            };
            s.pattern = p.clone();
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "misroute limit ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Fully-Adaptive throughput vs misroute limit",
        "misroute cap",
        cases.iter().map(|(n, _)| n.to_string()).collect(),
    );
    for (li, &limit) in limits.iter().enumerate() {
        thr.push_row(
            format!("{limit}"),
            (0..cases.len())
                .map(|ci| reports[li * cases.len() + ci].normalized_throughput())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_misroute",
        title: "Ablation: Fully-Adaptive misroute cap".into(),
        tables: vec![thr],
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
    let mesh = Mesh::square(cfg.mesh_size);
    let pattern = Arc::new(paper_52_layout(&mesh));
    let arbs = [
        ("random", Arbitration::Random),
        ("oldest-first", Arbitration::OldestFirst),
    ];
    let mut specs = Vec::new();
    for (ai, (_, arb)) in arbs.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                kind,
                FULL_LOAD_RATE,
                derive_seed(cfg.base_seed, 15, ai as u64, ki as u64),
            );
            s.sim = s.sim.with_arbitration(*arb);
            s.pattern = pattern.clone();
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "arbitration ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut table = Table::new(
        "Throughput / latency / recoveries by arbitration policy (§5.2 layout, full load)",
        "policy / metric",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (ai, (name, _)) in arbs.iter().enumerate() {
        table.push_row(
            format!("{name}: throughput"),
            (0..kinds.len())
                .map(|ki| reports[ai * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
        table.push_row(
            format!("{name}: latency"),
            (0..kinds.len())
                .map(|ki| reports[ai * kinds.len() + ki].mean_network_latency())
                .collect(),
        );
        table.push_row(
            format!("{name}: recoveries"),
            (0..kinds.len())
                .map(|ki| reports[ai * kinds.len() + ki].recoveries as f64)
                .collect(),
        );
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
    let mesh = Mesh::square(cfg.mesh_size);
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.base_seed, 16, 0, 0));
    let faulty = random_pattern(&mesh, 10, &mut rng).expect("pattern");
    let cases: Vec<(&str, Arc<FaultPattern>)> = vec![
        ("fault-free", Arc::new(FaultPattern::fault_free(&mesh))),
        ("10% faults", Arc::new(faulty)),
    ];
    let mut specs = Vec::new();
    for (ci, (_, p)) in cases.iter().enumerate() {
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut s = base_spec(
                cfg,
                kind,
                ANALYSIS_RATE,
                derive_seed(cfg.base_seed, 16, ci as u64, ki as u64 + 1),
            );
            s.pattern = p.clone();
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "turn models ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput: turn-model baselines vs adaptive roster",
        "case",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "Network latency: turn-model baselines vs adaptive roster",
        "case",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (ci, (name, _)) in cases.iter().enumerate() {
        thr.push_row(
            name.to_string(),
            (0..kinds.len())
                .map(|ki| reports[ci * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
        lat.push_row(
            name.to_string(),
            (0..kinds.len())
                .map(|ki| reports[ci * kinds.len() + ki].mean_network_latency())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_turn_models",
        title: "Ablation: deterministic / turn-model baselines".into(),
        tables: vec![thr, lat],
        notes: vec![format!(
            "rate {ANALYSIS_RATE}; all baselines BC-fortified like the roster"
        )],
    }
}

/// **Mesh radix** — the study repeated on 6×6 … 14×14 meshes for one
/// representative algorithm pair; the VC budget scales with the radix
/// (PHop-family class counts grow with the diameter).
pub fn ablation_mesh_size(cfg: &ExperimentConfig) -> FigureResult {
    let kinds = [
        AlgorithmKind::NHop,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::Duato,
    ];
    let sizes = [6u16, 8, 10, 12, 14];
    let mut specs = Vec::new();
    for (si, &k) in sizes.iter().enumerate() {
        let mesh = Mesh::square(k);
        for (ki, &kind) in kinds.iter().enumerate() {
            let needed = min_total_vcs(kind, &mesh, 4).max(24);
            // Bisection-limited saturation scales ~2/k flits/node/cycle;
            // offering 0.6/k flits (= 0.006/k messages at 100 flits) sits
            // past saturation at every size.
            let rate = 0.6 / k as f64 / 100.0;
            let mut s = base_spec(
                cfg,
                kind,
                rate,
                derive_seed(cfg.base_seed, 17, si as u64, ki as u64),
            );
            s.mesh_size = k;
            s.pattern = Arc::new(FaultPattern::fault_free(&mesh));
            s.vc = VcConfig::with_total(needed);
            specs.push(s);
        }
    }
    let reports = parallel_map_with_progress(
        &specs,
        cfg.threads,
        cfg.progress,
        "mesh size ablation",
        |s| run_custom(s).expect("runnable spec"),
    );
    let mut thr = Table::new(
        "Saturation throughput vs mesh radix (offered 0.6/k flits/node/cycle)",
        "mesh",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "Network latency vs mesh radix",
        "mesh",
        kinds.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (si, &k) in sizes.iter().enumerate() {
        thr.push_row(
            format!("{k}×{k}"),
            (0..kinds.len())
                .map(|ki| reports[si * kinds.len() + ki].normalized_throughput())
                .collect(),
        );
        lat.push_row(
            format!("{k}×{k}"),
            (0..kinds.len())
                .map(|ki| reports[si * kinds.len() + ki].mean_network_latency())
                .collect(),
        );
    }
    FigureResult {
        id: "ablation_mesh_size",
        title: "Ablation: mesh radix".into(),
        tables: vec![thr, lat],
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
    let mesh = Mesh::square(cfg.mesh_size);
    let nodes = mesh.num_nodes();
    let mut table = Table::new(
        "Normalized throughput vs percentage of faulty nodes, two readings (100% load)",
        "faults / reading",
        algorithm_columns(&AlgorithmKind::ALL),
    );
    let mut notes = vec![format!(
        "rate {FULL_LOAD_RATE} (100% load); seeds: k seed failures, closure on top \
         (Figure 4's reading); exact: exactly k nodes unavailable"
    )];
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
        for (reading, patterns) in [("seeds", &seeded), ("exact", &exact)] {
            let per_kind = fault_case_reports(cfg, k, patterns);
            table.push_row(
                format!("{pct}% {reading}"),
                per_kind
                    .iter()
                    .map(|r| mean_defined(r, SimReport::normalized_throughput))
                    .collect(),
            );
        }
    }
    FigureResult {
        id: "ablation_fault_axis",
        title: "Ablation: what \"percentage of faulty nodes\" counts".into(),
        tables: vec![table],
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
