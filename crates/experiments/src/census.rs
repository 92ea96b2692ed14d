//! The deadlock census: how often Figure 4's runs hold a knot, the
//! engine's exact deadlock ([`wormsim_engine::Simulator::knot`]), and
//! how often the watchdog broke one.

use crate::config::ExperimentConfig;
use crate::figures::{
    algorithm_columns, fault_case_runs, fault_set_note, fig4_cases, FaultCase, FigureResult,
};
use crate::grid::Grid;
use crate::runner::RunSpec;
use crate::table::Table;
use wormsim_engine::ConfigError;
use wormsim_metrics::SimReport;
use wormsim_routing::AlgorithmKind;

/// Cycles of the measurement window between two knot samples.
const CENSUS_EVERY: u64 = 100;

/// One run's knot samples.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Knots {
    samples: u32,
    /// Samples that found a knot.
    knotted: u32,
    /// Knotted headers summed over the samples.
    members: u64,
}

/// Run `spec` as [`crate::run_single`] does, untraced, and ask the
/// detector for the knot every [`CENSUS_EVERY`] cycles of the
/// measurement window. The detector has no side effect, so the report is
/// the one `run_single` returns.
pub(crate) fn run_counting_knots(
    cfg: &ExperimentConfig,
    spec: &RunSpec,
) -> Result<(SimReport, Knots), ConfigError> {
    let custom = spec.custom(cfg);
    let sim_cfg = custom.sim;
    let mut sim = custom.build()?;
    let mut knots = Knots::default();
    for _ in 0..sim_cfg.total_cycles() {
        sim.step();
        let measured = sim.cycle().saturating_sub(sim_cfg.warmup_cycles);
        if measured > 0 && measured % CENSUS_EVERY == 0 {
            let members = sim.knot().len();
            knots.samples += 1;
            knots.knotted += u32::from(members > 0);
            knots.members += members as u64;
        }
    }
    Ok((sim.report(), knots))
}

/// **Deadlock census** — Figure 4's runs (same cases, fault sets and
/// seeds), sampled for knots.
pub fn deadlock_census(cfg: &ExperimentConfig) -> FigureResult {
    let cases = fig4_cases(cfg);
    census(
        cfg,
        &fault_case_runs(cfg, &cases, run_counting_knots),
        &cases,
    )
}

/// What each row of a fault case reports, per cell.
const MEASURES: [&str; 3] = [
    "knotted samples (%)",
    "knotted headers per sample",
    "recoveries per run",
];

/// One cell's [`MEASURES`] over its runs.
fn measures(runs: &[(SimReport, Knots)]) -> [f64; 3] {
    let total = |f: fn(&(SimReport, Knots)) -> f64| runs.iter().map(f).sum::<f64>();
    let samples = total(|(_, k)| k.samples.into());
    [
        100.0 * total(|(_, k)| k.knotted.into()) / samples,
        total(|(_, k)| k.members as f64) / samples,
        total(|(r, _)| r.recoveries as f64) / runs.len() as f64,
    ]
}

/// The census from a grid whose first rows are `cases`: one row per
/// fault case and [`MEASURES`] entry, one column per algorithm.
pub(crate) fn census(
    cfg: &ExperimentConfig,
    grid: &Grid<(SimReport, Knots)>,
    cases: &[FaultCase],
) -> FigureResult {
    let kinds = AlgorithmKind::ALL;
    let mut table = Table::new(
        "Knots in Figure 4's runs (100% load)",
        "faults / measure",
        algorithm_columns(&kinds),
    );
    for (r, (label, _)) in cases.iter().enumerate() {
        let cells: Vec<[f64; 3]> = (0..kinds.len())
            .map(|c| measures(grid.cell(r, c)))
            .collect();
        for (m, name) in MEASURES.iter().enumerate() {
            table.push_row(
                format!("{label} {name}"),
                cells.iter().map(|v| v[m]).collect(),
            );
        }
    }
    let notes = [
        format!(
            "Figure 4's runs, untraced; the knot detector runs every {CENSUS_EVERY} cycles of \
             the measurement window ({} samples per run)",
            cfg.sim.measure_cycles / CENSUS_EVERY
        ),
        "a knot: blocked headers whose every registered slot is held by a member and none of \
         whose worms can move; only the watchdog breaks it"
            .into(),
    ];
    FigureResult {
        id: "deadlock_census",
        title: "Deadlock census: knots in Figure 4's runs".into(),
        tables: vec![table],
        notes: notes
            .into_iter()
            .chain(cases[1..].iter().map(|(label, p)| fault_set_note(label, p)))
            .collect(),
    }
}
