//! The dynamic-fault study: nodes die *mid-run* and the network must
//! re-converge. Sweeps the fault-arrival time and the number of nodes
//! killed per event for three routing algorithms, reporting the recovery
//! metrics the static figures cannot express — post-fault settling time,
//! abort/loss counts, and per-message recovery latency.

use crate::config::ExperimentConfig;
use crate::figures::{algorithm_columns, FigureResult};
use crate::grid::{derive_seed, mean_finite, Grid};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wormsim_chaos::{run_chaos, FaultSchedule};
use wormsim_fault::FaultPattern;
use wormsim_metrics::{RecoveryEvent, SimReport};
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// Generation rate for the dynamic-fault study: 0.15 flits/node/cycle,
/// comfortably below both the fault-free saturation point (~0.23, Fig 1)
/// and the ~0.17 capacity at 5 % faults (Fig 4). The study must run
/// below saturation on both sides of the event — in an oversaturated
/// open-loop network the source queues grow without bound, so recovery
/// latency measures queueing depth and the settling window measures
/// saturation capacity instead of re-convergence.
pub const DYNAMIC_RATE: f64 = 0.0015;

/// Algorithms compared under dynamic faults: the paper's strongest
/// fault-tolerant candidate, a hop-scheme representative, and the minimal
/// adaptive baseline.
pub const DYNAMIC_KINDS: [AlgorithmKind; 3] = [
    AlgorithmKind::Duato,
    AlgorithmKind::NHop,
    AlgorithmKind::MinimalAdaptive,
];

/// Fraction of the measurement window elapsed when the fault event fires.
const ARRIVAL_FRACTIONS: [(u64, &str); 2] = [(25, "25%"), (50, "50%")];

/// Seed faults injected by the single event of each scenario.
const FAULT_COUNTS: [usize; 3] = [1, 3, 5];

/// The mean of `value` over every fault event of `runs` (see
/// [`mean_finite`]).
fn event_mean(runs: &[SimReport], value: impl Fn(&RecoveryEvent) -> f64) -> f64 {
    mean_finite(
        runs.iter()
            .flat_map(|r| r.recovery.as_ref().expect("chaos run").events())
            .map(value),
    )
}

/// **Dynamic faults** — for each (arrival time, fault count) scenario,
/// `cfg.fault_patterns` random single-event schedules are drawn once and
/// shared by all algorithms (the paper's convention: comparisons use the
/// same fault sets). Each run starts fault-free; at the scheduled cycle
/// the nodes die, in-flight messages crossing them are aborted and
/// re-injected with exponential backoff, and the sliding delivered-rate
/// window measures how long the network takes to return to within 5 % of
/// its pre-fault throughput.
pub fn dynamic_faults(cfg: &ExperimentConfig) -> FigureResult {
    let mesh = Mesh::square(cfg.mesh_size);
    let base = FaultPattern::fault_free(&mesh);
    let n_schedules = cfg.fault_patterns;

    // Scenario grid × shared schedules.
    let mut scenarios: Vec<(String, Vec<FaultSchedule>)> = Vec::new();
    for (fi, &(pct, label)) in ARRIVAL_FRACTIONS.iter().enumerate() {
        let arrival = cfg.sim.warmup_cycles + cfg.sim.measure_cycles * pct / 100;
        for (ci, &count) in FAULT_COUNTS.iter().enumerate() {
            let mut rng =
                SmallRng::seed_from_u64(derive_seed(cfg.base_seed, 20, fi as u64, ci as u64));
            let schedules = (0..n_schedules)
                .map(|_| {
                    // Width-1 window pins the event to the exact cycle.
                    FaultSchedule::random(&mesh, &base, 1, count, arrival..arrival + 1, &mut rng)
                        .expect("single-event schedule on a fault-free mesh")
                })
                .collect();
            scenarios.push((format!("{label} / {count} node(s)"), schedules));
        }
    }

    let grid = Grid::new(
        scenarios.iter().map(|(label, _)| label),
        algorithm_columns(&DYNAMIC_KINDS),
        n_schedules,
    )
    .run(
        cfg,
        "dynamic faults",
        21,
        |s, k, p, seed| Some((&scenarios[s].1[p], DYNAMIC_KINDS[k], seed)),
        |&(schedule, kind, seed)| {
            run_chaos(
                mesh.clone(),
                base.clone(),
                schedule,
                kind,
                cfg.vc,
                Workload::paper_uniform(DYNAMIC_RATE),
                cfg.sim.with_seed(seed),
            )
        },
    )
    .expect("validated schedule cannot fail at run time");

    let axis = "arrival / faults";
    let tables = vec![
        grid.reduce(
            format!(
                "Post-fault settling time (cycles until the {}-cycle delivered-rate window \
                 recovers to 95% of the pre-fault rate)",
                cfg.sim.settle_window
            ),
            axis,
            |runs| event_mean(runs, |e| e.settle_cycles.map_or(f64::NAN, |c| c as f64)),
        ),
        grid.reduce(
            "Mean recovery latency of aborted messages (abort to delivery, cycles)",
            axis,
            |runs| event_mean(runs, |e| e.mean_recovery_latency().unwrap_or(f64::NAN)),
        ),
        grid.reduce(
            "Messages aborted and re-injected per fault event (mean)",
            axis,
            |runs| event_mean(runs, |e| e.aborted as f64),
        ),
        grid.reduce(
            "Messages permanently lost per fault event (dead endpoint, mean)",
            axis,
            |runs| event_mean(runs, |e| e.lost as f64),
        ),
        grid.table(
            "Normalized delivered throughput over the whole measurement window",
            axis,
            SimReport::normalized_throughput,
        ),
    ];

    FigureResult {
        id: "dynamic_faults",
        title: "Dynamic faults: in-flight recovery and re-convergence".into(),
        tables,
        notes: vec![
            format!(
                "rate {DYNAMIC_RATE} (below saturation on both sides of the event), \
                 fault-free start; one fault event per run at the \
                 given fraction of the measurement window, averaged over {n_schedules} \
                 random fault placements shared across algorithms"
            ),
            "settling NaN = the delivered-rate window never regained 95% of the \
             pre-fault rate before the run ended"
                .into(),
            format!(
                "backoff: base {} cycles, doubling per abort, capped at {} doublings",
                cfg.sim.recovery_backoff_base, cfg.sim.recovery_backoff_cap
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn dynamic_faults_shape_and_accounting() {
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 100;
        cfg.sim.measure_cycles = 1_200;
        cfg.sim.settle_window = 100;
        cfg.fault_patterns = 1;
        let fig = dynamic_faults(&cfg);
        assert_eq!(fig.id, "dynamic_faults");
        assert_eq!(fig.tables.len(), 5);
        for table in &fig.tables {
            assert_eq!(
                table.rows.len(),
                ARRIVAL_FRACTIONS.len() * FAULT_COUNTS.len()
            );
            assert_eq!(table.columns.len(), DYNAMIC_KINDS.len());
        }
        // Counts are finite and non-negative for every scenario; throughput
        // is positive (the network keeps delivering after the event).
        for t in [&fig.tables[2], &fig.tables[3]] {
            for (_, values) in &t.rows {
                for v in values {
                    assert!(v.is_finite() && *v >= 0.0);
                }
            }
        }
        for (_, values) in &fig.tables[4].rows {
            for v in values {
                assert!(*v > 0.0);
            }
        }
    }
}
