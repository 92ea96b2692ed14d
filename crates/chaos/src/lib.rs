//! `wormsim-chaos` — online fault injection for the wormhole simulator.
//!
//! The static pipeline (PR 0/1) fixes a fault pattern before the first
//! cycle; every result in the source paper is steady-state under faults
//! that were always there. This crate adds the dynamic half: nodes die
//! *mid-simulation* according to a deterministic [`FaultSchedule`], the
//! engine's recovery protocol aborts and re-injects messages caught on the
//! failed hardware, and [`wormsim_metrics::RecoveryStats`] measures how
//! long each algorithm takes to re-converge.
//!
//! Structure:
//!
//! - [`FaultSchedule`] / [`FaultEvent`]: validated `(cycle, coords)` pairs.
//!   Construction folds [`FaultPattern::extend`] over the base pattern, so
//!   every prefix of the schedule is an acceptable block-fault pattern
//!   (convex regions, pairwise separated, healthy mesh connected).
//!   [`FaultSchedule::random`] draws schedules reproducibly from a seed.
//! - [`ChaosDriver`]: a [`wormsim_engine::FaultDriver`] replaying a
//!   schedule. Each activation rebuilds the routing context incrementally
//!   ([`RoutingContext::with_pattern`] reuses f-rings of unchanged
//!   regions) and re-instantiates the routing algorithm over it.
//! - [`run_chaos`]: one-call convenience — wire a schedule into a
//!   simulator and run it to completion.
//!
//! Determinism: a `(seed, schedule)` pair fully determines the run. The
//! schedule itself, the traffic, the arbitration choices, and the recovery
//! protocol all draw from seeded PRNGs or iterate in fixed order, so two
//! runs produce byte-identical [`SimReport`]s (asserted in the engine's
//! `chaos_runs_are_byte_identical_for_a_seed` test; the workspace's
//! `golden_fingerprints::chaos_schedule` test pins one such report,
//! `RecoveryStats` included, to a recorded fingerprint).

#![forbid(unsafe_code)]

mod driver;
mod schedule;

pub use driver::ChaosDriver;
pub use schedule::{FaultEvent, FaultSchedule, ScheduleError};

use std::sync::Arc;
use wormsim_engine::{NullSink, SimConfig, Simulator, Sink};
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// Run one simulation with `schedule` injected on top of `base`.
///
/// Builds the initial routing context from `(mesh, base)`, installs a
/// [`ChaosDriver`], and runs the configured warm-up + measurement window.
/// The returned report's `recovery` field is always `Some` (it records one
/// [`wormsim_metrics::RecoveryEvent`] per delivered fault event).
pub fn run_chaos(
    mesh: Mesh,
    base: FaultPattern,
    schedule: &FaultSchedule,
    kind: AlgorithmKind,
    vc: VcConfig,
    workload: Workload,
    cfg: SimConfig,
) -> Result<SimReport, ScheduleError> {
    run_chaos_with_sink(mesh, base, schedule, kind, vc, workload, cfg, NullSink)
        .map(|(report, _)| report)
}

/// [`run_chaos`] with a trace [`Sink`] attached: the run emits flit-level
/// [`wormsim_engine::TraceEvent`]s into `sink` and hands it back alongside
/// the report. Tracing is observational — the report is byte-identical to
/// the sink-less run.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_with_sink<S: Sink>(
    mesh: Mesh,
    base: FaultPattern,
    schedule: &FaultSchedule,
    kind: AlgorithmKind,
    vc: VcConfig,
    workload: Workload,
    cfg: SimConfig,
    sink: S,
) -> Result<(SimReport, S), ScheduleError> {
    let ctx = Arc::new(RoutingContext::new(mesh, base));
    let driver = ChaosDriver::new(schedule, ctx.clone(), kind, vc)?;
    let algo = build_algorithm(kind, ctx.clone(), vc);
    let mut sim = Simulator::with_sink(algo, ctx, workload, cfg, sink);
    sim.install_fault_driver(Box::new(driver));
    let report = sim.run();
    Ok((report, sim.into_sink()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::Coord;

    #[test]
    fn run_chaos_records_every_event() {
        let mesh = Mesh::square(8);
        let base = FaultPattern::fault_free(&mesh);
        let schedule = FaultSchedule::new(
            &mesh,
            &base,
            vec![
                FaultEvent {
                    cycle: 300,
                    coords: vec![Coord::new(2, 2)],
                },
                FaultEvent {
                    cycle: 900,
                    coords: vec![Coord::new(6, 5)],
                },
            ],
        )
        .unwrap();
        let report = run_chaos(
            mesh,
            base,
            &schedule,
            AlgorithmKind::Duato,
            VcConfig::paper(),
            Workload::paper_uniform(0.002),
            SimConfig::quick().with_seed(11),
        )
        .unwrap();
        let rec = report
            .recovery
            .expect("chaos run must attach RecoveryStats");
        assert_eq!(rec.num_events(), 2);
        assert_eq!(rec.events()[0].cycle, 300);
        assert_eq!(rec.events()[1].cycle, 900);
        assert!(rec.events().iter().all(|e| e.newly_faulty >= 1));
    }

    #[test]
    fn traced_chaos_run_matches_untraced_and_sees_the_fault() {
        use wormsim_engine::{EventKind, VecSink};
        let mesh = Mesh::square(8);
        let base = FaultPattern::fault_free(&mesh);
        let schedule = FaultSchedule::new(
            &mesh,
            &base,
            vec![FaultEvent {
                cycle: 500,
                coords: vec![Coord::new(4, 4)],
            }],
        )
        .unwrap();
        let run = |mesh: Mesh| {
            run_chaos(
                mesh,
                FaultPattern::fault_free(&Mesh::square(8)),
                &schedule,
                AlgorithmKind::Duato,
                VcConfig::paper(),
                Workload::paper_uniform(0.004),
                SimConfig::quick().with_seed(3),
            )
            .unwrap()
        };
        let untraced = serde_json::to_string(&run(mesh.clone())).unwrap();
        let (report, sink) = run_chaos_with_sink(
            mesh,
            base,
            &schedule,
            AlgorithmKind::Duato,
            VcConfig::paper(),
            Workload::paper_uniform(0.004),
            SimConfig::quick().with_seed(3),
            VecSink::new(),
        )
        .unwrap();
        assert_eq!(
            untraced,
            serde_json::to_string(&report).unwrap(),
            "tracing perturbed the chaos run"
        );
        let events = sink.events();
        assert!(!events.is_empty());
        // The mid-run fault must leave a visible trace: either aborts (a
        // worm crossed the dying node) or at minimum ordinary traffic.
        assert!(events.iter().any(|e| e.kind == EventKind::Inject));
        assert!(events.iter().any(|e| e.kind == EventKind::Deliver));
    }

    #[test]
    fn driver_delivers_in_cycle_order_and_empties() {
        let mesh = Mesh::square(8);
        let base = FaultPattern::fault_free(&mesh);
        let schedule = FaultSchedule::new(
            &mesh,
            &base,
            vec![
                FaultEvent {
                    cycle: 50,
                    coords: vec![Coord::new(1, 1)],
                },
                FaultEvent {
                    cycle: 50,
                    coords: vec![Coord::new(5, 5)],
                },
            ],
        )
        .unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh, base));
        let mut driver =
            ChaosDriver::new(&schedule, ctx, AlgorithmKind::Duato, VcConfig::paper()).unwrap();
        use wormsim_engine::FaultDriver;
        assert!(driver.poll(49).is_none());
        assert_eq!(driver.remaining(), 2);
        let first = driver.poll(50).expect("first event due");
        assert_eq!(first.ctx.pattern().num_seed_faulty(), 1);
        let second = driver.poll(50).expect("same-cycle event due");
        assert_eq!(second.ctx.pattern().num_seed_faulty(), 2);
        assert!(driver.poll(50).is_none());
        assert_eq!(driver.remaining(), 0);
    }
}
