//! Golden report fingerprints: tier-1's pin on simulation *results*.
//!
//! Every other tier-1 test compares the engine with itself (same seed
//! twice, reset vs fresh, traced vs untraced) or checks coarse shapes, so
//! an engine change that alters every report still passes them. These
//! fingerprints were recorded on commit `3062474`, before the movement
//! kernel and the message slab were rewritten, and must never change under
//! `Arbitration::Random`. The one `OldestFirst` value was recorded *after*
//! that rewrite (`96c20ca36c6d740d` before it): messages created in the
//! same cycle are served in slab-index order, and the index is now handed
//! out at promotion instead of at creation. It pins the new order.
//!
//! A changed fingerprint means simulation semantics, the RNG call
//! sequence or the report schema moved: decide which before re-recording.

use std::sync::Arc;
use wormsim_chaos::{run_chaos, FaultEvent, FaultSchedule};
use wormsim_engine::{Arbitration, SimConfig, Simulator};
use wormsim_experiments::{paper_52_layout, report_fingerprint, report_json_fingerprint};
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Coord, Mesh};
use wormsim_traffic::Workload;

fn run(
    kind: AlgorithmKind,
    pattern: FaultPattern,
    workload: Workload,
    cfg: SimConfig,
) -> SimReport {
    let ctx = Arc::new(RoutingContext::new(Mesh::square(10), pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    Simulator::new(algo, ctx, workload, cfg).run()
}

/// The run `tests/steady_state_alloc.rs` and `wormbench paper_saturated`
/// run 0 also pin: the paper configuration at seed `0xB41C`, fingerprinted
/// in the pretty form.
#[test]
fn paper_run_at_the_historical_seed() {
    let mesh = Mesh::square(10);
    let report = run(
        AlgorithmKind::Duato,
        FaultPattern::fault_free(&mesh),
        Workload::paper_uniform(0.01),
        SimConfig::paper().with_seed(0xB41C),
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(report_json_fingerprint(&json), "6fea1f0c9bd99fc2");
    assert_eq!(report.throughput.messages_delivered(), 4_767);
    assert_eq!(report.recoveries, 2);
}

/// Eight-flit messages on the paper's §5.2 fault layout: header-dominated
/// traffic, ring detours, and `ring_load` in the report.
#[test]
fn every_algorithm_on_the_paper_fault_layout() {
    const EXPECTED: [(AlgorithmKind, &str); 11] = [
        (AlgorithmKind::BouraAdaptive, "88242d21c9eb42cc"),
        (AlgorithmKind::FullyAdaptive, "039bd5fda1d4ca61"),
        (AlgorithmKind::Nbc, "0b5cbfa7e3b34212"),
        (AlgorithmKind::NHop, "9ae9572d78c86e28"),
        (AlgorithmKind::PHop, "1d31b1e0fb6f8e7b"),
        (AlgorithmKind::Pbc, "08240ab32df61915"),
        (AlgorithmKind::MinimalAdaptive, "c0333b9e75eb71d9"),
        (AlgorithmKind::Duato, "b8ac7d05ed37a6e0"),
        (AlgorithmKind::DuatoNbc, "f3d5b119482d33ec"),
        (AlgorithmKind::DuatoPbc, "a4c9b39367e025ea"),
        (AlgorithmKind::BouraFaultTolerant, "09651be8db6a3000"),
    ];
    assert_eq!(EXPECTED.map(|(k, _)| k), AlgorithmKind::ALL);
    let mesh = Mesh::square(10);
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::paper().with_seed(0x52)
    };
    let workload = Workload {
        message_length: 8,
        ..Workload::paper_uniform(0.05)
    };
    let got: Vec<(AlgorithmKind, String)> = EXPECTED
        .iter()
        .map(|&(kind, _)| {
            let report = run(kind, paper_52_layout(&mesh), workload.clone(), cfg);
            assert!(report.ring_load.is_some(), "{kind:?}: no ring_load");
            (kind, report_fingerprint(&report))
        })
        .collect();
    let want: Vec<(AlgorithmKind, String)> = EXPECTED
        .iter()
        .map(|&(kind, fp)| (kind, fp.to_string()))
        .collect();
    assert_eq!(got, want);
}

fn saturated_short(arbitration: Arbitration) -> (Workload, SimConfig) {
    let workload = Workload {
        message_length: 16,
        ..Workload::paper_uniform(0.03)
    };
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::paper()
            .with_seed(0xC4A05)
            .with_arbitration(arbitration)
    };
    (workload, cfg)
}

/// Two mid-run fault events under saturation, so activation triage finds
/// worms in flight (aborted or lost) and a backlog in every source queue
/// (requeued, or lost with a dead endpoint).
#[test]
fn chaos_schedule() {
    let mesh = Mesh::square(10);
    let base = FaultPattern::fault_free(&mesh);
    let schedule = FaultSchedule::new(
        &mesh,
        &base,
        vec![
            FaultEvent {
                cycle: 500,
                coords: vec![Coord::new(4, 4), Coord::new(5, 5)],
            },
            FaultEvent {
                cycle: 1_100,
                coords: vec![Coord::new(8, 2)],
            },
        ],
    )
    .expect("schedule is acceptable");
    let (workload, cfg) = saturated_short(Arbitration::Random);
    let report = run_chaos(
        mesh,
        base,
        &schedule,
        AlgorithmKind::DuatoNbc,
        VcConfig::paper(),
        workload,
        cfg,
    )
    .expect("schedule replays");
    let rec = report
        .recovery
        .as_ref()
        .expect("chaos run has RecoveryStats");
    assert!(rec.total_aborted() > 0 && rec.total_lost() > 0);
    assert!(rec.events().iter().all(|e| e.requeued > 0));
    assert_eq!(report_fingerprint(&report), "39f6741ee8305e29");
}

/// A short watchdog timeout on an algorithm that can deadlock: recovery
/// re-injects through a held port or the front of the source queue.
#[test]
fn watchdog_recoveries() {
    let (workload, cfg) = saturated_short(Arbitration::Random);
    let cfg = SimConfig {
        deadlock_timeout: 300,
        ..cfg
    };
    let report = run(
        AlgorithmKind::MinimalAdaptive,
        paper_52_layout(&Mesh::square(10)),
        workload,
        cfg,
    );
    assert!(report.recoveries > 0, "scenario must trip the watchdog");
    assert_eq!(report_fingerprint(&report), "2d37c0e0e41c4938");
}

/// Recorded after the slab moved to promotion time (see the module docs).
#[test]
fn oldest_first_after_the_slab_moved_to_promotion() {
    let mesh = Mesh::square(10);
    let (workload, cfg) = saturated_short(Arbitration::OldestFirst);
    let report = run(
        AlgorithmKind::Nbc,
        FaultPattern::fault_free(&mesh),
        workload,
        cfg,
    );
    assert_eq!(report_fingerprint(&report), "cb0e546673abb382");
}
