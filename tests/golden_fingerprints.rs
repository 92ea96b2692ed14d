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
//!
//! Equal reports do not prove equal runs: the order in which headers wake,
//! block and win VCs can change while every statistic stays put. The event
//! streams of the eleven §5.2 runs, the watchdog run and the `OldestFirst`
//! run are therefore pinned too, by the fingerprint of their serialized
//! [`TraceEvent`]s. Those values were recorded on commit `264ed2b`, before
//! wake-list registration moved from a dedup walk to a per-message record
//! and the blocked-wait counter moved off `MessageState`, and must not
//! change under either rewrite. `VcRelease` events are newer than those
//! pins, so the stream fingerprint leaves them out: the pinned streams
//! are the other kinds, in order.
//!
//! The same runs, plus the chaos schedule, also pin the per-window
//! telemetry a `TelemetrySink` folds from their events (50-cycle
//! windows). Those values were recorded on commit `d119a54` from the
//! engine-side collector the sink replaced, in the sink's field layout,
//! so they show the sink counts what the collector counted.

use std::sync::Arc;
use wormsim_chaos::{run_chaos, run_chaos_with_sink, ChaosDriver, FaultEvent, FaultSchedule};
use wormsim_engine::{Arbitration, SimConfig, Simulator};
use wormsim_experiments::{paper_52_layout, report_fingerprint, report_json_fingerprint};
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_obs::{EventKind, Sink, TeeSink, TelemetrySink, TraceEvent, VecSink};
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Coord, Mesh};
use wormsim_traffic::Workload;

fn run(
    kind: AlgorithmKind,
    pattern: FaultPattern,
    workload: Workload,
    cfg: SimConfig,
) -> SimReport {
    run_with(kind, pattern, workload, cfg, wormsim_obs::NullSink).0
}

fn run_with<S: Sink>(
    kind: AlgorithmKind,
    pattern: FaultPattern,
    workload: Workload,
    cfg: SimConfig,
    sink: S,
) -> (SimReport, S) {
    let ctx = Arc::new(RoutingContext::new(Mesh::square(10), pattern));
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let mut sim = Simulator::with_sink(algo, ctx, workload, cfg, sink);
    let report = sim.run();
    (report, sim.into_sink())
}

/// The fingerprint of an event stream without its `VcRelease` events:
/// one compact JSON document per event, newline-terminated, hashed like
/// a report.
fn stream_fingerprint(events: &[TraceEvent]) -> String {
    let mut jsonl = String::new();
    for e in events.iter().filter(|e| e.kind != EventKind::VcRelease) {
        jsonl.push_str(&serde_json::to_string(e).expect("event serializes"));
        jsonl.push('\n');
    }
    report_json_fingerprint(&jsonl)
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
const PAPER_52: [(AlgorithmKind, &str); 11] = [
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

fn paper_52_dense() -> (Workload, SimConfig) {
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::paper().with_seed(0x52)
    };
    let workload = Workload {
        message_length: 8,
        ..Workload::paper_uniform(0.05)
    };
    (workload, cfg)
}

#[test]
fn every_algorithm_on_the_paper_fault_layout() {
    assert_eq!(PAPER_52.map(|(k, _)| k), AlgorithmKind::ALL);
    let mesh = Mesh::square(10);
    let (workload, cfg) = paper_52_dense();
    let got: Vec<(AlgorithmKind, String)> = PAPER_52
        .iter()
        .map(|&(kind, _)| {
            let report = run(kind, paper_52_layout(&mesh), workload.clone(), cfg);
            assert!(report.ring_load.is_some(), "{kind:?}: no ring_load");
            (kind, report_fingerprint(&report))
        })
        .collect();
    let want: Vec<(AlgorithmKind, String)> = PAPER_52
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
    let schedule = two_fault_events(&mesh, &base);
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

fn two_fault_events(mesh: &Mesh, base: &FaultPattern) -> FaultSchedule {
    FaultSchedule::new(
        mesh,
        base,
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
    .expect("schedule is acceptable")
}

fn watchdog_heavy() -> (Workload, SimConfig) {
    let (workload, cfg) = saturated_short(Arbitration::Random);
    let cfg = SimConfig {
        deadlock_timeout: 300,
        ..cfg
    };
    (workload, cfg)
}

/// A short watchdog timeout on an algorithm that can deadlock: recovery
/// re-injects through a held port or the front of the source queue.
#[test]
fn watchdog_recoveries() {
    let (workload, cfg) = watchdog_heavy();
    let report = run(
        AlgorithmKind::MinimalAdaptive,
        paper_52_layout(&Mesh::square(10)),
        workload,
        cfg,
    );
    assert!(report.recoveries > 0, "scenario must trip the watchdog");
    assert_eq!(report_fingerprint(&report), "2d37c0e0e41c4938");
}

/// Node load counts the flits that arrive inside the measurement window
/// and no others: none before it opens, none after it closes however long
/// the run goes on. Checked on the paper run, on the chaos schedule (whose
/// aborts and losses release worms mid-window) and on the watchdog run
/// (whose recoveries do too). The report halfway through the window is
/// pinned as well: it is the one report that sees a window still open.
/// Its values were recorded on commit `f065690`, where every arrival was
/// counted as it happened.
#[test]
fn node_load_is_frozen_outside_the_window() {
    let mesh = Mesh::square(10);
    let base = FaultPattern::fault_free(&mesh);
    let (saturated, saturated_cfg) = saturated_short(Arbitration::Random);
    let (watchdog, watchdog_cfg) = watchdog_heavy();
    let cases = [
        (
            "paper",
            AlgorithmKind::Duato,
            base.clone(),
            Workload::paper_uniform(0.01),
            SimConfig::paper().with_seed(0xB41C),
            None,
            "658cfdef277da725",
        ),
        (
            "chaos",
            AlgorithmKind::DuatoNbc,
            base.clone(),
            saturated,
            saturated_cfg,
            Some(two_fault_events(&mesh, &base)),
            "0e85b9826671c549",
        ),
        (
            "watchdog",
            AlgorithmKind::MinimalAdaptive,
            paper_52_layout(&mesh),
            watchdog,
            watchdog_cfg,
            None,
            "ba4c35c0a26b13b0",
        ),
    ];
    for (name, kind, pattern, workload, cfg, schedule, mid_pin) in cases {
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern));
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let mut sim = Simulator::new(algo, ctx.clone(), workload, cfg);
        if let Some(schedule) = &schedule {
            let driver =
                ChaosDriver::new(schedule, ctx, kind, VcConfig::paper()).expect("schedule replays");
            sim.install_fault_driver(Box::new(driver));
        }
        let step_to = |sim: &mut Simulator, cycle: u64| {
            while sim.cycle() < cycle {
                sim.step();
            }
        };
        let load = |sim: &Simulator| serde_json::to_string(&sim.report().node_load).unwrap();

        step_to(&mut sim, cfg.warmup_cycles);
        let before = sim.report().node_load;
        assert!(
            before.arrivals().iter().all(|&a| a == 0),
            "{name}: arrivals counted before the window opened"
        );
        step_to(&mut sim, cfg.warmup_cycles + cfg.measure_cycles / 2);
        assert_eq!(
            report_fingerprint(&sim.report()),
            mid_pin,
            "{name}: the report inside the window moved"
        );
        let end = cfg.total_cycles();
        step_to(&mut sim, end);
        let closed = load(&sim);
        assert!(
            sim.report().node_load.arrivals().iter().sum::<u64>() > 0,
            "{name}: no arrivals counted in the window"
        );
        for k in [1, 500] {
            step_to(&mut sim, end + k);
            assert_eq!(
                load(&sim),
                closed,
                "{name}: node load moved {k} cycles after the window"
            );
        }
    }
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

/// The fingerprint of the 50-cycle-window telemetry folded from a run
/// of `cycles` cycles with `kind`'s overlay VCs.
fn telemetry_fingerprint(sink: TelemetrySink, cycles: u64) -> String {
    report_json_fingerprint(&serde_json::to_string(&sink.finish(cycles)).expect("serializes"))
}

fn telemetry_sink(kind: AlgorithmKind) -> TelemetrySink {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ));
    let vc = VcConfig::paper();
    let algo = build_algorithm(kind, ctx, vc);
    let overlay = (0..vc.total)
        .filter(|&v| algo.is_overlay_vc(v))
        .fold(0u32, |mask, v| mask | 1 << v);
    TelemetrySink::new(50, overlay)
}

/// The event streams behind the eleven §5.2 reports, the watchdog run and
/// the `OldestFirst` run, recorded on commit `264ed2b`, and the telemetry
/// of those runs and the chaos schedule, recorded on commit `d119a54`
/// (see the module docs). The traced §5.2 reports must also still read
/// their pins. The two Boura variants share a stream: on this layout
/// they take the same decisions, and their reports differ only in the
/// algorithm name.
#[test]
fn event_streams_of_the_dense_watchdog_and_oldest_first_runs() {
    const EXPECTED: [&str; 13] = [
        "31399d771089affd",
        "863c95873ed792ff",
        "00691e86bf680803",
        "dd0375c22f743f5e",
        "e4650cad77898bbc",
        "284d624c4f35ddec",
        "b6b8c7e269af433f",
        "681ef30e25d974e8",
        "d069fb4f09985ec6",
        "f6fb486f52aef457",
        "31399d771089affd",
        "e6bf68fe382b2b92",
        "0727f3a1f03ea15d",
    ];
    const TELEMETRY: [&str; 14] = [
        "f53d4676a3c43123",
        "35509a86e3b281a0",
        "a1480457e272b404",
        "035245e7aed9f412",
        "0ad2b084f57b0d23",
        "8b2566abdc00731a",
        "eabe539604e66584",
        "63f3e4fc1a06a56c",
        "84da725449ac5f08",
        "30d66be5d54af594",
        "f53d4676a3c43123",
        "2972fc7fb73da50c",
        "c994ea1010696142",
        "2c82369479f84c91",
    ];
    let mesh = Mesh::square(10);
    let traced = |kind, pattern, workload, cfg: SimConfig| {
        let sink = TeeSink(VecSink::new(), telemetry_sink(kind));
        let (report, TeeSink(events, telemetry)) = run_with(kind, pattern, workload, cfg, sink);
        let events = stream_fingerprint(events.events());
        let telemetry = telemetry_fingerprint(telemetry, cfg.total_cycles());
        (report, format!("{events} {telemetry}"))
    };
    let mut got = Vec::new();
    let (workload, cfg) = paper_52_dense();
    for (kind, pin) in PAPER_52 {
        let (report, events) = traced(kind, paper_52_layout(&mesh), workload.clone(), cfg);
        assert_eq!(
            report_fingerprint(&report),
            pin,
            "{kind:?}: traced report moved"
        );
        got.push(format!("{kind:?} {events}"));
    }
    let (workload, cfg) = watchdog_heavy();
    let (_, events) = traced(
        AlgorithmKind::MinimalAdaptive,
        paper_52_layout(&mesh),
        workload,
        cfg,
    );
    got.push(format!("watchdog {events}"));
    let (workload, cfg) = saturated_short(Arbitration::OldestFirst);
    let (_, events) = traced(
        AlgorithmKind::Nbc,
        FaultPattern::fault_free(&mesh),
        workload,
        cfg,
    );
    got.push(format!("oldest_first {events}"));
    let base = FaultPattern::fault_free(&mesh);
    let (workload, cfg) = saturated_short(Arbitration::Random);
    let (_, telemetry) = run_chaos_with_sink(
        mesh.clone(),
        base.clone(),
        &two_fault_events(&mesh, &base),
        AlgorithmKind::DuatoNbc,
        VcConfig::paper(),
        workload,
        cfg,
        telemetry_sink(AlgorithmKind::DuatoNbc),
    )
    .expect("schedule replays");
    got.push(format!(
        "chaos {}",
        telemetry_fingerprint(telemetry, cfg.total_cycles())
    ));
    let names = PAPER_52
        .iter()
        .map(|(kind, _)| format!("{kind:?}"))
        .chain(["watchdog".to_string(), "oldest_first".to_string()]);
    let want: Vec<String> = names
        .zip(EXPECTED)
        .zip(TELEMETRY)
        .map(|((name, fp), telemetry)| format!("{name} {fp} {telemetry}"))
        .chain([format!("chaos {}", TELEMETRY[13])])
        .collect();
    assert_eq!(got, want);
}
