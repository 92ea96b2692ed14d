//! Record one faulty-mesh simulation end-to-end with flit-level tracing,
//! cycle telemetry, and stall forensics, then validate its own artifacts.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin trace -- \
//!     --mesh 8 --faults 3 --rate 0.004 --cycles 4000 --out results
//! ```
//!
//! Writes four files to `--out`:
//!
//! - `trace_events.jsonl` — one `TraceEvent` per line (streaming form).
//! - `trace_chrome.json` — Chrome `trace_event` document; load it at
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see one track per
//!   node plus a fabric track of VC wake-ups.
//! - `trace_telemetry.json` — the `CycleTelemetry` time series a
//!   `TelemetrySink` folded from the same events, one window per
//!   `--telemetry-window` cycles (at least 1; default 200).
//! - `trace_report.json` — the run's `SimReport`.
//!
//! Before exiting the binary re-parses the three event-derived files and
//! checks they agree with each other and with the run, so a zero exit
//! status certifies the artifacts are well-formed.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::Write;
use std::sync::Arc;
use wormsim_engine::{ChromeTraceSink, EventKind, JsonlSink, SimConfig, Simulator, TeeSink};
use wormsim_experiments::{parse_algorithm, Progress};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_obs::{parse_jsonl, CycleTelemetry, TelemetrySink};
use wormsim_routing::{build_algorithm, min_total_vcs, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: trace [--algo NAME] [--mesh K] [--faults N] [--rate R] [--cycles C] \
         [--seed S] [--telemetry-window W] [--out DIR] [--quiet]"
    );
    std::process::exit(2);
}

/// A flag value the simulator cannot run: one line, exit 2.
fn reject(why: impl std::fmt::Display) -> ! {
    eprintln!("trace: {why}");
    std::process::exit(2);
}

/// An output file that cannot be written: one line, exit 1.
fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("trace: cannot write {path}: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = AlgorithmKind::DuatoNbc;
    let mut mesh_size = 8u16;
    let mut faults = 3usize;
    let mut rate = 0.004f64;
    let mut cycles = 4_000u64;
    let mut seed = 0xB0Bu64;
    let mut window = 200u64;
    let mut out_dir = "results".to_string();
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--algo" => {
                let name = next();
                kind = parse_algorithm(&name).unwrap_or_else(|| {
                    eprintln!("unknown algorithm {name:?}");
                    usage()
                });
            }
            "--mesh" => mesh_size = next().parse().unwrap_or_else(|_| usage()),
            "--faults" => faults = next().parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = next().parse().unwrap_or_else(|_| usage()),
            "--cycles" => cycles = next().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = next().parse().unwrap_or_else(|_| usage()),
            "--telemetry-window" => window = next().parse().unwrap_or_else(|_| usage()),
            "--out" => out_dir = next(),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    if !(2..=256).contains(&mesh_size) {
        reject(format_args!(
            "--mesh {mesh_size}: the side must be 2 to 256"
        ));
    }
    if !(rate >= 0.0 && rate.is_finite()) {
        reject(format_args!("--rate {rate}: must be finite and at least 0"));
    }
    if cycles == 0 {
        reject("--cycles 0: the run needs at least 1 cycle");
    }
    if window == 0 {
        reject("--telemetry-window 0: a window is at least 1 cycle");
    }
    let progress = Progress::from_quiet_flag(quiet);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("trace: cannot create {out_dir}: {e}");
        std::process::exit(1);
    }

    // The algorithm constructors assert their VC minimums; a mesh too
    // large for the paper's budget is a usage error, not a crash.
    let mesh = Mesh::square(mesh_size);
    let vc = VcConfig::paper();
    let required = min_total_vcs(kind, &mesh, vc.bc_vcs);
    if vc.total < required {
        eprintln!(
            "trace: {} on a {mesh_size}×{mesh_size} mesh needs {required} VCs per channel, \
             the budget is {}; pick a smaller --mesh or another --algo",
            kind.paper_name(),
            vc.total
        );
        std::process::exit(2);
    }

    // Faulty mesh: `faults` nodes drawn reproducibly from the seed.
    let pattern = if faults == 0 {
        FaultPattern::fault_free(&mesh)
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        random_pattern(&mesh, faults, &mut rng).unwrap_or_else(|e| {
            eprintln!("trace: --faults {faults} on a {mesh_size}×{mesh_size} mesh: {e}");
            std::process::exit(2);
        })
    };
    progress.out(format_args!(
        "tracing {} on a {mesh_size}×{mesh_size} mesh, {} faulty nodes, rate {rate}, \
         {cycles} cycles, seed {seed:#x}",
        kind.paper_name(),
        pattern.num_faulty(),
    ));

    let ctx = Arc::new(RoutingContext::new(mesh, pattern));
    let algo = build_algorithm(kind, ctx.clone(), vc);
    let overlay_vcs = (0..vc.total)
        .filter(|&v| algo.is_overlay_vc(v))
        .fold(0u32, |mask, v| mask | 1 << v);
    let cfg = SimConfig {
        warmup_cycles: cycles / 3,
        measure_cycles: cycles - cycles / 3,
        ..SimConfig::paper()
    }
    .with_seed(seed);

    let jsonl_path = format!("{out_dir}/trace_events.jsonl");
    let chrome_path = format!("{out_dir}/trace_chrome.json");
    let telemetry_path = format!("{out_dir}/trace_telemetry.json");
    let report_path = format!("{out_dir}/trace_report.json");
    let jsonl_file = File::create(&jsonl_path).unwrap_or_else(|e| cannot_write(&jsonl_path, e));
    let sink = TeeSink(
        JsonlSink::new(jsonl_file),
        TeeSink(
            ChromeTraceSink::new(mesh_size, mesh_size),
            TelemetrySink::new(window, overlay_vcs),
        ),
    );
    let mut sim = Simulator::with_sink(algo, ctx, Workload::paper_uniform(rate), cfg, sink);
    let report = sim.run();
    let stall = sim.last_stall().cloned();
    let cycles_run = sim.cycle();
    let TeeSink(jsonl, TeeSink(chrome, telemetry)) = sim.into_sink();
    let recorded = jsonl.written();
    (jsonl.finish().and_then(|mut file| file.flush()))
        .unwrap_or_else(|e| cannot_write(&jsonl_path, e));
    (File::create(&chrome_path).and_then(|file| chrome.write_to(file)))
        .unwrap_or_else(|e| cannot_write(&chrome_path, e));
    std::fs::write(
        &telemetry_path,
        serde_json::to_string_pretty(&telemetry.finish(cycles_run)).expect("telemetry serializes"),
    )
    .unwrap_or_else(|e| cannot_write(&telemetry_path, e));
    std::fs::write(
        &report_path,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
    .unwrap_or_else(|e| cannot_write(&report_path, e));

    // Self-validation: the artifacts must re-parse and agree with the run.
    let text = std::fs::read_to_string(&jsonl_path).expect("read back jsonl");
    let events = parse_jsonl(&text).expect("jsonl re-parses");
    assert_eq!(
        events.len() as u64,
        recorded,
        "jsonl line count must match recorded event count"
    );
    assert_eq!(events.len(), chrome.len(), "tee halves must agree");
    let chrome_doc =
        serde::json::parse(&std::fs::read_to_string(&chrome_path).expect("read back chrome"))
            .expect("chrome trace re-parses");
    match chrome_doc.get("traceEvents") {
        Some(serde::Value::Array(entries)) => assert!(
            entries.len() > events.len(),
            "chrome doc must hold every event plus track metadata"
        ),
        _ => panic!("chrome trace lacks a traceEvents array"),
    }

    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    let t: CycleTelemetry =
        serde_json::from_str(&std::fs::read_to_string(&telemetry_path).expect("read back"))
            .expect("telemetry re-parses");
    assert_eq!(
        t.windows.iter().map(|w| w.cycles).sum::<u64>(),
        cycles_run,
        "telemetry windows must tile the run"
    );
    assert_eq!(t.total_injected(), count(EventKind::Inject) as u64);
    assert_eq!(t.total_delivered(), count(EventKind::Deliver) as u64);

    println!("recorded {} trace events to {jsonl_path}", events.len());
    println!(
        "  inject {} / route {} / vc-acquire {} / vc-release {} / block {} / wake {} / abort {} / recover {} / deliver {}",
        count(EventKind::Inject),
        count(EventKind::RouteDecision),
        count(EventKind::VcAcquire),
        count(EventKind::VcRelease),
        count(EventKind::Block),
        count(EventKind::Wake),
        count(EventKind::Abort),
        count(EventKind::Recover),
        count(EventKind::Deliver),
    );
    println!("chrome trace written to {chrome_path} (open in Perfetto)");
    println!(
        "telemetry: {} windows of {} cycles — {} injected, {} delivered",
        t.windows.len(),
        t.window,
        t.total_injected(),
        t.total_delivered(),
    );
    if let Some(w) = t.peak_blocked_window() {
        println!(
            "  peak contention at cycle {}: {} blocked waits, mean {:.1} VCs held",
            w.start_cycle, w.blocked_waits, w.mean_vc_held,
        );
    }
    println!("telemetry written to {telemetry_path}");
    match &stall {
        Some(diag) => print!("{diag}"),
        None => println!("no stalls: the watchdog never fired"),
    }
    println!("report written to {report_path}");
}
