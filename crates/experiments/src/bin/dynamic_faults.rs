//! Run the dynamic-fault study: mid-run node failures, in-flight recovery,
//! and post-fault re-convergence across three routing algorithms.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin dynamic_faults
//! cargo run --release -p wormsim-experiments --bin dynamic_faults -- \
//!     --quick --seed 7 --threads 4 --out results --check-determinism
//! ```
//!
//! `--check-determinism` additionally runs one chaos scenario twice with
//! the same seed, asserts the two `SimReport`s (including `RecoveryStats`)
//! are byte-identical, and prints the report's FNV-1a fingerprint — the
//! same convention `tests/golden_fingerprints.rs` pins the static engine
//! with.

use std::time::Instant;
use wormsim_chaos::{run_chaos, FaultEvent, FaultSchedule};
use wormsim_experiments::{
    dynamic_faults, provenance, ExperimentConfig, Progress, Scale, DYNAMIC_RATE,
};
use wormsim_fault::FaultPattern;
use wormsim_routing::{AlgorithmKind, VcConfig};
use wormsim_topology::{Coord, Mesh};
use wormsim_traffic::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: dynamic_faults [--quick] [--plot] [--seed N] [--threads N] [--out DIR] \
         [--check-determinism] [--quiet]"
    );
    std::process::exit(2);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one fixed chaos scenario twice and assert byte-identical reports.
fn check_determinism(cfg: &ExperimentConfig) {
    let mesh = Mesh::square(cfg.mesh_size);
    let base = FaultPattern::fault_free(&mesh);
    let arrival = cfg.sim.warmup_cycles + cfg.sim.measure_cycles / 4;
    let schedule = FaultSchedule::new(
        &mesh,
        &base,
        vec![FaultEvent {
            cycle: arrival,
            coords: vec![Coord::new(4, 4), Coord::new(5, 4)],
        }],
    )
    .expect("fixed scenario is acceptable");
    let run = || {
        let report = run_chaos(
            mesh.clone(),
            base.clone(),
            &schedule,
            AlgorithmKind::Duato,
            VcConfig::paper(),
            Workload::paper_uniform(DYNAMIC_RATE),
            cfg.sim.with_seed(cfg.base_seed),
        )
        .expect("fixed scenario runs");
        serde_json::to_string_pretty(&report).expect("report serializes")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a, b,
        "same seed + schedule must give byte-identical reports"
    );
    assert!(
        a.contains("\"recovery\""),
        "chaos report must carry RecoveryStats"
    );
    println!(
        "determinism check passed: chaos report fingerprint {:016x}",
        fnv1a(a.as_bytes())
    );
}

/// A flag's value as a number; missing or unparsable is a usage error.
fn number<T: std::str::FromStr>(value: Option<&String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut threads = None;
    let mut out_dir = "results".to_string();
    let mut plot = false;
    let mut determinism = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--plot" => plot = true,
            "--quiet" => quiet = true,
            "--seed" => seed = Some(number(it.next())),
            "--threads" => threads = Some(number(it.next())),
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            "--check-determinism" => determinism = true,
            _ => usage(),
        }
    }
    let progress = Progress::from_quiet_flag(quiet);
    let mut cfg = ExperimentConfig::new(scale).with_progress(progress);
    if let Some(s) = seed {
        cfg = cfg.with_seed(s);
    }
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    if determinism {
        check_determinism(&cfg);
    }
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    progress.out(format_args!(
        "# wormsim dynamic-fault study ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    let t = Instant::now();
    let fig = dynamic_faults(&cfg);
    let md = fig.write(&out_dir, &provenance(scale, &cfg), t.elapsed(), plot);
    progress.out(format_args!("{md}"));
}
