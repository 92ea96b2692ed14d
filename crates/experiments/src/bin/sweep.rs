//! One-off parameterized simulation runs from the command line — the
//! Swiss-army knife for exploring the simulator outside the predefined
//! figure/ablation sweeps.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin sweep -- \
//!     --algo duato-nbc --faults 10 --rate 0.004 --cycles 30000 --seeds 3 --plot
//! ```
//!
//! The rates × algorithms × seeds runs go through the studies' own
//! `Grid`, compiled here as a module of this binary.

#[path = "../grid.rs"]
mod grid;

use grid::Grid;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wormsim_engine::{Arbitration, SimConfig};
use wormsim_experiments::{
    parallel_map_with_progress, parse_algorithm, run_custom, CustomSpec, ExperimentConfig,
    Progress, Scale, Table,
};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::{AlgorithmKind, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::{Workload, MAX_RATE};

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--algo NAME]... [--faults N] [--rate R]... [--length L] [--vcs V] \
         [--mesh K] [--cycles C] [--seeds N] [--oldest-first] [--plot] [--quiet]\n\
         algorithms: {:?} + {:?}",
        AlgorithmKind::ALL.map(|k| k.paper_name()),
        AlgorithmKind::EXTENDED_BASELINES.map(|k| k.paper_name()),
    );
    std::process::exit(2);
}

/// A combination of flag values the simulator cannot run: one line, exit 2.
fn reject(why: impl std::fmt::Display) -> ! {
    eprintln!("sweep: {why}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut algos: Vec<AlgorithmKind> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut faults = 0usize;
    let mut length = 100u32;
    let mut vcs = 24u8;
    let mut mesh_size = 10u16;
    let mut cycles = 30_000u64;
    let mut seeds = 1u64;
    let mut arbitration = Arbitration::Random;
    let mut plot = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--algo" => {
                let name = next();
                algos.push(parse_algorithm(&name).unwrap_or_else(|| {
                    eprintln!("unknown algorithm {name:?}");
                    usage()
                }));
            }
            "--rate" => rates.push(next().parse().unwrap_or_else(|_| usage())),
            "--faults" => faults = next().parse().unwrap_or_else(|_| usage()),
            "--length" => length = next().parse().unwrap_or_else(|_| usage()),
            "--vcs" => vcs = next().parse().unwrap_or_else(|_| usage()),
            "--mesh" => mesh_size = next().parse().unwrap_or_else(|_| usage()),
            "--cycles" => cycles = next().parse().unwrap_or_else(|_| usage()),
            "--seeds" => seeds = next().parse().unwrap_or_else(|_| usage()),
            "--oldest-first" => arbitration = Arbitration::OldestFirst,
            "--plot" => plot = true,
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    if !(2..=256).contains(&mesh_size) {
        reject(format_args!(
            "--mesh {mesh_size}: the side must be 2 to 256"
        ));
    }
    if let Some(rate) = rates.iter().find(|r| !(0.0..=MAX_RATE).contains(*r)) {
        reject(format_args!("--rate {rate}: must be in 0..={MAX_RATE}"));
    }
    if length == 0 {
        reject("--length 0: a message needs at least one flit");
    }
    if cycles == 0 {
        reject("--cycles 0: a run needs at least one cycle");
    }
    if seeds == 0 {
        reject("--seeds 0: a sweep needs at least one seed");
    }
    if algos.is_empty() {
        algos.push(AlgorithmKind::DuatoNbc);
    }
    if rates.is_empty() {
        rates.push(0.004);
    }

    let mesh = Mesh::square(mesh_size);
    let mut rng = SmallRng::seed_from_u64(7);
    let pattern = std::sync::Arc::new(if faults == 0 {
        FaultPattern::fault_free(&mesh)
    } else {
        random_pattern(&mesh, faults, &mut rng)
            .unwrap_or_else(|e| reject(format_args!("--faults {faults}: {e}")))
    });
    let progress = Progress::from_quiet_flag(quiet);
    progress.out(format_args!(
        "mesh {mesh_size}×{mesh_size}, {} faults ({} disabled, {} regions), {} VCs, {}-flit messages, {} cycles × {} seed(s), {:?} arbitration",
        faults,
        pattern.num_faulty(),
        pattern.regions().len(),
        vcs,
        length,
        cycles,
        seeds,
        arbitration
    ));

    let columns = algos.iter().map(|k| k.paper_name().to_string()).collect();
    // The grid reads only the pool settings (one thread per core,
    // `progress`) and the default base seed, from which it seeds the runs:
    // every rate and algorithm of a seed index runs on the same seed.
    let cfg = ExperimentConfig::new(Scale::Paper).with_progress(progress);
    let grid = Grid::new(&rates, columns, seeds as usize)
        .run(
            &cfg,
            "sweep",
            0,
            |r, a, _, seed| {
                let mut workload = Workload::paper_uniform(rates[r]);
                workload.message_length = length;
                Some(CustomSpec {
                    mesh_size,
                    vc: VcConfig::with_total(vcs),
                    sim: SimConfig {
                        warmup_cycles: cycles / 3,
                        measure_cycles: cycles - cycles / 3,
                        ..SimConfig::paper()
                    }
                    .with_seed(seed)
                    .with_arbitration(arbitration),
                    kind: algos[a],
                    pattern: pattern.clone(),
                    workload,
                })
            },
            run_custom,
        )
        .unwrap_or_else(|e| reject(e));
    let thr = grid.table(
        "normalized throughput",
        "rate",
        SimReport::normalized_throughput,
    );
    let lat = grid.table(
        "network latency (flit cycles)",
        "rate",
        SimReport::mean_network_latency,
    );
    println!("\n{}", thr.to_markdown());
    println!("{}", lat.to_markdown());
    if plot {
        if rates.len() > 1 {
            println!("{}", thr.to_line_chart(70, 14));
            println!("{}", lat.to_line_chart(70, 14));
        } else {
            println!("{}", thr.to_bar_chart(50));
        }
    }
    let reports: Vec<&SimReport> = (0..rates.len())
        .flat_map(|r| (0..algos.len()).map(move |a| (r, a)))
        .flat_map(|(r, a)| grid.cell(r, a))
        .collect();
    let total_recov: u64 = reports.iter().map(|r| r.recoveries).sum();
    let total_ring: u64 = reports.iter().map(|r| r.ring_hops).sum();
    println!("total watchdog recoveries: {total_recov}; overlay (ring) hops: {total_ring}");
}
