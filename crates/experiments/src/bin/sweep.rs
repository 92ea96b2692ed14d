//! One-off parameterized simulation runs from the command line — the
//! Swiss-army knife for exploring the simulator outside the predefined
//! figure/ablation sweeps.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin sweep -- \
//!     --algo duato-nbc --faults 10 --rate 0.004 --cycles 30000 --seeds 3 --plot
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wormsim_engine::{Arbitration, SimConfig};
use wormsim_experiments::{parallel_map_with_progress, run_custom, CustomSpec, Progress, Table};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_metrics::SimReport;
use wormsim_routing::{AlgorithmKind, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

fn parse_algo(s: &str) -> Option<AlgorithmKind> {
    let norm = s.to_lowercase().replace(['_', ' '], "-");
    let all = AlgorithmKind::ALL
        .into_iter()
        .chain(AlgorithmKind::EXTENDED_BASELINES);
    for k in all {
        let name = k
            .paper_name()
            .to_lowercase()
            .replace([' ', '\'', '(', ')'], "-")
            .replace("--", "-");
        if name.trim_matches('-') == norm
            || format!("{k:?}").to_lowercase() == norm.replace('-', "")
        {
            return Some(k);
        }
    }
    None
}

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
                algos.push(parse_algo(&name).unwrap_or_else(|| {
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
    if !(1..=256).contains(&mesh_size) {
        reject(format_args!(
            "--mesh {mesh_size}: the side must be 1 to 256"
        ));
    }
    if let Some(rate) = rates.iter().find(|r| !(**r >= 0.0 && r.is_finite())) {
        reject(format_args!("--rate {rate}: must be finite and at least 0"));
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

    let mut specs = Vec::new();
    for &rate in &rates {
        for &kind in &algos {
            for seed in 0..seeds {
                let mut wl = Workload::paper_uniform(rate);
                wl.message_length = length;
                specs.push(CustomSpec {
                    mesh_size,
                    vc: VcConfig::with_total(vcs),
                    sim: SimConfig {
                        warmup_cycles: cycles / 3,
                        measure_cycles: cycles - cycles / 3,
                        ..SimConfig::paper()
                    }
                    .with_seed(0xABCD + seed)
                    .with_arbitration(arbitration),
                    kind,
                    pattern: pattern.clone(),
                    workload: wl,
                });
            }
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let reports: Vec<SimReport> =
        parallel_map_with_progress(&specs, threads, progress, "sweep", run_custom)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| reject(e));

    let mut thr = Table::new(
        "normalized throughput",
        "rate",
        algos.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    let mut lat = Table::new(
        "network latency (flit cycles)",
        "rate",
        algos.iter().map(|k| k.paper_name().to_string()).collect(),
    );
    for (ri, &rate) in rates.iter().enumerate() {
        let mut trow = Vec::new();
        let mut lrow = Vec::new();
        for ai in 0..algos.len() {
            let base = ri * algos.len() * seeds as usize + ai * seeds as usize;
            let runs = &reports[base..base + seeds as usize];
            trow.push(
                runs.iter().map(|r| r.normalized_throughput()).sum::<f64>() / runs.len() as f64,
            );
            let lats: Vec<f64> = runs
                .iter()
                .map(|r| r.mean_network_latency())
                .filter(|l| l.is_finite())
                .collect();
            lrow.push(if lats.is_empty() {
                f64::NAN
            } else {
                lats.iter().sum::<f64>() / lats.len() as f64
            });
        }
        thr.push_row(format!("{rate}"), trow);
        lat.push_row(format!("{rate}"), lrow);
    }
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
    let total_recov: u64 = reports.iter().map(|r| r.recoveries).sum();
    let total_ring: u64 = reports.iter().map(|r| r.ring_hops).sum();
    println!("total watchdog recoveries: {total_recov}; overlay (ring) hops: {total_ring}");
}
