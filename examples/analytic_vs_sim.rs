//! Analytical model vs simulation: the paper's stated future work (§6) —
//! predict latency, throughput, and the saturation point with the
//! closed-form channel-load model and compare against flit-level
//! simulation, fault-free and with a fault block.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --example analytic_vs_sim
//! ```

use std::sync::Arc;
use wormsim_analytic::AnalyticModel;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Coord, Mesh, Rect};
use wormsim_traffic::Workload;

fn compare(mesh: &Mesh, pattern: &FaultPattern, label: &str) {
    let model = AnalyticModel::new(mesh, pattern);
    println!("== {label} ==");
    println!(
        "model: mean distance {:.2}, zero-load latency {:.1}, saturation rate {:.5} msgs/node/cycle",
        model.mean_distance(),
        model.zero_load_latency(100),
        model.saturation_rate(100)
    );
    println!(
        "{:>9} {:>12} {:>12} {:>10} {:>10}",
        "rate", "lat (model)", "lat (sim)", "thr (model)", "thr (sim)"
    );
    for rate in [0.0005, 0.001, 0.0015, 0.002, 0.003, 0.005] {
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern.clone()));
        let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
        let cfg = SimConfig {
            warmup_cycles: 5_000,
            measure_cycles: 15_000,
            ..SimConfig::paper()
        };
        let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(rate), cfg);
        let r = sim.run();
        let lat_model = model
            .mean_latency(rate, 100)
            .map(|l| format!("{l:.1}"))
            .unwrap_or_else(|| "saturated".into());
        println!(
            "{:>9.4} {:>12} {:>12.1} {:>10.4} {:>10.4}",
            rate,
            lat_model,
            r.mean_network_latency(),
            model.normalized_throughput(rate, 100),
            r.normalized_throughput()
        );
    }
    println!();
}

fn main() {
    let mesh = Mesh::square(10);
    compare(&mesh, &FaultPattern::fault_free(&mesh), "fault-free 10×10");
    let pattern = FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 3), Coord::new(5, 6))])
        .expect("pattern");
    compare(&mesh, &pattern, "2×4 fault block at (4,3)-(5,6)");
    println!("note: the model assumes load-balanced shortest paths and M/G/1 channel");
    println!("waiting. It agrees with the simulator at low load, but its saturation");
    println!("estimate is optimistic: past the knee the simulator delivers less than");
    println!("the model's capacity, fault-free and with the block (last thr rows).");
}
