//! Cross-validation of the analytical model (wormsim-analytic) against the
//! flit-level simulator — the acceptance test for the paper's future-work
//! extension.

use std::sync::Arc;
use wormsim_analytic::AnalyticModel;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::{Coord, Mesh, Rect};
use wormsim_traffic::Workload;

fn simulate(pattern: &FaultPattern, rate: f64, seed: u64) -> wormsim_metrics::SimReport {
    let mesh = Mesh::square(10);
    let ctx = Arc::new(RoutingContext::new(mesh, pattern.clone()));
    let algo = build_algorithm(AlgorithmKind::Duato, ctx.clone(), VcConfig::paper());
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 8_000,
        seed,
        ..SimConfig::paper()
    };
    let mut sim = Simulator::new(algo, ctx, Workload::paper_uniform(rate), cfg);
    sim.run()
}

#[test]
fn zero_load_latency_matches_simulation() {
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::fault_free(&mesh);
    let model = AnalyticModel::new(&mesh, &pattern);
    let sim = simulate(&pattern, 0.0001, 1);
    let predicted = model.zero_load_latency(100);
    let measured = sim.mean_network_latency();
    // At λ=1e-4 contention is negligible: within 15 %.
    assert!(
        (measured - predicted).abs() / predicted < 0.15,
        "predicted {predicted:.1}, measured {measured:.1}"
    );
}

#[test]
fn low_load_latency_within_tolerance() {
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::fault_free(&mesh);
    let model = AnalyticModel::new(&mesh, &pattern);
    for (rate, tol) in [(0.0005, 0.15), (0.001, 0.20), (0.0015, 0.25)] {
        let predicted = model.mean_latency(rate, 100).expect("below saturation");
        let measured = simulate(&pattern, rate, 2).mean_network_latency();
        let err = (measured - predicted).abs() / measured;
        assert!(
            err < tol,
            "rate {rate}: predicted {predicted:.1}, measured {measured:.1} (err {err:.2})"
        );
    }
}

#[test]
fn saturation_rate_brackets_simulated_knee() {
    let mesh = Mesh::square(10);
    let pattern = FaultPattern::fault_free(&mesh);
    let model = AnalyticModel::new(&mesh, &pattern);
    let sat = model.saturation_rate(100);
    // Below the predicted saturation the simulator delivers the offered
    // load; well above it, it cannot.
    let below = simulate(&pattern, sat * 0.5, 3);
    assert!(
        (below.normalized_throughput() - sat * 0.5 * 100.0).abs() / (sat * 0.5 * 100.0) < 0.1,
        "below-saturation run should deliver offered load"
    );
    let above = simulate(&pattern, sat * 3.0, 4);
    assert!(
        above.normalized_throughput() < sat * 3.0 * 100.0 * 0.7,
        "above-saturation run should fall short of offered load"
    );
}

#[test]
fn fault_capacity_ordering_preserved() {
    // The model must rank configurations the same way the simulator does:
    // fault-free capacity > one-block capacity.
    let mesh = Mesh::square(10);
    let free = FaultPattern::fault_free(&mesh);
    let blocked =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 3), Coord::new(5, 6))]).unwrap();
    let m_free = AnalyticModel::new(&mesh, &free);
    let m_blocked = AnalyticModel::new(&mesh, &blocked);
    assert!(m_blocked.saturation_rate(100) < m_free.saturation_rate(100));

    let s_free = simulate(&free, 0.01, 5).normalized_throughput();
    let s_blocked = simulate(&blocked, 0.01, 5).normalized_throughput();
    assert!(s_blocked < s_free);
    // Relative capacity loss agrees within a factor of two.
    let model_ratio = m_blocked.saturation_rate(100) / m_free.saturation_rate(100);
    let sim_ratio = s_blocked / s_free;
    assert!(
        model_ratio < sim_ratio * 2.0 && model_ratio > sim_ratio * 0.4,
        "capacity ratios diverge: model {model_ratio:.2} vs sim {sim_ratio:.2}"
    );
}

#[test]
fn model_capacity_is_above_simulated_saturation_throughput() {
    // The model's saturation estimate is optimistic, not conservative:
    // driven past the knee, the simulator delivers less than the model's
    // capacity, fault-free and around a 2×4 fault block
    // (`examples/analytic_vs_sim.rs` prints both tables).
    let mesh = Mesh::square(10);
    let blocked =
        FaultPattern::from_rects(&mesh, &[Rect::new(Coord::new(4, 3), Coord::new(5, 6))]).unwrap();
    for (label, pattern) in [
        ("fault-free", FaultPattern::fault_free(&mesh)),
        ("2×4 block", blocked),
    ] {
        let capacity = AnalyticModel::new(&mesh, &pattern).saturation_rate(100) * 100.0;
        let delivered = simulate(&pattern, 0.005, 6).normalized_throughput();
        assert!(
            delivered < capacity,
            "{label}: simulated {delivered:.4} flits/node/cycle, model capacity {capacity:.4}"
        );
    }
}
