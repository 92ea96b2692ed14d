//! Slab and struct-of-arrays audits. The per-message scan flags
//! (liveness, allocation phase, movement stall, watchdog stamp) live in
//! the simulator's flat id-indexed buffers beside the message slab, which
//! holds only messages in flight. These tests pin (a) that every slab slot
//! is free or owned by exactly one in-flight message, and the flat flags
//! agree with it, under arbitrary step sequences across the algo × fault ×
//! arbitration matrix, and (b) that a simulator straight from its
//! constructor already passes the same audits.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_engine::{Arbitration, NullSink, SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

fn algorithms() -> [AlgorithmKind; 6] {
    [
        AlgorithmKind::PHop,
        AlgorithmKind::Nbc,
        AlgorithmKind::Duato,
        AlgorithmKind::FullyAdaptive,
        AlgorithmKind::BouraFaultTolerant,
        AlgorithmKind::Xy,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random step sequences, audited (`Simulator::check_soa_layout`) at
    /// random interior points so mid-flight states are covered, not just
    /// drained ones.
    #[test]
    fn soa_state_matches_legacy_layout(
        seed in any::<u64>(),
        algo_idx in 0usize..6,
        faults in 0usize..=5,
        rate_millis in 1u32..=8,
        oldest_first in any::<bool>(),
        audits in prop::collection::vec(1usize..120, 1..5),
    ) {
        let mesh = Mesh::square(10);
        let pattern = if faults == 0 {
            FaultPattern::fault_free(&mesh)
        } else {
            let mut rng = SmallRng::seed_from_u64(seed);
            match wormsim_fault::random_pattern(&mesh, faults, &mut rng) {
                Ok(p) => p,
                Err(_) => return Ok(()),
            }
        };
        let ctx = Arc::new(RoutingContext::new(mesh, pattern));
        let cfg = SimConfig {
            warmup_cycles: 50,
            measure_cycles: 200,
            seed,
            arbitration: if oldest_first {
                Arbitration::OldestFirst
            } else {
                Arbitration::Random
            },
            ..SimConfig::paper()
        };
        let kind = algorithms()[algo_idx];
        let wl = Workload::paper_uniform(rate_millis as f64 / 1000.0);

        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let mut sim = Simulator::new(algo, ctx, wl, cfg);
        // Step the whole schedule, auditing the flat buffers at the
        // random interior points.
        let mut stepped = 0u64;
        for &n in &audits {
            for _ in 0..(n as u64).min(cfg.total_cycles() - stepped) {
                sim.step();
                stepped += 1;
            }
            sim.check_soa_layout();
            sim.check_invariants();
        }
        for _ in stepped..cfg.total_cycles() {
            sim.step();
        }
        sim.check_soa_layout();
    }
}

/// A simulator straight from `try_build`, never stepped, passes the slab
/// and invariant audits. Checked across mesh sizes, algorithms and faulty
/// patterns, for the phase-profiled and the default instantiation.
#[test]
fn fresh_build_is_rewound() {
    for (side, kind, faults) in [
        (10, AlgorithmKind::Duato, 0),
        (6, AlgorithmKind::Nbc, 2),
        (10, AlgorithmKind::FullyAdaptive, 5),
    ] {
        let mesh = Mesh::square(side);
        let mut rng = SmallRng::seed_from_u64(side as u64);
        let pattern = wormsim_fault::random_pattern(&mesh, faults, &mut rng)
            .unwrap_or_else(|_| FaultPattern::fault_free(&mesh));
        let ctx = Arc::new(RoutingContext::new(mesh, pattern));
        let wl = Workload::paper_uniform(0.004);
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let sim = Simulator::<NullSink, true>::try_build(
            algo,
            ctx.clone(),
            wl.clone(),
            SimConfig::quick(),
            NullSink,
        )
        .expect("paper VC budget fits");
        sim.check_soa_layout();
        sim.check_invariants();
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        let plain = Simulator::<NullSink>::try_build(algo, ctx, wl, SimConfig::quick(), NullSink)
            .expect("paper VC budget fits");
        plain.check_soa_layout();
        plain.check_invariants();
    }
}
