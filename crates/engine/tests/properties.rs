//! Property-based engine tests: across random algorithms, fault patterns,
//! loads, and schedules, the simulator's internal invariants hold every
//! cycle and global flit accounting balances.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_engine::{Arbitration, SimConfig, Simulator};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_under_random_scenarios(
        seed in any::<u64>(),
        algo_idx in 0usize..6,
        faults in 0usize..=8,
        rate_millis in 1u32..=8, // 0.001 ..= 0.008 msgs/node/cycle
        length in prop::sample::select(vec![1u32, 2, 5, 20, 100]),
        depth in 1u8..=4,
        oldest_first in any::<bool>(),
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
        let algo = build_algorithm(algorithms()[algo_idx], ctx.clone(), VcConfig::paper());
        let cfg = SimConfig {
            buffer_depth: depth,
            warmup_cycles: 0,
            measure_cycles: 400,
            deadlock_timeout: 150, // provoke recoveries inside the window
            seed,
            arbitration: if oldest_first {
                Arbitration::OldestFirst
            } else {
                Arbitration::Random
            },
            ..SimConfig::paper()
        };
        let mut wl = Workload::paper_uniform(rate_millis as f64 / 1000.0);
        wl.message_length = length;
        let mut sim = Simulator::new(algo, ctx, wl, cfg);
        for _ in 0..400 {
            sim.step();
            sim.check_invariants();
        }
    }

    #[test]
    fn directed_batches_always_drain(
        seed in any::<u64>(),
        algo_idx in 0usize..6,
        n_messages in 1usize..10,
        length in prop::sample::select(vec![1u32, 3, 30]),
    ) {
        let mesh = Mesh::square(10);
        let ctx = Arc::new(RoutingContext::new(
            mesh.clone(),
            FaultPattern::fault_free(&mesh),
        ));
        let algo = build_algorithm(algorithms()[algo_idx], ctx.clone(), VcConfig::paper());
        let mut wl = Workload::paper_uniform(0.0);
        wl.message_length = length;
        let mut sim = Simulator::new(algo, ctx, wl, SimConfig::quick().with_seed(seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let mut ids = Vec::new();
        for _ in 0..n_messages {
            let src = mesh.node(
                rand::Rng::gen_range(&mut rng, 0..10),
                rand::Rng::gen_range(&mut rng, 0..10),
            );
            let dest = mesh.node(
                rand::Rng::gen_range(&mut rng, 0..10),
                rand::Rng::gen_range(&mut rng, 0..10),
            );
            if src != dest {
                ids.push(sim.inject_message(src, dest));
            }
        }
        prop_assert!(sim.run_until_drained(60_000), "batch did not drain");
        for id in ids {
            prop_assert!(sim.is_delivered(id));
        }
        sim.check_invariants();
    }
}
