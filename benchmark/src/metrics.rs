//! Every metric the benchmark emits: its unit, which way is better, and
//! — written down before anything was measured — which end-to-end
//! metric on which workload a per-layer metric is expected to move.
//!
//! `BENCHMARK.json` lists the same names and units (a test holds the two
//! together); its schema has no room for the expectations, so they live
//! here and in the README.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end: what it measures. Per-layer: what it should move.
    pub note: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        note,
    }
}

const fn higher(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        note,
    }
}

/// Measured with tracing off; every workload reports all four.
pub const END_TO_END: [Metric; 4] = [
    lower("setup_s", "s", "contexts, algorithms, simulator and prewarm, or server start and pre-fill; median over the run's repetitions"),
    higher("ops_per_s", "1/s", "the workload's operation per host second, median over its rounds: simulated cycles (engine), simulations (sweeps), answered requests (service)"),
    lower("op_p50_ms", "ms", "median host time of one operation: a run, a run pair, a pool item, a cache hit, or a cold request from its intended send time"),
    lower("peak_rss_mb", "MB", "VmHWM of the workload's process"),
];

const FIG4: &str = "ops_per_s on fig4_sweep";
const DYNAMIC: &str = "ops_per_s on dynamic_faults";
const DENSE: &str = "ops_per_s on header_dense";
const PAPER: &str = "ops_per_s on paper_saturated";
const HOT: &str = "ops_per_s, op_p50_ms on serve_hot";
const MIXED: &str = "op_p50_ms on serve_mixed";
const EXACT: &str = "modelled statistic: must repeat exactly, moves nothing";
const GUARD: &str = "none predicted: guards observability cost out of ops_per_s";
const COUNT: &str = "count from ServerStats: explains the service figures";
const TAIL: &str = "non-gating tail: too noisy on a shared host to bound";

/// From the traced pass; no bounds.
pub const PER_LAYER: [Metric; 82] = [
    lower("topology.mesh_build_us", "us", FIG4),
    lower("fault.pattern_build_us", "us", FIG4),
    lower("fault.rings_build_us", "us", FIG4),
    lower("fault.extend_us", "us", DYNAMIC),
    lower("routing.context_build_us", "us", "ops_per_s on fig4_sweep; setup_s everywhere"),
    lower("routing.algo_build_us", "us", "ops_per_s on fig4_sweep; setup_s everywhere"),
    lower("routing.with_pattern_us", "us", DYNAMIC),
    lower("routing.route_ns.BouraAdaptive", "ns", DENSE),
    lower("routing.route_ns.FullyAdaptive", "ns", DENSE),
    lower("routing.route_ns.Nbc", "ns", DENSE),
    lower("routing.route_ns.NHop", "ns", DENSE),
    lower("routing.route_ns.PHop", "ns", DENSE),
    lower("routing.route_ns.Pbc", "ns", DENSE),
    lower("routing.route_ns.MinimalAdaptive", "ns", DENSE),
    lower("routing.route_ns.Duato", "ns", DENSE),
    lower("routing.route_ns.DuatoNbc", "ns", DENSE),
    lower("routing.route_ns.DuatoPbc", "ns", DENSE),
    lower("routing.route_ns.BouraFaultTolerant", "ns", DENSE),
    lower("traffic.poll_ns", "ns", DYNAMIC),
    lower("traffic.sample_ns", "ns", DYNAMIC),
    lower("engine.build_us", "us", "setup_s on the engine workloads"),
    lower("engine.step_ns", "ns", "ops_per_s on the traced workload"),
    lower("engine.ns_per_flit", "ns", PAPER),
    lower("engine.report_us", "us", MIXED),
    lower("engine.phase_ns.inject", "ns", DYNAMIC),
    lower("engine.phase_ns.route", "ns", DENSE),
    lower("engine.phase_ns.allocate", "ns", DENSE),
    lower("engine.phase_ns.move", "ns", PAPER),
    lower("engine.phase_ns.recover", "ns", DYNAMIC),
    lower("engine.profile_overhead_ratio", "ratio", GUARD),
    lower("engine.window_allocs", "count", "exact, 0 on paper_saturated: an allocation in the window costs ops_per_s there"),
    lower("engine.events_per_cycle.route_decision", "1/cycle", EXACT),
    lower("engine.events_per_cycle.vc_acquire", "1/cycle", EXACT),
    lower("engine.events_per_cycle.block", "1/cycle", EXACT),
    lower("engine.events_per_cycle.wake", "1/cycle", EXACT),
    lower("engine.events_per_cycle.deliver", "1/cycle", EXACT),
    lower("engine.block_ratio", "ratio", "exact; explains phase_ns.allocate on header_dense"),
    higher("engine.sim.delivered_msgs", "count", EXACT),
    lower("engine.sim.mean_latency_cycles", "cycles", EXACT),
    higher("engine.sim.norm_throughput", "flits/node/cyc", EXACT),
    lower("engine.sim.recoveries", "count", EXACT),
    lower("metrics.report_json_us", "us", MIXED),
    lower("metrics.report_json_bytes", "bytes", MIXED),
    lower("metrics.fingerprint_us", "us", MIXED),
    lower("chaos.fault_event_us", "us", DYNAMIC),
    lower("chaos.aborted_per_event", "count", EXACT),
    lower("chaos.lost_msgs", "count", EXACT),
    lower("analytic.latency_rel_err", "ratio", "accuracy guard, exact: moves nothing"),
    lower("experiments.run_overhead_us", "us", FIG4),
    lower("experiments.cold_run_overhead_us", "us", FIG4),
    lower("experiments.canonical_us", "us", "ops_per_s on fig4_sweep and serve_hot"),
    lower("experiments.pool_item_overhead_us", "us", FIG4),
    higher("experiments.parallel_efficiency", "ratio", FIG4),
    lower("experiments.imbalance", "ratio", FIG4),
    lower("serve.decode_us", "us", HOT),
    lower("serve.admit_us", "us", HOT),
    lower("serve.encode_us", "us", HOT),
    lower("serve.result_frame_bytes", "bytes", HOT),
    lower("serve.ping_rtt_us", "us", HOT),
    lower("serve.hit_overhead_us", "us", HOT),
    lower("serve.rss_per_hit_bytes", "bytes", "peak_rss_mb on serve_hot"),
    lower("serve.cpu_us_per_hit", "us", "ops_per_s on serve_hot; CPU time of the whole process, so steadier than any wall time"),
    higher("serve.hit_loop_busy_ratio", "ratio", "qualifies ops_per_s on serve_hot: a rate only reads as cost per request while the cores are busy"),
    lower("serve.client_decode_us", "us", "the load generator's own cost: says when it is the bottleneck"),
    lower("serve.queue_wait_p50_us", "us", MIXED),
    lower("serve.exec_p50_ms", "ms", MIXED),
    lower("serve.hit_p99_us", "us", TAIL),
    lower("serve.join_p50_ms", "ms", "demoted from end to end: tracks op_p50_ms on serve_mixed, and only serve_mixed has joins"),
    lower("serve.cold_p95_ms", "ms", TAIL),
    lower("serve.join_p95_ms", "ms", TAIL),
    higher("serve.slo_ok_ratio", "ratio", TAIL),
    lower("serve.jobs_run", "count", COUNT),
    higher("serve.cache_hit_ratio", "ratio", COUNT),
    higher("serve.dedup_joins", "count", COUNT),
    lower("serve.rejects", "count", COUNT),
    higher("json.parse_mb_per_s", "MB/s", HOT),
    higher("json.write_mb_per_s", "MB/s", HOT),
    lower("obs.histogram_record_ns", "ns", GUARD),
    lower("obs.scrape_us", "us", GUARD),
    lower("obs.sink_overhead_ratio", "ratio", GUARD),
    lower("bench.send_lag_p99_us", "us", "how late the open-loop generator ran: qualifies op_p50_ms on serve_mixed"),
    lower("bench.trace_overhead_ratio", "ratio", "traced over untraced wall of the same workload"),
];

pub fn is_layer_metric(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = crate::host::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let doc = manifest();
        assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_the_six_workloads_at_full_seconds() {
        let doc = manifest();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("`workloads` is an array")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::workload::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::workload::FULL_SECONDS as u64)
        );
    }

    #[test]
    fn names_are_unique_and_route_metrics_follow_the_roster() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for kind in wormsim_routing::AlgorithmKind::ALL {
            assert!(is_layer_metric(&format!("routing.route_ns.{kind:?}")));
        }
    }
}
