//! Golden *shape* tests: the paper's headline claims, asserted on
//! quick-scale reruns of the figure harness. These are the regression
//! gates for the reproduction — if a change flips who wins or which way a
//! trend points, these fail.
//!
//! Quick scale is noisy, so every assertion here is a robust ordering (or
//! a coarse ratio), not a point value.

use std::sync::OnceLock;
use wormsim_experiments::{
    fig1_saturation_throughput, fig3_vc_utilization, fig4_fig5_fault_sweep, fig6_fring_traffic,
    ExperimentConfig, FigureResult, Scale,
};

fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Scale::Quick);
    // Enough cycles for stable orderings, small enough for CI.
    cfg.sim.warmup_cycles = 1_000;
    cfg.sim.measure_cycles = 4_000;
    cfg.fault_patterns = 2;
    cfg
}

/// The fault-case figures need longer windows before the hop-based
/// schemes' degradation fully develops; still ~1 minute of CI.
fn mid_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Scale::Quick);
    cfg.sim.warmup_cycles = 3_000;
    cfg.sim.measure_cycles = 9_000;
    cfg.fault_patterns = 3;
    cfg
}

/// Figures 4 and 5 at [`mid_cfg`]: one sweep, shared by both tests.
fn fault_figures() -> &'static (FigureResult, FigureResult) {
    static FIGURES: OnceLock<(FigureResult, FigureResult)> = OnceLock::new();
    FIGURES.get_or_init(|| fig4_fig5_fault_sweep(&mid_cfg()))
}

#[test]
fn fig1_throughput_tracks_offered_below_saturation() {
    let fig = fig1_saturation_throughput(&cfg());
    let t = &fig.tables[0];
    // At λ=0.001 every algorithm delivers ≈ 0.1 flits/node/cycle.
    for col in &t.columns {
        let v = t.get("0.0010", col).unwrap();
        assert!((v - 0.1).abs() < 0.02, "{col}: {v}");
    }
    // Saturation: no algorithm exceeds the ~0.26 bisection ceiling, and
    // none collapses below 0.15 fault-free.
    for col in &t.columns {
        let v = t.get("0.0251", col).unwrap();
        assert!((0.15..0.30).contains(&v), "{col} saturates at {v}");
    }
}

#[test]
fn fig3_vc_usage_signatures() {
    let fig = fig3_vc_utilization(&cfg());
    let a = &fig.tables[0]; // panel a
                            // PHop: class 0 dominates class 10 by a wide margin.
    let phop0 = a.get("VC0", "PHop").unwrap();
    let phop10 = a.get("VC10", "PHop").unwrap();
    assert!(
        phop0 > 4.0 * phop10.max(0.01),
        "PHop skew missing: VC0={phop0} VC10={phop10}"
    );
    // Free choice: Minimal-Adaptive's VC0 ≈ VC10 (within 40 %).
    let ma0 = a.get("VC0", "Minimal-Adaptive").unwrap();
    let ma10 = a.get("VC10", "Minimal-Adaptive").unwrap();
    assert!(
        (ma0 - ma10).abs() < 0.4 * ma0.max(ma10),
        "Minimal-Adaptive skew: VC0={ma0} VC10={ma10}"
    );
    // Pbc pushes usage into higher classes than PHop: its VC8 exceeds
    // PHop's VC8.
    let pbc8 = a.get("VC8", "Pbc").unwrap();
    let phop8 = a.get("VC8", "PHop").unwrap();
    assert!(pbc8 > phop8, "bonus cards should lift high-class usage");
    // Panel b: Duato's escape VCs (0,1) nearly idle vs its adaptive VCs.
    let b = &fig.tables[1];
    let esc = b.get("VC0", "Duato's routing").unwrap();
    let adaptive = b.get("VC10", "Duato's routing").unwrap();
    assert!(
        adaptive > 5.0 * esc.max(0.001),
        "Duato escape should be idle: esc={esc} adaptive={adaptive}"
    );
}

#[test]
fn fig4_fault_degradation_and_winners() {
    let fig = &fault_figures().0;
    let t = &fig.tables[0];
    for col in &t.columns {
        let t0 = t.get("0%", col).unwrap();
        let t10 = t.get("10%", col).unwrap();
        assert!(
            t10 < t0,
            "{col}: throughput must degrade with faults ({t0} → {t10})"
        );
    }
    // PHop is the worst at 10 % faults — by a clear margin.
    let phop = t.get("10%", "PHop").unwrap();
    for col in t.columns.iter().filter(|c| c.as_str() != "PHop") {
        let v = t.get("10%", col).unwrap();
        assert!(
            phop < v,
            "PHop ({phop}) should trail {col} ({v}) at 10% faults"
        );
    }
    // The Duato-fortified bonus-card variants sit in the top half — up to
    // quick-scale noise. At this scale (3 fault sets, 9k measured cycles)
    // the non-PHop algorithms' 10 % throughputs span only ~6 % and
    // adjacent ranks differ by well under 1 %, inside run-to-run noise,
    // so a strict median cut would assert on a noise-dominated ordering.
    // The 2 % margin still fails on any real regression of the bonus-card
    // schemes while tolerating rank swaps between statistical ties.
    let mut at10: Vec<(&str, f64)> = t
        .columns
        .iter()
        .map(|c| (c.as_str(), t.get("10%", c).unwrap()))
        .collect();
    at10.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let median = at10[at10.len() / 2].1;
    for name in ["Duato-Nbc", "Duato-Pbc"] {
        let v = t.get("10%", name).unwrap();
        assert!(
            v >= 0.98 * median,
            "{name} ({v:.4}) below median ({median:.4}) by >2%; 10% ordering: {at10:?}"
        );
    }
}

#[test]
fn fig5_latency_grows_with_faults() {
    let fig = &fault_figures().1;
    let t = &fig.tables[0];
    // PHop is excluded: at short measurement windows its delivered-message
    // latency is dominated by survivorship (only unblocked messages finish
    // in time), so its curve is only meaningful at paper scale — where it
    // explodes to ~2 300 flit cycles (see EXPERIMENTS.md, Figure 5).
    for col in t.columns.iter().filter(|c| c.as_str() != "PHop") {
        let l0 = t.get("0%", col).unwrap();
        let l10 = t.get("10%", col).unwrap();
        assert!(
            l10 > l0,
            "{col}: latency must grow with faults ({l0} → {l10})"
        );
    }
}

#[test]
fn fig6_rings_become_hotspots() {
    let fig = fig6_fring_traffic(&cfg());
    let t = &fig.tables[0];
    // For every algorithm: the ring/other mean contrast must grow from the
    // fault-free to the faulty case, and the faulty peak sits on a ring.
    for base in [
        "PHop",
        "NHop",
        "Duato-Nbc",
        "Minimal-Adaptive",
        "Boura (Fault-Tolerant)",
    ] {
        let contrast = |case: &str| {
            let ring = t.get(&format!("{base} {case}"), "f-ring mean").unwrap();
            let other = t.get(&format!("{base} {case}"), "other mean").unwrap();
            ring / other.max(1e-9)
        };
        assert!(
            contrast("10%") > contrast("0%"),
            "{base}: ring contrast must grow with faults"
        );
        let ring_peak = t.get(&format!("{base} 10%"), "f-ring peak").unwrap();
        assert!(
            ring_peak > 99.0,
            "{base}: the busiest node should be on an f-ring"
        );
    }
}
