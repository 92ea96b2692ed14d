//! The routing audit of every algorithm on four fault patterns: the
//! deadlock-freedom verdict, coverage, stretch and channel shares, written
//! to `results/routing_audit.md`. The enumerator and the verdict rules are
//! in `support/routing_audit.rs`.
//!
//! The test regenerates the file and fails if it differs from the
//! committed copy; the regenerated file is left in place, so `git diff`
//! shows what moved.

#[path = "support/routing_audit.rs"]
mod routing_audit;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_audit::{audit, hop_budget, Audit, Verdict, WEIGHTING};
use std::fmt::Write as _;
use std::sync::Arc;
use wormsim_experiments::{paper_52_layout, parallel_map};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_routing::{min_total_vcs, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;

/// The kinds the audit proves deadlock-free on the fault-free mesh. On the
/// three faulty patterns it proves none: see the file's findings section.
const PROVED_FAULT_FREE: [AlgorithmKind; 11] = [
    AlgorithmKind::BouraAdaptive,
    AlgorithmKind::NHop,
    AlgorithmKind::PHop,
    AlgorithmKind::Pbc,
    AlgorithmKind::Duato,
    AlgorithmKind::DuatoPbc,
    AlgorithmKind::BouraFaultTolerant,
    AlgorithmKind::Xy,
    AlgorithmKind::WestFirst,
    AlgorithmKind::NorthLast,
    AlgorithmKind::NegativeFirst,
];

fn kinds() -> Vec<AlgorithmKind> {
    AlgorithmKind::ALL
        .into_iter()
        .chain(AlgorithmKind::EXTENDED_BASELINES)
        .collect()
}

fn patterns(mesh: &Mesh) -> Vec<(String, FaultPattern)> {
    let mut out = vec![
        ("Fault-free".to_string(), FaultPattern::fault_free(mesh)),
        ("§5.2 layout".to_string(), paper_52_layout(mesh)),
    ];
    for faults in [5, 10] {
        let seed = faults as u64;
        let pattern = random_pattern(mesh, faults, &mut SmallRng::seed_from_u64(seed))
            .expect("a random pattern");
        out.push((
            format!("Random, {faults} seed faults (seed {seed})"),
            pattern,
        ));
    }
    out
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The widest path window a run reaches after one widening: `Simulator`
/// starts each message's window in its path arena at `width + height`
/// entries (doubled for an algorithm with a `recheck_wait`) and doubles
/// every window when a walk outgrows it, so this is one perimeter,
/// doubled likewise. No audited walk is longer, so none needs a second
/// widening.
fn path_window(a: &Audit) -> u32 {
    let mesh = a.ctx.mesh();
    let perimeter = 2 * (mesh.width() as u32 + mesh.height() as u32);
    perimeter
        * if a.algo.recheck_wait().is_some() {
            2
        } else {
            1
        }
}

fn row(a: &Audit, verdict: &Verdict) -> String {
    let mesh = a.ctx.mesh();
    format!(
        "| {} | {} | {} | {}/{} | {:.3} | {:.3} | {} | {:.4} | {:.3} |",
        a.kind.paper_name(),
        verdict.describe(mesh),
        a.states,
        a.delivered,
        a.walks,
        a.stretch_mean,
        a.stretch_max,
        a.longest_walk,
        a.overlay_share,
        a.peak_channel,
    )
}

#[test]
fn audit_matches_committed_table() {
    let mesh = Mesh::square(10);
    let patterns = patterns(&mesh);
    let mut jobs = Vec::new();
    for (p, (_, pattern)) in patterns.iter().enumerate() {
        assert!(pattern.healthy_connected(&mesh), "pattern {p} is split");
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern.clone()));
        for kind in kinds() {
            jobs.push((p, kind, ctx.clone(), VcConfig::paper()));
        }
    }
    // `min_total_vcs` is enough for every kind proved on the fault-free
    // mesh (none is proved on the §5.2 layout).
    let free = jobs[0].2.clone();
    for kind in PROVED_FAULT_FREE {
        let total = min_total_vcs(kind, &mesh, 4);
        if total != VcConfig::paper().total {
            jobs.push((usize::MAX, kind, free.clone(), VcConfig::with_total(total)));
        }
    }
    let results = parallel_map(&jobs, threads(), |(_, kind, ctx, vcs)| {
        let a = audit(*kind, ctx, *vcs);
        let v = a.verdict();
        (a, v)
    });

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Routing audit\n\n\
         Written by `tests/routing_audit.rs` (`cargo test -p wormsim-experiments \
         --test routing_audit`), which fails when this file differs from what the \
         routing functions produce. Method: `tests/support/routing_audit.rs`.\n\n\
         10×10 mesh, the paper's 24 VCs (20 base + 4 BC overlay). For every healthy \
         (source, destination) pair the audit walks every routing decision: `route` \
         at wait 0 (and at Fully-Adaptive's misroute patience), then every candidate \
         (direction, VC) through `on_hop`.\n\n\
         - **Verdict.** *proved (a)*: the channel-dependency graph over (channel, VC) \
         is acyclic. *proved (b)*: Duato's condition holds for R1 = fallback-tier VCs \
         + overlay VCs (every decision offers R1, R1 walks reach their destination, \
         R1's extended graph is acyclic). Otherwise one cycle, as `(x,y)D#v`: the \
         channel leaving node (x,y) in direction D, on VC v (20–23 are the BC \
         overlay). *cycle* is a cycle of the graph, where R1 does not cover every \
         decision; *R1 cycle* is a cycle of R1's extended graph, where it does. A \
         cycle means *not proved*, not that the algorithm deadlocks.\n\
         - **States**: distinct (node, routing state) pairs walked. **Delivered**: \
         walks whose every branch reaches the destination within {} hops.\n\
         - **Stretch** is hops over BFS hops on the healthy graph; **longest** is \
         the longest walk in hops. **Ring share** is the share of hops on BC overlay \
         VCs; **peak/mean** is the busiest healthy channel's hops over the mean \
         channel's. Mean stretch and both shares weight walks {WEIGHTING}.",
        hop_budget(&mesh)
    );
    let header = "| Algorithm | Verdict | States | Delivered | Stretch mean | Stretch max \
                  | Longest | Ring share | Peak/mean |\n|---|---|---|---|---|---|---|---|---|";
    let mut findings = String::new();
    for (p, (label, pattern)) in patterns.iter().enumerate() {
        let _ = writeln!(
            md,
            "\n## {label}: {} faulty nodes\n\n{header}",
            pattern.num_faulty()
        );
        for ((q, kind, _, _), (a, v)) in jobs.iter().zip(&results) {
            if *q != p {
                continue;
            }
            let _ = writeln!(md, "{}", row(a, v));
            let proved_here = p == 0 && PROVED_FAULT_FREE.contains(kind);
            assert_eq!(v.proved(), proved_here, "{label}, {kind:?}: {v:?}");
            if AlgorithmKind::ALL.contains(kind) {
                assert_eq!(a.delivered, a.walks, "{label}, {kind:?}: {:?}", a.findings);
            }
            assert!(
                a.longest_walk <= path_window(a),
                "{label}, {kind:?}: a {}-hop walk needs a second widening of its path window",
                a.longest_walk
            );
            if !a.findings.is_empty() {
                let _ = writeln!(
                    findings,
                    "- {label}, {}: {} of {} walks stuck; first: {}",
                    kind.paper_name(),
                    a.walks - a.delivered,
                    a.walks,
                    a.findings[0]
                );
            }
        }
    }
    let _ = writeln!(
        md,
        "\n## Coverage findings\n\n\
         A stuck walk is a decision with no candidate short of the destination. \
         The extension baselines offer none where their one permitted direction \
         is faulty but another minimal direction is healthy: the BC overlay only \
         takes over when every minimal direction is faulty.\n\n{findings}"
    );
    let _ = writeln!(
        md,
        "## The minimum VC budget\n\n\
         Each kind proved on the fault-free mesh, re-audited there at \
         `min_total_vcs` (4 of them BC):\n\n\
         | Algorithm | VCs | Verdict |\n|---|---|---|"
    );
    for kind in PROVED_FAULT_FREE {
        // At the paper's budget already when the minimum is 24.
        let at_min = |q: usize| q == usize::MAX;
        let ((_, _, _, vcs), (a, v)) = jobs
            .iter()
            .zip(&results)
            .find(|((q, k, _, _), _)| *k == kind && at_min(*q))
            .or_else(|| {
                jobs.iter()
                    .zip(&results)
                    .find(|((q, k, _, _), _)| *k == kind && *q == 0)
            })
            .expect("audited");
        assert!(v.proved(), "{kind:?} at {} VCs: {v:?}", vcs.total);
        let _ = writeln!(
            md,
            "| {} | {} | {} |",
            kind.paper_name(),
            vcs.total,
            v.describe(a.ctx.mesh())
        );
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/routing_audit.md"
    );
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    if committed != md {
        std::fs::write(path, &md).expect("write results/routing_audit.md");
        panic!("results/routing_audit.md was stale and has been rewritten; review and commit it");
    }
}
