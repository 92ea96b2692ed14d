//! Single-simulation runner and the thread fan-out.
//!
//! Every thread that runs simulations — a sweep's caller, the scoped
//! threads [`parallel_map`] spawns for one batch, the serving layer's
//! dispatcher — parks one `Simulator` in a thread-local and rewinds it
//! with [`Simulator::reset`] between runs. The caller's simulator stays
//! warm across batches; a helper lives for one batch and builds its own.
//! The routing context and the algorithm instance are built per run:
//! both are O(nodes) and cost microseconds against runs of milliseconds.

use crate::config::ExperimentConfig;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use wormsim_engine::{ConfigError, SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_obs::Progress;
use wormsim_routing::{
    build_algorithm, min_total_vcs, AlgorithmKind, RoutingAlgorithm, RoutingContext, VcConfig,
};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// One simulation work item.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Which algorithm to run.
    pub kind: AlgorithmKind,
    /// The (static) fault pattern. Shared: every spec built from the same
    /// pattern clones one `Arc`.
    pub pattern: Arc<FaultPattern>,
    /// Message generation rate (messages/node/cycle).
    pub rate: f64,
    /// Per-run seed (derive it from the base seed + indices for
    /// reproducibility).
    pub seed: u64,
}

impl RunSpec {
    /// The stable identity of the simulation this spec describes when run
    /// under `cfg` via [`run_single`]: equal *content* (pattern faults by
    /// value, not `Arc` pointer) hashes equal across processes. It is
    /// exactly [`CustomSpec::identity`] of the fully expanded spec, so the
    /// serving layer can dedup a `RunSpec` request against an equivalent
    /// `CustomSpec` one.
    pub fn identity(&self, cfg: &ExperimentConfig) -> u64 {
        CustomSpec {
            mesh_size: cfg.mesh_size,
            vc: cfg.vc,
            sim: cfg.sim.with_seed(self.seed),
            kind: self.kind,
            pattern: self.pattern.clone(),
            workload: Workload::paper_uniform(self.rate),
        }
        .identity()
    }
}

thread_local! {
    /// The calling thread's reusable simulator. Built on the first run,
    /// rewound with `Simulator::reset` for every run after.
    static WORKER_SIM: RefCell<Option<Simulator>> = const { RefCell::new(None) };
}

/// Run one simulation on this thread's reusable simulator. A
/// configuration the engine cannot honor comes back as a typed
/// [`ConfigError`] (the `try_reset` rejection leaves the parked simulator
/// untouched and reusable), so one bad spec does not panic a whole
/// sweep.
fn run_reusing_sim(
    algo: Arc<dyn RoutingAlgorithm>,
    ctx: Arc<RoutingContext>,
    workload: Workload,
    cfg: SimConfig,
) -> Result<SimReport, ConfigError> {
    WORKER_SIM.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(sim) => {
                sim.try_reset(algo, ctx, workload, cfg)?;
                Ok(sim.run())
            }
            None => {
                let mut sim = Simulator::try_new(algo, ctx, workload, cfg)?;
                let report = sim.run();
                *slot = Some(sim);
                Ok(report)
            }
        }
    })
}

/// Build the routing context and algorithm for a spec, validating the
/// VC budget against the algorithm's constructor minimums *first* — the
/// constructors enforce them as asserts, and a spec from outside the
/// program must come back as a typed [`ConfigError`], not a panic.
fn checked_context_and_algo(
    mesh_size: u16,
    pattern: &Arc<FaultPattern>,
    kind: AlgorithmKind,
    vc: VcConfig,
) -> Result<(Arc<RoutingContext>, Arc<dyn RoutingAlgorithm>), ConfigError> {
    if vc.total > 32 {
        return Err(ConfigError::TooManyVcs {
            requested: vc.total,
            limit: 32,
        });
    }
    if vc.bc_vcs > vc.total {
        return Err(ConfigError::BcShareExceedsTotal {
            total: vc.total,
            bc_vcs: vc.bc_vcs,
        });
    }
    if vc.bc_vcs < 4 {
        return Err(ConfigError::BcShareTooSmall {
            bc_vcs: vc.bc_vcs,
            required: 4,
        });
    }
    // Per-algorithm minimums are mesh-dependent (the hop-based schemes
    // scale with the diameter).
    let mesh = Mesh::square(mesh_size);
    let required = min_total_vcs(kind, &mesh, vc.bc_vcs);
    if vc.total < required {
        return Err(ConfigError::InsufficientVcs {
            algorithm: kind.paper_name(),
            required,
            total: vc.total,
        });
    }
    let ctx = Arc::new(RoutingContext::new(mesh, (**pattern).clone()));
    let algo = build_algorithm(kind, ctx.clone(), vc).into();
    Ok((ctx, algo))
}

/// Run one simulation to completion and return its report, or the
/// [`ConfigError`] explaining why the spec's configuration is unrunnable.
pub fn run_single(cfg: &ExperimentConfig, spec: &RunSpec) -> Result<SimReport, ConfigError> {
    let (ctx, algo) = checked_context_and_algo(cfg.mesh_size, &spec.pattern, spec.kind, cfg.vc)?;
    run_reusing_sim(
        algo,
        ctx,
        Workload::paper_uniform(spec.rate),
        cfg.sim.with_seed(spec.seed),
    )
}

/// A fully parameterized work item: everything the ablation studies vary.
#[derive(Clone, Debug)]
pub struct CustomSpec {
    /// Mesh radix (square mesh).
    pub mesh_size: u16,
    /// VC budget.
    pub vc: wormsim_routing::VcConfig,
    /// Engine schedule (seed included).
    pub sim: wormsim_engine::SimConfig,
    /// Which algorithm.
    pub kind: AlgorithmKind,
    /// Fault pattern (must match `mesh_size`); shared like
    /// [`RunSpec::pattern`].
    pub pattern: Arc<FaultPattern>,
    /// Complete workload (pattern, rate, message length). Held by value:
    /// it is a few plain words, so cloning it per run is free.
    pub workload: Workload,
}

impl CustomSpec {
    /// The canonical serialized form of this spec: every input
    /// [`run_custom`] consumes, rendered as tagged fields (separated so
    /// adjacent fields cannot alias). The scalar parts go through their
    /// `Serialize` derives, so a field added to one of them joins the key
    /// without an edit here. The fault pattern is written *by value*, not
    /// by `Arc` pointer, as `width`x`height` followed by the ascending
    /// indices of its seed-faulty nodes. That is the pattern's whole
    /// content: every constructor — [`FaultPattern::fault_free`],
    /// [`FaultPattern::from_faulty_coords`], [`FaultPattern::from_rects`],
    /// [`FaultPattern::extend`] and `wormsim_fault::random_pattern` —
    /// derives the disabled nodes, the block regions and the per-node
    /// region index deterministically from the mesh size and the seed
    /// set (block coalescing is confluent, so an `extend` chain and a
    /// from-scratch build over the same seeds agree), and none of them
    /// stores anything else.
    ///
    /// Two specs describe the same simulation — and produce
    /// byte-identical reports, the engine being deterministic in its
    /// inputs — iff their canonical forms are equal. The serving layer
    /// keys its dedup and result-cache maps on this string, so key
    /// equality *is* spec equality and no hash collision (accidental or
    /// crafted) can alias two different simulations.
    pub fn canonical(&self) -> String {
        fn field(out: &mut String, tag: &str, value: &str) {
            out.push_str(tag);
            out.push('\u{1f}'); // unit separator: tag/value boundary
            out.push_str(value);
            out.push('\u{1e}'); // record separator: field boundary
        }
        let ser = |v: &dyn erased_ser::ErasedSerialize| v.to_json();
        let mut out = String::with_capacity(512);
        field(&mut out, "mesh_size", &self.mesh_size.to_string());
        field(&mut out, "vc", &ser(&self.vc));
        field(&mut out, "sim", &ser(&self.sim));
        field(&mut out, "kind", &ser(&self.kind));
        field(&mut out, "workload", &ser(&self.workload));
        let (width, height) = self.pattern.dims();
        let mut pattern = format!("{width}x{height}");
        for n in Mesh::new(width, height).nodes() {
            if self.pattern.is_seed_faulty(n) {
                write!(pattern, ",{}", n.index()).expect("writing to a String cannot fail");
            }
        }
        field(&mut out, "pattern", &pattern);
        out
    }

    /// FNV-1a of [`CustomSpec::canonical`] — a compact 64-bit label for
    /// logs and artifacts. Equal canonical forms hash equal; anything
    /// that must *distinguish* specs (the serving layer's dedup/cache)
    /// keys on the canonical form itself, not this hash.
    pub fn identity(&self) -> u64 {
        crate::fingerprint::fnv1a(self.canonical().as_bytes())
    }
}

/// Object-safe serialization shim so `identity` can funnel heterogeneous
/// components through one closure without monomorphizing per call site.
mod erased_ser {
    pub trait ErasedSerialize {
        fn to_json(&self) -> String;
    }

    impl<T: serde::Serialize> ErasedSerialize for T {
        fn to_json(&self) -> String {
            serde_json::to_string(self).expect("spec component serializes")
        }
    }
}

/// Run a fully parameterized simulation, or return the [`ConfigError`]
/// explaining why the spec's configuration is unrunnable.
pub fn run_custom(spec: &CustomSpec) -> Result<SimReport, ConfigError> {
    let (ctx, algo) = checked_context_and_algo(spec.mesh_size, &spec.pattern, spec.kind, spec.vc)?;
    run_reusing_sim(algo, ctx, spec.workload.clone(), spec.sim)
}

/// Map `f` over `items` on up to `threads` threads, the caller included.
/// Result order matches input order.
///
/// Shorthand for [`parallel_map_with_progress`] with a quiet reporter.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with_progress(items, threads, Progress::quiet(), "parallel_map", f)
}

/// [`parallel_map`] with a [`Progress`] reporter attached: a verbose
/// reporter prints one completion tick per item (tagged with `label`), and
/// worker-panic context goes through [`Progress::error`] so it survives a
/// quiet reporter. Result order matches input order.
///
/// The batch runs on the caller plus `min(threads, items.len()) - 1`
/// scoped threads, so a one-item batch spawns nothing. Each participant claims indices off one shared counter and
/// keeps its own `(index, result)` list; the lists are merged into input
/// order after the join. A panicking item's own payload is re-raised on
/// the caller once every thread has joined. Nesting is plain recursion:
/// an item may call `parallel_map` itself.
pub fn parallel_map_with_progress<T, R, F>(
    items: &[T],
    threads: usize,
    progress: Progress,
    label: &str,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let total = items.len();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return mine;
            };
            mine.push((i, f(item)));
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            progress.note(format_args!("{label}: {finished}/{total} runs done"));
        }
    };
    let helpers = threads.min(total).saturating_sub(1);
    let parts: Vec<thread::Result<Vec<(usize, R)>>> = thread::scope(|scope| {
        // `work` borrows only, so each participant gets its own copy.
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let own = catch_unwind(AssertUnwindSafe(work));
        std::iter::once(own)
            .chain(spawned.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut indexed = Vec::with_capacity(total);
    for part in parts {
        match part {
            Ok(part) => indexed.extend(part),
            Err(payload) => {
                // Every thread has joined. Re-raise the worker's own panic
                // payload (message and all) instead of masking it behind a
                // generic join error, so a crashing run identifies its
                // work item.
                let claimed = next.load(Ordering::Relaxed).min(total);
                progress.error(format_args!(
                    "{label}: worker panicked ({claimed}/{total} items claimed)"
                ));
                resume_unwind(payload);
            }
        }
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Derive a per-run seed from the experiment base seed and work indices
/// (splitmix64 over the packed indices).
pub fn derive_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = base
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use std::collections::BTreeSet;
    use wormsim_routing::{Candidates, MessageState};
    use wormsim_topology::{Coord, Direction, NodeId};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_item() {
        let out = parallel_map(&[5], 16, |&x| x + 1);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let items: Vec<u64> = (0..3).collect();
        let out = parallel_map(&items, 64, |&x| x + 10);
        assert_eq!(out, vec![10, 11, 12]);
    }

    #[test]
    fn parallel_map_runs_each_item_once_in_input_order() {
        for total in [0usize, 1, 2, 3, 7, 17, 63, 64, 65] {
            for threads in [1usize, 2, 5, 64] {
                let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..total).collect();
                let out = parallel_map(&items, threads, |&i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                assert_eq!(out, (0..total).map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{total} items on {threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom at 3")]
    fn parallel_map_reraises_the_items_own_panic() {
        let items: Vec<usize> = (0..10).collect();
        parallel_map(&items, 4, |&i| {
            if i == 3 {
                panic!("boom at {i}");
            }
        });
    }

    #[test]
    fn nested_parallel_map_completes() {
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map(&outer, 4, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            parallel_map(&inner, 4, |&j| i * 16 + j)
        });
        assert_eq!(out.concat(), (0..8 * 16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "inner boom")]
    fn nested_parallel_map_reraises_an_inner_panic() {
        parallel_map(&[0, 1], 2, |_| {
            parallel_map(&[0, 1, 2, 3], 2, |&j| {
                if j == 1 {
                    panic!("inner boom");
                }
            })
        });
    }

    #[test]
    fn parallel_map_with_progress_preserves_order() {
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map_with_progress(&items, 4, Progress::quiet(), "test", |&x| x * 3);
        assert_eq!(out, (0..40).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn spec_identity_is_content_not_pointer() {
        let mesh = Mesh::square(8);
        let coords = [wormsim_topology::Coord { x: 3, y: 4 }];
        let a = Arc::new(FaultPattern::from_faulty_coords(&mesh, coords).unwrap());
        let b = Arc::new(FaultPattern::from_faulty_coords(&mesh, coords).unwrap());
        assert!(!Arc::ptr_eq(&a, &b));
        let spec = |pattern: &Arc<FaultPattern>, seed: u64| CustomSpec {
            mesh_size: 8,
            vc: wormsim_routing::VcConfig::paper(),
            sim: wormsim_engine::SimConfig::quick().with_seed(seed),
            kind: AlgorithmKind::Duato,
            pattern: pattern.clone(),
            workload: Workload::paper_uniform(0.002),
        };
        // Distinct Arcs, same content: identical identity (the dedup key
        // must not depend on which client built the pattern).
        assert_eq!(spec(&a, 1).identity(), spec(&b, 1).identity());
        // Any semantic difference changes it.
        assert_ne!(spec(&a, 1).identity(), spec(&a, 2).identity());
        let fault_free = Arc::new(FaultPattern::fault_free(&mesh));
        assert_ne!(spec(&a, 1).identity(), spec(&fault_free, 1).identity());
        let mut other_kind = spec(&a, 1);
        other_kind.kind = AlgorithmKind::Xy;
        assert_ne!(spec(&a, 1).identity(), other_kind.identity());
    }

    #[test]
    fn run_spec_identity_matches_expanded_custom_spec() {
        let cfg = ExperimentConfig::new(Scale::Quick);
        let mesh = Mesh::square(10);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let spec = RunSpec {
            kind: AlgorithmKind::Nbc,
            pattern: pattern.clone(),
            rate: 0.004,
            seed: 42,
        };
        let custom = CustomSpec {
            mesh_size: cfg.mesh_size,
            vc: cfg.vc,
            sim: cfg.sim.with_seed(42),
            kind: AlgorithmKind::Nbc,
            pattern,
            workload: Workload::paper_uniform(0.004),
        };
        assert_eq!(spec.identity(&cfg), custom.identity());
    }

    #[test]
    fn derived_seeds_differ() {
        let s = derive_seed(1, 2, 3, 4);
        assert_ne!(s, derive_seed(1, 2, 3, 5));
        assert_ne!(s, derive_seed(1, 2, 4, 4));
        assert_eq!(s, derive_seed(1, 2, 3, 4));
    }

    #[test]
    fn run_single_smoke() {
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 200;
        cfg.sim.measure_cycles = 800;
        let mesh = Mesh::square(10);
        let spec = RunSpec {
            kind: AlgorithmKind::Duato,
            pattern: Arc::new(FaultPattern::fault_free(&mesh)),
            rate: 0.002,
            seed: 1,
        };
        let report = run_single(&cfg, &spec).expect("runnable config");
        assert!(report.throughput.messages_delivered() > 0);
        assert_eq!(report.algorithm, "Duato's routing");
    }

    /// An algorithm the engine must refuse: it claims more VCs than the
    /// occupancy bitmasks hold. `try_reset` rejects it on `num_vcs()`
    /// alone, so nothing else is ever called.
    struct TooWide(Arc<RoutingContext>);

    impl RoutingAlgorithm for TooWide {
        fn name(&self) -> &'static str {
            "too-wide"
        }
        fn num_vcs(&self) -> u8 {
            40
        }
        fn init_message(&self, _: NodeId, _: NodeId) -> MessageState {
            unreachable!("rejected before any message exists")
        }
        fn route(&self, _: NodeId, _: &mut MessageState) -> Candidates {
            unreachable!("rejected before any routing decision")
        }
        fn on_hop(&self, _: NodeId, _: NodeId, _: Direction, _: u8, _: &mut MessageState) {
            unreachable!("rejected before any hop")
        }
        fn context(&self) -> &RoutingContext {
            &self.0
        }
    }

    #[test]
    fn bad_config_is_an_error_and_spares_the_parked_simulator() {
        // A run the engine cannot honor must surface as a typed error —
        // not a panic that poisons the worker — and the thread's parked
        // simulator must stay reusable for the next good spec.
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 100;
        cfg.sim.measure_cycles = 300;
        let mesh = Mesh::square(10);
        let spec = RunSpec {
            kind: AlgorithmKind::Duato,
            pattern: Arc::new(FaultPattern::fault_free(&mesh)),
            rate: 0.002,
            seed: 3,
        };
        let good = serde_json::to_string(&run_single(&cfg, &spec).unwrap()).unwrap();
        let ctx = Arc::new(RoutingContext::new(mesh, (*spec.pattern).clone()));
        let err = run_reusing_sim(
            Arc::new(TooWide(ctx.clone())),
            ctx,
            Workload::paper_uniform(spec.rate),
            cfg.sim,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyVcs {
                requested: 40,
                limit: 32
            }
        );
        let again = serde_json::to_string(&run_single(&cfg, &spec).unwrap()).unwrap();
        assert_eq!(good, again, "rejected reset corrupted the parked simulator");
    }

    #[test]
    fn insufficient_vc_budget_is_a_typed_error_not_a_panic() {
        // Regression: a spec passing the coarse checks (total <= 32,
        // bc_vcs <= total) but below an algorithm's constructor minimum —
        // e.g. Duato with 6 total VCs, whose base budget 2 trips
        // `assert!(budget >= 3)` — used to panic the run. It must come
        // back as a typed ConfigError instead, for every roster
        // algorithm and mesh-dependent minimum.
        let mesh = Mesh::square(6);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let mut sim = wormsim_engine::SimConfig::quick();
        sim.warmup_cycles = 50;
        sim.measure_cycles = 150;
        let spec = |kind: AlgorithmKind, vc: VcConfig| CustomSpec {
            mesh_size: 6,
            vc,
            sim,
            kind,
            pattern: pattern.clone(),
            workload: Workload::paper_uniform(0.002),
        };
        let with_total = |total: u8| VcConfig {
            total,
            ..VcConfig::paper()
        };
        let err = run_custom(&spec(AlgorithmKind::Duato, with_total(6))).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InsufficientVcs {
                    required: 7,
                    total: 6,
                    ..
                }
            ),
            "{err:?}"
        );
        for kind in AlgorithmKind::ALL
            .iter()
            .chain(AlgorithmKind::EXTENDED_BASELINES.iter())
        {
            let required = min_total_vcs(*kind, &mesh, 4);
            let err = run_custom(&spec(*kind, with_total(required - 1))).unwrap_err();
            assert!(
                matches!(err, ConfigError::InsufficientVcs { .. }),
                "{kind:?}: {err:?}"
            );
            run_custom(&spec(*kind, with_total(required)))
                .unwrap_or_else(|e| panic!("{kind:?} at its minimum budget: {e}"));
        }
        // The BC overlay's own minimum (4 VCs) is enforced too, and a
        // share past the total keeps its existing typed rejection.
        let mut bc_small = VcConfig::paper();
        bc_small.bc_vcs = 2;
        assert!(matches!(
            run_custom(&spec(AlgorithmKind::Duato, bc_small)).unwrap_err(),
            ConfigError::BcShareTooSmall {
                bc_vcs: 2,
                required: 4
            }
        ));
        let mut bc_large = VcConfig::paper();
        bc_large.bc_vcs = 30;
        assert!(matches!(
            run_custom(&spec(AlgorithmKind::Duato, bc_large)).unwrap_err(),
            ConfigError::BcShareExceedsTotal { .. }
        ));
        // The rejections above left this thread's parked simulator
        // usable: good specs still run.
        run_custom(&spec(AlgorithmKind::Duato, VcConfig::paper())).expect("good spec runs");
    }

    #[test]
    fn canonical_form_is_spec_equality_and_identity_hashes_it() {
        let mesh = Mesh::square(8);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let spec = |seed: u64| CustomSpec {
            mesh_size: 8,
            vc: VcConfig::paper(),
            sim: wormsim_engine::SimConfig::quick().with_seed(seed),
            kind: AlgorithmKind::Duato,
            pattern: pattern.clone(),
            workload: Workload::paper_uniform(0.002),
        };
        assert_eq!(spec(1).canonical(), spec(1).canonical());
        assert_ne!(spec(1).canonical(), spec(2).canonical());
        assert_eq!(
            spec(1).identity(),
            crate::fingerprint::fnv1a(spec(1).canonical().as_bytes())
        );
    }

    fn keyed_spec(mesh_size: u16, pattern: FaultPattern) -> CustomSpec {
        CustomSpec {
            mesh_size,
            vc: VcConfig::paper(),
            sim: wormsim_engine::SimConfig::quick(),
            kind: AlgorithmKind::Duato,
            pattern: Arc::new(pattern),
            workload: Workload::paper_uniform(0.002),
        }
    }

    /// One edit per scalar field of a spec, each away from
    /// `keyed_spec`'s value.
    const SCALAR_EDITS: [fn(&mut CustomSpec); 16] = [
        |s| s.vc.total += 1,
        |s| s.vc.bc_vcs += 1,
        |s| s.vc.misroute_limit += 1,
        |s| s.sim.buffer_depth += 1,
        |s| s.sim.warmup_cycles += 1,
        |s| s.sim.measure_cycles += 1,
        |s| s.sim.deadlock_timeout += 1,
        |s| s.sim.seed += 1,
        |s| s.sim.arbitration = wormsim_engine::Arbitration::OldestFirst,
        |s| s.sim.recovery_backoff_base += 1,
        |s| s.sim.recovery_backoff_cap += 1,
        |s| s.sim.settle_window += 1,
        |s| s.kind = AlgorithmKind::DuatoNbc,
        |s| s.workload.pattern = wormsim_traffic::TrafficPattern::Transpose,
        |s| s.workload.rate = f64::from_bits(s.workload.rate.to_bits() + 1),
        |s| s.workload.message_length += 1,
    ];

    proptest::proptest! {
        #[test]
        fn canonical_keys_are_equal_iff_specs_are(
            size_a in 6u16..=16,
            other_size in 6u16..=16,
            picks in proptest::collection::vec((0u16..16, 0u16..16), 0..7),
            extra in (0u16..16, 0u16..16),
            // 0: the same set reordered with a duplicate; 1: one seed
            // more; 2: one seed fewer.
            seed_edit in 0u8..3,
            // The upper half of the range edits nothing.
            scalar_edit in 0usize..2 * SCALAR_EDITS.len(),
            same_size in proptest::prelude::any::<bool>(),
        ) {
            let size_b = if same_size { size_a } else { other_size };
            let fit = size_a.min(size_b);
            let coord = |(x, y): (u16, u16)| Coord { x: x % fit, y: y % fit };
            let seeds_a: BTreeSet<Coord> = picks.iter().copied().map(coord).collect();
            let mut list_b: Vec<Coord> = seeds_a.iter().rev().copied().collect();
            match seed_edit {
                0 => list_b.extend(seeds_a.iter().next().copied()),
                1 => list_b.push(coord(extra)),
                _ => {
                    list_b.pop();
                }
            }
            let seeds_b: BTreeSet<Coord> = list_b.iter().copied().collect();
            // A draw that disconnects the mesh is no pattern; accepted.
            let build = |size, seeds: &[Coord]| {
                FaultPattern::from_faulty_coords(&Mesh::square(size), seeds.iter().copied())
            };
            let list_a: Vec<Coord> = seeds_a.iter().copied().collect();
            let (Ok(pattern_a), Ok(pattern_b)) = (build(size_a, &list_a), build(size_b, &list_b))
            else {
                return Ok(());
            };
            let a = keyed_spec(size_a, pattern_a);
            let mut b = keyed_spec(size_b, pattern_b);
            if let Some(edit) = SCALAR_EDITS.get(scalar_edit) {
                edit(&mut b);
            }
            let same_spec =
                size_a == size_b && seeds_a == seeds_b && scalar_edit >= SCALAR_EDITS.len();
            proptest::prop_assert_eq!(a.canonical() == b.canonical(), same_spec);
            proptest::prop_assert_eq!(a.identity() == b.identity(), same_spec);
        }

        #[test]
        fn extend_chain_and_from_scratch_pattern_share_a_key(
            size in 6u16..=16,
            picks in proptest::collection::vec((0u16..16, 0u16..16), 1..8),
            split in 0usize..8,
        ) {
            let mesh = Mesh::square(size);
            let coords: Vec<Coord> = picks
                .iter()
                .map(|&(x, y)| Coord { x: x % size, y: y % size })
                .collect();
            let Ok(scratch) = FaultPattern::from_faulty_coords(&mesh, coords.iter().copied())
            else {
                return Ok(());
            };
            // The same seeds arriving in two waves on a fault-free mesh. A
            // prefix that disconnects the mesh is rejected by `extend`
            // even when the whole set is acceptable; accepted.
            let (first, second) = coords.split_at(split.min(coords.len()));
            let Ok(chained) = FaultPattern::fault_free(&mesh)
                .extend(&mesh, first.iter().copied())
                .and_then(|p| p.extend(&mesh, second.iter().copied()))
            else {
                return Ok(());
            };
            proptest::prop_assert_eq!(
                keyed_spec(size, chained).canonical(),
                keyed_spec(size, scratch).canonical()
            );
        }
    }

    #[test]
    fn key_tells_seed_faults_from_disabled_nodes_and_stays_small() {
        // Same unusable nodes (the 2x2 block), different seed sets: the
        // reports differ (the seed-fault count is in them), so the keys must.
        let mesh = Mesh::square(10);
        let c = |x, y| Coord { x, y };
        let diagonal = FaultPattern::from_faulty_coords(&mesh, [c(4, 4), c(5, 5)]).unwrap();
        let block = FaultPattern::from_rects(
            &mesh,
            &[wormsim_topology::Rect {
                min: c(4, 4),
                max: c(5, 5),
            }],
        )
        .unwrap();
        assert_eq!(diagonal.regions(), block.regions());
        assert_ne!(
            keyed_spec(10, diagonal).canonical(),
            keyed_spec(10, block).canonical()
        );

        // The key grows with the seed count, not with the mesh.
        let mesh = Mesh::square(64);
        let spread = (0..20).map(|i| c(3 * i + 1, 61 - 3 * i));
        let big = keyed_spec(64, FaultPattern::from_faulty_coords(&mesh, spread).unwrap());
        assert_eq!(big.pattern.num_seed_faulty(), 20);
        let key = big.canonical();
        assert!(key.len() < 1024, "{} bytes: {key}", key.len());
    }

    #[test]
    fn run_single_reused_simulator_is_deterministic() {
        // The same spec must produce byte-identical reports whether it
        // lands on a fresh simulator or a reused (reset) one.
        let mut cfg = ExperimentConfig::new(Scale::Quick);
        cfg.sim.warmup_cycles = 100;
        cfg.sim.measure_cycles = 400;
        let mesh = Mesh::square(10);
        let pattern = Arc::new(FaultPattern::fault_free(&mesh));
        let spec_a = RunSpec {
            kind: AlgorithmKind::Nbc,
            pattern: pattern.clone(),
            rate: 0.003,
            seed: 7,
        };
        let spec_b = RunSpec {
            kind: AlgorithmKind::Xy,
            pattern,
            rate: 0.001,
            seed: 9,
        };
        let first = serde_json::to_string(&run_single(&cfg, &spec_a).unwrap()).unwrap();
        // Interleave another spec so spec_a's second run goes through a
        // reset from a different (kind, rate, seed) state.
        let _ = run_single(&cfg, &spec_b).unwrap();
        let again = serde_json::to_string(&run_single(&cfg, &spec_a).unwrap()).unwrap();
        assert_eq!(first, again);
    }
}
