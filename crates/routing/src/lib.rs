//! # wormsim-routing
//!
//! The ten adaptive routing algorithms compared by the paper, plus the
//! Boppana–Chalasani (BC) f-ring fault-tolerance overlay that fortifies
//! them (paper §3–§4).
//!
//! ## Algorithm roster (paper §6)
//!
//! | Paper name | Type | VC discipline (24 VCs/PC on a 10×10 mesh) |
//! |---|---|---|
//! | PHop | basic, hop-based | 19 hop classes × 1 VC + 4 BC VCs |
//! | NHop | basic, hop-based | 10 negative-hop classes × 2 VCs + 4 BC VCs |
//! | Pbc | PHop + bonus cards | same layout as PHop |
//! | Nbc | NHop + bonus cards | same layout as NHop |
//! | Duato's routing | basic | 18 adaptive (class I) + 2 XY escape (class II) + 4 BC |
//! | Duato-Pbc | modified | 1 adaptive + 19 Pbc escape + 4 BC |
//! | Duato-Nbc | modified | 10 adaptive + 10 Nbc escape + 4 BC |
//! | Minimal-Adaptive | basic | 20 free VCs + 4 BC |
//! | Fully-Adaptive | basic | 20 free VCs + 4 BC, ≤ 10 misroutes |
//! | Boura (Adaptive) | basic | 2 × 10-VC Y-partitioned virtual networks + 4 BC |
//! | Boura (Fault-Tolerant) | comparison | Boura (Adaptive)'s networks + node labeling, detouring on the BC overlay |
//!
//! Every algorithm implements [`RoutingAlgorithm`]; the simulation engine is
//! algorithm-agnostic. Use [`build_algorithm`] to construct any roster entry
//! bound to a [`RoutingContext`] (mesh + fault pattern + f-rings + labeling).
//!
//! ```
//! use std::sync::Arc;
//! use wormsim_topology::Mesh;
//! use wormsim_fault::FaultPattern;
//! use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
//!
//! let mesh = Mesh::square(10);
//! let pattern = FaultPattern::fault_free(&mesh);
//! let ctx = Arc::new(RoutingContext::new(mesh, pattern));
//! let algo = build_algorithm(AlgorithmKind::DuatoNbc, ctx, VcConfig::paper());
//! assert_eq!(algo.num_vcs(), 24);
//! let mut st = algo.init_message(wormsim_topology::NodeId(0), wormsim_topology::NodeId(99));
//! let cands = algo.route(wormsim_topology::NodeId(0), &mut st);
//! assert!(!cands.is_empty());
//! ```

#![forbid(unsafe_code)]

mod adaptive;
mod bonus_cards;
mod boppana_chalasani;
mod boura;
mod context;
mod duato;
mod geometry;
mod hop_based;
mod state;
mod traits;
mod turn_model;

pub use adaptive::{FullyAdaptive, MinimalAdaptive};
pub use bonus_cards::{Nbc, Pbc};
pub use boppana_chalasani::BoppanaChalasani;
pub use boura::{BouraAdaptive, BouraFaultTolerant};
pub use context::RoutingContext;
pub use duato::{Duato, EscapeKind};
pub use hop_based::{NHop, PHop};
pub use state::{CandidateHop, Candidates, MessageState, MessageType, RingState, VcMask};
pub use traits::{BaseRouting, RoutingAlgorithm};
pub use turn_model::{DimensionOrder, TurnModel, TurnModelKind};

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The roster of algorithms evaluated by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Positive-hop routing (buffer class = hops taken).
    PHop,
    /// Negative-hop routing (buffer class = negative hops taken).
    NHop,
    /// PHop with bonus cards.
    Pbc,
    /// NHop with bonus cards.
    Nbc,
    /// Duato's methodology with a dimension-order (XY) escape.
    Duato,
    /// Duato's methodology with a Pbc escape.
    DuatoPbc,
    /// Duato's methodology with an Nbc escape.
    DuatoNbc,
    /// Minimal adaptive routing with free VC choice.
    MinimalAdaptive,
    /// Fully adaptive routing (bounded misrouting) with free VC choice.
    FullyAdaptive,
    /// Boura–Das adaptive routing (Y-partitioned virtual networks).
    BouraAdaptive,
    /// Boura–Das fault-tolerant routing (node labeling plus the BC overlay).
    BouraFaultTolerant,
    /// Deterministic dimension-order routing (extension baseline).
    Xy,
    /// Glass–Ni west-first turn model (extension baseline).
    WestFirst,
    /// Glass–Ni north-last turn model (extension baseline).
    NorthLast,
    /// Glass–Ni negative-first turn model (extension baseline).
    NegativeFirst,
}

impl AlgorithmKind {
    /// All eleven roster entries, in the paper's Figure 4/5 legend order.
    pub const ALL: [AlgorithmKind; 11] = [
        AlgorithmKind::BouraAdaptive,
        AlgorithmKind::FullyAdaptive,
        AlgorithmKind::Nbc,
        AlgorithmKind::NHop,
        AlgorithmKind::PHop,
        AlgorithmKind::Pbc,
        AlgorithmKind::MinimalAdaptive,
        AlgorithmKind::Duato,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::DuatoPbc,
        AlgorithmKind::BouraFaultTolerant,
    ];

    /// The ten algorithms of Figures 1–2 (everything except the
    /// fault-tolerant Boura variant, which only appears in fault cases).
    pub const FAULT_FREE_TEN: [AlgorithmKind; 10] = [
        AlgorithmKind::Duato,
        AlgorithmKind::BouraAdaptive,
        AlgorithmKind::FullyAdaptive,
        AlgorithmKind::Nbc,
        AlgorithmKind::NHop,
        AlgorithmKind::PHop,
        AlgorithmKind::Pbc,
        AlgorithmKind::DuatoPbc,
        AlgorithmKind::DuatoNbc,
        AlgorithmKind::MinimalAdaptive,
    ];

    /// The extension baselines (not part of the paper's roster): the
    /// deterministic and turn-model routings used by the ablation studies.
    pub const EXTENDED_BASELINES: [AlgorithmKind; 4] = [
        AlgorithmKind::Xy,
        AlgorithmKind::WestFirst,
        AlgorithmKind::NorthLast,
        AlgorithmKind::NegativeFirst,
    ];

    /// The display name used in the paper's figure legends.
    pub fn paper_name(self) -> &'static str {
        match self {
            AlgorithmKind::PHop => "PHop",
            AlgorithmKind::NHop => "NHop",
            AlgorithmKind::Pbc => "Pbc",
            AlgorithmKind::Nbc => "Nbc",
            AlgorithmKind::Duato => "Duato's routing",
            AlgorithmKind::DuatoPbc => "Duato-Pbc",
            AlgorithmKind::DuatoNbc => "Duato-Nbc",
            AlgorithmKind::MinimalAdaptive => "Minimal-Adaptive",
            AlgorithmKind::FullyAdaptive => "Fully-Adaptive",
            AlgorithmKind::BouraAdaptive => "Boura (Adaptive)",
            AlgorithmKind::BouraFaultTolerant => "Boura (Fault-Tolerant)",
            AlgorithmKind::Xy => "XY (dimension-order)",
            AlgorithmKind::WestFirst => "West-First",
            AlgorithmKind::NorthLast => "North-Last",
            AlgorithmKind::NegativeFirst => "Negative-First",
        }
    }
}

impl core::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Virtual-channel budget configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VcConfig {
    /// Total VCs per physical channel (paper: 24).
    pub total: u8,
    /// VCs reserved for the Boppana–Chalasani overlay (paper: 4).
    pub bc_vcs: u8,
    /// Fully-Adaptive misroute cap (paper: 10).
    pub misroute_limit: u8,
}

impl VcConfig {
    /// The paper's configuration: 24 VCs, 4 of them for the BC scheme,
    /// misroute cap 10.
    pub fn paper() -> Self {
        VcConfig {
            total: 24,
            bc_vcs: 4,
            misroute_limit: 10,
        }
    }

    /// A custom total with the paper's other parameters.
    pub fn with_total(total: u8) -> Self {
        VcConfig {
            total,
            ..VcConfig::paper()
        }
    }
}

/// The minimum total VC count (base + BC overlay) `kind` requires on
/// `mesh`, saturating at `u8::MAX` (no VC budget reaches it, so a mesh
/// that large reads as infeasible instead of wrapping to a small number).
/// Used by the runner, the `trace` binary and the VC-budget and mesh-size
/// ablations to reject infeasible combinations before a constructor
/// asserts on them.
pub fn min_total_vcs(kind: AlgorithmKind, mesh: &wormsim_topology::Mesh, bc_vcs: u8) -> u8 {
    let classes = |hops: u32| u8::try_from(hops + 1).unwrap_or(u8::MAX);
    let phop_classes = classes(mesh.diameter());
    let nhop_classes = classes(mesh.max_negative_hops_bound());
    let base = match kind {
        AlgorithmKind::PHop | AlgorithmKind::Pbc => phop_classes,
        AlgorithmKind::NHop | AlgorithmKind::Nbc => nhop_classes,
        AlgorithmKind::Duato => 3,
        AlgorithmKind::DuatoPbc => phop_classes.saturating_add(1),
        AlgorithmKind::DuatoNbc => nhop_classes.saturating_add(1),
        AlgorithmKind::MinimalAdaptive | AlgorithmKind::FullyAdaptive => 1,
        AlgorithmKind::BouraAdaptive | AlgorithmKind::BouraFaultTolerant => 2,
        AlgorithmKind::Xy
        | AlgorithmKind::WestFirst
        | AlgorithmKind::NorthLast
        | AlgorithmKind::NegativeFirst => 1,
    };
    base.saturating_add(bc_vcs)
}

/// Construct any roster algorithm bound to a routing context.
///
/// Every algorithm is fortified with the Boppana–Chalasani overlay (paper
/// §3: "we incorporate the routing scheme suggested by Boppana and
/// Chalasani"). `BouraFaultTolerant` adds its node labeling on top: unsafe
/// nodes become a fallback tier, and the detour around a fault region is
/// the overlay's f-ring traversal (DESIGN.md §3.4).
pub fn build_algorithm(
    kind: AlgorithmKind,
    ctx: Arc<RoutingContext>,
    cfg: VcConfig,
) -> Box<dyn RoutingAlgorithm> {
    assert!(cfg.total as u32 <= 32, "VcMask supports at most 32 VCs");
    assert!(cfg.bc_vcs <= cfg.total);
    let base_budget = cfg.total - cfg.bc_vcs;
    let bc = move |base: Box<dyn BaseRouting>| -> Box<dyn RoutingAlgorithm> {
        Box::new(BoppanaChalasani::new(base, base_budget, cfg.bc_vcs))
    };
    match kind {
        AlgorithmKind::PHop => bc(Box::new(PHop::new(ctx, base_budget))),
        AlgorithmKind::NHop => bc(Box::new(NHop::new(ctx, base_budget))),
        AlgorithmKind::Pbc => bc(Box::new(Pbc::new(ctx, base_budget))),
        AlgorithmKind::Nbc => bc(Box::new(Nbc::new(ctx, base_budget))),
        AlgorithmKind::Duato => bc(Box::new(Duato::new(ctx, base_budget, EscapeKind::Xy))),
        AlgorithmKind::DuatoPbc => bc(Box::new(Duato::new(ctx, base_budget, EscapeKind::Pbc))),
        AlgorithmKind::DuatoNbc => bc(Box::new(Duato::new(ctx, base_budget, EscapeKind::Nbc))),
        AlgorithmKind::MinimalAdaptive => bc(Box::new(MinimalAdaptive::new(ctx, base_budget))),
        AlgorithmKind::FullyAdaptive => bc(Box::new(FullyAdaptive::new(
            ctx,
            base_budget,
            cfg.misroute_limit,
        ))),
        AlgorithmKind::BouraAdaptive => bc(Box::new(BouraAdaptive::new(ctx, base_budget))),
        AlgorithmKind::BouraFaultTolerant => {
            bc(Box::new(BouraFaultTolerant::new(ctx, base_budget)))
        }
        AlgorithmKind::Xy => bc(Box::new(DimensionOrder::new(ctx, base_budget))),
        AlgorithmKind::WestFirst => bc(Box::new(TurnModel::new(
            ctx,
            base_budget,
            TurnModelKind::WestFirst,
        ))),
        AlgorithmKind::NorthLast => bc(Box::new(TurnModel::new(
            ctx,
            base_budget,
            TurnModelKind::NorthLast,
        ))),
        AlgorithmKind::NegativeFirst => bc(Box::new(TurnModel::new(
            ctx,
            base_budget,
            TurnModelKind::NegativeFirst,
        ))),
    }
}
