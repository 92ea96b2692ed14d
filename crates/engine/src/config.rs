//! Simulation configuration.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A configuration the engine cannot honor, reported instead of panicking
/// so a single bad run spec no longer aborts a whole sweep mid-batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The routing algorithm asks for more virtual channels than the
    /// engine's 32-bit occupancy/waiter bitmasks can track.
    TooManyVcs {
        /// VCs the algorithm's [`VcConfig`](../wormsim_routing) demands.
        requested: u8,
        /// The bitmask ceiling (32).
        limit: u8,
    },
    /// The BC overlay's reserved share exceeds the total VC budget, so
    /// no base virtual channels would remain.
    BcShareExceedsTotal {
        /// Total VCs per physical channel.
        total: u8,
        /// VCs the Boppana–Chalasani overlay reserves.
        bc_vcs: u8,
    },
    /// The BC overlay's reserved share is below the 4 VCs the scheme
    /// needs (one per message type).
    BcShareTooSmall {
        /// VCs the spec reserves for the overlay.
        bc_vcs: u8,
        /// The overlay's fixed requirement (4).
        required: u8,
    },
    /// The algorithm cannot be built within the spec's total VC budget
    /// on its mesh (every constructor asserts a minimum; see
    /// `wormsim_routing::min_total_vcs`).
    InsufficientVcs {
        /// The algorithm's paper name.
        algorithm: &'static str,
        /// Minimum total VCs (base discipline + BC overlay) it needs on
        /// the spec's mesh.
        required: u8,
        /// Total VCs the spec provides.
        total: u8,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooManyVcs { requested, limit } => write!(
                f,
                "algorithm requests {requested} virtual channels but the engine's \
                 occupancy bitmasks hold at most {limit}"
            ),
            ConfigError::BcShareExceedsTotal { total, bc_vcs } => write!(
                f,
                "BC overlay reserves {bc_vcs} virtual channels but only {total} exist"
            ),
            ConfigError::BcShareTooSmall { bc_vcs, required } => write!(
                f,
                "BC overlay reserves {bc_vcs} virtual channels but the scheme \
                 needs {required} (one per message type)"
            ),
            ConfigError::InsufficientVcs {
                algorithm,
                required,
                total,
            } => write!(
                f,
                "{algorithm} needs at least {required} virtual channels on this \
                 mesh but the spec provides {total}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How per-cycle allocation conflicts are ordered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Arbitration {
    /// Random service order every cycle — the paper's model ("conflicts …
    /// were resolved in a random manner"). Admits unbounded starvation on
    /// heavily contended channels.
    Random,
    /// Oldest message first — a starvation-free alternative used by the
    /// arbitration ablation study.
    OldestFirst,
}

/// Engine parameters. [`SimConfig::paper`] reproduces the paper's §5 setup.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Per-VC input buffer depth in flits.
    pub buffer_depth: u8,
    /// Cycles simulated before statistics collection starts (paper: the
    /// first 10 000 of 30 000 cycles are discarded).
    pub warmup_cycles: u64,
    /// Cycles over which statistics are collected (paper: 20 000).
    pub measure_cycles: u64,
    /// Cycles without progress before the watchdog drops and re-injects a
    /// message. Must comfortably exceed worst-case blocking chains at
    /// saturation (with 100-flit messages these legitimately reach many
    /// thousands of cycles) so deadlock-free algorithms never trip it.
    pub deadlock_timeout: u64,
    /// PRNG seed; every stochastic choice in a run derives from it.
    pub seed: u64,
    /// Conflict-resolution policy (paper: random).
    pub arbitration: Arbitration,
    /// Base re-injection delay (cycles) after a chaos abort; doubles per
    /// abort of the same message (bounded exponential backoff).
    pub recovery_backoff_base: u64,
    /// Maximum number of backoff doublings (caps the delay at
    /// `base << cap`).
    pub recovery_backoff_cap: u32,
    /// Width (cycles) of the sliding delivered-rate window used for the
    /// post-fault settling-time metric.
    pub settle_window: u64,
}

impl SimConfig {
    /// The paper's configuration: 30 000 cycles with a 10 000-cycle
    /// warm-up.
    pub fn paper() -> Self {
        SimConfig {
            buffer_depth: 2,
            warmup_cycles: 10_000,
            measure_cycles: 20_000,
            deadlock_timeout: 25_000,
            seed: 0x5EED,
            arbitration: Arbitration::Random,
            recovery_backoff_base: 16,
            recovery_backoff_cap: 6,
            settle_window: 500,
        }
    }

    /// A shortened configuration for tests and smoke runs.
    pub fn quick() -> Self {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 3_000,
            ..SimConfig::paper()
        }
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style arbitration override.
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_5() {
        let c = SimConfig::paper();
        assert_eq!(c.warmup_cycles, 10_000);
        assert_eq!(c.total_cycles(), 30_000);
    }

    #[test]
    fn seed_override() {
        let c = SimConfig::paper().with_seed(7);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn config_error_messages_name_the_limit() {
        let e = ConfigError::TooManyVcs {
            requested: 40,
            limit: 32,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("32"));
        let e = ConfigError::InsufficientVcs {
            algorithm: "Duato's routing",
            required: 7,
            total: 6,
        };
        assert!(e.to_string().contains("Duato's routing"));
        assert!(e.to_string().contains('7') && e.to_string().contains('6'));
        let e = ConfigError::BcShareTooSmall {
            bc_vcs: 2,
            required: 4,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('4'));
    }
}
