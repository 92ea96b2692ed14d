//! Experiment-level configuration.

use serde::{Deserialize, Serialize};
use wormsim_engine::SimConfig;
use wormsim_obs::Progress;
use wormsim_routing::VcConfig;

/// How much compute to spend: `Paper` mirrors the paper's §5 schedule;
/// `Quick` is a minutes-scale smoke version with the same structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Scale {
    /// Short warm-up/measurement, few fault patterns. CI-sized.
    Quick,
    /// The paper's 30 000-cycle schedule and 10 fault sets per case.
    Paper,
}

/// Shared configuration for all figure runs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Mesh radix (paper: 10 → 10×10).
    pub mesh_size: u16,
    /// VC budget (paper: 24 with 4 BC VCs).
    pub vc: VcConfig,
    /// Engine schedule.
    pub sim: SimConfig,
    /// Random fault patterns averaged per fault case (paper: 10 for the
    /// performance study).
    pub fault_patterns: usize,
    /// Worker threads for the sweep fan-out.
    pub threads: usize,
    /// Every stochastic choice in the harness derives from this.
    pub base_seed: u64,
    /// Progress chatter policy for the fan-out (per-item ticks, banners).
    /// Quiet by default; result tables print regardless.
    pub progress: Progress,
}

impl ExperimentConfig {
    /// Build a configuration at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (sim, fault_patterns) = match scale {
            Scale::Quick => (
                SimConfig {
                    warmup_cycles: 1_000,
                    measure_cycles: 4_000,
                    ..SimConfig::paper()
                },
                3,
            ),
            Scale::Paper => (SimConfig::paper(), 10),
        };
        ExperimentConfig {
            mesh_size: 10,
            vc: VcConfig::paper(),
            sim,
            fault_patterns,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            base_seed: 0xC0FFEE,
            progress: Progress::quiet(),
        }
    }

    /// Builder-style thread override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder-style progress-reporter override.
    pub fn with_progress(mut self, progress: Progress) -> Self {
        self.progress = progress;
        self
    }
}

/// The algorithm a command-line name denotes, for the harness binaries'
/// `--algo`: the paper name (`"Duato's routing"`, `"Boura (Adaptive)"`),
/// the variant identifier (`DuatoNbc`) or the hyphenated slug
/// (`duato-nbc`), in any case. Only letters and digits are compared, so
/// the apostrophe, the parentheses and the separators do not matter.
pub fn parse_algorithm(name: &str) -> Option<wormsim_routing::AlgorithmKind> {
    use wormsim_routing::AlgorithmKind;
    let key = |s: &str| -> String {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let want = key(name);
    AlgorithmKind::ALL
        .into_iter()
        .chain(AlgorithmKind::EXTENDED_BASELINES)
        .find(|k| key(k.paper_name()) == want || key(&format!("{k:?}")) == want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_printed_algorithm_name_parses_back() {
        use wormsim_routing::AlgorithmKind;
        let kinds: Vec<AlgorithmKind> = AlgorithmKind::ALL
            .into_iter()
            .chain(AlgorithmKind::EXTENDED_BASELINES)
            .collect();
        assert_eq!(kinds.len(), 15);
        for k in kinds {
            let ident = format!("{k:?}");
            // `MinimalAdaptive` → `minimal-adaptive`.
            let mut slug = String::new();
            for (i, c) in ident.chars().enumerate() {
                if c.is_ascii_uppercase() && i > 0 {
                    slug.push('-');
                }
                slug.push(c.to_ascii_lowercase());
            }
            for name in [
                k.paper_name(),
                &ident,
                &slug,
                &k.paper_name().to_uppercase(),
            ] {
                assert_eq!(parse_algorithm(name), Some(k), "{name:?}");
            }
        }
        assert_eq!(parse_algorithm("duato-xy"), None);
        assert_eq!(parse_algorithm(""), None);
    }

    #[test]
    fn scales_differ_in_schedule() {
        let q = ExperimentConfig::new(Scale::Quick);
        let p = ExperimentConfig::new(Scale::Paper);
        assert!(q.sim.total_cycles() < p.sim.total_cycles());
        assert_eq!(p.sim.warmup_cycles, 10_000);
        assert_eq!(p.fault_patterns, 10);
        assert_eq!(q.mesh_size, 10);
    }

    #[test]
    fn builders() {
        let c = ExperimentConfig::new(Scale::Quick)
            .with_threads(2)
            .with_seed(9)
            .with_progress(Progress::verbose());
        assert_eq!(c.threads, 2);
        assert_eq!(c.base_seed, 9);
        assert!(c.progress.is_verbose());
        assert!(!ExperimentConfig::new(Scale::Quick).progress.is_verbose());
    }
}
