//! What every workload takes and returns.

use crate::expected::{mismatches, Expected};
use crate::span::Tracer;

/// The six workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "paper_saturated",
    "header_dense",
    "fig4_sweep",
    "dynamic_faults",
    "serve_hot",
    "serve_mixed",
];

/// `--seconds` at which every workload runs the size documented in the
/// README (`run_seconds` in `BENCHMARK.json`).
pub const FULL_SECONDS: f64 = 10.0;

pub struct Ctx<'a> {
    pub seed: u64,
    /// Repeat counts are multiplied by this; 1.0 at `FULL_SECONDS`.
    pub scale: f64,
    pub tracer: &'a Tracer,
    pub expected: &'a Expected,
    /// How many times a service workload sets up (first one is used).
    pub setup_reps: usize,
}

/// One workload's measurements. The three timing fields are the
/// end-to-end metrics every workload reports; `native` repeats them
/// under the name that says what this workload's operation is.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// The per-round rates `ops_per_s` is the median of, in run order;
    /// the record line keeps them so a noisy run can be told from a slow
    /// one.
    pub round_rates: Vec<f64>,
    pub op_p50_ms: f64,
    /// `(name, value, unit)`.
    pub native: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics this workload measured on itself (the service
    /// workloads' session figures); the probes fill in the rest.
    pub layer: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    /// Report fingerprints in run order (engine and sweep workloads).
    pub fingerprints: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Hold a workload's report fingerprints to `expected.json`, or — for a
/// seed the file was not recorded with — to `repeat_first`, a second
/// execution of the first run, which must match the first.
pub fn check_fingerprints(
    ctx: &Ctx<'_>,
    workload: &str,
    got: &[String],
    repeat_first: impl FnOnce() -> String,
    out: &mut Outcome,
) {
    match ctx.expected.for_run(workload, ctx.seed) {
        Some(expected) => {
            for _ in 0..mismatches(expected, got) {
                out.fail(format!(
                    "{workload}: a report fingerprint differs from expected.json"
                ));
            }
        }
        None => {
            out.attempted += 1;
            let again = repeat_first();
            if again != got[0] {
                out.fail(format!(
                    "{workload}: run 0 repeated gave {again}, first gave {}",
                    got[0]
                ));
            }
        }
    }
}
