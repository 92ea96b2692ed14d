//! `expected.json`: the report fingerprints every engine workload must
//! reproduce for the default seed.
//!
//! Simulated results are deterministic in their inputs, so a benchmark
//! run whose fingerprints drift has measured a different simulation (or a
//! broken one) and its timings compare with nothing. Fingerprints are
//! `wormsim_experiments::report_fingerprint` values (compact JSON form),
//! listed in the order the workload runs its simulations; a run at a
//! smaller scale checks the prefix it reaches.

use serde_json::Value;
use std::path::Path;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    /// The `--seed` the fingerprints were recorded with.
    pub seed: u64,
    pub workloads: Vec<(String, Vec<String>)>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing integer `seed`")?;
        let Some(Value::Object(entries)) = doc.get("workloads") else {
            return Err("missing object `workloads`".into());
        };
        let mut workloads = Vec::new();
        for (name, list) in entries {
            let list = list
                .as_array()
                .ok_or_else(|| format!("`{name}` is not an array"))?;
            let mut fingerprints = Vec::with_capacity(list.len());
            for fp in list {
                let fp = fp
                    .as_str()
                    .filter(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("`{name}` holds a non-fingerprint entry"))?;
                fingerprints.push(fp.to_string());
            }
            workloads.push((name.clone(), fingerprints));
        }
        Ok(Expected { seed, workloads })
    }

    /// The fingerprints to hold `workload` to at `seed`; `None` when the
    /// file was recorded with another seed (the workload then falls back
    /// to repeating its first run).
    pub fn for_run(&self, workload: &str, seed: u64) -> Option<&[String]> {
        if seed != self.seed {
            return None;
        }
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, fps)| fps.as_slice())
    }

    pub fn render(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, fps)| {
                let list = fps.iter().map(|fp| Value::Str(fp.clone())).collect();
                (name.clone(), Value::Array(list))
            })
            .collect();
        let doc = Value::Object(vec![
            ("seed".into(), Value::UInt(self.seed)),
            ("workloads".into(), Value::Object(workloads)),
        ]);
        serde_json::to_string_pretty(&doc).expect("a Value always serializes") + "\n"
    }
}

/// How many of `got` differ from the expectation at the same position.
/// Runs past the end of `expected` (a scale above 1) are not held to
/// anything here.
pub fn mismatches(expected: &[String], got: &[String]) -> usize {
    expected.iter().zip(got).filter(|(e, g)| e != g).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expected {
        Expected {
            seed: 1,
            workloads: vec![
                (
                    "paper_saturated".into(),
                    vec!["0123456789abcdef".into(), "fedcba9876543210".into()],
                ),
                ("fig4_sweep".into(), vec!["00000000000000aa".into()]),
            ],
        }
    }

    #[test]
    fn render_and_parse_round_trip() {
        let e = sample();
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
    }

    #[test]
    fn other_seeds_and_unknown_workloads_have_no_expectation() {
        let e = sample();
        assert_eq!(e.for_run("paper_saturated", 1).unwrap().len(), 2);
        assert!(e.for_run("paper_saturated", 2).is_none());
        assert!(e.for_run("serve_hot", 1).is_none());
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Expected::parse("{}").is_err());
        assert!(Expected::parse(r#"{"seed": 1}"#).is_err());
        assert!(Expected::parse(r#"{"seed": 1, "workloads": {"a": 3}}"#).is_err());
        assert!(Expected::parse(r#"{"seed": 1, "workloads": {"a": ["xyz"]}}"#).is_err());
        assert!(Expected::parse("not json").is_err());
    }

    #[test]
    fn a_corrupted_fingerprint_is_one_mismatch() {
        let e = sample();
        let expected = e.for_run("paper_saturated", 1).unwrap();
        let mut got = expected.to_vec();
        assert_eq!(mismatches(expected, &got), 0);
        got[1] = "ffffffffffffffff".into();
        assert_eq!(mismatches(expected, &got), 1);
        // A smaller run checks the prefix it reached.
        assert_eq!(mismatches(expected, &got[..1]), 0);
    }

    #[test]
    fn the_committed_file_loads() {
        let path = crate::host::bench_dir().join("expected.json");
        let e = Expected::load(&path).expect("expected.json parses");
        assert_eq!(e.seed, 1);
        for name in [
            "paper_saturated",
            "header_dense",
            "fig4_sweep",
            "dynamic_faults",
        ] {
            assert!(!e.for_run(name, 1).unwrap().is_empty(), "{name}");
        }
    }
}
