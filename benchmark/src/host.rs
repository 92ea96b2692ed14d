//! Host provenance, process memory, and the build-profile check.

use serde_json::Value;
use std::path::{Path, PathBuf};

/// The benchmark package's directory. Fixed at build time, which is safe
/// because the benchmark is always built in the checkout it runs in.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Where and how this record was taken; part of every output record.
pub fn provenance() -> Value {
    let profile = release_profile(&bench_dir().join("Cargo.toml")).unwrap_or_default();
    Value::Object(vec![
        ("cores".into(), Value::UInt(cores() as u64)),
        ("cpu".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(env!("WORMBENCH_RUSTC").into())),
        ("commit".into(), Value::Str(git_commit())),
        ("release_profile".into(), Value::Str(profile.join("; "))),
        ("optimized".into(), Value::Bool(!cfg!(debug_assertions))),
    ])
}

/// The `[profile.release]` table of a manifest, one `key = value` per
/// entry, comments and blank lines dropped.
fn release_profile(manifest: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    Ok(parse_release_profile(&text))
}

fn parse_release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// Refuse to measure a build users do not get: the benchmark's
/// `[profile.release]` must equal the root manifest's.
pub fn check_release_profile() -> Result<(), String> {
    let own = release_profile(&bench_dir().join("Cargo.toml"))?;
    let root = release_profile(&bench_dir().join("../Cargo.toml"))?;
    if own == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] is {own:?} but the root manifest's is \
             {root:?}; copy the root table so the benchmark measures the build users get"
        ))
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb * 1024.0)
}

/// CPU time this process has used so far, all threads, user + system, in
/// seconds. `/proc/self/stat` counts in clock ticks, which Linux fixes at
/// 100 per second for user space on every architecture it supports.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields are counted after the parenthesised command name,
            // which may itself contain spaces: utime and stime are the
            // 12th and 13th from there.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some(utime + stime)
        })
        .unwrap_or(0.0);
    ticks / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let used = cpu_seconds() - before;
        assert!(
            (0.02..=0.5).contains(&used),
            "{used} CPU-s for 60 ms of spinning"
        );
    }

    #[test]
    fn release_profile_is_extracted_and_normalised() {
        let manifest = "[package]\nname = \"x\"\n\n# note\n[profile.release]\n\
                        debug   = \"line-tables-only\"\n# why\nlto = \"thin\"\n\n\
                        codegen-units = 4\n[profile.bench]\ninherits = \"release\"\n";
        assert_eq!(
            parse_release_profile(manifest),
            vec![
                "debug = \"line-tables-only\"",
                "lto = \"thin\"",
                "codegen-units = 4"
            ]
        );
        assert!(parse_release_profile("[package]\n").is_empty());
    }

    #[test]
    fn own_profile_matches_the_root_manifest() {
        check_release_profile().expect("profiles are in sync");
    }

    #[test]
    fn this_process_has_memory() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0.0);
    }
}
