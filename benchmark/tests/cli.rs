//! Drives the built `wormbench` binary the way `BENCHMARK.json`'s command
//! does, at the smallest size that still runs a whole simulation.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// One paper-configuration run: the cheapest workload invocation.
fn run_paper(expected: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wormbench"))
        .args(["--workload", "paper_saturated", "--seed", "1"])
        .args(["--seconds", "0.1", "--trace", "0", "--expected"])
        .arg(expected)
        .output()
        .expect("the wormbench binary starts")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8(output.stdout.clone()).expect("UTF-8 output");
    let line = stdout.lines().last().expect("some output");
    serde_json::from_str(line).expect("the last line is one JSON object")
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn a_clean_run_exits_zero_and_prints_the_contract_line() {
    let output = run_paper(&bench_dir().join("expected.json"));
    assert!(output.status.success(), "{output:?}");
    let result = last_line(&output);
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);

    // Exactly the end-to-end metrics BENCHMARK.json lists, all positive.
    let manifest = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
    let manifest: Value = serde_json::from_str(&manifest).unwrap();
    let listed: Vec<&str> = manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let metrics = result.get("metrics").unwrap();
    assert_eq!(keys(metrics), listed);
    for name in listed {
        let value = metrics.get(name).and_then(|m| m.get("value")).unwrap();
        assert!(value.as_f64().unwrap() > 0.0, "{name} = {value:?}");
    }

    // The record line before it carries host provenance.
    let stdout = String::from_utf8(output.stdout).unwrap();
    let record = stdout.lines().rev().nth(1).unwrap();
    let record: Value = serde_json::from_str(record).unwrap();
    let host = record.get("record").and_then(|r| r.get("host")).unwrap();
    assert_eq!(
        keys(host),
        [
            "cores",
            "cpu",
            "rustc",
            "commit",
            "release_profile",
            "optimized"
        ]
    );
}

#[test]
fn a_corrupted_expected_fingerprint_fails_the_run() {
    let committed = std::fs::read_to_string(bench_dir().join("expected.json")).unwrap();
    let doc: Value = serde_json::from_str(&committed).unwrap();
    let first = doc
        .get("workloads")
        .and_then(|w| w.get("paper_saturated"))
        .and_then(Value::as_array)
        .and_then(|list| list[0].as_str())
        .expect("paper_saturated has a first fingerprint");
    let corrupted = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-expected.json");
    std::fs::write(&corrupted, committed.replacen(first, "0000000000000000", 1)).unwrap();

    let output = run_paper(&corrupted);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let result = last_line(&output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(1));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let record: Value = serde_json::from_str(stdout.lines().rev().nth(1).unwrap()).unwrap();
    let ratio = record
        .get("record")
        .and_then(|r| r.get("failed_ratio"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(ratio > 0.0);
    assert!(stdout.contains("differs from expected.json"), "{stdout}");
}

#[test]
fn bad_arguments_are_refused_before_anything_runs() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_wormbench"))
            .args(args)
            .output()
            .expect("the wormbench binary starts")
    };
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2", "--workload", "serve_hot"],
        &["--seconds", "0", "--workload", "serve_hot"],
        &["run"],
        &["--frobnicate"],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
