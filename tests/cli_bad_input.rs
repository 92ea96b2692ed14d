//! Bad command-line input is a usage error, not a crash: an unparsable
//! flag value, or a flag combination the simulator cannot run, exits 2
//! with a message and never reaches a `panic!`; an output directory that
//! cannot be created, or an output file that cannot be written, exits 1
//! with one line.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a rejected invocation may take. A usage error exits at once;
/// a check that misses a bad value can start a run that never ends, and
/// without a limit that hangs the suite.
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `bin` on `args`, asserts exit 2 with a message and no panic
/// within [`DEADLINE`], and returns the message.
fn rejects(bin: &str, args: &[&str]) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut pipe = child.stderr.take().expect("stderr is piped");
    let reader = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).expect("stderr reads");
        String::from_utf8_lossy(&bytes).into_owned()
    });
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("child waits") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            child.kill().expect("child is killed");
            child.wait().expect("child is reaped");
            panic!("{bin} {args:?} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let stderr = reader.join().expect("stderr reader");
    assert_eq!(status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{bin} {args:?} says nothing");
    stderr
}

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    rejects(sweep, &["--mesh", "abc"]);
    let figures = env!("CARGO_BIN_EXE_figures");
    rejects(figures, &["fig1", "--threads", "x"]);
    rejects(figures, &["ablation_vc_budget", "--seed", "x"]);
    rejects(figures, &["dynamic_faults", "--seed", "x"]);
    // A study is named by its results file: the short names are retired.
    let usage = rejects(figures, &["vc_budget"]);
    assert!(usage.starts_with("usage: figures"), "{usage}");
    rejects(env!("CARGO_BIN_EXE_trace"), &["--cycles", "x"]);
    // Parses, but Duato-Nbc needs 15 VCs on a 10×10 mesh: a `ConfigError`.
    rejects(sweep, &["--algo", "duato-nbc", "--vcs", "4", "--quiet"]);
    rejects(env!("CARGO_BIN_EXE_bench_engine"), &["--phases"]);
    // Parse, but out of range: checked before a mesh or a source is built.
    let trace = env!("CARGO_BIN_EXE_trace");
    for bin in [sweep, trace] {
        rejects(bin, &["--mesh", "0"]);
        rejects(bin, &["--mesh", "300"]);
        rejects(bin, &["--rate", "-1"]);
        rejects(bin, &["--rate", "nan"]);
    }
    // Past one message per node per cycle: at 1e300 each arrival gap is
    // below the float spacing of the arrival clock, so a run never ends.
    rejects(sweep, &["--rate", "1e300", "--cycles", "10", "--quiet"]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    rejects(
        trace,
        &["--rate", "2", "--cycles", "10", "--quiet", "--out", out],
    );
    rejects(trace, &["--telemetry-window", "0"]);
    rejects(sweep, &["--length", "0"]);
    // Would run nothing and exit 0.
    rejects(sweep, &["--cycles", "0"]);
    rejects(sweep, &["--seeds", "0"]);
    // A one-node mesh has no destination, so it never creates a message.
    rejects(sweep, &["--mesh", "1"]);
    rejects(trace, &["--mesh", "1", "--faults", "0"]);
    // Rejected before any run, and before `--out` is created: a regular
    // file cannot hold a directory, so a later check would exit 1.
    let zero_cycles = rejects(trace, &["--cycles", "0", "--out", out]);
    assert_eq!(zero_cycles.lines().count(), 1, "{zero_cycles}");
}

#[test]
fn unwritable_out_dir_exits_1_without_panicking() {
    // A regular file cannot hold a directory.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    let figures = env!("CARGO_BIN_EXE_figures");
    let trace = env!("CARGO_BIN_EXE_trace");
    for (bin, args) in [
        (figures, &["fig1", "--quick", "--quiet", "--out", out][..]),
        (trace, &["--quiet", "--out", out][..]),
    ] {
        let run = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(out),
            "{bin} {args:?} names no directory: {stderr}"
        );
    }
}

#[test]
fn unwritable_output_file_exits_1_without_panicking() {
    // The directory exists, but a directory sits where each binary's
    // first output file goes.
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/unwritable_output_file");
    let _ = std::fs::remove_dir_all(out);
    let figures = env!("CARGO_BIN_EXE_figures");
    let trace = env!("CARGO_BIN_EXE_trace");
    for (bin, args, file) in [
        (
            figures,
            &["fig1", "--quick", "--quiet", "--out", out][..],
            "fig1.csv",
        ),
        (
            trace,
            &["--quiet", "--cycles", "300", "--out", out][..],
            "trace_events.jsonl",
        ),
    ] {
        let path = format!("{out}/{file}");
        std::fs::create_dir_all(&path).expect("scratch directory");
        let run = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
        let name = bin.rsplit('/').next().expect("a file name");
        assert_eq!(
            stderr.lines().collect::<Vec<_>>(),
            [format!(
                "{name}: cannot write {path}: Is a directory (os error 21)"
            )],
            "{bin} {args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(out);
}
