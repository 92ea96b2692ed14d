//! `wormbench`: one end-to-end + per-layer benchmark for the engine, the
//! sweep harness and the service. See `README.md`.
//!
//! ```text
//! wormbench run   --workload NAME [--seed N] [--seconds S]   end-to-end metrics
//! wormbench trace --workload NAME [--seed N] [--seconds S]   per-layer metrics + spans
//! wormbench all   [--smoke]                                   every workload, one process each
//! wormbench expected                                          rewrite expected.json
//! ```
//!
//! Without a subcommand it runs one workload, end to end or traced as
//! `--trace 0|1` says: the form `BENCHMARK.json`'s command is called in.

mod alloc;
mod engine_wl;
mod expected;
mod gen;
mod host;
mod layers;
mod metrics;
mod serve_wl;
mod span;
mod stats;
mod sweep_wl;
mod workload;

use expected::Expected;
use serde_json::Value;
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Ctx, Outcome, FULL_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `--smoke`: every workload and its checks at 1/20 size, nothing written.
const SMOKE_SCALE: f64 = 0.05;

/// The traced pass runs its workload twice (traced, then untraced for the
/// overhead ratio) beside the probes, so it runs it smaller.
const TRACE_SCALE: f64 = 0.25;

/// Set-ups of a service workload per end-to-end run; their median is
/// `setup_s`.
const SERVICE_SETUP_REPS: usize = 3;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    expected: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: wormbench [run|trace|all|expected] [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--expected FILE]\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        trace: false,
        smoke: false,
        expected: host::bench_dir().join("expected.json"),
    };
    let mut first = true;
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "trace" | "all" | "expected" if first => args.command = arg.clone(),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--expected" => args.expected = PathBuf::from(value("a file")?),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        first = false;
    }
    if args.command == "trace" {
        args.trace = true;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}\n{}", usage()));
        }
    }
    Ok(args)
}

impl Args {
    fn scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            self.seconds / FULL_SECONDS
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx<'_>) -> Outcome {
    match name {
        "paper_saturated" => engine_wl::paper_saturated(ctx),
        "header_dense" => engine_wl::header_dense(ctx),
        "fig4_sweep" => sweep_wl::fig4_sweep(ctx),
        "dynamic_faults" => sweep_wl::dynamic_faults(ctx),
        "serve_hot" => serve_wl::serve_hot(ctx),
        "serve_mixed" => serve_wl::serve_mixed(ctx),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    }
}

fn metric_entry(name: &str, value: f64, unit: &str) -> (String, Value) {
    let entry = Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ]);
    (name.to_string(), entry)
}

/// The last line of standard output: exactly the four keys the
/// `BENCHMARK.json` contract names.
fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Value)>) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

/// The record line: provenance, the run's parameters, and this
/// workload's metrics under their own names.
fn record_line(args: &Args, workload: &str, extra: Vec<(String, Value)>) -> String {
    let mut fields = vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("scale".into(), Value::Float(args.scale())),
        ("traced".into(), Value::Bool(args.trace)),
        ("host".into(), host::provenance()),
    ];
    fields.extend(extra);
    let doc = Value::Object(vec![("record".into(), Value::Object(fields))]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

fn print_failures(failures: &[String], failed: u64) {
    for failure in failures {
        println!("  FAILED: {failure}");
    }
    if failed as usize > failures.len() {
        println!("  ... and {} more", failed as usize - failures.len());
    }
}

fn end_to_end(args: &Args, name: &str, expected: &Expected) -> ExitCode {
    let tracer = Tracer::new(false);
    let ctx = Ctx {
        seed: args.seed,
        scale: args.scale(),
        tracer: &tracer,
        expected,
        setup_reps: SERVICE_SETUP_REPS,
    };
    let out = run_workload(name, &ctx);
    let values = [
        ("setup_s", out.setup_s),
        ("ops_per_s", out.ops_per_s),
        ("op_p50_ms", out.op_p50_ms),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    println!(
        "wormbench {name}  seed {}  scale {:.3}",
        args.seed, ctx.scale
    );
    for (metric, value) in values {
        println!("  {metric:<18} {value:>16.6} {}", metrics::unit_of(metric));
    }
    for (metric, value, unit) in &out.native {
        println!("  {metric:<18} {value:>16.6} {unit}");
    }
    println!(
        "  {:<18} {:>16.6} ({} of {} operations)",
        "failed_ratio",
        out.failed_ratio(),
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("  {note}");
    }
    print_failures(&out.failures, out.failed);
    let mut named: Vec<(String, Value)> = out
        .native
        .iter()
        .map(|(metric, value, unit)| metric_entry(metric, *value, unit))
        .collect();
    named.push(("failed_ratio".into(), Value::Float(out.failed_ratio())));
    let rounds = out.round_rates.iter().map(|r| Value::Float(*r)).collect();
    named.push(("round_ops_per_s".into(), Value::Array(rounds)));
    println!("{}", record_line(args, name, named));
    let metrics = values
        .iter()
        .map(|(m, v)| metric_entry(m, *v, metrics::unit_of(m)))
        .collect();
    println!("{}", result_line(out.attempted, out.failed, metrics));
    exit_code(out.failed)
}

fn traced(args: &Args, name: &str, expected: &Expected) -> ExitCode {
    let scale = args.scale() * TRACE_SCALE;
    let tracer = Tracer::new(true);
    let untraced = Tracer::new(false);
    let ctx = |tracer| Ctx {
        seed: args.seed,
        scale,
        tracer,
        expected,
        setup_reps: 1,
    };
    let start = Instant::now();
    let out = run_workload(name, &ctx(&tracer));
    let traced_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let plain = run_workload(name, &ctx(&untraced));
    let untraced_s = start.elapsed().as_secs_f64();

    let mut layers = layers::probe(name, &ctx(&tracer), &out.layer);
    layers
        .metrics
        .push(("bench.trace_overhead_ratio".into(), traced_s / untraced_s));

    let attempted = out.attempted + plain.attempted + layers.metrics.len() as u64;
    let mut failed = out.failed + plain.failed + layers.failures.len() as u64;
    let mut failures: Vec<String> = out.failures;
    failures.extend(plain.failures);
    failures.append(&mut layers.failures);

    let spans = tracer.spans();
    println!(
        "wormbench trace {name}  seed {}  scale {scale:.3}  {} spans",
        args.seed,
        spans.len()
    );
    println!("  self time by span (a span minus what its children cover):");
    for (span, ns, count) in span::self_time_by_name(&spans) {
        println!(
            "    {span:<28} {:>12.3} ms over {count} spans",
            ns as f64 / 1e6
        );
    }
    let emitted: Vec<(String, Value)> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            // Every per-layer metric must be there, once, and a number.
            let found: Vec<f64> = layers
                .metrics
                .iter()
                .filter(|(n, _)| n == m.name)
                .map(|(_, v)| *v)
                .collect();
            let value = match found[..] {
                [value] if value.is_finite() => value,
                _ => {
                    failed += 1;
                    failures.push(format!("{} was measured as {found:?}", m.name));
                    0.0
                }
            };
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "  {:<40} {value:>14.4} {:<14} {better:<6} -> {}",
                m.name, m.unit, m.note
            );
            metric_entry(m.name, value, m.unit)
        })
        .collect();
    print_failures(&failures, failed);
    if !args.smoke {
        let dir = host::bench_dir().join("out");
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, span::chrome_trace(&spans)))
        {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                failed += 1;
                println!("  FAILED: cannot write {}: {e}", path.display());
            }
        }
    }
    println!("{}", record_line(args, name, Vec::new()));
    println!("{}", result_line(attempted, failed, emitted));
    exit_code(failed)
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a fresh process each, so no workload inherits
/// another's warm caches, pool threads or heap.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-run it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .arg(if args.trace { "trace" } else { "run" })
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--expected")
            .arg(&args.expected);
        if args.smoke {
            child.arg("--smoke");
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Record the default seed's fingerprints at full size. Only for a
/// change that is meant to alter simulated results; a change that claims
/// a speed-up must leave `expected.json` alone.
fn write_expected(args: &Args) -> ExitCode {
    let tracer = Tracer::new(false);
    let none = Expected::default();
    let mut recorded = Expected {
        seed: args.seed,
        workloads: Vec::new(),
    };
    for name in &WORKLOADS[..4] {
        let ctx = Ctx {
            seed: args.seed,
            scale: 1.0,
            tracer: &tracer,
            expected: &none,
            setup_reps: 1,
        };
        let out = run_workload(name, &ctx);
        if out.failed > 0 {
            print_failures(&out.failures, out.failed);
            return ExitCode::FAILURE;
        }
        println!("{name}: {} fingerprints", out.fingerprints.len());
        recorded
            .workloads
            .push((name.to_string(), out.fingerprints));
    }
    match std::fs::write(&args.expected, recorded.render()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.expected.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::check_release_profile() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    match args.command.as_str() {
        "all" => return all(&args),
        "expected" => return write_expected(&args),
        _ => {}
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("--workload is required\n{}", usage());
        return ExitCode::from(2);
    };
    let expected = match Expected::load(&args.expected) {
        Ok(expected) => expected,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        traced(&args, &name, &expected)
    } else {
        end_to_end(&args, &name, &expected)
    }
}
