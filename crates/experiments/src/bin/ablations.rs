//! Run the ablation studies (extensions beyond the paper's figures).
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin ablations -- all --quick
//! cargo run --release -p wormsim-experiments --bin ablations -- vc_budget arbitration
//! ```

use std::time::Instant;
use wormsim_experiments::{
    ablation_arbitration, ablation_buffer_depth, ablation_fault_axis, ablation_mesh_size,
    ablation_message_length, ablation_misroute_limit, ablation_traffic_patterns,
    ablation_turn_models, ablation_vc_budget, provenance, ExperimentConfig, FigureResult, Progress,
    Scale,
};

const NAMES: [&str; 9] = [
    "vc_budget",
    "message_length",
    "buffer_depth",
    "traffic",
    "misroute",
    "arbitration",
    "turn_models",
    "mesh_size",
    "fault_axis",
];

fn usage() -> ! {
    eprintln!(
        "usage: ablations <{}|all> [--quick] [--plot] [--seed N] [--threads N] [--out DIR] \
         [--quiet]",
        NAMES.join("|")
    );
    std::process::exit(2);
}

/// A flag's value as a number; missing or unparsable is a usage error.
fn number<T: std::str::FromStr>(value: Option<&String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut threads = None;
    let mut out_dir = "results".to_string();
    let mut plot = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            s if NAMES.contains(&s) => which.push(s.to_string()),
            "all" => which.extend(NAMES.iter().map(|s| s.to_string())),
            "--quick" => scale = Scale::Quick,
            "--plot" => plot = true,
            "--quiet" => quiet = true,
            "--seed" => seed = Some(number(it.next())),
            "--threads" => threads = Some(number(it.next())),
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }
    if which.is_empty() {
        usage();
    }
    let progress = Progress::from_quiet_flag(quiet);
    let mut cfg = ExperimentConfig::new(scale).with_progress(progress);
    if let Some(s) = seed {
        cfg = cfg.with_seed(s);
    }
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let header = provenance(scale, &cfg);
    progress.out(format_args!(
        "# wormsim ablation studies ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    for name in which {
        let t = Instant::now();
        let fig: FigureResult = match name.as_str() {
            "vc_budget" => ablation_vc_budget(&cfg),
            "message_length" => ablation_message_length(&cfg),
            "buffer_depth" => ablation_buffer_depth(&cfg),
            "traffic" => ablation_traffic_patterns(&cfg),
            "misroute" => ablation_misroute_limit(&cfg),
            "arbitration" => ablation_arbitration(&cfg),
            "turn_models" => ablation_turn_models(&cfg),
            "mesh_size" => ablation_mesh_size(&cfg),
            "fault_axis" => ablation_fault_axis(&cfg),
            _ => unreachable!(),
        };
        let md = fig.write(&out_dir, &header, t.elapsed(), plot);
        progress.out(format_args!("{md}"));
    }
}
