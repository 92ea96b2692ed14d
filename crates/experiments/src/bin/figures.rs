//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin figures -- all --quick
//! cargo run --release -p wormsim-experiments --bin figures -- fig4
//! ```
//!
//! Markdown, JSON and CSV land in `results/` (or `--out DIR`); the
//! Markdown and JSON start with a provenance line, and the Markdown is
//! also printed.

use std::io::Write;
use std::time::Instant;
use wormsim_experiments::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization, fig4_fig5_fault_sweep,
    fig6_fring_traffic, provenance, ExperimentConfig, Progress, Scale,
};

const FIGURES: [&str; 6] = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"];

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig1|fig2|fig3|fig4|fig5|fig6|all> [--quick] [--plot] [--seed N] [--threads N] [--out DIR] [--quiet]"
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
    let mut which: Vec<&str> = Vec::new();
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut threads = None;
    let mut out_dir = "results".to_string();
    let mut plot = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            id if FIGURES.contains(&id) => which.push(id),
            "all" => which.extend(FIGURES),
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
        "# wormsim figure reproduction ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    let mut written: Vec<&str> = Vec::new();
    for &id in &which {
        if written.contains(&id) {
            continue;
        }
        let t = Instant::now();
        let figs = match id {
            "fig1" => vec![fig1_saturation_throughput(&cfg)],
            "fig2" => vec![fig2_latency_vs_rate(&cfg)],
            "fig3" => vec![fig3_vc_utilization(&cfg)],
            "fig4" | "fig5" => {
                let (fig4, fig5) = fig4_fig5_fault_sweep(&cfg);
                vec![fig4, fig5]
            }
            "fig6" => vec![fig6_fring_traffic(&cfg)],
            _ => unreachable!(),
        };
        let elapsed = t.elapsed();
        // Figures 4 and 5 come from one sweep: write those that were asked.
        for fig in figs.into_iter().filter(|f| which.contains(&f.id)) {
            written.push(fig.id);
            let md = fig.write(&out_dir, &header, elapsed, plot);
            progress.out(format_args!("{md}"));
            let _ = std::io::stdout().flush();
        }
    }
}
