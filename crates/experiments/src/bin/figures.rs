//! Regenerate the paper's figures, the ablation studies and the
//! dynamic-fault study.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin figures -- all --quick
//! cargo run --release -p wormsim-experiments --bin figures -- fig4 ablation_vc_budget
//! ```
//!
//! Each positional name is a study's id, which is also the name of the
//! files it writes; `all` runs every study. Markdown, JSON and CSV land
//! in `results/` (or `--out DIR`); the Markdown and JSON start with a
//! provenance line, and the Markdown is also printed.

use std::io::Write;
use std::time::{Duration, Instant};
use wormsim_experiments::{
    ablation_arbitration, ablation_buffer_depth, ablation_fault_axis, ablation_mesh_size,
    ablation_message_length, ablation_misroute_limit, ablation_traffic_patterns,
    ablation_turn_models, ablation_vc_budget, check_writable, deadlock_census, dynamic_faults,
    fault_sweep_studies, fig1_fig2_rate_sweep, fig3_vc_utilization, fig4_fig5_fault_sweep,
    fig6_fring_traffic, output_files, provenance, ExperimentConfig, FigureResult, Progress, Scale,
    STUDIES,
};

/// Every study id, in `all` order. An id is also the name of the files
/// the study's result is written to.
fn ids<'a>() -> impl Iterator<Item = &'a str> {
    STUDIES.iter().map(|&(id, _)| id)
}

/// Run the study behind `id`: for `fig1` or `fig2`, the rate sweep behind
/// both; for `fig4` or `fig5`, the fault sweep behind both, which also
/// yields `ablation_fault_axis` and `deadlock_census` when either is
/// `wanted` too (the axis's "seeds" rows are Figure 4's runs, and the
/// census samples them).
fn study(id: &str, cfg: &ExperimentConfig, wanted: &[&str]) -> Vec<FigureResult> {
    vec![match id {
        "fig1" | "fig2" => {
            let (fig1, fig2) = fig1_fig2_rate_sweep(cfg);
            return vec![fig1, fig2];
        }
        "fig3" => fig3_vc_utilization(cfg),
        "fig4" | "fig5"
            if wanted.contains(&"ablation_fault_axis") || wanted.contains(&"deadlock_census") =>
        {
            return fault_sweep_studies(cfg).into();
        }
        "fig4" | "fig5" => {
            let (fig4, fig5) = fig4_fig5_fault_sweep(cfg);
            return vec![fig4, fig5];
        }
        "fig6" => fig6_fring_traffic(cfg),
        "ablation_vc_budget" => ablation_vc_budget(cfg),
        "ablation_message_length" => ablation_message_length(cfg),
        "ablation_buffer_depth" => ablation_buffer_depth(cfg),
        "ablation_traffic" => ablation_traffic_patterns(cfg),
        "ablation_misroute" => ablation_misroute_limit(cfg),
        "ablation_arbitration" => ablation_arbitration(cfg),
        "ablation_turn_models" => ablation_turn_models(cfg),
        "ablation_mesh_size" => ablation_mesh_size(cfg),
        "ablation_fault_axis" => ablation_fault_axis(cfg),
        "deadlock_census" => deadlock_census(cfg),
        "dynamic_faults" => dynamic_faults(cfg),
        _ => unreachable!("{id} is not in STUDIES"),
    }]
}

fn usage() -> ! {
    eprintln!(
        "usage: figures <{}|all>... [--quick] [--plot] [--seed N] [--threads N] [--out DIR] \
         [--quiet]",
        ids().collect::<Vec<_>>().join("|")
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
            "all" => which.extend(ids()),
            "--quick" => scale = Scale::Quick,
            "--plot" => plot = true,
            "--quiet" => quiet = true,
            "--seed" => seed = Some(number(it.next())),
            "--threads" => threads = Some(number(it.next())),
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            id if ids().any(|known| known == id) => which.push(id),
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
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("figures: cannot create {out_dir}: {e}");
        std::process::exit(1);
    }
    // Every file the studies will write, checked before any runs.
    for &(id, tables) in STUDIES.iter().filter(|(id, _)| which.contains(id)) {
        if let Err(e) = check_writable(&output_files(&out_dir, id, tables)) {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
    }
    let header = provenance(scale, &cfg);

    progress.out(format_args!(
        "# wormsim figure reproduction ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    // Studies run but not yet written, with the time their run took: one
    // run can serve several ids, and each is written in `STUDIES` order.
    let mut ready: Vec<(FigureResult, Duration)> = Vec::new();
    for id in ids().filter(|id| which.contains(id)) {
        if !ready.iter().any(|(fig, _)| fig.id == id) {
            let t = Instant::now();
            let figs = study(id, &cfg, &which);
            let elapsed = t.elapsed();
            ready.extend(figs.into_iter().map(|fig| (fig, elapsed)));
        }
        let at = ready.iter().position(|(fig, _)| fig.id == id);
        let (fig, elapsed) = ready.swap_remove(at.expect("the study yields its own id"));
        let md = fig
            .write(&out_dir, &header, elapsed, plot)
            .unwrap_or_else(|e| {
                eprintln!("figures: {e}");
                std::process::exit(1);
            });
        progress.out(format_args!("{md}"));
        let _ = std::io::stdout().flush();
    }
}
