//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin figures -- all --quick
//! cargo run --release -p wormsim-experiments --bin figures -- fig4
//! ```
//!
//! Markdown and CSV land in `results/`; the Markdown is also printed.

use std::io::Write;
use std::time::Instant;
use wormsim_experiments::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization,
    fig4_throughput_vs_faults, fig5_latency_vs_faults, fig6_fring_traffic, ExperimentConfig,
    FigureResult, Progress, Scale,
};

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
            "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" => {
                which.push(Box::leak(a.clone().into_boxed_str()))
            }
            "all" => which.extend(["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]),
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

    progress.out(format_args!(
        "# wormsim figure reproduction ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    for id in which {
        let t = Instant::now();
        let fig: FigureResult = match id {
            "fig1" => fig1_saturation_throughput(&cfg),
            "fig2" => fig2_latency_vs_rate(&cfg),
            "fig3" => fig3_vc_utilization(&cfg),
            "fig4" => fig4_throughput_vs_faults(&cfg),
            "fig5" => fig5_latency_vs_faults(&cfg),
            "fig6" => fig6_fring_traffic(&cfg),
            _ => unreachable!(),
        };
        let elapsed = t.elapsed();
        let mut md = format!("## {}\n\n", fig.title);
        for note in &fig.notes {
            md.push_str(&format!("- {note}\n"));
        }
        md.push('\n');
        for (i, table) in fig.tables.iter().enumerate() {
            md.push_str(&table.to_markdown());
            md.push('\n');
            if plot {
                // Wide tables read better as line charts; bar-style data
                // (few columns) as bars.
                let chart = if table.columns.len() >= 4 {
                    table.to_line_chart(70, 14)
                } else {
                    table.to_bar_chart(50)
                };
                md.push_str("```text\n");
                md.push_str(&chart);
                md.push_str("```\n\n");
            }
            let csv_path = format!(
                "{out_dir}/{}{}.csv",
                fig.id,
                if fig.tables.len() > 1 {
                    format!("_{}", (b'a' + i as u8) as char)
                } else {
                    String::new()
                }
            );
            std::fs::write(&csv_path, table.to_csv()).expect("write csv");
        }
        md.push_str(&format!("_generated in {elapsed:.2?}_\n"));
        std::fs::write(
            format!("{out_dir}/{}.json", fig.id),
            serde_json::to_string_pretty(&fig).expect("figure serializes"),
        )
        .expect("write json");
        std::fs::write(format!("{out_dir}/{}.md", fig.id), &md).expect("write md");
        progress.out(format_args!("{md}"));
        let _ = std::io::stdout().flush();
    }
}
