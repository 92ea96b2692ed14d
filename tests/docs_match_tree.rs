//! README.md, DESIGN.md and EXPERIMENTS.md may only name files that exist:
//! every backticked repository path (a `*` stands for any run of
//! characters in one path component), every bare `name.rs` in a DESIGN.md
//! §2 table row (looked up in that row's crate), every `--bin NAME`.

use std::path::Path;

/// Does `pattern`, relative to `dir`, name at least one existing path?
fn exists(dir: &Path, pattern: &str) -> bool {
    let (head, rest) = pattern.split_once('/').unwrap_or((pattern, ""));
    let Some((prefix, suffix)) = head.split_once('*') else {
        let path = dir.join(head);
        return path.exists() && (rest.is_empty() || exists(&path, rest));
    };
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
                && (rest.is_empty() || exists(&entry.path(), rest))
        })
    })
}

#[test]
fn docs_name_only_files_that_exist() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        let mut in_inventory = false;
        for line in text.lines() {
            if line.starts_with("## ") {
                in_inventory = doc == "DESIGN.md" && line.starts_with("## 2.");
            }
            // Odd pieces of a split on '`' are the backticked spans.
            let spans: Vec<&str> = line.split('`').skip(1).step_by(2).collect();
            let row_crate = spans.iter().find(|s| s.starts_with("crates/"));
            for span in &spans {
                let is_path = ["crates/", "tests/", "results/", "benchmark/", "examples/"]
                    .iter()
                    .any(|top| span.starts_with(top));
                let found = if is_path && !span.contains(' ') {
                    exists(root, span.trim_end_matches('/'))
                } else if in_inventory && span.ends_with(".rs") {
                    row_crate.is_some_and(|krate| exists(root, &format!("{krate}/src/{span}")))
                } else {
                    continue;
                };
                if !found {
                    missing.push(format!("{doc}: `{span}`"));
                }
            }
        }
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2).filter(|pair| pair[0] == "--bin") {
            let name = pair[1].trim_matches(|c: char| !c.is_alphanumeric() && c != '_');
            if !exists(root, &format!("crates/*/src/bin/{name}.rs")) {
                missing.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(missing.is_empty(), "docs name missing files: {missing:#?}");
}

/// The numeric tokens of `text` (runs of digits and dots), each with the
/// character before it.
fn numeric_tokens(text: &str) -> Vec<(Option<char>, &str)> {
    let mut tokens = Vec::new();
    let mut prev = None;
    let mut chars = text.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if !c.is_ascii_digit() {
            prev = Some(c);
            continue;
        }
        let mut end = start + 1;
        while let Some(&(i, c)) = chars.peek() {
            if !(c.is_ascii_digit() || c == '.') {
                break;
            }
            end = i + 1;
            chars.next();
        }
        tokens.push((prev, text[start..end].trim_end_matches('.')));
        prev = None;
    }
    tokens
}

#[test]
fn committed_figures_are_the_paper_scale_run() {
    let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut figures = 0;
    for entry in std::fs::read_dir(results)
        .expect("results/ is readable")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let study = ["fig", "ablation_", "dynamic_faults.", "deadlock_census."]
            .iter()
            .any(|prefix| name.starts_with(prefix));
        if !(study && (name.ends_with(".md") || name.ends_with(".json"))) {
            continue;
        }
        figures += 1;
        let text = std::fs::read_to_string(entry.path()).expect("figure is readable");
        let header = text.lines().find(|l| l.contains("provenance"));
        assert!(
            header.is_some_and(|h| h.contains("Paper scale")),
            "results/{name}: provenance header {header:?} does not say Paper scale"
        );
    }
    assert_eq!(
        figures, 34,
        "fig1–fig6, nine ablations, dynamic_faults and deadlock_census, one .md and one .json each"
    );
}

/// Every decimal number in a `## Figure` section of EXPERIMENTS.md, and in
/// its "Extensions" and "Dynamic-fault harness" sections, is, at its
/// printed precision, a number in a `results/` file the section links
/// (section signs such as §5.2 are references, not data).
#[test]
fn figure_sections_quote_only_linked_numbers() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let text = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("doc is readable");
    let mut unsupported = Vec::new();
    let mut sections = 0;
    let quoting = ["Figure ", "Extensions ", "Dynamic-fault harness "];
    for section in text
        .split("\n## ")
        .filter(|s| quoting.iter().any(|q| s.starts_with(q)))
    {
        sections += 1;
        let heading = section.lines().next().unwrap_or_default();
        let linked: Vec<f64> = section
            .split("](results/")
            .skip(1)
            .filter_map(|rest| rest.split(')').next())
            .flat_map(|file| {
                let path = root.join("results").join(file);
                let data = std::fs::read_to_string(&path)
                    .unwrap_or_else(|_| panic!("{heading}: links missing results/{file}"));
                numeric_tokens(&data)
                    .into_iter()
                    .filter_map(|(_, t)| t.parse().ok())
                    .collect::<Vec<f64>>()
            })
            .collect();
        for (before, token) in numeric_tokens(section) {
            let Some((_, decimals)) = token.split_once('.') else {
                continue;
            };
            if before == Some('§') {
                continue;
            }
            let p = decimals.len();
            if !linked.iter().any(|v| format!("{v:.p$}") == token) {
                unsupported.push(format!("{heading}: {token}"));
            }
        }
    }
    assert_eq!(
        sections, 8,
        "EXPERIMENTS.md has one section per figure, Extensions and Dynamic-fault harness"
    );
    assert!(
        unsupported.is_empty(),
        "numbers in no linked results file: {unsupported:#?}"
    );
}
