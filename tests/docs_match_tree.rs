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
