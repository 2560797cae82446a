//! Every bin the scripts, the CI workflow and the documents tell a reader
//! to build or run exists: each `--bin X` and `target/release/X` names a
//! `crates/*/src/bin/X.rs` or a `[[bin]]` of the root package. A bin that
//! is folded into another cannot leave a dangling instruction behind.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The bins that exist: one per `crates/*/src/bin/*.rs`, plus the root
/// manifest's `[[bin]]` names.
fn existing_bins() -> BTreeSet<String> {
    let root = repo_root();
    let mut bins = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let Ok(dir) = std::fs::read_dir(krate.expect("dir entry").path().join("src/bin")) else {
            continue;
        };
        for file in dir {
            let path = file.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                bins.extend(
                    path.file_stem()
                        .and_then(|s| s.to_str())
                        .map(str::to_string),
                );
            }
        }
    }
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml");
    for section in manifest.split("[[bin]]").skip(1) {
        let name = section
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("a [[bin]] has a name");
        bins.insert(name.to_string());
    }
    bins
}

/// The bin names `text` asks to build or run that are not in `bins`.
fn unknown_bins(text: &str, bins: &BTreeSet<String>) -> Vec<String> {
    let mut unknown = Vec::new();
    for marker in ["--bin ", "target/release/"] {
        for (at, _) in text.match_indices(marker) {
            let rest = &text[at + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            let name = &rest[..end];
            if !name.is_empty() && !bins.contains(name) {
                unknown.push(format!("{marker}{name}"));
            }
        }
    }
    unknown
}

/// The files that tell a reader which bins to run.
fn instructions() -> Vec<(PathBuf, String)> {
    let root = repo_root();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join("scripts"))
        .expect("scripts/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sh"))
        .collect();
    for doc in [
        ".github/workflows/ci.yml",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        paths.push(root.join(doc));
    }
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            (p, text)
        })
        .collect()
}

#[test]
fn every_named_bin_exists() {
    let bins = existing_bins();
    assert!(
        bins.contains("qa_trace") && bins.contains("qa-ctl"),
        "{bins:?}"
    );
    let files = instructions();
    assert!(files.len() > 10, "found the scripts");
    for (path, text) in files {
        let unknown = unknown_bins(&text, &bins);
        assert!(
            unknown.is_empty(),
            "{}: no such bin: {unknown:?}",
            path.display()
        );
    }
}

#[test]
fn a_folded_bin_left_behind_is_caught() {
    let planted = "cargo build -q -p qa-bench --bin check_trace\n\
                   ./target/release/check_trace t.jsonl --require a\n\
                   ./target/release/qa_trace summary t.jsonl\n";
    assert_eq!(
        unknown_bins(planted, &existing_bins()),
        ["--bin check_trace", "target/release/check_trace"]
    );
}
