//! Every bin the scripts, the CI workflow and the documents tell a reader
//! to build or run exists: each `--bin X` and `target/release/X` names a
//! `crates/*/src/bin/X.rs` or a `[[bin]]` of the root package, and each
//! `qa_fig NAME...` names rows of `qa_bench::FIGURES` (or `all`), and
//! each `scripts/X.sh`, `goldens/F` and `figures/F` they name is a file. A
//! bin that is folded into another, a figure renamed, a script deleted or
//! an artifact moved cannot leave a dangling instruction behind.
//!
//! The documents' code references are held to the tree the same way: each
//! backticked `path.rs` or `path.rs:N` names exactly one Rust file and a
//! line inside it, and each backticked Rust name in DESIGN.md occurs in
//! some Rust file. There is no allowlist: a name that is not Rust is
//! written without backticks.

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

/// The figure names `text` passes to `qa_fig` that are not rows. The
/// names passed are the tokens after `qa_fig` on its line (a lone `--`
/// skipped) that start with a word holding a digit or an underscore, or
/// are `all`, up to the first that does not or that ends in punctuation:
/// "`qa_fig fig4_all_algorithms fig5a_load_sweep` at full scale" passes
/// two.
fn unknown_figures(text: &str) -> Vec<String> {
    let mut unknown = Vec::new();
    for (at, _) in text.match_indices("qa_fig ") {
        let rest = &text[at + "qa_fig ".len()..];
        let line = rest.lines().next().unwrap_or("");
        for token in line.split_whitespace().skip_while(|t| *t == "--") {
            let end = token
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(token.len());
            let name = &token[..end];
            let digit_or_underscore = |c: char| c == '_' || c.is_ascii_digit();
            if name != "all" && !name.contains(digit_or_underscore) {
                break;
            }
            if name != "all" && qa_bench::figure(name).is_none() {
                unknown.push(format!("qa_fig {name}"));
            }
            if end < token.len() {
                break;
            }
        }
    }
    unknown
}

/// The repo paths `text` names that are not files: each `scripts/X.sh`,
/// `goldens/F` and `figures/F` (`F` holding a `.`) that starts a path,
/// bare or after `./`, and is not a `<placeholder>` or a `*` glob.
fn missing_paths(text: &str, root: &Path) -> Vec<String> {
    let mut missing = Vec::new();
    for dir in ["scripts/", "goldens/", "figures/"] {
        for (at, _) in text.match_indices(dir) {
            let head = &text[..at];
            let before = head.strip_suffix("./").unwrap_or(head).chars().next_back();
            if before.is_some_and(|c| c.is_ascii_alphanumeric() || "_-/.".contains(c)) {
                continue;
            }
            let rest = &text[at + dir.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || "_-.".contains(c)))
                .unwrap_or(rest.len());
            let name = rest[..end].trim_end_matches('.');
            let named = if dir == "scripts/" {
                name.ends_with(".sh")
            } else {
                name.contains('.')
            };
            if named && !root.join(dir).join(name).is_file() {
                missing.push(format!("{dir}{name}"));
            }
        }
    }
    missing
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
        let mut unknown = unknown_bins(&text, &bins);
        unknown.extend(unknown_figures(&text));
        unknown.extend(missing_paths(&text, &repo_root()));
        assert!(
            unknown.is_empty(),
            "{}: no such bin, figure or file: {unknown:?}",
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

#[test]
fn a_missing_figure_is_caught() {
    let planted = "QA_SCALE=full ./target/release/qa_fig fig4_all_algorithms fig8_missing\n\
                   cargo run -p qa-bench --bin qa_fig -- fig9_missing\n\
                   `qa_fig all` then `qa_fig fig_scale`, qa_fig <name>... and\n\
                   echo \"qa_fig fig_scale at QA_THREADS=1\"\n";
    assert_eq!(
        unknown_figures(planted),
        ["qa_fig fig8_missing", "qa_fig fig9_missing"]
    );
}

#[test]
fn a_missing_script_or_artifact_is_caught() {
    let planted = "run: sh scripts/check_missing.sh && ./scripts/gone_too.sh\n\
                   sh scripts/loc.sh, ./scripts/work_gate.sh and scripts/<x>.sh\n\
                   against goldens/trace_seed2007.jsonl (now figures/trace_seed2007.jsonl).\n\
                   goldens/minidb_plans.txt, figures/*.json, benchmark/scripts/gone.sh\n";
    assert_eq!(
        missing_paths(planted, &repo_root()),
        [
            "scripts/check_missing.sh",
            "scripts/gone_too.sh",
            "goldens/trace_seed2007.jsonl"
        ]
    );
}

/// The documents whose backticked Rust paths are checked.
const PATH_DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

/// `(path, text)` of every Rust file of the tree, the path relative to the
/// root; build output (`target/`) and hidden directories are skipped.
fn rust_files() -> Vec<(String, String)> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("UTF-8 name");
            let path = entry.path();
            let rel = format!("{rel}{name}");
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" {
                    walk(&path, &format!("{rel}/"), out);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel, text));
            }
        }
    }
    let mut out = Vec::new();
    walk(&repo_root(), "", &mut out);
    out.sort();
    out
}

/// The backticked spans of a markdown `text`, fenced code blocks skipped.
fn backticked(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    let mut open: Option<usize> = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            for (i, _) in line.match_indices('`') {
                match open.take() {
                    None => open = Some(at + i + 1),
                    Some(start) => spans.push(&text[start..at + i]),
                }
            }
        }
        at += line.len();
    }
    spans
}

/// A span that names a Rust file: `path.rs`, or `path.rs:N` with `N` a
/// line, a list (`12,40`) or a range (`12–40`). `None` for anything else,
/// a `*` glob or `<placeholder>` included; a line spec that does not
/// parse is an empty list.
fn rust_path(span: &str) -> Option<(&str, Vec<usize>)> {
    let (path, lines) = match span.split_once(".rs") {
        Some((head, "")) => (head, None),
        Some((head, rest)) => (head, Some(rest.strip_prefix(':')?)),
        None => return None,
    };
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    if path.is_empty() || !path.chars().all(path_char) {
        return None;
    }
    let lines = match lines {
        None => Vec::new(),
        Some(spec) => spec
            .split([',', '–', '-'])
            .map(|n| n.trim().parse().unwrap_or(0))
            .collect(),
    };
    Some((&span[..path.len() + 3], lines))
}

/// Why each backticked Rust path of `text` does not name one file and an
/// in-range line of `files`: a path from the repo root names its file,
/// any other must be the tail of exactly one path.
fn bad_rust_paths(text: &str, files: &[(String, String)]) -> Vec<String> {
    let mut bad = Vec::new();
    for span in backticked(text) {
        let Some((path, lines)) = rust_path(span) else {
            continue;
        };
        let exact: Vec<&(String, String)> = files.iter().filter(|(f, _)| f == path).collect();
        let named = if exact.is_empty() {
            let tail = format!("/{path}");
            files.iter().filter(|(f, _)| f.ends_with(&tail)).collect()
        } else {
            exact
        };
        match named[..] {
            [] => bad.push(format!("`{span}`: no such file")),
            [(_, source)] => {
                let len = source.lines().count();
                if lines.iter().any(|&n| n == 0 || n > len) {
                    bad.push(format!("`{span}`: the file has {len} lines"));
                }
            }
            _ => {
                let all: Vec<&str> = named.iter().map(|(f, _)| f.as_str()).collect();
                bad.push(format!("`{span}`: ambiguous, {}", all.join(" or ")));
            }
        }
    }
    bad
}

/// The `::` segments of a span that is a Rust name: a path of identifiers,
/// optionally called (`f()`, `f(x)`), a macro (`m!`) or generic (`T<U>`).
fn rust_name(span: &str) -> Option<Vec<&str>> {
    let mut head = span;
    if span.ends_with(')') {
        head = span.split_once('(')?.0;
    } else if span.ends_with('>') {
        head = span.split_once('<')?.0;
    }
    let head = head.strip_suffix('!').unwrap_or(head);
    let ident = |s: &&str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let segments: Vec<&str> = head.split("::").collect();
    segments.iter().all(ident).then_some(segments)
}

/// The backticked Rust names of `text` with a segment that no Rust file
/// holds as a word. This file, whose planted names are stale on purpose,
/// is not searched.
fn unresolved_names(text: &str, files: &[(String, String)]) -> Vec<String> {
    let words: BTreeSet<&str> = files
        .iter()
        .filter(|(f, _)| !f.ends_with(file!()))
        .flat_map(|(_, source)| source.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
        .collect();
    let mut unresolved = Vec::new();
    for span in backticked(text) {
        if let Some(segments) = rust_name(span) {
            if segments.iter().any(|s| !words.contains(s)) {
                unresolved.push(span.to_string());
            }
        }
    }
    unresolved.sort();
    unresolved.dedup();
    unresolved
}

#[test]
fn every_backticked_rust_path_names_one_file_and_line() {
    let files = rust_files();
    assert!(files.len() > 100, "walked the tree");
    let mut bad = Vec::new();
    for doc in PATH_DOCS {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        bad.extend(
            bad_rust_paths(&text, &files)
                .into_iter()
                .map(|b| format!("{doc}: {b}")),
        );
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn every_backticked_rust_name_in_design_resolves() {
    let text = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let unresolved = unresolved_names(&text, &rust_files());
    assert!(
        unresolved.is_empty(),
        "DESIGN.md names what no Rust file holds: {unresolved:?}"
    );
}

#[test]
fn a_stale_rust_name_is_caught() {
    let planted = "The fan-out is sized by `set_intra_threads` and `QantMarket::roll`,\n\
                   with `qa_simnet::par::par_map_indexed`, `events!` and `Reply<T>`;\n\
                   `QA_SCALE=full` and `--tol` are not names.\n\
                   ```sh\n`not_a_span_in_a_fence`\n```\n";
    assert_eq!(
        unresolved_names(planted, &rust_files()),
        ["set_intra_threads"]
    );
}

#[test]
fn a_missing_ambiguous_or_out_of_range_path_is_caught() {
    let planted = "See `crates/sim/src/gone.rs`, the bare `node.rs:331`, \
                   `crates/core/src/qant.rs:99999`, `crates/core/src/qant.rs:1–99999`,\n\
                   while `crates/core/src/qant.rs:1`, `tests/fig1_exact.rs`, `src/lib.rs`, \
                   `sh scripts/loc.sh <file.rs>...` and `crates/*/src/bin/X.rs` pass.\n";
    let bad = bad_rust_paths(planted, &rust_files());
    assert_eq!(bad.len(), 4, "{bad:?}");
    assert!(bad[0].starts_with("`crates/sim/src/gone.rs`: no such file"));
    assert_eq!(
        bad[1],
        "`node.rs:331`: ambiguous, crates/cluster/src/node.rs or crates/sim/src/node.rs"
    );
    assert!(bad[2].starts_with("`crates/core/src/qant.rs:99999`: the file has"));
    assert!(bad[3].starts_with("`crates/core/src/qant.rs:1–99999`: the file has"));
}
