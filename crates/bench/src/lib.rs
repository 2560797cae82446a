//! # qa-bench — the experiment harness
//!
//! Every table and figure of the paper is one row of [`FIGURES`]: a name
//! and a function from the scale and the thread budget to a [`Report`],
//! the text to print and the files to write. A row's module states its
//! figure once — workload, per-scale parameters, cells and result type —
//! over the engine and the shared workloads of `qa_sim::experiments`.
//! `qa_fig <name>... | all` runs rows, prints their text and writes their
//! files under `bench_results/`; the name is the file's stem. The rows marked
//! `committed` are functions of scale and seed alone: their full-scale
//! files, the two seeded telemetry traces among them, are committed under
//! `figures/` and `tests/figures.rs` regenerates them; nothing else
//! writes there. `qa_trace` reads traces and writes none; `explore`,
//! `check_metrics` and `ext_net` are separate tools. (Performance is
//! measured by the repo benchmark, `benchmark/run.sh`.)
//!
//! Scale control: `QA_SCALE` selects the scale of every figure:
//!
//! * `ci` (default) — small federation / short horizon, finishes in
//!   seconds; shapes hold, absolute numbers are noisier,
//! * `full` — the paper-scale configuration (100 nodes, full sweeps);
//!   minutes of runtime.
//!
//! Any other value is an error: the bins exit 2 naming it.
//!
//! `QA_THREADS` sizes the worker pool that fans a figure's independent
//! cells out (`qa_simnet::par_map_indexed_with`). Cells are pure
//! functions of their inputs and come back in input order, so a figure's
//! files are byte-identical at any budget.

mod cluster;
mod motivating;
mod scale;
mod sim;
mod trace;

use qa_simnet::json::ToJson;
use std::fmt::Display;
use std::path::PathBuf;
pub use trace::{convergence_text, event_class, event_node, summary};

/// Experiment scale selected via the `QA_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small and fast.
    Ci,
    /// Paper-scale.
    Full,
}

/// Reads `QA_SCALE`: unset or `ci` is [`Scale::Ci`], `full` is
/// [`Scale::Full`]. Any other value is an error naming it, so a typo never
/// writes CI-scale files under full-scale names.
pub fn scale() -> Result<Scale, String> {
    let value = std::env::var_os("QA_SCALE");
    parse_scale(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None | Some("ci") => Ok(Scale::Ci),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!("QA_SCALE={other:?}: expected `ci` or `full`")),
    }
}

/// What one figure produced: the text it prints and the files it writes.
#[derive(Debug, Default)]
pub struct Report {
    /// The tables and remarks, as printed.
    pub text: String,
    /// `(file name, contents)` pairs, written under `bench_results/`.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// A report whose text opens with `title` and a blank line.
    pub(crate) fn titled(title: impl Display) -> Report {
        let text = format!("{title}\n\n");
        Report {
            text,
            files: Vec::new(),
        }
    }

    /// Appends `line` and a newline.
    pub(crate) fn line(&mut self, line: impl Display) {
        self.text.push_str(&format!("{line}\n"));
    }

    /// Appends [`render_table`] of `rows` under `headers` (separated by
    /// `|`), then a blank line.
    pub(crate) fn table(&mut self, headers: &str, rows: &[Vec<String>]) {
        let headers: Vec<&str> = headers.split('|').collect();
        self.line(render_table(&headers, rows));
    }

    /// Adds `<name>.json` holding `value`, rendered as every result file
    /// is.
    pub(crate) fn json<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) {
        let contents = value.to_json().pretty();
        self.files.push((format!("{name}.json"), contents));
    }
}

/// One table or figure: its name (the stem of its JSON file) and how to
/// produce it at a scale and a thread budget.
pub struct Figure {
    /// The name `qa_fig` takes.
    pub name: &'static str,
    /// The files are functions of scale and seed alone (no wall clock):
    /// committed under `figures/` at full scale.
    pub committed: bool,
    /// Computes the figure.
    pub run: fn(Scale, usize) -> Report,
}

const fn committed(name: &'static str, run: fn(Scale, usize) -> Report) -> Figure {
    Figure {
        name,
        committed: true,
        run,
    }
}

const fn uncommitted(name: &'static str, run: fn(Scale, usize) -> Report) -> Figure {
    Figure {
        name,
        committed: false,
        run,
    }
}

/// Every figure, in the order `qa_fig all` runs them. Fig. 7,
/// `ext_resilience` and `fig_scale` read the wall clock, and so do
/// `trace_dump`'s span timings (`trace_dump_spans.json`), so their files
/// are not committed; `trace_dump`'s other two are seeded, and
/// `scripts/check_trace.sh` holds them to that.
pub const FIGURES: &[Figure] = &[
    committed("fig1_motivating", motivating::fig1),
    committed("table2_comparison", sim::table2),
    committed("table3_parameters", sim::table3),
    committed("fig3_sinusoid_workload", sim::fig3),
    committed("fig4_all_algorithms", sim::fig4),
    committed("fig5a_load_sweep", sim::fig5a),
    committed("fig5b_frequency_sweep", sim::fig5b),
    committed("fig5c_tracking", sim::fig5c),
    committed("fig6_zipf_sweep", sim::fig6),
    uncommitted("fig7_real_cluster", cluster::fig7),
    committed("ablation_market", sim::ablation),
    committed("ext_fairness", sim::fairness),
    uncommitted("ext_resilience", cluster::resilience),
    uncommitted("fig_scale", scale::fig_scale),
    committed("fig_scale_trace", scale::trace),
    committed("trace_seed2007", trace::golden),
    uncommitted("trace_dump", trace::dump),
];

/// The row called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Writes `contents` to `bench_results/<file>` (the directory created on
/// demand) and returns its path.
pub fn write_result(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("bench_results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Writes a JSON result file under `bench_results/` and returns its path.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    write_result(&format!("{name}.json"), &value.to_json().pretty())
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with sensible precision for tables.
pub fn fmt_ms(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn fmt_ms_precision() {
        assert_eq!(fmt_ms(1234.6), "1235");
        assert_eq!(fmt_ms(12.345), "12.35");
        assert_eq!(fmt_ms(f64::NAN), "n/a");
    }

    #[test]
    fn every_row_has_a_name_of_its_own() {
        for f in FIGURES {
            assert_ne!(f.name, "all", "`qa_fig all` runs every row");
            let rows = FIGURES.iter().filter(|g| g.name == f.name).count();
            assert_eq!(rows, 1, "{} names {rows} rows", f.name);
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
        }
    }

    #[test]
    fn parse_scale_takes_ci_and_full_and_names_anything_else() {
        assert_eq!(parse_scale(None), Ok(Scale::Ci));
        assert_eq!(parse_scale(Some("ci")), Ok(Scale::Ci));
        assert_eq!(parse_scale(Some("full")), Ok(Scale::Full));
        for typo in ["Full", "FULL", "ful", "", " full"] {
            let err = parse_scale(Some(typo)).unwrap_err();
            assert!(err.starts_with(&format!("QA_SCALE={typo:?}")), "{err}");
        }
    }
}
