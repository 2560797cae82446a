//! # qa-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). Each binary
//! prints the figure's rows/series as a text table and writes a JSON copy
//! under `bench_results/`. (Performance is measured by the repo benchmark,
//! `benchmark/run.sh`.)
//!
//! Scale control: every binary honours `QA_SCALE`:
//!
//! * `ci` (default) — small federation / short horizon, finishes in
//!   seconds; shapes hold, absolute numbers are noisier,
//! * `full` — the paper-scale configuration (100 nodes, full sweeps);
//!   minutes of runtime.

use qa_simnet::json::ToJson;
use qa_simnet::{par_map_indexed_with, thread_budget};
use std::path::PathBuf;

/// Fans the independent cells of a sweep (parameter grid × mechanisms ×
/// seeds) over a scoped worker pool.
///
/// Cells must be pure functions of their inputs — every cell derives its
/// randomness from the scenario seed, never from shared mutable state —
/// so fanning them out changes nothing about the numbers. Results come
/// back in input order, which keeps the rendered tables and JSON files
/// **byte-identical** to the serial run at any thread count.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    threads: usize,
}

impl Sweep {
    /// Budget from the `QA_THREADS` env var; default all available cores.
    /// `QA_THREADS=1` reproduces the exact pre-parallel behaviour (cells
    /// run inline on the caller thread, no workers spawned).
    pub fn from_env() -> Sweep {
        Sweep {
            threads: thread_budget(),
        }
    }

    /// A sweep pinned to an explicit thread budget (determinism tests
    /// compare budgets without touching the process environment).
    pub fn with_threads(threads: usize) -> Sweep {
        assert!(threads >= 1, "thread budget must be at least 1");
        Sweep { threads }
    }

    /// The configured worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f(index, cell)` over `cells`, returning results in input
    /// order regardless of which worker ran which cell.
    pub fn map<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        par_map_indexed_with(self.threads, cells, f)
    }
}

/// Experiment scale selected via the `QA_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small and fast.
    Ci,
    /// Paper-scale.
    Full,
}

/// Reads `QA_SCALE` (default [`Scale::Ci`]).
pub fn scale() -> Scale {
    match std::env::var("QA_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Ci,
    }
}

/// Writes a JSON result file under `bench_results/` (created on demand)
/// and returns its path.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("bench_results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().pretty())?;
    Ok(path)
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
    fn sweep_map_preserves_input_order() {
        let cells: Vec<u32> = (0..64).collect();
        let serial = Sweep::with_threads(1).map(&cells, |i, &c| (i, c * 2));
        for threads in [2, 8] {
            let par = Sweep::with_threads(threads).map(&cells, |i, &c| (i, c * 2));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn sweep_from_env_has_positive_budget() {
        assert!(Sweep::from_env().threads() >= 1);
    }

    #[test]
    fn scale_defaults_to_ci() {
        // Unless the caller's environment says otherwise.
        if std::env::var("QA_SCALE").is_err() {
            assert_eq!(scale(), Scale::Ci);
        }
    }
}
