//! `qa-trace` — the one tool for JSONL telemetry traces: it validates
//! and analyses them, and writes none.
//!
//! Works on any trace the telemetry layer writes (simulator dumps,
//! `qad --trace` node traces, `qa-ctl --trace` driver traces):
//!
//! ```text
//! qa-trace summary     <trace.jsonl> [--require a,b] # event census + span
//! qa-trace filter      <trace.jsonl> [--kind a,b] [--node N] [--class C]
//!                      [--from-us T] [--to-us T]    # re-emit matching JSONL
//! qa-trace prices      <trace.jsonl> [--class C]    # per-class price timelines
//! qa-trace rejections  <trace.jsonl>                # node × class heatmap
//! qa-trace convergence <trace.jsonl> --period-ms P [--tol X]
//! qa-trace spans       <trace.jsonl>                # derived durations
//! ```
//!
//! Every subcommand reads its trace through
//! [`qa_simnet::telemetry::read_trace`], so every analysis also validates
//! it (strict parse, canonical re-dump, monotone clock); `summary
//! --require` also fails unless each listed kind occurs. The analyses
//! take `--json` and the filter flags; `filter` emits canonical JSONL.
//! The seeded simulator traces are `qa_fig` rows: `trace_dump`, and
//! `trace_seed2007`, committed under `figures/`.

use qa_bench::{convergence_text, event_class, event_node, render_table, summary};
use qa_simnet::json::{Json, ToJson};
use qa_simnet::stats::{LogHistogram, Welford};
use qa_simnet::telemetry::{census, read_trace, ConvergenceReport, TelemetryEvent, TraceRecord};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pipe-safe `println!`: `filter` output is meant to be piped, and a
/// downstream `head` closing the pipe is a normal end of output, not an
/// error — exit quietly instead of panicking on `BrokenPipe`.
fn out(text: std::fmt::Arguments) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}
macro_rules! outln {
    ($($t:tt)*) => { out(format_args!($($t)*)) };
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_trace(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Default)]
struct Filter {
    kinds: Vec<String>,
    node: Option<u32>,
    class: Option<u32>,
    from_us: Option<u64>,
    to_us: Option<u64>,
}

impl Filter {
    fn matches(&self, r: &TraceRecord) -> bool {
        (self.kinds.is_empty() || self.kinds.iter().any(|k| k == r.event.kind()))
            && self.node.is_none_or(|n| event_node(&r.event) == Some(n))
            && self.class.is_none_or(|c| event_class(&r.event) == Some(c))
            && self.from_us.is_none_or(|t| r.t_us >= t)
            && self.to_us.is_none_or(|t| r.t_us <= t)
    }
}

struct Args {
    path: String,
    filter: Filter,
    json: bool,
    period_us: Option<u64>,
    tol: f64,
    required: Vec<String>,
}

/// A flag's value, parsed; the error names the flag.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--period-ms` as the positive µs bucket [`ConvergenceReport`] takes.
fn period_us(ms: &str) -> Result<u64, String> {
    let ms: u64 = parsed("--period-ms", ms)?;
    match ms.checked_mul(1000) {
        Some(0) => Err("--period-ms must be positive".to_string()),
        Some(us) => Ok(us),
        None => Err(format!("--period-ms {ms} overflows the µs clock")),
    }
}

/// `--tol`: a quiet-period threshold, so neither NaN nor negative.
fn tolerance(tol: &str) -> Result<f64, String> {
    let tol: f64 = parsed("--tol", tol)?;
    if tol >= 0.0 {
        Ok(tol)
    } else {
        Err(format!("--tol must be a non-negative number, got {tol}"))
    }
}

/// The comma-separated, blank-free list a `--kind`/`--require` value
/// names.
fn kind_list(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut path = None;
    let mut filter = Filter::default();
    let mut json = false;
    let mut period_us = None;
    let mut tol = 0.05;
    let mut required = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--kind" => filter.kinds = kind_list(&take(arg)?),
            "--require" => required.extend(kind_list(&take(arg)?)),
            "--node" => filter.node = Some(parsed(arg, &take(arg)?)?),
            "--class" => filter.class = Some(parsed(arg, &take(arg)?)?),
            "--from-us" => filter.from_us = Some(parsed(arg, &take(arg)?)?),
            "--to-us" => filter.to_us = Some(parsed(arg, &take(arg)?)?),
            "--period-ms" => period_us = Some(self::period_us(&take(arg)?)?),
            "--tol" => tol = tolerance(&take(arg)?)?,
            "--json" => json = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("exactly one trace path expected".to_string());
                }
            }
        }
    }
    Ok(Args {
        path: path.ok_or("a trace path is required")?,
        filter,
        json,
        period_us,
        tol,
        required,
    })
}

fn cmd_summary(args: &Args, records: &[TraceRecord]) -> Result<(), String> {
    let kinds = census(records);
    if let Some(missing) = args
        .required
        .iter()
        .find(|k| !kinds.contains_key(k.as_str()))
    {
        let seen: Vec<&str> = kinds.keys().copied().collect();
        return Err(format!(
            "{}: required event kind '{missing}' never occurs (saw: {})",
            args.path,
            seen.join(", ")
        ));
    }
    let (json, text) = summary(records);
    outln!("{}", if args.json { json.pretty() } else { text });
    Ok(())
}

fn cmd_filter(_: &Args, records: &[TraceRecord]) -> Result<(), String> {
    for r in records {
        outln!("{}", r.to_json().dump());
    }
    Ok(())
}

fn cmd_prices(args: &Args, records: &[TraceRecord]) -> Result<(), String> {
    // class -> (adjustments, first, last, min, max) over `new` prices.
    let mut per_class: BTreeMap<u32, (u64, f64, f64, f64, f64)> = BTreeMap::new();
    let mut timeline = Vec::new();
    for r in records {
        if let TelemetryEvent::PriceAdjusted {
            node,
            class,
            old,
            new,
            reason,
        } = &r.event
        {
            let e = per_class
                .entry(*class)
                .or_insert((0, *new, *new, *new, *new));
            e.0 += 1;
            e.2 = *new;
            e.3 = e.3.min(*new);
            e.4 = e.4.max(*new);
            if args.filter.class.is_some() {
                timeline.push((r.t_us, *node, *old, *new, reason.as_str()));
            }
        }
    }
    if args.json {
        let report = Json::object(per_class.iter().map(|(c, (n, first, last, min, max))| {
            (
                format!("class{c}"),
                Json::object([
                    ("adjustments", n.to_json()),
                    ("first", Json::Float(*first)),
                    ("last", Json::Float(*last)),
                    ("min", Json::Float(*min)),
                    ("max", Json::Float(*max)),
                ]),
            )
        }));
        outln!("{}", report.pretty());
        return Ok(());
    }
    let rows: Vec<Vec<String>> = per_class
        .iter()
        .map(|(c, (n, first, last, min, max))| {
            vec![
                c.to_string(),
                n.to_string(),
                format!("{first:.4}"),
                format!("{last:.4}"),
                format!("{min:.4}"),
                format!("{max:.4}"),
            ]
        })
        .collect();
    outln!(
        "{}",
        render_table(
            &["class", "adjustments", "first", "last", "min", "max"],
            &rows
        )
    );
    for (t_us, node, old, new, reason) in timeline {
        outln!("{t_us:>12} us  node {node:<3} {old:>10.4} -> {new:<10.4} ({reason})");
    }
    Ok(())
}

fn cmd_rejections(args: &Args, records: &[TraceRecord]) -> Result<(), String> {
    let mut heat: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
    let mut classes: std::collections::BTreeSet<u32> = Default::default();
    for r in records {
        if let TelemetryEvent::RequestRejected { node, class } = r.event {
            *heat.entry(node).or_default().entry(class).or_insert(0) += 1;
            classes.insert(class);
        }
    }
    if args.json {
        let report = Json::object(heat.iter().map(|(n, row)| {
            (
                format!("node{n}"),
                Json::object(row.iter().map(|(c, v)| (format!("class{c}"), v.to_json()))),
            )
        }));
        outln!("{}", report.pretty());
        return Ok(());
    }
    if heat.is_empty() {
        outln!("no rejections in trace");
        return Ok(());
    }
    let mut header: Vec<String> = vec!["node".to_string()];
    header.extend(classes.iter().map(|c| format!("c{c}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = heat
        .iter()
        .map(|(n, row)| {
            let mut cells = vec![n.to_string()];
            cells.extend(
                classes
                    .iter()
                    .map(|c| row.get(c).copied().unwrap_or(0).to_string()),
            );
            cells
        })
        .collect();
    outln!("{}", render_table(&header_refs, &rows));
    Ok(())
}

fn cmd_convergence(args: &Args, records: &[TraceRecord]) -> Result<(), String> {
    let period_us = args
        .period_us
        .ok_or("convergence requires --period-ms MS (the trace's market period)")?;
    let report = ConvergenceReport::from_records(records, period_us, args.tol);
    let text = if args.json {
        report.to_json().pretty()
    } else {
        convergence_text(&report, records)
    };
    outln!("{text}");
    Ok(())
}

/// Durations derived from lifecycle event pairs: per-query
/// assigned→completed, plus the gaps between `period_started` events.
fn cmd_spans(args: &Args, records: &[TraceRecord]) -> Result<(), String> {
    let mut assigned: BTreeMap<u64, u64> = BTreeMap::new();
    let mut exec = Welford::new();
    let mut exec_hist = LogHistogram::new();
    let mut period_gap = Welford::new();
    let mut last_period: Option<u64> = None;
    for r in records {
        match &r.event {
            TelemetryEvent::QueryAssigned { query, .. } => {
                assigned.insert(*query, r.t_us);
            }
            TelemetryEvent::QueryCompleted { query, .. } => {
                if let Some(t0) = assigned.remove(query) {
                    let ms = r.t_us.saturating_sub(t0) as f64 / 1e3;
                    exec.add(ms);
                    exec_hist.record(ms);
                }
            }
            TelemetryEvent::PeriodStarted { .. } => {
                if let Some(t0) = last_period {
                    period_gap.add(r.t_us.saturating_sub(t0) as f64 / 1e3);
                }
                last_period = Some(r.t_us);
            }
            _ => {}
        }
    }
    if args.json {
        let report = Json::object([
            ("assigned_to_completed_ms", exec.to_json()),
            ("assigned_to_completed_hist", exec_hist.to_json()),
            ("period_gap_ms", period_gap.to_json()),
            ("unmatched_assignments", assigned.len().to_json()),
        ]);
        outln!("{}", report.pretty());
        return Ok(());
    }
    let fmt = |w: &Welford| match (w.mean(), w.min(), w.max()) {
        (Some(mean), Some(min), Some(max)) => {
            format!("n={} mean={mean:.2} min={min:.2} max={max:.2}", w.count())
        }
        _ => "n=0".to_string(),
    };
    outln!("assigned→completed (ms): {}", fmt(&exec));
    if let (Some(p50), Some(p99)) = (exec_hist.quantile(0.5), exec_hist.quantile(0.99)) {
        outln!("  p50≈{p50:.2} p99≈{p99:.2} (log-bucket upper bounds)");
    }
    outln!("period gaps        (ms): {}", fmt(&period_gap));
    if !assigned.is_empty() {
        outln!("{} assignments never completed in-trace", assigned.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let usage = "usage: qa-trace <summary|filter|prices|rejections|convergence|spans> \
                 <trace.jsonl> [--kind a,b] [--node N] [--class C] [--from-us T] [--to-us T] \
                 [--require a,b] [--period-ms MS] [--tol X] [--json]";
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    // Every analysis reads the whole trace strictly, then sees only the
    // records the filter flags keep.
    let run = |f: fn(&Args, &[TraceRecord]) -> Result<(), String>| {
        let args = parse_args(rest)?;
        let mut records = load(&args.path)?;
        records.retain(|r| args.filter.matches(r));
        f(&args, &records)
    };
    let result = match cmd.as_str() {
        "summary" => run(cmd_summary),
        "filter" => run(cmd_filter),
        "prices" => run(cmd_prices),
        "rejections" => run(cmd_rejections),
        "convergence" => run(cmd_convergence),
        "spans" => run(cmd_spans),
        "--help" | "-h" | "help" => {
            outln!("{usage}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{usage}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qa-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_zero_period_is_refused_not_a_panic() {
        let err = args(&["t.jsonl", "--period-ms", "0"]).err();
        assert_eq!(err.as_deref(), Some("--period-ms must be positive"));
        let us = args(&["t.jsonl", "--period-ms", "250"]).map(|a| a.period_us);
        assert_eq!(us, Ok(Some(250_000)));
    }

    #[test]
    fn a_period_past_the_us_clock_is_refused() {
        let ms = (u64::MAX / 1000 + 1).to_string();
        let err = args(&["t.jsonl", "--period-ms", &ms]).err().unwrap();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn a_nan_or_negative_tolerance_is_refused() {
        for tol in ["NaN", "-0.5", "-inf"] {
            let err = args(&["t.jsonl", "--tol", tol]).err().unwrap();
            assert!(err.starts_with("--tol must be"), "{tol}: {err}");
        }
        assert_eq!(args(&["t.jsonl", "--tol", "0"]).map(|a| a.tol), Ok(0.0));
    }
}
