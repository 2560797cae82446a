//! `qa-trace` — offline analyzer for JSONL telemetry traces.
//!
//! Works on any trace the telemetry layer writes (simulator dumps,
//! `qad --trace` node traces, `qa-ctl --trace` driver traces):
//!
//! ```text
//! qa-trace summary     <trace.jsonl>                # event census + span
//! qa-trace filter      <trace.jsonl> [--kind a,b] [--node N] [--class C]
//!                      [--from-us T] [--to-us T]    # re-emit matching JSONL
//! qa-trace prices      <trace.jsonl> [--class C]    # per-class price timelines
//! qa-trace rejections  <trace.jsonl>                # node × class heatmap
//! qa-trace convergence <trace.jsonl> --period-ms P [--tol X]
//! qa-trace spans       <trace.jsonl>                # derived durations
//! ```
//!
//! Every subcommand accepts `--json` to print a machine-readable report
//! instead of tables. `filter` always emits canonical JSONL (feed it back
//! into `check_trace` or `qa-trace` itself).

use qa_bench::render_table;
use qa_simnet::json::{FromJson, Json, ToJson};
use qa_simnet::stats::{LogHistogram, Welford};
use qa_simnet::telemetry::{ConvergenceReport, TelemetryEvent, TraceRecord};
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

/// The first of the wire fields `names` the event carries. Every field
/// the filters ask for is a `u32` on the wire.
fn event_u32(e: &TelemetryEvent, names: &[&str]) -> Option<u32> {
    let (_, value) = e.fields().into_iter().find(|(k, _)| names.contains(k))?;
    u32::from_json(&value).ok()
}

/// The node an event is attributed to, when it names one. Brokers are
/// shard-level actors; their index shares the `--node` filter slot so one
/// shard's bids can be followed through a trace.
fn event_node(e: &TelemetryEvent) -> Option<u32> {
    event_u32(e, &["node", "broker"])
}

/// The query class an event concerns, when it names one.
fn event_class(e: &TelemetryEvent) -> Option<u32> {
    event_u32(e, &["class"])
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            TraceRecord::parse_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
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
        if !self.kinds.is_empty() && !self.kinds.iter().any(|k| k == r.event.kind()) {
            return false;
        }
        if let Some(n) = self.node {
            if event_node(&r.event) != Some(n) {
                return false;
            }
        }
        if let Some(c) = self.class {
            if event_class(&r.event) != Some(c) {
                return false;
            }
        }
        if let Some(t) = self.from_us {
            if r.t_us < t {
                return false;
            }
        }
        if let Some(t) = self.to_us {
            if r.t_us > t {
                return false;
            }
        }
        true
    }
}

struct Args {
    path: String,
    filter: Filter,
    json: bool,
    period_ms: Option<u64>,
    tol: f64,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut path = None;
    let mut filter = Filter::default();
    let mut json = false;
    let mut period_ms = None;
    let mut tol = 0.05;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--kind" => {
                filter.kinds = take("--kind")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--node" => {
                filter.node = Some(
                    take("--node")?
                        .parse()
                        .map_err(|e| format!("--node: {e}"))?,
                )
            }
            "--class" => {
                filter.class = Some(
                    take("--class")?
                        .parse()
                        .map_err(|e| format!("--class: {e}"))?,
                )
            }
            "--from-us" => {
                filter.from_us = Some(
                    take("--from-us")?
                        .parse()
                        .map_err(|e| format!("--from-us: {e}"))?,
                )
            }
            "--to-us" => {
                filter.to_us = Some(
                    take("--to-us")?
                        .parse()
                        .map_err(|e| format!("--to-us: {e}"))?,
                )
            }
            "--period-ms" => {
                period_ms = Some(
                    take("--period-ms")?
                        .parse()
                        .map_err(|e| format!("--period-ms: {e}"))?,
                )
            }
            "--tol" => tol = take("--tol")?.parse().map_err(|e| format!("--tol: {e}"))?,
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
        period_ms,
        tol,
    })
}

fn cmd_summary(args: &Args) -> Result<(), String> {
    let records = load(&args.path)?;
    let kept: Vec<&TraceRecord> = records.iter().filter(|r| args.filter.matches(r)).collect();
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut nodes: std::collections::BTreeSet<u32> = Default::default();
    for r in &kept {
        *kinds.entry(r.event.kind()).or_insert(0) += 1;
        nodes.extend(event_node(&r.event));
    }
    let (first, last) = match (kept.first(), kept.last()) {
        (Some(f), Some(l)) => (f.t_us, l.t_us),
        _ => (0, 0),
    };
    if args.json {
        let report = Json::object([
            ("records", Json::Int(kept.len() as i64)),
            ("first_us", Json::Int(first as i64)),
            ("last_us", Json::Int(last as i64)),
            ("nodes", Json::Int(nodes.len() as i64)),
            (
                "kinds",
                Json::object(
                    kinds
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Int(*v as i64))),
                ),
            ),
        ]);
        outln!("{}", report.pretty());
    } else {
        outln!(
            "{} records over {:.1} ms, {} nodes\n",
            kept.len(),
            (last.saturating_sub(first)) as f64 / 1e3,
            nodes.len()
        );
        let rows: Vec<Vec<String>> = kinds
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()])
            .collect();
        outln!("{}", render_table(&["event", "count"], &rows));
    }
    Ok(())
}

fn cmd_filter(args: &Args) -> Result<(), String> {
    for r in load(&args.path)? {
        if args.filter.matches(&r) {
            outln!("{}", r.to_json().dump());
        }
    }
    Ok(())
}

fn cmd_prices(args: &Args) -> Result<(), String> {
    let records = load(&args.path)?;
    // class -> (adjustments, first, last, min, max) over `new` prices.
    let mut per_class: BTreeMap<u32, (u64, f64, f64, f64, f64)> = BTreeMap::new();
    let mut timeline = Vec::new();
    for r in records.iter().filter(|r| args.filter.matches(r)) {
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
                    ("adjustments", Json::Int(*n as i64)),
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

fn cmd_rejections(args: &Args) -> Result<(), String> {
    let records = load(&args.path)?;
    let mut heat: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
    let mut classes: std::collections::BTreeSet<u32> = Default::default();
    for r in records.iter().filter(|r| args.filter.matches(r)) {
        if let TelemetryEvent::RequestRejected { node, class } = r.event {
            *heat.entry(node).or_default().entry(class).or_insert(0) += 1;
            classes.insert(class);
        }
    }
    if args.json {
        let report = Json::object(heat.iter().map(|(n, row)| {
            (
                format!("node{n}"),
                Json::object(
                    row.iter()
                        .map(|(c, v)| (format!("class{c}"), Json::Int(*v as i64))),
                ),
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

fn cmd_convergence(args: &Args) -> Result<(), String> {
    let period_ms = args
        .period_ms
        .ok_or("convergence requires --period-ms MS (the trace's market period)")?;
    let records = load(&args.path)?;
    let kept: Vec<TraceRecord> = records
        .into_iter()
        .filter(|r| args.filter.matches(r))
        .collect();
    let report = ConvergenceReport::from_records(&kept, period_ms * 1000, args.tol);
    if args.json {
        outln!("{}", report.to_json().pretty());
        return Ok(());
    }
    outln!(
        "periods = {}, nodes = {}, price adjustments = {}, rejections = {}, \
         dropped = {}, crashes = {}",
        report.periods,
        report.nodes,
        report.price_adjustments,
        report.rejections,
        report.dropped_messages,
        report.crashes
    );
    if report.broker_bids > 0 || report.parent_clearings > 0 {
        outln!(
            "broker tier: {} bids, {} parent clearings, {} units escalated",
            report.broker_bids,
            report.parent_clearings,
            report.escalated_units
        );
    }
    for c in &report.per_class {
        let settled = match c.stabilized_at_period {
            Some(p) => format!("stabilized at period {p}"),
            None => "still moving in the final period".to_string(),
        };
        outln!(
            "  class {}: {} adjustments, final mean price {:.4}, {}",
            c.class,
            c.adjustments,
            c.final_mean_price,
            settled
        );
    }
    Ok(())
}

/// Durations derived from lifecycle event pairs: per-query
/// assigned→completed, plus the gaps between `period_started` events.
fn cmd_spans(args: &Args) -> Result<(), String> {
    let records = load(&args.path)?;
    let mut assigned: BTreeMap<u64, u64> = BTreeMap::new();
    let mut exec = Welford::new();
    let mut exec_hist = LogHistogram::new();
    let mut period_gap = Welford::new();
    let mut last_period: Option<u64> = None;
    for r in records.iter().filter(|r| args.filter.matches(r)) {
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
            ("unmatched_assignments", Json::Int(assigned.len() as i64)),
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
                 [--period-ms MS] [--tol X] [--json]";
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let run = |f: fn(&Args) -> Result<(), String>| parse_args(rest).and_then(|a| f(&a));
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
