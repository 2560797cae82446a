//! The seeded simulator traces, and the digests `qa_trace` prints of any
//! trace.
//!
//! * `trace_seed2007` — [`TraceDumpSpec::golden`]'s run (5 nodes, 4 s,
//!   loss and one crash/recovery): every price move, rejection,
//!   assignment, drop and crash in order, committed as
//!   `figures/trace_seed2007.jsonl`, so a change to the market's dynamics
//!   fails `tests/figures.rs` at the first differing event;
//! * `trace_dump` — the same shape at `QA_SCALE` (ci: 10 nodes, 20 s;
//!   full: 100 nodes, 120 s): `trace_dump.jsonl` and
//!   `trace_dump_convergence.json` (outcome, census, convergence and the
//!   registry, whose span timings read the wall clock), with the
//!   [`summary`] and [`convergence_text`] of its records.

use crate::{render_table, Report, Scale};
use qa_sim::{run_trace_dump, TraceDumpSpec};
use qa_simnet::json::{FromJson, Json, ToJson};
use qa_simnet::telemetry::{census, ConvergenceReport, TelemetryEvent, TraceRecord};
use std::fmt::Write as _;

/// The first of the wire fields `names` the event carries. Every field
/// the filters ask for is a `u32` on the wire.
fn event_u32(e: &TelemetryEvent, names: &[&str]) -> Option<u32> {
    let (_, value) = e.fields().into_iter().find(|(k, _)| names.contains(k))?;
    u32::from_json(&value).ok()
}

/// The node an event is attributed to, when it names one. Brokers are
/// shard-level actors; their index shares the `--node` filter slot so one
/// shard's bids can be followed through a trace.
pub fn event_node(e: &TelemetryEvent) -> Option<u32> {
    event_u32(e, &["node", "broker"])
}

/// The query class an event concerns, when it names one.
pub fn event_class(e: &TelemetryEvent) -> Option<u32> {
    event_u32(e, &["class"])
}

/// The census, node count and time span of `records`, as a JSON report
/// and as a table.
pub fn summary(records: &[TraceRecord]) -> (Json, String) {
    let kinds = census(records);
    let nodes: std::collections::BTreeSet<u32> = records
        .iter()
        .filter_map(|r| event_node(&r.event))
        .collect();
    let (first, last) = match (records.first(), records.last()) {
        (Some(f), Some(l)) => (f.t_us, l.t_us),
        _ => (0, 0),
    };
    let json = Json::object([
        ("records", records.len().to_json()),
        ("first_us", first.to_json()),
        ("last_us", last.to_json()),
        ("nodes", nodes.len().to_json()),
        (
            "kinds",
            Json::object(kinds.iter().map(|(k, n)| (*k, n.to_json()))),
        ),
    ]);
    let rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|(k, n)| vec![k.to_string(), n.to_string()])
        .collect();
    let text = format!(
        "{} records over {:.1} ms, {} nodes\n\n{}",
        records.len(),
        (last - first) as f64 / 1e3,
        nodes.len(),
        render_table(&["event", "count"], &rows)
    );
    (json, text)
}

/// The convergence digest: the event totals (read off the census), the
/// broker tier's when it ran, then how each class's prices settled.
pub fn convergence_text(report: &ConvergenceReport, records: &[TraceRecord]) -> String {
    let kinds = census(records);
    let n = |kind: &str| kinds.get(kind).copied().unwrap_or(0);
    let mut text = format!(
        "periods = {}, nodes = {}, price adjustments = {}, rejections = {}, \
         dropped = {}, crashes = {}",
        report.periods,
        report.nodes,
        n("price_adjusted"),
        n("request_rejected"),
        n("message_dropped"),
        n("node_crashed")
    );
    if n("broker_bid") + n("parent_cleared") > 0 {
        let _ = write!(
            text,
            "\nbroker tier: {} bids, {} parent clearings, {} escalations",
            n("broker_bid"),
            n("parent_cleared"),
            n("demand_escalated")
        );
    }
    for c in &report.per_class {
        let settled = match c.stabilized_at_period {
            Some(p) => format!("stabilized at period {p}"),
            None => "still moving in the final period".to_string(),
        };
        let _ = write!(
            text,
            "\n  class {}: {} adjustments, final mean price {:.4}, {settled}",
            c.class, c.adjustments, c.final_mean_price
        );
    }
    text
}

/// `trace_seed2007`, at either scale.
pub fn golden(_: Scale, _: usize) -> Report {
    let dump = run_trace_dump(&TraceDumpSpec::golden(2007));
    let mut r = Report::default();
    r.line(format!("trace_seed2007 — {} records", dump.records.len()));
    r.files
        .push(("trace_seed2007.jsonl".to_string(), dump.jsonl));
    r
}

/// `trace_dump`.
pub fn dump(scale: Scale, _: usize) -> Report {
    let spec = match scale {
        Scale::Ci => TraceDumpSpec::ci(2007),
        Scale::Full => TraceDumpSpec::full(2007),
    };
    let dump = run_trace_dump(&spec);
    let mut r = Report::titled(format!(
        "Trace dump — QA-NT, seed 2007, {} nodes, {} s horizon",
        spec.config.num_nodes, spec.secs
    ));
    r.line(summary(&dump.records).1);
    r.line(convergence_text(&dump.report, &dump.records));
    r.files.push(("trace_dump.jsonl".to_string(), dump.jsonl));
    r.json("trace_dump_convergence", &dump.summary);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::telemetry::read_trace;

    #[test]
    fn summary_writes_u64_timestamps_unsigned() {
        let at = |t_us| TraceRecord {
            t_us,
            event: TelemetryEvent::PeriodStarted { index: 0 },
        };
        let json = summary(&[at(1 << 63)]).0.dump();
        assert!(json.contains("\"first_us\":9223372036854775808"), "{json}");
        // The same clock stepping back to 5 is no trace at all.
        let lines = [at(1 << 63), at(5)].map(|r| r.to_json().dump()).join("\n");
        assert_eq!(
            read_trace(&lines),
            Err("line 2: timestamp regression 9223372036854775808 -> 5".to_string())
        );
    }
}
