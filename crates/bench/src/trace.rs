//! The seeded simulator traces, and the digests `qa_trace` prints of any
//! trace.
//!
//! Both trace rows run one QA-NT simulation with full telemetry capture:
//! the two-class world offered 1.1× its capacity as a 0.05 Hz sinusoid,
//! over links that drop 5 % of messages, with node 0 crashing and
//! recovering mid-run, so fault events appear in the trace. Everything in
//! the JSONL is derived from sim-time and seeded randomness, so two runs
//! of the same shape are byte-identical.
//!
//! * `trace_seed2007` — 5 nodes, 4 s: every price move, rejection,
//!   assignment, drop and crash in order, committed as
//!   `figures/trace_seed2007.jsonl`, so a change to the market's dynamics
//!   — a reordered float reduction, an off-by-one in the period loop, a
//!   perturbed pricer constant — fails `tests/figures.rs` at the first
//!   differing event;
//! * `trace_dump` — the same shape at `QA_SCALE` (ci: 10 nodes, 20 s;
//!   full: 100 nodes, 120 s): `trace_dump.jsonl`,
//!   `trace_dump_convergence.json` (outcome, census, convergence and the
//!   registry's counters and distributions, all seeded) and
//!   `trace_dump_spans.json` (the registry's `span.*` timings, which read
//!   the wall clock), with the [`summary`] and [`convergence_text`] of its
//!   records. `scripts/check_trace.sh` runs it twice, `cmp`s the two seeded
//!   files, and holds the trace to `qa-trace summary --require`.

use crate::{render_table, Report, Scale};
use qa_core::MechanismKind;
use qa_sim::experiments::two_class_trace;
use qa_sim::{Federation, Scenario, SimConfig};
use qa_simnet::json::{FromJson, Json, ToJson};
use qa_simnet::telemetry::{census, ConvergenceReport, Telemetry, TelemetryEvent, TraceRecord};
use qa_simnet::{FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;
use std::fmt::Write as _;

/// Offered load of every trace run, as a fraction of system capacity.
const FRAC: f64 = 1.1;
/// Sinusoid frequency of the two-class workload (Hz).
const FREQ_HZ: f64 = 0.05;
/// Uniform per-message drop probability.
const DROP_PROB: f64 = 0.05;
/// `mean |Δ ln p|` threshold below which a period counts as quiet.
const CONVERGENCE_TOL: f64 = 0.02;

/// Everything a trace run produces.
struct TraceDump {
    /// The captured records, in emission order.
    records: Vec<TraceRecord>,
    /// The records as JSONL (one compact object per line).
    jsonl: String,
    /// Convergence diagnostics over the price trajectories.
    report: ConvergenceReport,
    /// Summary JSON: run shape, outcome metrics, the event census
    /// (`kinds`), convergence report and the telemetry registry snapshot
    /// without its span timings: as byte-deterministic as `jsonl`.
    summary: Json,
    /// The registry's `span.*` statistics, which read the wall clock.
    spans: Json,
}

/// Runs the trace shape on `nodes` nodes for `secs` seconds, node 0 down
/// from `down_ms.0` to `down_ms.1`, and captures its telemetry.
fn run_trace_dump(seed: u64, nodes: usize, secs: u64, down_ms: (u64, u64)) -> TraceDump {
    let scenario = Scenario::two_class(SimConfig::scaled(nodes, seed));
    let trace = two_class_trace(&scenario, FREQ_HZ, FRAC, secs);
    let (telemetry, buffer) = Telemetry::buffered();
    let mut federation =
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry.clone());
    federation.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(DROP_PROB)));
    federation.kill_node_at(NodeId(0), SimTime::from_millis(down_ms.0));
    federation.recover_node_at(NodeId(0), SimTime::from_millis(down_ms.1));
    let outcome = federation.run(&trace);

    let records = buffer.records();
    let jsonl = buffer.to_jsonl();
    let period_us = scenario.config.qant.period.as_micros();
    let report = ConvergenceReport::from_records(&records, period_us, CONVERGENCE_TOL);
    if let Some(registry) = telemetry.registry() {
        outcome.metrics.publish_to(registry);
        outcome.boundary.publish_to(registry);
        outcome.wait.publish_to(registry);
    }
    let mut registry_snapshot = telemetry
        .registry()
        .map(|r| r.snapshot())
        .unwrap_or(Json::Null);
    let spans = take_spans(&mut registry_snapshot);
    let summary = qa_simnet::json_obj! {
        "mechanism": format!("{}", outcome.mechanism),
        "seed": seed,
        "nodes": nodes as u64,
        "secs": secs,
        "frac": FRAC,
        "drop_prob": DROP_PROB,
        "queries": trace.len() as u64,
        "completed": outcome.metrics.completed,
        "unserved": outcome.metrics.unserved,
        "retries": outcome.metrics.retries,
        "mean_response_ms": outcome.metrics.mean_response_ms(),
        "trace_records": records.len() as u64,
        "kinds": Json::object(census(&records).into_iter().map(|(k, n)| (k, n.to_json()))),
        "convergence": report,
        "registry": registry_snapshot,
    };
    TraceDump {
        records,
        jsonl,
        report,
        summary,
        spans,
    }
}

/// Moves the `span.*` entries of a registry snapshot's `stats` out, into
/// an object of their own.
fn take_spans(snapshot: &mut Json) -> Json {
    let Json::Obj(sections) = snapshot else {
        return Json::Null;
    };
    let Some((_, Json::Obj(stats))) = sections.iter_mut().find(|(k, _)| k == "stats") else {
        return Json::Null;
    };
    let (spans, seeded) = std::mem::take(stats)
        .into_iter()
        .partition(|(k, _)| k.starts_with("span."));
    *stats = seeded;
    Json::Obj(spans)
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

/// `trace_seed2007`, at either scale: small enough that the committed
/// file stays reviewable, rich enough to cover the full event taxonomy.
///
/// **Changing anything here changes the committed
/// `figures/trace_seed2007.jsonl`**: copy the `qa_fig trace_seed2007`
/// output over it with the change that caused it.
pub fn golden(_: Scale, _: usize) -> Report {
    let dump = run_trace_dump(2007, 5, 4, (1_000, 2_500));
    let mut r = Report::default();
    r.line(format!("trace_seed2007 — {} records", dump.records.len()));
    r.files
        .push(("trace_seed2007.jsonl".to_string(), dump.jsonl));
    r
}

/// `trace_dump`.
pub fn dump(scale: Scale, _: usize) -> Report {
    let (nodes, secs, down_ms) = match scale {
        Scale::Ci => (10, 20, (5_000, 12_000)),
        Scale::Full => (100, 120, (30_000, 70_000)),
    };
    let dump = run_trace_dump(2007, nodes, secs, down_ms);
    let mut r = Report::titled(format!(
        "Trace dump — QA-NT, seed 2007, {nodes} nodes, {secs} s horizon"
    ));
    r.line(summary(&dump.records).1);
    r.line(convergence_text(&dump.report, &dump.records));
    r.files.push(("trace_dump.jsonl".to_string(), dump.jsonl));
    r.json("trace_dump_convergence", &dump.summary);
    r.json("trace_dump_spans", &dump.spans);
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

    #[test]
    fn ci_shape_produces_market_fault_and_query_events() {
        let dump = run_trace_dump(7, 10, 20, (5_000, 12_000));
        let kinds: std::collections::BTreeSet<&str> =
            dump.records.iter().map(|r| r.event.kind()).collect();
        for expected in [
            "price_adjusted",
            "supply_computed",
            "request_rejected",
            "query_assigned",
            "query_completed",
            "message_dropped",
            "node_crashed",
            "node_recovered",
            "period_started",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        assert!(dump.report.nodes > 0);
        assert!(!dump.report.per_class.is_empty());
        assert_eq!(read_trace(&dump.jsonl).as_ref(), Ok(&dump.records));
        let kinds = dump.summary.get("kinds").unwrap();
        assert_eq!(
            kinds.get("price_adjusted").and_then(Json::as_u64),
            census(&dump.records).get("price_adjusted").copied()
        );
        let registry = dump.summary.get("registry").unwrap();
        assert!(registry.get("counters").is_some());
        // The wall clock's span timings are apart, so a second run of the
        // shape writes the same summary.
        assert!(
            !registry.pretty().contains("\"span."),
            "{}",
            registry.pretty()
        );
        let Json::Obj(spans) = &dump.spans else {
            panic!("{:?}", dump.spans)
        };
        assert!(spans.iter().all(|(k, _)| k.starts_with("span.")) && !spans.is_empty());
        let again = run_trace_dump(7, 10, 20, (5_000, 12_000));
        assert_eq!(again.summary.pretty(), dump.summary.pretty());
    }
}
