//! Seeded telemetry replay: a Fig. 3-style diagnostic artifact.
//!
//! Runs one QA-NT simulation with full telemetry capture — plus a small
//! deterministic fault schedule (one node crash/recovery, a lossy link
//! plan) so fault events appear in the trace — and returns the raw JSONL
//! trace, a [`ConvergenceReport`] over the per-node price trajectories,
//! and a summary JSON combining the run's metrics with the telemetry
//! registry snapshot.
//!
//! Everything in the JSONL trace is derived from sim-time and seeded
//! randomness, so two runs of the same spec are **byte-identical** — the
//! determinism guarantee `tests/telemetry.rs` pins and
//! `scripts/check_trace.sh` validates in CI (`qa-trace dump`, then
//! `qa-trace summary --require`).
//!
//! A trace is therefore a complete behavioural fingerprint of the market:
//! every price move, rejection, assignment, drop and crash in order. The
//! golden replay ([`TraceDumpSpec::golden`], [`check_golden_text`];
//! `qa-trace golden`, `scripts/check_golden.sh`) re-runs a small spec
//! and diffs it byte for byte against the checked-in
//! `goldens/trace_seed2007.jsonl`, so a refactor that silently changes
//! market behaviour — a reordered float reduction, an off-by-one in the
//! period loop, a perturbed pricer constant — fails loudly, naming the
//! first diverging event. The diff is deliberately primitive: line by
//! line, first divergence wins. Anything smarter (field tolerance,
//! reordering windows) would re-introduce the silent drift it catches.

use crate::config::SimConfig;
use crate::experiments::two_class_trace;
use crate::federation::Federation;
use crate::scenario::{Scenario, TwoClassParams};
use qa_core::MechanismKind;
use qa_simnet::json::{Json, ToJson};
use qa_simnet::telemetry::{census, read_trace, ConvergenceReport, Telemetry, TraceRecord};
use qa_simnet::{FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;
use std::fmt::Write as _;

/// Seed of the checked-in golden trace.
pub const GOLDEN_SEED: u64 = 2007;

/// Repo-relative path of the checked-in golden trace.
pub const GOLDEN_PATH: &str = "goldens/trace_seed2007.jsonl";

/// Parameters of a trace-dump run.
#[derive(Debug, Clone)]
pub struct TraceDumpSpec {
    /// Simulation configuration (nodes, period, seed, …).
    pub config: SimConfig,
    /// Trace horizon in seconds.
    pub secs: u64,
    /// Offered load as a fraction of system capacity.
    pub frac: f64,
    /// Sinusoid frequency of the two-class workload (Hz).
    pub freq_hz: f64,
    /// Uniform per-message drop probability (0 disables link faults).
    pub drop_prob: f64,
    /// Optional crash injection: `(node, kill_ms, recover_ms)`.
    pub kill: Option<(u32, u64, u64)>,
    /// `mean |Δ ln p|` threshold below which a period counts as quiet.
    pub convergence_tol: f64,
}

impl TraceDumpSpec {
    /// CI-sized run: 10 nodes, 20 s, mild overload, 5% loss, one crash.
    pub fn ci(seed: u64) -> TraceDumpSpec {
        TraceDumpSpec {
            config: SimConfig::small_test(seed),
            secs: 20,
            frac: 1.1,
            freq_hz: 0.05,
            drop_prob: 0.05,
            kill: Some((0, 5_000, 12_000)),
            convergence_tol: 0.02,
        }
    }

    /// Paper-scale run: 100 nodes, 120 s.
    pub fn full(seed: u64) -> TraceDumpSpec {
        TraceDumpSpec {
            config: SimConfig {
                seed,
                ..SimConfig::paper_defaults()
            },
            secs: 120,
            frac: 1.1,
            freq_hz: 0.05,
            drop_prob: 0.05,
            kill: Some((0, 30_000, 70_000)),
            convergence_tol: 0.02,
        }
    }

    /// The golden-trace run shape: small enough that the checked-in file
    /// stays reviewable, rich enough to cover the full event taxonomy
    /// (market dynamics, loss, one crash/recovery).
    ///
    /// **Changing anything here invalidates the checked-in golden** —
    /// regenerate with `qa-trace golden --bless` and commit the diff with
    /// the change that caused it.
    pub fn golden(seed: u64) -> TraceDumpSpec {
        let mut spec = TraceDumpSpec::ci(seed);
        spec.config.num_nodes = 5;
        spec.secs = 4;
        spec.kill = Some((0, 1_000, 2_500));
        spec
    }
}

/// Everything a trace-dump run produces.
#[derive(Debug)]
pub struct TraceDump {
    /// The captured records, in emission order.
    pub records: Vec<TraceRecord>,
    /// The records as JSONL (one compact object per line).
    pub jsonl: String,
    /// Convergence diagnostics over the price trajectories.
    pub report: ConvergenceReport,
    /// Summary JSON: run shape, outcome metrics, the event census
    /// (`kinds`), convergence report and the telemetry registry snapshot.
    /// The registry part contains wall-clock span timings, so — unlike
    /// `jsonl` — the summary is *not* byte-deterministic.
    pub summary: Json,
}

/// Runs the spec and captures its telemetry.
pub fn run_trace_dump(spec: &TraceDumpSpec) -> TraceDump {
    let scenario = Scenario::two_class(spec.config.clone(), TwoClassParams::default());
    let trace = two_class_trace(&scenario, spec.freq_hz, spec.frac, spec.secs);
    let (telemetry, buffer) = Telemetry::buffered();
    let mut federation =
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry.clone());
    if spec.drop_prob > 0.0 {
        federation.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(spec.drop_prob)));
    }
    if let Some((node, kill_ms, recover_ms)) = spec.kill {
        federation.kill_node_at(NodeId(node), SimTime::from_millis(kill_ms));
        federation.recover_node_at(NodeId(node), SimTime::from_millis(recover_ms));
    }
    let outcome = federation.run(&trace);

    let records = buffer.records();
    let jsonl = buffer.to_jsonl();
    let report = ConvergenceReport::from_records(
        &records,
        spec.config.period.as_micros(),
        spec.convergence_tol,
    );
    if let Some(registry) = telemetry.registry() {
        outcome.metrics.publish_to(registry);
        outcome.boundary.publish_to(registry);
        outcome.wait.publish_to(registry);
    }
    let registry_snapshot = telemetry
        .registry()
        .map(|r| r.snapshot())
        .unwrap_or(Json::Null);
    let summary = qa_simnet::json_obj! {
        "mechanism": format!("{}", outcome.mechanism),
        "seed": spec.config.seed,
        "nodes": spec.config.num_nodes as u64,
        "secs": spec.secs,
        "frac": spec.frac,
        "drop_prob": spec.drop_prob,
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
    }
}

/// Where two traces first diverge, 1-based. `None` on a side means the
/// trace ended there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based line number of the first difference.
    pub line: usize,
    /// The golden trace's line, if it has one.
    pub golden: Option<String>,
    /// The replayed trace's line, if it has one.
    pub actual: Option<String>,
}

/// First line where `actual` differs from `golden`, or `None` when the
/// traces are byte-identical.
pub fn first_divergence(golden: &str, actual: &str) -> Option<Divergence> {
    let mut g = golden.lines();
    let mut a = actual.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (g.next(), a.next()) {
            (None, None) => return None,
            (golden_line, actual_line) => {
                if golden_line == actual_line {
                    continue;
                }
                return Some(Divergence {
                    line,
                    golden: golden_line.map(str::to_string),
                    actual: actual_line.map(str::to_string),
                });
            }
        }
    }
}

/// Index of the first differing byte between two lines.
fn first_diff_byte(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// Renders a pointed first-divergence report: the event index, up to
/// `context` preceding golden lines for orientation, both divergent
/// lines, and a caret at the first differing byte.
pub fn render_divergence(golden: &str, d: &Divergence, context: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "traces diverge at event {} (1-based)", d.line);
    let lines: Vec<&str> = golden.lines().collect();
    let from = d.line.saturating_sub(context + 1);
    for (i, line) in lines.iter().enumerate().take(d.line - 1).skip(from) {
        let _ = writeln!(out, "  = {:>6}  {line}", i + 1);
    }
    match (&d.golden, &d.actual) {
        (Some(g), Some(a)) => {
            let _ = writeln!(out, "  - golden  {g}");
            let _ = writeln!(out, "  + actual  {a}");
            let caret = first_diff_byte(g, a);
            let _ = writeln!(
                out,
                "            {}^ first differing byte",
                " ".repeat(caret)
            );
        }
        (Some(g), None) => {
            let _ = writeln!(out, "  - golden  {g}");
            let _ = writeln!(out, "  + actual  <trace ends here>");
        }
        (None, Some(a)) => {
            let _ = writeln!(out, "  - golden  <trace ends here>");
            let _ = writeln!(out, "  + actual  {a}");
        }
        (None, None) => {}
    }
    out
}

/// Replays the golden spec and compares byte-for-byte against
/// `golden_text`. The golden is first read through [`read_trace`], so a
/// hand-edited golden that drifted from the trace contract fails even
/// when the bytes happen to match.
///
/// Returns the number of records checked, or the full failure report.
///
/// # Errors
/// A parse failure in the golden, or a rendered first-divergence report.
pub fn check_golden_text(golden_text: &str, seed: u64) -> Result<usize, String> {
    read_trace(golden_text).map_err(|e| format!("golden {e}"))?;
    let dump = run_trace_dump(&TraceDumpSpec::golden(seed));
    match first_divergence(golden_text, &dump.jsonl) {
        None => Ok(dump.records.len()),
        Some(d) => Err(render_divergence(golden_text, &d, 3)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_spec_produces_market_fault_and_query_events() {
        let dump = run_trace_dump(&TraceDumpSpec::ci(7));
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
        assert!(dump
            .summary
            .get("registry")
            .unwrap()
            .get("counters")
            .is_some());
    }

    #[test]
    fn golden_run_is_byte_deterministic_and_self_checks() {
        let a = run_trace_dump(&TraceDumpSpec::golden(GOLDEN_SEED));
        let b = run_trace_dump(&TraceDumpSpec::golden(GOLDEN_SEED));
        assert_eq!(a.jsonl, b.jsonl, "golden spec must replay byte-identically");
        assert!(first_divergence(&a.jsonl, &b.jsonl).is_none());
        assert_eq!(
            check_golden_text(&a.jsonl, GOLDEN_SEED),
            Ok(a.records.len())
        );
        // The golden shape covers the market + fault taxonomy.
        let kinds: std::collections::BTreeSet<&str> =
            a.records.iter().map(|r| r.event.kind()).collect();
        for required in [
            "price_adjusted",
            "supply_computed",
            "query_assigned",
            "query_completed",
            "message_dropped",
            "node_crashed",
            "node_recovered",
            "period_started",
        ] {
            assert!(kinds.contains(required), "golden lacks {required}");
        }
    }

    #[test]
    fn single_byte_perturbation_is_caught_and_pointed_at() {
        let dump = run_trace_dump(&TraceDumpSpec::golden(GOLDEN_SEED));
        // Perturb one digit deep in the trace — the kind of change a
        // wrong pricer constant produces.
        let victim_line = dump.jsonl.lines().count() / 2;
        let mut lines: Vec<String> = dump.jsonl.lines().map(str::to_string).collect();
        let perturbed_line = lines[victim_line]
            .chars()
            .rev()
            .collect::<String>()
            .replacen('0', "1", 1)
            .chars()
            .rev()
            .collect::<String>();
        let perturbed = if perturbed_line != lines[victim_line] {
            lines[victim_line] = perturbed_line;
            lines.join("\n") + "\n"
        } else {
            // No zero to flip on that line: append a digit instead.
            lines[victim_line].push('9');
            lines.join("\n") + "\n"
        };
        let d = first_divergence(&perturbed, &dump.jsonl).expect("must diverge");
        assert_eq!(
            d.line,
            victim_line + 1,
            "divergence must name the first bad event"
        );
        let report = render_divergence(&perturbed, &d, 3);
        assert!(report.contains(&format!("diverge at event {}", victim_line + 1)));
        assert!(report.contains("- golden"));
        assert!(report.contains("+ actual"));
        assert!(report.contains("first differing byte"));
        let err = check_golden_text(&perturbed, GOLDEN_SEED);
        assert!(err.is_err(), "perturbed golden must fail the check");
    }

    #[test]
    fn length_mismatch_reports_the_short_side() {
        let d = first_divergence("a\nb\n", "a\n").expect("must diverge");
        assert_eq!(d.line, 2);
        assert_eq!(d.golden.as_deref(), Some("b"));
        assert_eq!(d.actual, None);
        let r = render_divergence("a\nb\n", &d, 3);
        assert!(r.contains("<trace ends here>"));
    }

    #[test]
    fn invalid_golden_lines_are_rejected_before_the_run() {
        assert!(check_golden_text("not json\n", GOLDEN_SEED)
            .unwrap_err()
            .contains("golden line 1"));
    }
}
