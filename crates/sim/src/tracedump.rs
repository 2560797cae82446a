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
//! `scripts/check_trace.sh` validates in CI (`qa_fig trace_dump`, then
//! `qa-trace summary --require`).
//!
//! A trace is therefore a complete behavioural fingerprint of the market:
//! every price move, rejection, assignment, drop and crash in order. The
//! `qa_fig` row `trace_seed2007` runs [`TraceDumpSpec::golden`], and its
//! file is committed as `figures/trace_seed2007.jsonl`, which the figures
//! test regenerates byte for byte: a refactor that silently changes
//! market behaviour — a reordered float reduction, an off-by-one in the
//! period loop, a perturbed pricer constant — fails there, naming the
//! first differing event.

use crate::config::SimConfig;
use crate::experiments::two_class_trace;
use crate::federation::Federation;
use crate::scenario::Scenario;
use qa_core::MechanismKind;
use qa_simnet::json::{Json, ToJson};
use qa_simnet::telemetry::{census, ConvergenceReport, Telemetry, TraceRecord};
use qa_simnet::{FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;

/// Offered load of every trace-dump run, as a fraction of system capacity.
const FRAC: f64 = 1.1;
/// Sinusoid frequency of the two-class workload (Hz).
const FREQ_HZ: f64 = 0.05;
/// Uniform per-message drop probability.
const DROP_PROB: f64 = 0.05;
/// `mean |Δ ln p|` threshold below which a period counts as quiet.
const CONVERGENCE_TOL: f64 = 0.02;

/// Parameters of a trace-dump run. Every run offers 1.1× system capacity
/// as a 0.05 Hz two-class sinusoid over links that drop 5 % of messages.
#[derive(Debug, Clone)]
pub struct TraceDumpSpec {
    /// Simulation configuration (nodes, period, seed, …).
    pub config: SimConfig,
    /// Trace horizon in seconds.
    pub secs: u64,
    /// Optional crash injection: `(node, kill_ms, recover_ms)`.
    pub kill: Option<(u32, u64, u64)>,
}

impl TraceDumpSpec {
    /// CI-sized run: 10 nodes, 20 s, mild overload, 5% loss, one crash.
    pub fn ci(seed: u64) -> TraceDumpSpec {
        TraceDumpSpec {
            config: SimConfig::small_test(seed),
            secs: 20,
            kill: Some((0, 5_000, 12_000)),
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
            kill: Some((0, 30_000, 70_000)),
        }
    }

    /// The golden-trace run shape: small enough that the checked-in file
    /// stays reviewable, rich enough to cover the full event taxonomy
    /// (market dynamics, loss, one crash/recovery).
    ///
    /// **Changing anything here changes the committed
    /// `figures/trace_seed2007.jsonl`**: copy the `qa_fig trace_seed2007`
    /// output over it with the change that caused it.
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
    let scenario = Scenario::two_class(spec.config.clone());
    let trace = two_class_trace(&scenario, FREQ_HZ, FRAC, spec.secs);
    let (telemetry, buffer) = Telemetry::buffered();
    let mut federation =
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry.clone());
    federation.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(DROP_PROB)));
    if let Some((node, kill_ms, recover_ms)) = spec.kill {
        federation.kill_node_at(NodeId(node), SimTime::from_millis(kill_ms));
        federation.recover_node_at(NodeId(node), SimTime::from_millis(recover_ms));
    }
    let outcome = federation.run(&trace);

    let records = buffer.records();
    let jsonl = buffer.to_jsonl();
    let period_us = spec.config.qant.period.as_micros();
    let report = ConvergenceReport::from_records(&records, period_us, CONVERGENCE_TOL);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::telemetry::read_trace;

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
}
