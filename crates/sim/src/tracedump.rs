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
//! `scripts/check_trace.sh` validates in CI.

use crate::config::SimConfig;
use crate::experiments::two_class_trace;
use crate::federation::Federation;
use crate::scenario::{Scenario, TwoClassParams};
use qa_core::MechanismKind;
use qa_simnet::json::Json;
use qa_simnet::telemetry::{ConvergenceReport, Telemetry, TraceRecord};
use qa_simnet::{FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;

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
    /// Summary JSON: run shape, outcome metrics, convergence report and
    /// the telemetry registry snapshot. The registry part contains
    /// wall-clock span timings, so — unlike `jsonl` — the summary is
    /// *not* byte-deterministic.
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
        assert!(dump.report.price_adjustments > 0);
        assert!(dump.report.nodes > 0);
        assert!(!dump.report.per_class.is_empty());
        assert_eq!(dump.jsonl.lines().count(), dump.records.len());
        assert!(dump
            .summary
            .get("registry")
            .unwrap()
            .get("counters")
            .is_some());
    }
}
