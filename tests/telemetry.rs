//! End-to-end telemetry contracts across the stack:
//!
//! * the trace-dump JSONL is **byte-deterministic** — two runs of the
//!   same spec produce identical bytes (sim-time clock + seeded
//!   randomness; no wall-clock leaks into the event stream),
//! * the emitted JSONL reads back through the strict trace reader
//!   (`read_trace`: every line re-dumps to its exact bytes, clocks are
//!   monotone) as the very records the run captured,
//! * observation is passive — enabling telemetry does not change what
//!   the simulation computes,
//! * the cluster driver emits the same wire schema from real threads.

use qa_core::MechanismKind;
use qa_sim::experiments::two_class_trace;
use qa_sim::{Federation, Scenario, SimConfig};
use qa_simnet::json::ToJson;
use qa_simnet::telemetry::{read_trace, ConvergenceReport, Telemetry, TelemetryEvent, TraceRecord};
use qa_simnet::{FaultPlan, LinkFaults, SimTime};
use qa_workload::NodeId;

/// A trace dump at `qa_fig trace_dump`'s CI shape: QA-NT on 10 nodes
/// offered 1.1× capacity as a 0.05 Hz sinusoid for 20 s, over links that
/// drop 5 % of messages, node 0 down from 5 s to 12 s. Returns the JSONL,
/// the records and their convergence report.
fn trace_dump(seed: u64) -> (String, Vec<TraceRecord>, ConvergenceReport) {
    let scenario = Scenario::two_class(SimConfig::small_test(seed));
    let trace = two_class_trace(&scenario, 0.05, 1.1, 20);
    let (telemetry, buffer) = Telemetry::buffered();
    let mut federation =
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry);
    federation.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(0.05)));
    federation.kill_node_at(NodeId(0), SimTime::from_millis(5_000));
    federation.recover_node_at(NodeId(0), SimTime::from_millis(12_000));
    federation.run(&trace);
    let records = buffer.records();
    let period_us = scenario.config.qant.period.as_micros();
    let report = ConvergenceReport::from_records(&records, period_us, 0.02);
    (buffer.to_jsonl(), records, report)
}

#[test]
fn trace_dump_is_byte_deterministic() {
    let (a, _, a_report) = trace_dump(2007);
    let (b, _, b_report) = trace_dump(2007);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed trace dumps must be byte-identical");
    // The convergence report is a pure function of the records, so it
    // agrees too.
    assert_eq!(a_report.to_json().dump(), b_report.to_json().dump());

    // A different seed must actually change the trace (the determinism
    // above is not vacuous).
    let (c, _, _) = trace_dump(2008);
    assert_ne!(a, c, "seed must steer the trace");
}

#[test]
fn trace_dump_lines_are_canonical_jsonl() {
    let (jsonl, records, _) = trace_dump(11);
    assert_eq!(read_trace(&jsonl), Ok(records));
}

#[test]
fn observation_does_not_perturb_the_simulation() {
    let scenario = Scenario::two_class(SimConfig::small_test(5));
    let trace = two_class_trace(&scenario, 0.05, 0.8, 10);
    let silent = Federation::new(&scenario, MechanismKind::QaNt, &trace).run(&trace);
    let (telemetry, _buffer) = Telemetry::buffered();
    let observed =
        Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry).run(&trace);
    assert_eq!(silent.metrics.completed, observed.metrics.completed);
    assert_eq!(silent.metrics.unserved, observed.metrics.unserved);
    assert_eq!(silent.metrics.messages, observed.metrics.messages);
    assert_eq!(
        silent.metrics.mean_response_ms(),
        observed.metrics.mean_response_ms()
    );
}

#[test]
fn cluster_trace_speaks_the_same_wire_schema() {
    use qa_cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};

    let spec = ClusterSpec::generate(4, 4, 6, 10, 5, 60);
    let mut cfg = ClusterConfig::ci_scale(ClusterMechanism::QaNt, 31);
    cfg.num_queries = 12;
    let (telemetry, buffer) = Telemetry::buffered();
    cfg.telemetry = telemetry;
    run_experiment(&spec, &cfg).expect("healthy spec");

    let records = buffer.records();
    assert!(!records.is_empty());
    for record in &records {
        let line = record.to_json().dump();
        let parsed = TraceRecord::parse_line(&line).expect("cluster line parses strictly");
        assert_eq!(parsed, *record);
    }
    // Market activity from node threads made it into the shared buffer.
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::SupplyComputed { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TelemetryEvent::QueryCompleted { .. })));
}
