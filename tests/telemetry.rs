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

use qa_sim::{run_trace_dump, TraceDumpSpec};
use qa_simnet::json::ToJson;
use qa_simnet::telemetry::{read_trace, TelemetryEvent, TraceRecord};

#[test]
fn trace_dump_is_byte_deterministic() {
    let spec = TraceDumpSpec::ci(2007);
    let a = run_trace_dump(&spec);
    let b = run_trace_dump(&spec);
    assert!(!a.jsonl.is_empty());
    assert_eq!(
        a.jsonl, b.jsonl,
        "same-seed trace dumps must be byte-identical"
    );
    // The convergence report is a pure function of the records, so it
    // agrees too.
    assert_eq!(a.report.to_json().dump(), b.report.to_json().dump());

    // A different seed must actually change the trace (the determinism
    // above is not vacuous).
    let c = run_trace_dump(&TraceDumpSpec::ci(2008));
    assert_ne!(a.jsonl, c.jsonl, "seed must steer the trace");
}

#[test]
fn trace_dump_lines_are_canonical_jsonl() {
    let dump = run_trace_dump(&TraceDumpSpec::ci(11));
    assert_eq!(read_trace(&dump.jsonl), Ok(dump.records));
}

#[test]
fn observation_does_not_perturb_the_simulation() {
    use qa_core::MechanismKind;
    use qa_sim::federation::Federation;
    use qa_sim::scenario::{Scenario, TwoClassParams};
    use qa_sim::SimConfig;
    use qa_simnet::telemetry::Telemetry;

    let scenario = Scenario::two_class(SimConfig::small_test(5), TwoClassParams::default());
    let trace = qa_sim::experiments::two_class_trace(&scenario, 0.05, 0.8, 10);
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
    use qa_simnet::telemetry::Telemetry;

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
