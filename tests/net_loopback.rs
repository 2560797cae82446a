//! Multi-process federation over TCP loopback, compared against the
//! in-process channel transport on the same seed.
//!
//! Five `qad` servers run as real child processes on ephemeral
//! `127.0.0.1` ports; the driver connects a [`TcpTransport`] and replays
//! the same seeded workload it replays over a [`ChannelTransport`]
//! in-process fleet. The transports must be observationally
//! interchangeable: same query/class sequence, zero failures, equal
//! completed totals, and per-node price vectors of the configured shape.
//!
//! Wall-clock-dependent details (exactly which node wins a given
//! negotiation) are *not* asserted — scheduling noise across processes
//! legitimately perturbs per-node assignment counts.

use query_markets::cluster::ctl::{collect_prices, Federation};
use query_markets::cluster::{run_experiment, run_workload, FedConfig, Transport};
use query_markets::simnet::telemetry::Telemetry;
use query_markets::simnet::with_watchdog;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A scratch directory for this test run, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("qa-net-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The federation under test: `qa-ctl init`'s template, shrunk a little
/// for suite latency and with loss disabled so parity is exact.
fn test_fed() -> FedConfig {
    let mut fed = FedConfig::example();
    fed.num_queries = 30;
    fed.drop_prob = 0.0;
    fed
}

fn kinds_in(trace: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(trace).expect("read trace");
    text.lines()
        .filter_map(|l| {
            let (_, rest) = l.split_once("\"type\":\"")?;
            let (kind, _) = rest.split_once('"')?;
            Some(kind.to_string())
        })
        .collect()
}

#[test]
fn five_process_federation_matches_in_process_allocation_totals() {
    let scratch = Scratch::new("loopback");
    let dir = scratch.0.clone();
    let fed = test_fed();

    // In-process reference: the same FedConfig drives a channel-transport
    // fleet through the identical workload.
    let reference = run_experiment(&fed.spec(), &fed.cluster_config(Telemetry::disabled()))
        .expect("in-process run");

    let (tcp, prices, clean) = with_watchdog("five-process TCP federation", 180, move || {
        let config_path = dir.join("fed.json");
        std::fs::write(&config_path, fed.dump()).expect("write federation config");
        let trace_dir = dir.join("traces");
        std::fs::create_dir_all(&trace_dir).expect("create trace dir");

        let federation = Federation::spawn(
            &fed,
            Path::new(env!("CARGO_BIN_EXE_qad")),
            config_path.to_str().expect("utf-8 path"),
            Some(&trace_dir),
        )
        .expect("spawn 5-node federation");
        assert_eq!(federation.addrs.len(), fed.num_nodes);

        let driver_trace = dir.join("driver.jsonl");
        let telemetry =
            Telemetry::to_file(driver_trace.to_str().expect("utf-8 path")).expect("trace file");
        let transport: Arc<dyn Transport> =
            Arc::new(federation.connect(&telemetry).expect("connect to fleet"));
        let result = run_workload(
            &fed.spec(),
            &fed.cluster_config(telemetry),
            Arc::clone(&transport),
        )
        .expect("TCP run");
        let prices = collect_prices(transport.as_ref(), Duration::from_secs(10));
        transport.shutdown();
        let clean = federation.wait();

        // Driver telemetry captured the transport events for every peer.
        let kinds = kinds_in(&driver_trace);
        for required in ["peer_connected", "handshake_completed"] {
            assert_eq!(
                kinds.iter().filter(|k| *k == required).count(),
                fed.num_nodes,
                "driver trace must record {required} once per peer"
            );
        }
        // Each server wrote its own trace and saw the driver connect.
        for node in 0..fed.num_nodes {
            let kinds = kinds_in(&trace_dir.join(format!("node{node}.jsonl")));
            assert!(
                kinds.iter().any(|k| k == "handshake_completed"),
                "node {node} trace must record the driver handshake"
            );
        }
        (result, prices, clean)
    });

    assert!(clean, "every qad child must exit cleanly after Shutdown");

    // Allocation parity with the in-process transport on the same seed.
    assert_eq!(reference.failed, 0, "in-process run must not fail queries");
    assert_eq!(tcp.failed, 0, "TCP run must not fail queries");
    assert_eq!(
        tcp.outcomes.len(),
        reference.outcomes.len(),
        "both transports issue the identical workload"
    );
    let classes = |r: &query_markets::cluster::ExperimentResult| -> Vec<u32> {
        r.outcomes.iter().map(|o| o.class).collect()
    };
    assert_eq!(
        classes(&tcp),
        classes(&reference),
        "the seeded query/class sequence is transport-independent"
    );
    let completed = |r: &query_markets::cluster::ExperimentResult| -> usize {
        r.outcomes.iter().filter(|o| o.node.is_some()).count()
    };
    assert_eq!(
        completed(&tcp),
        completed(&reference),
        "allocation totals must match across transports"
    );
    assert!((tcp.completion_rate - reference.completion_rate).abs() < f64::EPSILON);

    // Every node answered the post-run price dump with a full vector.
    assert_eq!(prices.len(), 5);
    for (node, reply) in prices.iter().enumerate() {
        let reply = reply.as_ref().unwrap_or_else(|| {
            panic!("node {node} did not answer the price dump");
        });
        assert_eq!(reply.node as usize, node);
        assert_eq!(
            reply.prices.len(),
            test_fed().num_classes,
            "node {node} must price every class"
        );
    }
}

#[test]
fn federation_survives_driver_disconnect_without_shutdown() {
    // A driver that drops its connections without sending Shutdown must
    // not take the servers down: qa-ctl can reconnect for inspection.
    let scratch = Scratch::new("reconnect");
    let dir = scratch.0.clone();
    let mut fed = test_fed();
    fed.num_nodes = 2;

    with_watchdog("driver reconnect over TCP", 120, move || {
        let config_path = dir.join("fed.json");
        std::fs::write(&config_path, fed.dump()).expect("write federation config");
        let federation = Federation::spawn(
            &fed,
            Path::new(env!("CARGO_BIN_EXE_qad")),
            config_path.to_str().expect("utf-8 path"),
            None,
        )
        .expect("spawn 2-node federation");

        let telemetry = Telemetry::disabled();
        // First session: connect, then disconnect without Shutdown — the
        // same thing the servers see when a driver crashes.
        let first = federation.connect(&telemetry).expect("first connect");
        first.disconnect();
        drop(first);

        // Second session: the servers are still there and still answer.
        let second = federation.connect(&telemetry).expect("reconnect");
        let prices = collect_prices(&second, Duration::from_secs(10));
        assert!(
            prices.iter().all(|p| p.is_some()),
            "both nodes answer after a driver reconnect"
        );
        second.shutdown();
        assert!(federation.wait(), "clean exit after the second session");
    });
}
