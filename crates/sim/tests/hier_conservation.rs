//! Property tests for the two-tier market's conservation law, driven by
//! seeded [`DetRng`] loops (the hermetic-build substitute for proptest):
//! whatever the shard layout, broker mechanism, thread budget or fault
//! schedule, every arrival of the trace is completed or unserved exactly
//! once — queries neither vanish into nor multiply out of the tier
//! boundary (routing, parent clearing, escalation, crash re-entry). A
//! flat and a sharded run under crashes are also pinned to the bit.

use qa_core::MechanismKind;
use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{scale_trace, scale_world, two_class_trace};
use qa_sim::federation::Federation;
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_simnet::telemetry::{Telemetry, TelemetryEvent};
use qa_simnet::{DetRng, FaultPlan, LinkFaults, SimDuration, SimTime};
use qa_workload::NodeId;
use std::collections::BTreeMap;

const CASES: usize = 24;

/// One random configuration: world size, shard count, parent mechanism,
/// horizon and (sometimes) a crash/recovery pair.
struct Case {
    nodes: usize,
    shards: usize,
    broker: Option<BrokerConfig>,
    secs: u64,
    kills: Vec<(NodeId, SimTime)>,
    recoveries: Vec<(NodeId, SimTime)>,
}

fn draw_case(rng: &mut DetRng) -> Case {
    let nodes = rng.int_in(12, 48) as usize;
    let shards = rng.int_in(1, 6) as usize;
    let broker = match rng.int_in(0, 2) {
        0 => None,
        1 => Some(BrokerConfig::qant()),
        _ => Some(BrokerConfig::walras()),
    };
    let secs = rng.int_in(6, 10);
    let mut kills = Vec::new();
    let mut recoveries = Vec::new();
    if rng.chance(0.5) {
        // One node dies mid-run; half the time it re-enters later, so the
        // parent sees the shard's supply collapse and (sometimes) come
        // back.
        let victim = NodeId(rng.int_in(0, nodes as u64 - 1) as u32);
        let down_at = rng.int_in(1, secs / 2);
        kills.push((victim, SimTime::from_secs(down_at)));
        if rng.chance(0.5) {
            let up_at = rng.int_in(down_at + 1, secs);
            recoveries.push((victim, SimTime::from_secs(up_at)));
        }
    }
    Case {
        nodes,
        shards,
        broker,
        secs,
        kills,
        recoveries,
    }
}

/// Completed + unserved == arrivals, for every engine configuration.
#[test]
fn two_tier_routing_conserves_queries() {
    let mut rng = DetRng::seed_from_u64(0x41E7_2007);
    for case_no in 0..CASES {
        let case = draw_case(&mut rng);
        let seed = rng.int_in(1, 10_000);
        let scenario = scale_world(case.nodes, seed);
        let trace = scale_trace(&scenario, case.secs);
        let plan = ShardPlan::build(&scenario, case.shards);
        let options = ShardRunOptions {
            budget: rng.int_in(1, 8) as usize,
            broker: case.broker,
            kills: case.kills.clone(),
            recoveries: case.recoveries.clone(),
            ..ShardRunOptions::default()
        };
        let out = plan.run_with_options(&trace, &options);
        let m = &out.outcome.metrics;
        assert_eq!(
            m.completed + m.unserved,
            trace.len() as u64,
            "case {case_no}: nodes={} shards={} broker={} kills={} recoveries={}",
            case.nodes,
            case.shards,
            case.broker.is_some(),
            case.kills.len(),
            case.recoveries.len(),
        );
        if case.broker.is_none() {
            let qant = ShardRunOptions {
                broker: Some(BrokerConfig::qant()),
                ..options.clone()
            };
            let explicit = plan.run_with_options(&trace, &qant);
            assert_eq!(
                format!(
                    "{:?}",
                    (&out.outcome, out.escalated_units, out.parent_rounds)
                ),
                format!(
                    "{:?}",
                    (
                        &explicit.outcome,
                        explicit.escalated_units,
                        explicit.parent_rounds
                    )
                ),
                "case {case_no}: no broker config must run the default QA-NT parent"
            );
        }
        let period = scenario.config.qant.period.as_micros();
        assert_eq!(
            out.periods() as u64,
            trace.horizon().as_micros().div_ceil(period).max(1),
            "case {case_no}: one boundary per period window of the trace"
        );
    }
}

/// A crash-and-re-entry schedule conserves queries under both parent
/// mechanisms on the *same* world and trace — the dead window escalates
/// or rejects, the recovery re-absorbs, nothing is double-counted.
#[test]
fn crash_reentry_conserves_under_both_mechanisms() {
    let scenario = scale_world(24, 77);
    let trace = scale_trace(&scenario, 10);
    let plan = ShardPlan::build(&scenario, 4);
    for broker in [Some(BrokerConfig::qant()), Some(BrokerConfig::walras())] {
        let options = ShardRunOptions {
            broker,
            kills: vec![
                (NodeId(5), SimTime::from_secs(2)),
                (NodeId(13), SimTime::from_secs(3)),
            ],
            recoveries: vec![(NodeId(5), SimTime::from_secs(6))],
            ..ShardRunOptions::default()
        };
        let out = plan.run_with_options(&trace, &options);
        let m = &out.outcome.metrics;
        assert_eq!(m.completed + m.unserved, trace.len() as u64);
        assert!(
            m.completed > 0,
            "federation must keep serving through the crash"
        );
    }
}

/// FNV-1a, 64-bit: the pins below are digests of what a run leaves.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A node and when something happens to it.
type Schedule = Vec<(NodeId, SimTime)>;

/// Kills and recoveries over `nodes` nodes: a third of them die once in
/// the first half, and every other victim comes back later. Queues are long
/// at the crest, so each crash orphans a batch of queries.
fn crash_schedule(nodes: usize, secs: u64) -> (Schedule, Schedule) {
    let mut rng = DetRng::seed_from_u64(0xC4A5);
    let (mut kills, mut recoveries) = (Vec::new(), Vec::new());
    for n in (0..nodes as u32).step_by(3) {
        let down = SimTime::from_millis(rng.int_in(500, secs * 500));
        kills.push((NodeId(n), down));
        if n % 2 == 0 {
            let up = down + SimDuration::from_millis(rng.int_in(300, 3_000));
            recoveries.push((NodeId(n), up));
        }
    }
    (kills, recoveries)
}

/// Orphan re-entry order, stale completions and retries on a lossy link,
/// pinned to the bit. The flat digest covers the outcome's `Debug` (every
/// float round-trip exact), the final ln-price of every price that moved
/// and who completed each query, in completion order. The 4-shard broker
/// run has no link faults to take and no per-query telemetry; its digest
/// covers the merged outcome and the brokers' last bids and the parent's
/// last clearing prices.
#[test]
fn crash_and_loss_runs_are_pinned() {
    let scenario = scale_world(36, 41);
    let trace = two_class_trace(&scenario, 0.05, 0.9, 12);
    let (kills, recoveries) = crash_schedule(36, 12);

    let (telemetry, buffer) = Telemetry::buffered();
    let mut f = Federation::with_telemetry(&scenario, MechanismKind::QaNt, &trace, telemetry);
    f.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(0.1)));
    for &(node, at) in &kills {
        f.kill_node_at(node, at);
    }
    for &(node, at) in &recoveries {
        f.recover_node_at(node, at);
    }
    let out = f.run(&trace);
    assert!(out.metrics.retries > 0 && out.metrics.lost_messages > 0);
    let mut prices = BTreeMap::new();
    let mut served = Vec::new();
    for record in buffer.records() {
        match record.event {
            TelemetryEvent::PriceAdjusted {
                node, class, new, ..
            } => {
                prices.insert((node, class), new.ln().to_bits());
            }
            TelemetryEvent::QueryCompleted { query, node, .. } => served.push((query, node)),
            _ => {}
        }
    }
    assert_eq!(served.len() as u64, out.metrics.completed);
    let flat = format!("{out:?} {prices:?} {served:?}");

    let plan = ShardPlan::build(&scenario, 4);
    let (telemetry, buffer) = Telemetry::buffered();
    let options = ShardRunOptions {
        budget: 1,
        broker: Some(BrokerConfig::qant()),
        kills,
        recoveries,
        telemetry,
    };
    let sharded = plan.run_with_options(&trace, &options);
    let mut bids = BTreeMap::new();
    let mut cleared = Vec::new();
    for record in buffer.records() {
        match record.event {
            TelemetryEvent::BrokerBid {
                broker,
                mean_ln_price,
                ..
            } => {
                bids.insert(
                    broker,
                    mean_ln_price
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<_>>(),
                );
            }
            TelemetryEvent::ParentCleared { ln_prices, .. } => {
                cleared = ln_prices.iter().map(|p| p.to_bits()).collect();
            }
            _ => {}
        }
    }
    let broker = format!("{:?} {bids:?} {cleared:?}", sharded.outcome);
    // Both digests were computed by the engine that keeps every price as
    // an integer log-price (the prices they cover carry its rounding), and
    // re-taken when `RunOutcome` lost its `total_busy` field: the rendered
    // outcomes are otherwise the same bytes.
    assert_eq!(
        (fnv1a(flat.as_bytes()), fnv1a(broker.as_bytes())),
        (0x0d1b_8efe_a42a_e3f5, 0x4b2f_e255_53da_f2af)
    );
}
