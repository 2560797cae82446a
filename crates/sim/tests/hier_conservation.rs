//! Property tests for the two-tier market's conservation law, driven by
//! seeded [`DetRng`] loops (the hermetic-build substitute for proptest):
//! whatever the shard layout, broker mechanism, thread budget or fault
//! schedule, every arrival of the trace is completed or unserved exactly
//! once — queries neither vanish into nor multiply out of the tier
//! boundary (routing, parent clearing, escalation, crash re-entry).

use qa_sim::config::BrokerConfig;
use qa_sim::experiments::{scale_trace, scale_world};
use qa_sim::sharded::{ShardPlan, ShardRunOptions};
use qa_simnet::{DetRng, SimTime};
use qa_workload::NodeId;

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
        assert_eq!(
            out.signal_history.len(),
            out.periods,
            "case {case_no}: one convergence sample per period"
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
