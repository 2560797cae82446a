//! Fault-injection end-to-end: lossy links and mid-run crashes against
//! both the §5.1 simulator and the §5.2 threaded cluster.
//!
//! The invariants under test:
//! * **liveness** — faulty runs terminate (watchdog-bounded), they never
//!   deadlock waiting for messages that will not come;
//! * **conservation** — every arrival is eventually completed or counted
//!   unserved, crashes included;
//! * **service** — QA-NT rides out 10% message loss plus a crash with at
//!   least 95% completion;
//! * **reproducibility** — same seed + same [`FaultPlan`] gives the same
//!   run, a different fault seed gives a different loss realization.

use query_markets::cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};
use query_markets::prelude::*;
use query_markets::simnet::with_watchdog;
use std::time::Duration;

#[test]
fn sim_qant_survives_lossy_slow_link_and_mid_run_crash() {
    let out = with_watchdog("sim qant under loss and crash", 120, || {
        let config = SimConfig::small_test(2024);
        let scenario = Scenario::two_class(config);
        let trace = two_class_trace(&scenario, 0.05, 0.5, 20);
        let n = trace.len();
        let mut f = Federation::new(&scenario, MechanismKind::QaNt, &trace);
        // 10% loss fleet-wide, a 40%-lossy "slow wireless" link on node 7,
        // and node 3 dies at t = 8 s with whatever it owned.
        f.set_fault_plan(
            FaultPlan::uniform(LinkFaults::lossy(0.10)).with_link(7, LinkFaults::lossy(0.40)),
        );
        f.kill_node_at(NodeId(3), SimTime::from_secs(8));
        (f.run(&trace), n)
    });
    let (out, n) = out;
    assert_eq!(
        out.metrics.completed + out.metrics.unserved,
        n as u64,
        "conservation: arrivals = completed + unserved"
    );
    assert!(
        out.metrics.completed as f64 >= 0.95 * n as f64,
        "QA-NT must complete ≥95% under loss + crash: {}/{n}",
        out.metrics.completed
    );
    assert!(out.metrics.lost_messages > 0, "faults must actually fire");
    assert!(
        out.metrics.retries > 0,
        "losses surface as §2.2 resubmissions"
    );
}

#[test]
fn sim_fault_runs_reproducible_and_fault_seed_sensitive() {
    let fingerprint = |fault_seed: Option<u64>| {
        let config = SimConfig::small_test(5);
        let scenario = Scenario::two_class(config);
        let trace = two_class_trace(&scenario, 0.05, 0.5, 12);
        let mut f = Federation::new(&scenario, MechanismKind::QaNt, &trace);
        f.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(0.2)));
        if let Some(seed) = fault_seed {
            f.set_fault_seed(seed);
        }
        f.kill_node_at(NodeId(1), SimTime::from_secs(4));
        let out = f.run(&trace);
        (
            out.metrics.completed,
            out.metrics.messages,
            out.metrics.lost_messages,
            out.metrics.retries,
            out.metrics.mean_response_ms(),
        )
    };
    let a = fingerprint(None);
    assert_eq!(
        a,
        fingerprint(None),
        "same seed + plan ⇒ identical RunOutcome"
    );
    assert!(a.2 > 0, "losses occurred");
    assert_ne!(
        a,
        fingerprint(Some(0xBEEF)),
        "different fault seed ⇒ different loss realization"
    );
}

#[test]
fn cluster_terminates_cleanly_under_loss_and_crash() {
    // Five nodes, 10% negotiation loss everywhere, one node crashes just
    // after the workload starts. The driver must drop the dead node and
    // finish; queries of classes that only the victim could evaluate are
    // excluded from the service bar (they are correctly *unservable*).
    let spec = ClusterSpec::generate(31, 5, 8, 12, 6, 60);
    // The victim is the node whose loss strands the fewest classes.
    let stranded_by = |victim: usize| -> Vec<u32> {
        spec.classes
            .iter()
            .filter(|c| {
                let cap = spec.capable_nodes(c.id);
                !cap.is_empty() && cap.iter().all(|&m| m == victim)
            })
            .map(|c| c.id.0)
            .collect()
    };
    let victim = (0..spec.num_nodes)
        .min_by_key(|&n| stranded_by(n).len())
        .unwrap_or(0);
    let stranded = stranded_by(victim);

    for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
        let spec = spec.clone();
        let stranded = stranded.clone();
        let r = with_watchdog("cluster under loss and crash", 180, move || {
            let mut cfg = ClusterConfig::ci_scale(mech, 8);
            cfg.num_queries = 25;
            cfg.reply_timeout = Duration::from_secs(5);
            cfg.faults = FaultPlan::uniform(LinkFaults::lossy(0.10));
            cfg.crashes = vec![(victim, Duration::from_millis(30))];
            run_experiment(&spec, &cfg).expect("spec has evaluable classes")
        });
        assert_eq!(r.outcomes.len(), 25, "{mech}: every query accounted for");
        let eligible: Vec<_> = r
            .outcomes
            .iter()
            .filter(|o| !stranded.contains(&o.class))
            .collect();
        let ok = eligible.iter().filter(|o| o.error.is_none()).count();
        assert!(
            ok as f64 >= 0.95 * eligible.len() as f64,
            "{mech}: ≥95% of servable queries must complete: {ok}/{}",
            eligible.len()
        );
        // Queries issued well after the crash never land on the victim
        // (index 18 is issued ≥ 47.5 ms in; the crash is marked by ~35 ms).
        for o in r.outcomes.iter().filter(|o| o.query >= 18) {
            if let Some(n) = o.node {
                assert_ne!(n, victim, "{mech}: query {} on crashed node", o.query);
            }
        }
    }
}
