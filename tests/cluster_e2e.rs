//! End-to-end checks of the threaded deployment (§5.2 at CI scale).
//!
//! Every run sits behind the shared [`with_watchdog`] helper
//! (`QA_TEST_TIMEOUT_SECS` overrides the bound): a wedged fleet must
//! fail the suite loudly, not hang it.

use query_markets::cluster::{run_experiment, ClusterConfig, ClusterMechanism, ClusterSpec};
use query_markets::simnet::with_watchdog;
use query_markets::workload::ClassId;

fn spec() -> ClusterSpec {
    ClusterSpec::generate(31, 5, 8, 12, 6, 60)
}

#[test]
fn greedy_and_qant_both_finish_the_workload() {
    with_watchdog("both mechanisms finish workload", 180, || {
        let s = spec();
        for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
            let mut cfg = ClusterConfig::ci_scale(mech, 4);
            cfg.num_queries = 25;
            let r = run_experiment(&s, &cfg).expect("spec has evaluable classes");
            assert_eq!(r.outcomes.len(), 25, "{mech}");
            assert_eq!(
                r.failed,
                0,
                "{mech}: {:?}",
                r.outcomes.iter().find(|o| o.error.is_some())
            );
            assert!(r.mean_total_ms >= r.mean_assign_ms, "{mech}");
            assert!(r.mean_assign_ms > 0.0, "{mech}");
        }
    });
}

#[test]
fn queries_only_land_on_nodes_with_the_data() {
    with_watchdog("placement respects data copies", 120, || {
        let s = spec();
        for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
            let mut cfg = ClusterConfig::ci_scale(mech, 5);
            cfg.num_queries = 20;
            let r = run_experiment(&s, &cfg).expect("spec has evaluable classes");
            for o in &r.outcomes {
                if let Some(n) = o.node {
                    assert!(
                        s.capable_nodes(ClassId(o.class)).contains(&n),
                        "{mech}: query {} of class {} landed on incapable node {n}",
                        o.query,
                        o.class
                    );
                }
            }
        }
    });
}

#[test]
fn results_are_correct_wherever_executed() {
    // Replicas are identical, so the same query must return the same row
    // count on every capable node — verified directly against fresh
    // engines outside the cluster.
    let s = spec();
    let class = &s.classes[0];
    let capable = s.capable_nodes(class.id);
    assert!(!capable.is_empty());
    let sql = class.instantiate(42);
    let mut counts = Vec::new();
    for &node in &capable {
        let mut db = query_markets::minidb::Database::new();
        for stmt in s.node_statements(node) {
            db.execute(&stmt).unwrap();
        }
        for t in &s.tables {
            if t.copies.contains(&node) {
                db.load_rows(&t.name, s.table_rows(t, 4)).unwrap();
            }
        }
        counts.push(db.query(&sql).unwrap().rows.len());
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn slow_node_attracts_less_work_under_both_mechanisms() {
    with_watchdog("slow node attracts less work", 180, || {
        let s = spec();
        // Node with the largest slowdown.
        let slowest = (0..s.num_nodes)
            .max_by(|&a, &b| s.slowdown[a].partial_cmp(&s.slowdown[b]).unwrap())
            .unwrap();
        for mech in [ClusterMechanism::Greedy, ClusterMechanism::QaNt] {
            let mut cfg = ClusterConfig::ci_scale(mech, 6);
            cfg.num_queries = 40;
            let r = run_experiment(&s, &cfg).expect("spec has evaluable classes");
            let mut per_node = vec![0usize; s.num_nodes];
            for o in r.outcomes.iter().filter(|o| o.error.is_none()) {
                if let Some(n) = o.node {
                    per_node[n] += 1;
                }
            }
            let total: usize = per_node.iter().sum();
            assert!(
                per_node[slowest] * 3 <= total,
                "{mech}: slowest node {slowest} did {}/{} queries: {per_node:?}",
                per_node[slowest],
                total
            );
        }
    });
}
