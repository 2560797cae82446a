//! Cross-crate market properties: the economics substrate and the QA-NT
//! node agree on the paper's §3.3 narrative.

use query_markets::core::{QantConfig, QantNode};
use query_markets::economics::{
    check_ftwe, is_equilibrium, FtweCheck, LinearCapacitySet, QuantityVector, Tatonnement,
};
use query_markets::simnet::DetRng;
use query_markets::workload::ClassId;

/// The paper's two sellers.
fn sellers() -> Vec<LinearCapacitySet> {
    vec![
        LinearCapacitySet::new(vec![Some(400.0), Some(100.0)], 500.0),
        LinearCapacitySet::new(vec![Some(450.0), Some(500.0)], 500.0),
    ]
}

fn qv(v: &[u64]) -> QuantityVector {
    QuantityVector::from_counts(v.to_vec())
}

#[test]
fn ftwe_holds_on_the_paper_economy() {
    let demands = vec![qv(&[0, 5]), qv(&[1, 0])];
    match check_ftwe(&sellers(), &demands, &Tatonnement::default()) {
        FtweCheck::Holds { solution } => {
            assert!(is_equilibrium(&demands, &solution.supplies));
        }
        other => panic!("FTWE should hold: {other:?}"),
    }
}

#[test]
fn qant_walkthrough_of_section_3_3() {
    // "assume that equilibrium prices are initially p⃗* = (1, 1). By
    // solving (4), node N1 will supply only q2 queries."
    let mut n1 = QantNode::new(2, QantConfig::default());
    n1.begin_period(&[Some(400.0), Some(100.0)], None);
    assert_eq!(n1.supply().as_slice(), &[0, 5]);

    // "Assume now that query distribution is modified and demand for
    // queries q1 cannot be satisfied. Then, prices of q1 queries will
    // start increasing until node N1 starts to also supply q1."
    let mut periods = 0;
    loop {
        let _ = n1.on_request(ClassId(0)); // unmet q1 demand each period
        n1.end_period();
        n1.begin_period(&[Some(400.0), Some(100.0)], None);
        periods += 1;
        if n1.supply().get(0) > 0 {
            break;
        }
        assert!(periods < 200, "price never rose enough: {}", n1.prices());
    }
    assert!(n1.supply().get(0) >= 1);
}

#[test]
fn jittered_nodes_specialize_differently() {
    // Identical hardware, identical event streams — but jittered initial
    // prices make the population split instead of moving in lockstep.
    let mut rng = DetRng::seed_from_u64(99);
    let nodes: Vec<QantNode> = (0..32)
        .map(|_| {
            let mut n = QantNode::with_jitter(2, QantConfig::default(), &mut rng);
            n.begin_period(&[Some(400.0), Some(100.0)], None);
            n
        })
        .collect();
    let q1_suppliers = nodes.iter().filter(|n| n.supply().get(0) > 0).count();
    // With σ = 1.5 the q1-vs-q2 density flip (at p1 = 4·p2) is within the
    // jitter band for a meaningful minority of nodes.
    assert!(q1_suppliers > 0, "some node should start in q1 mode");
    assert!(
        q1_suppliers < nodes.len(),
        "and some node should start in q2 mode"
    );
}

#[test]
fn prices_stay_private_to_the_node() {
    // There is no API through which a remote party could read another
    // node's prices out of the allocation protocol: messages carry only
    // ids and durations. This is a compile-time guarantee; here we merely
    // document the runtime surface — the offer derives from supply, never
    // exposes the price.
    let mut n = QantNode::new(1, QantConfig::default());
    n.begin_period(&[Some(100.0)], None);
    let offered = n.on_request(ClassId(0));
    assert!(offered);
    // The only observable effects are boolean offers and supply counts.
    assert!(n.supply().get(0) > 0);
}

#[test]
fn tatonnement_and_qant_agree_on_scarcity_pricing() {
    // Both the centralized umpire and the decentralized node raise the
    // price of the class in excess demand.
    let t = Tatonnement {
        max_iterations: 200,
        ..Tatonnement::default()
    };
    let run = t.run(
        &qv(&[2, 2]),
        &sellers(),
        query_markets::economics::PriceVector::uniform(2, 1.0),
    );
    assert!(
        run.prices.get(0) > 1.0,
        "umpire bids up scarce q1: {}",
        run.prices
    );

    let mut n = QantNode::new(2, QantConfig::default());
    n.begin_period(&[Some(400.0), Some(100.0)], None);
    let before = n.prices().get(0);
    let _ = n.on_request(ClassId(0)); // rejected: no q1 supply at (1,1)
    assert!(n.prices().get(0) > before, "node bids up scarce q1");
}
