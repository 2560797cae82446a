//! Overload surge: the scenario from the paper's introduction — "there are
//! always cases where load temporarily exceeds … even total system
//! capacity … due to multiple node failures or singularities of the
//! business logic".
//!
//! We run a flash crowd at 2.5× capacity, kill two nodes mid-surge, and
//! watch how QA-NT's admission control keeps per-period throughput pinned
//! at capacity while Greedy's node queues balloon.
//!
//! ```sh
//! cargo run --example overload_surge
//! ```

use query_markets::prelude::*;
use query_markets::sim::experiments::two_class_trace;

fn main() {
    let mut config = SimConfig::small_test(7);
    config.num_nodes = 20;
    let scenario = Scenario::two_class(config);

    // 2.5× overload for 30 s (virtual).
    let trace = two_class_trace(&scenario, 0.05, 2.5, 30);
    println!(
        "flash crowd: {} queries in 30 s against a federation sized for ~{:.0} q/s\n",
        trace.len(),
        scenario.capacity_qps(&[2.0 / 3.0, 1.0 / 3.0])
    );

    for mechanism in [MechanismKind::QaNt, MechanismKind::Greedy] {
        let mut federation = Federation::new(&scenario, mechanism, &trace);
        // Two nodes die 10 s into the surge.
        federation.kill_node_at(NodeId(3), SimTime::from_secs(10));
        federation.kill_node_at(NodeId(11), SimTime::from_secs(10));
        let outcome = federation.run(&trace);
        let m = &outcome.metrics;
        println!("== {mechanism}");
        println!(
            "   completed {} / {}   mean response {:.0} ms   retries {}   orphaned-by-failure counted unserved: {}",
            m.completed,
            trace.len(),
            m.mean_response_ms().unwrap_or(f64::NAN),
            m.retries,
            m.unserved,
        );
        // Throughput trace: queries finished per half-second around the
        // failure window.
        let series = m.executed_per_period();
        let window: Vec<u64> = series.iter().copied().skip(15).take(14).collect();
        println!("   periods 15..29 (failure at period 20): {window:?}\n");
    }

    println!(
        "QA-NT's deferred queries re-enter the market next period and find the surviving\n\
         nodes; the overload ends as soon as capacity allows (the paper's Fig. 1 point:\n\
         optimizing throughput also shortens the overload itself)."
    );
}
