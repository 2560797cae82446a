//! Quickstart: run a small federation under every allocation mechanism and
//! print the comparison the paper's Figure 4 makes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use query_markets::prelude::*;

fn main() {
    // A 20-node federation with the paper's two-class workload: Q1
    // (~1000 ms) evaluable everywhere, Q2 (~500 ms) on half the nodes.
    let mut config = SimConfig::small_test(42);
    config.num_nodes = 20;
    let scenario = Scenario::two_class(config);

    // A 0.05 Hz sinusoid at 90 % of system capacity for 30 s of virtual
    // time — the regime where allocation quality matters most.
    let trace = two_class_trace(&scenario, 0.05, 0.9, 30);
    println!(
        "federation: {} nodes, workload: {} queries over {:.0}s\n",
        scenario.config.num_nodes,
        trace.len(),
        trace.horizon().as_secs_f64()
    );

    println!(
        "{:>12}  {:>10}  {:>10}  {:>9}  {:>10}",
        "mechanism", "mean (ms)", "completed", "unserved", "msgs/query"
    );
    let mut qant_mean = None;
    for mechanism in MechanismKind::DYNAMIC {
        let outcome = Federation::new(&scenario, mechanism, &trace).run(&trace);
        let mean = outcome.metrics.mean_response_ms().unwrap_or(f64::NAN);
        if mechanism == MechanismKind::QaNt {
            qant_mean = Some(mean);
        }
        println!(
            "{:>12}  {:>10.0}  {:>10}  {:>9}  {:>10.1}",
            mechanism.to_string(),
            mean,
            outcome.metrics.completed,
            outcome.metrics.unserved,
            outcome.metrics.messages as f64 / outcome.metrics.completed.max(1) as f64,
        );
    }

    if let Some(q) = qant_mean {
        println!(
            "\nQA-NT mean response: {q:.0} ms — every node decided for itself what to \
             offer,\nwithout disclosing load, capabilities or prices to anyone."
        );
    }
}
