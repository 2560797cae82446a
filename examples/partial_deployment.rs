//! Partial deployment: §4 claims QA-NT "can even work without problems in
//! cases where only a subset of the nodes is using QA-NT, in which case it
//! will still optimize global system throughput by modifying the behavior
//! of only those nodes."
//!
//! We run the near-capacity sinusoid with 0 %, 50 % and 100 % of nodes
//! participating in the market (non-participants always offer) and watch
//! mean response improve monotonically-ish with adoption.
//!
//! ```sh
//! cargo run --example partial_deployment
//! ```

use query_markets::prelude::*;
use query_markets::sim::experiments::two_class_trace;

fn main() {
    let mut config = SimConfig::small_test(21);
    config.num_nodes = 30;
    let scenario = Scenario::two_class(config);
    let trace = two_class_trace(&scenario, 0.05, 2.5, 30);
    println!(
        "{} queries at 250% of capacity, 30 nodes, varying QA-NT adoption\n",
        trace.len()
    );

    println!(
        "{:>10}  {:>12}  {:>10}  {:>8}",
        "adoption", "mean (ms)", "completed", "retries"
    );
    for adoption_pct in [0u32, 50, 100] {
        let mut federation = Federation::new(&scenario, MechanismKind::QaNt, &trace);
        federation.restrict_market_to(|n| n.0 * 100 < adoption_pct * 30);
        let outcome = federation.run(&trace);
        let m = &outcome.metrics;
        println!(
            "{:>9}%  {:>12.0}  {:>10}  {:>8}",
            adoption_pct,
            m.mean_response_ms().unwrap_or(f64::NAN),
            m.completed,
            m.retries,
        );
    }

    println!(
        "\n0% adoption degenerates to always-offer best-completion assignment; 100%\n\
         engages admission control fleet-wide. Partial adoption exhibits free-riding:\n\
         market nodes shed load onto the always-offer rest, which then congests —\n\
         participants protect themselves either way, which is the §4 incentive to adopt."
    );
}
