//! # query-markets — autonomic query allocation by microeconomics
//!
//! A full reproduction of *Autonomic Query Allocation based on
//! Microeconomics Principles* (Pentaris & Ioannidis, ICDE 2007): the QA-NT
//! query-market allocator, every baseline the paper compares against, the
//! 100-node federation simulator of §5.1, and a threaded five-node
//! deployment over a from-scratch relational engine reproducing §5.2.
//!
//! ## The idea
//!
//! In a federation of autonomous DBMSs, load balancing equalizes node load
//! but does not maximize throughput. QA-NT instead treats queries as
//! commodities in a *competitive market*: each server keeps **private**
//! per-class prices, solves a profit-maximisation problem each period to
//! decide what it will offer to evaluate, and adjusts prices from trading
//! failures alone (rejection → price up; unsold supply → price down). By
//! the First Theorem of Welfare Economics the market steers the federation
//! toward Pareto-optimal allocations — without any node disclosing load,
//! capabilities or prices.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`economics`] | price/quantity vectors, supply sets, eq.-4 solvers, Pareto optimality, tâtonnement & non-tâtonnement dynamics, welfare-theorem checks |
//! | [`simnet`] | discrete-event kernel: virtual clock, event queue, RNG, distributions, link model, statistics |
//! | [`workload`] | query classes, synthetic datasets, sinusoid / zipf / uniform arrival processes, traces |
//! | [`core`] | QA-NT itself plus Greedy, Random, Round-robin, BNQRD, two-probes and Markov baselines; plan-history estimator |
//! | [`sim`] | the §5.1 federation simulator and the workloads its figures share |
//! | [`minidb`] | a real SQL engine: parser, optimizer, EXPLAIN, executors |
//! | [`cluster`] | the §5.2 threaded deployment over live engines |
//!
//! ## Quickstart
//!
//! Run a small federation under QA-NT and Greedy and compare:
//!
//! ```
//! use query_markets::prelude::*;
//!
//! let config = SimConfig::small_test(7);
//! let scenario = Scenario::two_class(config);
//! let trace = two_class_trace(&scenario, 0.05, 0.8, 10);
//! let qant = Federation::new(&scenario, MechanismKind::QaNt, &trace).run(&trace);
//! let greedy = Federation::new(&scenario, MechanismKind::Greedy, &trace).run(&trace);
//! assert!(qant.metrics.completed > 0 && greedy.metrics.completed > 0);
//! ```
//!
//! See `examples/` for realistic scenarios and `qa_bench::FIGURES` (run by
//! the `qa_fig` bin) for every table and figure.

pub use qa_cluster as cluster;
pub use qa_core as core;
pub use qa_economics as economics;
pub use qa_minidb as minidb;
pub use qa_net as net;
pub use qa_sim as sim;
pub use qa_simnet as simnet;
pub use qa_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use qa_core::{MechanismKind, QantConfig, QantNode};
    pub use qa_economics::{PriceVector, QuantityVector};
    pub use qa_minidb::Database;
    pub use qa_sim::config::SimConfig;
    pub use qa_sim::experiments::two_class_trace;
    pub use qa_sim::federation::{Federation, RunOutcome};
    pub use qa_sim::scenario::Scenario;
    pub use qa_simnet::{DetRng, FaultPlan, LinkFaults, OutageWindow, SimDuration, SimTime};
    pub use qa_workload::{ClassId, NodeId, Trace};
}
