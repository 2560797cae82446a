//! # qa-sim — discrete-event simulator of the 100-node federation
//!
//! Reproduces the simulation study of §5.1: a federation of 100
//! heterogeneous autonomous RDBMSs (Table 3) under sinusoid and zipf
//! workloads, comparing QA-NT against Greedy, Random, Round-robin, BNQRD
//! and two-random-probes (plus the Markov static allocator as the Table-2
//! extension).
//!
//! Structure:
//!
//! * [`config`] — [`SimConfig`]: a run's seed, size and QA-NT market
//!   (`paper_defaults()` is Table 3's 100 nodes),
//! * [`node`] — the per-node model: CPU/I-O/buffer hardware factors drawn
//!   from Table 3's ranges, the execution-time model, and a FIFO
//!   work-conserving queue,
//! * [`federation`] — the event loop: arrivals run the allocation
//!   protocol (with per-mechanism message accounting), executions occupy
//!   nodes, period boundaries drive QA-NT's price dynamics,
//! * [`metrics`] — per-run measurements: response times, per-period
//!   executed counts, message counts, unserved queries,
//! * [`scenario`] — canned setups: the two-class sinusoid world of
//!   Figures 4/5 and the Table-3 zipf world of Figure 6,
//! * [`experiments`] — the workloads other code shares: the two-class
//!   sinusoid trace, the scaled worlds, and the one-run sweep cell,
//! * [`broker`] and [`sharded`] — the two-tier market and the sharded
//!   engine that runs it.
//!
//! The crate defines no figure: each table and figure of the evaluation is
//! one row of `qa-bench`, which states its parameters in one place.

pub mod broker;
pub mod config;
pub mod experiments;
pub mod federation;
pub mod metrics;
pub mod node;
mod offer_index;
pub mod scenario;
pub mod sharded;
mod wait_list;

pub use broker::BrokerTier;
pub use config::{BrokerConfig, SimConfig};
pub use federation::{Federation, RunOutcome};
pub use metrics::RunMetrics;
pub use scenario::Scenario;
pub use sharded::{ShardPlan, ShardRunOptions, ShardSpec, ShardedOutcome};

#[cfg(test)]
mod tests {
    /// The engine states no figure: a figure's result type, sweep and run
    /// shape live in its `qa-bench` row.
    #[test]
    fn the_engine_defines_no_figure() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let figure = [
            "pub fn fig",
            "pub struct Fig",
            "ScalePoint",
            "ScaleCell",
            "TraceDump",
        ];
        for entry in std::fs::read_dir(&src).expect("src/") {
            let path = entry.expect("a directory entry").path();
            let source = std::fs::read_to_string(&path).expect("a source file");
            let code = source.split("#[cfg(test)]").next().unwrap_or(&source);
            for (n, line) in code.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                let found = figure.iter().find(|needle| code.contains(*needle));
                assert_eq!(found, None, "{}:{}: {line}", path.display(), n + 1);
            }
        }
    }
}
