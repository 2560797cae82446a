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
//! * [`config`] — [`SimConfig`] with `paper_defaults()` encoding Table 3,
//! * [`node`] — the per-node model: CPU/I-O/buffer hardware factors, the
//!   execution-time model, and a FIFO work-conserving queue,
//! * [`federation`] — the event loop: arrivals run the allocation
//!   protocol (with per-mechanism message accounting), executions occupy
//!   nodes, period boundaries drive QA-NT's price dynamics,
//! * [`metrics`] — per-run measurements: response times, per-period
//!   executed counts, message counts, unserved queries,
//! * [`scenario`] — canned setups: the two-class sinusoid world of
//!   Figures 4/5 and the Table-3 zipf world of Figure 6,
//! * [`experiments`] — one function per figure, returning serializable
//!   series for the bench harness,
//! * [`tracedump`] — seeded full-telemetry replay producing a
//!   byte-deterministic JSONL market trace plus convergence diagnostics.

pub mod broker;
pub mod config;
pub mod experiments;
pub mod federation;
pub mod metrics;
pub mod node;
mod offer_index;
pub mod scenario;
pub mod sharded;
pub mod tracedump;

pub use broker::BrokerTier;
pub use config::{BrokerConfig, SimConfig};
pub use federation::{Federation, RunOutcome};
pub use metrics::RunMetrics;
pub use scenario::{Scenario, TwoClassParams};
pub use sharded::{ShardPlan, ShardRunOptions, ShardSpec, ShardedOutcome};
pub use tracedump::{run_trace_dump, TraceDump, TraceDumpSpec};
