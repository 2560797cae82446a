//! # qa-cluster — the "real implementation" of QA-NT (§5.2)
//!
//! The paper deploys its pricing mechanism on five heterogeneous Windows
//! PCs running a commercial RDBMS: 20 tables (1 GB), 80 select-project
//! views with 2–4 copies each, a 300-query workload of
//! select-join-project-group star queries, uniform inter-arrival, and a
//! two-step cost estimator (`EXPLAIN PLAN` + per-plan execution history).
//!
//! This crate is the open equivalent: five OS threads, each owning a live
//! [`qa_minidb::Database`] instance, exchanging messages over
//! `std::sync::mpsc` channels with one driver loop on the caller's thread
//! that multiplexes every query of the run over a single inbox.
//! Heterogeneity comes from per-node slowdown factors (the
//! paper's 1.3–3.06 GHz spread, where the same query took 1 s on the
//! fastest and 14 s on the slowest machine) and one high-latency link (the
//! paper's 54 Mb wireless PC). Because nodes are single-threaded — like a
//! DBMS worker saturated by a query — a busy node answers `EXPLAIN`
//! requests late, reproducing the paper's observation that assignment took
//! seconds because "the slowest of the PCs took up to 3 seconds to evaluate
//! an EXPLAIN PLAN statement".
//!
//! Scale substitution: data sizes and timings are scaled down ~100× (tables
//! of hundreds of rows, queries of milliseconds) so the experiment runs in
//! CI; all comparisons are relative, which is what Figure 7 reports.
//!
//! * [`setup`] — deployment generator: tables, views, copies, query classes,
//! * [`protocol`] — both sides of the allocation protocol, sans-IO: one
//!   query's state machine (winner selection, retry budget, crash
//!   re-entry) and the one seller ([`protocol::NodeProtocol`]: §3.3's
//!   offer / refuse-and-raise / accept / period boundary over a private
//!   `QantNode`, plus backlog and the `qad.*` metrics),
//! * [`node`] — the node thread, the seller's threaded shell: minidb, the
//!   two-step estimator, the modelled link (optionally lossy) and the
//!   [`NodeMsg`] mailbox; a `qad` process runs the same thread,
//! * [`transport`] — `send(node, NodeMsg)` over mailboxes or TCP; the
//!   reply travels back as a [`node::Reply`] inside the request,
//! * [`episode`] — the driver's shell, once: it carries out what the
//!   query machines decide, files every reply (answered or lost) under
//!   its query and round, closes rounds, names the timers it needs, and
//!   reads no clock,
//! * [`driver`] — the experiment driver: the workload, and one loop that
//!   steps the episode from an inbox and a timer list (issue times,
//!   period ticks, the crash schedule, reply deadlines, back-offs),
//!   Figure-7 measurements,
//! * [`explore`] — the model checker: a schedule steps the *same* episode
//!   and the same sellers over the [`simtransport`] virtual network,
//! * [`error`] — the [`ClusterError`] taxonomy for environmental failures
//!   (the protocol paths never panic).

pub mod ctl;
pub mod driver;
pub mod episode;
pub mod error;
pub mod explore;
pub mod metrics_http;
pub mod node;
pub mod protocol;
pub mod qad;
pub mod setup;
pub mod simtransport;
pub mod transport;

pub use driver::{
    qant_config_for, run_experiment, run_workload, spawn_fleet, ClusterConfig, ClusterMechanism,
    ExperimentResult,
};
pub use error::ClusterError;
pub use explore::{
    explore_random, explore_systematic, run_schedule, run_seed, run_trail, ExploreConfig,
    ExploreReport, ScheduleOutcome, Violation,
};
pub use node::{spawn_node, NodeHandle, NodeMsg};
pub use qad::FedConfig;
pub use setup::{ClusterSpec, QueryClassSpec};
pub use simtransport::{SharedSchedule, SimNodeState, SimTransport};
pub use transport::{ChannelTransport, NodeStats, TcpTransport, Transport};
