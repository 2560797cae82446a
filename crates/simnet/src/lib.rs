//! # qa-simnet — discrete-event simulation kernel
//!
//! The substrate underneath the federation simulator of
//! *Autonomic Query Allocation based on Microeconomics Principles*
//! (Pentaris & Ioannidis, ICDE 2007), Section 5.1.
//!
//! The paper evaluates its QA-NT allocator on a from-scratch C++ simulator of
//! a 100-node federation of autonomous RDBMSs. This crate provides the
//! domain-independent pieces of such a simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution (the paper works in milliseconds; we keep a finer grain so
//!   message latencies do not round to zero),
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   tie-breaking for simultaneous events,
//! * [`MinTree`] — an indexed tournament tree: the minimum of a standing
//!   set of keyed positions in `O(1)`, one position re-keyed in `O(log n)`,
//! * [`DetRng`] and the distributions in [`dist`] — all randomness in an
//!   experiment flows from a single seed, so every run is reproducible,
//! * [`LinkSpec`] — a latency + bandwidth model for network links,
//! * [`FaultPlan`] — deterministic fault injection layered over the links:
//!   per-link drop probability, latency jitter, scheduled outage windows,
//! * [`stats`] — streaming statistics (Welford mean/variance, histograms,
//!   fixed-bin time series) used to produce the paper's figures,
//! * [`telemetry`] — structured market tracing (typed events, JSONL
//!   sinks, metrics registry, convergence diagnostics), zero-cost when
//!   disabled,
//! * [`par`] — a hermetic scoped thread pool whose [`par_map_indexed`]
//!   fans independent sweep cells over the cores while keeping output
//!   byte-identical to the serial run,
//! * [`sched`] — deterministic schedule exploration for message-passing
//!   protocols: seeded-random, replay, and bounded-systematic choosers
//!   driving the cluster's model-checking harness,
//! * [`watchdog`] — the shared test-support termination bound
//!   (`QA_TEST_TIMEOUT_SECS` override) used by the e2e suites.
//!
//! Everything here is deliberately generic: the same kernel drives the
//! 100-node simulation (`qa-sim`) and the synthetic-workload generators
//! (`qa-workload`).

pub mod dist;
pub mod event;
pub mod exposition;
pub mod fault;
pub mod json;
pub mod link;
pub mod mintree;
pub mod par;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod watchdog;

pub use dist::{Exponential, Uniform, Zipf};
pub use event::{EventQueue, ScheduledEvent};
pub use exposition::prometheus_text;
pub use fault::{FaultPlan, LinkFaults, OutageWindow};
pub use json::{Json, ToJson};
pub use link::LinkSpec;
pub use mintree::MinTree;
pub use par::{par_for_each_chunk_mut, par_map_indexed, par_map_indexed_with, thread_budget};
pub use rng::DetRng;
pub use sched::{
    ChoiceTrail, RandomSchedule, ReplaySchedule, Schedule, SystematicExplorer, SystematicSchedule,
};
pub use telemetry::{ConvergenceReport, MetricsRegistry, Telemetry, TelemetryEvent, TraceRecord};
pub use time::{SimDuration, SimTime};
pub use watchdog::with_watchdog;
