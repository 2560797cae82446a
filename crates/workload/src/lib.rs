//! # qa-workload — query classes, synthetic datasets and arrival processes
//!
//! The vocabulary and workload machinery of the paper's evaluation (§5,
//! Table 3):
//!
//! * [`ids`] — [`NodeId`] and [`ClassId`] newtypes shared by every layer,
//! * [`template`] — query templates/classes (§2.1: families of queries
//!   differing only in selection constants, with similar per-node cost) and
//!   the Table-3 generator (100 classes of select-join-project-sort queries
//!   with 0–49 joins),
//! * [`dataset`] — the synthetic federation dataset: 1 000 relations of
//!   1–20 MB mirrored ~5× across 100 heterogeneous nodes,
//! * [`arrival`] — arrival processes: the 0.05–2 Hz sinusoid workloads of
//!   Figures 3–5 (two classes, 90° phase offset, peak Q1 = 2 × peak Q2)
//!   and the zipf inter-arrival workload of Figure 6,
//! * `trace` — materialized query traces: time-ordered
//!   [`QueryEvent`]s that the simulator and the cluster driver replay.

pub mod arrival;
pub mod dataset;
pub mod ids;
pub mod template;
pub(crate) mod trace;

pub use dataset::{Dataset, Relation};
pub use ids::{ClassId, NodeId, RelationId};
pub use template::{QueryTemplate, TemplateSet};
pub use trace::{QueryEvent, Trace};
